"""Abstract stack machine over pickle opcodes.

Re-executes every opcode's stack/memo effect symbolically, building a graph
of placeholder values and emitting security events as it goes.  Nothing is
ever imported, constructed, or called: a GLOBAL pushes a name pair, REDUCE
records that a call *would* happen.

The machine mirrors the reference loader's stack discipline (value stack
plus a metastack of MARK frames, and an integer-keyed memo).  Memo fetches
push ``MemoRef`` placeholders so the value graph itself stays acyclic; the
memo table in the result resolves them.  A literal (None, a bool, an int,
a float, text, bytes or a bytearray) sits in the graph as the plain value
the stream wrote, however long: ``render_value`` bounds the text it shows.
Every other node is an ``AbstractValue``.

``_Machine.run`` is the one decode-and-evaluate loop, a plain generator
that yields the result of each STOP-delimited segment.  It reads each
opcode byte, reads an argless op's or a one-byte argument inline and any
other through ``disasm.DECODERS`` (a run of BINFLOAT ops in one ``struct``
call), checks the segment bounds and FRAME bounds inline and dispatches
through ``_HANDLERS``, a table indexed by opcode byte, built from
``disasm.OPCODES`` (the stdlib's ``pickletools.opcodes``) and the handlers
keyed by opcode name; every opcode there has one.  ``walk`` runs it over a
whole stream, one machine reset at each segment; that is the scanner's
path.  ``evaluate(stream, start)`` takes the first result of a fresh
machine at ``start``: the reference ``walk`` is tested against.
``is_pickle`` is the scanner's one rule for which bytes it scans as a
pickle: those whose first segment a loader would run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from . import disasm
from .disasm import OPCODES, ParseError, zero_padding


# ---------------------------------------------------------------------------
# Abstract values


class AbstractValue:
    """Base class for symbolic nodes in the reconstructed object graph."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class GlobalRef(AbstractValue):
    """A (module, name) pair as written in the stream, never resolved."""

    module: str
    name: str


@dataclass(frozen=True, slots=True)
class DynamicGlobalRef(AbstractValue):
    """STACK_GLOBAL whose operands are not two literal text values."""


@dataclass(slots=True)
class CallResult(AbstractValue):
    """The value a loader would get by calling ``callee(*args)``."""

    callee: object
    args: tuple


@dataclass(slots=True)
class Container(AbstractValue):
    """list/tuple/set/frozenset hold elements; dict holds (key, value) pairs."""

    kind: str
    elements: list


@dataclass(frozen=True, slots=True)
class PersistentRef(AbstractValue):
    """A persistent id: PERSID's text line (``line`` set), or the value
    BINPERSID popped.  Rendered only as part of evidence, like any other
    argument."""

    pid: object
    line: bool = False


@dataclass(frozen=True, slots=True)
class MemoRef(AbstractValue):
    index: int


@dataclass(frozen=True, slots=True)
class ExtensionRef(AbstractValue):
    code: int


@dataclass(frozen=True, slots=True)
class Opaque(AbstractValue):
    """An out-of-band buffer, or the root of a segment cut short."""


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class SecurityEvent:
    at_offset: int

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class GlobalResolved(SecurityEvent):
    module: str
    name: str


@dataclass(frozen=True)
class DynamicGlobal(SecurityEvent):
    pass


@dataclass(frozen=True)
class CallMade(SecurityEvent):
    argc: int | None
    arg_summary: str  # "" when the walk's ``keep_call`` dropped the call
    root: tuple[str, str] | None  # ``call_roots`` of the callee, at the call


@dataclass(frozen=True)
class ResidualStack(SecurityEvent):
    depth: int


@dataclass(frozen=True)
class TrailingData(SecurityEvent):
    byte_count: int


@dataclass(frozen=True)
class FrameMismatch(SecurityEvent):
    pass


@dataclass(frozen=True)
class OutOfBandBuffer(SecurityEvent):
    pass


# ---------------------------------------------------------------------------
# Errors and bounds


# Bounds on one segment's evaluation, read at each check, so a patched value
# takes effect.
MAX_STACK_DEPTH = 1_000_000  # stack and metastack, each
MAX_MEMO_ENTRIES = 10_000_000

ARG_SUMMARY_CAP = 4096
PID_SUMMARY_CAP = 256
# Memo expansions a machine keeps for its calls' evidence, each at most
# ARG_SUMMARY_CAP characters: past this many it starts over, so a stream
# that varies depth or budget from call to call holds no more than these.
MAX_SHARED_RENDERS = 128

# Ints from here on (10**4300: the default of ``sys.int_max_str_digits``)
# render as a placeholder: their decimal text is quadratic work, and
# refused by the interpreter's default conversion limit.
_BIG_INT = 10**4300


class VmError(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message

    @property
    def kind(self) -> str:
        return type(self).__name__


class StackUnderflow(VmError):
    def __init__(self, offset: int):
        super().__init__(offset, "stack underflow")


class MemoMiss(VmError):
    def __init__(self, offset: int, index: int):
        super().__init__(offset, f"memo has no entry {index}")
        self.index = index


class BadMark(VmError):
    def __init__(self, offset: int):
        super().__init__(offset, "no MARK on metastack")


class LimitExceeded(VmError):
    def __init__(self, offset: int, which: str):
        super().__init__(offset, f"limit exceeded: {which}")
        self.which = which


@dataclass(slots=True)
class AbstractResult:
    """Outcome of evaluating one segment, by ``evaluate`` or in a ``walk``."""

    root: object  # an AbstractValue or a plain literal, as any value below
    events: list[SecurityEvent]
    memo_size: int
    memo: dict[int, object]
    # The fault that ended a walked segment: ``events`` are then those
    # recorded before it, which a loader runs before it fails.
    error: VmError | ParseError | None = None
    # The segment's first fault, where a loader stops: a VmError that
    # ``error`` follows, or ``error``.
    fault: VmError | ParseError | None = None
    # The index of the segment in the stream, counting every segment.
    segment: int = 0


# ---------------------------------------------------------------------------
# Rendering (bounded, for summaries and finding evidence)


def clip(text: str) -> str:
    """A name a finding copies from the input, cut to its first
    ARG_SUMMARY_CAP characters and "…" when it is longer."""
    return text if len(text) <= ARG_SUMMARY_CAP else text[:ARG_SUMMARY_CAP] + "…"


def _literal_text(value: object, budget: int) -> str:
    """The text of a plain literal, at work bounded by ``budget``, not by
    the size of the value.  An int of 10**4300 or more is
    ``<int of N bits>``.  Text or bytes longer than ``budget`` get a text
    that is longer than ``budget`` too and starts with the same ``budget``
    characters as its repr.  Anything else gets its repr."""
    if isinstance(value, (str, bytes, bytearray)):
        if len(value) <= budget:
            return repr(value)
        # Each character or byte takes at least one character of repr, so a
        # head of ``budget`` of them covers the part shown.  repr quotes with
        # " only when the value holds ' but no ", so it picks its quote from
        # the whole value: one character of the kind the head may lack makes
        # the head's repr pick the same quote.
        single, double = ("'", '"') if isinstance(value, str) else (b"'", b'"')
        quote_decider = single if single in value and double not in value else double
        return repr(value[:budget] + quote_decider)
    if isinstance(value, int) and not -_BIG_INT < value < _BIG_INT:
        return f"<int of {value.bit_length()} bits>"
    return repr(value)


_BRACKETS = {
    "list": ("[", "]"),
    "tuple": ("(", ")"),
    "set": ("{", "}"),
    "frozenset": ("frozenset({", "})"),
    "dict": ("{", "}"),
}


_MAX_DEPTH = 24


def render_value(
    value: object,
    memo: dict[int, object] | None = None,
    limit: int = ARG_SUMMARY_CAP,
    rendered: dict[tuple[int, int, int], tuple[str, int]] | None = None,
) -> str:
    """Render a value graph to bounded, repr-like text.

    The text is the first ``limit`` characters of the full render, then
    "…" unless the cut falls at the end of a piece (a bracket, a separator
    or one value's text).  Elements are taken lazily, one at a time, until
    the budget runs out, so work follows the text shown, not the size of a
    container.

    ``rendered`` shares work between renders over one memo: it maps an
    outermost memo expansion's ``(index, depth, budget)`` to its text and
    the budget left after it.  Its owner clears it whenever the value
    graph or the memo changes; past ``MAX_SHARED_RENDERS`` entries it is
    cleared here before the next one is kept.
    """
    out: list[str] = []
    budget = limit

    def put(text: str) -> None:
        nonlocal budget
        if budget <= 0:
            return
        if len(text) > budget:
            out.append(text[:budget] + "…")
            budget = 0
            return
        out.append(text)
        budget -= len(text)

    def walk(v: object, depth: int, seen: frozenset[int]) -> None:
        if budget <= 0:
            return
        if depth > _MAX_DEPTH:
            put("…")
            return
        if not isinstance(v, AbstractValue):  # a plain literal
            put(_literal_text(v, budget))
        elif isinstance(v, GlobalRef):
            put(f"{v.module}.{v.name}")
        elif isinstance(v, DynamicGlobalRef):
            put("<dynamic global>")
        elif isinstance(v, MemoRef):
            if memo is None or v.index not in memo or v.index in seen:
                put(f"<memo {v.index}>")
            elif seen or rendered is None:
                walk(memo[v.index], depth + 1, seen | {v.index})
            else:
                shared(v.index, depth)
        elif isinstance(v, CallResult):
            walk(v.callee, depth + 1, seen)
            args = v.args if isinstance(v.args, tuple) else ()
            items(args, "(", ")", False, depth, seen)
        elif isinstance(v, Container):
            opener, closer = _BRACKETS[v.kind]
            items(v.elements, opener, closer, v.kind == "dict", depth, seen)
        elif isinstance(v, PersistentRef):
            # The id is a summary of its own, capped at PID_SUMMARY_CAP: PERSID's
            # text raw, BINPERSID's value rendered with this memo.  Only the
            # part the remaining budget can show is rendered, which keeps a
            # chain of ids nested in ids short.
            room = max(0, min(PID_SUMMARY_CAP, budget - len("<persistent ")))
            if v.line:
                pid_text = v.pid[:room]
            else:
                pid_text = render_value(v.pid, memo, room)
            put(f"<persistent {pid_text}>")
        elif isinstance(v, ExtensionRef):
            put(f"<extension {v.code}>")
        else:
            put("<opaque>")

    def shared(index: int, depth: int) -> None:
        """An outermost memo expansion: rendered once per depth and budget
        and kept in ``rendered``.  Only outermost ones are kept, so the
        texts one render keeps are disjoint pieces of its own text."""
        nonlocal budget
        key = (index, depth, budget)
        hit = rendered.get(key)
        if hit is None:
            start = len(out)
            walk(memo[index], depth + 1, frozenset((index,)))
            if len(rendered) >= MAX_SHARED_RENDERS:
                rendered.clear()
            rendered[key] = ("".join(out[start:]), budget)
        else:
            text, budget = hit
            out.append(text)

    def items(elements, opener: str, closer: str, pairs: bool, depth: int, seen: frozenset[int]) -> None:
        """The elements of a container or argument tuple, between brackets.
        Every element shows at least one character and every separator two,
        so the loop visits at most two elements past those shown."""
        put(opener)
        for index, element in enumerate(elements):
            if budget <= 0:
                break
            if index:
                put(", ")
            if pairs:
                key, val = element
                walk(key, depth + 1, seen)
                put(": ")
                walk(val, depth + 1, seen)
            else:
                walk(element, depth + 1, seen)
        put(closer)

    walk(value, 0, frozenset())
    # The nested functions refer to each other through ``walk``: clearing it
    # frees them, and the memo they hold, now rather than at a collection.
    walk = None
    return "".join(out)


# ---------------------------------------------------------------------------
# Memo references and call chains


def _deref(
    value: object, memo: dict[int, object], seen: set[int] | None = None
) -> object:
    """Follow MemoRef links through ``memo`` until a non-reference or a cycle.

    Indices followed are added to ``seen`` when one is given, so a caller
    can carry cycle detection across several hops.  A value that is not a
    MemoRef is returned as is, without allocating.
    """
    if not isinstance(value, MemoRef):
        return value
    if seen is None:
        seen = set()
    while isinstance(value, MemoRef) and value.index in memo and value.index not in seen:
        seen.add(value.index)
        value = memo[value.index]
    return value


def call_roots(
    callee: object, memo: dict[int, object] | None = None
) -> tuple[str, str] | None:
    """Root (module, name) of the callee chain behind one CallMade event.

    The root is found by following callee edges through nested CallResults;
    a DynamicGlobalRef root yields the sentinel pair ("<dynamic>", "<dynamic>")
    and any other root (a literal, an unresolved memo entry) yields None.
    """
    if memo is None:
        memo = {}
    seen: set[int] = set()
    value = _deref(callee, memo, seen)
    hops = 0
    while isinstance(value, CallResult) and hops < 64:
        value = _deref(value.callee, memo, seen)
        hops += 1
    if isinstance(value, GlobalRef):
        return (value.module, value.name)
    if isinstance(value, DynamicGlobalRef):
        return ("<dynamic>", "<dynamic>")
    return None


# ---------------------------------------------------------------------------
# The machine


# Given a call's root (see ``call_roots``), whether its evidence is needed.
KeepCall = Callable[[tuple[str, str] | None], bool]


class _Machine:
    __slots__ = (
        "keep_call", "stack", "metastack", "memo", "events", "root", "offset", "error",
        "rendered", "segment",
    )

    def __init__(self, keep_call: KeepCall | None = None):
        self.keep_call = keep_call
        self.segment = 0
        self._reset()

    def _reset(self) -> None:
        """The state of one segment, as at its start.  New containers, not
        cleared ones: a result handed out holds the old ones."""
        self.stack: list = []
        self.metastack: list[list] = []
        self.memo: dict[int, object] = {}
        self.events: list[SecurityEvent] = []
        self.offset = 0
        self.error: VmError | None = None
        # ``render_value``'s shared memo expansions.  Every op that writes
        # the graph clears it: PUT and MEMOIZE, and APPEND(S), ADDITEMS and
        # SETITEM(S) into any container, since DUP or GET can make a
        # container part of any memo entry.  BUILD writes nothing.  Made at
        # the first rendered call: most segments make none.
        self.rendered: dict[tuple[int, int, int], tuple[str, int]] | None = None

    # -- the machine loop ---------------------------------------------------

    def run(self, stream: bytes, start: int):
        """Decode and evaluate the STOP-delimited segments of ``stream``
        from ``start`` on, one machine reset at each, and yield each
        segment's AbstractResult (``self.segment`` counts them); return at
        the end of the stream or after a ParseError's result.

        Each result is settled here: zero padding that runs from STOP to
        the end of the stream is a TrailingData, and a FRAME that runs on
        past both gets a FrameMismatch at its place among the events.  A
        ParseError (MissingStop, UnknownOpcode, a bad argument, or more than
        ``disasm.MAX_INSTRUCTIONS`` ops in one segment) is the result's
        ``error``, with its ``segment`` set.  A clean segment, one after the
        first with no event and no fault, says nothing and is not yielded.

        An argless op takes no decoder call, nor does a one-byte argument
        (PROTO, BININT1, BINGET, BINPUT, EXT1) whose byte is there; every
        other argument is read through ``disasm.DECODERS``.  FRAME bounds
        are checked inline: a FrameMismatch goes before the events of the op
        it flags.  A VmError ends evaluation and is kept in ``self.error``,
        but the loop goes on decoding, with no dispatch and no frame checks,
        to STOP or a ParseError, counting ops as before.

        A run of BINFLOAT ops is decoded with one ``_FLOAT_RUNS`` call per
        at most _MAX_FLOAT_RUN ops and pushed with one ``extend``.  The run
        is clipped to the whole ops before the end of the stream, to the
        room left under MAX_INSTRUCTIONS and MAX_STACK_DEPTH and to the
        open frame; the ops it cuts off, and every float after a VmError,
        take the per-op path, so every error and FrameMismatch fires at the
        same op, with the same kind, offset and message.
        """
        decoders = disasm.DECODERS
        handlers = _HANDLERS
        inline_widths = _INLINE_WIDTHS
        length = len(stream)
        max_instructions = disasm.MAX_INSTRUCTIONS
        binfloat = _BINFLOAT
        pos = start
        while True:
            events = self.events
            frame_end = _NO_FRAME
            last_frame = (0, 0, False)
            live = True
            count = 0
            try:
                while True:
                    if pos >= length:
                        raise disasm.MissingStop(pos)
                    if count >= max_instructions:
                        raise disasm.LimitExceeded(pos, "max_instructions")
                    code = stream[pos]
                    width = inline_widths[code]
                    if width == 0:
                        arg = None
                        end = pos + 1
                    elif width == 1 and pos + 1 < length:
                        arg = stream[pos + 1]
                        end = pos + 2
                    else:
                        if code == binfloat and live:
                            # The BINFLOAT run from here, clipped as said above.
                            heads = stream[pos:pos + _FLOAT_RUN_BYTES:_FLOAT_WIDTH]
                            n = min(
                                len(heads) - len(heads.lstrip(b"G")),
                                (length - pos) // _FLOAT_WIDTH,
                                max_instructions - count,
                                MAX_STACK_DEPTH - len(self.stack),
                                (frame_end - pos) // _FLOAT_WIDTH,
                            )
                            if n >= 2:
                                self.stack.extend(_FLOAT_RUNS[n](stream, pos))
                                pos += n * _FLOAT_WIDTH
                                count += n
                                self.offset = pos - _FLOAT_WIDTH
                                continue
                        decode = decoders[code]
                        if decode is None:
                            raise disasm.UnknownOpcode(pos, code)
                        arg, end = decode(stream, pos + 1, pos)
                    if live:
                        self.offset = pos
                        if code == _FRAME:
                            nested = frame_end != _NO_FRAME and pos < frame_end
                            last_frame = (pos, len(events), nested)
                            if nested:
                                events.append(FrameMismatch(pos))
                            frame_end = end + arg
                        elif end > frame_end:
                            if pos < frame_end:  # straddles the frame boundary
                                events.append(FrameMismatch(pos))
                            frame_end = _NO_FRAME
                        try:
                            handlers[code](self, arg)
                        except VmError as exc:
                            # Without its traceback the kept error pins no frame of this run.
                            self.error = exc.with_traceback(None)
                            live = False
                    if code == _STOP:
                        break
                    pos = end
                    count += 1
            except ParseError as exc:
                if isinstance(exc, disasm.TruncatedArgument):
                    # A GLOBAL or INST whose last line runs to the end of the
                    # stream (see ``disasm._name_pair``): pickle.py's loader
                    # imports that pair, and for INST calls it, before it
                    # fails, unless the line starts inside a frame.  A frame
                    # cut short by the end of the stream ends there, as
                    # ``_Unframer`` reads it: a line past it is read from the
                    # file.  The ParseError is still the segment's error.
                    in_frame = frame_end != _NO_FRAME and exc.names_line < min(frame_end, length)
                    if live and exc.names is not None and not in_frame:
                        self.offset = pos
                        try:
                            handlers[code](self, exc.names)
                        except VmError:
                            pass
                exc.segment = self.segment
                yield self.result(exc)
                return
            trailing = 0 if end == length or stream[end] else zero_padding(stream, end)
            if live:
                if frame_end < _NO_FRAME and end + trailing < frame_end:  # a FRAME runs past STOP and padding
                    frame_offset, index, flagged = last_frame
                    if not flagged:
                        events.insert(index, FrameMismatch(frame_offset))
                if trailing:
                    events.append(TrailingData(self.offset, trailing))
            if live and not events and self.segment:
                # A clean segment: the state it used holds nothing a result
                # could show, and no result has seen its memo or metastack.
                self.memo.clear()
                self.metastack.clear()
            else:
                yield self.result(self.error)
                self._reset()
            pos = end + trailing
            if pos >= length:
                return
            self.segment += 1

    def result(self, error: VmError | ParseError | None) -> AbstractResult:
        """The outcome of the segment, which reached STOP and set
        ``self.root`` unless an ``error`` ended it."""
        root = self.root if error is None else Opaque()
        fault = self.error or error
        return AbstractResult(root, self.events, len(self.memo), self.memo, error, fault, self.segment)

    # -- primitives ---------------------------------------------------------

    def push(self, value: object) -> None:
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth")
        stack.append(value)

    def pop(self) -> object:
        try:
            return self.stack.pop()
        except IndexError:
            raise StackUnderflow(self.offset) from None

    def peek(self) -> object:
        try:
            return self.stack[-1]
        except IndexError:
            raise StackUnderflow(self.offset) from None

    def pop_mark(self) -> list:
        if not self.metastack:
            raise BadMark(self.offset)
        items = self.stack
        self.stack = self.metastack.pop()
        return items

    def emit(self, event: SecurityEvent) -> None:
        self.events.append(event)

    # -- opcode handlers ----------------------------------------------------

    def op_proto(self, arg) -> None:
        if arg > 5:  # above pickle.HIGHEST_PROTOCOL: refused by load_proto
            raise VmError(self.offset, f"unsupported pickle protocol: {arg}")

    def op_frame(self, arg) -> None:
        pass  # frame accounting happens in run()

    # The hot handlers (STOP, MARK, EMPTY_LIST and EMPTY_DICT, PUT, MEMOIZE,
    # GET, APPENDS and SETITEMS, and the literals) work on the stack and
    # memo inline, with the checks of ``push``, ``pop``, ``peek`` and
    # ``pop_mark`` in the same order.
    def op_stop(self, arg) -> None:
        stack = self.stack
        try:
            self.root = stack.pop()
        except IndexError:
            raise StackUnderflow(self.offset) from None
        if stack or self.metastack:
            depth = len(stack) + sum(len(frame) for frame in self.metastack)
            if depth > 0:
                self.emit(ResidualStack(self.offset, depth))

    # constants
    def op_none(self, arg) -> None:
        self.push(None)

    def op_newtrue(self, arg) -> None:
        self.push(True)

    def op_newfalse(self, arg) -> None:
        self.push(False)

    def op_literal(self, arg) -> None:
        """A literal, held as the plain value the stream wrote."""
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth")
        stack.append(arg)

    def op_bytearray8(self, arg) -> None:
        self.op_literal(bytearray(arg))

    # containers
    def op_empty_list(self, arg) -> None:
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth")
        stack.append(Container("list", []))

    def op_empty_dict(self, arg) -> None:
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth")
        stack.append(Container("dict", []))

    def op_empty_set(self, arg) -> None:
        self.push(Container("set", []))

    def op_empty_tuple(self, arg) -> None:
        self.push(Container("tuple", []))

    def op_list(self, arg) -> None:
        items = self.pop_mark()
        self.push(Container("list", items))

    def op_tuple(self, arg) -> None:
        items = self.pop_mark()
        self.push(Container("tuple", items))

    def op_tuple1(self, arg) -> None:
        a = self.pop()
        self.push(Container("tuple", [a]))

    def op_tuple2(self, arg) -> None:
        b, a = self.pop(), self.pop()
        self.push(Container("tuple", [a, b]))

    def op_tuple3(self, arg) -> None:
        c, b, a = self.pop(), self.pop(), self.pop()
        self.push(Container("tuple", [a, b, c]))

    def op_dict(self, arg) -> None:
        items = self.pop_mark()
        pairs = [(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        self.push(Container("dict", pairs))

    def op_frozenset(self, arg) -> None:
        items = self.pop_mark()
        self.push(Container("frozenset", items))

    def op_append(self, arg) -> None:
        value = self.pop()
        target = _deref(self.peek(), self.memo)
        if isinstance(target, Container) and target.kind in ("list", "set"):
            target.elements.append(value)
            if self.rendered:
                self.rendered.clear()

    def op_appends(self, arg) -> None:
        metastack = self.metastack
        if not metastack:
            raise BadMark(self.offset)
        items = self.stack
        stack = self.stack = metastack.pop()
        if not stack:
            raise StackUnderflow(self.offset)
        target = _deref(stack[-1], self.memo)
        if isinstance(target, Container) and target.kind in ("list", "set"):
            target.elements.extend(items)
            if self.rendered:
                self.rendered.clear()

    def op_additems(self, arg) -> None:
        items = self.pop_mark()
        target = _deref(self.peek(), self.memo)
        if isinstance(target, Container) and target.kind == "set":
            target.elements.extend(items)
            if self.rendered:
                self.rendered.clear()

    def op_setitem(self, arg) -> None:
        value = self.pop()
        key = self.pop()
        target = _deref(self.peek(), self.memo)
        if isinstance(target, Container) and target.kind == "dict":
            target.elements.append((key, value))
            if self.rendered:
                self.rendered.clear()

    def op_setitems(self, arg) -> None:
        metastack = self.metastack
        if not metastack:
            raise BadMark(self.offset)
        items = self.stack
        stack = self.stack = metastack.pop()
        if not stack:
            raise StackUnderflow(self.offset)
        target = _deref(stack[-1], self.memo)
        if isinstance(target, Container) and target.kind == "dict":
            for i in range(0, len(items) - 1, 2):
                target.elements.append((items[i], items[i + 1]))
            if self.rendered:
                self.rendered.clear()

    # stack plumbing
    def op_mark(self, arg) -> None:
        metastack = self.metastack
        if len(metastack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth (metastack)")
        metastack.append(self.stack)
        self.stack = []

    def op_pop(self, arg) -> None:
        if self.stack:
            self.stack.pop()
        else:
            self.pop_mark()

    def op_pop_mark(self, arg) -> None:
        self.pop_mark()

    def op_dup(self, arg) -> None:
        self.push(self.peek())

    # memo
    def op_get(self, arg) -> None:
        index = int(arg)
        if index not in self.memo:
            raise MemoMiss(self.offset, index)
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth")
        stack.append(MemoRef(index))

    def op_put(self, arg) -> None:
        index = int(arg)
        if index < 0:
            raise MemoMiss(self.offset, index)
        memo = self.memo
        if len(memo) >= MAX_MEMO_ENTRIES:
            raise LimitExceeded(self.offset, "max_memo_entries")
        if not self.stack:
            raise StackUnderflow(self.offset)
        memo[index] = self.stack[-1]
        if self.rendered:
            self.rendered.clear()

    def op_memoize(self, arg) -> None:
        memo = self.memo
        if len(memo) >= MAX_MEMO_ENTRIES:
            raise LimitExceeded(self.offset, "max_memo_entries")
        if not self.stack:
            raise StackUnderflow(self.offset)
        memo[len(memo)] = self.stack[-1]
        if self.rendered:
            self.rendered.clear()

    # globals and calls
    def op_global(self, arg) -> None:
        module, name = arg
        self.emit(GlobalResolved(self.offset, module, name))
        self.push(GlobalRef(module, name))

    def op_stack_global(self, arg) -> None:
        name = _deref(self.pop(), self.memo)
        module = _deref(self.pop(), self.memo)
        if isinstance(name, str) and isinstance(module, str):
            self.emit(GlobalResolved(self.offset, module, name))
            self.push(GlobalRef(module, name))
        else:
            self.emit(DynamicGlobal(self.offset))
            self.push(DynamicGlobalRef())

    def op_reduce(self, arg) -> None:
        args_v = self.pop()
        callee = self.pop()
        resolved = _deref(args_v, self.memo)
        if isinstance(resolved, Container) and resolved.kind == "tuple":
            args = tuple(resolved.elements)
        else:
            args = (args_v,)
        argc = len(args) if isinstance(resolved, Container) and resolved.kind == "tuple" else None
        self.record_call(callee, argc, args_v)
        self.push(CallResult(callee=callee, args=args))

    def op_newobj(self, arg) -> None:
        args_v = self.pop()
        cls = self.pop()
        resolved = _deref(args_v, self.memo)
        if isinstance(resolved, Container) and resolved.kind == "tuple":
            args = tuple(resolved.elements)
        else:
            args = (args_v,)
        self.record_call_with(cls, args)

    def op_newobj_ex(self, arg) -> None:
        kwargs_v = self.pop()
        args_v = self.pop()
        cls = self.pop()
        self.record_call_with(cls, (args_v, kwargs_v))

    def op_obj(self, arg) -> None:
        items = self.pop_mark()
        if not items:
            raise StackUnderflow(self.offset)
        cls, args = items[0], tuple(items[1:])
        self.record_call_with(cls, args)

    def op_inst(self, arg) -> None:
        module, name = arg
        # A loader imports before it looks for the MARK (pickle.py's
        # ``load_inst``), so the import counts even when the MARK is missing.
        self.emit(GlobalResolved(self.offset, module, name))
        items = self.pop_mark()
        self.record_call_with(GlobalRef(module, name), tuple(items))

    def record_call_with(self, callee: object, args: tuple) -> None:
        self.record_call(callee, len(args), Container("tuple", list(args)))
        self.push(CallResult(callee=callee, args=args))

    def record_call(self, callee: object, argc: int | None, args_v: object) -> None:
        """Emit the CallMade event of one call, with its root resolved and its
        arguments rendered now, against the memo as the loader sees it."""
        root = call_roots(callee, self.memo)
        keep_call = self.keep_call
        if keep_call is None or keep_call(root):
            if self.rendered is None:
                self.rendered = {}
            summary = render_value(args_v, self.memo, ARG_SUMMARY_CAP, self.rendered)
        else:
            summary = ""
        self.emit(CallMade(self.offset, argc, summary, root))

    def op_build(self, arg) -> None:
        self.pop()  # the state; the object it sets up stays on the stack
        self.peek()

    # persistent ids, extensions, buffers
    def op_persid(self, arg) -> None:
        self.push(PersistentRef(arg, line=True))

    def op_binpersid(self, arg) -> None:
        self.push(PersistentRef(self.pop()))

    def op_ext(self, arg) -> None:
        self.push(ExtensionRef(int(arg)))

    def op_next_buffer(self, arg) -> None:
        self.emit(OutOfBandBuffer(self.offset))
        self.push(Opaque())

    def op_readonly_buffer(self, arg) -> None:
        self.emit(OutOfBandBuffer(self.offset))
        self.pop()
        self.push(Opaque())


_BY_MNEMONIC = {
    "PROTO": _Machine.op_proto,
    "FRAME": _Machine.op_frame,
    "STOP": _Machine.op_stop,
    "NONE": _Machine.op_none,
    "NEWTRUE": _Machine.op_newtrue,
    "NEWFALSE": _Machine.op_newfalse,
    "INT": _Machine.op_literal,
    "BININT": _Machine.op_literal,
    "BININT1": _Machine.op_literal,
    "BININT2": _Machine.op_literal,
    "LONG": _Machine.op_literal,
    "LONG1": _Machine.op_literal,
    "LONG4": _Machine.op_literal,
    "FLOAT": _Machine.op_literal,
    "BINFLOAT": _Machine.op_literal,
    "STRING": _Machine.op_literal,
    "BINSTRING": _Machine.op_literal,
    "SHORT_BINSTRING": _Machine.op_literal,
    "UNICODE": _Machine.op_literal,
    "BINUNICODE": _Machine.op_literal,
    "SHORT_BINUNICODE": _Machine.op_literal,
    "BINUNICODE8": _Machine.op_literal,
    "BINBYTES": _Machine.op_literal,
    "SHORT_BINBYTES": _Machine.op_literal,
    "BINBYTES8": _Machine.op_literal,
    "BYTEARRAY8": _Machine.op_bytearray8,
    "EMPTY_LIST": _Machine.op_empty_list,
    "EMPTY_DICT": _Machine.op_empty_dict,
    "EMPTY_SET": _Machine.op_empty_set,
    "EMPTY_TUPLE": _Machine.op_empty_tuple,
    "LIST": _Machine.op_list,
    "TUPLE": _Machine.op_tuple,
    "TUPLE1": _Machine.op_tuple1,
    "TUPLE2": _Machine.op_tuple2,
    "TUPLE3": _Machine.op_tuple3,
    "DICT": _Machine.op_dict,
    "FROZENSET": _Machine.op_frozenset,
    "APPEND": _Machine.op_append,
    "APPENDS": _Machine.op_appends,
    "ADDITEMS": _Machine.op_additems,
    "SETITEM": _Machine.op_setitem,
    "SETITEMS": _Machine.op_setitems,
    "MARK": _Machine.op_mark,
    "POP": _Machine.op_pop,
    "POP_MARK": _Machine.op_pop_mark,
    "DUP": _Machine.op_dup,
    "GET": _Machine.op_get,
    "BINGET": _Machine.op_get,
    "LONG_BINGET": _Machine.op_get,
    "PUT": _Machine.op_put,
    "BINPUT": _Machine.op_put,
    "LONG_BINPUT": _Machine.op_put,
    "MEMOIZE": _Machine.op_memoize,
    "GLOBAL": _Machine.op_global,
    "STACK_GLOBAL": _Machine.op_stack_global,
    "REDUCE": _Machine.op_reduce,
    "NEWOBJ": _Machine.op_newobj,
    "NEWOBJ_EX": _Machine.op_newobj_ex,
    "OBJ": _Machine.op_obj,
    "INST": _Machine.op_inst,
    "BUILD": _Machine.op_build,
    "PERSID": _Machine.op_persid,
    "BINPERSID": _Machine.op_binpersid,
    "EXT1": _Machine.op_ext,
    "EXT2": _Machine.op_ext,
    "EXT4": _Machine.op_ext,
    "NEXT_BUFFER": _Machine.op_next_buffer,
    "READONLY_BUFFER": _Machine.op_readonly_buffer,
}


# Indexed by opcode byte: handler(machine, arg); None marks an unassigned byte.
# An opcode of ``disasm.OPCODES`` with no handler fails the import (KeyError).
_HANDLERS: tuple = tuple(op and _BY_MNEMONIC[op.name] for op in OPCODES)

_FRAME = 0x95
_STOP = ord(".")
# Indexed by opcode byte: the width of an argument ``run`` reads without a
# decoder call, 0 (no argument) or 1 (uint1); 2 for any other op, and for
# an unassigned byte.
_INLINE_WIDTHS = bytes(
    2 if op is None else 0 if op.arg is None else 1 if op.arg.name == "uint1" else 2
    for op in OPCODES
)
_NO_FRAME = 1 << 65  # past any frame end a u8 length can encode

# A run of BINFLOAT ops (opcode byte, then an 8-byte big-endian double) is
# decoded by one precompiled ``struct`` call per at most _MAX_FLOAT_RUN ops;
# ``_FLOAT_RUNS[n]`` reads n of them.  The table is fixed, so hostile run
# lengths cannot grow it.
_BINFLOAT = ord("G")
_FLOAT_WIDTH = 9
_MAX_FLOAT_RUN = 64
_FLOAT_RUN_BYTES = _FLOAT_WIDTH * _MAX_FLOAT_RUN
_FLOAT_RUNS: tuple = (None, None) + tuple(
    struct.Struct(">" + "xd" * n).unpack_from for n in range(2, _MAX_FLOAT_RUN + 1)
)


def evaluate(stream: bytes, start: int = 0) -> AbstractResult:
    """Symbolically execute the segment of ``stream`` that starts at
    ``start`` on a fresh machine and collect its security events.

    Pure function of its inputs: identical bytes yield identical results,
    and no side effect of any kind is performed.  A ParseError or VmError
    is raised; a ParseError's ``segment`` is 0, the segment's index on this
    machine.  ``walk``'s reset machine is tested against this.
    """
    result = next(_Machine().run(stream, start))
    if result.error is not None:
        raise result.error
    return result


def walk(stream: bytes, keep_call: KeepCall | None = None):
    """Decode and evaluate every STOP-delimited segment of ``stream`` in one
    pass: ``_Machine.run`` from 0, with no op list.  Never raises.

    Yields an AbstractResult for the first segment, which ``is_pickle``
    reads, and for each later one that has an event or a fault; each
    result's ``segment`` is its index among all segments.  A clean later
    segment costs only its ops.  A segment's VmError or ParseError is its
    result's ``error``, and a ParseError ends the walk; a stream refused
    before its first segment yields one result that holds the refusal,
    with ``segment`` None, and no events.  Segment splitting, zero padding
    and ParseErrors are exactly those of ``disasm.iter_programs``, and each
    result without an error equals ``evaluate(stream, start)`` of its
    segment, which runs a fresh machine.

    ``keep_call(root)`` says which calls need evidence: a CallMade whose
    root it rejects gets an empty ``arg_summary``.  Kept calls get the text
    ``evaluate`` gives them.  None keeps every call.
    """
    try:
        disasm.check_stream(stream)
    except ParseError as exc:
        yield _Machine().result(exc)
        return
    yield from _Machine(keep_call).run(stream, 0)


# How much of a file or archive member ``is_pickle`` reads first.
SNIFF_BYTES = 512


def _is_dotted_name(text: str) -> bool:
    return all(part.isidentifier() for part in text.split("."))


def is_pickle(
    name: str, stream: bytes, whole: bool = True, first: AbstractResult | None = None
) -> bool | None:
    """Whether a loader pointed at ``stream``, the bytes of file or archive
    member ``name``, runs it as a pickle; the scanner scans just those.

    A ``.pkl`` name or a PROTO of protocol 5 or less says a loader was
    pointed at it: yes.  Other bytes must start with an opcode, and the
    first segment of ``walk(stream)`` must reach STOP or import before its
    first fault: a DynamicGlobal, or a GlobalResolved of a dotted module
    and a dotted or empty name (pickle.py imports the module first).  A
    LimitExceeded is the scanner's bound, not a loader's fault: yes,
    unless the bytes run out there too (its ``available`` is set).

    With ``whole`` False, ``stream`` is a head, which decides when the
    first fault lies inside it.  Bytes running out there (MissingStop, or
    ``available`` set), or an import made there, decide nothing: None, read
    the whole.  ``first`` is ``walk(stream)``'s first result, if known.
    """
    if name.endswith(".pkl") or stream[:1] == b"\x80" and len(stream) > 1 and stream[1] <= 5:
        return True
    if not stream:
        return False if whole else None
    if OPCODES[stream[0]] is None:
        return False
    if first is None:
        first = next(walk(stream, lambda root: False))  # no call evidence
    fault = first.fault
    cut = isinstance(fault, disasm.MissingStop) or getattr(fault, "available", None) is not None
    if fault is None or not cut and isinstance(fault, (disasm.LimitExceeded, LimitExceeded)):
        return True
    ran_out = cut and not whole
    for event in first.events:
        if ran_out and event.at_offset >= fault.offset:
            break
        if isinstance(event, DynamicGlobal) or isinstance(event, GlobalResolved) and (
            _is_dotted_name(event.module) and (not event.name or _is_dotted_name(event.name))
        ):
            return True
    return None if ran_out else False
