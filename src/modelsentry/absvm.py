"""Abstract stack machine over pickle opcodes.

Re-executes every opcode's stack/memo effect symbolically, building a graph
of placeholder values and emitting security events as it goes.  Nothing is
ever imported, constructed, or called: a GLOBAL pushes a name pair, REDUCE
records that a call *would* happen.

The machine mirrors the reference loader's stack discipline (value stack
plus a metastack of MARK frames, and an integer-keyed memo).  Memo fetches
push ``MemoRef`` placeholders so the value graph itself stays acyclic; the
memo table in the result resolves them.  A literal short enough to render
whole (None, a bool, an int, a float, or text or bytes of at most
``ARG_SUMMARY_CAP``) sits in the graph as the plain Python value; a longer
one is a ``LongPrimitive``.  Every other node is an ``AbstractValue``.

``_Machine.run`` is the one decode-and-evaluate loop: it reads each opcode
byte, decodes its argument through ``disasm.DECODERS`` (a run of BINFLOAT
ops in one ``struct`` call), checks the segment bounds and FRAME bounds
inline and dispatches through ``_HANDLERS``, a table indexed by opcode
byte, built from ``disasm.OPCODES`` (the stdlib's ``pickletools.opcodes``)
and the handlers keyed by opcode name; every opcode there has one.
``walk`` runs one machine over a whole stream with no instruction list,
and each STOP-delimited segment resets it; that is the scanner's path.
``evaluate`` runs it over the bytes of a disassembled program.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from . import disasm
from .disasm import OPCODES, ParseError, PickleProgram, zero_padding


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
    state: object = None  # attached by a later BUILD


@dataclass(slots=True)
class Container(AbstractValue):
    """list/tuple/set/frozenset hold elements; dict holds (key, value) pairs."""

    kind: str
    elements: list


@dataclass(slots=True)
class LongPrimitive(AbstractValue):
    """A literal too big to ``repr`` whole when rendered: text or bytes longer
    than ARG_SUMMARY_CAP, or an int of more than 4,300 digits.  Shorter
    literals are held as plain values."""

    value: object


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
    note: str = ""


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
    callee: object
    argc: int | None
    arg_summary: str  # "" when the walk's ``keep_call`` dropped the call
    root: tuple[str, str] | None  # ``call_roots`` of the callee, at the call


@dataclass(frozen=True)
class StateBuilt(SecurityEvent):
    pass


@dataclass(frozen=True)
class PersistentId(SecurityEvent):
    pass


@dataclass(frozen=True)
class ExtensionUsed(SecurityEvent):
    code: int


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
    """Outcome of evaluating one program, or one segment of a ``walk``."""

    root: object  # an AbstractValue or a plain literal, as any value below
    events: list[SecurityEvent]
    memo_size: int
    memo: dict[int, object]
    # The fault that ended a walked segment: ``events`` are then those
    # recorded before it, which a loader runs before it fails.
    error: VmError | ParseError | None = None


# ---------------------------------------------------------------------------
# Rendering (bounded, for summaries and finding evidence)


def _long_text(value: object, budget: int) -> str:
    """The text of a LongPrimitive.  A text or bytes value no longer than
    ``budget`` gets its ``repr``.  A longer one gets a text that is longer
    than ``budget`` too and starts with the same ``budget`` characters as
    its repr, at work bounded by ``budget``, not by the size of the value."""
    if isinstance(value, int):
        return f"<int of {value.bit_length()} bits>"
    if len(value) <= budget:
        return repr(value)
    # Each character or byte takes at least one character of repr, so a head
    # of ``budget`` of them covers the part shown.  repr quotes with " only
    # when the value holds ' but no ", so it picks its quote from the whole
    # value: one character of the kind the head may lack makes the head's
    # repr pick the same quote.
    single, double = ("'", '"') if isinstance(value, str) else (b"'", b'"')
    quote_decider = single if single in value and double not in value else double
    return repr(value[:budget] + quote_decider)


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
        if not isinstance(v, AbstractValue):  # a plain literal: its repr is short
            put(repr(v))
        elif isinstance(v, LongPrimitive):
            put(_long_text(v.value, budget))
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


def _text(value: object) -> str | None:
    """The text of a text literal, long or short; None for anything else."""
    if isinstance(value, LongPrimitive):
        value = value.value
    return value if isinstance(value, str) else None


class _Machine:
    __slots__ = (
        "keep_call", "stack", "metastack", "memo", "events", "root", "offset", "error",
        "open_frame", "rendered",
    )

    def __init__(self, keep_call: KeepCall | None = None):
        self.keep_call = keep_call
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
        # (frame end, FRAME offset, event index at that FRAME, already flagged)
        self.open_frame: tuple[int, int, int, bool] | None = None
        # ``render_value``'s shared memo expansions.  Every op that writes
        # the graph clears it: PUT and MEMOIZE, and APPEND(S), ADDITEMS and
        # SETITEM(S) into any container, since DUP or GET can make a
        # container part of any memo entry.  BUILD sets only
        # ``CallResult.state``, which evidence never renders.  Made at the
        # first rendered call: most segments make none.
        self.rendered: dict[tuple[int, int, int], tuple[str, int]] | None = None

    # -- the machine loop ---------------------------------------------------

    def run(self, stream: bytes, start: int):
        """Decode and evaluate the ops of ``stream`` from ``start`` through
        STOP, and yield the end of the STOP op.  Sent the start of the next
        segment, reset the per-segment state and do the same from there:
        one machine and one loop walk every segment of a stream.

        Each op's argument is read through ``disasm.DECODERS``; a ParseError
        (MissingStop, UnknownOpcode, a bad argument, or more than
        ``disasm.MAX_INSTRUCTIONS`` ops in one segment) propagates and ends
        the run.  FRAME bounds are checked inline: a FrameMismatch goes
        before the events of the op it flags.  A VmError ends evaluation and
        is kept in ``self.error``, but the loop goes on decoding, with no
        dispatch and no frame checks, to STOP or a ParseError, counting ops
        as before.

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
            except disasm.TruncatedArgument as exc:
                # A GLOBAL or INST whose last line runs to the end of the stream
                # (see ``disasm._name_pair``): outside a frame, pickle.py's
                # loader imports that pair, and for INST calls it, before it
                # fails.  The ParseError is still the segment's error.
                in_frame = frame_end != _NO_FRAME and exc.names_line < frame_end
                if live and exc.names is not None and not in_frame:
                    self.offset = pos
                    try:
                        handlers[code](self, exc.names)
                    except VmError:
                        pass
                raise
            if frame_end != _NO_FRAME:
                self.open_frame = (frame_end, *last_frame)
            pos = yield end
            self._reset()

    def result(
        self, error: VmError | ParseError | None, stream_end: int = 0, trailing_bytes: int = 0
    ) -> AbstractResult:
        """The outcome of the run, which reached STOP and set ``self.root``
        unless an ``error`` ended it.  ``stream_end`` is where the bytes a
        final frame may cover end."""
        if error is not None:
            root = Opaque("evaluation stopped before STOP")
            return AbstractResult(root, self.events, len(self.memo), self.memo, error)
        if self.open_frame is not None:
            frame_end, frame_offset, index, flagged = self.open_frame
            if frame_end > stream_end and not flagged:
                self.events.insert(index, FrameMismatch(frame_offset))
        if trailing_bytes > 0:
            self.events.append(TrailingData(self.offset, trailing_bytes))
        return AbstractResult(self.root, self.events, len(self.memo), self.memo)

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

    def memo_put(self, index: int) -> None:
        if index < 0:
            raise MemoMiss(self.offset, index)
        if len(self.memo) >= MAX_MEMO_ENTRIES:
            raise LimitExceeded(self.offset, "max_memo_entries")
        self.memo[index] = self.peek()
        if self.rendered:
            self.rendered.clear()

    def emit(self, event: SecurityEvent) -> None:
        self.events.append(event)

    # -- opcode handlers ----------------------------------------------------

    def op_proto(self, arg) -> None:
        pass

    def op_frame(self, arg) -> None:
        pass  # frame accounting happens in run()

    def op_stop(self, arg) -> None:
        self.root = self.pop()
        depth = len(self.stack)
        if self.metastack:
            depth += sum(len(frame) for frame in self.metastack)
        if depth > 0:
            self.emit(ResidualStack(self.offset, depth))

    # constants: the hot ones check the stack depth inline
    def op_none(self, arg) -> None:
        self.push(None)

    def op_newtrue(self, arg) -> None:
        self.push(True)

    def op_newfalse(self, arg) -> None:
        self.push(False)

    def op_literal(self, arg) -> None:
        """A literal whose opcode bounds it short enough to render whole."""
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth")
        stack.append(arg)

    def op_sized_literal(self, arg) -> None:
        """A literal whose opcode puts no fixed bound on its argument."""
        if isinstance(arg, (str, bytes, bytearray)):
            long = len(arg) > ARG_SUMMARY_CAP
        else:
            long = not -_BIG_INT < arg < _BIG_INT
        stack = self.stack
        if len(stack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth")
        stack.append(LongPrimitive(arg) if long else arg)

    def op_bytearray8(self, arg) -> None:
        self.op_sized_literal(bytearray(arg))

    # containers
    def op_empty_list(self, arg) -> None:
        self.push(Container("list", []))

    def op_empty_dict(self, arg) -> None:
        self.push(Container("dict", []))

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
        items = self.pop_mark()
        target = _deref(self.peek(), self.memo)
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
        items = self.pop_mark()
        target = _deref(self.peek(), self.memo)
        if isinstance(target, Container) and target.kind == "dict":
            for i in range(0, len(items) - 1, 2):
                target.elements.append((items[i], items[i + 1]))
            if self.rendered:
                self.rendered.clear()

    # stack plumbing
    def op_mark(self, arg) -> None:
        if len(self.metastack) >= MAX_STACK_DEPTH:
            raise LimitExceeded(self.offset, "max_stack_depth (metastack)")
        self.metastack.append(self.stack)
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
        self.push(MemoRef(index))

    def op_put(self, arg) -> None:
        self.memo_put(int(arg))

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
        name = _text(_deref(self.pop(), self.memo))
        module = _text(_deref(self.pop(), self.memo))
        if name is not None and module is not None:
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
        self.emit(CallMade(self.offset, callee, argc, summary, root))

    def op_build(self, arg) -> None:
        state = self.pop()
        target = _deref(self.peek(), self.memo)
        self.emit(StateBuilt(self.offset))
        if isinstance(target, CallResult):
            target.state = state

    # persistent ids, extensions, buffers
    def op_persid(self, arg) -> None:
        self.emit(PersistentId(self.offset))
        self.push(PersistentRef(arg, line=True))

    def op_binpersid(self, arg) -> None:
        pid = self.pop()
        self.emit(PersistentId(self.offset))
        self.push(PersistentRef(pid))

    def op_ext(self, arg) -> None:
        code = int(arg)
        self.emit(ExtensionUsed(self.offset, code))
        self.push(ExtensionRef(code))

    def op_next_buffer(self, arg) -> None:
        self.emit(OutOfBandBuffer(self.offset))
        self.push(Opaque("out-of-band buffer"))

    def op_readonly_buffer(self, arg) -> None:
        self.emit(OutOfBandBuffer(self.offset))
        self.pop()
        self.push(Opaque("read-only buffer view"))


_BY_MNEMONIC = {
    "PROTO": _Machine.op_proto,
    "FRAME": _Machine.op_frame,
    "STOP": _Machine.op_stop,
    "NONE": _Machine.op_none,
    "NEWTRUE": _Machine.op_newtrue,
    "NEWFALSE": _Machine.op_newfalse,
    "INT": _Machine.op_sized_literal,
    "BININT": _Machine.op_literal,
    "BININT1": _Machine.op_literal,
    "BININT2": _Machine.op_literal,
    "LONG": _Machine.op_sized_literal,
    "LONG1": _Machine.op_literal,
    "LONG4": _Machine.op_sized_literal,
    "FLOAT": _Machine.op_literal,
    "BINFLOAT": _Machine.op_literal,
    "STRING": _Machine.op_sized_literal,
    "BINSTRING": _Machine.op_sized_literal,
    "SHORT_BINSTRING": _Machine.op_literal,
    "UNICODE": _Machine.op_sized_literal,
    "BINUNICODE": _Machine.op_sized_literal,
    "SHORT_BINUNICODE": _Machine.op_literal,
    "BINUNICODE8": _Machine.op_sized_literal,
    "BINBYTES": _Machine.op_sized_literal,
    "SHORT_BINBYTES": _Machine.op_literal,
    "BINBYTES8": _Machine.op_sized_literal,
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


def evaluate(program: PickleProgram) -> AbstractResult:
    """Symbolically execute ``program`` and collect its security events.

    Pure function of its inputs: identical programs yield identical results,
    and no side effect of any kind is performed.  A VmError is raised.
    """
    machine = _Machine()
    next(machine.run(program.stream, program.start_offset))
    if machine.error is not None:
        raise machine.error
    stream_end = program.start_offset + program.byte_length + program.trailing_bytes
    return machine.result(None, stream_end, program.trailing_bytes)


def walk(stream: bytes, keep_call: KeepCall | None = None):
    """Decode and evaluate every STOP-delimited segment of ``stream`` in one pass.

    Yields one AbstractResult per segment and never raises; no instruction
    list is built, and one machine runs every segment, reset at each.  A
    segment's VmError or ParseError is its result's ``error``, and a
    ParseError (with its ``segment`` set) ends the walk; a stream refused
    before its first segment yields one result that holds the refusal and
    no events.  Segment splitting, zero padding and ParseErrors are exactly
    those of ``disasm.iter_programs``, and each result without an error
    equals ``evaluate`` of the matching program.

    ``keep_call(root)`` says which calls need evidence: a CallMade whose
    root it rejects gets an empty ``arg_summary``.  Kept calls get the text
    ``evaluate`` gives them.  None keeps every call.
    """
    try:
        disasm.check_stream(stream)
    except ParseError as exc:
        yield _Machine().result(exc)
        return
    length = len(stream)
    machine = _Machine(keep_call)
    segments = machine.run(stream, 0)
    pos = None  # the first send starts the run, at 0
    segment = 0
    while True:
        try:
            end = segments.send(pos)
        except ParseError as exc:
            exc.segment = segment
            yield machine.result(exc)
            return
        trailing = zero_padding(stream, end)
        pos = end + trailing
        yield machine.result(machine.error, pos, trailing)
        if pos >= length:
            return
        segment += 1
