"""Abstract stack machine over pickle opcodes.

Re-executes every opcode's stack/memo effect symbolically, building a graph
of placeholder values and emitting security events as it goes.  Nothing is
ever imported, constructed, or called: a GLOBAL pushes a name pair, REDUCE
records that a call *would* happen.

The machine mirrors the reference loader's stack discipline (value stack
plus a metastack of MARK frames, and an integer-keyed memo).  A memo fetch
pushes the entry's own object, as the loader's does, so a value the stream
reaches twice is one node, and a list that holds itself is a cycle in the
graph.  A literal (None, a bool, an int, a float, text, bytes or a
bytearray) sits in the graph as the plain value the stream wrote, however
long: ``render_value`` bounds the text it shows.  Every other node is an
``AbstractValue``.

``_Machine.run`` is the one decode-and-evaluate loop, a plain generator
that yields the result of each STOP-delimited segment.  It reads each
opcode byte, reads an argless op's or a one-byte argument inline and any
other through ``disasm.DECODERS`` (a run of BINFLOAT ops in one ``struct``
call), checks the instruction limit and FRAME bounds inline and dispatches
through ``_HANDLERS``, a table indexed by opcode byte, built from
``disasm.OPCODES`` (the stdlib's ``pickletools.opcodes``): opcode NAME's
handler is ``_Machine.op_<name>``, and a family sharing one handler names
it through aliases.  ``walk`` runs the loop over a whole stream, one
machine reset at each segment; that is the scanner's path.
``evaluate(stream, start)`` takes the first result of a fresh machine at
``start``: the reference ``walk`` is tested against.
``is_pickle`` is the scanner's one rule for which bytes it scans as a
pickle: those whose first segment a loader would run.

``Record`` is the base of every record type in the package (values,
events and results here, findings, policies and reports elsewhere): it
lives here because every module that defines one imports this one.
"""

from __future__ import annotations

import struct
from typing import Callable

from . import disasm
from .disasm import OPCODES, Fault, ParseError, zero_padding


# ---------------------------------------------------------------------------
# Records


class Record:
    """Base of the package's plain records.  Each record class names its
    fields in ``__slots__`` and sets them in its own ``__init__``.  Two
    records are equal when they are of the same type with equal fields, and
    a repr reads ``Name(field=value, ...)``.  ``__init__`` takes the fields
    in slot order, as ``copy`` and ``pickle`` call it.

    ``class Name(Base, frozen=True)`` makes a record type and its subclasses
    hashable by their fields and refuses assignment to them: their
    ``__init__`` sets each field through ``set_field``.  Other records are
    mutable and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False) -> None:
        super().__init_subclass__()
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in own if name != "__dict__")
        if frozen:
            cls.__hash__ = Record._field_hash
            cls.__setattr__ = Record._refuse_set
            cls.__delattr__ = Record._refuse_delete

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # Copied and pickled through the constructor, which a frozen
        # record's refusal does not stop.
        return type(self), self._values()

    def _field_hash(self) -> int:
        return hash(self._values())

    def _refuse_set(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _refuse_delete(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# How a frozen record's ``__init__`` sets a field, past the refusal.
set_field = object.__setattr__


# ---------------------------------------------------------------------------
# Abstract values


class AbstractValue(Record):
    """Base class for symbolic nodes in the reconstructed object graph."""

    __slots__ = ()


class GlobalRef(AbstractValue, frozen=True):
    """A (module, name) pair as written in the stream, never resolved."""

    __slots__ = ("module", "name")

    def __init__(self, module: str, name: str):
        set_field(self, "module", module)
        set_field(self, "name", name)


class DynamicGlobalRef(AbstractValue, frozen=True):
    """STACK_GLOBAL whose operands are not two literal text values."""

    __slots__ = ()


class CallResult(AbstractValue):
    """The value a loader would get by calling ``callee(*args)``."""

    __slots__ = ("callee", "args")

    def __init__(self, callee: object, args: tuple):
        self.callee = callee
        self.args = args


class Container(AbstractValue):
    """list/tuple/set/frozenset hold elements; dict holds (key, value) pairs."""

    __slots__ = ("kind", "elements")

    def __init__(self, kind: str, elements: list):
        self.kind = kind
        self.elements = elements


class PersistentRef(AbstractValue, frozen=True):
    """A persistent id: PERSID's text line (``line`` set), or the value
    BINPERSID popped.  Rendered only as part of evidence, like any other
    argument."""

    __slots__ = ("pid", "line")

    def __init__(self, pid: object, line: bool = False):
        set_field(self, "pid", pid)
        set_field(self, "line", line)


class ExtensionRef(AbstractValue, frozen=True):
    __slots__ = ("code",)

    def __init__(self, code: int):
        set_field(self, "code", code)


class Opaque(AbstractValue, frozen=True):
    """An out-of-band buffer, or the root of a segment cut short."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Events


class SecurityEvent(Record, frozen=True):
    __slots__ = ("at_offset",)

    def __init__(self, at_offset: int):
        set_field(self, "at_offset", at_offset)

    @property
    def kind(self) -> str:
        return type(self).__name__


class GlobalResolved(SecurityEvent):
    __slots__ = ("module", "name")

    def __init__(self, at_offset: int, module: str, name: str):
        set_field(self, "at_offset", at_offset)
        set_field(self, "module", module)
        set_field(self, "name", name)


class DynamicGlobal(SecurityEvent):
    __slots__ = ()


class CallMade(SecurityEvent):
    __slots__ = ("argc", "arg_summary", "root")

    def __init__(self, at_offset: int, argc: int | None, arg_summary: str, root: tuple[str, str] | None):
        set_field(self, "at_offset", at_offset)
        set_field(self, "argc", argc)
        set_field(self, "arg_summary", arg_summary)  # "" when the walk's ``keep_call`` dropped the call
        set_field(self, "root", root)  # ``call_roots`` of the callee, at the call


class ResidualStack(SecurityEvent):
    __slots__ = ("depth",)

    def __init__(self, at_offset: int, depth: int):
        set_field(self, "at_offset", at_offset)
        set_field(self, "depth", depth)


class TrailingData(SecurityEvent):
    __slots__ = ("byte_count",)

    def __init__(self, at_offset: int, byte_count: int):
        set_field(self, "at_offset", at_offset)
        set_field(self, "byte_count", byte_count)


class FrameMismatch(SecurityEvent):
    __slots__ = ()


class OutOfBandBuffer(SecurityEvent):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Errors and bounds


ARG_SUMMARY_CAP = 4096
PID_SUMMARY_CAP = 256
# Container renders a machine keeps for its calls' evidence, each at most
# ARG_SUMMARY_CAP characters: past this many it starts over, so a stream
# that varies depth or budget from call to call holds no more than these.
MAX_SHARED_RENDERS = 128

# Ints from here on (10**4300: the default of ``sys.int_max_str_digits``)
# render as a placeholder: their decimal text is quadratic work, and
# refused by the interpreter's default conversion limit.
_BIG_INT = 10**4300


class VmError(Fault):
    """Base class for faults of abstract evaluation."""


class StackUnderflow(VmError):
    def __init__(self, offset: int):
        super().__init__(offset, "stack underflow")


class MemoMiss(VmError):
    def __init__(self, offset: int, index: int):
        super().__init__(offset, f"memo has no entry {index}")


class BadMark(VmError):
    def __init__(self, offset: int):
        super().__init__(offset, "no MARK on metastack")


class AbstractResult(Record):
    """Outcome of evaluating one segment, by ``evaluate`` or in a ``walk``."""

    __slots__ = ("root", "events", "memo", "error", "fault", "segment")

    def __init__(
        self,
        root: object,
        events: list[SecurityEvent],
        memo: dict[int, object],
        error: Fault | None = None,
        fault: Fault | None = None,
        segment: int = 0,
    ):
        self.root = root  # an AbstractValue or a plain literal, as any value below
        self.events = events
        self.memo = memo
        # The fault that ended a walked segment: ``events`` are then those
        # recorded before it, which a loader runs before it fails.
        self.error = error
        # The segment's first fault, where a loader stops: a VmError that
        # ``error`` follows, or ``error``.
        self.fault = fault
        # The index of the segment in the stream, counting every segment.
        self.segment = segment


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
    limit: int = ARG_SUMMARY_CAP,
    rendered: dict[tuple[int, int, int], tuple[Container, str, int]] | None = None,
) -> str:
    """Render a value graph to bounded, repr-like text.

    The text is the first ``limit`` characters of the full render, then
    "…" unless the cut falls at the end of a piece (a bracket, a separator
    or one value's text).  Elements are taken lazily, one at a time, until
    the budget runs out, so work follows the text shown, not the size of a
    container.  A value deeper than the depth cap renders as "…", so a
    cycle renders down to the cap.

    ``rendered`` shares work between renders of one graph: it maps each
    outermost container below the root, by ``(id(container), depth,
    budget)``, to the container itself (so its id is not reused while the
    entry lives), its text and the budget left after it.  Its owner clears
    it whenever a container changes; past ``MAX_SHARED_RENDERS`` entries it
    is cleared here before the next one is kept.
    """
    out: list[str] = []
    budget = limit
    # Whether a container met now is outermost below the root: none that
    # encloses it is being kept.
    sharing = rendered is not None

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

    def walk(v: object, depth: int) -> None:
        if budget <= 0:
            return
        if depth > _MAX_DEPTH:
            put("…")
            return
        if not isinstance(v, AbstractValue):  # a plain literal
            put(_literal_text(v, budget))
        elif isinstance(v, Container):
            if sharing and depth:
                shared(v, depth)
            else:
                opener, closer = _BRACKETS[v.kind]
                items(v.elements, opener, closer, v.kind == "dict", depth)
        elif isinstance(v, GlobalRef):
            put(f"{v.module}.{v.name}")
        elif isinstance(v, DynamicGlobalRef):
            put("<dynamic global>")
        elif isinstance(v, CallResult):
            walk(v.callee, depth + 1)
            args = v.args if isinstance(v.args, tuple) else ()
            items(args, "(", ")", False, depth)
        elif isinstance(v, PersistentRef):
            # The id is a summary of its own, capped at PID_SUMMARY_CAP: PERSID's
            # text raw, BINPERSID's value rendered.  Only the part the
            # remaining budget can show is rendered, which keeps a chain of
            # ids nested in ids short.
            room = max(0, min(PID_SUMMARY_CAP, budget - len("<persistent ")))
            if v.line:
                pid_text = v.pid[:room]
            else:
                pid_text = render_value(v.pid, room)
            put(f"<persistent {pid_text}>")
        elif isinstance(v, ExtensionRef):
            put(f"<extension {v.code}>")
        else:
            put("<opaque>")

    def shared(container: Container, depth: int) -> None:
        """An outermost container: rendered once per depth and budget and
        kept in ``rendered``.  Only outermost ones are kept, so the texts
        one render keeps are disjoint pieces of its own text."""
        nonlocal budget, sharing
        key = (id(container), depth, budget)
        hit = rendered.get(key)
        if hit is None:
            start = len(out)
            sharing = False
            walk(container, depth)
            sharing = True
            if len(rendered) >= MAX_SHARED_RENDERS:
                rendered.clear()
            rendered[key] = (container, "".join(out[start:]), budget)
        else:
            _, text, budget = hit
            out.append(text)

    def items(elements, opener: str, closer: str, pairs: bool, depth: int) -> None:
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
                walk(key, depth + 1)
                put(": ")
                walk(val, depth + 1)
            else:
                walk(element, depth + 1)
        put(closer)

    walk(value, 0)
    # The nested functions refer to each other through ``walk``: clearing it
    # frees them, and the cache they hold, now rather than at a collection.
    walk = None
    return "".join(out)


# ---------------------------------------------------------------------------
# Call chains


def call_roots(callee: object) -> tuple[str, str] | None:
    """Root (module, name) of the callee chain behind one CallMade event.

    The root is found by following callee edges through at most 64 nested
    CallResults; a DynamicGlobalRef root yields the sentinel pair
    ("<dynamic>", "<dynamic>") and any other root (a literal, a container)
    yields None.
    """
    hops = 0
    while isinstance(callee, CallResult) and hops < 64:
        callee = callee.callee
        hops += 1
    if isinstance(callee, GlobalRef):
        return (callee.module, callee.name)
    if isinstance(callee, DynamicGlobalRef):
        return ("<dynamic>", "<dynamic>")
    return None


# ---------------------------------------------------------------------------
# The machine


# Given a call's root (see ``call_roots``), whether to keep its evidence.
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
        # ``render_value``'s shared container renders.  Every op that writes
        # a container clears it: APPEND(S), ADDITEMS and SETITEM(S), since
        # DUP or GET can make any container part of another.  A memo write
        # changes no node, and BUILD writes nothing.  Made at the first
        # rendered call: most segments make none.
        self.rendered: dict[tuple[int, int, int], tuple[Container, str, int]] | None = None

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

        ``disasm.MAX_INSTRUCTIONS`` is the machine's one bound: an op adds
        at most one value to the stack or metastack and one memo entry, and
        each segment starts from empty ones (a clean segment ends with an
        empty stack, and its memo and metastack are cleared here).

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
        room left under MAX_INSTRUCTIONS and to the open frame; the ops it
        cuts off, and every float after a VmError, take the per-op path, so
        every error and FrameMismatch fires at the same op, with the same
        kind, offset and message.
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
                            # Detached, the kept error pins no frame of this run.
                            self.error = exc.detach()
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

    def result(self, error: Fault | None) -> AbstractResult:
        """The outcome of the segment, which reached STOP and set
        ``self.root`` unless an ``error`` ended it."""
        root = self.root if error is None else Opaque()
        fault = self.error or error
        return AbstractResult(root, self.events, self.memo, error, fault, self.segment)

    # -- primitives ---------------------------------------------------------

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

    # The hot handlers (STOP, PUT, MEMOIZE, APPENDS and SETITEMS) work on
    # the stack inline, with the checks of ``pop``, ``peek`` and
    # ``pop_mark`` in the same order.  Every handler pushes with a bare
    # ``self.stack.append``: the instruction limit bounds the stack.
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
    def op_newtrue(self, arg) -> None:
        self.stack.append(True)

    def op_newfalse(self, arg) -> None:
        self.stack.append(False)

    def op_literal(self, arg) -> None:
        """A literal, held as the plain value the stream wrote: None for NONE."""
        self.stack.append(arg)

    op_none = op_int = op_binint = op_binint1 = op_binint2 = op_literal
    op_long = op_long1 = op_long4 = op_float = op_binfloat = op_literal
    op_string = op_binstring = op_short_binstring = op_literal
    op_unicode = op_binunicode = op_short_binunicode = op_binunicode8 = op_literal
    op_binbytes = op_short_binbytes = op_binbytes8 = op_literal

    def op_bytearray8(self, arg) -> None:
        self.op_literal(bytearray(arg))

    # containers
    def op_empty_list(self, arg) -> None:
        self.stack.append(Container("list", []))

    def op_empty_dict(self, arg) -> None:
        self.stack.append(Container("dict", []))

    def op_empty_set(self, arg) -> None:
        self.stack.append(Container("set", []))

    def op_empty_tuple(self, arg) -> None:
        self.stack.append(Container("tuple", []))

    def op_list(self, arg) -> None:
        items = self.pop_mark()
        self.stack.append(Container("list", items))

    def op_tuple(self, arg) -> None:
        items = self.pop_mark()
        self.stack.append(Container("tuple", items))

    def op_tuple1(self, arg) -> None:
        a = self.pop()
        self.stack.append(Container("tuple", [a]))

    def op_tuple2(self, arg) -> None:
        b, a = self.pop(), self.pop()
        self.stack.append(Container("tuple", [a, b]))

    def op_tuple3(self, arg) -> None:
        c, b, a = self.pop(), self.pop(), self.pop()
        self.stack.append(Container("tuple", [a, b, c]))

    def op_dict(self, arg) -> None:
        items = self.pop_mark()
        pairs = [(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        self.stack.append(Container("dict", pairs))

    def op_frozenset(self, arg) -> None:
        items = self.pop_mark()
        self.stack.append(Container("frozenset", items))

    def op_append(self, arg) -> None:
        value = self.pop()
        target = self.peek()
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
        target = stack[-1]
        if isinstance(target, Container) and target.kind in ("list", "set"):
            target.elements.extend(items)
            if self.rendered:
                self.rendered.clear()

    def op_additems(self, arg) -> None:
        items = self.pop_mark()
        target = self.peek()
        if isinstance(target, Container) and target.kind == "set":
            target.elements.extend(items)
            if self.rendered:
                self.rendered.clear()

    def op_setitem(self, arg) -> None:
        value = self.pop()
        key = self.pop()
        target = self.peek()
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
        target = stack[-1]
        if isinstance(target, Container) and target.kind == "dict":
            for i in range(0, len(items) - 1, 2):
                target.elements.append((items[i], items[i + 1]))
            if self.rendered:
                self.rendered.clear()

    # stack plumbing
    def op_mark(self, arg) -> None:
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
        self.stack.append(self.peek())

    # memo
    def op_get(self, arg) -> None:
        index = int(arg)
        memo = self.memo
        if index not in memo:
            raise MemoMiss(self.offset, index)
        self.stack.append(memo[index])

    op_binget = op_long_binget = op_get

    def op_put(self, arg) -> None:
        index = int(arg)
        if index < 0:
            raise MemoMiss(self.offset, index)
        if not self.stack:
            raise StackUnderflow(self.offset)
        self.memo[index] = self.stack[-1]

    op_binput = op_long_binput = op_put

    def op_memoize(self, arg) -> None:
        memo = self.memo
        if not self.stack:
            raise StackUnderflow(self.offset)
        memo[len(memo)] = self.stack[-1]

    # globals and calls
    def op_global(self, arg) -> None:
        module, name = arg
        self.emit(GlobalResolved(self.offset, module, name))
        self.stack.append(GlobalRef(module, name))

    def op_stack_global(self, arg) -> None:
        name = self.pop()
        module = self.pop()
        if isinstance(name, str) and isinstance(module, str):
            self.emit(GlobalResolved(self.offset, module, name))
            self.stack.append(GlobalRef(module, name))
        else:
            self.emit(DynamicGlobal(self.offset))
            self.stack.append(DynamicGlobalRef())

    def op_reduce(self, arg) -> None:
        args_v = self.pop()
        callee = self.pop()
        if isinstance(args_v, Container) and args_v.kind == "tuple":
            args, argc = tuple(args_v.elements), len(args_v.elements)
        else:
            args, argc = (args_v,), None
        self.record_call(callee, argc, args_v)
        self.stack.append(CallResult(callee=callee, args=args))

    def op_newobj(self, arg) -> None:
        args_v = self.pop()
        cls = self.pop()
        if isinstance(args_v, Container) and args_v.kind == "tuple":
            args = tuple(args_v.elements)
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
        self.stack.append(CallResult(callee=callee, args=args))

    def record_call(self, callee: object, argc: int | None, args_v: object) -> None:
        """Emit the CallMade event of one call, with its root resolved and its
        arguments rendered now, as the graph stands at the call."""
        root = call_roots(callee)
        keep_call = self.keep_call
        if keep_call is None or keep_call(root):
            if self.rendered is None:
                self.rendered = {}
            summary = render_value(args_v, ARG_SUMMARY_CAP, self.rendered)
        else:
            summary = ""
        self.emit(CallMade(self.offset, argc, summary, root))

    def op_build(self, arg) -> None:
        self.pop()  # the state; the object it sets up stays on the stack
        self.peek()

    # persistent ids, extensions, buffers
    def op_persid(self, arg) -> None:
        self.stack.append(PersistentRef(arg, line=True))

    def op_binpersid(self, arg) -> None:
        self.stack.append(PersistentRef(self.pop()))

    def op_ext(self, arg) -> None:
        self.stack.append(ExtensionRef(int(arg)))

    op_ext1 = op_ext2 = op_ext4 = op_ext

    def op_next_buffer(self, arg) -> None:
        self.emit(OutOfBandBuffer(self.offset))
        self.stack.append(Opaque())

    def op_readonly_buffer(self, arg) -> None:
        self.emit(OutOfBandBuffer(self.offset))
        self.pop()
        self.stack.append(Opaque())


# Indexed by opcode byte: handler(machine, arg); None marks an unassigned byte.
# Opcode NAME's handler is ``_Machine.op_<name>``; an opcode of
# ``disasm.OPCODES`` with no handler fails the import (AttributeError).
_HANDLERS: tuple = tuple(op and getattr(_Machine, "op_" + op.name.lower()) for op in OPCODES)

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


def is_dotted_name(text: str) -> bool:
    """Whether ``text`` is one or more identifiers joined by dots."""
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
    ``disasm.LimitExceeded`` is the scanner's bound, not a loader's fault:
    yes, unless the bytes run out there too (its ``ran_out`` is set).

    With ``whole`` False, ``stream`` is a head, which decides when the
    first fault lies inside it.  Bytes running out there (the fault's
    ``ran_out``), or an import made there, decide nothing: None, read the
    whole.  ``first`` is ``walk(stream)``'s first result, if known.
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
    if fault is None or not fault.ran_out and isinstance(fault, disasm.LimitExceeded):
        return True
    cut = fault.ran_out and not whole
    for event in first.events:
        if cut and event.at_offset >= fault.offset:
            break
        if isinstance(event, DynamicGlobal) or isinstance(event, GlobalResolved) and (
            is_dotted_name(event.module) and (not event.name or is_dotted_name(event.name))
        ):
            return True
    return None if cut else False
