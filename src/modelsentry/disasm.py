"""Total, non-executing disassembler for pickle streams.

Turns raw bytes into an instruction sequence without constructing a single
Python object from the stream.  Argument decoding mirrors what a conforming
loader accepts byte for byte, so that the instruction transcript of any
valid stream matches the reference tooling for the format.

The opcode table is the stdlib's own: ``OPCODES`` indexes
``pickletools.opcodes`` by opcode byte.  Arguments are read through
``DECODERS``, a 256-entry table of decode functions indexed the same way
(as ``Lib/pickle.py`` builds its unpickler's dispatch table), one decoder
per ``pickletools`` argument descriptor, and one more for INST's names.
The scanner's loop over it is ``absvm``'s, which decodes and evaluates
each op in one step.
``decode_ops`` is the loop here, one ``(code, offset, arg, end)`` tuple per
op: it serves the format sniff and the instruction lists of
``iter_programs``/``disassemble``.

Every input terminates in either a ``PickleProgram`` or a structured
``ParseError``; nothing is executed, imported, or resolved.
"""

from __future__ import annotations

import codecs
import pickletools
import struct
from dataclasses import dataclass, field
from typing import Callable


# Bounds applied while parsing adversarial input.  Each is read when a call
# runs, so a patched value takes effect.
MAX_INSTRUCTIONS = 1_000_000  # per STOP-delimited segment
MAX_ARG_BYTES = 256 * 1024 * 1024  # per argument
MAX_STREAM_BYTES = 4 * 1024 * 1024 * 1024  # per stream

# How much of a file or archive member the format sniff reads.
SNIFF_BYTES = 512
# Ops that must decode cleanly for a sniff without STOP to call it a pickle.
_SNIFF_OPS = 32


class ParseError(Exception):
    """Base class for structured disassembly failures."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message
        self.segment: int | None = None

    @property
    def kind(self) -> str:
        return type(self).__name__


class UnknownOpcode(ParseError):
    def __init__(self, offset: int, byte: int):
        super().__init__(offset, f"unknown opcode byte 0x{byte:02x}")
        self.byte = byte


class TruncatedArgument(ParseError):
    # Set by ``_name_pair`` when the last line of a GLOBAL or INST runs to
    # the end of the stream: the (module, name) pair pickle.py's loader
    # reads there, and where that line starts.
    names: tuple[str, str] | None = None
    names_line = 0

    def __init__(
        self,
        offset: int,
        message: str,
        needed: int | None = None,
        available: int | None = None,
    ):
        super().__init__(offset, message)
        self.needed = needed
        self.available = available


class MissingStop(ParseError):
    def __init__(self, offset: int):
        super().__init__(offset, "end of input before STOP")


class LimitExceeded(ParseError):
    def __init__(self, offset: int, which: str):
        super().__init__(offset, f"limit exceeded: {which}")
        self.which = which


@dataclass(frozen=True)
class Instruction:
    """One decoded opcode: its byte position, table entry, and argument.

    ``size`` is the total encoded length (opcode byte plus argument bytes),
    so consecutive instructions satisfy ``offset + size == next.offset``.
    """

    offset: int
    opcode: pickletools.OpcodeInfo
    arg: object
    size: int

    @property
    def mnemonic(self) -> str:
        return self.opcode.name


@dataclass
class PickleProgram:
    """A parsed stream segment ending in STOP, and the stream it starts in
    at ``start_offset``."""

    instructions: list[Instruction]
    declared_protocol: int
    byte_length: int
    stream: bytes = field(repr=False)
    trailing_bytes: int = 0
    start_offset: int = 0

    def __iter__(self):
        return iter(self.instructions)


Decoder = Callable[[bytes, int, int], "tuple[object, int]"]

_BY_BYTE = {ord(op.code): op for op in pickletools.opcodes}
# Indexed by opcode byte: the stdlib's OpcodeInfo (name, argument descriptor,
# protocol that introduced it), or None for an unassigned byte.
OPCODES: tuple[pickletools.OpcodeInfo | None, ...] = tuple(map(_BY_BYTE.get, range(256)))

_STOP = ord(".")
_PROTO = 0x80
_IMPORTS = frozenset(b"ci")  # GLOBAL, INST


def _truncated(op_offset: int, what: str, needed: int, stream: bytes, pos: int) -> ParseError:
    return TruncatedArgument(
        op_offset, f"{what} needs {needed} bytes", needed=needed, available=len(stream) - pos
    )


def _read_line(stream: bytes, pos: int, op_offset: int) -> tuple[bytes, int]:
    """Read up to and excluding the next newline; return (payload, next_pos)."""
    end = stream.find(b"\n", pos)
    if end < 0:
        raise TruncatedArgument(
            op_offset,
            "newline-terminated argument runs past end of input",
            available=len(stream) - pos,
        )
    if end - pos > MAX_ARG_BYTES:
        raise LimitExceeded(op_offset, "max_arg_bytes (newline argument)")
    return stream[pos:end], end + 1


def _fixed(fmt: str, what: str) -> Decoder:
    """A fixed-width number (u1/u2/u4/u8/i4/f8)."""
    unpack = struct.Struct(fmt).unpack_from
    width = struct.calcsize(fmt)

    def decode(stream, pos, op_offset):
        try:
            return unpack(stream, pos)[0], pos + width
        except struct.error:
            raise _truncated(op_offset, what, width, stream, pos) from None

    return decode


def _counted(fmt: str, convert: Callable[[bytes, int], object] | None) -> Decoder:
    """A length prefix in ``fmt``, then that many payload bytes, passed through
    ``convert(payload, op_offset)`` unless it is None."""
    unpack = struct.Struct(fmt).unpack_from
    width = struct.calcsize(fmt)

    def decode(stream, pos, op_offset):
        try:
            n = unpack(stream, pos)[0]
        except struct.error:
            raise _truncated(op_offset, "length prefix", width, stream, pos) from None
        if n < 0:
            raise TruncatedArgument(op_offset, f"negative byte count {n}")
        if n > MAX_ARG_BYTES:
            raise LimitExceeded(op_offset, "max_arg_bytes")
        pos += width
        end = pos + n
        if end > len(stream):
            raise _truncated(op_offset, "counted argument", n, stream, pos)
        if convert is None:
            return stream[pos:end], end
        return convert(stream[pos:end], op_offset), end

    return decode


def _latin1(data: bytes, op_offset: int) -> str:
    return data.decode("latin-1")


def _utf8(data: bytes, op_offset: int) -> str:
    try:
        return data.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise TruncatedArgument(op_offset, f"undecodable utf-8: {exc}") from None


def _long(data: bytes, op_offset: int) -> int:
    return int.from_bytes(data, "little", signed=True)


def _line_arg(parse: Callable[[bytes], object], what: str) -> Decoder:
    """One newline-terminated line, passed through ``parse``."""

    def decode(stream, pos, op_offset):
        line, pos = _read_line(stream, pos, op_offset)
        try:
            return parse(line), pos
        except ValueError as exc:  # UnicodeDecodeError included
            raise TruncatedArgument(op_offset, f"{what}: {exc}") from None

    return decode


def _long_line(line: bytes) -> int:
    return int(line[:-1] if line[-1:] == b"L" else line)


def _int_line(line: bytes) -> int | bool:
    # INT / GET / PUT: "00" and "01" are the protocol-0 booleans.
    if line == b"00":
        return False
    if line == b"01":
        return True
    return int(line)


def _quoted_line(stream, pos, op_offset):
    line, pos = _read_line(stream, pos, op_offset)
    # Loader rule: outermost quotes must match and be present.
    if not (len(line) >= 2 and line[0] == line[-1] and line[0] in b"\"'"):
        raise TruncatedArgument(op_offset, "STRING argument must be quoted")
    try:
        return codecs.escape_decode(line[1:-1])[0].decode("ascii"), pos
    except ValueError as exc:
        raise TruncatedArgument(op_offset, f"undecodable string line: {exc}") from None


def _no_arg(stream, pos, op_offset):
    return None, pos


def _name_pair(encoding: str) -> Decoder:
    """The (module, name) lines of a GLOBAL or INST, decoded as the loaders
    decode them: GLOBAL's as UTF-8, INST's as ASCII (pickle.py's
    ``load_inst`` and ``_pickle`` fail on any other byte before
    ``find_class``)."""

    def decode(stream, pos, op_offset):
        first = None
        try:
            first, pos = _read_line(stream, pos, op_offset)
            second, pos = _read_line(stream, pos, op_offset)
        except TruncatedArgument as exc:
            # pickle.py's loader reads each line with ``readline()[:-1]``: a
            # last line that runs to the end of the stream loses its final
            # byte, and a line past the end is empty.  It imports that pair
            # before it fails, unless a line does not decode.  A line longer
            # than MAX_ARG_BYTES gives no pair, as it does when terminated.
            if len(stream) - pos > MAX_ARG_BYTES:
                raise
            lines = (stream[pos:-1], b"") if first is None else (first, stream[pos:-1])
            exc.names_line = pos
            try:
                exc.names = (lines[0].decode(encoding), lines[1].decode(encoding))
            except UnicodeDecodeError:
                pass
            raise
        try:
            return (first.decode(encoding), second.decode(encoding)), pos
        except UnicodeDecodeError as exc:
            raise TruncatedArgument(op_offset, f"undecodable name line: {exc}") from None

    return decode


_LINE_NUMBER = "malformed decimal line"
_LINE_TEXT = "undecodable string line"
# One decoder per pickletools argument descriptor (None: no argument).
_BY_ARG: dict[str | None, Decoder] = {
    None: _no_arg,
    "decimalnl_short": _line_arg(_int_line, _LINE_NUMBER),  # INT, GET, PUT
    "decimalnl_long": _line_arg(_long_line, _LINE_NUMBER),
    "floatnl": _line_arg(float, _LINE_NUMBER),
    "stringnl": _quoted_line,
    "stringnl_noescape": _line_arg(lambda line: line.decode("ascii"), _LINE_TEXT),
    "unicodestringnl": _line_arg(lambda line: line.decode("raw-unicode-escape"), _LINE_TEXT),
    "stringnl_noescape_pair": _name_pair("utf-8"),
    "uint1": _fixed("<B", "u1"),
    "uint2": _fixed("<H", "u2"),
    "uint4": _fixed("<I", "u4"),
    "uint8": _fixed("<Q", "u8"),
    "int4": _fixed("<i", "i4"),
    "float8": _fixed(">d", "f8"),
    # The two protocol-1 strings carry text; BINSTRING's count is signed.
    "string1": _counted("<B", _latin1),
    "string4": _counted("<i", _latin1),
    "bytes1": _counted("<B", None),
    "bytes4": _counted("<I", None),
    "bytes8": _counted("<Q", None),
    "bytearray8": _counted("<Q", None),
    "unicodestring1": _counted("<B", _utf8),
    "unicodestring4": _counted("<I", _utf8),
    "unicodestring8": _counted("<Q", _utf8),
    "long1": _counted("<B", _long),
    "long4": _counted("<i", _long),
}


# Indexed by opcode byte: decode(stream, pos, op_offset) -> (arg, next_pos)
# reads the argument that starts at ``pos``, raising errors at ``op_offset``
# and checking MAX_ARG_BYTES; None marks an unassigned byte.  pickletools
# gives GLOBAL and INST one descriptor, but the loaders read INST's names as
# ASCII; ``_AS_WRITTEN`` reads them as UTF-8, as the format sniff does.
_AS_WRITTEN: tuple[Decoder | None, ...] = tuple(
    op and _BY_ARG[op.arg and op.arg.name] for op in OPCODES
)
_INST = ord("i")
DECODERS = _AS_WRITTEN[:_INST] + (_name_pair("ascii"),) + _AS_WRITTEN[_INST + 1:]


def decode_ops(stream: bytes, start: int, decoders: tuple = DECODERS):
    """Yield ``(code, offset, arg, end)`` for each op from ``start`` through STOP.

    The instruction list and the format sniff read a segment through this
    loop; the abstract machine decodes in its own (``absvm._Machine.run``),
    with the same checks in the same order, except that it reads a run of
    BINFLOAT ops in one call, clipped so that each check still fires at
    the op where it fires here.
    """
    length = len(stream)
    max_instructions = MAX_INSTRUCTIONS
    pos = start
    count = 0
    while True:
        if pos >= length:
            raise MissingStop(pos)
        if count >= max_instructions:
            raise LimitExceeded(pos, "max_instructions")
        code = stream[pos]
        decode = decoders[code]
        if decode is None:
            raise UnknownOpcode(pos, code)
        arg, end = decode(stream, pos + 1, pos)
        yield code, pos, arg, end
        if code == _STOP:
            return
        pos = end
        count += 1


def zero_padding(stream: bytes, end: int) -> int:
    """Length of the run of zero bytes from ``end`` to the end of ``stream``,
    or 0 if anything else follows.  Legacy multi-pickle files pad this way."""
    # 0x00 is no opcode, so only a tail starting with it can be padding.
    if end < len(stream) and stream[end] == 0 and stream.count(0, end) == len(stream) - end:
        return len(stream) - end
    return 0


def check_stream(stream: bytes) -> None:
    """Refuse a stream before its first segment: empty, or too long."""
    if not stream:
        raise MissingStop(0)
    if len(stream) > MAX_STREAM_BYTES:
        raise LimitExceeded(0, "max_stream_bytes")


def _read_program(stream: bytes, start: int) -> PickleProgram:
    """Decode one program starting at ``start`` into its instruction list."""
    instructions: list[Instruction] = []
    declared: int | None = None
    saw_nonzero_min_proto = False
    end = start
    for code, offset, arg, end in decode_ops(stream, start):
        op = OPCODES[code]
        instructions.append(Instruction(offset, op, arg, end - offset))
        if op.proto > 0:
            saw_nonzero_min_proto = True
        if code == _PROTO and declared is None:
            declared = arg  # recorded as written, even if out of range
    if declared is None:
        declared = 1 if saw_nonzero_min_proto else 0
    return PickleProgram(
        instructions=instructions,
        declared_protocol=declared,
        byte_length=end - start,
        stream=stream,
        start_offset=start,
    )


def disassemble(stream: bytes) -> PickleProgram:
    """Disassemble a single pickle program from the start of ``stream``.

    Bytes after the first STOP are reported via ``trailing_bytes``, never
    dropped and never an error at this layer.
    """
    check_stream(stream)
    program = _read_program(stream, 0)
    program.trailing_bytes = len(stream) - program.byte_length
    return program


def iter_programs(stream: bytes):
    """Yield one PickleProgram per STOP-delimited segment of ``stream``.

    Programs already yielded stay valid if a later segment fails; the raised
    ParseError carries the index of the failing segment (None for a stream
    ``check_stream`` refuses).  A trailing run of zero bytes after the final
    STOP is tolerated and reported on the last program (legacy multi-pickle
    files pad this way).
    """
    check_stream(stream)
    pos = segment = 0
    while pos < len(stream):
        try:
            program = _read_program(stream, pos)
        except ParseError as exc:
            exc.segment = segment
            raise
        pos += program.byte_length
        program.trailing_bytes = zero_padding(stream, pos)
        pos += program.trailing_bytes
        yield program
        segment += 1


def _is_dotted_name(text: str) -> bool:
    return all(part.isidentifier() for part in text.split("."))


def plausible_pickle_prefix(sample: bytes, complete: bool = False) -> bool:
    """Heuristic: do these bytes plausibly start a pickle stream?

    A PROTO byte with protocol <= 5 is taken at face value.  Otherwise the
    sample must open with a protocol-0 opcode and decode coherently: either
    a STOP is reached, a GLOBAL or INST names a dotted Python identifier
    pair (the loader imports there, whatever follows, also when the pair's
    last line runs to the end of the sample, and then, at the first op,
    also when the name is empty: the loader imports the module before it
    looks the name up; INST's names are read as UTF-8, as written),
    ``_SNIFF_OPS``
    instructions decode cleanly with more bytes after them, or (when
    ``complete`` is False, i.e. the sample is a prefix of something larger)
    several instructions decode cleanly before the sample runs out.
    """
    if not sample:
        return False
    if sample[0] == _PROTO:
        return len(sample) >= 2 and sample[1] <= 5
    first = OPCODES[sample[0]]
    if first is None or first.proto > 0:
        return False
    count = 0
    try:
        for code, _offset, arg, end in decode_ops(sample, 0, _AS_WRITTEN):
            if code in _IMPORTS and all(_is_dotted_name(part) for part in arg):
                return True
            count += 1
            if count == _SNIFF_OPS and code != _STOP:
                # With no byte left, the sample ends before the next op.
                return end < len(sample) or not complete
    except UnknownOpcode:
        return False
    except ParseError as exc:
        # A GLOBAL or INST whose last line runs to the end of the sample
        # still names the pair the loader imports.  An empty name counts
        # only at the first op: a dotted word after other ops is common
        # text (torch's ``byteorder`` member, ``little``, reads as LIST,
        # on which a loader fails, then INST ``ttl``).
        names = getattr(exc, "names", None)
        if names is not None and _is_dotted_name(names[0]) and (
            _is_dotted_name(names[1]) or (not names[1] and count == 0)
        ):
            return True
        # Ran off the end of the sample: fine for a prefix of a longer
        # stream, disqualifying for complete content.
        return not complete and count >= 4
    return True  # reached STOP


def format_instruction(instr: Instruction) -> str:
    """Render one instruction as ``OFFSET MNEMONIC ARG`` for the debug CLI."""
    if instr.arg is None:
        return f"{instr.offset:>8} {instr.mnemonic}"
    if isinstance(instr.arg, tuple):
        rendered = " ".join(str(part) for part in instr.arg)
        return f"{instr.offset:>8} {instr.mnemonic} {rendered}"
    return f"{instr.offset:>8} {instr.mnemonic} {instr.arg!r}"
