"""Total, non-executing disassembler for pickle streams.

Turns raw bytes into an instruction sequence without constructing a single
Python object from the stream.  Argument decoding mirrors what a conforming
loader accepts byte for byte, so that the instruction transcript of any
valid stream matches the reference tooling for the format.

Every input terminates in either a ``PickleProgram`` or a structured
``ParseError``; nothing is executed, imported, or resolved.
"""

from __future__ import annotations

import codecs
import struct
from dataclasses import dataclass

from .opcodes import ArgKind, OpcodeSpec, lookup


@dataclass(frozen=True)
class ParseLimits:
    """Bounds applied while parsing adversarial input."""

    max_instructions: int = 1_000_000
    max_arg_bytes: int = 256 * 1024 * 1024
    max_stream_bytes: int = 4 * 1024 * 1024 * 1024


DEFAULT_PARSE_LIMITS = ParseLimits()


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
    opcode: OpcodeSpec
    arg: object
    size: int

    @property
    def mnemonic(self) -> str:
        return self.opcode.mnemonic


@dataclass
class PickleProgram:
    """A parsed stream segment ending in STOP."""

    instructions: list[Instruction]
    declared_protocol: int
    byte_length: int
    trailing_bytes: int = 0
    start_offset: int = 0

    def __iter__(self):
        return iter(self.instructions)


def _read_line(stream: bytes, pos: int, op_offset: int, limits: ParseLimits) -> tuple[bytes, int]:
    """Read up to and excluding the next newline; return (payload, next_pos)."""
    end = stream.find(b"\n", pos)
    if end < 0:
        raise TruncatedArgument(
            op_offset,
            "newline-terminated argument runs past end of input",
            available=len(stream) - pos,
        )
    if end - pos > limits.max_arg_bytes:
        raise LimitExceeded(op_offset, "max_arg_bytes (newline argument)")
    return stream[pos:end], end + 1


def _read_exact(stream: bytes, pos: int, n: int, op_offset: int, what: str) -> tuple[bytes, int]:
    data = stream[pos : pos + n]
    if len(data) != n:
        raise TruncatedArgument(
            op_offset, f"{what} needs {n} bytes", needed=n, available=len(data)
        )
    return data, pos + n


def _read_counted(
    stream: bytes,
    pos: int,
    count_kind: str,
    op_offset: int,
    limits: ParseLimits,
) -> tuple[bytes, int]:
    """Read a length prefix (u1/u4/u8/i4) and then that many payload bytes."""
    widths = {"u1": 1, "u4": 4, "u8": 8, "i4": 4}
    fmts = {"u1": "<B", "u4": "<I", "u8": "<Q", "i4": "<i"}
    width = widths[count_kind]
    raw, pos = _read_exact(stream, pos, width, op_offset, "length prefix")
    n = struct.unpack(fmts[count_kind], raw)[0]
    if n < 0:
        raise TruncatedArgument(op_offset, f"negative byte count {n}")
    if n > limits.max_arg_bytes:
        raise LimitExceeded(op_offset, "max_arg_bytes")
    return _read_exact(stream, pos, n, op_offset, "counted argument")


def _decode_decimal_line(mnemonic: str, line: bytes, op_offset: int) -> object:
    try:
        if mnemonic == "FLOAT":
            return float(line)
        if mnemonic == "LONG":
            if line[-1:] == b"L":
                line = line[:-1]
            return int(line)
        # INT / GET / PUT: "00" and "01" are the protocol-0 booleans.
        if line == b"00":
            return False
        if line == b"01":
            return True
        return int(line)
    except ValueError as exc:
        raise TruncatedArgument(op_offset, f"malformed decimal line: {exc}") from None


def _decode_string_line(mnemonic: str, line: bytes, op_offset: int) -> str:
    try:
        if mnemonic == "STRING":
            # Loader rule: outermost quotes must match and be present.
            if len(line) >= 2 and line[0] == line[-1] and line[0] in b"\"'":
                body = line[1:-1]
            else:
                raise TruncatedArgument(op_offset, "STRING argument must be quoted")
            return codecs.escape_decode(body)[0].decode("ascii")
        if mnemonic == "UNICODE":
            return line.decode("raw-unicode-escape")
        # PERSID: plain ASCII line, no escapes.
        return line.decode("ascii")
    except (ValueError, UnicodeDecodeError) as exc:
        raise TruncatedArgument(op_offset, f"undecodable string line: {exc}") from None


def _read_arg(
    spec: OpcodeSpec, stream: bytes, pos: int, op_offset: int, limits: ParseLimits
) -> tuple[object, int]:
    kind = spec.arg_kind
    if kind is ArgKind.NONE:
        return None, pos
    if kind is ArgKind.DECIMAL_NL:
        line, pos = _read_line(stream, pos, op_offset, limits)
        return _decode_decimal_line(spec.mnemonic, line, op_offset), pos
    if kind is ArgKind.STRING_NL:
        line, pos = _read_line(stream, pos, op_offset, limits)
        return _decode_string_line(spec.mnemonic, line, op_offset), pos
    if kind is ArgKind.TWO_NL_LINES:
        first, pos = _read_line(stream, pos, op_offset, limits)
        second, pos = _read_line(stream, pos, op_offset, limits)
        try:
            return (first.decode("utf-8"), second.decode("utf-8")), pos
        except UnicodeDecodeError as exc:
            raise TruncatedArgument(op_offset, f"undecodable name line: {exc}") from None
    if kind is ArgKind.U1:
        raw, pos = _read_exact(stream, pos, 1, op_offset, "u1")
        return raw[0], pos
    if kind is ArgKind.U2_LE:
        raw, pos = _read_exact(stream, pos, 2, op_offset, "u2")
        return struct.unpack("<H", raw)[0], pos
    if kind is ArgKind.U4_LE:
        raw, pos = _read_exact(stream, pos, 4, op_offset, "u4")
        return struct.unpack("<I", raw)[0], pos
    if kind is ArgKind.U8_LE:
        raw, pos = _read_exact(stream, pos, 8, op_offset, "u8")
        return struct.unpack("<Q", raw)[0], pos
    if kind is ArgKind.I4_LE:
        raw, pos = _read_exact(stream, pos, 4, op_offset, "i4")
        return struct.unpack("<i", raw)[0], pos
    if kind is ArgKind.F8_BE:
        raw, pos = _read_exact(stream, pos, 8, op_offset, "f8")
        return struct.unpack(">d", raw)[0], pos
    if kind is ArgKind.BYTES_U1:
        data, pos = _read_counted(stream, pos, "u1", op_offset, limits)
        if spec.mnemonic == "SHORT_BINSTRING":
            return data.decode("latin-1"), pos
        return data, pos
    if kind is ArgKind.BYTES_U4:
        # BINSTRING historically uses a *signed* 4-byte count.
        count_kind = "i4" if spec.mnemonic == "BINSTRING" else "u4"
        data, pos = _read_counted(stream, pos, count_kind, op_offset, limits)
        if spec.mnemonic == "BINSTRING":
            return data.decode("latin-1"), pos
        return data, pos
    if kind is ArgKind.BYTES_U8:
        data, pos = _read_counted(stream, pos, "u8", op_offset, limits)
        return data, pos
    if kind is ArgKind.UTF8_U1 or kind is ArgKind.UTF8_U4 or kind is ArgKind.UTF8_U8:
        count_kind = {"length-prefixed-utf8-u1": "u1",
                      "length-prefixed-utf8-u4": "u4",
                      "length-prefixed-utf8-u8": "u8"}[kind.value]
        data, pos = _read_counted(stream, pos, count_kind, op_offset, limits)
        try:
            return data.decode("utf-8", "surrogatepass"), pos
        except UnicodeDecodeError as exc:
            raise TruncatedArgument(op_offset, f"undecodable utf-8: {exc}") from None
    if kind is ArgKind.LONG1:
        data, pos = _read_counted(stream, pos, "u1", op_offset, limits)
        return int.from_bytes(data, "little", signed=True), pos
    if kind is ArgKind.LONG4:
        data, pos = _read_counted(stream, pos, "i4", op_offset, limits)
        return int.from_bytes(data, "little", signed=True), pos
    raise AssertionError(f"unhandled arg kind {kind}")


def _parse_one(
    stream: bytes, start: int, limits: ParseLimits
) -> tuple[list[Instruction], int, int]:
    """Parse one program starting at ``start``; returns (instructions, end, protocol)."""
    instructions: list[Instruction] = []
    pos = start
    declared: int | None = None
    saw_nonzero_min_proto = False
    while True:
        if pos >= len(stream):
            raise MissingStop(pos)
        if len(instructions) >= limits.max_instructions:
            raise LimitExceeded(pos, "max_instructions")
        op_offset = pos
        byte = stream[pos]
        spec = lookup(byte)
        if spec is None:
            raise UnknownOpcode(op_offset, byte)
        arg, pos = _read_arg(spec, stream, pos + 1, op_offset, limits)
        instructions.append(Instruction(op_offset, spec, arg, pos - op_offset))
        if spec.min_protocol > 0:
            saw_nonzero_min_proto = True
        if spec.mnemonic == "PROTO" and declared is None:
            declared = int(arg)  # recorded as written, even if out of range
        if spec.mnemonic == "STOP":
            break
    if declared is None:
        declared = 1 if saw_nonzero_min_proto else 0
    return instructions, pos, declared


def disassemble(stream: bytes, limits: ParseLimits = DEFAULT_PARSE_LIMITS) -> PickleProgram:
    """Disassemble a single pickle program from the start of ``stream``.

    Bytes after the first STOP are reported via ``trailing_bytes``, never
    dropped and never an error at this layer.
    """
    if not stream:
        raise MissingStop(0)
    if len(stream) > limits.max_stream_bytes:
        raise LimitExceeded(0, "max_stream_bytes")
    instructions, end, declared = _parse_one(stream, 0, limits)
    return PickleProgram(
        instructions=instructions,
        declared_protocol=declared,
        byte_length=end,
        trailing_bytes=len(stream) - end,
        start_offset=0,
    )


def iter_programs(stream: bytes, limits: ParseLimits = DEFAULT_PARSE_LIMITS):
    """Yield one PickleProgram per STOP-delimited segment of ``stream``.

    Programs already yielded stay valid if a later segment fails; the raised
    ParseError carries the index of the failing segment.  A trailing run of
    zero bytes after the final STOP is tolerated and reported on the last
    program (legacy multi-pickle files pad this way).
    """
    if not stream:
        raise MissingStop(0)
    if len(stream) > limits.max_stream_bytes:
        raise LimitExceeded(0, "max_stream_bytes")
    pos = 0
    segment = 0
    last: PickleProgram | None = None
    while pos < len(stream):
        # 0x00 is no opcode, so only a segment starting with it can be padding.
        if last is not None and stream[pos] == 0 and stream.count(0, pos) == len(stream) - pos:
            last.trailing_bytes = len(stream) - pos
            return
        try:
            instructions, end, declared = _parse_one(stream, pos, limits)
        except ParseError as exc:
            exc.segment = segment
            raise
        last = PickleProgram(
            instructions=instructions,
            declared_protocol=declared,
            byte_length=end - pos,
            trailing_bytes=0,
            start_offset=pos,
        )
        yield last
        pos = end
        segment += 1


def plausible_pickle_prefix(sample: bytes, complete: bool = False) -> bool:
    """Heuristic: do these bytes plausibly start a pickle stream?

    A PROTO byte with protocol <= 5 is taken at face value.  Otherwise the
    sample must open with a protocol-0 opcode and decode coherently: either
    a STOP is reached, or (when ``complete`` is False, i.e. the sample is a
    prefix of something larger) several instructions decode cleanly before
    the sample runs out.
    """
    if not sample:
        return False
    if sample[0] == 0x80:
        return len(sample) >= 2 and sample[1] <= 5
    first = lookup(sample[0])
    if first is None or first.min_protocol > 0:
        return False
    limits = ParseLimits(max_instructions=64, max_arg_bytes=len(sample))
    pos = 0
    count = 0
    while pos < len(sample) and count < 32:
        spec = lookup(sample[pos])
        if spec is None:
            return False
        op_offset = pos
        try:
            _, pos = _read_arg(spec, sample, pos + 1, op_offset, limits)
        except ParseError:
            # Ran off the end of the sample mid-argument: fine for a prefix
            # of a longer stream, disqualifying for complete content.
            return not complete and count >= 4
        count += 1
        if spec.mnemonic == "STOP":
            return True
    if pos >= len(sample):
        return not complete and count >= 4
    return count >= 32


def format_instruction(instr: Instruction) -> str:
    """Render one instruction as ``OFFSET MNEMONIC ARG`` for the debug CLI."""
    if instr.arg is None:
        return f"{instr.offset:>8} {instr.mnemonic}"
    if isinstance(instr.arg, tuple):
        rendered = " ".join(str(part) for part in instr.arg)
        return f"{instr.offset:>8} {instr.mnemonic} {rendered}"
    return f"{instr.offset:>8} {instr.mnemonic} {instr.arg!r}"
