"""Total, non-executing disassembler for pickle streams.

Turns raw bytes into a sequence of decoded ops without constructing a
single Python object from the stream.  Argument decoding mirrors what a
conforming loader accepts byte for byte, so that the op listing of any
valid stream matches the reference tooling for the format.

The opcode table is the stdlib's own: ``OPCODES`` indexes
``pickletools.opcodes`` by opcode byte.  Arguments are read through
``DECODERS``, a 256-entry table of decode functions indexed the same way
(as ``Lib/pickle.py`` builds its unpickler's dispatch table), one decoder
per ``pickletools`` argument descriptor, and one more for INST's names.
The scanner's loop over it is ``absvm``'s, which decodes and evaluates
each op in one step.
``decode_ops`` is the loop here, one ``(code, offset, arg, end)`` tuple per
op, the one form a decoded op takes; ``iter_programs`` splits a stream on it.

Every input terminates in either its ops or a structured ``ParseError``;
nothing is executed, imported, or resolved.
"""

from __future__ import annotations

import codecs
import pickletools
import re
import struct
from typing import Callable


# Bounds applied while parsing adversarial input.  Each is read when a call
# runs, so a patched value takes effect.
MAX_INSTRUCTIONS = 1_000_000  # per STOP-delimited segment
MAX_ARG_BYTES = 256 * 1024 * 1024  # per argument
MAX_STREAM_BYTES = 4 * 1024 * 1024 * 1024  # per stream


class Fault(Exception):
    """Base class of every parser fault: ParseError, ``absvm.VmError`` and
    ``containers.FormatError``.  ``offset`` is the byte at fault, or None
    where no single byte is (``str()`` is then the ``message`` alone), and
    ``kind``, the class name, is the error kind a report lists.  With
    ``ran_out`` set, the bytes ended at the fault: more could change the
    outcome."""

    ran_out = False

    def __init__(self, offset: int | None, message: str):
        super().__init__(message if offset is None else f"offset {offset}: {message}")
        self.offset = offset
        self.message = message

    @property
    def kind(self) -> str:
        return type(self).__name__

    def detach(self) -> Fault:
        """This fault without its traceback or the exception it was raised
        during: kept, it pins no frame of the parse and none of its bytes."""
        self.__context__ = None
        return self.with_traceback(None)


class ParseError(Fault):
    """Base class for structured disassembly failures."""

    # The failing segment's index (0 from ``absvm.evaluate``), or None for a
    # stream ``check_stream`` refuses.
    segment: int | None = None


class UnknownOpcode(ParseError):
    def __init__(self, offset: int, byte: int):
        super().__init__(offset, f"unknown opcode byte 0x{byte:02x}")


class TruncatedArgument(ParseError):
    # Set by ``_name_pair`` when the last line of a GLOBAL or INST runs to
    # the end of the stream: the (module, name) pair pickle.py's loader
    # reads there, and where that line starts.
    names: tuple[str, str] | None = None
    names_line = 0


class MissingStop(ParseError):
    ran_out = True

    def __init__(self, offset: int):
        super().__init__(offset, "end of input before STOP")


class LimitExceeded(ParseError):
    def __init__(self, offset: int, which: str):
        super().__init__(offset, f"limit exceeded: {which}")


Decoder = Callable[[bytes, int, int], "tuple[object, int]"]

_BY_BYTE = {ord(op.code): op for op in pickletools.opcodes}
# Indexed by opcode byte: the stdlib's OpcodeInfo (name, argument descriptor,
# protocol that introduced it), or None for an unassigned byte.
OPCODES: tuple[pickletools.OpcodeInfo | None, ...] = tuple(map(_BY_BYTE.get, range(256)))

_STOP = ord(".")


def _truncated(op_offset: int, message: str) -> TruncatedArgument:
    """A TruncatedArgument met where the bytes ran out."""
    fault = TruncatedArgument(op_offset, message)
    fault.ran_out = True
    return fault


def _read_line(stream: bytes, pos: int, op_offset: int) -> tuple[bytes, int]:
    """Read up to and excluding the next newline; return (payload, next_pos)."""
    end = stream.find(b"\n", pos)
    if end < 0:
        raise _truncated(op_offset, "newline-terminated argument runs past end of input")
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
            raise _truncated(op_offset, f"{what} needs {width} bytes") from None

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
            raise _truncated(op_offset, f"length prefix needs {width} bytes") from None
        if n < 0:
            raise TruncatedArgument(op_offset, f"negative byte count {n}")
        pos += width
        end = pos + n
        if n > MAX_ARG_BYTES:
            fault = LimitExceeded(op_offset, "max_arg_bytes")
            fault.ran_out = end > len(stream)
            raise fault
        if end > len(stream):
            raise _truncated(op_offset, f"counted argument needs {n} bytes")
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


# A backslash before a byte that starts no escape, or before 4-7, which may
# start an octal escape past \377: ``codecs.escape_decode`` (the loaders'
# decoder) warns of those.  Pairs of backslashes are not told apart here,
# so a match may be no escape at all.
_MAY_WARN = rb"\\[^\n\\'\"abfnrtv0-3x]"
# Once each pair of backslashes is written ``\x5c``, every backslash opens
# an escape, so these need no pairing.  An unknown escape becomes ``\x5c``
# and its byte; an octal escape past \377 becomes the escape of its low
# byte, its first digit less 4.  The replacements are literal, so
# ``re.sub`` makes each one in C.
_UNKNOWN_ESCAPE = (rb"\\(?=[^\n'\"abfnrtv0-7x])", rb"\\x5c")
_HIGH_OCTAL_ESCAPES = [(rb"\\%d(?=[0-7]{2})" % lead, rb"\\%d" % (lead - 4)) for lead in range(4, 8)]
# Bytes of escaped data rewritten per pass, which bounds the pieces
# ``re.sub`` holds at once.
_UNESCAPE_CHUNK = 1 << 14


def _unescape(data: bytes) -> bytes:
    """``codecs.escape_decode(data)[0]``, with the same value and the same
    ValueError messages, but never a warning.  That decoder warns
    (DeprecationWarning) of an unknown escape such as ``\\g`` and of an
    octal one past ``\\377``, so a filter that makes warnings errors would
    fail the op.  Data that may hold such an escape is rewritten without
    them, a chunk at a time, and each chunk goes through that decoder; any
    other goes through it whole.  Every step runs in C."""
    if re.search(_MAY_WARN, data) is None:
        return codecs.escape_decode(data)[0]
    text = data.replace(b"\\\\", b"\\x5c")
    decoded = []
    pos = 0
    while pos < len(text):
        # A backslash opens an escape, and no escape runs over one.
        cut = text.find(b"\\", pos + _UNESCAPE_CHUNK)
        if cut < 0:
            cut = len(text)
        chunk = text[pos:cut]
        for pattern, replacement in (*_HIGH_OCTAL_ESCAPES, _UNKNOWN_ESCAPE):
            chunk = re.sub(pattern, replacement, chunk)
        try:
            decoded.append(codecs.escape_decode(chunk)[0])
        except ValueError:
            # Decoded whole, ``data`` raises the same fault, placed in
            # ``data``, before the decoder would warn.
            return codecs.escape_decode(data)[0]
        pos = cut
    return b"".join(decoded)


def _quoted_line(stream, pos, op_offset):
    line, pos = _read_line(stream, pos, op_offset)
    # Loader rule: outermost quotes must match and be present.
    if not (len(line) >= 2 and line[0] == line[-1] and line[0] in b"\"'"):
        raise TruncatedArgument(op_offset, "STRING argument must be quoted")
    try:
        return _unescape(line[1:-1]).decode("ascii"), pos
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
# ASCII.
_INST_NAMES = _name_pair("ascii")
DECODERS: tuple[Decoder | None, ...] = tuple(
    op and (_INST_NAMES if op.code == "i" else _BY_ARG[op.arg and op.arg.name]) for op in OPCODES
)


def decode_ops(stream: bytes, start: int):
    """Yield ``(code, offset, arg, end)`` for each op from ``start`` through STOP.

    ``iter_programs`` reads a segment through this loop; the abstract
    machine decodes in its own (``absvm._Machine.run``), with the same
    checks in the same order, except that it reads a run of BINFLOAT ops in
    one call, clipped so that each check still fires at the op where it
    fires here.
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
        decode = DECODERS[code]
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


def iter_programs(stream: bytes):
    """Yield ``(ops, trailing)`` per STOP-delimited segment of ``stream``:
    its ``decode_ops`` tuples, and the length of the zero padding after its
    STOP when that padding ends the stream (legacy multi-pickle files), else
    0.  ``modelsentry disasm`` lists these; the scanner reads ``absvm.walk``.

    Segments already yielded stay valid if a later one fails; the raised
    ParseError carries the index of the failing segment (None for a stream
    ``check_stream`` refuses).
    """
    check_stream(stream)
    pos = segment = 0
    while pos < len(stream):
        try:
            ops = list(decode_ops(stream, pos))
        except ParseError as exc:
            exc.segment = segment
            raise
        pos = ops[-1][3]
        trailing = zero_padding(stream, pos)
        pos += trailing
        yield ops, trailing
        segment += 1
