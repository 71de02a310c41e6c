"""Disassembler behavior, checked against pickletools transcripts.

Expected instruction sequences for nontrivial streams are never written by
hand: they come from ``pickletools.genops`` over the same bytes.
"""

from __future__ import annotations

import codecs
import io
import pickle
import pickletools
import struct
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    RARE_OPCODE_STREAMS,
    benign_streams,
    own_transcript,
    reference_transcript,
)
from modelsentry import absvm, disasm
from modelsentry.disasm import (
    DECODERS,
    OPCODES,
    LimitExceeded,
    MissingStop,
    ParseError,
    TruncatedArgument,
    UnknownOpcode,
    decode_ops,
    iter_programs,
)
from modelsentry.forge import emit_injected_pickle, emit_reduce_payload_pickle


def first_ops(stream: bytes) -> list[tuple]:
    """The ``(code, offset, arg, end)`` ops of the segment at the start of ``stream``."""
    return list(decode_ops(stream, 0))


def names(ops: list[tuple]) -> list[str]:
    return [OPCODES[code].name for code, _offset, _arg, _end in ops]


def assert_ops_tile(ops: list[tuple], start: int = 0) -> None:
    """Each op starts where the one before it ends, and covers its opcode byte."""
    assert [offset for _code, offset, _arg, _end in ops] == [start] + [end for *_, end in ops[:-1]]
    assert all(end > offset for _code, offset, _arg, end in ops)


def test_minimal_stream():
    ((ops, trailing),) = iter_programs(b"N.")
    assert names(ops) == ["NONE", "STOP"]
    assert ops == [(ord("N"), 0, None, 1), (ord("."), 1, None, 2)]
    assert trailing == 0


def test_reduce_payload_first_instruction_is_global():
    stream = emit_reduce_payload_pickle("true # FIXTURE-MARKER", 0)
    code, offset, arg, _end = first_ops(stream)[0]
    assert OPCODES[code].name == "GLOBAL"
    assert offset == 0
    assert arg == ("os", "system")
    assert own_transcript(stream) == reference_transcript(stream)


def test_truncated_global_argument():
    with pytest.raises(TruncatedArgument) as excinfo:
        list(iter_programs(b"c"))
    assert excinfo.value.offset == 0


def test_missing_stop():
    with pytest.raises(MissingStop):
        list(iter_programs(b"N"))


def test_unknown_opcode_offset():
    with pytest.raises(UnknownOpcode) as excinfo:
        list(iter_programs(b"N\xff."))
    assert excinfo.value.offset == 1
    assert excinfo.value.byte == 0xFF


def test_trailing_bytes_reported_not_dropped():
    """A segment ends at its STOP; bytes after it that are not zero padding
    are read as the next segment, and its fault is reported there."""
    assert first_ops(b"N." + b"garbage")[-1][3] == 2
    with pytest.raises(TruncatedArgument) as excinfo:
        list(iter_programs(b"N." + b"garbage"))
    assert (excinfo.value.offset, excinfo.value.segment) == (2, 1)


@pytest.mark.parametrize(
    "line,expected",
    [
        (b"I42\n.", 42),
        (b"I-5\n.", -5),
        (b"I01\n.", True),
        (b"I00\n.", False),
        (b"L123L\n.", 123),
        (b"L-77\n.", -77),
        (b"F2.5\n.", 2.5),
    ],
)
def test_decimal_lines(line, expected):
    arg = first_ops(line)[0][2]
    assert (arg, type(arg)) == (expected, type(expected))


def test_malformed_decimal_is_structured_error():
    with pytest.raises(TruncatedArgument):
        first_ops(b"Inotanumber\n.")
    with pytest.raises(TruncatedArgument):
        first_ops(b"L12x\n.")


def test_string_opcode_requires_quotes():
    assert first_ops(b"S'abc'\n.")[0][2] == "abc"
    assert first_ops(b'S"q"\n.')[0][2] == "q"
    assert first_ops(rb"S'a\n\t'" + b"\n.")[0][2] == "a\n\t"
    with pytest.raises(TruncatedArgument):
        first_ops(b"Sabc\n.")


def test_counted_argument_truncation_reports_needed_and_available():
    with pytest.raises(TruncatedArgument) as excinfo:
        first_ops(b"X\x10\x00\x00\x00abc")
    assert excinfo.value.needed == 16
    assert excinfo.value.available == 3


def test_instruction_limit(monkeypatch):
    monkeypatch.setattr(disasm, "MAX_INSTRUCTIONS", 3)
    with pytest.raises(LimitExceeded):
        first_ops(b"NNNN.")


def test_argument_limit(monkeypatch):
    monkeypatch.setattr(disasm, "MAX_ARG_BYTES", 8)
    with pytest.raises(LimitExceeded):
        first_ops(b"B\xff\xff\x00\x00" + b"x" * 100)


def test_offset_coverage_over_generated_streams():
    for name, stream, _ in benign_streams(30):
        ops = first_ops(stream)
        assert_ops_tile(ops)
        assert ops[-1][3] == len(stream), name


def test_transcripts_match_reference_over_generated_streams():
    for name, stream, _ in benign_streams(40):
        assert own_transcript(stream) == reference_transcript(stream), name


@pytest.mark.parametrize("name,stream", RARE_OPCODE_STREAMS)
def test_rare_opcodes_match_reference(name, stream):
    assert own_transcript(stream) == reference_transcript(stream)
    assert_ops_tile(first_ops(stream))


def test_concatenated_minimal():
    segments = list(iter_programs(b"N.N."))
    assert len(segments) == 2
    assert [ops[0][1] for ops, _trailing in segments] == [0, 2]
    assert all(names(ops) == ["NONE", "STOP"] for ops, _trailing in segments)


def test_concatenated_single_payload_stream():
    stream = emit_injected_pickle([1, 2, 3], "true # FIXTURE-MARKER", 2)
    segments = list(iter_programs(stream))
    assert len(segments) == 1


def test_concatenated_garbage_second_segment():
    with pytest.raises(UnknownOpcode) as excinfo:
        list(iter_programs(b"N." + b"\xff"))
    assert excinfo.value.segment == 1


def test_concatenated_zero_padding_tolerated():
    segments = list(iter_programs(b"N.N." + b"\x00" * 5))
    assert [trailing for _ops, trailing in segments] == [0, 5]


def test_real_multi_pickle_file():
    first = pickle.dumps({"a": 1}, 2)
    stream = first + pickle.dumps([1, 2], 2)
    segments = list(iter_programs(stream))
    assert len(segments) == 2
    assert segments[1][0][0][1] == len(first)
    for ops, _trailing in segments:
        assert_ops_tile(ops, ops[0][1])


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=256))
def test_totality_on_arbitrary_bytes(data):
    try:
        for ops, trailing in iter_programs(data):
            assert ops[-1][3] + trailing <= len(data)
    except ParseError:
        pass  # structured failure is the contract; anything else propagates


def test_frame_argument_decoded_and_recorded():
    stream = pickle.dumps("x" * 100, 4)
    frames = [op for op in first_ops(stream) if OPCODES[op[0]].name == "FRAME"]
    assert len(frames) == 1
    _code, offset, arg, _end = frames[0]
    assert arg == len(stream) - offset - 9


# One well-formed argument per pickletools argument descriptor.
_SAMPLE_ARGS = {
    None: b"",
    "decimalnl_short": b"-42\n",
    "decimalnl_long": b"123L\n",
    "floatnl": b"-2.5\n",
    "stringnl": b"'a\\x41'\n",
    "stringnl_noescape": b"weights.0\n",
    "unicodestringnl": b"a\\u00e9\n",
    "stringnl_noescape_pair": b"os\nsystem\n",
    "uint1": b"\xfe",
    "uint2": b"\x01\xfe",
    "uint4": b"\x01\x02\x03\xfe",
    "uint8": b"\x01\x02\x03\x04\x05\x06\x07\xfe",
    "int4": b"\x01\x02\x03\xfe",
    "float8": struct.pack(">d", -2.5),
    "string1": b"\x03a\xe9c",
    "string4": b"\x03\x00\x00\x00a\xe9c",
    "bytes1": b"\x03a\xe9c",
    "bytes4": b"\x03\x00\x00\x00a\xe9c",
    "bytes8": b"\x03" + b"\x00" * 7 + b"a\xe9c",
    "bytearray8": b"\x03" + b"\x00" * 7 + b"a\xe9c",
    "unicodestring1": b"\x04a\xc3\xa9c",
    "unicodestring4": b"\x04\x00\x00\x00a\xc3\xa9c",
    "unicodestring8": b"\x04" + b"\x00" * 7 + b"a\xc3\xa9c",
    "long1": b"\x02\x01\xff",
    "long4": b"\x02\x00\x00\x00\x01\xff",
}


def test_decoder_table_agrees_with_opcode_table():
    """Exactly the bytes of ``pickletools.opcodes`` have a decoder and a
    handler, and each decoder reads its sample as pickletools' own reader.
    Every handler the machine defines serves some opcode, and every alias
    of one is named after an opcode."""
    reference = {ord(op.code): op for op in pickletools.opcodes}
    assert len(DECODERS) == len(disasm.OPCODES) == len(absvm._HANDLERS) == 256
    for byte in range(256):
        assert (DECODERS[byte] is None) == (byte not in reference), byte
        assert (absvm._HANDLERS[byte] is None) == (byte not in reference), byte
        assert disasm.OPCODES[byte] is reference.get(byte), byte
    handlers = [absvm._HANDLERS[byte] for byte in reference]
    names = {"op_" + op.name.lower() for op in reference.values()}
    for attr in dir(absvm._Machine):
        if attr.startswith("op_"):
            handler = getattr(absvm._Machine, attr)
            assert any(handler is h for h in handlers), attr
            assert attr in names or handler.__name__ == attr, attr
    assert set(_SAMPLE_ARGS) == {op.arg and op.arg.name for op in pickletools.opcodes}
    for code, op in reference.items():
        raw = _SAMPLE_ARGS[op.arg and op.arg.name]
        stream = bytes([code]) + raw + b"."
        arg, end = DECODERS[code](stream, 1, 0)
        expected = op.arg.reader(io.BytesIO(raw)) if raw else None
        if isinstance(expected, bytearray):
            expected = bytes(expected)
        if isinstance(arg, tuple):
            arg = " ".join(arg)  # genops joins the GLOBAL/INST pair with a space
        assert (arg, end) == (expected, 1 + len(raw)), op.name


# -- STRING escapes --------------------------------------------------------------


def _escape_decode(data: bytes) -> bytes | str:
    """What the loaders' decoder gives under default warning filters: the
    value, or the ValueError's message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return codecs.escape_decode(data)[0]
        except ValueError as exc:
            return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from([b"\\", b"\\\\", b"x", b"0", b"3", b"4", b"7", b"8", b"a", b"F",
                                 b"g", b"n", b"'", b"\n", b"\xe9"]), max_size=12))
@example([b"\\400"])  # octal past \377: the low byte
@example([b"a\\777b"])
@example([b"\\\\g"])  # an escaped backslash, then a plain g
@example([b"\\g\\x4"])  # an unknown escape, then a bad \x at position 2
@example([b"\\g", b"\\\\", b"\\", b"x", b"4"])  # a bad \x placed past an escaped backslash
def test_string_escapes_decode_as_escape_decode_without_a_warning(pieces):
    """Also in chunks of a few bytes, so that escapes meet chunk ends."""
    data = b"".join(pieces)
    expected = _escape_decode(data)
    for chunk in (1, 2, 3, disasm._UNESCAPE_CHUNK):
        with warnings.catch_warnings(), mock.patch.object(disasm, "_UNESCAPE_CHUNK", chunk):
            warnings.simplefilter("error")
            try:
                decoded: bytes | str = disasm._unescape(data)
            except ValueError as exc:
                decoded = str(exc)
        assert decoded == expected, chunk


def test_string_with_an_unknown_escape_walks_under_warnings_as_errors():
    """``'\\g'`` is kept as written, as pickle.py keeps it, and no warning
    escapes the walk whatever the filters say."""
    stream = b"S'\\g'\n."
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (result,) = absvm.walk(stream)
    assert result.error is None and result.root == "\\g"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert pickle.loads(stream) == result.root
