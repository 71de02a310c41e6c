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
    LimitExceeded,
    MissingStop,
    ParseError,
    TruncatedArgument,
    UnknownOpcode,
    disassemble,
    iter_programs,
    plausible_pickle_prefix,
)
from modelsentry.forge import emit_injected_pickle, emit_reduce_payload_pickle


def test_minimal_stream():
    program = disassemble(b"N.")
    assert [i.mnemonic for i in program.instructions] == ["NONE", "STOP"]
    assert [i.offset for i in program.instructions] == [0, 1]
    assert program.declared_protocol == 0
    assert program.trailing_bytes == 0
    assert program.byte_length == 2


def test_reduce_payload_first_instruction_is_global():
    stream = emit_reduce_payload_pickle("true # FIXTURE-MARKER", 0)
    program = disassemble(stream)
    first = program.instructions[0]
    assert first.mnemonic == "GLOBAL"
    assert first.offset == 0
    assert first.arg == ("os", "system")
    assert own_transcript(stream) == reference_transcript(stream)


def test_truncated_global_argument():
    with pytest.raises(TruncatedArgument) as excinfo:
        disassemble(b"c")
    assert excinfo.value.offset == 0


def test_missing_stop():
    with pytest.raises(MissingStop):
        disassemble(b"N")


def test_unknown_opcode_offset():
    with pytest.raises(UnknownOpcode) as excinfo:
        disassemble(b"N\xff.")
    assert excinfo.value.offset == 1
    assert excinfo.value.byte == 0xFF


def test_trailing_bytes_reported_not_dropped():
    program = disassemble(b"N." + b"garbage")
    assert program.byte_length == 2
    assert program.trailing_bytes == 7


def test_declared_protocol_from_proto_opcode():
    assert disassemble(b"\x80\x04\x95\x02\x00\x00\x00\x00\x00\x00\x00N.").declared_protocol == 4
    assert disassemble(b"\x80\x02N.").declared_protocol == 2


def test_declared_protocol_inferred_without_proto():
    assert disassemble(b"N.").declared_protocol == 0
    assert disassemble(b"].").declared_protocol == 1  # EMPTY_LIST is a protocol-1 opcode


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
    program = disassemble(line)
    assert program.instructions[0].arg == expected


def test_malformed_decimal_is_structured_error():
    with pytest.raises(TruncatedArgument):
        disassemble(b"Inotanumber\n.")
    with pytest.raises(TruncatedArgument):
        disassemble(b"L12x\n.")


def test_string_opcode_requires_quotes():
    assert disassemble(b"S'abc'\n.").instructions[0].arg == "abc"
    assert disassemble(b'S"q"\n.').instructions[0].arg == "q"
    assert disassemble(rb"S'a\n\t'" + b"\n.").instructions[0].arg == "a\n\t"
    with pytest.raises(TruncatedArgument):
        disassemble(b"Sabc\n.")


def test_counted_argument_truncation_reports_needed_and_available():
    with pytest.raises(TruncatedArgument) as excinfo:
        disassemble(b"X\x10\x00\x00\x00abc")
    assert excinfo.value.needed == 16
    assert excinfo.value.available == 3


def test_instruction_limit(monkeypatch):
    monkeypatch.setattr(disasm, "MAX_INSTRUCTIONS", 3)
    with pytest.raises(LimitExceeded):
        disassemble(b"NNNN.")


def test_argument_limit(monkeypatch):
    monkeypatch.setattr(disasm, "MAX_ARG_BYTES", 8)
    with pytest.raises(LimitExceeded):
        disassemble(b"B\xff\xff\x00\x00" + b"x" * 100)


def test_offset_coverage_over_generated_streams():
    for name, stream, _ in benign_streams(30):
        program = disassemble(stream)
        assert sum(i.size for i in program.instructions) == program.byte_length, name
        offsets = [i.offset for i in program.instructions]
        assert offsets == sorted(offsets)
        assert all(b > a for a, b in zip(offsets, offsets[1:]))


def test_transcripts_match_reference_over_generated_streams():
    for name, stream, _ in benign_streams(40):
        assert own_transcript(stream) == reference_transcript(stream), name


@pytest.mark.parametrize("name,stream", RARE_OPCODE_STREAMS)
def test_rare_opcodes_match_reference(name, stream):
    assert own_transcript(stream) == reference_transcript(stream)
    program = disassemble(stream)
    assert sum(i.size for i in program.instructions) == program.byte_length


def test_concatenated_minimal():
    programs = list(iter_programs(b"N.N."))
    assert len(programs) == 2
    assert [p.start_offset for p in programs] == [0, 2]
    assert all([i.mnemonic for i in p.instructions] == ["NONE", "STOP"] for p in programs)


def test_concatenated_single_payload_stream():
    stream = emit_injected_pickle([1, 2, 3], "true # FIXTURE-MARKER", 2)
    programs = list(iter_programs(stream))
    assert len(programs) == 1


def test_concatenated_garbage_second_segment():
    with pytest.raises(UnknownOpcode) as excinfo:
        list(iter_programs(b"N." + b"\xff"))
    assert excinfo.value.segment == 1


def test_concatenated_zero_padding_tolerated():
    programs = list(iter_programs(b"N.N." + b"\x00" * 5))
    assert len(programs) == 2
    assert programs[-1].trailing_bytes == 5


def test_real_multi_pickle_file():
    stream = pickle.dumps({"a": 1}, 2) + pickle.dumps([1, 2], 2)
    programs = list(iter_programs(stream))
    assert len(programs) == 2
    assert programs[1].start_offset == len(pickle.dumps({"a": 1}, 2))


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=256))
def test_totality_on_arbitrary_bytes(data):
    try:
        program = disassemble(data)
        assert program.byte_length <= len(data)
    except ParseError:
        pass  # structured failure is the contract; anything else propagates


def test_plausible_pickle_prefix():
    assert plausible_pickle_prefix(b"\x80\x04\x95\x00")
    assert plausible_pickle_prefix(b"\x80\x02")
    assert not plausible_pickle_prefix(b"\x80\x06extra")
    assert plausible_pickle_prefix(b"N.", complete=True)
    assert plausible_pickle_prefix(pickle.dumps([1, 2, 3], 0), complete=True)
    assert not plausible_pickle_prefix(b"Model fixture text", complete=True)
    assert not plausible_pickle_prefix(b"", complete=True)
    assert not plausible_pickle_prefix(b"{\"json\": 1}", complete=True)
    # The loader imports os.system from an unterminated last line, and the
    # module alone when the name line is empty or past the end: pickle.py
    # calls ``find_class("at", "")`` on ``cat\n``.  A text line whose head
    # is no dotted name is no import.
    assert plausible_pickle_prefix(b"cos\nsystemX", complete=True)
    assert plausible_pickle_prefix(b"(Vls\nios\nsystemX", complete=True)
    assert plausible_pickle_prefix(b"cat\n", complete=True)
    assert plausible_pickle_prefix(b"cosX", complete=True)
    assert not plausible_pickle_prefix(b"cat dog\n", complete=True)
    # After another op a dotted word is text: LIST, then INST "ttl".
    assert not plausible_pickle_prefix(b"little", complete=True)
    assert not plausible_pickle_prefix(b"cos\n two words X", complete=True)
    # INST's names are read as written for the sniff, though no loader
    # reads a name that is not ASCII.
    assert plausible_pickle_prefix(b"(Vls\nios\nsyst\xc3\xa9m\n.", complete=True)


def test_frame_argument_decoded_and_recorded():
    stream = pickle.dumps("x" * 100, 4)
    program = disassemble(stream)
    frames = [i for i in program.instructions if i.mnemonic == "FRAME"]
    assert len(frames) == 1
    assert frames[0].arg == len(stream) - frames[0].offset - 9


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
    handler, and each decoder reads its sample as pickletools' own reader."""
    reference = {ord(op.code): op for op in pickletools.opcodes}
    assert len(DECODERS) == len(disasm.OPCODES) == len(absvm._HANDLERS) == 256
    for byte in range(256):
        assert (DECODERS[byte] is None) == (byte not in reference), byte
        assert (absvm._HANDLERS[byte] is None) == (byte not in reference), byte
        assert disasm.OPCODES[byte] is reference.get(byte), byte
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
