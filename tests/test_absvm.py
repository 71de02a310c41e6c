"""Abstract machine semantics, anchored to the real loader.

The structural oracle loads each benign stream with the actual unpickler
and compares shapes; the attack streams are checked through the stubbed
sacrificial loader from conftest.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import inspect
import io
import pickle
import pickletools
import resource
import signal
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    aliased_list_calls,
    benign_streams,
    deep_nesting,
    memo_sharing,
    reference_render,
    shared_dict_calls,
    shared_list_calls,
    shared_long_bytes_calls,
    stdlib_escape_warnings_ignored,
    structural_match,
    stub_load,
)
from modelsentry import absvm, disasm
from modelsentry.absvm import (
    ARG_SUMMARY_CAP,
    BadMark,
    CallMade,
    CallResult,
    Container,
    DynamicGlobal,
    DynamicGlobalRef,
    ExtensionRef,
    FrameMismatch,
    GlobalRef,
    GlobalResolved,
    MemoMiss,
    Opaque,
    OutOfBandBuffer,
    PersistentRef,
    ResidualStack,
    StackUnderflow,
    TrailingData,
    call_roots,
    evaluate,
    render_value,
)
from modelsentry.disasm import OPCODES, ParseError, decode_ops, iter_programs
from modelsentry.forge import (
    benign_state_dict_pickle,
    emit_corpus,
    emit_injected_pickle,
    emit_reduce_payload_pickle,
)

MARKER = "true # FIXTURE-MARKER"


def test_minimal_stream_has_no_events():
    # None is the root here, held as the plain value.
    (walked,) = absvm.walk(b"N.")
    for result in (evaluate(b"N."), walked):
        assert result.events == []
        assert result.root is None


def test_reduce_payload_events():
    result = evaluate(emit_reduce_payload_pickle(MARKER, 2))
    kinds = [event.kind for event in result.events]
    assert kinds == ["GlobalResolved", "CallMade"]
    resolved = result.events[0]
    assert (resolved.module, resolved.name) == ("os", "system")
    call = result.events[1]
    assert call.argc == 1
    assert MARKER in call.arg_summary
    assert isinstance(result.root, CallResult)
    assert not any(isinstance(event, ResidualStack) for event in result.events)


@pytest.mark.parametrize("protocol,root_value", [(0, [1, 2, 3]), (2, {"a": 1}), (4, "ok")])
def test_injected_stream_yields_residual_stack_and_loader_hides_it(protocol, root_value):
    stream = emit_injected_pickle(root_value, MARKER, protocol)
    result = evaluate(stream)
    residuals = [event for event in result.events if isinstance(event, ResidualStack)]
    assert len(residuals) == 1
    assert residuals[0].depth >= 1
    # Dual oracle: the sacrificial loader returns only the benign root.
    assert stub_load(stream) == root_value


def test_reduce_streams_never_report_residual_stack():
    for protocol in (0, 1, 2, 3, 4, 5):
        result = evaluate(emit_reduce_payload_pickle(MARKER, protocol))
        assert not any(isinstance(event, ResidualStack) for event in result.events)


def assert_events_match_op_counts(stream: bytes) -> None:
    """One import event per GLOBAL, STACK_GLOBAL or INST op of the first
    segment, and one CallMade per op that calls."""
    names = [OPCODES[code].name for code, _offset, _arg, _end in decode_ops(stream, 0)]
    events = evaluate(stream).events
    imports = sum(1 for e in events if isinstance(e, (GlobalResolved, DynamicGlobal)))
    assert imports == sum(name in ("GLOBAL", "STACK_GLOBAL", "INST") for name in names)
    calls = sum(1 for e in events if isinstance(e, CallMade))
    assert calls == sum(name in ("REDUCE", "NEWOBJ", "NEWOBJ_EX", "OBJ", "INST") for name in names)


def test_event_completeness_matches_instruction_counts():
    streams = [stream for _, stream, _ in benign_streams(25)]
    streams.append(emit_reduce_payload_pickle(MARKER, 4))
    streams.append(emit_injected_pickle([1], MARKER, 2))
    for stream in streams:
        assert_events_match_op_counts(stream)


def test_structure_matches_real_loader_on_benign_corpus():
    checked = 0
    for name, stream, value in benign_streams(60):
        result = evaluate(stream)
        loaded = pickle.loads(stream)
        assert loaded == value or (value != value), name  # generator avoids NaN
        assert structural_match(result.root, loaded), name
        checked += 1
    assert checked >= 50


@contextlib.contextmanager
def small_bounds():
    """Small bounds, so that walk and evaluate are also compared where a bound fires."""
    with mock.patch.multiple(disasm, MAX_INSTRUCTIONS=40, MAX_ARG_BYTES=16):
        yield


def _fault(exc: Exception) -> tuple:
    """A segment's fault: its kind, offset and message, and a ParseError's segment."""
    if isinstance(exc, ParseError):
        return (exc.kind, exc.offset, exc.segment, exc.message)
    return (exc.kind, exc.offset, exc.message)


def _evaluated(result: absvm.AbstractResult) -> tuple:
    return (result.events, len(result.memo), render_value(result.root))


def _walk_outcomes(stream: bytes) -> list[tuple]:
    """Per result of ``walk``: its segment, and its fault or what it evaluated to."""
    return [
        (result.segment, _evaluated(result) if result.error is None else _fault(result.error))
        for result in absvm.walk(stream)
    ]


def _segment_outcomes(stream: bytes) -> list[tuple]:
    """The same from ``evaluate`` over ``iter_programs``, which raise their
    faults, for the segments ``walk`` yields: the first, and each that has
    events or a fault."""
    outcomes: list[tuple] = []
    segment = 0
    try:
        for ops, _trailing in iter_programs(stream):
            try:
                result = evaluate(stream, ops[0][1])
            except absvm.VmError as exc:
                outcomes.append((segment, _fault(exc)))
            else:
                if segment == 0 or result.events:
                    outcomes.append((segment, _evaluated(result)))
            segment += 1
    except ParseError as exc:
        outcomes.append((segment, _fault(exc)))
    return outcomes


def assert_walk_matches_segments(stream: bytes) -> None:
    assert _walk_outcomes(stream) == _segment_outcomes(stream)


def _walk_corpus() -> list[bytes]:
    from conftest import RARE_OPCODE_STREAMS

    streams = [stream for _, stream, _ in benign_streams(30)]
    streams += [stream for _, stream in RARE_OPCODE_STREAMS]
    streams.append(emit_injected_pickle({"a": [1, 2]}, MARKER, 4))
    streams.append(b"R." + emit_reduce_payload_pickle(MARKER, 2) + b"N1." + b"\x00" * 3)
    return streams


def test_walk_matches_evaluate_over_programs():
    for stream in _walk_corpus():
        assert_walk_matches_segments(stream)
        with small_bounds():
            assert_walk_matches_segments(stream)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walk_matches_evaluate_on_mutated_streams(data):
    stream = bytearray(data.draw(st.sampled_from(_walk_corpus())))
    del stream[data.draw(st.integers(0, len(stream))):]
    for _ in range(data.draw(st.integers(0, 4)) if stream else 0):
        stream[data.draw(st.integers(0, len(stream) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    bounds = small_bounds() if data.draw(st.booleans()) else contextlib.nullcontext()
    with bounds:
        assert_walk_matches_segments(bytes(stream))


# -- the fused decode-and-evaluate loop against the op lists ----------------------


def _segments_and_parse_error(stream: bytes) -> tuple[list[int], tuple | None]:
    """The segments of ``iter_programs`` that ``walk`` yields a result for
    (the first, each whose ``evaluate`` has events or raises, and the one
    that fails to parse), and the ParseError it raises."""
    segments: list[int] = []
    segment = 0
    try:
        for ops, _trailing in iter_programs(stream):
            try:
                eventful = bool(evaluate(stream, ops[0][1]).events)
            except absvm.VmError:
                eventful = True
            if segment == 0 or eventful:
                segments.append(segment)
            segment += 1
    except ParseError as exc:
        return segments + [segment], (exc.kind, exc.offset, exc.segment)
    return segments, None


def _walked_and_parse_error(stream: bytes) -> tuple[list[int], tuple | None]:
    """The same from ``walk``, whose last result holds the ParseError."""
    results = list(absvm.walk(stream))
    last = results[-1].error
    segments = [result.segment for result in results]
    if isinstance(last, ParseError):
        return segments, (last.kind, last.offset, last.segment)
    return segments, None


def assert_walk_decodes_like_iter_programs(stream: bytes) -> None:
    """``walk`` decodes in its own loop, and keeps decoding after a VmError:
    it must split and fail exactly where ``iter_programs`` does."""
    assert _walked_and_parse_error(stream) == _segments_and_parse_error(stream)


@functools.cache
def _differential_corpus() -> tuple[bytes, ...]:
    with tempfile.TemporaryDirectory() as directory:
        emit_corpus(Path(directory), seed=0)
        forged = [path.read_bytes() for path in sorted(Path(directory).glob("*.pkl"))]
    recipes = [memo_sharing(6), deep_nesting(40), shared_list_calls(30, 4)]
    return tuple(forged + recipes + _walk_corpus())


# Every assigned opcode byte, for insertion mutants.
_OPCODE_BYTES = [code for code, op in enumerate(disasm.OPCODES) if op is not None]


def _mutate(draw, stream: bytes, least: int = 1) -> bytes:
    """``stream`` after ``least`` to 4 byte flips, truncations and opcode insertions."""
    stream = bytearray(stream)
    for _ in range(draw(st.integers(least, 4))):
        kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
        at = draw(st.integers(0, len(stream)))
        if kind == "flip" and at < len(stream):
            stream[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":
            del stream[at:]
        else:
            stream[at:at] = bytes([draw(st.sampled_from(_OPCODE_BYTES))])
    return bytes(stream)


@st.composite
def _mutants(draw) -> bytes:
    return _mutate(draw, draw(st.sampled_from(_differential_corpus())))


@st.composite
def _float_streams(draw) -> bytes:
    """Bulk-shaped streams: a pickled list of up to 200 floats, or a dict of
    8-float lists like a state dict's, at protocols 2-5, and their mutants.
    A protocol-4 or 5 stream's one FRAME may be cut short to end anywhere."""
    count = draw(st.integers(0, 200))
    values = draw(st.lists(st.floats(), min_size=count, max_size=count))
    if draw(st.booleans()):
        values = {f"layer.{index}.weight": values[index:index + 8] for index in range(0, len(values), 8)}
    stream = bytearray(pickle.dumps(values, draw(st.integers(2, 5))))
    if stream[2:3] == b"\x95" and draw(st.booleans()):
        stream[3:11] = draw(st.integers(0, len(stream) - 11)).to_bytes(8, "little")
    return _mutate(draw, bytes(stream), least=0)


@settings(max_examples=300, deadline=None)
@given(_mutants(), st.booleans())
def test_walk_decodes_like_iter_programs_on_mutants(stream, small):
    bounds = small_bounds() if small else contextlib.nullcontext()
    with bounds:
        assert_walk_decodes_like_iter_programs(stream)


@settings(max_examples=200, deadline=None)
@given(_mutants(), st.booleans())
def test_walk_never_raises_and_only_its_last_result_holds_a_parse_error(stream, small):
    with small_bounds() if small else contextlib.nullcontext():
        results = list(absvm.walk(stream))
    assert results and all(isinstance(result, absvm.AbstractResult) for result in results)
    assert not any(isinstance(result.error, ParseError) for result in results[:-1])


_PICKLABLE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12) | st.binary(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
# Lines of text over characters that are opcodes, newlines and separators.
_TEXT_LINES = st.lists(st.text(st.sampled_from("cilpSVINTBX.(0)2,5 x_\\'\"\xe9"), max_size=24), max_size=24).map(
    lambda lines: "".join(line + "\n" for line in lines).encode()
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _mutants(),
        st.builds(pickle.dumps, _PICKLABLE_VALUES, st.integers(0, 5)),
        _TEXT_LINES,
    ),
    st.data(),
)
def test_a_head_that_decides_decides_as_the_whole_does(stream, data):
    cut = data.draw(st.integers(0, len(stream)))
    decided = absvm.is_pickle("", stream[:cut], cut == len(stream))
    if decided is not None:
        assert decided == absvm.is_pickle("", stream)


def test_a_stream_refused_before_its_first_segment_yields_one_result_with_no_events():
    (empty,) = absvm.walk(b"")
    with mock.patch.object(disasm, "MAX_STREAM_BYTES", 1):
        (too_long,) = absvm.walk(b"N.")
    assert (empty.error.kind, empty.error.offset) == ("MissingStop", 0)
    assert too_long.error.message == "limit exceeded: max_stream_bytes"
    for result in (empty, too_long):
        assert result.events == [] and len(result.memo) == 0
        assert isinstance(result.root, Opaque) and result.error.segment is None


def test_walk_decodes_like_iter_programs_on_the_unmutated_corpus():
    for stream in _differential_corpus():
        assert_walk_decodes_like_iter_programs(stream)
        with small_bounds():
            assert_walk_decodes_like_iter_programs(stream)


def test_instruction_limit_counts_the_ops_after_a_vm_error():
    """The ops decoded after a VmError still count toward MAX_INSTRUCTIONS:
    the limit fires at the same op as in the op list."""
    stream = b"R" + b"N" * 50 + b"."  # StackUnderflow at op 0
    with mock.patch.object(disasm, "MAX_INSTRUCTIONS", 40):
        assert _segments_and_parse_error(stream) == ([0], ("LimitExceeded", 40, 0))
        assert_walk_decodes_like_iter_programs(stream)
        (limited,) = absvm.walk(stream)
    assert isinstance(limited.error, disasm.LimitExceeded) and limited.events == []
    # Under the limit the same stream is one segment that failed to evaluate.
    (outcome,) = absvm.walk(stream)
    assert isinstance(outcome.error, StackUnderflow) and outcome.error.offset == 0


def test_a_kept_vm_error_is_detached():
    """``pop`` raises StackUnderflow ``from None``, which still records the
    IndexError it replaced as ``__context__``: the kept error holds neither
    that nor its traceback, so it pins no frame of the run."""
    (outcome,) = absvm.walk(b"RN.")
    assert isinstance(outcome.error, StackUnderflow)
    assert outcome.error.__traceback__ is None and outcome.error.__context__ is None


# -- one machine per stream: every segment starts from a reset ---------------------


def _print_call(text: bytes) -> bytes:
    """``builtins.print`` of a tuple whose element is a list memoized under
    index 0 and fetched back with BINGET: its evidence holds a shared
    container render, kept in the machine's ``rendered``."""
    return (
        b"\x8c\x08builtins\x8c\x05print\x93"  # SHORT_BINUNICODE twice, STACK_GLOBAL
        + b"]\x8c" + bytes([len(text)]) + text + b"a\x94"  # [text], MEMOIZE
        + b"0h\x00\x85R"  # POP, BINGET 0, TUPLE1, REDUCE
    )


def _leaky_segment() -> bytes:
    """A segment that ends with state a next segment must not see: a memo
    entry, a rendered call, a value left on the stack under an open MARK,
    and a FRAME that runs 3 bytes past its STOP."""
    body = _print_call(b"seg1") + b"N(NN."
    frame = len(body) + 3
    return b"\x80\x04\x95" + frame.to_bytes(8, "little") + body


@pytest.mark.parametrize(
    "second, fault",
    [
        (b"h\x00.", "MemoMiss"),  # the memo starts empty
        (b".", "StackUnderflow"),  # so does the stack
        (b"0N.", "BadMark"),  # and the metastack
        (b"N.", None),  # and no FRAME is open
    ],
)
def test_a_segment_starts_from_a_reset_machine(second, fault):
    first = _leaky_segment()
    leaky, *rest = absvm.walk(first + second)
    assert leaky.error is None and len(leaky.memo) == 1
    assert [type(event) for event in leaky.events] == [
        FrameMismatch, GlobalResolved, CallMade, ResidualStack
    ]
    if fault is None:
        # A clean segment, with no event and no fault: ``walk`` yields nothing for it.
        assert rest == []
    else:
        (result,) = rest
        assert result.segment == 1
        assert (result.error.kind, result.error.offset) == (fault, len(first))


def test_a_segment_renders_its_call_evidence_afresh():
    first = _leaky_segment()
    stream = first + _print_call(b"seg2") + b"."
    caches = []
    render = absvm.render_value

    def spy(value, limit=ARG_SUMMARY_CAP, rendered=None):
        caches.append(rendered)
        return render(value, limit, rendered)

    with mock.patch.object(absvm, "render_value", spy):
        leaky, result = absvm.walk(stream)
    assert [call.arg_summary for call in _calls([leaky])] == ["(['seg1'])"]
    assert [call.arg_summary for call in _calls([result])] == ["(['seg2'])"]
    assert len(caches) == 2 and caches[1] is not caches[0]
    # Its first op straddles the end of the first segment's FRAME, unflagged.
    assert result.error is None and not any(isinstance(e, FrameMismatch) for e in result.events)
    assert _evaluated(result) == _evaluated(evaluate(stream, len(first)))


def test_instruction_limit_counts_each_segment_on_its_own():
    segment = b"N0N."  # four ops, STOP included
    with mock.patch.object(disasm, "MAX_INSTRUCTIONS", 4):
        # The second segment is clean, so only the first is yielded: a
        # LimitExceeded there would be a result of segment 1.
        results = list(absvm.walk(segment * 2))
        (limited,) = absvm.walk(b"N0" + segment)
        assert _walked_and_parse_error(segment * 2) == _segments_and_parse_error(segment * 2)
    assert [(result.segment, result.error) for result in results] == [(0, None)]
    assert (limited.segment, limited.error.kind, limited.error.offset) == (0, "LimitExceeded", 4)


@settings(max_examples=150, deadline=None)
@given(st.lists(_mutants(), min_size=2, max_size=4), st.booleans())
def test_walk_matches_fresh_machines_on_concatenated_mutants(streams, small):
    """Each segment of one machine's walk equals ``evaluate`` of that
    segment on a fresh machine, with and without small bounds."""
    with small_bounds() if small else contextlib.nullcontext():
        assert_walk_matches_segments(b"".join(streams))


# -- literals are plain values ----------------------------------------------------


def test_long_literals_are_plain_values_at_the_root():
    """However long, a literal is the value the stream wrote; only its
    rendered text is bounded."""
    text = "\xe9" * 5000
    number = 1 << 19_999  # 20,000 bits
    for value, opcode in ((text, "BINUNICODE"), (number, "LONG4")):
        stream = pickle.dumps(value, 2)
        assert opcode in [op.name for op, _, _ in pickletools.genops(stream)]
        for result in (evaluate(stream), *absvm.walk(stream)):
            assert type(result.root) is type(value) and result.root == value
    assert render_value(text) == repr(text)[:ARG_SUMMARY_CAP] + "…"
    assert render_value(number) == "<int of 20000 bits>"


def test_stack_global_with_long_module_text_is_resolved():
    module = "m" * (absvm.ARG_SUMMARY_CAP + 1)
    stream = (
        b"\x80\x04\x8d" + struct.pack("<Q", len(module)) + module.encode()
        + b"\x8c\x06system\x93."
    )
    for result in (evaluate(stream), *absvm.walk(stream)):
        assert result.events == [GlobalResolved(len(stream) - 2, module, "system")]
        assert result.root == GlobalRef(module, "system")


def test_binpersid_of_short_text_renders_its_repr():
    result = evaluate(b"\x80\x02cos\nsystem\nX\x03\x00\x00\x00keyQ\x85R.")
    call = next(event for event in result.events if isinstance(event, CallMade))
    assert call.arg_summary == "(<persistent 'key'>)"
    # PERSID's id is its raw text line.
    result = evaluate(b"\x80\x02cos\nsystem\nPkey\n\x85R.")
    call = next(event for event in result.events if isinstance(event, CallMade))
    assert call.arg_summary == "(<persistent key>)"


_PLAIN = [None, True, False, 0, -7, 2**64, 1.5, float("inf"), -0.0, "a'b", b"\x00", bytearray(b"z")]


@pytest.mark.parametrize("value", _PLAIN)
def test_render_of_a_plain_literal_is_its_repr(value):
    assert render_value(value) == repr(value)
    assert render_value(Container("list", [value, value])) == repr([value, value])
    assert render_value(value, limit=2) == repr(value)[:2] + ("…" if len(repr(value)) > 2 else "")


# -- the renderer against its put-per-piece reference ------------------------------

_QUOTED = st.text(st.sampled_from("ab'\"\\\n\x00\xe9\U0001f600"), max_size=10)
_PLAIN_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _QUOTED,
    _QUOTED.map(str.encode),
    _QUOTED.map(lambda text: bytearray(text.encode())),
    # Longer than ARG_SUMMARY_CAP: rendered from a head of the value.
    st.sampled_from(["'" * 5000, "a\"b'" * 1500, b"'\x00" * 3000, bytearray(b'"') * 4097]),
    # Past 10**4300: no decimal repr, a placeholder.  Built in ``map``:
    # hypothesis takes the repr of what ``sampled_from`` holds.
    st.integers(14_300, 17_000).map(lambda bits: -(1 << bits)),
    st.sampled_from([(1, -1), (1, 0), (-1, 0)]).map(lambda pair: pair[0] * (10**4300 + pair[1])),
)
_LEAVES = st.one_of(
    _PLAIN_VALUES,
    st.builds(GlobalRef, st.sampled_from(["os", "a.b"]), st.sampled_from(["system", "c"])),
    st.just(DynamicGlobalRef()),
    st.integers(1, 300).map(ExtensionRef),
    st.just(Opaque()),
    _QUOTED.map(lambda text: PersistentRef(text, line=True)),
)
_SEQUENCE_KINDS = st.sampled_from(["list", "tuple", "set", "frozenset"])


def _nested(value, depth: int):
    for level in range(depth):
        value = Container("list", [value]) if level % 2 else Container("tuple", ["a", value, 0])
    return value


def _repeated(kind: str, items: list, times: int) -> Container:
    """A long container: a few plain values, or pairs of them, repeated."""
    if kind == "dict":
        items = list(zip(items, reversed(items)))
    return Container(kind, items * times)


def _composites(children):
    elements = st.lists(children, max_size=12)
    return st.one_of(
        st.builds(Container, _SEQUENCE_KINDS, elements),
        st.builds(Container, st.just("dict"), st.lists(st.tuples(children, children), max_size=12)),
        st.builds(CallResult, children, st.one_of(elements.map(tuple), children)),
        children.map(PersistentRef),
        st.builds(_nested, children, st.integers(21, 27)),
        st.builds(
            _repeated,
            st.one_of(_SEQUENCE_KINDS, st.just("dict")),
            st.lists(_PLAIN_VALUES, min_size=1, max_size=4),
            st.integers(1, 1500),
        ),
    )


_GRAPHS = st.recursive(_LEAVES, _composites, max_leaves=40)


def _containers(value) -> list[Container]:
    """Every container of a drawn tree."""
    found, todo = [], [value]
    while todo:
        node = todo.pop()
        if isinstance(node, Container):
            found.append(node)
            todo += [v for pair in node.elements for v in pair] if node.kind == "dict" else node.elements
        elif isinstance(node, CallResult):
            todo += [node.callee, *node.args] if isinstance(node.args, tuple) else [node.callee, node.args]
        elif isinstance(node, PersistentRef) and not node.line:
            todo.append(node.pid)
    return found


@settings(max_examples=150, deadline=None)
@given(_GRAPHS, st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=4))
def test_render_value_equals_the_reference_renderer(value, links):
    """Every limit from 1 to 64 and the evidence cap.  Each drawn link puts
    one container of the tree into another, as GET and DUP do, so shared
    nodes and cycles are common.  The value, the value one list deeper and
    each linked container also go through one cache of shared container
    renders, as a machine's calls do between container writes, so its keys
    meet at every depth and budget."""
    found = _containers(value)
    linked = []
    for i, j in links if found else ():
        into, taken = found[i % len(found)], found[j % len(found)]
        into.elements.insert(j % (len(into.elements) + 1), ("k", taken) if into.kind == "dict" else taken)
        linked += [into, taken]
    rendered: dict = {}
    shown = [value, Container("list", [value]), *linked]
    for limit in (*range(1, 65), ARG_SUMMARY_CAP):
        assert render_value(value, limit) == reference_render(value, limit), limit
        for item in shown:
            assert render_value(item, limit, rendered) == reference_render(item, limit)


@pytest.mark.parametrize("depth", [22, 23, 24, 25])
@pytest.mark.parametrize("kind", ["list", "dict"])
def test_render_of_plain_elements_at_the_depth_cap(depth, kind):
    """Elements deeper than the cap render as "…" each, joined or not."""
    value = _nested(_repeated(kind, ["x", 1], 20), depth)
    for limit in (40, 200, ARG_SUMMARY_CAP):
        assert render_value(value, limit=limit) == reference_render(value, limit=limit)


def test_render_cut_at_the_end_of_a_piece_has_no_ellipsis():
    pair = Container("list", ["ab", "cd"])
    assert render_value(pair, limit=5) == "['ab'"
    assert render_value(pair, limit=6) == "['ab',…"
    assert render_value(pair, limit=7) == "['ab', "
    pairs = Container("dict", [("a", 1)] * 20)
    assert render_value(pairs, limit=4) == "{'a'"
    assert render_value(pairs, limit=5) == "{'a':…"
    assert render_value(pairs, limit=6) == "{'a': "


def test_determinism():
    stream = emit_injected_pickle({"a": [1, 2]}, MARKER, 4)
    first = evaluate(stream)
    second = evaluate(stream)
    assert first.events == second.events
    assert render_value(first.root) == render_value(second.root)
    assert len(first.memo) == len(second.memo)


# -- call-chain roots ----------------------------------------------------------


def test_summarize_direct_call():
    value = CallResult(GlobalRef("os", "system"), ("x",))
    assert call_roots(value.callee) == ("os", "system")


def test_summarize_primitive_is_empty():
    assert call_roots(7) is None


def test_summarize_nested_call_reports_innermost_root():
    inner = CallResult(GlobalRef("builtins", "getattr"), ())
    outer = CallResult(inner, (1,))
    assert call_roots(outer.callee) == ("builtins", "getattr")


def test_summarize_dynamic_contributes_sentinel():
    assert call_roots(absvm.DynamicGlobalRef()) == ("<dynamic>", "<dynamic>")


def test_call_roots_resolves_through_memo():
    # GET pushes the memo's own object: the global, and a call on it.
    stream = b"\x80\x02cos\nsystem\nq\x030h\x03)Rq\x040h\x04)R."
    result = evaluate(stream)
    assert call_roots(result.memo[3]) == call_roots(result.memo[4]) == ("os", "system")
    assert [e.root for e in result.events if isinstance(e, CallMade)] == [("os", "system")] * 2
    assert call_roots(result.memo[3].name) is None


def test_call_roots_stops_on_memo_cycle_through_callee_chain():
    # A machine makes no such chain, since a call's callee is older than
    # its result: the walk stops after 64 hops all the same.
    looped = CallResult(callee=None, args=())
    looped.callee = looped
    assert call_roots(looped) is None


def test_summarize_walks_containers():
    # A call nested in a container has its own CallMade event, so the scan
    # path finds its root without walking the container.
    result = evaluate(b"](K\x01ca\nb\n)Re.")  # [1, a.b()]
    roots = [event.root for event in result.events if isinstance(event, CallMade)]
    assert roots == [("a", "b")]


# -- individual opcode families ----------------------------------------------


def test_memo_roundtrip_and_self_reference():
    # list that contains itself via the memo: legitimate cycle, no recursion blowup
    result = evaluate(b"]q\x00h\x00a.")
    assert isinstance(result.root, Container)
    assert len(result.root.elements) == 1 and result.root.elements[0] is result.root
    # rendering follows the cycle down to the depth cap
    assert render_value(result.root) == "[" * 25 + "…" + "]" * 25


def test_memoize_and_get():
    result = evaluate(b"\x80\x04\x8c\x02hi\x94h\x00\x86.")
    root = result.root
    assert isinstance(root, Container) and root.kind == "tuple"
    assert root.elements[0] == "hi" and type(root.elements[0]) is str
    assert root.elements[1] is root.elements[0]


def test_memo_miss_is_error():
    with pytest.raises(MemoMiss) as excinfo:
        evaluate(b"Ng5\n.")
    assert excinfo.value.message == "memo has no entry 5"


def test_negative_put_rejected():
    with pytest.raises(MemoMiss):
        evaluate(b"Np-1\n.")


def test_stack_underflow():
    with pytest.raises(StackUnderflow):
        evaluate(b"R.")
    with pytest.raises(StackUnderflow):
        evaluate(b".")


def test_bad_mark():
    with pytest.raises(BadMark):
        evaluate(b"N1.")


def test_stack_global_literal_and_dynamic():
    literal = evaluate(b"\x80\x04\x8c\x02os\x8c\x06system\x93.")
    assert literal.events[0] == GlobalResolved(14, "os", "system")
    dynamic = evaluate(b"\x80\x04)\x8c\x06system\x93.")
    assert [event.kind for event in dynamic.events] == ["DynamicGlobal"]
    assert isinstance(dynamic.root, absvm.DynamicGlobalRef)


def test_stack_global_through_memo_is_still_literal():
    # name strings memoized, popped, fetched back via BINGET: the import
    # target is still statically determined, so no DynamicGlobal
    stream = (
        b"\x80\x04"
        b"\x8c\x02os\x94"  # push "os", memo[0]
        b"\x8c\x06system\x94"  # push "system", memo[1]
        b"00"  # POP POP
        b"h\x00h\x01"  # push memo[0], memo[1]
        b"\x93."
    )
    result = evaluate(stream)
    events = [event for event in result.events if isinstance(event, GlobalResolved)]
    assert len(events) == 1
    assert (events[0].module, events[0].name) == ("os", "system")
    assert not any(isinstance(event, DynamicGlobal) for event in result.events)


def test_evaluate_raises_a_parse_error_of_segment_zero():
    """``evaluate`` runs one segment on a fresh machine, so its ParseError
    is of that machine's segment 0, wherever the segment starts; ``walk``
    counts every segment of the stream."""
    with pytest.raises(disasm.MissingStop) as raised:
        evaluate(b"N")
    assert (raised.value.offset, raised.value.segment) == (1, 0)
    stream = b"N.N\xff"
    with pytest.raises(disasm.UnknownOpcode) as raised:
        evaluate(stream, 2)
    assert (raised.value.offset, raised.value.segment) == (3, 0)
    _, failed = absvm.walk(stream)
    assert (failed.error.offset, failed.error.segment) == (3, 1)


def test_trailing_data_event():
    result = evaluate(b"N." + b"\x00\x00")
    trailing = [event for event in result.events if isinstance(event, TrailingData)]
    assert len(trailing) == 1
    assert trailing[0].byte_count == 2


def test_out_of_band_buffer_is_soft():
    result = evaluate(b"\x80\x05\x97.")
    assert [event.kind for event in result.events] == ["OutOfBandBuffer"]
    assert isinstance(result.root, absvm.Opaque)


def test_readonly_buffer_substitutes_opaque():
    result = evaluate(b"\x80\x05\x97\x98.")
    assert [event.kind for event in result.events] == ["OutOfBandBuffer", "OutOfBandBuffer"]
    assert isinstance(result.root, absvm.Opaque)


def test_build_pops_the_state_and_keeps_the_object():
    stream = b"cmod\nCls\n)R}(V__hidden__\nVvalue\nub."
    result = evaluate(stream)
    assert [event.kind for event in result.events] == ["GlobalResolved", "CallMade"]
    assert isinstance(result.root, CallResult)
    # As pickle.py's load_build: the state is popped, then the object read.
    for stream, offset in ((b"\x80\x02b.", 2), (b"\x80\x02Nb.", 3)):
        (outcome,) = absvm.walk(stream)
        assert isinstance(outcome.error, StackUnderflow) and outcome.error.offset == offset


def test_inst_emits_import_then_call():
    result = evaluate(b"(Vx\nios\nsystem\n.")
    kinds = [event.kind for event in result.events]
    assert kinds == ["GlobalResolved", "CallMade"]
    assert result.events[0] == GlobalResolved(4, "os", "system")
    assert result.events[1].root == ("os", "system")


def test_inst_without_mark_still_imports():
    # pickle.py's load_inst imports before it looks for the MARK.
    (outcome,) = absvm.walk(b"\x80\x02ios\nsystem\n.")
    assert isinstance(outcome.error, BadMark) and outcome.error.offset == 2
    assert outcome.events == [GlobalResolved(2, "os", "system")]


class _RecordingLoader(pickle._Unpickler):
    """pickle.py's loader, with a ``find_class`` that records the pair and
    returns a stub that records its calls."""

    def __init__(self, stream: bytes):
        super().__init__(io.BytesIO(stream))
        self.imports: list[tuple[str, str]] = []
        self.calls = 0

    def find_class(self, module, name):
        self.imports.append((module, name))

        def stub(*args):
            self.calls += 1

        return stub


_FRAME_OF_4 = b"\x80\x04\x95\x04" + bytes(7)
_SHORT_FRAME = b"\x80\x04\x95\xc6" + bytes(7)  # declares 198 bytes


@pytest.mark.parametrize(
    "stream",
    [
        b"cos\nsystemX",
        b"cos\nsystem",
        b"cosX",
        b"cos\n",
        b"c",
        b"c\xff\nsystemX",
        b"(Vls\nios\nsystemX",
        b"(Vls\nios\nsyst\xc3\xa9mX",  # INST's names are ASCII: no import
        b"\x80\x02ios\nsystemX",
        _FRAME_OF_4 + b"cos\nsystemX",  # the name line starts past the frame
        b"\x80\x04\x95\x05" + bytes(7) + b"cos\nsystemX",  # it starts inside it
        # A frame cut short by the end of the stream ends there, as pickle.py's
        # ``_Unframer`` reads it: a line that starts past it is read from the file.
        _SHORT_FRAME + b"c",
        _SHORT_FRAME + b"cos\n",
        _SHORT_FRAME + b"(Vls\ni",
        _SHORT_FRAME + b"cos\nsystemX",  # the name line starts inside the frame
    ],
)
def test_unterminated_name_line_imports_what_pickle_py_imports(stream):
    """pickle.py reads a GLOBAL or INST line with ``readline()[:-1]``, so a
    last line that runs to the end of the stream loses its final byte, and
    the loader imports (for INST, calls) before it fails."""
    loader = _RecordingLoader(stream)
    with pytest.raises((EOFError, IndexError, pickle.UnpicklingError, ValueError)):
        loader.load()
    (result,) = absvm.walk(stream)
    assert isinstance(result.error, disasm.TruncatedArgument)
    events = result.events
    assert [(e.module, e.name) for e in events if isinstance(e, GlobalResolved)] == loader.imports
    assert sum(isinstance(e, CallMade) for e in events) == loader.calls


@pytest.mark.parametrize(
    "stream, imports",
    [
        (b"cos\nsystemX", [("os", "system")]),
        (b"cos\nsystem" + b"X" * 10, []),  # the name line holds 16 bytes
        (b"c" + b"o" * 17, []),  # the module line holds 17
    ],
)
def test_unterminated_name_line_longer_than_max_arg_bytes_imports_nothing(stream, imports):
    """A terminated name line longer than MAX_ARG_BYTES is a LimitExceeded,
    so an unterminated one gives no pair either."""
    with mock.patch.object(disasm, "MAX_ARG_BYTES", 15):
        (result,) = absvm.walk(stream)
    assert isinstance(result.error, disasm.TruncatedArgument)
    events = result.events
    assert [(e.module, e.name) for e in events if isinstance(e, GlobalResolved)] == imports


def test_frame_mismatch_informational():
    # FRAME claims 1 byte but a 2-byte instruction sits inside it
    straddle = b"\x80\x04\x95\x01\x00\x00\x00\x00\x00\x00\x00K\x07."
    result = evaluate(straddle)
    assert "FrameMismatch" in [event.kind for event in result.events]
    # frame claiming bytes past the end of the stream
    overlong = b"\x80\x04\x95\x63\x00\x00\x00\x00\x00\x00\x00N."
    result = evaluate(overlong)
    assert "FrameMismatch" in [event.kind for event in result.events]
    # well-framed stream stays quiet
    clean = pickle.dumps([1, 2, 3], 4)
    result = evaluate(clean)
    assert "FrameMismatch" not in [event.kind for event in result.events]


def _frame(length: int) -> bytes:
    return b"\x95" + length.to_bytes(8, "little")


def frame_mismatches(stream: bytes) -> list[list[int]]:
    """FrameMismatch offsets per result of the scanner's one-pass walk;
    evaluate at the start of each yielded segment must agree on them."""

    def offsets(result: absvm.AbstractResult) -> list[int]:
        return [event.at_offset for event in result.events if isinstance(event, FrameMismatch)]

    results = list(absvm.walk(stream))
    starts = [ops[0][1] for ops, _trailing in iter_programs(stream)]
    via_walk = [offsets(result) for result in results]
    assert via_walk == [offsets(evaluate(stream, starts[result.segment])) for result in results]
    return via_walk


def test_frame_mismatch_nested_frame_at_its_own_offset():
    # FRAME at 2 opens [11, 23); the FRAME at 11 opens inside it.
    stream = b"\x80\x04" + _frame(12) + _frame(2) + b"N."
    assert frame_mismatches(stream) == [[11]]


def test_frame_mismatch_at_op_straddling_frame_end():
    # FRAME at 2 covers [11, 12); K\x07 at 11 ends at 13.  The frame is closed
    # there, so the BININT1 at 13 and the STOP after it are not flagged.
    stream = b"\x80\x04" + _frame(1) + b"K\x07K\x08\x86."
    assert frame_mismatches(stream) == [[11]]


def test_frame_mismatch_final_frame_past_stream_end_is_at_the_frame():
    # The FRAME at 2 claims 99 bytes; its event precedes the GLOBAL's.
    stream = b"\x80\x04" + _frame(99) + b"cos\nsystem\n."
    result = evaluate(stream)
    assert [(event.kind, event.at_offset) for event in result.events] == [
        ("FrameMismatch", 2),
        ("GlobalResolved", 11),
    ]
    assert frame_mismatches(stream) == [[2]]


def test_frame_mismatch_final_frame_covered_by_zero_padding():
    # Segment "N." ends at 13; zero padding after it widens the stream end.
    body = b"N."
    assert frame_mismatches(b"\x80\x04" + _frame(2 + 4) + body) == [[2]]
    assert frame_mismatches(b"\x80\x04" + _frame(2 + 4) + body + b"\x00" * 4) == [[]]
    assert frame_mismatches(b"\x80\x04" + _frame(2 + 5) + body + b"\x00" * 4) == [[2]]


def test_frame_mismatch_in_segment_zero_of_two():
    second = b"\x80\x04" + _frame(1) + b"K\x07."  # starts at 13, K\x07 at 24
    # A frame that ends exactly at segment 0's STOP is fine ...
    assert frame_mismatches(b"\x80\x04" + _frame(2) + b"N." + second) == [[], [24]]
    # ... one that runs on into segment 1 is flagged at segment 0's FRAME.
    spill = b"\x80\x04" + _frame(2 + len(second)) + b"N." + second
    assert frame_mismatches(spill) == [[2], [24]]


def test_frame_mismatch_in_a_later_segment_with_no_other_event():
    # Segment 1 is a FRAME at 2 that claims [11, 15) and "N.", which ends
    # at 13: the frame runs on into segment 2, a clean "N." that ``walk``
    # does not yield.
    middle = _frame(4) + b"N."
    stream = b"N." + middle + b"N."
    assert frame_mismatches(stream) == [[], [2]]
    assert [(result.segment, result.events) for result in absvm.walk(stream)] == [
        (0, []), (1, [FrameMismatch(2)])
    ]
    # Zero padding that ends the stream exactly at the frame's end covers it ...
    padded = b"N." + middle + b"\x00" * 2
    assert frame_mismatches(padded) == [[], []]
    _, spilled = absvm.walk(padded)
    assert (spilled.segment, spilled.events) == (1, [TrailingData(12, 2)])
    # ... and padding one byte short of it does not.
    short = b"N." + _frame(5) + b"N." + b"\x00" * 2
    assert frame_mismatches(short) == [[], [2]]
    _, spilled = absvm.walk(short)
    assert (spilled.segment, spilled.events) == (1, [FrameMismatch(2), TrailingData(12, 2)])


def test_arg_summary_is_bounded():
    big = "A" * 10_000
    result = evaluate(emit_reduce_payload_pickle(big, 2))
    call = next(event for event in result.events if isinstance(event, CallMade))
    assert len(call.arg_summary) <= absvm.ARG_SUMMARY_CAP + 8


def test_persistent_ids_push_references():
    result = evaluate(b"Pweights.0\nQ.")
    assert result.events == []
    assert result.root == PersistentRef(PersistentRef("weights.0", line=True))


def test_rare_opcodes_evaluate_with_complete_events():
    from conftest import RARE_OPCODE_STREAMS

    for name, stream in RARE_OPCODE_STREAMS:
        assert_events_match_op_counts(stream)


def test_extension_codes_recorded():
    result = evaluate(b"\x80\x02\x82\x07.")
    assert result.events == []
    assert result.root == absvm.ExtensionRef(7)


# -- call roots and evidence, at the call ----------------------------------------


def test_call_root_is_resolved_at_the_call():
    # os.system is memoized in slot 0 and called through BINGET; after the
    # call, slot 0 is PUT again with another global.  A loader called os.system.
    stream = (
        b"\x80\x02cos\nsystem\nq\x000h\x00X\x02\x00\x00\x00id\x85R0"
        b"ccollections\nOrderedDict\nq\x000N."
    )
    result = evaluate(stream)
    call = next(event for event in result.events if isinstance(event, CallMade))
    assert call.root == ("os", "system")
    assert call_roots(result.memo[0]) == ("collections", "OrderedDict")


# PUT rebinds index 0 between the GET of os.system and its call, and between
# the GET of a list and the APPEND into it: the loader calls os.system('ls'),
# and os.system(['payload']).  The scanner's findings on both are tested in
# test_scanner.py.
_REBOUND_CALLEE = b"\x80\x02cos\nsystem\nq\x000h\x00ccollections\nOrderedDict\nq\x000X\x02\x00\x00\x00ls\x85R."
_REBOUND_LIST = b"\x80\x02cos\nsystem\n]q\x000h\x00]q\x000X\x07\x00\x00\x00payloada]q\x000\x85R."


class _Stub:
    """What the recording loader's ``find_class`` returns: a call on it
    records its root and returns another stub of that root."""

    def __init__(self, root: tuple[str, str], calls: list):
        self.root, self.calls = root, calls

    def __call__(self, *args):
        self.calls.append(self.root)
        return _Stub(self.root, self.calls)


class _RecordingUnpickler(pickle._Unpickler):
    """pickle.py's loader, with every global a recording stub: never a real one."""

    def __init__(self, stream: bytes):
        super().__init__(io.BytesIO(stream))
        self.calls: list[tuple[str, str]] = []

    def find_class(self, module, name):
        return _Stub((module, name), self.calls)


_STUB_GLOBALS = [b"os\nsystem\n", b"collections\nOrderedDict\n", b"builtins\nprint\n"]


def _loader_program(steps: list[tuple[str, int]]) -> bytes:
    """A protocol 2 stream of GLOBAL, EMPTY_LIST, BINPUT, BINGET, POP,
    APPEND, TUPLE1 and REDUCE ops that a loader runs to its STOP: a step
    whose operands are not on the stack or in the memo is left out.  The
    stack and memo are modelled by kind: a callable, a list or a tuple."""
    stack: list[str] = []
    memo: dict[int, str] = {}
    out = [b"\x80\x02"]
    for op, n in steps:
        if op == "global":
            out.append(b"c" + _STUB_GLOBALS[n])
            stack.append("callable")
        elif op == "list":
            out.append(b"]")
            stack.append("list")
        elif op == "put" and stack:
            out.append(b"q" + bytes([n]))
            memo[n] = stack[-1]
        elif op == "get" and n in memo:
            out.append(b"h" + bytes([n]))
            stack.append(memo[n])
        elif op == "pop" and stack:
            out.append(b"0")
            stack.pop()
        elif op == "append" and len(stack) >= 2 and stack[-2] == "list":
            out.append(b"a")
            stack.pop()
        elif op == "tuple1" and stack:
            out.append(b"\x85")
            stack[-1] = "tuple"
        elif op == "reduce" and len(stack) >= 2 and stack[-2] == "callable" and stack[-1] != "callable":
            out.append(b"R")
            stack.pop()
            stack[-1] = "callable"
    return b"".join(out) + b"N."


_LOADER_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["global", "list", "put", "get", "pop", "append", "tuple1", "reduce"]),
        st.integers(0, len(_STUB_GLOBALS) - 1),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_LOADER_STEPS.map(_loader_program))
@example(_REBOUND_CALLEE)
@example(_REBOUND_LIST)
def test_call_roots_are_the_calls_the_loader_makes(stream):
    """Each CallMade's root, in order, is the global whose stub pickle.py's
    loader calls, through any GET, PUT and POP in between."""
    loader = _RecordingUnpickler(stream)
    loader.load()
    (result,) = absvm.walk(stream)
    assert [e.root for e in result.events if isinstance(e, CallMade)] == loader.calls


def _s4(size: int) -> bytes:
    return struct.pack("<I", size)


@pytest.mark.parametrize(
    "args, evidence",
    [
        (b"Pabc\n\x85", "(<persistent abc>)"),
        (b"P" + b"y" * 300 + b"\n\x85", "(<persistent " + "y" * 256 + ">)"),
        (b"X\x03\x00\x00\x00key\x85Q\x85", "(<persistent ('key')>)"),
        (b"X" + _s4(300) + b"z" * 300 + b"Q\x85", "(<persistent '" + "z" * 255 + "…>)"),
        # Forty ids, each the one-tuple of the one before it.
        (b"K\x01" + b"\x85Q" * 40 + b"\x85", "(<persistent " + ("(<persistent " * 20)[:256] + "…>)"),
        # An id after the budget is nearly spent: only its head is shown.
        (
            b"(X" + _s4(4070) + b"w" * 4070 + b"X" + _s4(300) + b"v" * 300 + b"QPuvw\nt",
            "('" + "w" * 4070 + "', <persistent '" + "v" * 8 + "…",
        ),
        (b"(]q\x00K\x07aQh\x00t", "(<persistent [7]>, [7])"),
    ],
)
def test_persistent_id_evidence_text(args, evidence):
    """PERSID's id shows as raw text, BINPERSID's as a rendered value, each
    capped at 256 characters inside the call's own budget."""
    result = evaluate(b"\x80\x02cos\nsystem\n" + args + b"R.")
    call = next(event for event in result.events if isinstance(event, CallMade))
    assert call.arg_summary == evidence


@functools.cache
def _scanner_keep_call():
    """The predicate the scanner hands to ``walk``, caught from one scan."""
    from modelsentry import scanner
    from modelsentry.policy import FileContext, default_policy

    caught = []
    real_walk = absvm.walk

    def spy(stream, keep_call=None):
        caught.append(keep_call)
        return real_walk(stream, keep_call)

    with mock.patch.object(absvm, "walk", spy):
        scanner._scan_pickle_bytes(
            b"N.", FileContext("x.pkl"), default_policy(), scanner.FileReport("x.pkl", "pickle_stream")
        )
    (keep_call,) = caught
    return keep_call


def _calls(results) -> list[CallMade]:
    """Every CallMade of a walk, failed segments' recorded ones included."""
    return [event for result in results for event in result.events if isinstance(event, CallMade)]


def assert_kept_calls_keep_their_evidence(stream: bytes) -> list[bool]:
    """Walk ``stream`` with and without the scanner's predicate: the calls
    are the same, and a kept call's evidence is the text ``walk`` renders
    when it keeps every call.  Returns, per call, whether it was kept."""
    keep_call = _scanner_keep_call()
    every = _calls(absvm.walk(stream))
    kept = [keep_call(call.root) for call in every]
    expected = [
        call if keep else CallMade(call.at_offset, call.argc, "", call.root) for call, keep in zip(every, kept)
    ]
    assert _calls(absvm.walk(stream, keep_call=keep_call)) == expected
    return kept


def test_kept_calls_keep_their_evidence_over_the_forge_corpus(corpus_dir, corpus_manifest):
    kept: list[bool] = []
    for stream in _walk_corpus():
        kept += assert_kept_calls_keep_their_evidence(stream)
    for fixture in corpus_manifest:
        if fixture["path"].endswith(".pkl"):
            kept += assert_kept_calls_keep_their_evidence((corpus_dir / fixture["path"]).read_bytes())
    assert True in kept and False in kept


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kept_calls_keep_their_evidence_on_mutated_streams(data):
    # The checkpoint-shaped stream makes allowlisted calls, which are dropped.
    checkpoint = st.just(benign_state_dict_pickle())
    stream = bytearray(data.draw(checkpoint | st.sampled_from(_walk_corpus())))
    del stream[data.draw(st.integers(0, len(stream))):]
    for _ in range(data.draw(st.integers(0, 4)) if stream else 0):
        stream[data.draw(st.integers(0, len(stream) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    assert_kept_calls_keep_their_evidence(bytes(stream))


# -- calls over one container share its render -------------------------------------

# Protocol 4, leaving one unmemoized list X on the stack, which every action
# below keeps there.  Memo: 0 os.system; 1 a list; 2 a dict; 5 a set; 6 a
# text; 8 a list; 3 the tuple (X, m1, (m2, m5, m8)); 4 the tuple (m3, m1).
# With eight entries, MEMOIZE rebinds index 8.
_SHARED_SETUP = (
    b"\x80\x04cos\nsystem\nq\x000]q\x010}q\x020\x8fq\x050\x8c\x03sixq\x060]q\x080"
    b"]2h\x01h\x02h\x05h\x08\x87\x87q\x030h\x03h\x01\x86q\x040"
)
# Entries 3 and 4 hold every container, so any write changes their text.
_SHARED_INDICES = st.sampled_from([1, 2, 3, 3, 3, 4, 4, 4, 5, 6, 8])
_SHARED_LITERALS = st.sampled_from(
    [b"K\x05", b"N", b"\x8c\x01a", b"X" + struct.pack("<I", 1500) + b"z" * 1500]
)


def _get(index: int) -> bytes:
    return b"h" + bytes([index])


_SHARED_VALUES = _SHARED_LITERALS | st.just(b"]") | _SHARED_INDICES.map(_get)
_SHARED_CALLS = st.one_of(
    # the entry at depth 1, at depth 0, after a text that moves the budget,
    # beside another entry, and inside a list
    _SHARED_INDICES.map(lambda i: b"h\x00" + _get(i) + b"\x85R0"),
    st.just(b"h\x00h\x04R0"),
    st.tuples(st.integers(0, 200), _SHARED_INDICES).map(
        lambda p: b"h\x00\x8c" + bytes([p[0]]) + b"p" * p[0] + _get(p[1]) + b"\x86R0"
    ),
    st.tuples(_SHARED_INDICES, _SHARED_INDICES).map(
        lambda p: b"h\x00" + _get(p[0]) + _get(p[1]) + b"\x86R0"
    ),
    _SHARED_INDICES.map(lambda i: b"h\x00]" + _get(i) + b"a\x85R0"),
)
_SHARED_WRITES = st.one_of(
    # into a memo entry's container, through the DUP'd X, and rebinding an
    # index with PUT or MEMOIZE
    st.tuples(st.sampled_from([1, 8]), _SHARED_VALUES).map(lambda p: _get(p[0]) + p[1] + b"a0"),
    st.tuples(st.sampled_from([1, 8]), st.lists(_SHARED_VALUES, max_size=3)).map(
        lambda p: _get(p[0]) + b"(" + b"".join(p[1]) + b"e0"
    ),
    st.tuples(_SHARED_LITERALS, _SHARED_VALUES).map(lambda p: b"h\x02" + p[0] + p[1] + b"s0"),
    st.lists(st.tuples(_SHARED_LITERALS, _SHARED_VALUES), max_size=3).map(
        lambda pairs: b"h\x02(" + b"".join(k + v for k, v in pairs) + b"u0"
    ),
    st.lists(_SHARED_LITERALS, max_size=3).map(lambda items: b"h\x05(" + b"".join(items) + b"\x900"),
    _SHARED_VALUES.map(lambda value: b"2" + value + b"a0"),
    st.tuples(_SHARED_VALUES, _SHARED_INDICES).map(lambda p: p[0] + b"q" + bytes([p[1]]) + b"0"),
    _SHARED_VALUES.map(lambda value: value + b"\x940"),
)
# A call, after a write or not.
_SHARED_ACTIONS = st.tuples(st.just(b"") | _SHARED_WRITES, _SHARED_CALLS).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_SHARED_ACTIONS, min_size=2, max_size=30),
    st.sampled_from([1, 2, absvm.MAX_SHARED_RENDERS]),
)
def test_shared_renders_equal_fresh_renders(actions, bound):
    """Every call's evidence, rendered with the machine's shared container
    renders, equals a render of the same arguments without them, and the
    reference renderer's, whatever the graph writes between the calls and
    however few renders are kept."""
    renders: list[str] = []

    def checked(value, limit=ARG_SUMMARY_CAP, rendered=None):
        text = render_value(value, limit, rendered)
        assert text == render_value(value, limit) == reference_render(value, limit)
        renders.append(text)
        return text

    with (
        mock.patch.object(absvm, "render_value", checked),
        mock.patch.object(absvm, "MAX_SHARED_RENDERS", bound),
    ):
        (result,) = absvm.walk(_SHARED_SETUP + b"".join(actions) + b".")
    assert isinstance(result, absvm.AbstractResult)
    assert [e.arg_summary for e in result.events if isinstance(e, CallMade)] == renders


def test_shared_memo_expansions_are_keyed_by_depth_and_budget():
    """A container that reaches the depth cap renders shorter one level
    deeper, and a smaller budget cuts it sooner: neither reuses the other's
    text."""
    entry = _nested("x", 24)
    rendered: dict = {}
    cases = [
        (Container("tuple", [entry]), ARG_SUMMARY_CAP),
        # "[", "." and "(": the same budget at the entry, one level deeper
        (Container("list", [CallResult(GlobalRef("", ""), (entry,))]), ARG_SUMMARY_CAP + 2),
        (Container("tuple", [entry]), 50),
    ]
    for value, limit in cases:
        assert render_value(value, limit, rendered) == reference_render(value, limit)
    assert len(rendered) == 3


def test_evidence_shows_a_write_between_two_calls():
    head = b"\x80\x02cos\nsystem\nq\x000]q\x01K\x01a0"
    call = b"h\x00h\x01\x85R0"
    cases = [
        (b"h\x01K\x02a0", "([1, 2])"),  # APPEND into the shared list
        (b"\x8c\x03newq\x010", "('new')"),  # PUT rebinds its index
    ]
    for write, second in cases:
        (result,) = absvm.walk(head + call + write + call + b"N.")
        assert [e.arg_summary for e in result.events if isinstance(e, CallMade)] == ["([1])", second]


def test_evidence_of_one_object_under_two_memo_indices():
    """A self-containing list under indices 0 and 1 is one object: reached
    through either index, it renders one text, down to the depth cap."""
    head = b"\x80\x02]q\x00h\x00aq\x010"
    calls = (b"cos\nsystem\nh\x00\x85R0", b"cos\nsystem\nh\x01\x85R0", b"cos\nsystem\nh\x00\x85R.")
    (result,) = absvm.walk(head + b"".join(calls))
    summaries = [e.arg_summary for e in result.events if isinstance(e, CallMade)]
    assert summaries == ["(" + "[" * 24 + "…" + "]" * 24 + ")"] * 3


def _unshared_trees(calls: int, depth: int) -> bytes:
    """Calls on (text, tree): the tree nests one of 200 small memo entries
    in tuples ``depth`` deep, by DUP and TUPLE2, so it reaches the entry
    2**depth times; each call builds a new tree, so no call meets another's
    keys."""
    head = b"\x80\x02cos\nsystem\nq\x00" + b"".join(
        b"K" + bytes([i]) + b"q" + bytes([i]) + b"0" for i in range(1, 201)
    )
    body = b"".join(
        b"h\x00\x8c" + bytes([c % 200]) + b"p" * (c % 200) + _get(1 + c % 200) + b"2\x86" * depth + b"\x86R0"
        for c in range(calls)
    )
    return head + body + b"N."


def test_shared_memo_expansions_hold_no_more_than_the_evidence():
    """A stream of 600 calls that share no render holds less than its
    calls' evidence again at peak: the texts a render keeps are disjoint
    pieces of its own text, and past MAX_SHARED_RENDERS of them the machine
    starts over.  Without that bound it would keep a second copy of all
    the evidence."""

    def peak_and_evidence(bound: int) -> tuple[int, int]:
        with mock.patch.object(absvm, "MAX_SHARED_RENDERS", bound):
            tracemalloc.start()
            try:
                (result,) = absvm.walk(_unshared_trees(600, 8))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak, sum(len(e.arg_summary) for e in result.events if isinstance(e, CallMade))

    peak, evidence = peak_and_evidence(absvm.MAX_SHARED_RENDERS)
    assert evidence > 500_000
    assert peak < 1.6 * evidence
    unbounded, _ = peak_and_evidence(10**9)
    assert unbounded > 2 * evidence


def test_calls_over_one_memo_entry_share_one_render():
    """300 calls over one 10,000-element list make one render's worth of
    element reprs, plus a constant per call."""

    def reprs(calls: int) -> int:
        count = 0

        def counting(value):
            nonlocal count
            count += 1
            return repr(value)

        with mock.patch.object(absvm, "repr", counting, create=True):
            list(absvm.walk(shared_list_calls(10_000, calls)))
        return count

    one = reprs(1)
    assert one > ARG_SUMMARY_CAP // 10  # an element shows as 8 characters
    assert reprs(300) <= one + 2 * 300


def test_calls_through_many_memo_indices_share_one_render():
    """A 10,000-element list under 255 memo indices, reached through a new
    index at each of 300 calls, is one object: the calls make one render's
    worth of element texts."""

    def texts(calls: int) -> int:
        count = 0
        literal_text = absvm._literal_text

        def counting(value, budget):
            nonlocal count
            count += 1
            return literal_text(value, budget)

        with mock.patch.object(absvm, "_literal_text", counting):
            (result,) = absvm.walk(aliased_list_calls(10_000, calls))
        assert len({e.arg_summary for e in result.events if isinstance(e, CallMade)}) == 1
        return count

    one = texts(1)
    assert one > ARG_SUMMARY_CAP // 10  # an element shows as 8 characters
    assert texts(300) <= 2 * one


# -- runs of BINFLOAT ops, decoded in one call -----------------------------------


def _walked(stream: bytes, runs: bool = True) -> list[tuple]:
    """Per segment of ``walk``: its events, fault, memo size and rendered root.
    Events are compared by repr, where a NaN equals itself."""
    with contextlib.nullcontext() if runs else mock.patch.object(absvm, "_BINFLOAT", -1):
        return [
            (
                repr(result.events),
                result.error and _fault(result.error),
                len(result.memo),
                render_value(result.root),
            )
            for result in absvm.walk(stream)
        ]


def assert_float_runs_change_nothing(stream: bytes) -> list[tuple]:
    walked = _walked(stream)
    assert walked == _walked(stream, runs=False)
    return walked


@contextlib.contextmanager
def _bounded(bounds):
    """No patched bounds, ``small_bounds()``, or a drawn instruction limit."""
    if bounds is None:
        yield
    elif bounds == "small":
        with small_bounds():
            yield
    else:
        with mock.patch.object(disasm, "MAX_INSTRUCTIONS", bounds):
            yield


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_float_streams(), _mutants()),
    st.one_of(st.sampled_from([None, "small"]), st.integers(1, 250)),
)
def test_float_runs_walk_like_single_ops(stream, bounds):
    with _bounded(bounds):
        assert_float_runs_change_nothing(stream)


def _floats(count: int) -> bytes:
    return b"".join(b"G" + struct.pack(">d", index / 4) for index in range(count))


# PROTO 4, then a FRAME at 2 covering the MARK at 11 and what follows it;
# the floats start at 12.
def _framed_floats(frame_length: int, count: int) -> bytes:
    return b"\x80\x04" + _frame(frame_length) + b"(" + _floats(count) + b"l."


@pytest.mark.parametrize(
    "stream, patches, fault, events",
    [
        # The frame ends between the 4th and 5th float: nothing to flag.
        (_framed_floats(1 + 9 * 4, 10), {}, None, []),
        # It ends inside the 5th float's argument, which straddles it.
        (_framed_floats(1 + 9 * 4 + 3, 10), {}, None, [FrameMismatch(48)]),
        # The last float has 2 of its 8 bytes.
        (
            b"\x80\x02(" + _floats(10) + b"G\x00\x00",
            {},
            ("TruncatedArgument", 93, 0, "f8 needs 8 bytes"),
            [],
        ),
        (pickle.dumps([0.5] * 64, 2), {}, None, []),
        (pickle.dumps([0.5] * 65, 2), {}, None, []),
        (pickle.dumps([0.5] * 129, 4), {}, None, []),
        # PROTO and MARK are ops 0 and 1: the 11th float is op 12.
        (
            b"\x80\x02(" + _floats(20) + b"l.",
            {(disasm, "MAX_INSTRUCTIONS"): 12},
            ("LimitExceeded", 93, 0, "limit exceeded: max_instructions"),
            [],
        ),
        # Floats after a StackUnderflow are decoded, not evaluated ...
        (b"R" + _floats(20) + b".", {}, ("StackUnderflow", 0, "stack underflow"), []),
        # ... and still count toward the instruction limit.
        (
            b"R" + _floats(20) + b".",
            {(disasm, "MAX_INSTRUCTIONS"): 12},
            ("LimitExceeded", 100, 0, "limit exceeded: max_instructions"),
            [],
        ),
        # A run in the second segment, after a first one with floats.
        (pickle.dumps([1.0] * 3, 2) + pickle.dumps([2.0] * 70, 4), {}, None, []),
    ],
    ids=[
        "frame-ends-between-floats",
        "frame-ends-inside-a-float",
        "truncated-last-float",
        "run-of-64",
        "run-of-65",
        "run-of-129",
        "instruction-limit-mid-run",
        "floats-after-stack-underflow",
        "instruction-limit-after-stack-underflow",
        "run-in-second-segment",
    ],
)
def test_float_runs_fault_and_flag_at_the_same_op(stream, patches, fault, events):
    with contextlib.ExitStack() as stack:
        for (module, name), value in patches.items():
            stack.enter_context(mock.patch.object(module, name, value))
        walked = assert_float_runs_change_nothing(stream)
    events_text, last_fault, _, _ = walked[-1]
    assert (last_fault, events_text) == (fault, repr(events))


def test_a_float_run_is_decoded_in_passes_of_at_most_64():
    """The run path is taken: a run of n floats is read in passes of 64,
    and a last op left alone takes the per-op path."""
    passes: list[int] = []

    def recording(n: int):
        unpack = absvm._FLOAT_RUNS[n]

        def read(stream, pos):
            passes.append(n)
            return unpack(stream, pos)

        return read

    table = (None, None) + tuple(recording(n) for n in range(2, 65))
    seen = {}
    with mock.patch.object(absvm, "_FLOAT_RUNS", table):
        for count in (1, 2, 64, 65, 130):
            passes.clear()
            (result,) = absvm.walk(pickle.dumps([0.25] * count, 2))
            assert render_value(result.root) == repr([0.25] * count)
            seen[count] = list(passes)
    assert seen == {1: [], 2: [2], 64: [64], 65: [64], 130: [64, 64, 2]}


# -- the instruction limit is the machine's one bound --------------------------------


@settings(max_examples=300, deadline=None)
@given(st.one_of(_float_streams(), _mutants()), st.booleans())
def test_stack_and_memo_never_outgrow_the_ops_of_a_segment(stream, small):
    """An op adds at most one value to the stack and one memo entry, and a
    segment starts from an empty machine: for each segment ``evaluate``
    completes, the memo and the stack at STOP (the root and the residual
    values) hold at most as many entries as the segment has ops."""
    with small_bounds() if small else contextlib.nullcontext():
        try:
            for ops, _trailing in iter_programs(stream):  # decode_ops' tuples
                try:
                    result = evaluate(stream, ops[0][1])
                except absvm.VmError:
                    continue
                assert len(result.memo) <= len(ops)
                for event in result.events:
                    if isinstance(event, ResidualStack):
                        assert 1 + event.depth <= len(ops)
        except ParseError:
            pass


# Runs of ops that each push onto the stack or metastack, or add a memo
# entry: each run stops at op 10 (PROTO is op 0), before it is dispatched.
@pytest.mark.parametrize(
    "stream, offset",
    [
        (b"\x80\x02" + b"N" * 20 + b".", 11),
        (b"\x80\x02" + b"\x88" * 20 + b".", 11),
        (b"\x80\x02" + b"}" * 20 + b".", 11),
        (b"\x80\x02Nq\x00" + b"h\x00" * 20 + b".", 19),
        (b"\x80\x02" + b"(" * 20 + b".", 11),
        (b"\x80\x04N" + b"\x94" * 20 + b".", 11),
        (b"\x80\x02" + _floats(20) + b".", 83),
    ],
    ids=["none", "newtrue", "empty-dict", "binget", "mark", "memoize", "binfloat"],
)
def test_runs_that_grow_the_machine_stop_at_the_instruction_limit(stream, offset):
    with mock.patch.object(disasm, "MAX_INSTRUCTIONS", 10):
        (result,) = absvm.walk(stream)
        assert_walk_decodes_like_iter_programs(stream)
    assert _fault(result.error) == ("LimitExceeded", offset, 0, "limit exceeded: max_instructions")
    assert result.events == []


# -- the loader-differential oracle: what a loader runs, walk reports ------------


class _LoaderGaveUp(Exception):
    """A loader stopped by the oracle's alarm: the example is not counted."""


def _gave_up(_signum, _frame):
    raise _LoaderGaveUp()


# A loader gets this long, and this much more address space than the
# process maps when it starts: the C loader allocates a memo table of twice
# the largest LONG_BINPUT index it meets, and pickle.py's a BYTEARRAY8 of
# the declared size, before either finds the stream too short.  A loader
# that runs out of either skips the example.
_LOADER_SECONDS = 1.0
_LOADER_ADDRESS_SPACE = 256 << 20


@contextlib.contextmanager
def _bounded_loader():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    cap = mapped + _LOADER_ADDRESS_SPACE
    for limit in (soft, hard):
        if limit != resource.RLIM_INFINITY:
            cap = min(cap, limit)
    previous = signal.signal(signal.SIGALRM, _gave_up)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.setitimer(signal.ITIMER_REAL, _LOADER_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        signal.signal(signal.SIGALRM, previous)


def _dotted(text: str) -> bool:
    return all(part.isidentifier() for part in text.split("."))


def _recording(base: type) -> type:
    """``base`` with a ``find_class`` that records each pair and returns a
    fresh stub class, and a ``persistent_load`` that returns a stub.  Stubs
    count their instantiation, and calls of their instances: every way a
    loader can call what it imported."""

    class Recording(base):
        def __init__(self, stream: bytes):
            super().__init__(io.BytesIO(stream))
            self.imports: list[tuple[str, str]] = []
            self.calls = 0

        def stub(self) -> type:
            loader = self

            class Stub:
                def __new__(cls, *args, **kwargs):
                    loader.calls += 1
                    return object.__new__(cls)

                def __init__(self, *args, **kwargs):
                    pass

                def __call__(self, *args, **kwargs):
                    loader.calls += 1
                    return object.__new__(type(self))

            return Stub

        def find_class(self, module, name):
            self.imports.append((module, name))
            if not (_dotted(module) and _dotted(name)):
                raise ImportError(f"no module or attribute {module}.{name}")
            return self.stub()

        def persistent_load(self, pid):
            return object.__new__(self.stub())

    return Recording


_LOADERS = (_recording(pickle.Unpickler), _recording(pickle._Unpickler))


def assert_loaders_run_nothing_walk_hides(stream: bytes) -> int:
    """Every import either loader makes is a GlobalResolved of the first
    ``walk`` result, and it calls what it imported no more often than that
    result has CallMade events.  Returns how many loaders were counted."""
    first = next(absvm.walk(stream))
    reported = {(event.module, event.name) for event in first.events if isinstance(event, GlobalResolved)}
    calls = sum(isinstance(event, CallMade) for event in first.events)
    counted = 0
    for loader_class in _LOADERS:
        loader = loader_class(stream)
        try:
            with _bounded_loader(), stdlib_escape_warnings_ignored():
                loader.load()
        except (_LoaderGaveUp, MemoryError):
            continue
        except Exception:
            pass  # a failing load runs what it reached first
        assert set(loader.imports) <= reported, loader_class.__bases__[0]
        assert loader.calls <= calls, loader_class.__bases__[0]
        counted += 1
    return counted


@settings(max_examples=300, deadline=None)
@given(st.one_of(_mutants(), _float_streams()))
# A FRAME cut short by the end of the stream, whose last byte is INST:
# pickle.py reads INST's lines past the short frame, from the file, and
# imports ('', '').
@example(
    b"\x80\x04\x95\xc6\x00\x00\x00\x00\x00\x00\x00}(\x8c\x06weight"
    b"\x8c\x16numpy._core.multiarray\x8c\x0c_reconstructi"
)
# A STRING with an unknown escape, which both stdlib loaders warn about.
@example(b"S'\\l'\n.")
def test_loaders_run_nothing_walk_hides_on_mutants(stream):
    assert_loaders_run_nothing_walk_hides(stream)


@pytest.mark.parametrize(
    "stream",
    [
        memo_sharing(22),
        deep_nesting(1_000),
        shared_list_calls(10_000, 100),
        shared_long_bytes_calls(504, 8, 100),
        shared_dict_calls(1_000, 100),
    ],
    ids=["memo_sharing", "deep_nesting", "shared_list", "shared_long_bytes", "shared_dict"],
)
def test_loaders_run_nothing_walk_hides_on_hostile_recipes(stream):
    assert assert_loaders_run_nothing_walk_hides(stream) == 2


# -- Records --------------------------------------------------------------------


def _record_types() -> list[type]:
    """Every record type of the package's scan path; ``AbstractValue`` is
    only their base."""
    from modelsentry import containers, kerascfg, policy, scanner  # noqa: F401  (they define records)

    found: list[type] = []
    pending = [absvm.Record]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith("modelsentry.") and sub not in found:
                found.append(sub)
                pending.append(sub)
    return [cls for cls in found if cls is not absvm.AbstractValue]


_RECORD_TYPES = _record_types()
_MUTABLE_RECORDS = {"CallResult", "Container", "AbstractResult", "FileReport", "ScanReport"}


def _fields_of(cls: type) -> dict:
    """Each field of ``cls``, with a value of its own."""
    return {name: index for index, name in enumerate(cls._fields, 1)}


@pytest.mark.parametrize("cls", _RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_a_record_is_its_fields_in_order(cls):
    """``__init__`` takes the fields in slot order, positionally or by
    keyword; equality is the same type with equal fields; copies and
    pickles are equal; the repr names each field; a formerly frozen type
    hashes and refuses assignment, a mutable one does not hash."""
    fields = _fields_of(cls)
    assert list(inspect.signature(cls).parameters) == list(fields)
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    for name in fields:
        assert record != cls(**{**fields, name: -1})
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    if cls.__name__ != "Policy":  # its __dict__ holds the cached index
        assert not hasattr(record, "__dict__")
    if cls.__name__ in _MUTABLE_RECORDS:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**fields))
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_records_of_two_types_with_equal_fields_differ():
    assert TrailingData(3, 4) != ResidualStack(3, 4)
    assert DynamicGlobal(3) != FrameMismatch(3)
    assert Opaque() == Opaque() and Opaque() != DynamicGlobalRef()
    shown = "[GlobalResolved(at_offset=3, module='os', name='system')]"
    assert repr([GlobalResolved(3, "os", "system")]) == shown
    assert repr(Opaque()) == "Opaque()"
