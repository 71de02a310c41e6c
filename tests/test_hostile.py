"""Adversarial input structure: scans must stay fast and keep their findings.

Each recipe hides an ``os.system`` call behind a value graph that is cheap to
write but expensive to walk naively: memo sharing (a DAG with 2**depth tree
leaves), deep list nesting, and many calls over one large shared list or
dict.  One more packs an HDF5 file with config candidates that each fail.
Every scan runs under a wall-clock alarm, so a stall fails the test instead of
hanging the suite.

Other recipes try to hide a payload or to cost memory: an argument too big
to render whole, a ``config.json`` nested deeper than the JSON decoder
recurses, tensor storage whose bytes look like a pickle, a payload
followed by bytes that are no opcode, a GLOBAL whose last line has no
newline, an INST whose names are not ASCII, and a STRING of escapes the
decoder would warn of.  Last, each scan bound is made small and driven
through the scanner, and the instruction limit is also driven at its
shipped value.
"""

from __future__ import annotations

import io
import json
import pickle
import struct
import sys
import tracemalloc
import warnings
import zipfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    alarm,
    deep_nesting,
    memo_sharing,
    reference_render,
    shared_dict_calls,
    shared_list_calls,
    shared_long_bytes_calls,
)
from modelsentry import absvm, containers, disasm
from modelsentry.absvm import (
    ARG_SUMMARY_CAP,
    CallResult,
    Container,
    GlobalRef,
    render_value,
)
from modelsentry.cli import main as cli_main
from modelsentry.containers import HDF5_SIGNATURE
from modelsentry.forge import (
    benign_state_dict_pickle,
    emit_keras_lambda_config,
    emit_keras_zip,
    emit_reduce_payload_pickle,
    emit_torch_like_zip,
)
from modelsentry.policy import Severity
from modelsentry.report import exit_code
from modelsentry.scanner import scan_file, scan_paths

ALARM_SECONDS = 2.0
GLOBAL = b"cos\nsystem\n"


def _assert_reports_call(path, data: bytes, policy) -> None:
    path.write_bytes(data)
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.errors == []
    rules = {finding.rule_id for finding in report.findings}
    assert {"PICKLE_DANGEROUS_GLOBAL", "PICKLE_CALL"} <= rules


def test_memo_sharing_depth_22(tmp_path, policy):
    _assert_reports_call(tmp_path / "memo.pkl", memo_sharing(22), policy)


def test_deep_nesting_1000(tmp_path, policy):
    _assert_reports_call(tmp_path / "nesting.pkl", deep_nesting(1000), policy)


def test_shared_list_calls_10000_by_1000(tmp_path, policy):
    _assert_reports_call(tmp_path / "shared.pkl", shared_list_calls(10_000, 1000), policy)


def test_shared_dict_calls_10000_by_1000(tmp_path, policy):
    path = tmp_path / "shared_dict.pkl"
    path.write_bytes(shared_dict_calls(10_000, 1000))
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.errors == []
    assert max(f.severity for f in report.findings) is Severity.CRITICAL
    pairs = Container("dict", [("k%05d" % index, index) for index in range(10_000)])
    expected = reference_render(Container("tuple", [pairs]))
    calls = [f for f in report.findings if f.rule_id == "PICKLE_CALL"]
    assert calls and {f.evidence for f in calls} == {expected}


def test_shared_long_bytes_calls_504_and_512_by_1000(tmp_path, policy):
    """Short ints fill the first chunks of the list; the next chunk holds
    512 copies of bytes whose repr alone overruns the budget."""
    path = tmp_path / "long_bytes.pkl"
    path.write_bytes(shared_long_bytes_calls(504, 512, 1000))
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.errors == []
    assert max(f.severity for f in report.findings) is Severity.CRITICAL
    elements = Container("list", [0] * 504 + [bytes(4096)] * 512)
    expected = reference_render(Container("tuple", [elements]))
    calls = [f for f in report.findings if f.rule_id == "PICKLE_CALL"]
    assert calls and {f.evidence for f in calls} == {expected}


def test_clean_stop_segments_yield_nothing(tmp_path, policy):
    """10,000 clean segments around one ``os.system`` call: ``walk`` yields
    the first segment and the eventful one, and nothing for the rest."""
    clean = b"\x80\x02K\x07."
    evil = b"\x80\x02" + GLOBAL + b"X\x02\x00\x00\x00id\x85R."
    shift = 5_000 * len(clean)
    stream = clean * 5_000 + evil + clean * 5_000
    results = list(absvm.walk(stream))
    assert [(result.segment, result.error) for result in results] == [(0, None), (5_000, None)]
    (alone,) = absvm.walk(evil)
    assert [event.at_offset for event in results[1].events] == [
        event.at_offset + shift for event in alone.events
    ] != []

    def findings(data: bytes, offset: int) -> list[tuple]:
        path = tmp_path / "stream.pkl"
        path.write_bytes(data)
        report = scan_file(str(path), policy)
        assert report.errors == []
        return [(f.rule_id, f.severity, f.message, f.evidence, f.offset - offset) for f in report.findings]

    assert findings(stream, shift) == findings(evil, 0) != []


def test_many_hdf5_config_candidates(tmp_path, policy):
    """Every ``model_config`` candidate is tried, each from where the last
    one's parse stopped, so 20,000 failing candidates cost linear time; the
    report holds one error for all of them, not one per candidate."""
    path = tmp_path / "candidates.h5"
    path.write_bytes(HDF5_SIGNATURE + b'model_config{"a":' * 20_000)
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert [error.kind for error in report.errors] == ["UnbalancedJson"]
    assert report.errors[0].message.endswith("(19999 more candidate(s) failed)")
    assert [f.rule_id for f in report.findings] == ["FORMAT_PARSE_ERROR"]


def test_many_hdf5_configs_keep_the_report_small(tmp_path, policy):
    path = tmp_path / "configs.h5"
    path.write_bytes(HDF5_SIGNATURE + b"model_config{}" * 20_000)
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.errors == []
    assert [f.rule_id for f in report.findings] == ["H5_HEURISTIC_USED"]
    assert report.findings[0].message.endswith("; 19999 more after it)")


def test_many_hdf5_configs_before_one_nul(tmp_path, policy):
    path = tmp_path / "configs_nul.h5"
    path.write_bytes(HDF5_SIGNATURE + b"model_config{}" * 20_000 + b"\x00")
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.errors == []
    assert report.findings[0].message.endswith("; 19999 more after it)")


def test_hdf5_config_before_a_long_tail_without_nul(tmp_path, policy):
    """The search for the NUL that ends a config looks a fixed multiple of
    the window ahead, not to the end of the file."""
    config = json.dumps({"class_name": "Sequential", "pad": "x" * 1_000_000}).encode()
    path = tmp_path / "tail.h5"
    path.write_bytes(HDF5_SIGNATURE + b"model_config" + config + b"\xff" * (20 << 20))
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.errors == []
    assert [f.rule_id for f in report.findings] == ["H5_HEURISTIC_USED"]


def test_hdf5_candidates_cut_short_at_the_first_window(tmp_path, policy):
    """Each candidate's decode fails within the truncation tail of the first
    window, so each one searches ahead for a NUL that is not there: the
    search is bounded by the window, and the total stays linear."""
    head = b'{"a":' + b" " * (containers._FIRST_WINDOW - 8)
    candidate = b"model_config" + head + b"tru" + b" " * 100
    path = tmp_path / "cut_short.h5"
    path.write_bytes(HDF5_SIGNATURE + candidate * 5_000)
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert [error.kind for error in report.errors] == ["UnbalancedJson"]
    assert report.errors[0].message.endswith("(4999 more candidate(s) failed)")


class _CountingTuple(tuple):
    """A tuple that counts the items taken from it, by iteration or by index."""

    visited = 0

    def __iter__(self):
        for item in super().__iter__():
            self.visited += 1
            yield item

    def __getitem__(self, index):
        items = super().__getitem__(index)
        self.visited += len(items) if isinstance(index, slice) else 1
        return items


def test_render_value_stops_at_its_budget():
    """Elements are taken one at a time until the budget runs out, so the
    elements visited are at most those shown plus two: in a list, in a
    dict and in a call's arguments."""
    cases = [("list", "x", "'x'"), ("dict", ("k", "v"), "'k': 'v'"), ("args", "x", "'x'")]
    for kind, item, item_text in cases:
        elements = _CountingTuple([item] * 1_000_000)
        if kind == "args":
            text = render_value(CallResult(GlobalRef("os", "system"), elements))
        else:
            text = render_value(Container(kind, elements))
        assert ARG_SUMMARY_CAP <= len(text) <= ARG_SUMMARY_CAP + 1
        assert elements.visited <= text.count(item_text) + 2, kind


class _CountingBytes(bytes):
    """Bytes that count how often their repr is made."""

    reprs = 0

    def __repr__(self):
        self.reprs += 1
        return super().__repr__()


def test_render_value_makes_no_repr_past_the_one_that_overruns():
    """The reprs of a run of plain literals are made and measured one at a
    time, so the long elements after the one that overruns the budget cost
    nothing: the one is measured, then cut."""
    long = _CountingBytes(bytes(4096))
    value = Container("list", [0] * 504 + [long] * 512)
    expected = reference_render(value)
    long.reprs = 0
    assert render_value(value) == expected
    assert long.reprs <= 2


_RECIPES = st.one_of(
    st.integers(1, 40).map(memo_sharing),
    st.integers(1, 3_000).map(deep_nesting),
    st.tuples(st.integers(1, 20_000), st.integers(1, 500)).map(
        lambda shape: shared_list_calls(*shape)
    ),
)


@settings(max_examples=50, deadline=None)
@given(_RECIPES)
def test_generated_structure_keeps_findings_within_bound(tmp_path_factory, policy, data):
    _assert_reports_call(tmp_path_factory.getbasetemp() / "structure.pkl", data, policy)


# -- arguments too big to render whole ------------------------------------------


def test_big_int_argument_does_not_hide_an_earlier_call(tmp_path, policy):
    """A 1,800-byte LONG4 has more digits than the interpreter converts to
    text by default.  It renders as a placeholder, so its segment keeps the
    ``os.system`` call made before it."""
    path = tmp_path / "hide.pkl"
    path.write_bytes(
        b"\x80\x02cos\nsystem\nX\x02\x00\x00\x00id\x85R0cevil\nsink\n\x8b"
        + struct.pack("<i", 1800)
        + b"\x07" * 1800
        + b"\x85R."
    )
    report = scan_paths([str(path)], policy)
    assert exit_code(report) == 3
    (scanned,) = report.files
    assert scanned.errors == []
    calls = [(f.severity, f.message, f.evidence) for f in scanned.findings if f.rule_id == "PICKLE_CALL"]
    assert calls == [
        (Severity.CRITICAL, "load-time call to os.system with 1 argument(s)", "('id')"),
        (Severity.MEDIUM, "load-time call to evil.sink with 1 argument(s)", "(<int of 14395 bits>)"),
    ]


def test_big_bytes_argument_is_rendered_from_its_head(tmp_path, policy):
    size = 16 << 20
    path = tmp_path / "big.pkl"
    path.write_bytes(
        b"\x80\x04\x8c\x02os\x8c\x06system\x93\x8e"
        + struct.pack("<Q", size)
        + b"\x00" * size
        + b"\x85R."
    )
    tracemalloc.start()
    try:
        report = scan_file(str(path), policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The bytes read and the decoded argument, but no repr of the argument.
    assert peak < 2 * path.stat().st_size + (1 << 20)
    call = next(f for f in report.findings if f.rule_id == "PICKLE_CALL")
    assert call.evidence == ("(" + repr(b"\x00" * ARG_SUMMARY_CAP))[:ARG_SUMMARY_CAP] + "…"


_QUOTED_TEXT = st.text(st.sampled_from("ab'\"\\\n\x00\x7f\xe9\u2028\U0001f600"), max_size=60)
# Text longer than ARG_SUMMARY_CAP: a short text repeated past it.
_LONG_TEXT = st.tuples(_QUOTED_TEXT.filter(bool), st.integers(1, 3)).map(
    lambda pair: pair[0] * (ARG_SUMMARY_CAP // len(pair[0]) + pair[1])
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.one_of(_QUOTED_TEXT, _LONG_TEXT).flatmap(
            lambda text: st.sampled_from(
                [text, text.encode("utf-8"), bytearray(text.encode("utf-8"))]
            )
        ),
        # Past 10**4300 an int has no decimal repr: a placeholder stands for it.
        st.integers(14_285, 20_000).map(lambda bits: 1 << bits),
        st.sampled_from([(1, -1), (1, 0), (-1, 0)]).map(lambda pair: pair[0] * (10**4300 + pair[1])),
    ),
    st.one_of(st.integers(1, 80), st.integers(ARG_SUMMARY_CAP - 8, ARG_SUMMARY_CAP + 8)),
)
def test_render_of_text_is_the_head_of_its_repr(value, limit):
    if isinstance(value, int) and abs(value) >= 10**4300:
        text = f"<int of {value.bit_length()} bits>"
    else:
        text = repr(value)
    expected = text if len(text) <= limit else text[:limit] + "…"
    assert render_value(value, limit=limit) == expected


def test_string_of_unknown_escapes_is_decoded_in_c():
    """``S'\\g\\g…'``: ``codecs.escape_decode`` would warn of each ``\\g``,
    so ``disasm._unescape`` rewrites them first.  That makes a bounded
    number of Python calls, not one per escape, and holds a few times the
    argument's size, not tens of bytes per byte."""
    escapes = 500_000
    stream = b"S'" + b"\\g" * escapes + b"'\n."
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    tracemalloc.start()
    sys.setprofile(count_calls)
    try:
        with alarm(10.0), warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = absvm.walk(stream)
    finally:
        sys.setprofile(None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert result.error is None and result.root == "\\g" * escapes
    assert calls < escapes // 100
    assert peak < 6 * len(stream)


# -- names a finding copies from the input ---------------------------------------


def _json_report(path, capsys, status: int) -> tuple[bytes, dict]:
    assert cli_main(["scan", "--format", "json", str(path)]) == status
    out = capsys.readouterr().out.encode()
    (scanned,) = json.loads(out)["files"]
    return out, scanned


def test_a_long_global_name_is_cut_in_its_findings(tmp_path, capsys):
    """A 5,000,000-character module name: the policy matches the whole
    name, and the findings show its head."""
    module = "m" * 5_000_000
    path = tmp_path / "long_module.pkl"
    path.write_bytes(
        b"\x80\x04X" + struct.pack("<I", len(module)) + module.encode()
        + b"\x8c\x06system\x93)R."
    )
    out, scanned = _json_report(path, capsys, 0)
    assert len(out) < 64 * 1024
    assert [(f["rule_id"], f["severity"]) for f in scanned["findings"]] == [
        ("PICKLE_DANGEROUS_GLOBAL", "MEDIUM"),  # unknown to the policy
        ("PICKLE_CALL", "MEDIUM"),
    ]
    shown = "m" * ARG_SUMMARY_CAP + "….system"
    assert [f["evidence"] for f in scanned["findings"]] == [shown, "()"]
    assert all(shown in f["message"] for f in scanned["findings"])


def test_a_long_keras_layer_name_and_key_are_cut_in_their_findings(tmp_path, capsys):
    """A 3,000,000-character Lambda layer name, under a key as long."""
    config = json.loads(emit_keras_lambda_config(True))
    config["config"]["layers"][1]["config"]["name"] = "n" * 3_000_000
    config["config"] = {"k" * 3_000_000: config["config"]}
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("config.json", json.dumps(config))
    path = tmp_path / "long_name.keras"
    path.write_bytes(buffer.getvalue())
    out, scanned = _json_report(path, capsys, 3)
    assert len(out) < 64 * 1024
    (finding,) = scanned["findings"]
    assert (finding["rule_id"], finding["severity"]) == ("KERAS_LAMBDA_CODE", "HIGH")
    assert f"Lambda layer {'n' * ARG_SUMMARY_CAP}… embeds" in finding["message"]
    assert finding["locus"] == f"config.json:config.{'k' * ARG_SUMMARY_CAP}….layers[1]"


# -- a config.json deeper than the JSON decoder recurses ------------------------


def test_deep_keras_config_member_does_not_hide_the_next_one(tmp_path, policy):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("a/config.json", '{"a":' + "[" * 100_000 + "]" * 100_000 + "}")
        archive.writestr("b/config.json", emit_keras_lambda_config(True))
    path = tmp_path / "deep.keras"
    path.write_bytes(buffer.getvalue())
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert [(e.kind, e.locus) for e in report.errors] == [("UnbalancedJson", "a/config.json")]
    assert [(f.rule_id, f.entry) for f in report.findings] == [
        ("FORMAT_PARSE_ERROR", "a/config.json"),
        ("KERAS_LAMBDA_CODE", "b/config.json"),
    ]


def test_a_config_of_two_million_values_is_walked_whole_in_time(tmp_path, policy):
    """A legitimate config can hold millions of values, such as the explicit
    mean and variance of a wide Normalization layer.  The walk has no node
    budget that would cut it short with a finding."""
    norm = {
        "class_name": "Normalization",
        "config": {"name": "norm", "mean": [0.5] * 1_000_000, "variance": [1.0] * 1_000_000},
    }
    config = {"class_name": "Sequential", "config": {"name": "wide", "layers": [norm]}}
    path = tmp_path / "wide.keras"
    path.write_bytes(emit_keras_zip(json.dumps(config)))
    with alarm(ALARM_SECONDS):
        report = scan_file(str(path), policy)
    assert report.findings == []
    assert report.errors == []


# -- tensor storage that sniffs as a pickle -------------------------------------

# Raw float32 storage can start with a PROTO byte; the loader never unpickles it.
_STORAGE_LIKE_PICKLE = b"\x80\x02\xff\xff" + b"\x00" * 60


def test_storage_member_is_not_sniffed(tmp_path, policy):
    path = tmp_path / "clean.pt"
    path.write_bytes(emit_torch_like_zip(benign_state_dict_pickle(), _STORAGE_LIKE_PICKLE))
    report = scan_paths([str(path)], policy)
    assert exit_code(report) == 0
    assert report.files[0].findings == [] and report.files[0].errors == []


def test_checkpoint_with_payload_next_to_storage_is_still_critical(tmp_path, policy):
    path = tmp_path / "evil.pt"
    payload = emit_reduce_payload_pickle("true # FIXTURE-MARKER", 2)
    path.write_bytes(emit_torch_like_zip(payload, _STORAGE_LIKE_PICKLE))
    report = scan_paths([str(path)], policy)
    assert exit_code(report) == 3
    assert {(f.rule_id, f.entry) for f in report.files[0].findings if f.severity is Severity.CRITICAL} == {
        ("PICKLE_DANGEROUS_GLOBAL", "model/data.pkl"),
        ("PICKLE_CALL", "model/data.pkl"),
    }


def test_pkl_member_under_storage_is_still_scanned(tmp_path, policy):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("model/data.pkl", benign_state_dict_pickle())
        archive.writestr("model/data/extra.pkl", emit_reduce_payload_pickle("true", 2))
    path = tmp_path / "extra.pt"
    path.write_bytes(buffer.getvalue())
    report = scan_file(str(path), policy)
    assert {f.entry for f in report.findings if f.rule_id == "PICKLE_CALL"} == {"model/data/extra.pkl"}


# -- a payload followed by junk ---------------------------------------------------

# ``pickle.loads`` runs os.system('ls') at REDUCE, before it reaches the junk.
_JUNK_TAILED = GLOBAL + b"(Vls\ntR"


@pytest.mark.parametrize("tail", [b"\xff" * 600, b"\xff" * 10], ids=["long-tail", "short-tail"])
def test_payload_before_junk_is_a_pickle(tmp_path, policy, tail):
    path = tmp_path / "junk.bin"
    path.write_bytes(_JUNK_TAILED + tail)
    report = scan_paths([str(path)], policy)
    assert report.files[0].kind == "pickle_stream"
    assert exit_code(report) == 3
    assert max(f.severity for f in report.files[0].findings) is Severity.CRITICAL


def test_payload_before_junk_in_an_archive_member_is_a_pickle(tmp_path, policy):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("weights.bin", _JUNK_TAILED + b"\xff" * 600)
    path = tmp_path / "junk.zip"
    path.write_bytes(buffer.getvalue())
    report = scan_paths([str(path)], policy)
    assert exit_code(report) == 3
    assert {f.entry for f in report.files[0].findings if f.severity is Severity.CRITICAL} == {
        "weights.bin"
    }


# pickle.py's loader reads the last line as "system" (``readline()[:-1]``) and
# imports os.system before it fails; the C loader stops at the truncation.
_UNTERMINATED = b"cos\nsystemX"
# With the module line last, or the name line past the end, it calls
# ``find_class("os", "")``, which imports os before the empty name fails.
_MODULE_LINE_LAST = b"cosX"
_NAME_LINE_PAST_END = b"cos\n"


def _torch_layout(pickle_bytes: bytes) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("archive/data.pkl", pickle_bytes)
        archive.writestr("archive/version", "3\n")
    return buffer.getvalue()


@pytest.mark.parametrize(
    "name, data, entry",
    [
        ("unterminated.pkl", _UNTERMINATED, None),
        ("unterminated.pt", _torch_layout(_UNTERMINATED), "archive/data.pkl"),
        ("module.pkl", _MODULE_LINE_LAST, None),
        ("module.pt", _torch_layout(_MODULE_LINE_LAST), "archive/data.pkl"),
        ("no_name.pkl", _NAME_LINE_PAST_END, None),
        ("no_name.pt", _torch_layout(_NAME_LINE_PAST_END), "archive/data.pkl"),
    ],
    ids=[
        "file", "archive-member",
        "module-line-last-file", "module-line-last-archive-member",
        "name-line-past-end-file", "name-line-past-end-archive-member",
    ],
)
def test_global_whose_last_line_is_unterminated_is_critical(tmp_path, policy, name, data, entry):
    path = tmp_path / name
    path.write_bytes(data)
    report = scan_paths([str(path)], policy)
    assert exit_code(report) == 3
    (scanned,) = report.files
    assert [(e.kind, e.locus) for e in scanned.errors] == [
        ("TruncatedArgument", ":".join(filter(None, [entry, "offset 0"])))
    ]
    assert {(f.rule_id, f.severity, f.entry) for f in scanned.findings} == {
        ("FORMAT_PARSE_ERROR", Severity.LOW, entry),
        ("PICKLE_DANGEROUS_GLOBAL", Severity.CRITICAL, entry),
    }


def test_inst_whose_names_are_not_ascii_imports_nothing(tmp_path, policy):
    """Both loaders decode INST's lines as ASCII and fail before
    ``find_class``; GLOBAL's are UTF-8, so the same bytes there import."""
    inst = b"(Vls\nios\nsyst\xc3\xa9m\n."
    glob = inst.replace(b"ios", b"cos")
    imported = []

    class Recording(pickle._Unpickler):
        def find_class(self, module, name):
            imported.append((module, name))
            return print

    for loader in (Recording, pickle.Unpickler):
        with pytest.raises(UnicodeDecodeError):
            loader(io.BytesIO(inst)).load()
    assert imported == []
    Recording(io.BytesIO(glob)).load()
    assert imported == [("os", "systém")]

    inst_path, glob_path = tmp_path / "inst.pkl", tmp_path / "glob.pkl"
    inst_path.write_bytes(inst)
    glob_path.write_bytes(glob)
    report = scan_paths([str(inst_path)], policy)
    assert exit_code(report) == 2
    (scanned,) = report.files
    assert [f.rule_id for f in scanned.findings] == ["FORMAT_PARSE_ERROR"]
    assert [(e.kind, e.locus) for e in scanned.errors] == [("TruncatedArgument", "offset 5")]
    report = scan_paths([str(glob_path)], policy)
    assert exit_code(report) == 3
    dangerous = [f for f in report.files[0].findings if f.rule_id == "PICKLE_DANGEROUS_GLOBAL"]
    assert [(f.severity, f.message) for f in dangerous] == [
        (Severity.CRITICAL, "resolves denied global os.systém (policy entry os.*)")
    ]


def test_text_a_loader_fails_on_at_once_is_never_read_whole(tmp_path, policy):
    """Each line reads as LIST, on which a loader fails with no MARK: the
    file's first bytes rule it out, so its size costs nothing."""
    path = tmp_path / "notes.txt"
    path.write_bytes(b"little endian\n" * 5_000_000)
    tracemalloc.start()
    try:
        report = scan_paths([str(path)], policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    (scanned,) = report.files
    assert (scanned.kind, [f.rule_id for f in scanned.findings]) == ("unknown", ["UNRECOGNIZED_FORMAT"])
    assert exit_code(report) == 0


def test_csv_that_opens_with_a_global_opcode_is_not_a_pickle(tmp_path, policy):
    path = tmp_path / "scores.csv"
    path.write_bytes(b"class,score\ncat,0.91\ndog,0.09\nbird,0.5\n")
    report = scan_paths([str(path)], policy)
    assert [f.rule_id for f in report.files[0].findings] == ["UNRECOGNIZED_FORMAT"]
    assert exit_code(report) == 0


# -- every scan bound, driven through the scanner ---------------------------------

_ARCHIVE = emit_torch_like_zip(benign_state_dict_pickle())  # four members
_ARCHIVE_DIRECTORY = _ARCHIVE.index(b"PK\x01\x02")


@pytest.mark.parametrize(
    "module, bound, value, data, error, rules",
    [
        pytest.param(
            disasm, "MAX_STREAM_BYTES", 8, b"\x80\x02" + b"N0" * 8 + b"N.",
            ("LimitExceeded", "offset 0", "limit exceeded: max_stream_bytes"),
            [],  # checked before the file is read, so no part of it was parsed
            id="stream-bytes",
        ),
        pytest.param(
            disasm, "MAX_INSTRUCTIONS", 4, b"\x80\x02NNNNN.",
            ("LimitExceeded", "offset 5", "limit exceeded: max_instructions"),
            ["FORMAT_PARSE_ERROR"],
            id="instructions",
        ),
        pytest.param(
            disasm, "MAX_ARG_BYTES", 4, b"\x80\x02X\x05\x00\x00\x00hello.",
            ("LimitExceeded", "offset 2", "limit exceeded: max_arg_bytes"),
            ["FORMAT_PARSE_ERROR"],
            id="arg-bytes",
        ),
        pytest.param(
            containers, "MAX_ENTRIES", 3, _ARCHIVE,
            (
                "CorruptHeader", "",
                f"corrupt header at offset {_ARCHIVE_DIRECTORY}: entry count 4 too large",
            ),
            ["FORMAT_PARSE_ERROR"],
            id="archive-entries",
        ),
    ],
)
def test_each_bound_is_reported_by_the_scanner(
    tmp_path, policy, monkeypatch, module, bound, value, data, error, rules
):
    path = tmp_path / "bounded.bin"
    path.write_bytes(data)
    monkeypatch.setattr(module, bound, value)
    report = scan_paths([str(path)], policy)
    (scanned,) = report.files
    assert [(e.kind, e.locus, e.message) for e in scanned.errors] == [error]
    assert [f.rule_id for f in scanned.findings] == rules
    assert exit_code(report) == 2


def test_the_instruction_limit_fires_at_its_shipped_value(tmp_path, policy):
    """Unpatched: PROTO, GLOBAL and 999,998 NONEs make 1,000,000 ops, and
    the next NONE is refused.  The limit also bounds the stack the NONEs
    fill, and the import before it still reaches the rules."""
    path = tmp_path / "limit.pkl"
    path.write_bytes(b"\x80\x02" + GLOBAL + b"N" * 1_000_000 + b".")
    with alarm(ALARM_SECONDS):
        report = scan_paths([str(path)], policy)
    (scanned,) = report.files
    assert [(f.rule_id, f.severity, f.offset) for f in scanned.findings] == [
        ("PICKLE_DANGEROUS_GLOBAL", Severity.CRITICAL, 2),
        ("FORMAT_PARSE_ERROR", Severity.LOW, 1_000_011),
    ]
    assert [(e.kind, e.locus, e.message) for e in scanned.errors] == [
        ("LimitExceeded", "offset 1000011", "limit exceeded: max_instructions")
    ]
    assert exit_code(report) == 3


@pytest.mark.parametrize("data", [b"\x80\x02(u.", b"\x80\x02(o."], ids=["setitems", "obj"])
def test_a_mark_op_with_no_operand_underflows_where_the_loader_fails(tmp_path, policy, data):
    """SETITEMS (checked inline in its handler) finds no dict under its
    MARK, and OBJ no class above it: a stack underflow at the op."""
    with pytest.raises(IndexError):
        pickle._Unpickler(io.BytesIO(data)).load()
    path = tmp_path / "underflow.pkl"
    path.write_bytes(data)
    report = scan_paths([str(path)], policy)
    (scanned,) = report.files
    assert [(e.kind, e.locus, e.message) for e in scanned.errors] == [
        ("StackUnderflow", "offset 3", "stack underflow")
    ]
    assert [f.rule_id for f in scanned.findings] == ["FORMAT_PARSE_ERROR"]
    assert exit_code(report) == 2


def test_cli_max_entry_bytes_caps_each_archive_member(tmp_path, capsys):
    path = tmp_path / "model.pt"
    path.write_bytes(_ARCHIVE)
    size = len(benign_state_dict_pickle())
    assert cli_main(["scan", "--format", "json", "--max-entry-bytes", str(size - 1), str(path)]) == 2
    (scanned,) = json.loads(capsys.readouterr().out)["files"]
    assert [(e["kind"], e["locus"], e["message"]) for e in scanned["errors"]] == [
        ("CapExceeded", "model/data.pkl", f"declared size {size} exceeds cap {size - 1}")
    ]
    assert cli_main(["scan", "--max-entry-bytes", str(size), str(path)]) == 0
    capsys.readouterr()
