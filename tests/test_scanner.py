"""End-to-end scanning, report schema, rendering, CLI contract."""

from __future__ import annotations

import io
import json
import os
import pickle
import zipfile

import pytest

from conftest import alarm
from modelsentry import containers
from modelsentry.cli import main as cli_main
from modelsentry.containers import HDF5_SIGNATURE
from modelsentry.forge import (
    benign_state_dict_pickle,
    emit_corpus,
    emit_dense_only_config,
    emit_keras_h5,
    emit_keras_lambda_config,
    emit_keras_zip,
    emit_reduce_payload_pickle,
    emit_torch_like_zip,
)
from modelsentry.policy import IntegrityManifest, Severity
from modelsentry.report import exit_code, render, report_to_dict
from modelsentry.scanner import scan_file, scan_paths, sniff, verify_paths

MARKER = "true # FIXTURE-MARKER"


# -- sniffing -------------------------------------------------------------------


def test_sniff_zip_magic():
    assert sniff(b"PK\x03\x04" + b"\x00" * 20, 1000) == "zip_archive"


def test_sniff_hdf5_magic():
    assert sniff(b"\x89HDF\r\n\x1a\n" + b"\x00" * 8, 1000) == "hdf5"


def test_sniff_protocol_4_header():
    assert sniff(b"\x80\x04\x95", 1000) == "pickle_stream"


def test_sniff_unknown():
    assert sniff(b"", 0) == "unknown"
    assert sniff(b"plain text, nothing else", 24) == "unknown"


# -- scan_file ------------------------------------------------------------------


def test_scan_reduce_fixture(tmp_path, policy):
    target = tmp_path / "payload.pkl"
    target.write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    report = scan_file(str(target), policy)
    assert report.kind == "pickle_stream"
    rules = [(f.rule_id, f.severity) for f in report.findings]
    assert ("PICKLE_DANGEROUS_GLOBAL", Severity.CRITICAL) in rules
    assert ("PICKLE_CALL", Severity.CRITICAL) in rules


def test_scan_inst_without_mark_reports_the_import(tmp_path, policy):
    """pickle.py's ``load_inst`` calls ``find_class`` before it looks for the
    MARK, so an INST with no MARK still imports (and so runs) its module."""
    stream = b"\x80\x02ios\nsystem\n."
    imported = []

    class Recording(pickle._Unpickler):
        def find_class(self, module, name):
            imported.append((module, name))
            return object

    with pytest.raises((IndexError, pickle.UnpicklingError)):  # no MARK to pop
        Recording(io.BytesIO(stream)).load()
    assert imported == [("os", "system")]
    target = tmp_path / "inst.pkl"
    target.write_bytes(stream)
    report = scan_paths([str(target)], policy)
    assert exit_code(report) == 3
    (scanned,) = report.files
    dangerous = [f for f in scanned.findings if f.rule_id == "PICKLE_DANGEROUS_GLOBAL"]
    assert [(f.severity, f.offset) for f in dangerous] == [(Severity.CRITICAL, 2)]
    assert [error.kind for error in scanned.errors] == ["BadMark"]


def test_scan_benign_torch_archive_is_clean(tmp_path, policy):
    target = tmp_path / "clean.pt"
    target.write_bytes(emit_torch_like_zip(pickle.dumps({"acc": 0.9}, 2)))
    report = scan_file(str(target), policy)
    assert report.kind == "zip_archive"
    assert report.findings == []
    assert report.errors == []


def test_torch_byteorder_member_is_not_a_pickle(tmp_path, policy):
    """torch.save writes ``byteorder`` as ``little`` or ``big``, no newline:
    text, though ``little`` decodes as LIST then an INST of ``ttl``."""
    for byteorder in (b"little", b"big"):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("archive/data.pkl", pickle.dumps({"acc": 0.9}, 2))
            archive.writestr("archive/version", "3\n")
            archive.writestr("archive/byteorder", byteorder)
        target = tmp_path / "clean.pt"
        target.write_bytes(buffer.getvalue())
        report = scan_file(str(target), policy)
        assert (report.findings, report.errors) == ([], []), byteorder


def test_benign_checkpoint_renders_no_call_evidence(tmp_path, policy, monkeypatch):
    from modelsentry import absvm

    limits: list[int] = []
    real_render = absvm.render_value

    def render_value(value, memo=None, limit=absvm.ARG_SUMMARY_CAP, *args, **kwargs):
        limits.append(limit)
        return real_render(value, memo, limit, *args, **kwargs)

    monkeypatch.setattr(absvm, "render_value", render_value)
    target = tmp_path / "clean.pt"
    target.write_bytes(emit_torch_like_zip(benign_state_dict_pickle()))
    report = scan_file(str(target), policy)
    assert report.findings == [] and report.errors == []
    # Its tensor rebuilds and persistent ids are allowlisted: none is rendered.
    assert limits == []
    target.write_bytes(emit_torch_like_zip(emit_reduce_payload_pickle(MARKER, 2)))
    scan_file(str(target), policy)
    assert limits == [absvm.ARG_SUMMARY_CAP]


def test_scan_zero_byte_file(tmp_path, policy):
    target = tmp_path / "empty.bin"
    target.write_bytes(b"")
    report = scan_file(str(target), policy)
    assert report.kind == "unknown"
    assert [f.rule_id for f in report.findings] == ["UNRECOGNIZED_FORMAT"]
    assert all(f.severity is Severity.INFO for f in report.findings)


def test_scan_missing_file_is_error_entry(policy):
    report = scan_file("/nonexistent/nowhere.bin", policy)
    assert report.findings == []
    assert report.errors and report.errors[0].kind == "IOError"


def test_scan_keras_zip_reports_lambda_at_config_entry(tmp_path, policy):
    target = tmp_path / "model.keras"
    target.write_bytes(emit_keras_zip(emit_keras_lambda_config(True)))
    report = scan_file(str(target), policy)
    finding = next(f for f in report.findings if f.rule_id == "KERAS_LAMBDA_CODE")
    assert finding.entry == "config.json"
    assert finding.json_path == "config.layers[1]"
    assert finding.severity is Severity.HIGH


def test_scan_keras_h5_adds_heuristic_notice(tmp_path, policy):
    target = tmp_path / "model.h5"
    target.write_bytes(emit_keras_h5(emit_keras_lambda_config(True)))
    report = scan_file(str(target), policy)
    rules = [f.rule_id for f in report.findings]
    assert "H5_HEURISTIC_USED" in rules
    assert "KERAS_LAMBDA_CODE" in rules


_LAMBDA_CONFIG = emit_keras_lambda_config(True).encode()


def _outcome(report) -> tuple[list, list]:
    """Rule ids and severities (bar the HDF5-only notice) and error kinds."""
    return (
        sorted((f.rule_id, f.severity) for f in report.findings if f.rule_id != "H5_HEURISTIC_USED"),
        [error.kind for error in report.errors],
    )


_PARSE_ERROR = [("FORMAT_PARSE_ERROR", Severity.LOW)]


@pytest.mark.parametrize(
    "config, cap, outcome",
    [
        pytest.param(emit_dense_only_config().encode(), None, ([], []), id="clean"),
        pytest.param(
            _LAMBDA_CONFIG, None, ([("KERAS_LAMBDA_CODE", Severity.HIGH)], []), id="lambda"
        ),
        pytest.param(
            _LAMBDA_CONFIG.replace(b'"Lambda"', b'"Lamb\xffda"'), None,
            (_PARSE_ERROR, ["UnbalancedJson"]), id="invalid-utf8",
        ),
        pytest.param(
            b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}", None,
            (_PARSE_ERROR, ["UnbalancedJson"]), id="too-deep",
        ),
        pytest.param(
            _LAMBDA_CONFIG, len(_LAMBDA_CONFIG) - 1, (_PARSE_ERROR, ["CapExceeded"]),
            id="over-cap",
        ),
        pytest.param(
            _LAMBDA_CONFIG + b" garbage", None,
            ([("KERAS_LAMBDA_CODE", Severity.HIGH)], []), id="trailing-bytes",
        ),
        pytest.param(
            b"\n  " + _LAMBDA_CONFIG, None,
            ([("KERAS_LAMBDA_CODE", Severity.HIGH)], []), id="leading-whitespace",
        ),
        pytest.param(
            b"\xef\xbb\xbf" + _LAMBDA_CONFIG, None,
            ([("KERAS_LAMBDA_CODE", Severity.HIGH)], []), id="bom",
        ),
        pytest.param(
            _LAMBDA_CONFIG.replace(b'"name": "lambda"', b'"name": "x\xed\xa0\x80y"'), None,
            ([("KERAS_LAMBDA_CODE", Severity.HIGH)], []), id="encoded-surrogate",
        ),
    ],
)
def test_keras_and_h5_configs_get_the_same_verdict(
    tmp_path, policy, monkeypatch, config, cap, outcome
):
    """One decoder, one rule set: the same config bytes as a ``.keras``
    member and as an HDF5 attribute get the same findings and errors."""
    if cap is not None:
        monkeypatch.setattr(containers, "CONFIG_CAP", cap)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("config.json", config)
    keras = tmp_path / "model.keras"
    keras.write_bytes(buffer.getvalue())
    h5 = tmp_path / "model.h5"
    h5.write_bytes(HDF5_SIGNATURE + b"\x00" * 56 + b"model_config" + b"\x00" * 4 + config)
    assert _outcome(scan_file(str(keras), policy)) == outcome
    assert _outcome(scan_file(str(h5), policy)) == outcome


@pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-32"])
def test_keras_config_json_is_decoded_in_the_codec_json_loads_detects(
    tmp_path, policy, encoding
):
    """Keras reads ``config.json`` with ``json.loads(bytes)``, which also
    takes UTF-16 and UTF-32: a Lambda config in either is found.  An HDF5
    attribute stays UTF-8, so there the same bytes are a parse error."""
    config = _LAMBDA_CONFIG.decode().encode(encoding)
    assert json.loads(config) == json.loads(_LAMBDA_CONFIG)
    outcomes = []
    for member in (config, config[:-1]):  # whole, then with its last code unit torn
        keras = tmp_path / "model.keras"
        with zipfile.ZipFile(keras, "w") as archive:
            archive.writestr("config.json", member)
        outcomes.append(_outcome(scan_file(str(keras), policy)))
    h5 = tmp_path / "model.h5"
    h5.write_bytes(HDF5_SIGNATURE + b"\x00" * 56 + b"model_config" + b"\x00" * 4 + config)
    outcomes.append(_outcome(scan_file(str(h5), policy)))
    assert outcomes == [
        ([("KERAS_LAMBDA_CODE", Severity.HIGH)], []),
        (_PARSE_ERROR, ["UnbalancedJson"]),
        (_PARSE_ERROR, ["UnbalancedJson"]),
    ]


def test_config_with_an_encoded_surrogate_decodes_as_json_loads_decodes_it(tmp_path, policy):
    """``json.loads(bytes)`` decodes with ``surrogatepass``: a name holding
    U+D800, written as the UTF-8 bytes ED A0 80 or as one UTF-16 code
    unit, is that code point, and the Lambda is still found."""
    config = _LAMBDA_CONFIG.replace(b'"name": "lambda"', b'"name": "x\xed\xa0\x80y"')
    assert json.loads(config)["config"]["layers"][1]["config"]["name"] == "x\ud800y"
    extracted = containers.decode_config(config, whole=True)
    assert (extracted.config, extracted.byte_range) == (json.loads(config), (0, len(config)))
    utf16 = config.decode("utf-8", "surrogatepass").encode("utf-16", "surrogatepass")
    assert containers.decode_config(utf16, whole=True).config == json.loads(utf16)
    keras = tmp_path / "model.keras"
    with zipfile.ZipFile(keras, "w") as archive:
        archive.writestr("config.json", utf16)
    assert _outcome(scan_file(str(keras), policy)) == ([("KERAS_LAMBDA_CODE", Severity.HIGH)], [])


def test_scan_h5_decoy_config_does_not_hide_the_lambda(tmp_path, policy):
    decoy = json.dumps({"class_name": "Sequential", "config": {"layers": []}})
    target = tmp_path / "decoy.h5"
    target.write_bytes(emit_keras_h5(decoy) + emit_keras_h5(emit_keras_lambda_config(True)))
    report = scan_file(str(target), policy)
    rules = [f.rule_id for f in report.findings]
    assert rules.count("H5_HEURISTIC_USED") == 1
    assert [f.message for f in report.findings if f.rule_id == "H5_HEURISTIC_USED"][0].endswith(
        "; 1 more after it)"
    )
    assert "KERAS_LAMBDA_CODE" in rules
    assert report.errors == []


def test_scan_h5_too_deep_decoy_does_not_hide_the_lambda(tmp_path, policy):
    decoy = b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    target = tmp_path / "deep.h5"
    target.write_bytes(
        HDF5_SIGNATURE + b"model_config" + decoy
        + emit_keras_h5(emit_keras_lambda_config(True))
    )
    report = scan_file(str(target), policy)
    assert "KERAS_LAMBDA_CODE" in {f.rule_id for f in report.findings}
    assert [error.kind for error in report.errors] == ["UnbalancedJson"]


def _json_nesting_limit() -> int:
    """Levels of ``[`` the C JSON decoder opens, at the caller's stack depth,
    before it raises RecursionError."""
    low, high = 1, 1 << 17
    while low < high:
        mid = (low + high) // 2
        try:
            json.JSONDecoder().raw_decode("[" * mid)
        except RecursionError:
            high = mid
        except json.JSONDecodeError:
            low = mid + 1  # ran off the end first
    return low


def test_scan_h5_decoy_deeper_than_the_decoder_does_not_hide_a_lambda_in_its_window(
    tmp_path, policy
):
    """The decoder gives up at a depth that depends on the interpreter (993
    levels on 3.10 and 3.11, 1,496 on 3.12, 9,997 on 3.13); the decoy goes
    past it, and the real attribute right after the decoy still sits inside
    the window the decoder gave up in."""
    limit = _json_nesting_limit()
    decoy = b'{"a":' + b"[" * (limit + 100)
    window = containers._FIRST_WINDOW  # the first window holding ``limit`` levels
    while window < len(b'{"a":') + limit:
        window *= 2
    lambda_h5 = emit_keras_h5(emit_keras_lambda_config(True))
    body = HDF5_SIGNATURE + b"model_config" + decoy + lambda_h5
    marker_end = body.index(b"model_config", 20) + len(b"model_config")
    assert marker_end < body.index(b"{") + window
    target = tmp_path / "deep_window.h5"
    target.write_bytes(body)
    report = scan_file(str(target), policy)
    assert "KERAS_LAMBDA_CODE" in {f.rule_id for f in report.findings}
    assert [error.kind for error in report.errors] == ["UnbalancedJson"]
    assert "nested too deeply" in report.errors[0].message


def test_scan_weights_only_h5_is_clean(tmp_path, policy):
    target = tmp_path / "weights.h5"
    target.write_bytes(b"\x89HDF\r\n\x1a\n" + b"\x00" * 256)
    report = scan_file(str(target), policy)
    assert report.findings == []
    assert report.errors == []


def test_scan_archive_with_traversal_member(tmp_path, policy):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(zipfile.ZipInfo("../../escape.txt"), b"data")
    target = tmp_path / "evil.zip"
    target.write_bytes(buffer.getvalue())
    report = scan_file(str(target), policy)
    finding = next(f for f in report.findings if f.rule_id == "ARCHIVE_PATH_TRAVERSAL")
    assert finding.severity is Severity.HIGH


def test_scan_multi_segment_pickle_with_bad_tail(tmp_path, policy):
    target = tmp_path / "multi.pkl"
    target.write_bytes(b"N." + emit_reduce_payload_pickle(MARKER, 2) + b"\xff")
    report = scan_file(str(target), policy)
    rules = [f.rule_id for f in report.findings]
    assert "PICKLE_DANGEROUS_GLOBAL" in rules  # second segment still scanned
    assert "FORMAT_PARSE_ERROR" in rules  # garbage tail recorded
    assert report.errors


def _scan_stream(tmp_path, policy, stream: bytes):
    target = tmp_path / "stream.pkl"
    target.write_bytes(stream)
    return scan_file(str(target), policy)


def test_vm_error_costs_only_its_own_segment(tmp_path, policy):
    # Segment 0 underflows at REDUCE; segment 1 is a dangerous call.
    second = emit_reduce_payload_pickle(MARKER, 2)
    report = _scan_stream(tmp_path, policy, b"R." + second)
    assert [(e.kind, e.locus, e.message) for e in report.errors] == [
        ("StackUnderflow", "offset 0", "stack underflow")
    ]
    calls = [f for f in report.findings if f.rule_id == "PICKLE_CALL"]
    assert len(calls) == 1 and calls[0].offset > 2
    assert "PICKLE_DANGEROUS_GLOBAL" in [f.rule_id for f in report.findings]


def test_parse_error_replaces_vm_error_of_its_segment(tmp_path, policy):
    # REDUCE underflows at offset 2, then byte 0xff fails to decode at offset 3.
    report = _scan_stream(tmp_path, policy, b"N.R\xff.")
    assert [(e.kind, e.locus) for e in report.errors] == [("UnknownOpcode", "offset 3")]
    assert [f.rule_id for f in report.findings] == ["FORMAT_PARSE_ERROR"]


def test_errors_list_parse_error_before_earlier_segments_vm_errors(tmp_path, policy):
    # Segment 0 underflows, segment 1 pops a missing MARK, segment 2 is garbage.
    report = _scan_stream(tmp_path, policy, b"R." + b"N1." + b"\xff")
    assert [(e.kind, e.locus) for e in report.errors] == [
        ("UnknownOpcode", "offset 5"),
        ("StackUnderflow", "offset 0"),
        ("BadMark", "offset 3"),
    ]
    text = render(scan_paths([str(tmp_path / "stream.pkl")], policy), "text").decode()
    kinds = [line.split()[1] for line in text.splitlines() if line.startswith("ERROR")]
    assert kinds == ["UnknownOpcode", "StackUnderflow", "BadMark"]


def test_scan_reports_frame_mismatch_offsets(tmp_path, policy):
    frame = b"\x95" + (1).to_bytes(8, "little")  # claims one byte
    # Segment 1 starts at offset 2; its FRAME covers only part of K\x07.
    report = _scan_stream(tmp_path, policy, b"N." + b"\x80\x04" + frame + b"K\x07.")
    frames = [f.offset for f in report.findings if f.rule_id == "PICKLE_FRAME_MISMATCH"]
    assert frames == [13]


def test_parse_error_locus_keeps_member_name_as_written(tmp_path, policy):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(":data.pkl", emit_reduce_payload_pickle(MARKER, 2)[:-3])
    target = tmp_path / "colon.zip"
    target.write_bytes(buffer.getvalue())
    report = scan_file(str(target), policy)
    finding = next(f for f in report.findings if f.rule_id == "FORMAT_PARSE_ERROR")
    assert [error.locus for error in report.errors] == [finding.locus]
    assert finding.locus.startswith(":data.pkl:offset ")


def test_scan_file_survives_deep_nesting(tmp_path, policy):
    # 1,000 nested lists passed to a call: deeper than the interpreter's
    # default recursion limit.
    target = tmp_path / "nesting.pkl"
    target.write_bytes(b"\x80\x02cos\nsystem\n" + b"]" * 1000 + b"a" * 999 + b"\x85R.")
    report = scan_paths([str(target)], policy)
    assert exit_code(report) in (2, 3)


def test_internal_error_costs_only_its_own_file(tmp_path, policy, monkeypatch):
    from modelsentry import absvm

    real_reduce = absvm._HANDLERS[ord("R")]

    def reduce(machine, arg):
        if "defect" in absvm.render_value(machine.stack[-1], machine.memo):
            raise ValueError("injected defect")
        real_reduce(machine, arg)

    handlers = list(absvm._HANDLERS)
    handlers[ord("R")] = reduce
    monkeypatch.setattr(absvm, "_HANDLERS", tuple(handlers))
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("../escape.pkl", emit_reduce_payload_pickle("defect", 2))
    (tmp_path / "bad.zip").write_bytes(buffer.getvalue())
    (tmp_path / "good.pkl").write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    bad, good = scan_paths([str(tmp_path)], policy).files
    assert [(e.kind, e.locus, e.message) for e in bad.errors] == [
        ("InternalError", "", "ValueError: injected defect")
    ]
    # a finding made before the failure is kept
    assert [f.rule_id for f in bad.findings] == ["ARCHIVE_PATH_TRAVERSAL"]
    assert "PICKLE_CALL" in [f.rule_id for f in good.findings]


def test_io_error_keeps_findings_made_before_it(tmp_path, policy, monkeypatch):
    from modelsentry import containers

    def read_entry(*args, **kwargs):
        raise OSError("injected read failure")

    monkeypatch.setattr(containers, "read_entry", read_entry)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("../escape.pkl", emit_reduce_payload_pickle(MARKER, 2))
    target = tmp_path / "bad.zip"
    target.write_bytes(buffer.getvalue())
    report = scan_paths([str(target)], policy)
    (bad,) = report.files
    assert [(e.kind, e.message) for e in bad.errors] == [("IOError", "injected read failure")]
    assert [f.rule_id for f in bad.findings] == ["ARCHIVE_PATH_TRAVERSAL"]
    assert exit_code(report) == 3


# -- report assembly and rendering -----------------------------------------------


def test_report_json_schema_field_names(tmp_path, policy):
    target = tmp_path / "p.pkl"
    target.write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    report = scan_paths([str(target)], policy)
    data = json.loads(render(report, "json"))
    assert set(data) == {"version", "policy_digest", "files", "summary"}
    assert set(data["summary"]) == {"critical", "high", "medium", "low", "info"}
    (file_entry,) = data["files"]
    assert set(file_entry) == {"path", "kind", "findings", "errors"}
    for finding in file_entry["findings"]:
        assert set(finding) == {"rule_id", "severity", "locus", "message", "evidence"}


def test_text_rendering_line_shape(tmp_path, policy):
    target = tmp_path / "p.pkl"
    target.write_bytes(emit_reduce_payload_pickle(MARKER, 0))
    report = scan_paths([str(target)], policy)
    lines = render(report, "text").decode().splitlines()
    first = lines[0].split(" ", 3)
    assert first[0] == "CRITICAL"
    assert first[1] == "PICKLE_DANGEROUS_GLOBAL"
    assert first[2].startswith(str(target))
    assert lines[-1].startswith("summary:")


# Text a hostile name carries to forge report lines.
_FORGED_LINES = (
    "\nINFO UNRECOGNIZED_FORMAT fake.bin:- nothing here"
    "\nsummary: critical=0 high=0 medium=0 low=0 info=1 files=1\n"
)


def test_text_report_gives_one_line_per_finding_error_and_summary(tmp_path, policy):
    config = emit_keras_lambda_config(True)
    named = config.replace('"name": "lambda"', '"name": ' + json.dumps("lambda" + _FORGED_LINES))
    assert named != config
    payload = emit_reduce_payload_pickle("true", 2)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("model/data.pkl" + _FORGED_LINES + ".pkl", payload)
        archive.writestr("cut" + _FORGED_LINES + ".pkl", payload[:-3])
        archive.writestr("model/config.json", named)
    target = tmp_path / "forged\nsummary: critical=0.zip"
    target.write_bytes(buffer.getvalue())
    report = scan_paths([str(target)], policy)
    (scanned,) = report.files
    assert scanned.errors and "KERAS_LAMBDA_CODE" in {f.rule_id for f in scanned.findings}
    text = render(report, "text").decode()
    lines = text.splitlines()
    assert len(lines) == len(scanned.findings) + len(scanned.errors) + 1
    assert [line for line in lines if "summary:" in line.split(" ", 1)[0]] == [lines[-1]]
    assert "Lambda layer lambda\\nINFO UNRECOGNIZED_FORMAT" in text
    assert "forged\\nsummary: critical=0.zip:cut\\nINFO" in text


def test_text_report_renders_a_path_with_an_undecodable_byte(tmp_path, policy):
    # The name reaches the report as a lone surrogate, which UTF-8 cannot encode.
    with open(os.fsencode(tmp_path) + b"/\xff.pkl", "wb") as handle:
        handle.write(emit_reduce_payload_pickle(MARKER, 2))
    text = render(scan_paths([str(tmp_path)], policy), "text").decode()
    assert "/\\udcff.pkl:offset 2 resolves denied global os.system" in text


def test_sarif_level_mapping(tmp_path, policy):
    target = tmp_path / "p.pkl"
    target.write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    report = scan_paths([str(target)], policy)
    sarif = json.loads(render(report, "sarif"))
    assert sarif["version"] == "2.1.0"
    results = sarif["runs"][0]["results"]
    assert results and all(r["level"] == "error" for r in results)
    rule_ids = {rule["id"] for rule in sarif["runs"][0]["tool"]["driver"]["rules"]}
    assert "PICKLE_DANGEROUS_GLOBAL" in rule_ids
    assert any(
        "byteOffset" in r["locations"][0]["physicalLocation"].get("region", {})
        for r in results
    )


def test_sarif_gives_an_archive_member_finding_no_byte_offset(tmp_path, policy):
    # The offset is into the member, not the file: only the message holds it.
    target = tmp_path / "mal_torch.pt"
    target.write_bytes(emit_torch_like_zip(emit_reduce_payload_pickle(MARKER, 2)))
    results = json.loads(render(scan_paths([str(target)], policy), "sarif"))["runs"][0]["results"]
    assert {result["ruleId"] for result in results} == {"PICKLE_DANGEROUS_GLOBAL", "PICKLE_CALL"}
    for result in results:
        assert "region" not in result["locations"][0]["physicalLocation"]
        assert "[model/data.pkl:offset " in result["message"]["text"]


def test_sarif_empty_report_is_valid_skeleton(policy):
    report = scan_paths([], policy)
    sarif = json.loads(render(report, "sarif"))
    assert sarif["runs"][0]["results"] == []
    assert sarif["runs"][0]["tool"]["driver"]["name"] == "modelsentry"
    assert sarif["runs"][0]["invocations"] == [
        {"executionSuccessful": True, "toolExecutionNotifications": []}
    ]


def test_sarif_lists_scan_errors(tmp_path, policy):
    target = tmp_path / "cut.pkl"
    target.write_bytes(pickle.dumps([1, 2, 3], 2)[:-3])
    report = scan_paths([str(target)], policy)
    [error] = report.files[0].errors
    assert error.kind == "TruncatedArgument" and error.locus
    invocation = json.loads(render(report, "sarif"))["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is False
    assert invocation["toolExecutionNotifications"] == [
        {
            "level": "error",
            "message": {"text": f"{error.kind}: {error.message}"},
            "locations": [
                {
                    "physicalLocation": {"artifactLocation": {"uri": str(target)}},
                    "message": {"text": error.locus},
                }
            ],
        }
    ]


def test_report_deterministic_across_worker_counts(tmp_path, policy):
    corpus = tmp_path / "corpus"
    emit_corpus(corpus, seed=0)
    serial = render(scan_paths([str(corpus)], policy, jobs=1), "json")
    parallel = render(scan_paths([str(corpus)], policy, jobs=8), "json")
    assert serial == parallel


def test_summary_counts_match_findings(tmp_path, policy):
    corpus = tmp_path / "corpus"
    emit_corpus(corpus, seed=0)
    report = scan_paths([str(corpus)], policy)
    data = report_to_dict(report)
    recount = {"critical": 0, "high": 0, "medium": 0, "low": 0, "info": 0}
    for entry in data["files"]:
        for finding in entry["findings"]:
            recount[finding["severity"].lower()] += 1
    assert data["summary"] == recount


def test_golden_corpus_report(tmp_path, policy, monkeypatch):
    golden_path = os.path.join(os.path.dirname(__file__), "data", "golden_report.json")
    with open(golden_path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    monkeypatch.chdir(tmp_path)
    emit_corpus("corpus", seed=0)
    report = scan_paths(["corpus"], policy)
    produced = json.loads(render(report, "json"))
    assert produced == golden


# -- symlinks ----------------------------------------------------------------------


def test_symlinks_skipped_by_default(tmp_path, policy):
    real = tmp_path / "real.pkl"
    real.write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "link.pkl").symlink_to(real)
    skipped = scan_paths([str(tree)], policy)
    assert skipped.files == []
    followed = scan_paths([str(tree)], policy, follow_symlinks=True)
    assert len(followed.files) == 1


def test_symlink_cycle_is_walked_once(tmp_path, policy):
    """Two links to the parent directory make 2^depth paths, up to the
    kernel's ELOOP: a directory that is one of its own ancestors is pruned,
    so the tree yields its one file once."""
    root = tmp_path / "root"
    tree = root / "d"
    tree.mkdir(parents=True)
    (tree / "a.pkl").write_bytes(pickle.dumps([1, 2, 3], 2))
    (tree / "up1").symlink_to("..")
    (tree / "up2").symlink_to("..")
    with alarm(10.0):
        report = scan_paths([str(root)], policy, follow_symlinks=True)
    assert [file_report.path for file_report in report.files] == [str(tree / "a.pkl")]
    assert exit_code(report) == 0


def test_symlink_lattice_walks_each_directory_once(tmp_path, policy):
    """15 directories ``l0..l14``, each with links ``a`` and ``b`` to the
    next, give 2^14 paths to the one file in ``l14``: each directory is
    walked once, under the first path in sorted walk order."""
    levels = 15
    for level in range(levels):
        (tmp_path / f"l{level}").mkdir()
    for level in range(levels - 1):
        for name in "ab":
            (tmp_path / f"l{level}" / name).symlink_to(f"../l{level + 1}")
    (tmp_path / f"l{levels - 1}" / "a.pkl").write_bytes(pickle.dumps([1, 2, 3], 2))
    with alarm(10.0):
        report = scan_paths([str(tmp_path)], policy, follow_symlinks=True)
    first = tmp_path.joinpath("l0", *["a"] * (levels - 1), "a.pkl")
    assert [file_report.path for file_report in report.files] == [str(first)]
    assert exit_code(report) == 0


# -- files that are not regular files -----------------------------------------------


def _pipes_beside_a_pickle(tmp_path):
    """A directory holding a named pipe and a pickle, and a pipe outside it."""
    tree = tmp_path / "tree"
    tree.mkdir()
    os.mkfifo(tree / "inner.pipe")
    os.mkfifo(tmp_path / "named.pipe")
    (tree / "a.pkl").write_bytes(pickle.dumps([1, 2, 3], 2))
    return tree, [tree / "inner.pipe", tmp_path / "named.pipe"], tree / "a.pkl"


def test_named_pipe_is_an_io_error_not_a_hang(tmp_path, policy, capsys):
    """Opening a named pipe would wait for a writer: a pipe in a scanned
    directory and one named on the command line are each an IOError entry,
    and the pickle beside them is still scanned."""
    tree, pipes, pickled = _pipes_beside_a_pickle(tmp_path)
    with alarm(10.0):
        report = scan_paths([str(tree), str(pipes[1])], policy)
        status = cli_main(["scan", "--format", "json", str(tree), str(pipes[1])])
    by_path = {file_report.path: file_report for file_report in report.files}
    assert sorted(by_path) == sorted(map(str, [*pipes, pickled]))
    for pipe in pipes:
        errors = [(error.kind, error.message) for error in by_path[str(pipe)].errors]
        assert errors == [("IOError", "not a regular file")]
    assert by_path[str(pickled)].kind == "pickle_stream"
    assert by_path[str(pickled)].errors == []
    assert status == 2
    assert json.loads(capsys.readouterr().out) == report_to_dict(report)


def test_verify_reports_a_named_pipe_without_waiting(tmp_path, policy):
    _tree, pipes, pickled = _pipes_beside_a_pickle(tmp_path)
    with alarm(10.0):
        report = verify_paths([str(pipes[0]), str(pickled)], IntegrityManifest.from_dict({}), policy)
    pickle_report, pipe_report = report.files  # sorted by path
    assert [error.message for error in pipe_report.errors] == ["not a regular file"]
    assert [finding.rule_id for finding in pickle_report.findings] == ["INTEGRITY_MISMATCH"]
    assert exit_code(report) == 2


# -- CLI ----------------------------------------------------------------------------


def test_cli_scan_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.pkl"
    bad.write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    good = tmp_path / "good.pkl"
    good.write_bytes(pickle.dumps([1, 2, 3], 2))
    assert cli_main(["scan", str(good)]) == 0
    assert cli_main(["scan", str(bad)]) == 3
    assert cli_main(["scan", str(tmp_path / "missing.pkl")]) == 2
    capsys.readouterr()


def test_cli_threshold_gates_exit(tmp_path, capsys):
    from modelsentry.forge import emit_dynamic_global_pickle

    target = tmp_path / "dyn.pkl"
    target.write_bytes(emit_dynamic_global_pickle(4))  # HIGH finding
    assert cli_main(["scan", str(target)]) == 3
    assert cli_main(["scan", str(target), "--threshold", "CRITICAL"]) == 0
    capsys.readouterr()


def test_cli_scan_writes_report_file(tmp_path, capsys):
    target = tmp_path / "p.pkl"
    target.write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    out = tmp_path / "report.json"
    code = cli_main(["scan", str(target), "--format", "json", "--out", str(out)])
    assert code == 3
    data = json.loads(out.read_text())
    assert data["files"][0]["findings"]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["scan", "verify"])
def test_cli_unwritable_out_is_operational_error(tmp_path, capsys, command):
    target = tmp_path / "p.pkl"
    target.write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    out = tmp_path / "missing-dir" / "report.json"
    args = [command, str(target), "--format", "json", "--out", str(out)]
    if command == "verify":
        manifest = tmp_path / "integrity.json"
        manifest.write_text("{}")
        args[1:1] = ["--manifest", str(manifest)]
    assert cli_main(args) == 2
    assert capsys.readouterr().err.startswith("modelsentry: [Errno 2] No such file")
    assert not out.exists()


def test_cli_policy_env_fallback(tmp_path, capsys, monkeypatch):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps({"deny": [{"module": "acme", "name": "*"}]}))
    target = tmp_path / "probe.pkl"
    target.write_bytes(b"cacme\nmystery\n.")
    monkeypatch.setenv("MODELSENTRY_POLICY", str(policy_file))
    out = tmp_path / "r.json"
    cli_main(["scan", str(target), "--format", "json", "--out", str(out)])
    data = json.loads(out.read_text())
    severities = [f["severity"] for f in data["files"][0]["findings"]]
    assert severities == ["CRITICAL"]  # env policy denied it; default would say MEDIUM
    capsys.readouterr()


def test_cli_bad_policy_is_operational_error(tmp_path, capsys):
    bad_policy = tmp_path / "broken.json"
    bad_policy.write_text("{not json")
    target = tmp_path / "x.pkl"
    target.write_bytes(b"N.")
    code = cli_main(["scan", str(target), "--policy", str(bad_policy)])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command,flag", [("scan", "--policy"), ("verify", "--manifest")])
def test_cli_deeply_nested_json_is_operational_error(tmp_path, capsys, command, flag):
    nested = tmp_path / "nested.json"
    nested.write_text('{"deny":' + "[" * 100_000 + "]" * 100_000 + "}")
    target = tmp_path / "x.pkl"
    target.write_bytes(b"N.")
    assert cli_main([command, flag, str(nested), str(target)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_cli_disasm_output(tmp_path, capsys):
    target = tmp_path / "n.pkl"
    target.write_bytes(b"N.")
    assert cli_main(["disasm", str(target)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["0", "NONE"]
    assert out[1].split() == ["1", "STOP"]


def test_cli_disasm_notes_zero_padding(tmp_path, capsys):
    target = tmp_path / "padded.pkl"
    target.write_bytes(b"N.N." + b"\x00" * 3)
    assert cli_main(["disasm", str(target)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in out[:4]] == ["NONE", "STOP", "NONE", "STOP"]
    assert out[4:] == ["# 3 trailing byte(s)"]


def test_cli_forge_and_verify_flow(tmp_path, capsys):
    corpus = tmp_path / "c"
    assert cli_main(["forge", "--out", str(corpus), "--seed", "0"]) == 0
    from modelsentry.policy import file_digest

    target = corpus / "ben_pickle_1_p0.pkl"
    manifest = tmp_path / "integrity.json"
    manifest.write_text(json.dumps({str(target): file_digest(str(target))}))
    assert cli_main(["verify", "--manifest", str(manifest), str(target)]) == 0
    tampered = bytearray(target.read_bytes())
    tampered[0] ^= 0xFF
    target.write_bytes(bytes(tampered))
    assert cli_main(["verify", "--manifest", str(manifest), str(target)]) == 3
    capsys.readouterr()


def test_exit_code_contract_unit(policy):
    from modelsentry.scanner import FileReport, ScanReport
    from modelsentry.policy import Finding

    def one(severity, errors=()):
        finding = Finding("PICKLE_CALL", severity, "f", "m")
        return ScanReport(
            tool_version="0",
            policy_digest="d",
            files=[FileReport(path="f", kind="pickle_stream", findings=[finding],
                              errors=list(errors))],
            exit_severity_threshold=Severity.HIGH,
        )

    assert exit_code(one(Severity.CRITICAL)) == 3
    assert exit_code(one(Severity.HIGH)) == 3
    assert exit_code(one(Severity.MEDIUM)) == 0
    from modelsentry.scanner import ScanError

    assert exit_code(one(Severity.MEDIUM, errors=[ScanError("X", "", "boom")])) == 2


def test_events_before_a_segment_error_are_kept(tmp_path, policy):
    call = b"\x80\x02cos\nsystem\nX\x02\x00\x00\x00ls\x85R"
    # A loader runs os.system before it reaches the bad op, so the call counts.
    for name, data, error in [
        ("badmark.pkl", call + b"00.", ("BadMark", "offset 23")),
        ("unknown.pkl", call + b"\xff" * 10, ("UnknownOpcode", "offset 22")),
    ]:
        target = tmp_path / name
        target.write_bytes(data)
        report = scan_paths([str(target)], policy)
        findings = report.files[0].findings
        critical = {f.rule_id for f in findings if f.severity is Severity.CRITICAL}
        assert critical == {"PICKLE_DANGEROUS_GLOBAL", "PICKLE_CALL"}
        assert [f.rule_id for f in findings if f.severity is Severity.LOW] == ["FORMAT_PARSE_ERROR"]
        assert [(e.kind, e.locus) for e in report.files[0].errors] == [error]
        assert exit_code(report) == 3
