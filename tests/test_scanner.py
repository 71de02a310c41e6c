"""End-to-end scanning, report schema, rendering, CLI contract."""

from __future__ import annotations

import codecs
import contextlib
import errno
import hashlib
import io
import json
import marshal
import os
import pickle
import struct
import subprocess
import sys
import warnings
import zipfile
import zlib
from urllib.parse import quote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    alarm,
    reference_holders,
    stdlib_escape_warnings_ignored,
    with_central_field,
    with_entry_count,
)
import modelsentry
from modelsentry import absvm, cli, containers, disasm, scanner
from modelsentry.cli import main as cli_main
from modelsentry.containers import HDF5_SIGNATURE
from modelsentry.forge import (
    DEFAULT_MARKER,
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
from modelsentry.report import _dumps_indented, _render_sarif, exit_code, render, report_to_dict
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


# The file header of a 4 MiB bitmap: "B" is BINBYTES, and "M" plus the file
# size read as a length of about 1 GiB.
_BMP_HEADER = b"BM\x36\x00\x40\x00\x00\x00\x00\x00\x36\x00\x00\x00\x28\x00\x00\x00"


@pytest.mark.parametrize(
    "head, length, kind",
    [
        # A PROTO of protocol 5 or less, whatever follows.
        (b"\x80\x04\x95\x00", 1000, "pickle_stream"),
        (b"\x80\x02", 1000, "pickle_stream"),
        # A first segment that reaches STOP.
        (b"N.", 2, "pickle_stream"),
        (pickle.dumps([1, 2, 3], 0), None, "pickle_stream"),
        # An import before the first fault.  pickle.py imports os.system from
        # an unterminated last line, and the module alone when the name line
        # is empty or past the end: ``find_class("at", "")`` for ``cat\n``.
        (b"cos\nsystemX", None, "pickle_stream"),
        (b"(Vls\nios\nsystemX", None, "pickle_stream"),
        (b"cat\n", None, "pickle_stream"),
        (b"cosX", None, "pickle_stream"),
        # A fault before any import.
        (b"\x80\x06extra", None, "unknown"),  # PROTO 6, then APPENDS with no MARK
        (b"\x80\x06N.", None, "unknown"),  # pickle.py refuses protocol 6
        (b"Model fixture text", None, "unknown"),
        (b"", 0, "unknown"),
        (b'{"json": 1}', None, "unknown"),  # "{" is no opcode
        (b"cat dog\n", None, "unknown"),  # "at dog" is no module name
        (b"little", None, "unknown"),  # LIST with no MARK
        (b"cos\n two words X", None, "unknown"),
        # INST names that are not ASCII fail both loaders before the import.
        (b"(Vls\nios\nsyst\xc3\xa9m\n.", None, "unknown"),
        # A head that runs out undecided: the whole is read.
        (b"N" * 512, 600, "pickle_stream"),
        (b"N" * 600, None, "unknown"),
        # BINSTRING, BINBYTES or BINUNICODE declaring more bytes than follow,
        # over MAX_ARG_BYTES or not: a loader finds the argument cut short.
        (b"The quick brown fox\n", None, "unknown"),
        (b"Beta\n", None, "unknown"),
        (b"XML-like text, more than 256 MiB by its first four bytes", None, "unknown"),
        (_BMP_HEADER, None, "unknown"),
    ],
)
def test_sniff_takes_what_a_loader_would_run(head, length, kind):
    assert sniff(head, len(head) if length is None else length) == kind


def test_sniff_keeps_an_argument_over_max_arg_bytes_that_is_all_there(monkeypatch):
    """An argument over the bound is the scanner's limit, not a loader's
    fault; one that also runs past the end is cut short for a loader."""
    monkeypatch.setattr(disasm, "MAX_ARG_BYTES", 4)
    assert sniff(b"X\x05\x00\x00\x00hello.", 11) == "pickle_stream"
    assert sniff(b"X\x05\x00\x00\x00hel", 8) == "unknown"


def test_text_that_declares_a_huge_argument_is_not_a_pickle(tmp_path, policy):
    text = b"The quick brown fox\njumps over the lazy dog\n"
    (tmp_path / "notes.txt").write_bytes(text)
    (tmp_path / "icon.bmp").write_bytes(_BMP_HEADER + b"\x00" * 52)
    with zipfile.ZipFile(tmp_path / "bundle.zip", "w") as archive:
        archive.writestr("docs/notes.txt", text)
        archive.writestr("docs/icon.bmp", _BMP_HEADER + b"\x00" * 52)
    report = scan_paths([str(tmp_path)], policy)
    bundle, icon, notes = report.files
    assert (bundle.findings, bundle.errors) == ([], [])
    for scanned in (icon, notes):
        assert scanned.kind == "unknown"
        assert [f.rule_id for f in scanned.findings] == ["UNRECOGNIZED_FORMAT"]
        assert scanned.errors == []
    assert exit_code(report) == 0


def test_protocol_above_5_is_refused_as_a_loader_refuses_it(tmp_path, policy):
    stream = b"\x80\x06" + emit_reduce_payload_pickle(MARKER, 2)[2:]
    with pytest.raises(ValueError, match="unsupported pickle protocol"):
        pickle.loads(stream)
    path = tmp_path / "model.pkl"
    path.write_bytes(stream)
    report = scan_paths([str(path)], policy)
    (scanned,) = report.files
    assert [f.rule_id for f in scanned.findings] == ["FORMAT_PARSE_ERROR"]
    assert [error.message for error in scanned.errors] == ["unsupported pickle protocol: 6"]
    assert exit_code(report) == 2


def test_sniff_takes_any_pkl_file_for_a_pickle():
    assert sniff(b"Model fixture text", 18, "model.pkl") == "pickle_stream"
    assert sniff(b"PK\x03\x04" + b"\x00" * 20, 1000, "model.pkl") == "zip_archive"


class _System:
    """Pickled by the standard library as a call to os.system."""

    def __reduce__(self):
        return (os.system, (MARKER,))


@pytest.mark.parametrize("obj", [[_System()], {"state": _System()}], ids=["list", "dict"])
@pytest.mark.parametrize("name", ["model.bin", "model.pkl", "weights/model.bin"])
def test_protocol_1_stream_that_opens_with_a_container_is_critical(tmp_path, policy, obj, name):
    """Protocol 1 writes no PROTO: these open with EMPTY_LIST or EMPTY_DICT."""
    stream = pickle.dumps(obj, 1)
    assert stream[:1] in (b"]", b"}")
    path = tmp_path / name
    entry = None
    if "/" in name:
        path, entry = tmp_path / "model.zip", name
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr(name, stream)
    else:
        path.write_bytes(stream)
    report = scan_paths([str(path)], policy)
    assert exit_code(report) == 3
    critical = {(f.rule_id, f.entry) for f in report.files[0].findings if f.severity is Severity.CRITICAL}
    assert critical == {("PICKLE_DANGEROUS_GLOBAL", entry), ("PICKLE_CALL", entry)}


def test_protocol_1_int_is_a_pickle_stream(tmp_path, policy):
    path = tmp_path / "x.bin"
    path.write_bytes(pickle.dumps(7, 1))
    report = scan_file(str(path), policy)
    assert report.kind == "pickle_stream"
    assert (report.findings, report.errors) == ([], [])


_CSV = b"0.5,0.25,0.125\n1.0,2.0,3.0\n"  # "0" is POP, on which a loader fails


def test_csv_of_numbers_is_not_a_pickle(tmp_path, policy):
    path = tmp_path / "vals.csv"
    path.write_bytes(_CSV)
    report = scan_paths([str(path)], policy)
    assert [f.rule_id for f in report.files[0].findings] == ["UNRECOGNIZED_FORMAT"]
    assert exit_code(report) == 0
    path = tmp_path / "clean.pt"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("archive/data.pkl", pickle.dumps({"acc": 0.9}, 2))
        archive.writestr("archive/extra/vals.csv", _CSV)
    report = scan_paths([str(path)], policy)
    assert (report.files[0].findings, report.files[0].errors) == ([], [])
    assert exit_code(report) == 0


def test_a_head_that_runs_out_undecided_is_decided_by_the_whole(tmp_path, policy):
    """Protocol-1 floats open with no import for longer than the head; ``N``
    repeated runs out with no STOP, so a loader runs nothing."""
    floats = pickle.dumps([0.5] * 100, 1)
    nones = b"N" * 600
    assert min(len(floats), len(nones)) > absvm.SNIFF_BYTES
    (tmp_path / "floats.bin").write_bytes(floats)
    (tmp_path / "nones.bin").write_bytes(nones)
    with zipfile.ZipFile(tmp_path / "both.zip", "w") as archive:
        archive.writestr("floats.bin", floats)
        archive.writestr("nones.bin", nones)
    both, floats_report, nones_report = scan_paths([str(tmp_path)], policy).files
    assert (both.findings, both.errors) == ([], [])
    assert (floats_report.kind, floats_report.findings, floats_report.errors) == ("pickle_stream", [], [])
    assert nones_report.kind == "unknown"
    assert [f.rule_id for f in nones_report.findings] == ["UNRECOGNIZED_FORMAT"]
    assert nones_report.errors == []


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

    def render_value(value, limit=absvm.ARG_SUMMARY_CAP, *args, **kwargs):
        limits.append(limit)
        return real_render(value, limit, *args, **kwargs)

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


def _repack(path, data: bytes, method: int) -> None:
    """Write the members of the ZIP ``data`` to ``path``, compressed with ``method``."""
    with zipfile.ZipFile(io.BytesIO(data)) as source, zipfile.ZipFile(path, "w", method) as target:
        for info in source.infolist():
            target.writestr(info.filename, source.read(info))


_BZIP2_AND_LZMA = pytest.mark.parametrize(
    "method", [zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA], ids=["bzip2", "lzma"]
)


@_BZIP2_AND_LZMA
def test_bzip2_and_lzma_keras_archives_report_the_lambda(tmp_path, method, capsys):
    target = tmp_path / "model.keras"
    _repack(target, emit_keras_zip(emit_keras_lambda_config(True)), method)
    assert cli_main(["scan", "--format", "json", str(target)]) == 3
    (scanned,) = json.loads(capsys.readouterr().out)["files"]
    assert [f["rule_id"] for f in scanned["findings"]] == ["KERAS_LAMBDA_CODE"]
    assert scanned["findings"][0]["locus"] == "config.json:config.layers[1]"
    assert scanned["errors"] == []


@_BZIP2_AND_LZMA
def test_corrupt_bzip2_and_lzma_members_are_inflate_errors_at_the_member(tmp_path, method, policy):
    target = tmp_path / "model.zip"
    _repack(target, emit_torch_like_zip(emit_reduce_payload_pickle(MARKER, 2)), method)
    blob = bytearray(target.read_bytes())
    (entry,) = [e for e in containers.list_entries(io.BytesIO(bytes(blob))) if e.path.endswith("data.pkl")]
    start = entry.offset + 30 + len(entry.path)
    blob[start + (4 if method == zipfile.ZIP_BZIP2 else 9)] ^= 0xFF  # see test_containers
    target.write_bytes(bytes(blob))
    report = scan_file(str(target), policy)
    assert [(error.kind, error.locus) for error in report.errors] == [("InflateError", entry.path)]
    assert [f.rule_id for f in report.findings] == ["FORMAT_PARSE_ERROR"]


@pytest.mark.parametrize(
    "from_end, errors",
    [
        (False, [("InflateError", "archive/payload.bin")]),
        (True, [("CrcMismatch", "archive/payload.bin"), ("UnknownOpcode", "archive/payload.bin:offset 3887")]),
    ],
    ids=["head", "tail"],
)
def test_a_member_that_cannot_be_inflated_is_reported(tmp_path, from_end, errors, capsys):
    """Eight flipped bytes where the sniff reads a deflated member, or 40
    bytes before its end: ``zipfile`` cannot read it either way.  At the
    head the scan reports the inflate fault at the member.  At the tail
    the stream still inflates, to bytes that fail the CRC-32: the scan
    reports that at the member, then the fault the walk meets in them."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("archive/payload.bin", pickle.dumps({f"k{i}": i for i in range(300)}, 2))
    blob = bytearray(buffer.getvalue())
    (entry,) = containers.list_entries(io.BytesIO(bytes(blob)))
    start = entry.offset + 30 + len(entry.path) + (entry.compressed_size - 40 if from_end else 0)
    blob[start : start + 8] = bytes(byte ^ 0xFF for byte in blob[start : start + 8])
    with zipfile.ZipFile(io.BytesIO(bytes(blob))) as archive, pytest.raises(
        (zlib.error, zipfile.BadZipFile)
    ):
        archive.read("archive/payload.bin")
    target = tmp_path / "model.zip"
    target.write_bytes(bytes(blob))
    assert cli_main(["scan", "--format", "json", str(target)]) == 2
    (scanned,) = json.loads(capsys.readouterr().out)["files"]
    assert [(e["kind"], e["locus"]) for e in scanned["errors"]] == errors
    assert [f["rule_id"] for f in scanned["findings"]] == ["FORMAT_PARSE_ERROR"] * len(errors)


def test_a_member_that_fails_its_crc_is_reported_and_still_walked(tmp_path, policy):
    """Eight flipped bytes 40 bytes before the end of a deflated pickle that
    still inflates to its declared size: ``zipfile`` refuses the bytes for
    their CRC-32, and the scan reports that at the member before the fault
    the walk meets in them."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("archive/payload.bin", pickle.dumps(list(range(2000)), 2))
    blob = bytearray(buffer.getvalue())
    (entry,) = containers.list_entries(io.BytesIO(bytes(blob)))
    start = entry.offset + 30 + len(entry.path) + entry.compressed_size - 40
    blob[start : start + 8] = bytes(byte ^ 0xFF for byte in blob[start : start + 8])
    with zipfile.ZipFile(io.BytesIO(bytes(blob))) as archive, pytest.raises(
        zipfile.BadZipFile, match="Bad CRC-32"
    ):
        archive.read("archive/payload.bin")
    target = tmp_path / "model.zip"
    target.write_bytes(bytes(blob))
    report = scan_file(str(target), policy)
    assert [(error.kind, error.locus) for error in report.errors] == [
        ("CrcMismatch", "archive/payload.bin"),
        ("UnknownOpcode", "archive/payload.bin:offset 5701"),
    ]
    declared = f"entry 'archive/payload.bin': declared CRC-32 {entry.crc:08x}, got "
    assert report.errors[0].message.startswith(declared)
    assert [f.rule_id for f in report.findings] == ["FORMAT_PARSE_ERROR", "FORMAT_PARSE_ERROR"]


@pytest.mark.parametrize(
    "archive, member, rule",
    [
        (emit_torch_like_zip(emit_reduce_payload_pickle(MARKER, 2)), "model/data.pkl", "PICKLE_CALL"),
        (emit_keras_zip(emit_keras_lambda_config(True)), "config.json", "KERAS_LAMBDA_CODE"),
    ],
    ids=["pickle", "config"],
)
def test_a_member_whose_declared_crc_lies_is_scanned_all_the_same(tmp_path, policy, archive, member, rule):
    """Every central header declares a wrong CRC-32: each member read whole
    is reported at the member, and its bytes still get their findings, as a
    loader that skips the check would run them.  Sniffed heads are not
    checked."""
    blob = bytearray(archive)
    at = blob.find(b"PK\x01\x02")
    while at >= 0:
        blob[at + 16 : at + 20] = bytes(byte ^ 0xFF for byte in blob[at + 16 : at + 20])
        at = blob.find(b"PK\x01\x02", at + 46)
    target = tmp_path / "model.zip"
    target.write_bytes(bytes(blob))
    report = scan_file(str(target), policy)
    assert [(error.kind, error.locus) for error in report.errors] == [("CrcMismatch", member)]
    assert rule in {f.rule_id for f in report.findings if f.entry == member}
    assert ("FORMAT_PARSE_ERROR", member) in {(f.rule_id, f.entry) for f in report.findings}


def _archive(members: dict[str, bytes], method: int) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", method) as archive:
        for path, data in members.items():
            archive.writestr(path, data)
    return buffer.getvalue()


_PAYLOAD = emit_reduce_payload_pickle(MARKER, 2)
# After the payload's STOP: SHORT_BINUNICODE, whose length (0x8c) runs past the end.
_TRAILED = {"archive/data.pkl": _PAYLOAD + b"\x8c" * 80}
_LAMBDA_CONFIG = emit_keras_lambda_config(True).encode()
_KERAS = {"metadata.json": b'{"keras_version": "3.4.0"}', "config.json": _LAMBDA_CONFIG}


@pytest.mark.parametrize(
    "members, method, payload, fields",
    [
        (_KERAS, zipfile.ZIP_DEFLATED, _LAMBDA_CONFIG, {"uncompressed_size": len(_LAMBDA_CONFIG) + 1000}),
        (_KERAS, zipfile.ZIP_DEFLATED, _LAMBDA_CONFIG, {"uncompressed_size": 0xFFFFFFFE}),
        (_TRAILED, zipfile.ZIP_DEFLATED, _PAYLOAD, {"uncompressed_size": len(_PAYLOAD), "crc": zlib.crc32(_PAYLOAD)}),
        (_KERAS, zipfile.ZIP_STORED, _LAMBDA_CONFIG, {"uncompressed_size": len(_LAMBDA_CONFIG) + 40}),
        (_TRAILED, zipfile.ZIP_STORED, _PAYLOAD, {"compressed_size": len(_PAYLOAD), "crc": zlib.crc32(_PAYLOAD)}),
    ],
    ids=[
        "deflated-config-over",
        "deflated-config-huge",
        "deflated-pickle-under",
        "stored-config-over",
        "stored-pickle-cut",
    ],
)
def test_a_member_whose_central_header_misstates_its_size_is_scanned_as_zipfile_reads_it(
    tmp_path, policy, members, method, payload, fields
):
    """The central header of the last member declares a size it does not
    have, and a CRC-32 that holds for the bytes ``zipfile`` returns: those
    stop at the declared uncompressed size, and for a stored member also at
    the compressed size.  The scan reads those bytes and reports the
    payload's findings, with no error, as for an archive that holds the
    payload alone."""
    path = list(members)[-1]
    patched = _archive(members, method)
    for field, value in fields.items():
        patched = with_central_field(patched, path, field, value)
    with zipfile.ZipFile(io.BytesIO(patched)) as reference:
        assert reference.read(path) == payload
    (tmp_path / "patched").mkdir()
    (tmp_path / "honest").mkdir()
    target = tmp_path / "patched" / "model.zip"
    target.write_bytes(patched)
    honest = tmp_path / "honest" / "model.zip"
    honest.write_bytes(_archive({**members, path: payload}, method))
    report = scan_paths([str(target)], policy)
    (scanned,) = report.files
    assert scanned.errors == []
    assert scanned.findings == scan_file(str(honest), policy).findings
    assert exit_code(report) == 3


@pytest.mark.parametrize(
    "name, archive, rule, severity",
    [
        ("model.pt", emit_torch_like_zip(emit_reduce_payload_pickle(MARKER, 2)), "PICKLE_CALL", Severity.CRITICAL),
        ("model.keras", emit_keras_zip(emit_keras_lambda_config(True)), "KERAS_LAMBDA_CODE", Severity.HIGH),
    ],
    ids=["pickle", "config"],
)
def test_an_end_record_that_counts_no_entries_hides_no_member(tmp_path, policy, name, archive, rule, severity):
    """Both entry counts of the end record are 0.  ``zipfile``, as loaders
    read an archive, lists the members from the central directory's size
    all the same, and so does the scan."""
    target = tmp_path / name
    target.write_bytes(with_entry_count(archive, 0))
    with zipfile.ZipFile(io.BytesIO(archive)) as original, zipfile.ZipFile(target) as reference:
        assert reference.namelist() == original.namelist()
    report = scan_paths([str(target)], policy)
    (scanned,) = report.files
    assert (rule, severity) in {(f.rule_id, f.severity) for f in scanned.findings}
    assert scanned.errors == []
    assert exit_code(report) == 3


def test_a_zip64_end_record_is_read_over_the_32_bit_one(tmp_path, policy, monkeypatch):
    """An archive with ZIP64 end records whose 32-bit end record, with no
    0xFFFFFFFF placeholder, covers only the first central header:
    ``zipfile`` takes the directory's size from the ZIP64 record whenever
    its locator precedes the end record, and so does the scan."""
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 64)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("metadata.json", b"{}")
        archive.writestr("config.json", emit_keras_lambda_config(True))
    monkeypatch.undo()
    data = bytearray(buffer.getvalue())
    eocd = data.rindex(b"PK\x05\x06")
    assert data[eocd - 20 : eocd - 16] == b"PK\x06\x07"
    directory = data.index(b"PK\x01\x02")
    first_header = data.index(b"PK\x01\x02", directory + 4) - directory
    struct.pack_into("<HHII", data, eocd + 8, 1, 1, first_header, directory)
    target = tmp_path / "model.keras"
    target.write_bytes(bytes(data))
    with zipfile.ZipFile(target) as reference:
        assert reference.namelist() == ["metadata.json", "config.json"]
    report = scan_paths([str(target)], policy)
    (scanned,) = report.files
    assert ("KERAS_LAMBDA_CODE", Severity.HIGH) in {(f.rule_id, f.severity) for f in scanned.findings}
    assert scanned.errors == []
    assert exit_code(report) == 3


def _zip64_archive(name: str, data: bytes, extra: bytes) -> bytes:
    """One stored member whose central header gives both 32-bit sizes as
    0xFFFFFFFF, the placeholder for a size in the ZIP64 extra field, and
    carries ``extra`` as its extra fields."""
    path = name.encode()
    crc = zlib.crc32(data)
    size = len(data)
    local = struct.pack("<4s5H3I2H", b"PK\x03\x04", 45, 0, 0, 0, 0x21, crc, size, size, len(path), 0)
    central = struct.pack(
        "<4s6H3I5H2I", b"PK\x01\x02", 45, 45, 0, 0, 0, 0x21, crc, 0xFFFFFFFF, 0xFFFFFFFF,
        len(path), len(extra), 0, 0, 0, 0, 0,
    ) + path + extra
    body = local + path + data
    end = struct.pack("<4s4H2IH", b"PK\x05\x06", 0, 0, 1, 1, len(central), len(body), 0)
    return body + central + end


def _scans_critical(tmp_path, policy, data: bytes) -> None:
    target = tmp_path / "model.zip"
    target.write_bytes(data)
    report = scan_paths([str(target)], policy)
    (scanned,) = report.files
    rules = {(f.rule_id, f.severity, f.locus) for f in scanned.findings}
    assert ("PICKLE_CALL", Severity.CRITICAL, "data.pkl:offset 40") in rules
    assert scanned.errors == []
    assert exit_code(report) == 3


def test_a_zip64_field_after_another_extra_field_gives_the_sizes(tmp_path, policy):
    """An extended-timestamp field (0x5455) before the ZIP64 one is
    skipped, and the sizes read are the ones ``zipfile`` reads."""
    stream = emit_reduce_payload_pickle(MARKER, 2)
    timestamp = struct.pack("<HHBI", 0x5455, 5, 1, 0)
    sizes = struct.pack("<HHQQ", 0x0001, 16, len(stream), len(stream))
    data = _zip64_archive("data.pkl", stream, timestamp + sizes)
    with zipfile.ZipFile(io.BytesIO(data)) as reference:
        (info,) = reference.infolist()
    (entry,) = containers.list_entries(io.BytesIO(data))
    assert (entry.uncompressed_size, entry.compressed_size) == (info.file_size, info.compress_size)
    assert entry.uncompressed_size == len(stream)
    _scans_critical(tmp_path, policy, data)


def test_a_zip64_field_without_the_compressed_size_is_read_for_the_other(tmp_path, policy):
    """Both 32-bit sizes are placeholders but the ZIP64 field holds only the
    uncompressed size.  ``zipfile`` refuses the archive; the scan is the more
    lenient reader, and reads the stored member from its uncompressed size."""
    stream = emit_reduce_payload_pickle(MARKER, 2)
    data = _zip64_archive("data.pkl", stream, struct.pack("<HHQ", 0x0001, 8, len(stream)))
    with pytest.raises(zipfile.BadZipFile, match="Corrupt zip64 extra field. Compress size not found."):
        zipfile.ZipFile(io.BytesIO(data))
    (entry,) = containers.list_entries(io.BytesIO(data))
    assert (entry.uncompressed_size, entry.compressed_size) == (len(stream), 0xFFFFFFFF)
    _scans_critical(tmp_path, policy, data)


def test_bzip2_and_lzma_members_stay_unsupported_without_their_modules(tmp_path):
    """An interpreter built without bz2 and lzma reads neither kind of member."""
    target = tmp_path / "model.keras"
    _repack(target, emit_keras_zip(emit_keras_lambda_config(True)), zipfile.ZIP_LZMA)
    driver = (
        "import sys\n"
        "sys.modules['bz2'] = sys.modules['lzma'] = None\n"  # each import raises ImportError
        "from modelsentry.cli import main\n"
        "sys.exit(main(['scan', '--format', 'json', sys.argv[1]]))\n"
    )
    source_root = os.path.dirname(os.path.dirname(modelsentry.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, os.environ.get("PYTHONPATH", "")])}
    completed = subprocess.run(
        [sys.executable, "-c", driver, str(target)], capture_output=True, text=True, env=env, timeout=60
    )
    assert completed.returncode == 2, completed.stderr
    (scanned,) = json.loads(completed.stdout)["files"]
    assert sorted(f["rule_id"] for f in scanned["findings"]) == [
        "ARCHIVE_UNSUPPORTED_METHOD", "ARCHIVE_UNSUPPORTED_METHOD", "FORMAT_PARSE_ERROR"
    ]
    assert [error["kind"] for error in scanned["errors"]] == ["UnsupportedMethod"]


def test_importing_the_cli_loads_neither_forge_nor_a_thread_pool():
    """Only the ``forge`` command imports the fixture writers, and scans run
    in one thread.  A launch loaded with the default policy has not paid for
    ``dataclasses`` or ``logging`` either: the records are plain classes, and
    only a scan's internal error logs."""
    driver = (
        "import sys\n"
        "import modelsentry.cli\n"
        "from modelsentry.policy import default_policy\n"
        "default_policy()\n"
        "names = ('modelsentry.forge', 'concurrent.futures', 'dataclasses', 'logging')\n"
        "print([name for name in names if name in sys.modules])\n"
    )
    source_root = os.path.dirname(os.path.dirname(modelsentry.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, os.environ.get("PYTHONPATH", "")])}
    completed = subprocess.run([sys.executable, "-c", driver], capture_output=True, text=True, env=env, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "[]\n"


def test_scan_keras3_lambda_reads_the_code_of_its_function_dict(tmp_path, policy):
    """Keras 3 saves a lambda as ``{"class_name": "__lambda__", "config":
    {"code": ...}}``, the code as ``func_dump`` encodes it: one
    KERAS_LAMBDA_CODE finding that measures and hashes it, no anomaly."""
    raw = marshal.dumps((lambda x: x * 2).__code__)
    function = {
        "class_name": "__lambda__",
        "config": {"code": codecs.encode(raw, "base64").decode("ascii"), "defaults": None, "closure": None},
    }
    lambda_layer = {
        "module": "keras.layers",
        "class_name": "Lambda",
        "config": {"name": "lambda", "function": function, "arguments": {}},
        "registered_name": None,
    }
    config = {"class_name": "Sequential", "config": {"name": "sequential", "layers": [lambda_layer]}}
    target = tmp_path / "model.keras"
    target.write_bytes(emit_keras_zip(json.dumps(config)))
    report = scan_file(str(target), policy)
    assert [f.rule_id for f in report.findings] == ["KERAS_LAMBDA_CODE"]
    finding = report.findings[0]
    assert finding.json_path == "config.layers[0]"
    assert f"({len(raw)} bytes of serialized code)" in finding.message
    assert f"sha256={hashlib.sha256(raw).hexdigest()}" in finding.evidence


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


def _holders_are_the_configs_own(extracted: containers.ExtractedConfig) -> bool:
    """The holders handed over are the very objects of the returned config
    that hold a ``layers`` or a ``layer`` key, none missing, in decode order."""
    return [id(h) for h in extracted.holders] == [id(h) for h in reference_holders(extracted.config)]


_LAMBDA_FOUND = ([("KERAS_LAMBDA_CODE", Severity.HIGH)], [])
_SURROGATE_LAMBDA = _LAMBDA_CONFIG.replace(b'"name": "lambda"', b'"name": "x\xed\xa0\x80y"')


@pytest.mark.parametrize(
    "member",
    [
        pytest.param(_SURROGATE_LAMBDA, id="encoded-surrogate"),
        pytest.param(_LAMBDA_CONFIG.decode().encode("utf-16"), id="utf-16"),
        pytest.param(b"\xef\xbb\xbf" + _LAMBDA_CONFIG, id="bom"),
    ],
)
def test_each_config_json_route_hands_over_the_holders_of_the_config_it_returns(
    tmp_path, policy, member
):
    """An encoded surrogate makes the decoder decode twice: the holders are
    the second decode's, as the config is."""
    extracted = containers.decode_config(member, whole=True)
    assert extracted.config == json.loads(member)
    assert extracted.holders and _holders_are_the_configs_own(extracted)
    keras = tmp_path / "model.keras"
    with zipfile.ZipFile(keras, "w") as archive:
        archive.writestr("config.json", member)
    assert _outcome(scan_file(str(keras), policy)) == _LAMBDA_FOUND


def test_an_h5_config_reached_after_cut_short_windows_hands_over_its_holders(
    tmp_path, policy, monkeypatch
):
    config = json.loads(_LAMBDA_CONFIG)
    config["pad"] = "x" * (4 * containers._FIRST_WINDOW)
    body = emit_keras_h5(json.dumps(config))
    decoded = []
    decode = containers.decode_config

    def recording(*args, **kwargs):
        decoded.append(decode(*args, **kwargs))
        return decoded[-1]

    monkeypatch.setattr(containers, "decode_config", recording)
    extracted = containers.extract_h5_model_config(io.BytesIO(body))
    assert decoded[0] is None and decoded[-1] is extracted  # a window was cut short
    assert extracted.config == config
    assert _holders_are_the_configs_own(extracted)
    target = tmp_path / "model.h5"
    target.write_bytes(body)
    assert _outcome(scan_file(str(target), policy)) == _LAMBDA_FOUND


def test_an_h5_candidate_after_a_benign_decoy_hands_over_its_own_holders(tmp_path, policy):
    decoy = json.dumps({"class_name": "Sequential", "config": {"layers": []}})
    body = emit_keras_h5(decoy) + emit_keras_h5(_LAMBDA_CONFIG.decode())
    first = containers.extract_h5_model_config(io.BytesIO(body))
    second = containers.extract_h5_model_config(io.BytesIO(body), first.byte_range[1])
    assert (first.config, second.config) == (json.loads(decoy), json.loads(_LAMBDA_CONFIG))
    assert _holders_are_the_configs_own(first) and _holders_are_the_configs_own(second)
    target = tmp_path / "decoy.h5"
    target.write_bytes(body)
    assert _outcome(scan_file(str(target), policy)) == _LAMBDA_FOUND


def test_the_walk_runs_only_on_a_config_that_can_report(tmp_path, policy, monkeypatch):
    """A benign config is decoded but never walked; a Lambda config is walked
    once, and a benign decoy before it not at all."""
    walks = []
    walk = scanner.walk_layers

    def counting(*args, **kwargs):
        walks.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(scanner, "walk_layers", counting)
    dense = emit_dense_only_config()
    files = {
        "dense.keras": (emit_keras_zip(dense), 0),
        "dense.h5": (emit_keras_h5(dense), 0),
        "lambda.keras": (emit_keras_zip(_LAMBDA_CONFIG.decode()), 1),
        "lambda.h5": (emit_keras_h5(_LAMBDA_CONFIG.decode()), 1),
        "lambda_by_name.h5": (emit_keras_h5(emit_keras_lambda_config(False)), 1),
        "decoy.h5": (emit_keras_h5(dense) + emit_keras_h5(_LAMBDA_CONFIG.decode()), 1),
    }
    counts = {}
    for name, (data, _) in files.items():
        target = tmp_path / name
        target.write_bytes(data)
        walks.clear()
        report = scan_file(str(target), policy)
        counts[name] = len(walks)
        assert report.errors == []
        assert all("Lambda" in json.dumps(config) for config in walks)
    assert counts == {name: expected for name, (_, expected) in files.items()}


@pytest.mark.parametrize(
    "stream, findings",
    [
        pytest.param(
            b"\x80\x04)\x8c\x06system\x93\x8c\x02ls\x85R.",
            [
                (
                    "PICKLE_DYNAMIC_GLOBAL", Severity.HIGH,
                    "import target is computed at load time, not written literally",
                ),
                (
                    "PICKLE_CALL", Severity.HIGH,
                    "load-time call to dynamically computed callee with 1 argument(s)",
                ),
            ],
            id="dynamic-callee",
        ),
        pytest.param(
            b"\x80\x02U\x02hi)R.",
            [("PICKLE_CALL", Severity.MEDIUM, "load-time call to unresolvable callee with 0 argument(s)")],
            id="unresolvable-callee",
        ),
    ],
)
def test_a_call_whose_callee_is_no_global_is_reported(tmp_path, policy, stream, findings):
    path = tmp_path / "call.pkl"
    path.write_bytes(stream)
    report = scan_file(str(path), policy)
    assert [(f.rule_id, f.severity, f.message) for f in report.findings] == findings
    assert report.errors == []


@pytest.mark.parametrize(
    "stream, evidence",
    [
        pytest.param(
            b"\x80\x02cos\nsystem\nq\x000h\x00ccollections\nOrderedDict\nq\x000X\x02\x00\x00\x00ls\x85R.",
            "('ls')",
            id="callee",
        ),
        pytest.param(
            b"\x80\x02cos\nsystem\n]q\x000h\x00]q\x000X\x07\x00\x00\x00payloada]q\x000\x85R.",
            "(['payload'])",
            id="appended-list",
        ),
    ],
)
def test_a_memo_index_put_again_after_its_get_is_judged_as_the_loader_reads_it(
    tmp_path, policy, stream, evidence
):
    """A decoy PUT under the index a GET read, before the call or the
    APPEND that uses it: pickle.py's loader calls os.system all the same,
    with the list it read."""
    path = tmp_path / "rebound.pkl"
    path.write_bytes(stream)
    report = scan_file(str(path), policy)
    calls = [(f.severity, f.message, f.evidence) for f in report.findings if f.rule_id == "PICKLE_CALL"]
    assert calls == [(Severity.CRITICAL, "load-time call to os.system with 1 argument(s)", evidence)]


def _lambda_archive(function: object = None, layers: object = None) -> bytes:
    """The forged Lambda ``.keras`` with its ``function`` or its ``layers``
    node replaced."""
    config = json.loads(emit_keras_lambda_config(True))
    if function is not None:
        config["config"]["layers"][1]["config"]["function"] = function
    if layers is not None:
        config["config"]["layers"] = layers
    return emit_keras_zip(json.dumps(config))


_NO_PAYLOAD = (
    "KERAS_LAMBDA_CODE", Severity.HIGH,
    "Lambda layer lambda embeds executable code (no decodable code payload)",
    "config.json:config.layers[1]",
)
_FUNCTION = "config.json:config.layers[1].config.function"


@pytest.mark.parametrize(
    "data, findings",
    [
        pytest.param(
            _lambda_archive(layers=[{"class_name": "Lambda", "name": "top_name", "config": "x"}]),
            [
                (
                    "KERAS_LAMBDA_CODE", Severity.HIGH,
                    "Lambda layer top_name embeds executable code (no decodable code payload)",
                    "config.json:config.layers[0]",
                ),
            ],
            id="config-not-an-object",
        ),
        pytest.param(
            _lambda_archive(function=[12345, None, None]),
            [
                _NO_PAYLOAD,
                (
                    "KERAS_MALFORMED_CONFIG", Severity.LOW,
                    "MalformedConfig: unrecognized function encoding (list)", _FUNCTION,
                ),
            ],
            id="function-not-a-string",
        ),
        pytest.param(
            _lambda_archive(function=["not base64!!", None, None]),
            [
                _NO_PAYLOAD,
                (
                    "KERAS_MALFORMED_CONFIG", Severity.LOW,
                    "Base64Error: undecodable payload: ", _FUNCTION,
                ),
            ],
            id="function-not-base64",
        ),
        pytest.param(
            _lambda_archive(layers={"0": {"class_name": "Lambda"}}),
            [
                (
                    "KERAS_MALFORMED_CONFIG", Severity.LOW,
                    "MalformedConfig: layers node is not an array", "config.json:config.layers",
                ),
            ],
            id="layers-an-object",
        ),
    ],
)
def test_malformed_lambda_configs_are_reported(tmp_path, policy, data, findings):
    """Each finding's message starts with the one given (a Base64Error
    goes on with the codec's own words)."""
    path = tmp_path / "model.keras"
    path.write_bytes(data)
    report = scan_file(str(path), policy)
    got = [(f.rule_id, f.severity, f.message, f.locus) for f in report.findings]
    assert len(got) == len(findings)
    for (rule, severity, message, locus), (want_rule, want_severity, prefix, want_locus) in zip(got, findings):
        assert (rule, severity, locus) == (want_rule, want_severity, want_locus)
        assert message.startswith(prefix), message
    assert report.errors == []


def _nested_lambda_probe(name: str) -> tuple[bytes, str]:
    """The bytes of the file ``name`` and the JSON path of the forged
    Lambda it nests: after a pad of a million values, in an inner
    Sequential or a TimeDistributed wrapper, or inside 150 nested
    Sequentials (about 450 JSON levels)."""
    sequential = json.loads(emit_keras_lambda_config(True))
    if name.startswith("deep"):
        node, path = sequential, "config.layers[1]"
        for _ in range(150):
            node = {"class_name": "Sequential", "config": {"layers": [node]}}
            path = "config.layers[0]." + path
        emit = emit_keras_h5 if name.endswith(".h5") else emit_keras_zip
        return emit(json.dumps(node)), path
    if name == "wrapped.keras":
        lambda_layer = sequential["config"]["layers"][1]
        layer = {"class_name": "TimeDistributed", "config": {"name": "td", "layer": lambda_layer}}
        path = "config.layers[0].config.layer"
    else:
        layer, path = sequential, "config.layers[0].config.layers[1]"
    outer = {"class_name": "Sequential", "config": {"name": "outer", "pad": [0] * 1_000_001, "layers": [layer]}}
    return emit_keras_zip(json.dumps(outer)), path


@pytest.mark.parametrize("name", ["nested.keras", "wrapped.keras", "deep.keras", "deep.h5"])
def test_a_lambda_past_a_million_values_or_deep_in_a_config_is_found(tmp_path, policy, capsys, name):
    """The walk has no node or depth budget: a config within CONFIG_CAP
    that the decoder parses is walked to its end, so a nested Lambda
    is HIGH and the scan exits 3."""
    data, path = _nested_lambda_probe(name)
    target = tmp_path / name
    target.write_bytes(data)
    report = scan_file(str(target), policy)
    lambdas = [f for f in report.findings if f.rule_id == "KERAS_LAMBDA_CODE"]
    entry = None if name.endswith(".h5") else "config.json"
    assert [(f.severity, f.entry, f.json_path) for f in lambdas] == [(Severity.HIGH, entry, path)]
    assert not any("budget" in f.message for f in report.findings)
    assert report.errors == []
    assert cli_main(["scan", str(target)]) == 3
    capsys.readouterr()


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


def test_an_h5_file_that_stops_being_hdf5_mid_scan_ends_the_candidate_loop(
    tmp_path, policy, monkeypatch
):
    """A file rewritten after the sniff no longer starts with the signature:
    the NotHdf5 that the next candidate search raises has no place to resume
    from, so it ends the loop as a reported error, not an InternalError."""
    target = tmp_path / "swapped.h5"
    target.write_bytes(emit_keras_h5(emit_dense_only_config()) * 2)
    extract = containers.extract_h5_model_config
    calls = []

    def swapped_after_one(handle, start=0):
        calls.append(start)
        if len(calls) == 2:
            raise containers.NotHdf5()
        return extract(handle, start)

    monkeypatch.setattr(containers, "extract_h5_model_config", swapped_after_one)
    report = scan_file(str(target), policy)
    assert len(calls) == 2
    assert sorted(f.rule_id for f in report.findings) == ["FORMAT_PARSE_ERROR", "H5_HEURISTIC_USED"]
    assert [(e.kind, e.message) for e in report.errors] == [
        ("NotHdf5", "file does not start with the HDF5 signature")
    ]


def test_scan_weights_only_h5_is_clean(tmp_path, policy):
    target = tmp_path / "weights.h5"
    target.write_bytes(b"\x89HDF\r\n\x1a\n" + b"\x00" * 256)
    report = scan_file(str(target), policy)
    assert report.findings == []
    assert report.errors == []


def _archive_with_bad_second_header(first: str, second: str, pickle_stream: bytes) -> bytes:
    """A text member then a pickle member, the second local header's
    signature broken in its last byte."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(first, b"hello")
        archive.writestr(second, pickle_stream)
    data = bytearray(buffer.getvalue())
    data[data.index(b"PK\x03\x04", 1) + 3] = 5
    return bytes(data)


@pytest.mark.parametrize(
    "data, error, locus",
    [
        pytest.param(
            b"PK\x05\x06" + b"\x00" * 8 + struct.pack("<II", 0x20000001, 0) + b"\x00" * 2,
            ("CorruptHeader", "", "corrupt header at offset 0: central directory size 536870913 too large"),
            "-",
            id="central-directory-too-large",
        ),
        pytest.param(
            _archive_with_bad_second_header("a.txt", "model/blob", b"\x80\x02N." * 200),
            ("CorruptHeader", "model/blob", "corrupt header at offset 40: bad local file header signature"),
            "model/blob",
            id="bad-local-header-signature",
        ),
        # The head of the REDUCE pickle reads as empty, which decides
        # nothing, so the member is read whole, and that read reports it.
        pytest.param(
            _archive_with_bad_second_header("readme.txt", "model/blob.bin", emit_reduce_payload_pickle(MARKER, 2)),
            ("CorruptHeader", "model/blob.bin", "corrupt header at offset 45: bad local file header signature"),
            "model/blob.bin",
            id="bad-local-header-signature-over-a-payload",
        ),
    ],
)
def test_a_corrupt_archive_header_is_a_parse_error(tmp_path, policy, data, error, locus):
    target = tmp_path / "corrupt.zip"
    target.write_bytes(data)
    report = scan_paths([str(target)], policy)
    (scanned,) = report.files
    assert [(e.kind, e.locus, e.message) for e in scanned.errors] == [error]
    assert [(f.rule_id, f.locus) for f in scanned.findings] == [("FORMAT_PARSE_ERROR", locus)]
    assert exit_code(report) == 2


def test_scan_archive_with_traversal_member(tmp_path, policy):
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(zipfile.ZipInfo("../../escape.txt"), b"data")
    target = tmp_path / "evil.zip"
    target.write_bytes(buffer.getvalue())
    report = scan_file(str(target), policy)
    finding = next(f for f in report.findings if f.rule_id == "ARCHIVE_PATH_TRAVERSAL")
    assert finding.severity is Severity.HIGH


def test_long_member_paths_are_clipped_in_messages_and_evidence(tmp_path, policy):
    """A finding names a member by the whole path in its locus, and by its
    clipped head in its message and evidence, so the JSON report stays
    smaller than an archive of long member paths."""
    names = [f"../{n}" + "a" * 65_000 for n in range(8)]
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name in names:
            archive.writestr(zipfile.ZipInfo(name), b"")
        archive.writestr(zipfile.ZipInfo("b" * 65_000), b"")
    data = bytearray(buffer.getvalue())
    central = data.rindex(b"PK\x01\x02")  # the last member's central header
    data[central + 8] |= 1  # its general-purpose flags: encrypted
    target = tmp_path / "long.zip"
    target.write_bytes(data)
    report = scan_paths([str(target)], policy)
    (scanned,) = report.files
    traversals = [f for f in scanned.findings if f.rule_id == "ARCHIVE_PATH_TRAVERSAL"]
    assert sorted(f.entry for f in traversals) == names
    for finding in traversals:
        shown = absvm.clip(finding.entry)
        assert finding.message == f"member path {shown!r} escapes the extraction root"
        assert finding.evidence == shown
    (locked,) = [f for f in scanned.findings if f.rule_id == "ARCHIVE_UNSUPPORTED_METHOD"]
    assert locked.entry == "b" * 65_000
    assert locked.message == f"member {absvm.clip(locked.entry)!r} is not inspectable (encrypted)"
    assert len(render(report, "json")) < len(data)


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


def test_a_string_with_an_unknown_escape_scans_without_a_warning(tmp_path, policy):
    """``S'\\l'`` makes both stdlib loaders warn; the walk and the scan of
    it raise nothing under warnings as errors."""
    stream = b"S'\\l'\n."
    for loader in (pickle.Unpickler, pickle._Unpickler):
        with pytest.warns(DeprecationWarning, match="invalid escape sequence"):
            assert loader(io.BytesIO(stream)).load() == "\\l"
    target = tmp_path / "escape.pkl"
    target.write_bytes(stream)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (result,) = absvm.walk(stream)
        report = scan_file(str(target), policy)
    assert result.error is None and result.root == "\\l"
    assert (report.findings, report.errors) == ([], [])


@pytest.mark.parametrize(
    "stream, message",
    [
        (b"S'\\g\\x4'\n.", "undecodable string line: invalid \\x escape at position 2"),
        (
            b"S'\xff'\n.",
            "undecodable string line: 'ascii' codec can't decode byte 0xff in position 0: "
            "ordinal not in range(128)",
        ),
    ],
    ids=["bad-hex-escape", "non-ascii"],
)
def test_a_string_line_that_does_not_decode_is_a_parse_error(tmp_path, policy, stream, message):
    """The loader fails on both lines; so does the scan, at the op."""
    with pytest.raises(ValueError), stdlib_escape_warnings_ignored():
        pickle._Unpickler(io.BytesIO(stream)).load()
    report = _scan_stream(tmp_path, policy, stream)
    assert [(e.kind, e.locus, e.message) for e in report.errors] == [("TruncatedArgument", "offset 0", message)]


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


def test_a_segment_reports_the_fault_a_loader_meets_first(tmp_path, policy):
    # REDUCE underflows at offset 2, before byte 0xff fails to decode at offset 3.
    report = _scan_stream(tmp_path, policy, b"N.R\xff.")
    assert [(e.kind, e.locus) for e in report.errors] == [("StackUnderflow", "offset 2")]
    assert [f.rule_id for f in report.findings] == ["FORMAT_PARSE_ERROR"]


def test_a_missing_mark_is_reported_where_the_loader_fails(tmp_path, policy):
    # LIST finds no MARK at offset 0; the bytes then run out before a STOP at offset 4.
    stream = b"lNNN"
    with pytest.raises(pickle.UnpicklingError, match="could not find MARK"):
        pickle.loads(stream)
    (tmp_path / "l.pkl").write_bytes(stream)
    report = scan_file(str(tmp_path / "l.pkl"), policy)
    assert [(e.kind, e.locus, e.message) for e in report.errors] == [
        ("BadMark", "offset 0", "no MARK on metastack")
    ]
    (finding,) = report.findings
    assert (finding.rule_id, finding.offset) == ("FORMAT_PARSE_ERROR", 0)
    assert finding.message == "pickle stream is not loadable: no MARK on metastack"


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
        if "defect" in absvm.render_value(machine.stack[-1]):
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


def test_sarif_uri_is_a_percent_encoded_path(tmp_path, policy):
    """A space is no URI character, and "#" would start a fragment; a name
    byte that is not UTF-8 (a lone surrogate in the path) is that byte."""
    names = {b"run #1 model.pkl": "run%20%231%20model.pkl", b"\xff.pkl": "%FF.pkl"}
    for name in names:
        with open(os.fsencode(tmp_path) + b"/" + name, "wb") as handle:
            handle.write(emit_reduce_payload_pickle(MARKER, 2))
    run = json.loads(render(scan_paths([str(tmp_path)], policy), "sarif"))["runs"][0]
    uris = {r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"] for r in run["results"]}
    assert uris == {f"{quote(str(tmp_path))}/{uri}" for uri in names.values()}


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
    """The JSON render of the seed-0 corpus is the golden file, byte for byte,
    so a change in formatting fails here as well as a change in content."""
    golden_path = os.path.join(os.path.dirname(__file__), "data", "golden_report.json")
    with open(golden_path, "rb") as handle:
        golden = handle.read()
    monkeypatch.chdir(tmp_path)
    emit_corpus("corpus", seed=0)
    report = scan_paths(["corpus"], policy)
    assert render(report, "json") == golden


def test_an_unknown_report_format_is_refused(policy):
    report = scan_paths([], policy)
    with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
        render(report, "xml")


@pytest.mark.parametrize("which", ["corpus", "empty", "odd_path"])
def test_json_and_sarif_renders_are_the_indented_json_dumps(which, tmp_path, policy, monkeypatch):
    """Both JSON renders are ``json.dumps(value, indent=2)`` and a newline,
    byte for byte, on the corpus, on an empty report, and on a path that
    needs escaping in JSON and percent-encoding in its SARIF URI."""
    monkeypatch.chdir(tmp_path)
    if which == "corpus":
        emit_corpus("corpus", seed=0)
        report = scan_paths(["corpus"], policy)
    elif which == "empty":
        report = scan_paths([], policy)
    else:
        # A space, a non-ASCII character and a byte that is not UTF-8, which
        # the path holds as a lone surrogate.
        target = os.fsencode(tmp_path) + b"/run 1 \xc3\xa9\xff.pkl"
        with open(target, "wb") as handle:
            handle.write(emit_reduce_payload_pickle(MARKER, 2))
        report = scan_paths([os.fsdecode(target)], policy)
        assert "\udcff" in report.files[0].path and report.files[0].findings
    assert render(report, "sarif") == (json.dumps(_render_sarif(report), indent=2) + "\n").encode()
    assert render(report, "json") == (json.dumps(report_to_dict(report), indent=2) + "\n").encode()


_JSON_TEXT = st.text(st.characters(blacklist_categories=()))
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=30,
)


def _nested(depth: int) -> object:
    value: object = [{}, [], "\udcff\x00\U0001f600", -(2**70), True, None]
    for level in range(depth):
        value = {f"k{level}": value, "": []} if level % 2 else [value, {}]
    return value


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example({})
@example([])
@example(_nested(9))
def test_report_encoder_is_json_dumps_indented(value):
    assert _dumps_indented(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, [0.0], (1, 2), {"a": (1,)}, {1: "a"}, {"a": {None: 1}}])
def test_report_encoder_refuses_what_a_report_never_holds(value):
    """json.dumps would write these (a float, a tuple as a list, a key made a
    string), but a report holds none of them: an error, not a silent change."""
    with pytest.raises(TypeError):
        _dumps_indented(value)


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


def test_a_directory_that_cannot_be_listed_is_an_io_error(tmp_path, policy, monkeypatch):
    """A directory the walk cannot list (say, one without read permission)
    is an IOError entry under its own path, and the file beside it is still
    scanned.  The refusal is injected: a root process lists any directory."""
    (tmp_path / "a.pkl").write_bytes(pickle.dumps([1, 2, 3], 2))
    locked = tmp_path / "locked"
    locked.mkdir()
    (locked / "b.pkl").write_bytes(pickle.dumps([1, 2, 3], 2))
    scandir = os.scandir

    def refusing(path="."):
        if os.fspath(path) == str(locked):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing)
    report = scan_paths([str(tmp_path)], policy)
    assert [(f.path, [(e.kind, e.message) for e in f.errors]) for f in report.files] == [
        (str(tmp_path / "a.pkl"), []),
        (str(locked), [("IOError", f"[Errno 13] Permission denied: '{locked}'")]),
    ]


def test_a_directory_gone_after_it_is_listed_is_still_walked(tmp_path, policy, monkeypatch):
    """Following symlinks, a directory whose ``stat`` fails after the walk
    listed it (removed in between) has what was listed walked, with no
    error."""
    tree = tmp_path / "d"
    tree.mkdir()
    (tree / "a.pkl").write_bytes(pickle.dumps([1, 2, 3], 2))
    stat = os.stat
    refused = []

    def gone(path, *args, **kwargs):
        if os.fspath(path) == str(tree):
            refused.append(path)
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", os.fspath(path))
        return stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", gone)
    report = scan_paths([str(tmp_path)], policy, follow_symlinks=True)
    assert refused
    assert [(f.path, f.errors) for f in report.files] == [(str(tree / "a.pkl"), [])]


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


def test_disasm_refuses_a_named_pipe_without_waiting(tmp_path, capsys):
    pipe = tmp_path / "named.pipe"
    os.mkfifo(pipe)
    with alarm(10.0):
        assert cli_main(["disasm", str(pipe)]) == 2
    assert "not a regular file" in capsys.readouterr().err


def test_disasm_refuses_an_over_size_file_before_reading_it(tmp_path, capsys, monkeypatch):
    """As ``scan_file`` does, ``disasm`` compares the size with
    MAX_STREAM_BYTES first: no byte of a longer file is read."""
    target = tmp_path / "big.pkl"
    target.write_bytes(b"\x80\x02" + b"N0" * 8 + b"N.")  # 20 bytes

    class Unread(io.RawIOBase):
        def read(self, *args):
            pytest.fail("an over-size file was read")

    @contextlib.contextmanager
    def sized(path):
        yield Unread(), os.path.getsize(path)

    monkeypatch.setattr(disasm, "MAX_STREAM_BYTES", 19)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "open_regular", sized)
        assert cli_main(["disasm", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "modelsentry: parse error: offset 0: limit exceeded: max_stream_bytes\n"
    monkeypatch.setattr(disasm, "MAX_STREAM_BYTES", 20)  # at the bound it is read
    assert cli_main(["disasm", str(target)]) == 0


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


@pytest.mark.parametrize("command", ["scan", "verify"])
def test_cli_unknown_threshold_is_operational_error(tmp_path, capsys, command):
    target = tmp_path / "p.pkl"
    target.write_bytes(emit_reduce_payload_pickle(MARKER, 2))
    args = [command, str(target), "--threshold", "bogus"]
    if command == "verify":
        manifest = tmp_path / "integrity.json"
        manifest.write_text("{}")
        args[1:1] = ["--manifest", str(manifest)]
    assert cli_main(args) == 2
    assert "unknown severity 'bogus'" in capsys.readouterr().err


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


def test_cli_forge_into_a_path_under_a_file_is_operational_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli_main(["forge", "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("modelsentry: forge failed:")


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


def test_cli_disasm_listing_is_pinned_byte_for_byte(tmp_path, capsys):
    """Every branch of the listing's format: an argless op, the name pair
    of GLOBAL and INST, a repr'd str, bytes, int, bool and float, the
    trailing-byte note of a padded two-segment stream, and a parse error
    on stderr after the segments that decoded."""
    target = tmp_path / "listing.pkl"
    target.write_bytes(
        b"\x80\x02cos\nsystem\n(X\x03\x00\x00\x00h'iC\x02a\x00J\xff\xff\xff\xffG"
        + struct.pack(">d", 2.5)
        + b"I01\nF-0.5\ntR.(ibuiltins\nprint\n.\x00\x00"
    )
    assert cli_main(["disasm", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "       0 PROTO 2\n"
        "       2 GLOBAL os system\n"
        "      13 MARK\n"
        "      14 BINUNICODE \"h'i\"\n"
        "      22 SHORT_BINBYTES b'a\\x00'\n"
        "      26 BININT -1\n"
        "      31 BINFLOAT 2.5\n"
        "      40 INT True\n"
        "      44 FLOAT -0.5\n"
        "      50 TUPLE\n"
        "      51 REDUCE\n"
        "      52 STOP\n"
        "      53 MARK\n"
        "      54 INST builtins print\n"
        "      70 STOP\n"
        "# 2 trailing byte(s)\n"
    )
    assert captured.err == ""
    target.write_bytes(b"N.\xff")
    assert cli_main(["disasm", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "       0 NONE\n       1 STOP\n"
    assert captured.err == "modelsentry: parse error: offset 2: unknown opcode byte 0xff\n"


def test_cli_forge_and_verify_flow(tmp_path, capsys):
    corpus = tmp_path / "c"
    assert cli_main(["forge", "--out", str(corpus), "--seed", "0"]) == 0
    assert DEFAULT_MARKER.encode() in (corpus / "mal_reduce_p2.pkl").read_bytes()
    custom = tmp_path / "custom"
    assert cli_main(["forge", "--out", str(custom), "--marker", "true # CLI-MARKER"]) == 0
    assert b"true # CLI-MARKER" in (custom / "mal_reduce_p2.pkl").read_bytes()
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
        finding = Finding("PICKLE_CALL", severity, "m")
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
