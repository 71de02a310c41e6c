"""Scan orchestration: sniff a file, route it to parsers, collect findings.

Per-file scans are pure functions of the file bytes and the policy; a
directory scan runs them one after another in one thread, since parsing
holds the GIL.  Nothing in this module writes anywhere; the only output
is the returned report structure.
"""

from __future__ import annotations

import contextlib
import os
import stat
from typing import BinaryIO, Iterator

from . import absvm, containers, disasm
from .absvm import Record, set_field
from .kerascfg import ConfigAnomaly, may_report, walk_layers
from .policy import (
    FileContext,
    Finding,
    IntegrityManifest,
    Policy,
    Severity,
    apply_keras_rules,
    apply_rules,
    call_severity,
    verify_integrity,
)

TOOL_VERSION = "0.1.0"


class ScanError(Record, frozen=True):
    __slots__ = ("kind", "locus", "message")

    def __init__(self, kind: str, locus: str, message: str):
        set_field(self, "kind", kind)
        set_field(self, "locus", locus)
        set_field(self, "message", message)


class FileReport(Record):
    __slots__ = ("path", "kind", "findings", "errors")

    def __init__(
        self,
        path: str,
        kind: str,
        findings: list[Finding] | None = None,
        errors: list[ScanError] | None = None,
    ):
        self.path = path
        self.kind = kind
        self.findings = [] if findings is None else findings
        self.errors = [] if errors is None else errors


class ScanReport(Record):
    __slots__ = ("tool_version", "policy_digest", "files", "exit_severity_threshold")

    def __init__(
        self,
        tool_version: str,
        policy_digest: str,
        files: list[FileReport],
        exit_severity_threshold: Severity = Severity.HIGH,
    ):
        self.tool_version = tool_version
        self.policy_digest = policy_digest
        self.files = files
        self.exit_severity_threshold = exit_severity_threshold

    def summary(self) -> dict[str, int]:
        counts = {"critical": 0, "high": 0, "medium": 0, "low": 0, "info": 0}
        for file_report in self.files:
            for finding in file_report.findings:
                counts[finding.severity.name.lower()] += 1
        return counts

    def has_errors(self) -> bool:
        return any(file_report.errors for file_report in self.files)

    def max_severity(self) -> Severity | None:
        worst: Severity | None = None
        for file_report in self.files:
            for finding in file_report.findings:
                if worst is None or finding.severity > worst:
                    worst = finding.severity
        return worst


def sniff(first_bytes: bytes, length: int, name: str = "") -> str:
    """Classify the file ``name`` of ``length`` bytes by its first bytes,
    magic first, then ``absvm.is_pickle``: one of ``zip_archive``, ``hdf5``,
    ``pickle_stream`` (also when undecided) or ``unknown``."""
    if first_bytes.startswith((containers.ZIP_LOCAL_MAGIC, containers.ZIP_EOCD_MAGIC)):
        return "zip_archive"
    if first_bytes.startswith(containers.HDF5_SIGNATURE):
        return "hdf5"
    if absvm.is_pickle(name, first_bytes, length <= len(first_bytes)) is not False:
        return "pickle_stream"
    return "unknown"


def _parse_error(
    report: FileReport,
    ctx: FileContext,
    exc: disasm.Fault,
    what: str,
    message: str | None = None,
) -> None:
    """Record the fault ``exc`` (a ParseError, VmError or FormatError) in
    ``report`` as a FORMAT_PARSE_ERROR finding at its offset plus the
    matching error entry, both at the finding's locus.  ``message``
    replaces the fault's own."""
    message = exc.message if message is None else message
    finding = ctx.finding("FORMAT_PARSE_ERROR", f"{what}: {message}", offset=exc.offset)
    report.findings.append(finding)
    report.errors.append(ScanError(exc.kind, "" if finding.locus == "-" else finding.locus, message))


def _scan_pickle_bytes(data: bytes, ctx: FileContext, policy: Policy, report: FileReport) -> bool:
    """Decode, evaluate, and apply rules to every stream segment in one pass.

    A segment that fails still has the events it recorded before its error
    put through the rules: a loader runs those ops before it fails.  Each
    failing segment's ``fault``, the first one a loader meets there, is
    listed: that of the segment a ParseError ended the walk on first, then
    the others in segment order.  Bytes that ``absvm.is_pickle`` takes for
    no pickle get nothing, and False.
    """
    # One classify memo for the whole stream: the walk renders evidence only
    # for the calls apply_rules reports, and both look each root up here.
    classified: dict = {}

    def keep_call(root: tuple[str, str] | None) -> bool:
        return call_severity(root, policy, classified)[0] is not None

    faults: list[disasm.Fault] = []
    for result in absvm.walk(data, keep_call):
        if result.segment == 0 and not absvm.is_pickle(ctx.entry or ctx.path, data, True, result):
            return False
        if result.events:  # apply_rules makes no finding without an event
            report.findings.extend(apply_rules(result, policy, ctx, classified))
        if isinstance(result.error, disasm.ParseError):
            faults.insert(0, result.fault)
        elif result.fault is not None:
            faults.append(result.fault)
    for fault in faults:
        if isinstance(fault, disasm.ParseError):
            what = "pickle segment could not be parsed"
        else:
            what = "pickle stream is not loadable"
        _parse_error(report, ctx, fault, what)
    return True


def _scan_keras_config(
    extracted: containers.ExtractedConfig, ctx: FileContext, policy: Policy, report: FileReport
) -> None:
    # Only these classes earn a finding, so only they are recorded.
    classes = {"Lambda", *policy.extra_custom_layer_classes}
    if not may_report(extracted.config, extracted.holders, classes):
        return  # the walk would record nothing and note no anomaly
    anomalies: list[ConfigAnomaly] = []
    records = walk_layers(extracted.config, anomalies, classes)
    report.findings.extend(apply_keras_rules(records, anomalies, policy, ctx))


def _record_member_errors(
    report: FileReport, errors: list[tuple[containers.ArchiveEntry, containers.FormatError]]
) -> None:
    for entry, exc in errors:
        if isinstance(exc, containers.CrcMismatch):
            what = "archive member is damaged"
        else:
            what = "archive member could not be read"
        _parse_error(report, FileContext(report.path, entry.path), exc, what)


def _scan_zip(handle, policy: Policy, entry_cap: int, report: FileReport) -> None:
    path = report.path
    try:
        entries = containers.list_entries(handle)
    except containers.FormatError as exc:
        _parse_error(report, FileContext(path), exc, "archive could not be read")
        return
    for entry in entries:
        member = FileContext(path, entry.path)
        shown = absvm.clip(entry.path)
        if entry.suspicious_path:
            message = f"member path {shown!r} escapes the extraction root"
            report.findings.append(member.finding("ARCHIVE_PATH_TRAVERSAL", message, evidence=shown))
        if not entry.readable:
            detail = "encrypted" if entry.encrypted else entry.method
            message = f"member {shown!r} is not inspectable ({detail})"
            report.findings.append(member.finding("ARCHIVE_UNSUPPORTED_METHOD", message))
    # Failed reads and CRC-32 mismatches.  A member that fails its CRC-32 is
    # scanned all the same: a loader that skips the check reads it.
    errors: list[tuple[containers.ArchiveEntry, containers.FormatError]] = []
    payloads = containers.find_pickle_payloads(entries, handle, cap=entry_cap, errors=errors)
    _record_member_errors(report, errors)
    for entry, data in payloads:
        _scan_pickle_bytes(data, FileContext(path, entry.path), policy, report)
    for entry in entries:
        if entry.path.rsplit("/", 1)[-1] != "config.json":
            continue
        errors = []
        try:
            # Passed straight in, so the decoder frees the bytes before it parses (3.11+).
            extracted = containers.decode_config(
                containers.read_entry(handle, entry, containers.CONFIG_CAP, errors=errors), whole=True
            )
        except containers.FormatError as exc:
            errors.append((entry, exc))
        else:
            _scan_keras_config(extracted, FileContext(path, entry.path), policy, report)
        _record_member_errors(report, errors)


def _scan_hdf5(handle, policy: Policy, report: FileReport) -> None:
    """Check every ``model_config`` candidate: a benign decoy placed before
    the real attribute must not hide it.

    The heuristic notice and the extraction error are each recorded once per
    file, for the first candidate, with a count of the others: a file of
    many candidates must not grow the report with its size.
    """
    ctx = FileContext(report.path)
    first_range: tuple[int, int] | None = None
    recovered = 0
    first_error: containers.FormatError | None = None
    failed = 0
    start = 0
    while True:
        try:
            extracted = containers.extract_h5_model_config(handle, start)
        except containers.ConfigNotFound:
            break  # no candidate left; none at all means a weights-only file
        except containers.FormatError as exc:
            if first_error is None:
                # Detached, the kept error pins none of the window read.
                first_error = exc.detach()
            failed += 1
            if exc.end_offset is None:
                break
            start = exc.end_offset
            continue
        if first_range is None:
            first_range = extracted.byte_range
        recovered += 1
        _scan_keras_config(extracted, ctx, policy, report)
        start = extracted.byte_range[1]
    if first_range is not None:
        others = f"; {recovered - 1} more after it" if recovered > 1 else ""
        message = (
            "model config recovered via attribute-scan heuristic "
            f"(bytes {first_range[0]}..{first_range[1]}{others})"
        )
        report.findings.append(ctx.finding("H5_HEURISTIC_USED", message, offset=first_range[0]))
    if first_error is not None:
        message = first_error.message
        if failed > 1:
            message += f" ({failed - 1} more candidate(s) failed)"
        what = "embedded model config could not be extracted"
        _parse_error(report, ctx, first_error, what, message=message)


@contextlib.contextmanager
def open_regular(path: str) -> Iterator[tuple[BinaryIO, int]]:
    """A regular file opened for reading, with its size.  The open does not
    wait for a writer on a named pipe; anything that is not a regular file
    raises OSError."""
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as handle:
        info = os.fstat(handle.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise OSError("not a regular file")
        yield handle, info.st_size


def scan_file(
    path: str,
    policy: Policy,
    entry_cap: int = containers.DEFAULT_ENTRY_CAP,
) -> FileReport:
    """Scan one file; every failure becomes an error entry, never an exception.

    ``entry_cap`` bounds each archive member's inflated size.
    """
    report = FileReport(path, "unknown")
    try:
        with open_regular(path) as (handle, size):
            head = handle.read(absvm.SNIFF_BYTES)
            report.kind = sniff(head, size, path)
            if report.kind == "pickle_stream" and size > disasm.MAX_STREAM_BYTES:
                # Refused before it is read: no part of it was parsed.
                refused = disasm.LimitExceeded(0, "max_stream_bytes")
                report.errors.append(ScanError(refused.kind, "offset 0", refused.message))
            elif report.kind == "pickle_stream":
                handle.seek(0)
                if not _scan_pickle_bytes(handle.read(), FileContext(path), policy, report):
                    report.kind = "unknown"
            elif report.kind == "zip_archive":
                _scan_zip(handle, policy, entry_cap, report)
            elif report.kind == "hdf5":
                _scan_hdf5(handle, policy, report)
            if report.kind == "unknown":
                message = "unrecognized format; nothing scanned"
                report.findings.append(FileContext(path).finding("UNRECOGNIZED_FORMAT", message))
    except OSError as exc:
        report.errors.append(ScanError("IOError", "", str(exc)))
    except Exception as exc:
        # A defect in a parser must cost only this file, not the whole scan.
        # Imported here, at its one use, so that no launch pays for it.
        import logging

        logging.getLogger("modelsentry").debug("internal error scanning %s", path, exc_info=True)
        report.errors.append(ScanError("InternalError", "", f"{type(exc).__name__}: {exc}"))
    report.findings.sort(key=lambda finding: finding.sort_key())
    return report


def _collect_files(
    root: str, follow_symlinks: bool, errors: list[tuple[str, str]]
) -> list[str]:
    """The files under ``root``.  Following symlinks, each directory is
    walked once, under the first path that reaches it in sorted walk order,
    so neither a link cycle nor a lattice of links multiplies the walk."""
    collected: list[str] = []
    walked: set[tuple[int, int]] = set()  # (st_dev, st_ino) of each directory walked

    def on_error(exc: OSError) -> None:
        errors.append((getattr(exc, "filename", root) or root, str(exc)))

    for dirpath, dirnames, filenames in os.walk(
        root, followlinks=follow_symlinks, onerror=on_error
    ):
        if follow_symlinks:
            try:
                info = os.stat(dirpath)
            except OSError:
                info = None  # listed, yet gone: walk what was listed
            if info is not None:
                key = (info.st_dev, info.st_ino)
                if key in walked:
                    dirnames.clear()
                    continue
                walked.add(key)
            dirnames.sort()
        for name in filenames:
            full = os.path.join(dirpath, name)
            if not follow_symlinks and os.path.islink(full):
                continue
            collected.append(full)
    return collected


def scan_paths(
    paths: list[str],
    policy: Policy,
    entry_cap: int = containers.DEFAULT_ENTRY_CAP,
    jobs: int = 1,
    follow_symlinks: bool = False,
    threshold: Severity = Severity.HIGH,
) -> ScanReport:
    """Scan files and directory trees, one file after another, into one
    deterministic report.  ``jobs`` is ignored: it is kept only because
    ``bench/child.py`` passes it."""
    walk_errors: list[tuple[str, str]] = []
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(_collect_files(path, follow_symlinks, walk_errors))
        elif os.path.exists(path):
            files.append(path)
        else:
            walk_errors.append((path, "no such file or directory"))
    files = sorted(set(files))
    reports = [scan_file(path, policy, entry_cap) for path in files]
    for bad_path, message in walk_errors:
        reports.append(
            FileReport(
                path=bad_path,
                kind="unknown",
                errors=[ScanError("IOError", "", message)],
            )
        )
    reports.sort(key=lambda r: r.path)
    return ScanReport(
        tool_version=TOOL_VERSION,
        policy_digest=policy.digest(),
        files=reports,
        exit_severity_threshold=threshold,
    )


def verify_paths(
    paths: list[str],
    manifest: IntegrityManifest,
    policy: Policy,
    threshold: Severity = Severity.HIGH,
) -> ScanReport:
    """Digest-check files against an integrity manifest, as a report."""
    reports: list[FileReport] = []
    for path in sorted(set(paths)):
        ctx = FileContext(path)
        report = FileReport(path, "unknown")
        try:
            with open_regular(path) as (handle, _size):
                outcome = verify_integrity(handle, path, manifest)
            if outcome.status == "mismatch":
                message = (
                    f"digest mismatch: manifest has {outcome.expected}, "
                    f"file is {outcome.actual}"
                )
                report.findings.append(ctx.finding("INTEGRITY_MISMATCH", message))
            elif outcome.status == "not-listed":
                message = "file is not listed in the integrity manifest"
                report.findings.append(ctx.finding("INTEGRITY_MISMATCH", message, Severity.LOW))
        except OSError as exc:
            report.errors.append(ScanError("IOError", "", str(exc)))
        reports.append(report)
    return ScanReport(
        tool_version=TOOL_VERSION,
        policy_digest=policy.digest(),
        files=reports,
        exit_severity_threshold=threshold,
    )
