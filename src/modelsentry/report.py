"""Report rendering: text lines, the canonical JSON schema, and SARIF 2.1.0.

The JSON form is the determinism contract: it is a pure function of the
scanned bytes, the policy, and the tool version, so timing fields never
appear in it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from urllib.parse import quote

from .policy import RULE_CATALOG, Severity
from .scanner import ScanReport

# The exit codes of the CLI contract, and the only ones it returns.
EXIT_OK = 0
EXIT_OPERATIONAL = 2
EXIT_FINDINGS = 3

_SARIF_LEVELS = {
    Severity.INFO: "note",
    Severity.LOW: "note",
    Severity.MEDIUM: "warning",
    Severity.HIGH: "error",
    Severity.CRITICAL: "error",
}


def report_to_dict(report: ScanReport) -> dict:
    """The canonical JSON report structure (field names are a contract)."""
    files = []
    for file_report in report.files:
        files.append(
            {
                "path": file_report.path,
                "kind": file_report.kind,
                "findings": [
                    {
                        "rule_id": finding.rule_id,
                        "severity": finding.severity.name,
                        "locus": finding.locus,
                        "message": finding.message,
                        "evidence": finding.evidence,
                    }
                    for finding in file_report.findings
                ],
                "errors": [
                    {"kind": error.kind, "locus": error.locus, "message": error.message}
                    for error in file_report.errors
                ],
            }
        )
    return {
        "version": report.tool_version,
        "policy_digest": report.policy_digest,
        "files": files,
        "summary": report.summary(),
    }


def _printable(text: str) -> str:
    """``text`` with each non-printable character escaped, so that a hostile
    name (a newline in a member name) cannot forge a report line."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode() for c in text)


def _render_text(report: ScanReport) -> str:
    lines: list[str] = []
    for file_report in report.files:
        path = _printable(file_report.path)
        for finding in file_report.findings:
            lines.append(
                f"{finding.severity.name} {finding.rule_id} "
                f"{path}:{_printable(finding.locus)} {_printable(finding.message)}"
            )
        for error in file_report.errors:
            locus = _printable(error.locus or "-")
            lines.append(f"ERROR {error.kind} {path}:{locus} {_printable(error.message)}")
    summary = report.summary()
    lines.append(
        "summary: "
        + " ".join(f"{name}={summary[name]}" for name in ("critical", "high", "medium", "low", "info"))
        + f" files={len(report.files)}"
    )
    return "\n".join(lines) + "\n"


def _render_sarif(report: ScanReport) -> dict:
    rules = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": _SARIF_LEVELS[rule.default_severity]},
        }
        for rule in sorted(RULE_CATALOG.values(), key=lambda rule: rule.rule_id)
    ]
    results = []
    notifications = []
    for file_report in report.files:
        # A URI reference: a space or a "#" in a path is percent-encoded.
        uri = quote(file_report.path, safe="/", errors="surrogateescape")
        for finding in file_report.findings:
            location: dict = {"physicalLocation": {"artifactLocation": {"uri": uri}}}
            # A member's offset is into the member, not the file: the message names it.
            if finding.offset is not None and finding.entry is None:
                location["physicalLocation"]["region"] = {"byteOffset": finding.offset}
            message = finding.message
            if finding.locus != "-":
                message = f"{message} [{finding.locus}]"
            results.append(
                {
                    "ruleId": finding.rule_id,
                    "level": _SARIF_LEVELS[finding.severity],
                    "message": {"text": message},
                    "locations": [location],
                }
            )
        for error in file_report.errors:
            location = {"physicalLocation": {"artifactLocation": {"uri": uri}}}
            if error.locus:
                location["message"] = {"text": error.locus}
            notifications.append(
                {
                    "level": "error",
                    "message": {"text": f"{error.kind}: {error.message}"},
                    "locations": [location],
                }
            )
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "modelsentry",
                        "version": report.tool_version,
                        "rules": rules,
                    }
                },
                "invocations": [
                    {
                        "executionSuccessful": not report.has_errors(),
                        "toolExecutionNotifications": notifications,
                    }
                ],
                "results": results,
            }
        ],
    }


def _dumps_indented(value: object) -> str:
    """``json.dumps(value, indent=2) + "\n"``, for the types a report holds.

    On Python 3.11 ``json.dumps`` takes its C encoder only without
    ``indent``; with it, every nesting level is a Python generator that each
    output chunk passes up through.  Here one recursive function appends to
    one list.  Values are dicts with ``str`` keys, lists, strings, ints,
    bools and None; any other type raises ``TypeError``, so the output never
    differs from ``json.dumps`` without notice.  Each distinct string is
    escaped once per call (``encode_basestring_ascii`` is ``json``'s C
    escaper): a file's URI, a repeated call's message and its evidence recur.
    """
    chunks: list[str] = []
    append = chunks.append
    escaped: dict[str, str] = {}

    def emit(value: object, newline: str) -> None:
        if isinstance(value, str):
            text = escaped.get(value)
            if text is None:
                text = escaped[value] = encode_basestring_ascii(value)
            append(text)
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = newline + "  "
            separator = "{" + inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                text = escaped.get(key)
                if text is None:
                    text = escaped[key] = encode_basestring_ascii(key)
                append(separator)
                append(text)
                append(": ")
                emit(item, inner)
                separator = "," + inner
            append(newline + "}")
        elif isinstance(value, list):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            separator = "[" + inner
            for item in value:
                append(separator)
                emit(item, inner)
                separator = "," + inner
            append(newline + "]")
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    emit(value, "\n")
    append("\n")
    return "".join(chunks)


def render(report: ScanReport, format: str = "text") -> bytes:
    """Serialize a report; formats: text, json, sarif."""
    if format == "text":
        return _render_text(report).encode("utf-8")
    if format == "json":
        return _dumps_indented(report_to_dict(report)).encode("ascii")
    if format == "sarif":
        return _dumps_indented(_render_sarif(report)).encode("ascii")
    raise ValueError(f"unknown report format {format!r}")


def exit_code(report: ScanReport) -> int:
    """CI contract: findings at/over threshold, else operational errors, else clean."""
    worst = report.max_severity()
    if worst is not None and worst >= report.exit_severity_threshold:
        return EXIT_FINDINGS
    if report.has_errors():
        return EXIT_OPERATIONAL
    return EXIT_OK
