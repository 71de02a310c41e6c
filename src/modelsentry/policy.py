"""Policy evaluation: events and layer records in, findings out.

A Policy is an immutable table of allowed and denied (module, name)
patterns plus per-rule severities.  Patterns are exact names or a single
trailing ``*``; an exact match always beats a prefix match, and deny beats
allow on ties.  The shipped default policy denies the shell-capable
standard library surface and allows the globals that benign checkpoints
from the mainstream frameworks actually reference.

Also home to the finding catalog and the integrity-manifest checker.
"""

from __future__ import annotations

import enum
import hashlib
import json
from functools import cached_property
from importlib import resources
from typing import BinaryIO, Iterable

from . import absvm
from .absvm import Record, set_field
from .kerascfg import ConfigAnomaly, LayerRecord


class Severity(enum.IntEnum):
    INFO = 10
    LOW = 20
    MEDIUM = 30
    HIGH = 40
    CRITICAL = 50

    @classmethod
    def parse(cls, text: str) -> "Severity":
        if not isinstance(text, str):
            raise ValueError(f"severity must be a string, got {text!r}")
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None

    def __str__(self) -> str:
        return self.name


class RuleInfo(Record, frozen=True):
    __slots__ = ("rule_id", "default_severity", "description")

    def __init__(self, rule_id: str, default_severity: Severity, description: str):
        set_field(self, "rule_id", rule_id)
        set_field(self, "default_severity", default_severity)
        set_field(self, "description", description)


RULE_CATALOG: dict[str, RuleInfo] = {
    rule.rule_id: rule
    for rule in (
        RuleInfo(
            "PICKLE_DANGEROUS_GLOBAL",
            Severity.CRITICAL,
            "Pickle stream resolves a module global that is denied by policy or unknown.",
        ),
        RuleInfo(
            "PICKLE_CALL",
            Severity.CRITICAL,
            "Pickle stream invokes a callable whose chain root is denied or unknown.",
        ),
        RuleInfo(
            "PICKLE_RESIDUAL_STACK",
            Severity.HIGH,
            "Objects remain on the stack after STOP: a payload was built before the visible root.",
        ),
        RuleInfo(
            "PICKLE_DYNAMIC_GLOBAL",
            Severity.HIGH,
            "STACK_GLOBAL import target is computed at load time instead of written literally.",
        ),
        RuleInfo(
            "PICKLE_TRAILING_DATA",
            Severity.INFO,
            "Bytes follow the final STOP opcode.",
        ),
        RuleInfo(
            "PICKLE_OOB_BUFFER",
            Severity.INFO,
            "Stream requests out-of-band buffers (protocol 5).",
        ),
        RuleInfo(
            "PICKLE_FRAME_MISMATCH",
            Severity.INFO,
            "FRAME length does not line up with instruction boundaries.",
        ),
        RuleInfo(
            "KERAS_LAMBDA_CODE",
            Severity.HIGH,
            "Lambda layer in the model config; arbitrary code runs on load or predict.",
        ),
        RuleInfo(
            "KERAS_LAMBDA_REF",
            Severity.MEDIUM,
            "Lambda layer referencing a function by name; resolution happens at load time.",
        ),
        RuleInfo(
            "KERAS_CUSTOM_LAYER",
            Severity.HIGH,
            "Custom-computation layer class flagged by policy.",
        ),
        RuleInfo(
            "KERAS_MALFORMED_CONFIG",
            Severity.LOW,
            "Model config contains nodes the analyzer could not interpret.",
        ),
        RuleInfo(
            "ARCHIVE_PATH_TRAVERSAL",
            Severity.HIGH,
            "Archive member path escapes the extraction root.",
        ),
        RuleInfo(
            "ARCHIVE_UNSUPPORTED_METHOD",
            Severity.MEDIUM,
            "Archive member is encrypted or uses an exotic compression method.",
        ),
        RuleInfo(
            "H5_HEURISTIC_USED",
            Severity.INFO,
            "Model config recovered via the bounded HDF5 heuristic, not a full parse.",
        ),
        RuleInfo(
            "INTEGRITY_MISMATCH",
            Severity.CRITICAL,
            "File digest does not match the integrity manifest (or the file is unlisted).",
        ),
        RuleInfo(
            "FORMAT_PARSE_ERROR",
            Severity.LOW,
            "A stream or entry inside the file could not be parsed.",
        ),
        RuleInfo(
            "UNRECOGNIZED_FORMAT",
            Severity.INFO,
            "File does not look like any supported model format.",
        ),
    )
}


class Finding(Record, frozen=True):
    __slots__ = ("rule_id", "severity", "message", "evidence", "entry", "offset", "json_path")

    def __init__(
        self,
        rule_id: str,
        severity: Severity,
        message: str,
        evidence: str = "",
        entry: str | None = None,
        offset: int | None = None,
        json_path: str | None = None,
    ):
        set_field(self, "rule_id", rule_id)
        set_field(self, "severity", severity)
        set_field(self, "message", message)
        set_field(self, "evidence", evidence)
        set_field(self, "entry", entry)
        set_field(self, "offset", offset)
        set_field(self, "json_path", json_path)

    @property
    def locus(self) -> str:
        parts: list[str] = []
        if self.entry:
            parts.append(self.entry)
        if self.offset is not None:
            parts.append(f"offset {self.offset}")
        if self.json_path:
            parts.append(self.json_path)
        return ":".join(parts) if parts else "-"

    def sort_key(self) -> tuple:
        return (
            self.entry or "",
            self.offset if self.offset is not None else -1,
            self.json_path or "",
            self.rule_id,
            self.message,
        )


class FileContext(Record, frozen=True):
    __slots__ = ("path", "entry")

    def __init__(self, path: str, entry: str | None = None):
        set_field(self, "path", path)
        set_field(self, "entry", entry)

    def finding(
        self,
        rule_id: str,
        message: str,
        severity: Severity | None = None,
        evidence: str = "",
        offset: int | None = None,
        json_path: str | None = None,
    ) -> Finding:
        """A finding in this file and entry.  Its severity is the rule's
        catalog default unless the policy or the rule sets another."""
        if severity is None:
            severity = RULE_CATALOG[rule_id].default_severity
        return Finding(rule_id, severity, message, evidence, self.entry, offset, json_path)


# ---------------------------------------------------------------------------
# Policy


class DenyEntry(Record, frozen=True):
    __slots__ = ("module", "name", "severity")

    def __init__(self, module: str, name: str, severity: Severity = Severity.CRITICAL):
        set_field(self, "module", module)
        set_field(self, "name", name)
        set_field(self, "severity", severity)


class AllowEntry(Record, frozen=True):
    __slots__ = ("module", "name")

    def __init__(self, module: str, name: str):
        set_field(self, "module", module)
        set_field(self, "name", name)


class Disposition(Record, frozen=True):
    __slots__ = ("verdict", "severity")

    def __init__(self, verdict: str, severity: Severity | None = None):
        set_field(self, "verdict", verdict)  # "deny" | "allow" | "unknown"
        set_field(self, "severity", severity)


# Each key of a policy file's "severities" object, with the Policy field it sets.
_SEVERITY_KEYS = (
    ("unknown_global", "unknown_global_severity"),
    ("lambda_code", "lambda_severity"),
    ("lambda_ref", "lambda_ref_severity"),
    ("residual_stack", "residual_stack_severity"),
    ("dynamic_global", "dynamic_global_severity"),
)


class Policy(Record, frozen=True):
    # ``__dict__`` holds the ``cached_property`` below; it is not a field.
    __slots__ = (
        "deny", "allow", "unknown_global_severity", "lambda_severity", "lambda_ref_severity",
        "residual_stack_severity", "dynamic_global_severity", "extra_custom_layer_classes",
        "__dict__",
    )

    def __init__(
        self,
        deny: tuple[DenyEntry, ...] = (),
        allow: tuple[AllowEntry, ...] = (),
        unknown_global_severity: Severity = Severity.MEDIUM,  # unlike the rest, no one rule owns it
        lambda_severity: Severity = RULE_CATALOG["KERAS_LAMBDA_CODE"].default_severity,
        lambda_ref_severity: Severity = RULE_CATALOG["KERAS_LAMBDA_REF"].default_severity,
        residual_stack_severity: Severity = RULE_CATALOG["PICKLE_RESIDUAL_STACK"].default_severity,
        dynamic_global_severity: Severity = RULE_CATALOG["PICKLE_DYNAMIC_GLOBAL"].default_severity,
        extra_custom_layer_classes: tuple[str, ...] = (),
    ):
        set_field(self, "deny", deny)
        set_field(self, "allow", allow)
        set_field(self, "unknown_global_severity", unknown_global_severity)
        set_field(self, "lambda_severity", lambda_severity)
        set_field(self, "lambda_ref_severity", lambda_ref_severity)
        set_field(self, "residual_stack_severity", residual_stack_severity)
        set_field(self, "dynamic_global_severity", dynamic_global_severity)
        set_field(self, "extra_custom_layer_classes", extra_custom_layer_classes)

    def to_json_dict(self) -> dict:
        return {
            "deny": [
                {"module": d.module, "name": d.name, "severity": d.severity.name}
                for d in self.deny
            ],
            "allow": [{"module": a.module, "name": a.name} for a in self.allow],
            "severities": {key: getattr(self, attr).name for key, attr in _SEVERITY_KEYS},
            "custom_layer_classes": list(self.extra_custom_layer_classes),
        }

    def digest(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @cached_property
    def _lookup(self) -> tuple[_Index, _Index]:
        """The deny and allow entries indexed for ``classify_global``, built
        on first use and kept for the life of this (immutable) policy."""
        return _index(self.deny), _index(self.allow)


def _pattern_matches(pattern: str, text: str) -> bool:
    if pattern.endswith("*"):
        return text.startswith(pattern[:-1])
    return pattern == text


def _specificity(module_pattern: str, name_pattern: str) -> tuple[int, int]:
    exact = (not module_pattern.endswith("*")) + (not name_pattern.endswith("*"))
    length = len(module_pattern.rstrip("*")) + len(name_pattern.rstrip("*"))
    return (exact, length)


# An entry as ``(specificity, -position, entry)``: sorted in descending
# order, the most specific come first and, among equals, the first listed.
_Ranked = tuple[tuple[int, int], int, "DenyEntry | AllowEntry"]
# Entries with an exact module pattern, by module; then those with a module
# prefix pattern.  Each group is sorted most specific first.
_Index = tuple[dict[str, tuple[_Ranked, ...]], tuple[_Ranked, ...]]


def _index(entries: Iterable[DenyEntry | AllowEntry]) -> _Index:
    by_module: dict[str, list[_Ranked]] = {}
    prefixed: list[_Ranked] = []
    for position, entry in enumerate(entries):
        ranked = (_specificity(entry.module, entry.name), -position, entry)
        if entry.module.endswith("*"):
            prefixed.append(ranked)
        else:
            by_module.setdefault(entry.module, []).append(ranked)
    # -position is unique, so the sort never compares two entries.
    return (
        {module: tuple(sorted(group, reverse=True)) for module, group in by_module.items()},
        tuple(sorted(prefixed, reverse=True)),
    )


def _best_match(index: _Index, module: str, name: str) -> _Ranked | None:
    """The most specific entry matching (module, name); the first listed wins
    a tie.  None when nothing matches."""
    by_module, prefixed = index
    best = None
    for ranked in by_module.get(module, ()):
        if _pattern_matches(ranked[2].name, name):
            best = ranked
            break
    for ranked in prefixed:
        if best is not None and ranked < best:
            break
        entry = ranked[2]
        if module.startswith(entry.module[:-1]) and _pattern_matches(entry.name, name):
            return ranked
    return best


def classify_global(
    module: str, name: str, policy: Policy
) -> tuple[Disposition, str | None]:
    """Deterministic precedence: exact deny > exact allow > prefix deny >
    prefix allow > Unknown; within a tier, longer patterns win and the first
    listed wins a tie; deny wins exact ties."""
    deny_index, allow_index = policy._lookup
    best_deny = _best_match(deny_index, module, name)
    best_allow = _best_match(allow_index, module, name)
    if best_deny is not None and (best_allow is None or best_deny[0] >= best_allow[0]):
        entry = best_deny[2]
        return (
            Disposition("deny", entry.severity),
            f"{entry.module}.{entry.name}",
        )
    if best_allow is not None:
        entry = best_allow[2]
        return (Disposition("allow"), f"{entry.module}.{entry.name}")
    return (Disposition("unknown"), None)


_DEFAULT_POLICY: Policy | None = None


_POLICY_KEYS = ("deny", "allow", "severities", "custom_layer_classes")
_ENTRY_KEYS = {"deny": ("module", "name", "severity"), "allow": ("module", "name")}


def _check_keys(raw: dict, known: Iterable[str], what: str) -> None:
    """A misspelled key would be ignored and weaken the policy: reject it."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def _pattern_entry(item: object, kind: str) -> tuple[str, str]:
    if (
        not isinstance(item, dict)
        or not isinstance(item.get("module"), str)
        or not isinstance(item.get("name"), str)
    ):
        raise ValueError(f"{kind} entries need string 'module' and 'name' fields, got {item!r}")
    _check_keys(item, _ENTRY_KEYS[kind], f"{kind} entry")
    return item["module"], item["name"]


def _policy_from_dict(raw: dict, base: Policy | None = None) -> Policy:
    policy = base if base is not None else Policy()
    _check_keys(raw, _POLICY_KEYS, "policy")
    for key in ("deny", "allow"):
        if not isinstance(raw.get(key, []), list):
            raise ValueError(f"'{key}' must be a list of entries")
    deny = list(policy.deny)
    for item in raw.get("deny", []):
        module, name = _pattern_entry(item, "deny")
        severity = Severity.parse(item.get("severity", "CRITICAL"))
        deny.append(DenyEntry(module, name, severity))
    allow = list(policy.allow)
    for item in raw.get("allow", []):
        module, name = _pattern_entry(item, "allow")
        allow.append(AllowEntry(module, name))
    severities = raw.get("severities", {})
    if not isinstance(severities, dict):
        raise ValueError("'severities' must be an object")
    _check_keys(severities, (key for key, _ in _SEVERITY_KEYS), "severities")
    custom_raw = raw.get("custom_layer_classes", [])
    if not isinstance(custom_raw, list) or not all(isinstance(c, str) for c in custom_raw):
        raise ValueError("'custom_layer_classes' must be a list of strings")
    return Policy(
        tuple(deny),
        tuple(allow),
        extra_custom_layer_classes=tuple(policy.extra_custom_layer_classes) + tuple(custom_raw),
        **{
            attr: Severity.parse(severities[key]) if key in severities else getattr(policy, attr)
            for key, attr in _SEVERITY_KEYS
        },
    )


def _load_json_object(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except RecursionError:
            raise ValueError(f"{what} is nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must contain a JSON object")
    return raw


def default_policy() -> Policy:
    """The shipped policy (loaded once from the packaged data file)."""
    global _DEFAULT_POLICY
    if _DEFAULT_POLICY is None:
        raw = json.loads(
            resources.files("modelsentry").joinpath("data/default_policy.json").read_text("utf-8")
        )
        _DEFAULT_POLICY = _policy_from_dict(raw, base=Policy())
    return _DEFAULT_POLICY


def load_policy_file(path: str) -> Policy:
    """Load a user policy file; its entries extend the shipped defaults."""
    return _policy_from_dict(_load_json_object(path, "policy file"), base=default_policy())


# ---------------------------------------------------------------------------
# Rule application


def _classify(
    module: str, name: str, policy: Policy, memo: dict
) -> tuple[Severity | None, str | None]:
    """The severity a reference to ``module.name`` earns (None when it is
    allowed) and the deny pattern that set it (None when unknown).

    Memoized in ``memo``: a dict the caller keeps for one stream only, so
    hostile names cannot pile up across files."""
    key = (module, name)
    if key not in memo:
        disposition, pattern = classify_global(module, name, policy)
        if disposition.verdict == "deny":
            memo[key] = (disposition.severity, pattern)
        elif disposition.verdict == "unknown":
            memo[key] = (policy.unknown_global_severity, None)
        else:
            memo[key] = (None, None)
    return memo[key]


def _global_finding(
    module: str, name: str, offset: int, policy: Policy, ctx: FileContext, memo: dict
) -> Finding | None:
    severity, pattern = _classify(module, name, policy, memo)
    if severity is None:
        return None
    shown = f"{absvm.clip(module)}.{absvm.clip(name)}"
    if pattern is None:
        message = f"resolves global {shown} not present in the allowlist"
    else:
        message = f"resolves denied global {shown} (policy entry {pattern})"
    return ctx.finding("PICKLE_DANGEROUS_GLOBAL", message, severity, evidence=shown, offset=offset)


def call_severity(
    root: tuple[str, str] | None, policy: Policy, memo: dict
) -> tuple[Severity | None, str]:
    """Severity for a CallMade event given its chain root; None means allowed.
    ``memo`` is the per-stream ``_classify`` memo, as in ``apply_rules``."""
    if root is None:
        severity, label = policy.unknown_global_severity, "unresolvable callee"
    elif root == ("<dynamic>", "<dynamic>"):
        severity, label = policy.dynamic_global_severity, "dynamically computed callee"
    else:
        module, name = root
        severity = _classify(module, name, policy, memo)[0]
        if severity is None:
            return (None, "")
        label = f"{absvm.clip(module)}.{absvm.clip(name)}"
    return (max(severity, Severity.MEDIUM), label)


def apply_rules(
    result: absvm.AbstractResult,
    policy: Policy,
    file_context: FileContext,
    classified: dict | None = None,
) -> list[Finding]:
    """Map one evaluated program's events to findings, in event order.

    A program names few distinct globals but may resolve or call them
    thousands of times; each is matched against the policy once, and kept
    in ``classified``.  A caller may pass one such dict for all programs of
    a stream; a fresh one is used otherwise.
    """
    findings: list[Finding] = []
    ctx = file_context
    memo = {} if classified is None else classified
    for event in result.events:
        offset = event.at_offset
        if isinstance(event, absvm.GlobalResolved):
            finding = _global_finding(event.module, event.name, offset, policy, ctx, memo)
            if finding is not None:
                findings.append(finding)
        elif isinstance(event, absvm.DynamicGlobal):
            message = "import target is computed at load time, not written literally"
            severity = policy.dynamic_global_severity
            findings.append(ctx.finding("PICKLE_DYNAMIC_GLOBAL", message, severity, offset=offset))
        elif isinstance(event, absvm.CallMade):
            severity, label = call_severity(event.root, policy, memo)
            if severity is not None:
                argc = "?" if event.argc is None else str(event.argc)
                message = f"load-time call to {label} with {argc} argument(s)"
                findings.append(
                    ctx.finding(
                        "PICKLE_CALL", message, severity, evidence=event.arg_summary, offset=offset
                    )
                )
        elif isinstance(event, absvm.ResidualStack):
            message = (
                f"{event.depth} value(s) left on the stack after STOP; "
                "an injected payload was built before the visible root"
            )
            severity = policy.residual_stack_severity
            findings.append(ctx.finding("PICKLE_RESIDUAL_STACK", message, severity, offset=offset))
        elif isinstance(event, absvm.TrailingData):
            message = f"{event.byte_count} byte(s) after the final STOP"
            findings.append(ctx.finding("PICKLE_TRAILING_DATA", message, offset=offset))
        elif isinstance(event, absvm.OutOfBandBuffer):
            message = "stream expects out-of-band buffers"
            findings.append(ctx.finding("PICKLE_OOB_BUFFER", message, offset=offset))
        elif isinstance(event, absvm.FrameMismatch):
            message = "FRAME length does not match instruction boundaries"
            findings.append(ctx.finding("PICKLE_FRAME_MISMATCH", message, offset=offset))
    return findings


def apply_keras_rules(
    records: Iterable[LayerRecord],
    anomalies: Iterable[ConfigAnomaly],
    policy: Policy,
    file_context: FileContext,
) -> list[Finding]:
    """Findings for flagged layers and config anomalies."""
    findings: list[Finding] = []
    ctx = file_context
    custom = set(policy.extra_custom_layer_classes)
    for record in records:
        if record.class_name == "Lambda":
            label = record.layer_name or "<unnamed>"
            payload = record.payload
            if payload is not None and payload.encoding == "reference-by-name":
                findings.append(
                    ctx.finding(
                        "KERAS_LAMBDA_REF",
                        f"Lambda layer {label} references function {payload.preview!r} by name",
                        policy.lambda_ref_severity,
                        evidence=f"function={payload.preview}",
                        json_path=record.json_path,
                    )
                )
            else:
                if payload is None:
                    detail = "no decodable code payload"
                    evidence = ""
                else:
                    detail = f"{payload.decoded_length} bytes of serialized code"
                    evidence = f"sha256={payload.digest} preview={payload.preview}"
                findings.append(
                    ctx.finding(
                        "KERAS_LAMBDA_CODE",
                        f"Lambda layer {label} embeds executable code ({detail})",
                        policy.lambda_severity,
                        evidence=evidence,
                        json_path=record.json_path,
                    )
                )
        elif record.class_name in custom:
            label = record.layer_name or "<unnamed>"
            message = f"custom-computation layer {record.class_name} ({label}) flagged by policy"
            findings.append(
                ctx.finding(
                    "KERAS_CUSTOM_LAYER", message, policy.lambda_severity, json_path=record.json_path
                )
            )
    for anomaly in anomalies:
        message = f"{anomaly.kind}: {anomaly.message}"
        findings.append(
            ctx.finding("KERAS_MALFORMED_CONFIG", message, json_path=anomaly.json_path or None)
        )
    return findings


# ---------------------------------------------------------------------------
# Integrity manifests


_DIGEST_PREFIX = "sha256:"


class IntegrityManifest(Record, frozen=True):
    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, str] | None = None):
        set_field(self, "entries", {} if entries is None else entries)

    @classmethod
    def from_dict(cls, raw: dict) -> "IntegrityManifest":
        entries: dict[str, str] = {}
        for path, digest in raw.items():
            if not isinstance(digest, str) or not digest.startswith(_DIGEST_PREFIX):
                raise ValueError(f"manifest entry for {path!r} lacks a sha256: prefix")
            body = digest[len(_DIGEST_PREFIX):]
            if len(body) != 64 or body != body.lower() or any(
                c not in "0123456789abcdef" for c in body
            ):
                raise ValueError(f"manifest entry for {path!r} is not lowercase sha256 hex")
            entries[path] = digest
        return cls(entries)

    @classmethod
    def load(cls, path: str) -> "IntegrityManifest":
        return cls.from_dict(_load_json_object(path, "integrity manifest"))


class IntegrityResult(Record, frozen=True):
    __slots__ = ("status", "expected", "actual")

    def __init__(self, status: str, expected: str | None = None, actual: str | None = None):
        set_field(self, "status", status)  # "verified" | "mismatch" | "not-listed"
        set_field(self, "expected", expected)
        set_field(self, "actual", actual)


def stream_digest(handle: BinaryIO) -> str:
    hasher = hashlib.sha256()
    while True:
        chunk = handle.read(1 << 20)
        if not chunk:
            break
        hasher.update(chunk)
    return _DIGEST_PREFIX + hasher.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return stream_digest(handle)


def verify_integrity(handle: BinaryIO, path: str, manifest: IntegrityManifest) -> IntegrityResult:
    """Stream the file through the declared digest; constant memory."""
    expected = manifest.entries.get(path)
    if expected is None:
        return IntegrityResult("not-listed")
    actual = stream_digest(handle)
    if actual == expected:
        return IntegrityResult("verified", expected, actual)
    return IntegrityResult("mismatch", expected, actual)
