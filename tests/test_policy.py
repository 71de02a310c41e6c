"""Policy precedence, rule application, and integrity checking."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_classify_global
from modelsentry import absvm
from modelsentry.cli import main as cli_main
from modelsentry.disasm import OPCODES, decode_ops
from modelsentry.forge import (
    benign_state_dict_pickle,
    emit_dynamic_global_pickle,
    emit_injected_pickle,
    emit_reduce_payload_pickle,
)
from modelsentry.policy import (
    AllowEntry,
    DenyEntry,
    FileContext,
    IntegrityManifest,
    Policy,
    RULE_CATALOG,
    Severity,
    apply_rules,
    classify_global,
    default_policy,
    file_digest,
    load_policy_file,
    verify_integrity,
)
from modelsentry.report import render
from modelsentry.scanner import scan_paths

CTX = FileContext(path="model.pkl")

# os.system memoized once, then called 50 times: 1 global and 50 calls.
MEMOIZED_CALLS = b"\x80\x02cos\nsystem\nq\x000" + b"h\x00X\x02\x00\x00\x00ls\x85R0" * 50 + b"N."


def findings_for(stream: bytes, policy: Policy):
    return apply_rules(absvm.evaluate(stream), policy, CTX)


# -- classification precedence -------------------------------------------------


def test_exact_deny_beats_exact_allow():
    policy = Policy(
        deny=(DenyEntry("m", "f", Severity.HIGH),),
        allow=(AllowEntry("m", "f"),),
    )
    disposition, pattern = classify_global("m", "f", policy)
    assert disposition.verdict == "deny"
    assert disposition.severity is Severity.HIGH
    assert pattern == "m.f"


def test_exact_allow_beats_prefix_deny():
    policy = Policy(
        deny=(DenyEntry("m", "*", Severity.CRITICAL),),
        allow=(AllowEntry("m", "safe_fn"),),
    )
    assert classify_global("m", "safe_fn", policy)[0].verdict == "allow"
    assert classify_global("m", "other", policy)[0].verdict == "deny"


def test_prefix_deny_beats_prefix_allow():
    policy = Policy(
        deny=(DenyEntry("m", "*", Severity.HIGH),),
        allow=(AllowEntry("m", "*"),),
    )
    assert classify_global("m", "anything", policy)[0].verdict == "deny"


def test_longer_prefix_wins():
    policy = Policy(
        deny=(DenyEntry("pkg.*", "*", Severity.HIGH),),
        allow=(AllowEntry("pkg.trusted*", "*"),),
    )
    assert classify_global("pkg.trusted.sub", "fn", policy)[0].verdict == "allow"
    assert classify_global("pkg.other", "fn", policy)[0].verdict == "deny"


def test_unknown_fallthrough():
    disposition, pattern = classify_global("acme", "mystery", default_policy())
    assert disposition.verdict == "unknown"
    assert pattern is None


@pytest.mark.parametrize(
    "module,name,verdict,severity",
    [
        ("os", "system", "deny", Severity.CRITICAL),
        ("posix", "system", "deny", Severity.CRITICAL),
        ("subprocess", "Popen", "deny", Severity.CRITICAL),
        ("builtins", "eval", "deny", Severity.CRITICAL),
        ("builtins", "getattr", "deny", Severity.CRITICAL),
        ("base64", "b64decode", "deny", Severity.MEDIUM),
        ("codecs", "decode", "deny", Severity.MEDIUM),
        ("collections", "OrderedDict", "allow", None),
        ("torch._utils", "_rebuild_tensor_v2", "allow", None),
        ("numpy.core.multiarray", "_reconstruct", "allow", None),
        ("builtins", "set", "allow", None),
    ],
)
def test_default_policy_table(module, name, verdict, severity):
    disposition, _ = classify_global(module, name, default_policy())
    assert disposition.verdict == verdict
    if severity is not None:
        assert disposition.severity is severity


def _call_probe(module: str, name: str, *args: str) -> bytes:
    """A protocol 2 stream that calls ``module.name`` on text arguments:
    GLOBAL, MARK, one BINUNICODE per argument, TUPLE, REDUCE, STOP."""
    texts = b"".join(b"X" + struct.pack("<I", len(a.encode())) + a.encode() for a in args)
    return b"\x80\x02c" + f"{module}\n{name}\n".encode() + b"(" + texts + b"tR."


_RUNNER = "print('FIXTURE-MARKER')"


@pytest.mark.parametrize(
    "module, name, args",
    [
        # Each compiles or execs its first argument, or runs it as a shell command.
        ("timeit", "timeit", (_RUNNER, "pass")),
        ("cProfile", "run", (_RUNNER,)),
        ("profile", "run", (_RUNNER,)),
        ("pdb", "run", (_RUNNER,)),
        ("pydoc", "pipepager", ("text", "echo FIXTURE-MARKER")),
        # Together these build a function from bytes.
        ("marshal", "loads", ("c",)),
        ("types", "FunctionType", ("code", "globals")),
        ("types", "CodeType", ("code",)),
        ("_posixsubprocess", "fork_exec", ("echo FIXTURE-MARKER",)),
        # The C twins of the denied pickle.loads and pickle.load.
        ("_pickle", "loads", ("cos\nsystem\n.",)),
        ("_pickle", "load", ("stream",)),
    ],
)
def test_stdlib_code_runners_are_critical(tmp_path, capsys, module, name, args):
    """Scanned, never loaded: the global and its call are CRITICAL, so the
    scan exits 3."""
    path = tmp_path / "runner.pkl"
    path.write_bytes(_call_probe(module, name, *args))
    report = scan_paths([str(path)], default_policy())
    findings = report.files[0].findings
    assert [(f.rule_id, f.severity) for f in findings] == [
        ("PICKLE_DANGEROUS_GLOBAL", Severity.CRITICAL),
        ("PICKLE_CALL", Severity.CRITICAL),
    ]
    assert cli_main(["scan", str(path)]) == 3
    capsys.readouterr()


def test_classification_is_deterministic():
    policy = default_policy()
    probes = [("os", "system"), ("a", "b"), ("torch", "FloatStorage")]
    for module, name in probes:
        first = classify_global(module, name, policy)
        for _ in range(5):
            assert classify_global(module, name, policy) == first


def _patterns(bases: list[str]):
    return st.builds(lambda base, star: base + "*" * star, st.sampled_from(bases), st.booleans())


_MODULE_BASES = ["", "a", "a.b", "ab", "a.b.c", "b"]
_NAME_BASES = ["", "f", "fg", "g"]
_DENY_ENTRIES = st.builds(
    DenyEntry, _patterns(_MODULE_BASES), _patterns(_NAME_BASES), st.sampled_from(list(Severity))
)
_ALLOW_ENTRIES = st.builds(AllowEntry, _patterns(_MODULE_BASES), _patterns(_NAME_BASES))


@settings(max_examples=500, deadline=None)
@given(
    st.lists(_DENY_ENTRIES, max_size=10),
    st.lists(_ALLOW_ENTRIES, max_size=10),
    st.lists(
        st.tuples(st.sampled_from(_MODULE_BASES + ["abc", "a.bc", "c"]), st.sampled_from(_NAME_BASES + ["fgh", "h"])),
        min_size=1,
        max_size=8,
    ),
)
def test_indexed_lookup_matches_the_linear_scan(deny, allow, probes):
    """Exact and ``*``-suffixed module and name patterns, with duplicates and
    ties of specificity: the indexed lookup classifies every probe as the
    linear scan over the entries does, pattern and severity included."""
    policy = Policy(deny=tuple(deny), allow=tuple(allow))
    for module, name in probes:
        assert classify_global(module, name, policy) == reference_classify_global(module, name, policy)


_modules = st.sampled_from(["os", "acme", "torch._utils", "collections", "x.y"])
_names = st.sampled_from(["system", "mystery", "_rebuild_tensor_v2", "OrderedDict", "fn"])


_streams = st.sampled_from(
    [
        emit_reduce_payload_pickle("true # FIXTURE-MARKER", 2),
        emit_injected_pickle([1, 2, 3], "true # FIXTURE-MARKER", 4),
        MEMOIZED_CALLS,
        emit_dynamic_global_pickle(),
        benign_state_dict_pickle(),
    ]
)


@settings(max_examples=200, deadline=None)
@given(
    stream=_streams,
    module=_modules,
    name=_names,
    extra_deny_module=_modules,
    extra_deny_name=_names,
)
def test_monotonicity_of_deny_and_allow(stream, module, name, extra_deny_module, extra_deny_name):
    base = default_policy()
    base_rules = {(f.rule_id, f.offset) for f in findings_for(stream, base)}
    more_deny = Policy(
        deny=base.deny + (DenyEntry(extra_deny_module, extra_deny_name, Severity.CRITICAL),),
        allow=base.allow,
    )
    deny_rules = {(f.rule_id, f.offset) for f in findings_for(stream, more_deny)}
    assert base_rules <= deny_rules
    more_allow = Policy(deny=base.deny, allow=base.allow + (AllowEntry(module, name),))
    allow_rules = {(f.rule_id, f.offset) for f in findings_for(stream, more_allow)}
    assert allow_rules <= base_rules


# -- rule application ------------------------------------------------------------


def test_payload_events_become_critical_findings():
    stream = emit_reduce_payload_pickle("true # FIXTURE-MARKER", 0)
    offsets = {OPCODES[code].name: offset for code, offset, _arg, _end in decode_ops(stream, 0)}
    global_offset, reduce_offset = offsets["GLOBAL"], offsets["REDUCE"]
    findings = findings_for(stream, default_policy())
    assert [(f.rule_id, f.severity, f.offset) for f in findings] == [
        ("PICKLE_DANGEROUS_GLOBAL", Severity.CRITICAL, global_offset),
        ("PICKLE_CALL", Severity.CRITICAL, reduce_offset),
    ]


def test_minimal_stream_has_no_findings():
    assert findings_for(b"N.", default_policy()) == []


def test_injected_stream_adds_residual_stack_finding():
    stream = emit_injected_pickle([1, 2, 3], "true # FIXTURE-MARKER", 4)
    rules = [f.rule_id for f in findings_for(stream, default_policy())]
    assert "PICKLE_RESIDUAL_STACK" in rules
    finding = next(
        f for f in findings_for(stream, default_policy()) if f.rule_id == "PICKLE_RESIDUAL_STACK"
    )
    assert finding.severity is Severity.HIGH


def test_unknown_global_is_medium_not_silent():
    stream = b"cacme\nmystery\n."
    findings = findings_for(stream, default_policy())
    assert [(f.rule_id, f.severity) for f in findings] == [
        ("PICKLE_DANGEROUS_GLOBAL", Severity.MEDIUM)
    ]


def test_allowed_global_is_silent():
    stream = b"ccollections\nOrderedDict\n)R."
    assert findings_for(stream, default_policy()) == []


def test_call_severity_floors_at_medium():
    lenient = Policy(unknown_global_severity=Severity.INFO)
    stream = b"cacme\nmystery\n)R."
    findings = findings_for(stream, lenient)
    call = next(f for f in findings if f.rule_id == "PICKLE_CALL")
    assert call.severity is Severity.MEDIUM


def test_call_is_judged_by_the_root_it_called():
    # The memo slot the callee was fetched from is PUT again after the call,
    # with an allowlisted global: the call to os.system is still reported.
    stream = (
        b"\x80\x02cos\nsystem\nq\x000h\x00X\x02\x00\x00\x00id\x85R0"
        b"ccollections\nOrderedDict\nq\x000N."
    )
    call = next(f for f in findings_for(stream, default_policy()) if f.rule_id == "PICKLE_CALL")
    assert (call.severity, call.message, call.evidence) == (
        Severity.CRITICAL,
        "load-time call to os.system with 1 argument(s)",
        "('id')",
    )


def test_trailing_data_is_info():
    findings = findings_for(b"N." + b"\x00" * 3, default_policy())
    assert [(f.rule_id, f.severity) for f in findings] == [
        ("PICKLE_TRAILING_DATA", Severity.INFO)
    ]


def test_finding_order_is_event_order():
    stream = emit_injected_pickle("x", "true # FIXTURE-MARKER", 2)
    findings = findings_for(stream, default_policy())
    offsets = [f.offset for f in findings]
    assert offsets == sorted(offsets)


# The rules whose severity a policy sets: by deny entries or a "severities" key.
POLICY_SET_RULES = {
    "PICKLE_DANGEROUS_GLOBAL",
    "PICKLE_CALL",
    "PICKLE_RESIDUAL_STACK",
    "PICKLE_DYNAMIC_GLOBAL",
    "KERAS_LAMBDA_CODE",
    "KERAS_LAMBDA_REF",
    "KERAS_CUSTOM_LAYER",
}


# A stream that emits each kind of event.  A new kind needs a line here.
_EMITTING_STREAMS = {
    absvm.GlobalResolved: b"cos\nsystem\n.",
    absvm.DynamicGlobal: b"\x80\x04NN\x93.",
    absvm.CallMade: b"cos\nsystem\n(Vid\ntR.",
    absvm.ResidualStack: b"NN.",
    absvm.TrailingData: b"N.\x00",
    absvm.FrameMismatch: b"\x80\x04\x95\x01\x00\x00\x00\x00\x00\x00\x00K\x07.",
    absvm.OutOfBandBuffer: b"\x80\x05\x97.",
}


def _event_kinds(cls: type) -> set[type]:
    kinds = set()
    for sub in cls.__subclasses__():
        kinds |= {sub} | _event_kinds(sub)
    return kinds


def test_every_event_kind_has_a_reader():
    """The machine emits only events that something reads: ``apply_rules``
    (a finding under the default policy) or ``is_pickle`` (the event, before
    the first fault of a first segment, makes the bytes a pickle)."""
    assert _event_kinds(absvm.SecurityEvent) == set(_EMITTING_STREAMS)
    policy = default_policy()
    for kind, stream in _EMITTING_STREAMS.items():
        event = next(e for result in absvm.walk(stream) for e in result.events if type(e) is kind)
        alone = absvm.AbstractResult(absvm.Opaque(), [event], {})
        read_by_rules = apply_rules(alone, policy, CTX) != []
        # A first segment that faults after the event, without it and with it.
        fault = absvm.StackUnderflow(event.at_offset + 1)
        without, with_event = (
            absvm.AbstractResult(absvm.Opaque(), events, {}, fault, fault) for events in ([], [event])
        )
        assert absvm.is_pickle("f", b"N", True, without) is False
        read_by_sniff = absvm.is_pickle("f", b"N", True, with_event) is True
        assert read_by_rules or read_by_sniff, kind.__name__


def test_every_emitted_rule_is_in_the_catalog(corpus_dir, tmp_path):
    stream = emit_injected_pickle([1], "true # FIXTURE-MARKER", 2)
    for finding in findings_for(stream, default_policy()):
        assert finding.rule_id in RULE_CATALOG
    # Every severity key set away from its default: the rules no key
    # governs still carry exactly the severity the catalog publishes.
    policy_file = tmp_path / "all_info.json"
    keys = ("unknown_global", "lambda_code", "lambda_ref", "residual_stack", "dynamic_global")
    policy_file.write_text(json.dumps({"severities": {key: "INFO" for key in keys}}))
    fixed_rules = set()
    for policy in (default_policy(), load_policy_file(str(policy_file))):
        for report in scan_paths([str(corpus_dir)], policy).files:
            for finding in report.findings:
                assert finding.rule_id in RULE_CATALOG
                if finding.rule_id not in POLICY_SET_RULES:
                    fixed_rules.add(finding.rule_id)
                    assert finding.severity is RULE_CATALOG[finding.rule_id].default_severity
    assert fixed_rules  # the corpus does reach rules no policy key governs


def test_policy_set_rules_report_the_sarif_level_their_rule_publishes(corpus_dir):
    """The severity keys' defaults are their rules' catalog severities, so
    under the default policy SARIF publishes the level each result has."""
    keyed = {"KERAS_LAMBDA_CODE", "KERAS_LAMBDA_REF", "PICKLE_RESIDUAL_STACK", "PICKLE_DYNAMIC_GLOBAL"}
    report = scan_paths([str(corpus_dir)], default_policy())
    for file_report in report.files:
        for finding in file_report.findings:
            if finding.rule_id in keyed:
                assert finding.severity is RULE_CATALOG[finding.rule_id].default_severity
    (run,) = json.loads(render(report, "sarif"))["runs"]
    published = {
        rule["id"]: rule["defaultConfiguration"]["level"] for rule in run["tool"]["driver"]["rules"]
    }
    levels = {(result["ruleId"], result["level"]) for result in run["results"]}
    assert {level for level in levels if level[0] in keyed} == {
        (rule_id, published[rule_id]) for rule_id in keyed
    }


def test_lambda_plain_source_maps_to_code_rule():
    from modelsentry.kerascfg import walk_layers
    from modelsentry.policy import apply_keras_rules

    config = {
        "config": {
            "layers": [
                {
                    "class_name": "Lambda",
                    "config": {"name": "l", "function": "lambda x: x"},
                }
            ]
        }
    }
    findings = apply_keras_rules(walk_layers(config, []), [], default_policy(), CTX)
    assert [(f.rule_id, f.severity) for f in findings] == [
        ("KERAS_LAMBDA_CODE", Severity.HIGH)
    ]


def test_policy_listed_custom_layer_is_flagged():
    from modelsentry.kerascfg import walk_layers
    from modelsentry.policy import apply_keras_rules

    policy = Policy(extra_custom_layer_classes=("DangerOp",))
    config = {
        "config": {
            "layers": [
                {"class_name": "DangerOp", "config": {"name": "d"}},
                {"class_name": "Dense", "config": {"name": "ok"}},
            ]
        }
    }
    records = walk_layers(config, [], {"Lambda", "DangerOp"})
    findings = apply_keras_rules(records, [], policy, CTX)
    assert [(f.rule_id, f.severity) for f in findings] == [
        ("KERAS_CUSTOM_LAYER", Severity.HIGH)
    ]


# -- policy files ------------------------------------------------------------------


def test_policy_file_extends_defaults(tmp_path):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(
        json.dumps(
            {
                "deny": [{"module": "json", "name": "*", "severity": "HIGH"}],
                "allow": [{"module": "acme", "name": "mystery"}],
                "severities": {"unknown_global": "LOW"},
                "custom_layer_classes": ["MyDangerLayer"],
            }
        )
    )
    policy = load_policy_file(str(policy_file))
    assert classify_global("os", "system", policy)[0].verdict == "deny"  # default kept
    assert classify_global("json", "loads", policy)[0].verdict == "deny"
    assert classify_global("acme", "mystery", policy)[0].verdict == "allow"
    assert policy.unknown_global_severity is Severity.LOW
    assert "MyDangerLayer" in policy.extra_custom_layer_classes


@pytest.mark.parametrize(
    "raw",
    [
        {"denny": [{"module": "mylib", "name": "*"}]},
        {"severities": {"unknown_globals": "LOW"}},
        {"deny": [{"module": "mylib", "name": "*", "sevrity": "LOW"}]},
    ],
    ids=["top-level", "severities", "deny-entry"],
)
def test_misspelled_policy_key_is_an_operational_error(tmp_path, capsys, raw):
    # Ignored, the misspelled deny entry would leave mylib.run an unknown
    # call: MEDIUM, exit 0, where the policy asked for CRITICAL.
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="unknown"):
        load_policy_file(str(policy_file))
    target = tmp_path / "probe.pkl"
    target.write_bytes(b"cmylib\nrun\n)R.")
    assert cli_main(["scan", "--policy", str(policy_file), str(target)]) == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, message",
    [
        pytest.param(
            {"deny": [{"module": "mylib", "name": "*", "severity": 5}]},
            "severity must be a string, got 5",
            id="numeric-severity",
        ),
        pytest.param(
            {"severities": {"unknown_global": "SEVERE"}},
            "unknown severity 'SEVERE'",
            id="unknown-severity",
        ),
        pytest.param(
            {"deny": [{"module": "mylib"}]},
            "deny entries need string 'module' and 'name' fields, got {'module': 'mylib'}",
            id="entry-without-name",
        ),
        pytest.param(
            {"deny": {"module": "mylib", "name": "*"}},
            "'deny' must be a list of entries",
            id="deny-object",
        ),
        pytest.param({"severities": []}, "'severities' must be an object", id="severities-list"),
        pytest.param(
            {"custom_layer_classes": "MyDangerLayer"},
            "'custom_layer_classes' must be a list of strings",
            id="custom-classes-string",
        ),
        pytest.param([], "policy file must contain a JSON object", id="top-level-list"),
    ],
)
def test_malformed_policy_file_is_an_operational_error(tmp_path, capsys, raw, message):
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps(raw))
    with pytest.raises(ValueError) as raised:
        load_policy_file(str(policy_file))
    assert str(raised.value) == message
    target = tmp_path / "probe.pkl"
    target.write_bytes(b"cmylib\nrun\n)R.")
    assert cli_main(["scan", "--policy", str(policy_file), str(target)]) == 2
    assert message in capsys.readouterr().err


def test_readme_example_policy_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("## Policy files", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(example)
    policy = load_policy_file(str(policy_file))
    assert policy.unknown_global_severity is Severity.LOW
    assert classify_global("mylib.plugins", "x", policy)[0].verdict == "deny"


def test_policy_digest_changes_with_content():
    base = default_policy()
    extended = Policy(deny=base.deny + (DenyEntry("j", "k"),), allow=base.allow)
    assert base.digest() != extended.digest()
    assert base.digest() == default_policy().digest()


# -- integrity ---------------------------------------------------------------------


def test_verify_integrity_roundtrip(tmp_path):
    target = tmp_path / "model.bin"
    target.write_bytes(b"serialized model bytes")
    manifest = IntegrityManifest.from_dict({str(target): file_digest(str(target))})
    with open(target, "rb") as handle:
        assert verify_integrity(handle, str(target), manifest).status == "verified"
    flipped = bytearray(target.read_bytes())
    flipped[5] ^= 0x01
    target.write_bytes(bytes(flipped))
    with open(target, "rb") as handle:
        outcome = verify_integrity(handle, str(target), manifest)
    assert outcome.status == "mismatch"
    assert outcome.expected != outcome.actual


def test_verify_unlisted_path(tmp_path):
    target = tmp_path / "other.bin"
    target.write_bytes(b"x")
    manifest = IntegrityManifest.from_dict({})
    with open(target, "rb") as handle:
        assert verify_integrity(handle, str(target), manifest).status == "not-listed"


def test_manifest_rejects_malformed_digests():
    with pytest.raises(ValueError):
        IntegrityManifest.from_dict({"a": "md5:abcd"})
    with pytest.raises(ValueError):
        IntegrityManifest.from_dict({"a": "sha256:XYZ"})
    with pytest.raises(ValueError):
        IntegrityManifest.from_dict({"a": "sha256:" + "a" * 10})


def test_each_global_is_classified_once_per_program(monkeypatch):
    import modelsentry.policy as policy_module

    seen: list[tuple[str, str]] = []
    original = policy_module.classify_global

    def counting(module, name, policy):
        seen.append((module, name))
        return original(module, name, policy)

    expected = findings_for(MEMOIZED_CALLS, default_policy())
    monkeypatch.setattr(policy_module, "classify_global", counting)
    assert findings_for(MEMOIZED_CALLS, default_policy()) == expected
    assert seen == [("os", "system")]
    assert [f.rule_id for f in expected] == ["PICKLE_DANGEROUS_GLOBAL"] + ["PICKLE_CALL"] * 50
