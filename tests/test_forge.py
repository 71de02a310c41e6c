"""Fixture generation: dual-oracle validity, inertness, determinism."""

from __future__ import annotations

import hashlib
import os
import pickle
import pickletools
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import INERT_ATTACK_COMMAND, SEVERITY_ORDER, stub_load
import modelsentry
from modelsentry import absvm
from modelsentry.forge import (
    DEFAULT_MARKER,
    UnsupportedProtocol,
    UnsupportedValue,
    benign_array_pickle,
    emit_corpus,
    emit_dynamic_global_pickle,
    emit_injected_pickle,
    emit_reduce_payload_pickle,
    emit_torch_like_zip,
)


def _genops_accepts(stream: bytes) -> bool:
    list(pickletools.genops(stream))
    return True


@pytest.mark.parametrize("protocol", [0, 1, 2, 3, 4, 5])
def test_reduce_payload_all_protocols_pass_both_disassemblers(protocol):
    stream = emit_reduce_payload_pickle(DEFAULT_MARKER, protocol)
    assert _genops_accepts(stream)
    result = absvm.evaluate(stream)
    assert any(
        isinstance(event, absvm.GlobalResolved)
        and (event.module, event.name) == ("os", "system")
        for event in result.events
    )
    assert any(isinstance(event, absvm.CallMade) for event in result.events)


def test_empty_command_is_an_error():
    with pytest.raises(UnsupportedValue):
        emit_reduce_payload_pickle("", 4)


@pytest.mark.parametrize("protocol", [-1, 6, 99])
def test_unsupported_protocols_rejected(protocol):
    with pytest.raises(UnsupportedProtocol):
        emit_reduce_payload_pickle(DEFAULT_MARKER, protocol)
    with pytest.raises(UnsupportedProtocol):
        emit_injected_pickle(None, DEFAULT_MARKER, protocol)


def test_full_attack_command_survives_as_evidence_text():
    # content-only rendering check: the command text must reach arg_summary
    stream = emit_reduce_payload_pickle(INERT_ATTACK_COMMAND, 2)
    assert _genops_accepts(stream)
    result = absvm.evaluate(stream)
    call = next(event for event in result.events if isinstance(event, absvm.CallMade))
    assert INERT_ATTACK_COMMAND in call.arg_summary


def test_injected_loader_returns_root_scanner_sees_residual():
    for protocol, root in ((0, None), (2, [1, 2, 3]), (4, {"k": "v"})):
        stream = emit_injected_pickle(root, DEFAULT_MARKER, protocol)
        assert stub_load(stream) == root
        result = absvm.evaluate(stream)
        assert any(isinstance(event, absvm.ResidualStack) for event in result.events)


def test_injected_unsupported_root_value():
    with pytest.raises(UnsupportedValue):
        emit_injected_pickle(object(), DEFAULT_MARKER, 2)


def test_dynamic_global_fixture():
    stream = emit_dynamic_global_pickle(4)
    assert _genops_accepts(stream)
    result = absvm.evaluate(stream)
    assert [event.kind for event in result.events] == ["DynamicGlobal"]


def test_torch_zip_emitted_even_for_truncated_inner(tmp_path):
    from modelsentry.policy import default_policy
    from modelsentry.scanner import scan_file

    archive = emit_torch_like_zip(b"\x80\x04\x95\x10")  # cut off mid-frame
    target = tmp_path / "broken.pt"
    target.write_bytes(archive)
    report = scan_file(str(target), default_policy())
    assert any(f.rule_id == "FORMAT_PARSE_ERROR" for f in report.findings)
    assert report.errors


# -- corpus --------------------------------------------------------------------


def test_corpus_counts_and_coverage(corpus_manifest):
    malicious = [f for f in corpus_manifest if f["id"].startswith("mal_")]
    benign = [f for f in corpus_manifest if f["id"].startswith("ben_")]
    assert len(malicious) >= 10
    assert len(benign) >= 20
    kinds = {f["kind"] for f in malicious}
    assert {"reduce_payload", "injected_stream", "torch_like_zip", "keras_h5_lambda",
            "keras_zip_lambda"} <= kinds
    protocols = {f["protocol"] for f in corpus_manifest if f["protocol"] is not None}
    assert {0, 2, 4} <= protocols
    lambda_expectations = {
        expected["rule_id"]
        for fixture in corpus_manifest
        for expected in fixture["expected"]
        if fixture["kind"].startswith("keras")
    }
    assert {"KERAS_LAMBDA_CODE", "KERAS_LAMBDA_REF"} <= lambda_expectations


def test_manifest_schema(corpus_manifest):
    for fixture in corpus_manifest:
        assert set(fixture) >= {"id", "path", "kind", "protocol", "expected"}
        for expected in fixture["expected"]:
            assert set(expected) == {"rule_id", "min_severity"}
            assert expected["min_severity"] in SEVERITY_ORDER
        if fixture["kind"] == "injected_stream":
            assert "benign_root" in fixture


def test_malicious_fixtures_list_expectations_benign_list_none(corpus_manifest):
    for fixture in corpus_manifest:
        if fixture["id"].startswith("mal_"):
            assert fixture["expected"], fixture["id"]
        else:
            assert fixture["expected"] == [], fixture["id"]


def test_benign_corpus_is_silent_under_default_policy(corpus_dir, corpus_manifest, policy):
    from modelsentry.policy import Severity, classify_global
    from modelsentry.scanner import scan_file

    for fixture in corpus_manifest:
        if not fixture["id"].startswith("ben_"):
            continue
        path = corpus_dir / fixture["path"]
        report = scan_file(str(path), policy)
        assert report.errors == [], fixture["id"]
        loud = [f for f in report.findings if f.severity > Severity.INFO]
        assert loud == [], f"{fixture['id']}: {[(f.rule_id, str(f.severity)) for f in loud]}"
        # every call-chain root in a benign pickle resolves to an allowlisted global
        if fixture["path"].endswith(".pkl"):
            result = absvm.evaluate(path.read_bytes())
            for event in result.events:
                if isinstance(event, absvm.CallMade):
                    module, name = event.root
                    disposition, _ = classify_global(module, name, policy)
                    assert disposition.verdict == "allow", (fixture["id"], module, name)


def test_every_pickle_fixture_passes_the_reference_disassembler(corpus_dir, corpus_manifest):
    checked = 0
    for fixture in corpus_manifest:
        if not fixture["path"].endswith(".pkl"):
            continue
        data = (corpus_dir / fixture["path"]).read_bytes()
        assert _genops_accepts(data), fixture["id"]
        checked += 1
    assert checked >= 15


def test_rerun_with_same_seed_is_byte_identical(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    emit_corpus(first, seed=3)
    emit_corpus(second, seed=3)

    def digests(root: Path):
        return sorted(
            (path.name, hashlib.sha256(path.read_bytes()).hexdigest())
            for path in root.iterdir()
        )

    assert digests(first) == digests(second)


def test_different_seed_changes_only_seeded_content(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    emit_corpus(first, seed=1)
    emit_corpus(second, seed=2)
    assert (first / "mal_reduce_p2.pkl").read_bytes() == (second / "mal_reduce_p2.pkl").read_bytes()
    assert (first / "ben_state_dict.pt").read_bytes() != (second / "ben_state_dict.pt").read_bytes()


def test_unwritable_output_leaves_nothing_behind(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory")
    with pytest.raises(OSError):
        emit_corpus(blocker / "corpus", seed=0)
    assert blocker.read_text() == "a file, not a directory"


def test_custom_marker_is_threaded_through(tmp_path):
    marker = "true # CUSTOM-SENTINEL-MARKER"
    emit_corpus(tmp_path / "c", seed=0, payload_marker=marker)
    data = (tmp_path / "c" / "mal_reduce_p2.pkl").read_bytes()
    assert marker.encode() in data


# -- no third-party packages at runtime -------------------------------------------


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(modelsentry.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, modelsentry.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_corpus_is_emitted_with_numpy_blocked(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy now fails
    manifest = emit_corpus(tmp_path, seed=0)
    assert {"ben_numpy_p2", "ben_numpy_p4"} <= {fixture["id"] for fixture in manifest.fixtures}


def _resolved_globals(stream: bytes) -> set[tuple[str, str]]:
    events = absvm.evaluate(stream).events
    return {(e.module, e.name) for e in events if isinstance(e, absvm.GlobalResolved)}


@pytest.mark.parametrize("protocol", [2, 4])
def test_hand_built_array_matches_numpys_own_pickle(protocol):
    np = pytest.importorskip("numpy")
    array = np.arange(12, dtype=np.float32).reshape(3, 4)
    stream = benign_array_pickle(protocol)
    loaded = pickle.loads(stream)  # bytes this test suite wrote itself
    assert loaded["shape"] == (3, 4)
    assert loaded["weight"].dtype == array.dtype
    assert np.array_equal(loaded["weight"], array)
    reference = pickle.dumps({"weight": array, "shape": array.shape}, protocol)
    assert _resolved_globals(stream) == _resolved_globals(reference)
