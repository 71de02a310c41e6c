"""Acceptance criteria, one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import random
import resource
import signal
import subprocess
import sys
import time

from conftest import (
    INERT_ATTACK_COMMAND,
    SEVERITY_ORDER,
    own_transcript,
    reference_transcript,
    stub_load,
    transcript_stream_set,
)
from modelsentry import absvm, disasm
from modelsentry.containers import FormatError, extract_h5_model_config, find_pickle_payloads, list_entries
from modelsentry.forge import (
    emit_corpus,
    emit_injected_pickle,
    emit_keras_h5,
    emit_keras_lambda_config,
    emit_keras_zip,
    emit_reduce_payload_pickle,
)
from modelsentry.policy import IntegrityManifest, Severity, file_digest, verify_integrity
from modelsentry.report import render
from modelsentry.scanner import scan_file, scan_paths

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def _findings_by_path(report) -> dict[str, list]:
    return {os.path.basename(fr.path): fr.findings for fr in report.files}


def test_c01_detection_matrix(corpus_dir, corpus_manifest, policy):
    started = time.perf_counter()
    report = scan_paths([str(corpus_dir)], policy)
    elapsed = time.perf_counter() - started
    by_path = _findings_by_path(report)
    malicious = benign = 0
    for fixture in corpus_manifest:
        findings = by_path[os.path.basename(fixture["path"])]
        got = [(f.rule_id, int(f.severity)) for f in findings]
        for expected in fixture["expected"]:
            floor = SEVERITY_ORDER[expected["min_severity"]]
            assert any(
                rule == expected["rule_id"] and severity >= floor for rule, severity in got
            ), f"{fixture['id']}: missing {expected} in {got}"
        if fixture["id"].startswith("mal_"):
            malicious += 1
        else:
            benign += 1
            assert not any(
                severity >= SEVERITY_ORDER["HIGH"] for _, severity in got
            ), f"benign {fixture['id']} has high-severity findings: {got}"
    assert malicious >= 10
    assert benign >= 20
    assert elapsed < 10.0, f"matrix scan took {elapsed:.2f}s"
    _ok(
        "C1",
        f"{malicious} attack fixtures all expected findings, "
        f"{benign} benign fixtures zero >=HIGH, scan {elapsed:.2f}s < 10s",
    )


def test_c02_reduce_and_injection_reproduction(tmp_path, policy):
    reduce_file = tmp_path / "reduce.pkl"
    reduce_file.write_bytes(emit_reduce_payload_pickle(INERT_ATTACK_COMMAND, 2))
    report = scan_file(str(reduce_file), policy)
    rules = {f.rule_id: f for f in report.findings}
    assert rules["PICKLE_DANGEROUS_GLOBAL"].severity is Severity.CRITICAL
    assert rules["PICKLE_CALL"].severity is Severity.CRITICAL
    assert INERT_ATTACK_COMMAND in rules["PICKLE_CALL"].evidence

    injected_file = tmp_path / "injected.pkl"
    injected_file.write_bytes(emit_injected_pickle([1, 2, 3], INERT_ATTACK_COMMAND, 4))
    report = scan_file(str(injected_file), policy)
    rules = {f.rule_id: f for f in report.findings}
    assert rules["PICKLE_DANGEROUS_GLOBAL"].severity is Severity.CRITICAL
    assert rules["PICKLE_CALL"].severity is Severity.CRITICAL
    assert rules["PICKLE_RESIDUAL_STACK"].severity is Severity.HIGH
    _ok("C2", "reduce payload CRITICALx2 with command text in evidence; injection adds HIGH residual stack")


def test_c03_lambda_layer_reproduction(tmp_path, policy):
    config = emit_keras_lambda_config(True)
    h5_file = tmp_path / "model.h5"
    h5_file.write_bytes(emit_keras_h5(config))
    zip_file = tmp_path / "model.keras"
    zip_file.write_bytes(emit_keras_zip(config))
    for path in (h5_file, zip_file):
        report = scan_file(str(path), policy)
        finding = next(f for f in report.findings if f.rule_id == "KERAS_LAMBDA_CODE")
        assert finding.severity is Severity.HIGH, path.name
        assert finding.json_path == "config.layers[1]", path.name
    _ok("C3", "Lambda flagged HIGH at config.layers[1] in both the h5 and archive containers")


def test_c04_transcript_equivalence_with_reference_disassembler():
    streams = transcript_stream_set()
    assert len(streams) >= 50
    produced_lines: list[str] = []
    mismatches = 0
    for name, stream in streams:
        ours = own_transcript(stream)
        reference = reference_transcript(stream)
        if ours != reference:
            mismatches += 1
        produced_lines.append(f"== {name}")
        produced_lines.extend(ours)
    assert mismatches == 0
    with open(os.path.join(DATA_DIR, "golden_transcripts.txt"), encoding="utf-8") as handle:
        golden = handle.read()
    assert "\n".join(produced_lines) + "\n" == golden
    _ok("C4", f"{len(streams)} streams, transcripts equal the reference disassembler and the golden file")


def test_c05_loader_consistency_of_injection(corpus_dir, corpus_manifest):
    checked = 0
    for fixture in corpus_manifest:
        if fixture["kind"] != "injected_stream":
            continue
        data = (corpus_dir / fixture["path"]).read_bytes()
        assert stub_load(data) == fixture["benign_root"], fixture["id"]
        checked += 1
    assert checked >= 3
    _ok("C5", f"{checked} injected fixtures: sacrificial loader returns exactly the recorded benign root")


class _FuzzTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _FuzzTimeout()


def test_c06_parser_totality_under_fuzz(corpus_dir, monkeypatch):
    monkeypatch.setattr(disasm, "MAX_INSTRUCTIONS", 20_000)
    monkeypatch.setattr(disasm, "MAX_ARG_BYTES", 1 << 20)
    monkeypatch.setattr(disasm, "MAX_STREAM_BYTES", 1 << 24)
    monkeypatch.setattr(absvm, "MAX_STACK_DEPTH", 50_000)
    monkeypatch.setattr(absvm, "MAX_MEMO_ENTRIES", 100_000)
    bases = [path.read_bytes() for path in sorted(corpus_dir.iterdir()) if path.is_file()]
    bases = [b[: 1 << 16] for b in bases]
    rng = random.Random(1234)

    def probe(data: bytes) -> None:
        try:
            for ops, _trailing in disasm.iter_programs(data):
                try:
                    absvm.evaluate(data, ops[0][1])
                except absvm.VmError:
                    pass
        except disasm.ParseError:
            pass
        list(absvm.walk(data))  # the scanner's path, which never raises
        try:
            handle = io.BytesIO(data)
            entries = list_entries(handle)
            find_pickle_payloads(entries, handle, cap=1 << 20, errors=[])
        except FormatError:
            pass
        try:
            extract_h5_model_config(io.BytesIO(data))
        except FormatError:
            pass

    previous = signal.signal(signal.SIGALRM, _alarm)
    slowest = 0.0
    try:
        for index in range(10_000):
            mode = index % 3
            if mode == 0:
                data = rng.randbytes(rng.randint(0, 300))
            elif mode == 1:
                base = rng.choice(bases)
                data = base[: rng.randint(0, len(base))]
            else:
                base = bytearray(rng.choice(bases))
                if base:
                    for _ in range(rng.randint(1, 4)):
                        position = rng.randrange(len(base))
                        base[position] ^= 1 << rng.randrange(8)
                data = bytes(base)
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            started = time.perf_counter()
            try:
                probe(data)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            slowest = max(slowest, time.perf_counter() - started)
    finally:
        signal.signal(signal.SIGALRM, previous)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mb < 2048, f"fuzzing peaked at {peak_mb:.0f} MiB"
    _ok("C6", f"10000 fuzzed inputs, structured outcomes only, slowest {slowest * 1000:.1f}ms < 1s")


def test_c07_report_determinism(corpus_dir, policy):
    first = render(scan_paths([str(corpus_dir)], policy), "json")
    second = render(scan_paths([str(corpus_dir)], policy), "json")
    assert first == second
    _ok("C7", "repeat scans produce byte-identical JSON reports")


def test_c08_no_execution_sentinel(tmp_path, policy, monkeypatch):
    sentinel = tmp_path / "sentinel-must-not-exist"
    marker = f"touch {sentinel}"
    corpus = tmp_path / "corpus"
    emit_corpus(corpus, seed=0, payload_marker=marker)

    spawned: list[tuple] = []

    def recorder(name):
        def record(*args, **kwargs):
            spawned.append((name, args))
            return 0

        return record

    monkeypatch.setattr(os, "system", recorder("os.system"))
    monkeypatch.setattr(os, "popen", recorder("os.popen"))
    monkeypatch.setattr(os, "posix_spawn", recorder("os.posix_spawn"))
    monkeypatch.setattr(os, "fork", recorder("os.fork"))
    monkeypatch.setattr(os, "execv", recorder("os.execv"))
    monkeypatch.setattr(subprocess, "Popen", recorder("subprocess.Popen"))
    # The disassembler's opcode table comes from pickletools, which imports
    # pickle: nothing may unpickle through it.
    monkeypatch.setattr(pickle, "load", recorder("pickle.load"))
    monkeypatch.setattr(pickle, "loads", recorder("pickle.loads"))
    monkeypatch.setattr(pickle, "Unpickler", recorder("pickle.Unpickler"))

    report = scan_paths([str(corpus)], policy)
    assert any(fr.findings for fr in report.files)
    assert spawned == [], f"scan spawned or unpickled: {spawned}"
    assert not sentinel.exists(), "marker action occurred: payload was executed"
    _ok("C8", "full malicious corpus scanned: sentinel file absent, zero process spawns recorded")


def test_c09_integrity_manifest_catches_any_flip(corpus_dir, tmp_path):
    files = sorted(path for path in corpus_dir.iterdir() if path.is_file())
    manifest = IntegrityManifest.from_dict(
        {path.name: file_digest(str(path)) for path in files}
    )
    for path in files:
        with open(path, "rb") as handle:
            assert verify_integrity(handle, path.name, manifest).status == "verified"
    rng = random.Random(99)
    detected = 0
    for _ in range(50):
        source = rng.choice(files)
        mutated = bytearray(source.read_bytes())
        position = rng.randrange(len(mutated))
        mutated[position] ^= 1 << rng.randrange(8)
        target = tmp_path / source.name
        target.write_bytes(bytes(mutated))
        with open(target, "rb") as handle:
            outcome = verify_integrity(handle, source.name, manifest)
        assert outcome.status == "mismatch", f"flip at {position} in {source.name} undetected"
        detected += 1
    _ok("C9", f"all {len(files)} files verified intact; {detected}/50 random single-byte flips detected")


def test_c10_throughput_on_large_archive(tmp_path):
    import zipfile

    # Stream the archive to disk so neither this process nor the forked
    # child ever holds the 100 MiB blob in memory.
    target = tmp_path / "big.pt"
    with zipfile.ZipFile(target, "w", zipfile.ZIP_STORED) as archive:
        archive.writestr(
            zipfile.ZipInfo("model/data.pkl", (1980, 1, 1, 0, 0, 0)),
            pickle.dumps({"epoch": 3, "metrics": [0.1, 0.2]}, 2),
        )
        with archive.open(zipfile.ZipInfo("model/data/0", (1980, 1, 1, 0, 0, 0)), "w") as member:
            chunk = b"\x00" * (1 << 20)
            for _ in range(100):
                member.write(chunk)
        archive.writestr(zipfile.ZipInfo("model/version", (1980, 1, 1, 0, 0, 0)), b"3\n")
    assert target.stat().st_size >= 100 * 1024 * 1024
    driver = (
        "import json, resource, sys, time, tracemalloc\n"
        "from modelsentry.policy import default_policy\n"
        "from modelsentry.scanner import scan_file\n"
        "tracemalloc.start()\n"
        "start = time.perf_counter()\n"
        "report = scan_file(sys.argv[1], default_policy())\n"
        "elapsed = time.perf_counter() - start\n"
        "alloc_peak = tracemalloc.get_traced_memory()[1]\n"
        "peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps({'elapsed': elapsed, 'peak_kb': peak_kb, 'alloc_peak': alloc_peak,"
        " 'findings': len(report.findings), 'errors': len(report.errors)}))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", driver, str(target)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    stats = json.loads(completed.stdout)
    assert stats["findings"] == 0 and stats["errors"] == 0
    assert stats["elapsed"] < 5.0, f"scan took {stats['elapsed']:.2f}s"
    peak_mb = stats["peak_kb"] / 1024
    assert peak_mb < 512, f"peak memory {peak_mb:.0f} MiB"
    alloc_mb = stats["alloc_peak"] / (1024 * 1024)
    assert alloc_mb < 64, f"scan allocated {alloc_mb:.1f} MiB"
    _ok(
        "C10",
        f"100 MiB archive scanned in {stats['elapsed']:.2f}s < 5s, "
        f"peak rss {peak_mb:.0f} MiB < 512, scan allocations {alloc_mb:.2f} MiB",
    )
