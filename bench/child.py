"""One benchmark measurement, run by run.py in a fresh interpreter.

    PYTHONPATH=src python3 bench/child.py WORKDIR --seconds S --trace 0|1 [--spans FILE]

WORKDIR holds ``files/`` (the generated workload) and ``truth.json``.  Every
file goes through ``scanner.scan_file`` in sorted order and the pass ends
with the json and sarif renders, exactly as ``scan_paths(jobs=1)`` followed
by ``report.render`` would do it, except that one raising file does not
lose the rest of the batch.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from modelsentry.policy import Severity, default_policy
from modelsentry.report import exit_code, render
from modelsentry.scanner import TOOL_VERSION, FileReport, ScanReport, scan_file, scan_paths
import calibration
from spans import RENDER, ROOT, Tracer

# Four times today's slowest hostile recipe (shared_list, 1-2.5 s), so that
# only a stall trips it.  A file that stalls in the warm-up pass is not
# scanned again in that run; it counts as the limit in every later pass.
FILE_LIMIT_S = 10.0
# tracemalloc slows allocation-heavy scans about tenfold (shared_list: 21 s).
ALLOC_FILE_LIMIT_S = 60.0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
JOBS_ROUNDS = 2
SLOWEST_SHOWN = 5


class FileTimeout(BaseException):
    """Raised by the per-file timer.  Not an ``Exception``, so that no handler
    inside the scanner can swallow it."""


def _on_alarm(signum, frame):
    raise FileTimeout


@dataclass
class Pass:
    wall: float  # the files' scan times plus the renders
    scaled_wall: float  # the same, at the calibration's reference speed
    seconds: dict[str, float]  # per file
    scaled: dict[str, float]  # per file, at reference speed
    failures: dict[str, str]  # file -> why scan_file gave no report
    timed_out: frozenset[str]
    reports: list[FileReport]
    digest: str  # of the json and sarif renders


def scan_pass(paths: list[str], policy, tracer: Tracer | None = None,
              stalled: frozenset[str] = frozenset(), limit: float = FILE_LIMIT_S) -> Pass:
    """Scan every file but the ``stalled`` ones, then render.  A calibration
    sample is taken before the first file and after every step; each step's
    time is scaled by the samples on either side of it."""
    seconds: dict[str, float] = {}
    scaled: dict[str, float] = {}
    failures: dict[str, str] = {}
    timed_out: set[str] = set()
    reports: list[FileReport] = []
    previous = calibration.sample()
    for path in paths:
        name = os.path.basename(path)
        if name in stalled:
            seconds[name] = scaled[name] = limit
            failures[name] = f"ran past the {limit:g} s per-file limit in the warm-up pass"
            continue
        root = tracer.span(ROOT, name) if tracer else contextlib.nullcontext()
        began = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with root:
                reports.append(scan_file(path, policy))
        except FileTimeout:
            failures[name] = f"ran past the {limit:g} s per-file limit"
            timed_out.add(name)
        except Exception as exc:  # a raising file fails; the pass goes on
            failures[name] = f"scan_file raised {type(exc).__name__}: {exc}"[:160]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - began
        seconds[name] = limit if name in failures and elapsed >= limit else elapsed
        current = calibration.sample()
        scaled[name] = seconds[name] * calibration.scale(previous, current)
        previous = current
    report = ScanReport(TOOL_VERSION, policy.digest(), reports)
    digest = hashlib.sha256()
    began = perf_counter()
    for fmt in ("json", "sarif"):
        with tracer.span(RENDER) if tracer else contextlib.nullcontext():
            rendered = render(report, fmt)
        digest.update(rendered)
        if tracer:
            tracer.counts["report.bytes"] += len(rendered)
    render_s = perf_counter() - began
    render_scaled = render_s * calibration.scale(previous, calibration.sample())
    return Pass(sum(seconds.values()) + render_s, sum(scaled.values()) + render_scaled,
                seconds, scaled, failures, frozenset(timed_out), reports, digest.hexdigest())


def judge(scan: Pass, truth: dict, policy) -> dict[str, str]:
    """Every file whose outcome disagrees with the ground truth, with the reason."""
    reasons = dict(scan.failures)
    for report in scan.reports:
        name = os.path.basename(report.path)
        expected = truth[name]
        problems = []
        verdict = exit_code(ScanReport(TOOL_VERSION, policy.digest(), [report]))
        if verdict != expected["verdict"]:
            detail = f"verdict {verdict}, expected {expected['verdict']}"
            if report.errors:
                first = report.errors[0]
                detail += f" ({len(report.errors)} error(s), first {first.kind} at {first.locus or '-'})"
            problems.append(detail)
        for rule in expected["rules"]:
            floor = Severity.parse(rule["min_severity"])
            if not any(f.rule_id == rule["rule_id"] and f.severity >= floor for f in report.findings):
                problems.append(f"missing {rule['rule_id']} >= {rule['min_severity']}")
        if problems:
            reasons[name] = "; ".join(problems)
    return reasons


def measure(paths, truth, policy, seconds: float) -> dict:
    warm = scan_pass(paths, policy)
    failures = judge(warm, truth, policy)
    deterministic = True
    passes: list[Pass] = []
    started = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - started < seconds:
        scan = scan_pass(paths, policy, stalled=warm.timed_out)
        deterministic &= scan.digest == warm.digest
        for name, reason in judge(scan, truth, policy).items():
            failures.setdefault(name, reason)
        scan.reports = []  # so that kept reports do not count toward peak RSS
        passes.append(scan)
    files = len(paths)
    raw_file = [statistics.median(p.seconds[name] for p in passes) for name in warm.seconds]
    per_file = [statistics.median(p.scaled[name] for p in passes) for name in warm.seconds]
    total_bytes = sum(os.path.getsize(path) for path in paths)
    raw = {
        "mb_per_s": (total_bytes / statistics.median(p.wall for p in passes) / 1e6, "MB/s", len(passes)),
        "file_ms_p50": (statistics.median(t for p in passes for t in p.seconds.values()) * 1000.0,
                        "ms", files * len(passes)),
        "file_ms_max": (max(raw_file) * 1000.0, "ms", len(passes)),
    }
    metrics = {
        "mb_per_s": (total_bytes / statistics.median(p.scaled_wall for p in passes) / 1e6, "MB/s",
                     len(passes)),
        "file_ms_p50": (statistics.median(t for p in passes for t in p.scaled.values()) * 1000.0,
                        "ms", files * len(passes)),
        "file_ms_max": (max(per_file) * 1000.0, "ms", len(passes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
        "verdict_ok_ratio": (1.0 - len(failures) / files, "ratio", files),
    }
    slowest = sorted(zip(per_file, warm.seconds), reverse=True)[:SLOWEST_SHOWN]
    return {"metrics": metrics, "raw": raw, "failures": failures, "files": files,
            "slowest_ms": {name: seconds * 1000.0 for seconds, name in slowest},
            "correct": deterministic, "checks": {"deterministic_renders": deterministic}}


def _rate(count: float, seconds: float, scale: float) -> float:
    return count / seconds / scale if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    own = tracer.self_times()
    count = tracer.counts

    def s(name: str) -> float:
        return own.get(name, 0.0)

    selected = count["payloads.selected"]
    return {
        "disasm.iter_programs_s": s("disasm.iter_programs"),
        "disasm.programs": count["disasm.programs"],
        "disasm.instructions": count["disasm.instructions"],
        "disasm.minstr_per_s": _rate(count["disasm.instructions"], s("disasm.iter_programs"), 1e6),
        "disasm.errors": count["disasm.errors"],
        "absvm.evaluate_s": s("absvm.evaluate"),
        "absvm.minstr_per_s": _rate(count["absvm.instructions"], s("absvm.evaluate"), 1e6),
        "absvm.errors": count["absvm.errors"],
        "absvm.call_roots_s": s("absvm.call_roots"),
        "absvm.calls": count["absvm.calls"],
        "absvm.events": count["absvm.events"],
        "absvm.memo_entries": count["absvm.memo_entries"],
        "containers.list_entries_s": s("containers.list_entries"),
        "containers.entries": count["containers.entries"],
        "containers.find_pickle_payloads_s": s("containers.find_pickle_payloads"),
        "containers.read_entry_s": s("containers.read_entry"),
        "containers.read_entry_head_s": s("containers.read_entry_head"),
        "containers.bytes_inflated": count["containers.bytes_inflated"],
        "containers.extract_h5_model_config_s": s("containers.extract_h5_model_config"),
        "containers.h5_mb_per_s": _rate(count["containers.h5_bytes"], s("containers.extract_h5_model_config"), 1e6),
        "containers.payload_useful_ratio": count["payloads.useful"] / selected if selected else 1.0,
        "containers.errors": count["containers.errors"],
        "kerascfg.walk_layers_s": s("kerascfg.walk_layers"),
        "kerascfg.layers": count["kerascfg.layers"],
        "kerascfg.anomalies": count["kerascfg.anomalies"],
        "policy.apply_rules_s": s("policy.apply_rules"),
        "policy.apply_keras_rules_s": s("policy.apply_keras_rules"),
        "policy.findings": count["policy.findings"],
        "report.render_s": s(RENDER),
        "report.bytes": count["report.bytes"],
        "scanner.self_s": s(ROOT),
        "scanner.sniff_s": s("scanner.sniff"),
        "scanner.files": count["scanner.files"],
        "trace.accounted_ratio": sum(own.values()) / wall,
    }


def unit(name: str) -> str:
    for suffix, label in (("minstr_per_s", "Minstr/s"), ("mb_per_s", "MB/s"), ("_mb", "MiB"),
                          ("_ratio", "ratio"), ("_speedup", "ratio"), ("_s", "s"), (".bytes", "B"),
                          ("bytes_inflated", "B")):
        if name.endswith(suffix):
            return label
    return "count"


def measure_traced(paths, truth, policy, seconds: float, spans_out: str | None) -> dict:
    warm = scan_pass(paths, policy)
    failures = judge(warm, truth, policy)
    tracer = Tracer()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    samples: list[dict[str, float]] = []
    deterministic = True
    started = perf_counter()
    while len(samples) < MIN_TRACED_PASSES or perf_counter() - started < seconds:
        plain_walls.append(scan_pass(paths, policy, stalled=warm.timed_out).wall)
        tracer.reset()
        with tracer.patched():
            scan = scan_pass(paths, policy, tracer, stalled=warm.timed_out)
        deterministic &= scan.digest == warm.digest
        traced_walls.append(scan.wall)
        samples.append(layer_metrics(tracer, scan.wall))
    if spans_out:
        tracer.dump(spans_out)

    # A separate pass under tracemalloc, so its cost stays out of the spans above.
    alloc = Tracer(track_alloc=True)
    tracemalloc.start()
    try:
        with alloc.patched():
            alloc_wall = scan_pass(paths, policy, alloc, warm.timed_out, ALLOC_FILE_LIMIT_S).wall
    finally:
        tracemalloc.stop()

    # scan_paths loses the whole batch when one file raises, so the thread
    # pool is timed on the files that scan_file completed.
    completed = [path for path in paths if os.path.basename(path) not in warm.failures]
    jobs = max(1, min(len(os.sched_getaffinity(0)), 8))
    serial: list[float] = []
    parallel: list[float] = []
    for _ in range(JOBS_ROUNDS):
        for jobs_now, walls in ((1, serial), (jobs, parallel)):
            began = perf_counter()
            scan_paths(completed, policy, jobs=jobs_now)
            walls.append(perf_counter() - began)

    n = len(samples)
    metrics = {name: (statistics.median(s[name] for s in samples), unit(name), n) for name in samples[0]}
    for layer in ("disasm.iter_programs", "absvm.evaluate"):
        metrics[layer.split(".")[0] + ".peak_alloc_mb"] = (alloc.peak_alloc[layer] / 2**20, "MiB", 1)
    metrics["scanner.jobs_speedup"] = (statistics.median(serial) / statistics.median(parallel), "ratio", JOBS_ROUNDS)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls) / statistics.median(plain_walls), "ratio", n)
    accounted = min(s["trace.accounted_ratio"] for s in samples)
    checks = {"deterministic_renders": deterministic, "self_times_cover_traced_wall": 0.95 <= accounted <= 1.0}
    phases_s = {"traced_passes": sum(traced_walls), "untraced_passes": sum(plain_walls),
                "tracemalloc_pass": alloc_wall, "jobs_passes": sum(serial) + sum(parallel)}
    return {"metrics": metrics, "failures": failures, "files": len(paths), "phases_s": phases_s,
            "correct": all(checks.values()), "checks": checks}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the last traced pass's spans here (JSON lines)")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    truth = json.loads((workdir / "truth.json").read_text())
    paths = sorted(str(path) for path in (workdir / "files").iterdir())
    if sorted(os.path.basename(path) for path in paths) != sorted(truth):
        print("workload files and ground truth disagree", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    policy = default_policy()
    if args.trace:
        result = measure_traced(paths, truth, policy, args.seconds, args.spans)
    else:
        result = measure(paths, truth, policy, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
