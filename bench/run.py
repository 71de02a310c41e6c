"""Scan benchmark: generate a seeded workload, scan it in a fresh child, check it.

    python3 bench/run.py --workload {pickle_bulk,model_hub,hostile} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the scanner is imported from its ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones from a traced child.  Every file's verdict is
checked against the generator's ground truth; failing files are listed by
name above the result line.  Generated files live in ``.bench_work/`` only
while the run lasts; the spans of a traced run stay there afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 7
CHILD_TIMEOUT_S = 160

# What every `modelsentry scan` pays before it reads a byte.
SETUP_CODE = (
    "import modelsentry.cli\n"
    "from modelsentry.policy import default_policy\n"
    "default_policy()\n"
    "import time\n"
    "print(time.monotonic())\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # str hashing and so dict and set layouts repeat
    return env


def measure_setup() -> tuple[tuple[float, str, int], tuple[float, str, int]]:
    """Median time from launching an interpreter to a loaded CLI and policy,
    at the calibration's reference speed and unscaled.

    Both ends read CLOCK_MONOTONIC, which is shared by every process.  Each
    launch is scaled by calibration samples this process takes just before
    and just after it.  The first launch is discarded: it may compile
    bytecode into the checkout.
    """
    scaled, raw = [], []
    previous = calibration.sample()
    for launch in range(SETUP_LAUNCHES + 1):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=child_env(), capture_output=True,
            text=True, check=True, timeout=60,
        )
        elapsed = float(done.stdout) - started
        current = calibration.sample()
        if launch:
            raw.append(elapsed)
            scaled.append(elapsed * calibration.scale(previous, current))
        previous = current
    return (statistics.median(scaled), "s", len(scaled)), (statistics.median(raw), "s", len(raw))


def run_child(workdir: Path, seconds: int, trace: int, spans: Path | None) -> dict:
    command = [sys.executable, str(BENCH / "child.py"), str(workdir), "--seconds", str(seconds),
               "--trace", str(trace)]
    if spans is not None:
        command += ["--spans", str(spans)]
    done = subprocess.run(command, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmark child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "modelsentry" / "__init__.py").is_file():
        print(f"no scanner sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        items = workloads.generate(args.workload, args.seed, workdir)
        truth = workloads.write(items, workdir)
        (workdir / "truth.json").write_text(json.dumps(truth))
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
        result = run_child(workdir, args.seconds, args.trace, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result["metrics"]
    if not args.trace:
        setup, result["raw"]["setup_s"] = measure_setup()
        metrics = {"setup_s": setup, **metrics}

    failures = result["failures"]
    print(f"# {args.workload} seed={args.seed}: {result['files']} files, "
          f"{sum(len(item.data) for item in items)} bytes")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:9s} samples={samples}")
    print(f"{'failed_ratio':40s} {len(failures) / result['files']:14.6g} {'ratio':9s} "
          f"samples={result['files']}")
    for name, reason in sorted(failures.items()):
        recipe = truth[name]["recipe"]
        print(f"FAILED {name}{f' [{recipe}]' if recipe else ''}: {reason}")
    for name, (value, unit, samples) in result.get("raw", {}).items():
        print(f"{name + ' (unscaled)':40s} {value:14.6g} {unit:9s} samples={samples}")
    for name, ms in result.get("slowest_ms", {}).items():
        print(f"slowest {name}: {ms:.1f} ms")
    for phase, seconds in result.get("phases_s", {}).items():
        print(f"phase {phase}: {seconds:.2f} s")
    for check, ok in result["checks"].items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["files"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
