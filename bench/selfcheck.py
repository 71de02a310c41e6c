"""Self-checks of the scan benchmark's generator and oracle.

    python3 bench/selfcheck.py [--seed N]

Run from the root of a checkout.  Checks that every workload is
byte-identical for one seed and different for the next seed (by digest), and
that the oracle flags a file whose recorded verdict or rule is made wrong
on purpose.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import shutil
import signal
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import workloads  # noqa: E402
from modelsentry.policy import default_policy  # noqa: E402

# Quick files whose verdicts are right today: one attack, one Keras Lambda.
ORACLE_FILES = ("forge_mal_reduce_p2.pkl", "forge_mal_lambda.keras")


def digest(items: list[workloads.Item]) -> str:
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(item.name.encode() + b"\0" + hashlib.sha256(item.data).digest())
    return hasher.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=work))
    results: list[tuple[str, bool]] = []
    try:
        for workload in workloads.WORKLOADS:
            first = digest(workloads.generate(workload, args.seed, scratch))
            again = digest(workloads.generate(workload, args.seed, scratch))
            other = digest(workloads.generate(workload, args.seed + 1, scratch))
            results.append((f"{workload}: seed {args.seed} repeats byte for byte", first == again))
            results.append((f"{workload}: seed {args.seed + 1} gives other files", first != other))

        items = [i for i in workloads.generate("hostile", args.seed, scratch) if i.name in ORACLE_FILES]
        truth = workloads.write(items, scratch)
        paths = sorted(str(scratch / "files" / name) for name in truth)
        policy = default_policy()
        signal.signal(signal.SIGALRM, child._on_alarm)
        scan = child.scan_pass(paths, policy)
        results.append(("oracle accepts the true ground truth", child.judge(scan, truth, policy) == {}))
        for name in ORACLE_FILES:
            wrong = copy.deepcopy(truth)
            wrong[name]["verdict"] = workloads.CLEAN
            flagged = child.judge(scan, wrong, policy)
            results.append((f"oracle flags a wrong verdict for {name}",
                            list(flagged) == [name] and "verdict" in flagged[name]))
            wrong = copy.deepcopy(truth)
            wrong[name]["rules"].append({"rule_id": "ARCHIVE_PATH_TRAVERSAL", "min_severity": "HIGH"})
            flagged = child.judge(scan, wrong, policy)
            results.append((f"oracle flags a missing rule for {name}",
                            list(flagged) == [name] and "missing" in flagged[name]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
