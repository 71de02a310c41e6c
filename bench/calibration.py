"""A fixed piece of pure-Python work that times the CPU a measurement ran on.

Shared machines drift: the same scan takes 20-40% longer in one minute than
in the next, for every process alike.  The benchmark interleaves short
``sample()`` calls with the work it times and reports each time scaled to a
reference speed, ``REFERENCE_S / sample``.  The work is the standard
library's pure-Python pickle disassembler over a fixed stream, small stack,
memo and frozenset bookkeeping, and a brace-matching loop over fixed JSON
bytes, so it slows down with the scanner's own loops but does not change
when the scanner does.
"""

from __future__ import annotations

import json
import pickle
import pickletools
import statistics
from time import perf_counter

# What one run of the work takes when the machine runs at its usual full speed.
REFERENCE_S = 0.001
# A sample is the fastest of a few back-to-back runs, so that the first run's
# cold caches, left cold by whatever ran before, do not count.
REPEATS = 3

_STREAM = pickle.dumps({f"layer{i}.weight": [i * 0.5] * 8 for i in range(120)}, protocol=2)
_JSON = json.dumps(
    {"layers": [{"class_name": "Dense", "config": {"name": f"dense_{i}", "units": i}} for i in range(40)]}
).encode()


def _work() -> None:
    stack: list = []
    memo: dict = {}
    for opcode, arg, _pos in pickletools.genops(_STREAM):
        if arg is not None:
            stack.append((opcode.name, arg))
        if opcode.name in ("BINPUT", "MEMOIZE"):
            memo[len(memo)] = stack[-1] if stack else None
    seen: frozenset = frozenset()
    for index in range(200):
        seen = seen | {index}
    depth = 0
    in_string = False
    collected = bytearray()
    for byte in _JSON:  # a brace-matching byte loop, as in the HDF5 config heuristic
        collected.append(byte)
        if in_string:
            in_string = byte != 0x22
        elif byte == 0x22:
            in_string = True
        elif byte == 0x7B:
            depth += 1
        elif byte == 0x7D:
            depth -= 1


def sample() -> float:
    """Seconds this process takes, right now, for one run of the fixed work."""
    best = float("inf")
    for _ in range(REPEATS):
        began = perf_counter()
        _work()
        best = min(best, perf_counter() - began)
    return best


def scale(*samples: float) -> float:
    """Factor that turns a time measured next to ``samples`` into reference time."""
    return REFERENCE_S / statistics.fmean(samples)
