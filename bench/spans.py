"""Span tracing for the traced benchmark pass, from outside the scanner.

``Tracer.patched()`` swaps the module attributes the scanner calls through
for wrappers that record one span per call (name, file, parent, start, end)
and take counts from return values.  Spans stay in memory; ``self_times``
turns one pass's spans into per-layer self times, and ``dump`` writes them
out once the run is over.  Nothing in the scanner's own files is modified.
"""

from __future__ import annotations

import contextlib
import json
import tracemalloc
from collections import Counter
from time import perf_counter

from modelsentry import absvm, containers, disasm, scanner

ROOT = "scanner.scan_file"
RENDER = "report.render"
# The per-program layers: allocation peaks are tracked on their spans, and an
# archive payload counts as useful only if it gets through both.
PROGRAM_LAYERS = ("disasm.iter_programs", "absvm.evaluate")

# (module, attribute, span name).  The scanner reaches these through a
# module attribute, or imported them by name into its own namespace.
_TARGETS = [
    (disasm, "iter_programs", "disasm.iter_programs"),
    (absvm, "evaluate", "absvm.evaluate"),
    (absvm, "call_roots", "absvm.call_roots"),
    (containers, "list_entries", "containers.list_entries"),
    (containers, "find_pickle_payloads", "containers.find_pickle_payloads"),
    (containers, "read_entry", "containers.read_entry"),
    (containers, "read_entry_head", "containers.read_entry_head"),
    (containers, "extract_h5_model_config", "containers.extract_h5_model_config"),
    (scanner, "sniff", "scanner.sniff"),
    (scanner, "apply_rules", "policy.apply_rules"),
    (scanner, "apply_keras_rules", "policy.apply_keras_rules"),
    (scanner, "walk_layers", "kerascfg.walk_layers"),
]


class Tracer:
    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, file, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peak_alloc: Counter = Counter()
        self.file = ""
        self._alloc_base = 0
        self._payloads: dict[int, bool] = {}  # id(payload bytes) -> evaluated cleanly
        self._payload_refs: list[bytes] = []  # keeps those ids from being reused
        self._current_payload: int | None = None

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if self.track_alloc and name in PROGRAM_LAYERS:
            tracemalloc.reset_peak()
            self._alloc_base = tracemalloc.get_traced_memory()[0]
        self.spans.append([name, self.file, parent, perf_counter(), 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[4] = perf_counter()
        self.stack.pop()
        if self.track_alloc and span[0] in PROGRAM_LAYERS:
            grown = tracemalloc.get_traced_memory()[1] - self._alloc_base
            self.peak_alloc[span[0]] = max(self.peak_alloc[span[0]], grown)

    @contextlib.contextmanager
    def span(self, name: str, file: str = ""):
        """A span the benchmark opens itself: one per file, or one per render."""
        self.file = file
        if name == ROOT:
            self.counts["scanner.files"] += 1
            self._payloads.clear()
            self._payload_refs.clear()
            self._current_payload = None
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)
            if name == ROOT:
                self.counts["payloads.selected"] += len(self._payloads)
                self.counts["payloads.useful"] += sum(self._payloads.values())

    def _failed(self, name: str, exc: BaseException) -> None:
        if not isinstance(exc, Exception) or isinstance(exc, containers.ConfigNotFound):
            return  # the per-file time limit, or an HDF5 file with no model config
        self.counts[name.split(".")[0] + ".errors"] += 1
        if name in PROGRAM_LAYERS and self._current_payload is not None:
            self._payloads[self._current_payload] = False

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                self._failed(name, exc)
                raise
            finally:
                self.close(index)
            self._count(name, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, function):
        """A span per ``next()``: a generator's work happens as it is drained."""

        def traced(stream, *args, **kwargs):
            self._current_payload = id(stream) if id(stream) in self._payloads else None
            programs = function(stream, *args, **kwargs)
            while True:
                index = self.open(name)
                try:
                    program = next(programs)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._failed(name, exc)
                    raise
                finally:
                    self.close(index)
                self.counts["disasm.programs"] += 1
                self.counts["disasm.instructions"] += len(program.instructions)
                yield program

        return traced

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        counts = self.counts
        if name == "absvm.evaluate":
            counts["absvm.instructions"] += len(args[0].instructions)
            counts["absvm.events"] += len(result.events)
            counts["absvm.memo_entries"] += result.memo_size
        elif name == "absvm.call_roots":
            counts["absvm.calls"] += 1
        elif name == "containers.list_entries":
            counts["containers.entries"] += len(result)
        elif name == "containers.find_pickle_payloads":
            for _entry, data in result:
                self._payloads[id(data)] = True
                self._payload_refs.append(data)
        elif name in ("containers.read_entry", "containers.read_entry_head"):
            counts["containers.bytes_inflated"] += len(result)
        elif name == "containers.extract_h5_model_config":
            counts["containers.h5_bytes"] += result.byte_range[1] - result.byte_range[0]
        elif name == "kerascfg.walk_layers":
            counts["kerascfg.layers"] += len(result)
            # The scanner passes a fresh anomaly list to every call.
            anomalies = args[1] if len(args) > 1 else kwargs.get("anomalies")
            counts["kerascfg.anomalies"] += len(anomalies or [])
        elif name.startswith("policy."):
            counts["policy.findings"] += len(result)

    @contextlib.contextmanager
    def patched(self):
        """Route the scanner's calls through span-recording wrappers."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in _TARGETS]
        try:
            for module, attr, name in _TARGETS:
                wrap = self._wrap_generator if name == "disasm.iter_programs" else self._wrap
                setattr(module, attr, wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, function in originals:
                setattr(module, attr, function)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Each span's duration minus the part its child spans cover, by name."""
        covered = [0.0] * len(self.spans)
        for name, _file, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for index, (name, _file, _parent, start, end) in enumerate(self.spans):
            totals[name] += end - start - covered[index]
        return dict(totals)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, file, parent, start, end) in enumerate(self.spans):
                record = {"id": index, "parent": parent, "name": name, "file": file,
                          "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")
