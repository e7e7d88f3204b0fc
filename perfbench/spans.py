"""In-memory span recording around the program's public layer entry points.

A :class:`Tracer` swaps a timing wrapper in for each layer function named
in :data:`LAYER_TARGETS` while a traced pass runs, and restores the
originals afterwards. Each span records its name, start, end, parent span
and the run it belongs to; spans stay in memory until the benchmark
writes them out. :func:`self_times` turns a span list into per-layer self
time: a span's duration minus the part of it that its child spans cover.

Only calls made in this process are seen. Work done in pool workers is
read from the ``RunTelemetry`` records the program returns instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Run id of a span that belongs to the whole batch, not one run.
BATCH = ""

#: ``(module, attribute path, layer name)`` of every wrapped entry point.
#: The attribute is patched where the program looks it up at call time:
#: ``run_batch`` through the ``repro.runtime`` package (the fleet runner
#: imports it from there on each call), the fusion functions on their own
#: module (the executor imports them inside ``run_batch``), and
#: ``publish_catalog`` in the executor, which binds it at import.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime", "run_batch", "runtime.executor"),
    ("repro.runtime.fused", "plan_fusion", "runtime.fused.plan"),
    ("repro.runtime.fused", "rank_projection", "runtime.fused.rank_projection"),
    ("repro.runtime.cache", "CatalogKey.build", "traces.catalog_build"),
    ("repro.core.simulation", "run_simulation_observed", "core.simulate"),
    ("repro.runtime.executor", "publish_catalog", "runtime.shm.publish"),
    ("repro.runtime.ledger", "RunLedger.record_run", "runtime.ledger.record"),
    ("repro.fleet.runner", "assemble_report", "fleet.assemble"),
)

#: The span that encloses one whole pass; its self time is benchmark glue.
PASS = "bench.pass"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str  #: ``"<batch>:<index>"`` of the run, or :data:`BATCH`

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and the batch results returned through ``run_batch``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.batches: List[object] = []  #: every ``BatchResult`` seen
        self._stack: List[int] = []
        self._next_id = 0
        self._batch_no = -1
        self._run_of_label: Dict[str, int] = {}

    # ------------------------------------------------------------ recording
    @contextlib.contextmanager
    def span(self, name: str, run: str = BATCH) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, run))

    def _run_id(self, label: Optional[str]) -> str:
        index = self._run_of_label.get(label) if label else None
        return BATCH if index is None else f"{self._batch_no}:{index}"

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        if layer == "runtime.executor":

            def run_batch(runs, *args, **kwargs):
                specs = getattr(runs, "runs", runs)
                self._batch_no += 1
                self._run_of_label = {s.label: i for i, s in enumerate(specs) if s.label}
                with self.span(layer):
                    batch = fn(runs, *args, **kwargs)
                self.batches.append(batch)
                return batch

            return run_batch
        if layer == "runtime.ledger.record":

            def record_run(ledger, index, *args, **kwargs):
                with self.span(layer, f"{self._batch_no}:{index}"):
                    return fn(ledger, index, *args, **kwargs)

            return record_run
        if layer in ("core.simulate", "runtime.fused.rank_projection"):

            def per_run(first, *args, **kwargs):
                with self.span(layer, self._run_id(getattr(first, "label", None))):
                    return fn(first, *args, **kwargs)

            return per_run

        def batch_level(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return batch_level

    @contextlib.contextmanager
    def installed(
        self, targets: Sequence[Tuple[str, str, str]] = LAYER_TARGETS
    ) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        undo: List[Tuple[object, str, object]] = []
        try:
            for module_name, path, layer in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def finish(self) -> List[Span]:
        """Spans in start order, with catalog builds joined to their run.

        A catalog build happens just before the run that needed it starts
        simulating, so a build span with no run of its own takes the run of
        the next simulate span under the same parent.
        """
        spans = sorted(self.spans, key=lambda s: s.start)
        out = []
        for i, s in enumerate(spans):
            if s.name == "traces.catalog_build" and s.run == BATCH:
                nxt = next(
                    (t for t in spans[i + 1:] if t.name == "core.simulate" and t.parent == s.parent),
                    None,
                )
                if nxt is not None and nxt.run != BATCH:
                    s = dataclasses.replace(s, run=nxt.run)
            out.append(s)
        return out


# ---------------------------------------------------------------- arithmetic
def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    children: Dict[Optional[int], List[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        kids = [(c.start, c.end) for c in children.get(s.id, ())]
        out[s.name] += s.duration - covered_length(kids, s.start, s.end)
    return dict(out)
