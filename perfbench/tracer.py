"""Span tracer that wraps rolewire's public functions from outside.

The library has no instrumentation of its own, so the tracer replaces
each target function with a timing wrapper at every rolewire module that
binds it: `refine_eps_be`, for example, is imported into `cli`,
`metrics` and `teacher_student`, and `symmetric_eig` is looked up as a
`spectral` global. Spans (name, start, end, parent) stay in memory until
the run ends. A span's self time is its duration minus the time its
direct children cover; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute); "Class.method" wraps a method on its class.
TARGETS = (
    ("graph", "load_edge_list"),
    ("graph", "compact_ids"),
    ("graph", "Graph.dense_adjacency"),
    ("generators", "make_dataset"),
    ("generators", "eccentricity_labels"),
    ("partition", "refine_eps_be"),
    ("partition", "quotient"),
    ("rewire", "build_rewired"),
    ("rewire", "dump_rewired"),
    ("spectral", "normalized_shift"),
    ("spectral", "symmetric_eig"),
    ("spectral", "per_role_lift"),
    ("spectral", "srl_report"),
    ("metrics", "evaluate_candidates"),
    ("metrics", "two_hop_class_similarity"),
    ("metrics", "mean_effective_resistance"),
    ("teacher_student", "teacher_labels"),
    ("teacher_student", "train_student"),
)

SPAN_NAMES = tuple(mod + "." + attr.split(".")[-1] for mod, attr in TARGETS)

# Counts derived from a call's result. They depend only on the inputs, so
# they repeat exactly from run to run. dense_bytes is computed (8 bytes
# per float64 entry of the order x order shift), not measured.
COUNTERS = {
    "partition.refine_eps_be": lambda res: {"partition.roles_total": res.k},
    "spectral.symmetric_eig": lambda res: {"spectral.symmetric_eig.order_sum": len(res[0])},
    "spectral.normalized_shift": lambda res: {"spectral.dense_bytes": 8 * res.shape[0] ** 2},
    "rewire.build_rewired": lambda res: {"rewire.augmented_nnz": int(res.adjacency.nnz)},
    "teacher_student.train_student": lambda res: {
        "teacher_student.epochs_total": len(res[1].loss_trace)},
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding; returns a function that undoes it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "rolewire" or key.startswith("rolewire."))]
        undo = []
        for (modname, attr), name in zip(TARGETS, SPAN_NAMES):
            owner = sys.modules["rolewire." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def uninstall():
            for obj, key, original in reversed(undo):
                setattr(obj, key, original)

        return uninstall


def self_times(spans, start: int = 0) -> dict[str, float]:
    """Summed self time per span name over spans[start:].

    The slice must hold whole trees: every span's parent is in the slice
    or is -1.
    """
    child_time: dict[int, float] = defaultdict(float)
    for name, t0, t1, parent in spans[start:]:
        if parent >= 0:
            child_time[parent] += t1 - t0
    totals: dict[str, float] = defaultdict(float)
    for i in range(start, len(spans)):
        name, t0, t1, _ = spans[i]
        totals[name] += (t1 - t0) - child_time.get(i, 0.0)
    return dict(totals)
