"""Outside-in tracer for the pulsepair package.

The tracer wraps every function named in a layer module's ``__all__``,
plus ``SweepResult.csv_text`` and ``SweepResult.write_csv``, without any
change to the package.  A module that bound a function through
``from .x import f`` calls it through its own namespace, so the wrapper is
rebound in every loaded ``pulsepair.*`` namespace that holds the original;
``uninstall`` puts every original back.

Each wrapped call records one span (name, start, end, parent, job id) in
memory.  Counts that the per-layer metrics need are computed from the
call's arguments and result at the same boundary.  Nothing is written
until ``write_spans`` is called at the end of a run.
"""

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("cli", "config", "scenarios", "pulses", "evolution", "entanglement", "pauli", "validation")

# Spans whose inclusive time is reported as a metric of its own.
RK4_SPANS = ("evolution.rk4_oracle", "evolution.rk4_oracle_batch")
ORACLE_SPANS = ("evolution.unitary_oracle",)
CSV_SPANS = ("scenarios.SweepResult.csv_text", "scenarios.SweepResult.write_csv")

# Span tuple layout: (name, start, end, parent index or -1, job id).
NAME, START, END, PARENT, JOB = range(5)


def _rk4_steps(t_ends, step):
    """(steps taken, steps needed) of an RK4 call with a common step count."""
    positive = [float(t) for t in t_ends if float(t) > 0.0]
    if not positive:
        return 0, 0
    common = math.ceil(max(positive) / step)
    return len(t_ends) * common, sum(math.ceil(t / step) for t in positive)


def _count_run_sweep(counts, bound, result):
    cfg = bound.arguments["cfg"]
    counts["scenarios.cells"] += cfg.grid.points * len(cfg.initial_states)


def _count_csv_text(counts, bound, result):
    counts["scenarios.csv_bytes"] += len(result)


def _count_eigen_batch(counts, bound, result):
    counts["pauli.matrices"] += len(bound.arguments["ms"])


def _count_rk4_batch(counts, bound, result):
    taken, needed = _rk4_steps(bound.arguments["t_ends"], bound.arguments["step"])
    counts["evolution.rk4_steps"] += taken
    counts["evolution.rk4_needed_steps"] += needed


def _count_rk4(counts, bound, result):
    taken, needed = _rk4_steps([bound.arguments["t_end"]], bound.arguments["step"])
    counts["evolution.rk4_steps"] += taken
    counts["evolution.rk4_needed_steps"] += needed


COUNTERS = {
    "scenarios.run_sweep": _count_run_sweep,
    "scenarios.SweepResult.csv_text": _count_csv_text,
    "pauli.hermitian_eigenvalues_batch": _count_eigen_batch,
    "evolution.rk4_oracle_batch": _count_rk4_batch,
    "evolution.rk4_oracle": _count_rk4,
}


class Tracer:
    """Records spans and counts around calls into the pulsepair layers."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()
        self.job = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        errors = self.errors
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound, result)
            return result

        return traced

    def install(self):
        """Wrap the layer functions and rebind them in every pulsepair namespace."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pulsepair.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [
            module
            for key, module in list(sys.modules.items())
            if key == "pulsepair" or key.startswith("pulsepair.")
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])
        sweep_result = importlib.import_module("pulsepair.scenarios").SweepResult
        for attr in ("csv_text", "write_csv"):
            original = vars(sweep_result)[attr]
            self._restore.append((sweep_result, attr, original))
            setattr(sweep_result, attr, self._wrap(f"scenarios.SweepResult.{attr}", original))

    def uninstall(self):
        """Put every original function back where install found it."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path):
        """Write the recorded spans as tab-separated lines, one per span."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\n")
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{job}\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans from one thread nest strictly, so the children of a span never
    overlap one another and their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    inside = [False] * len(spans)
    picked = []
    for index, span in enumerate(spans):
        covered = span[PARENT] >= 0 and inside[span[PARENT]]
        named = span[NAME] in names
        inside[index] = covered or named
        if named and not covered:
            picked.append(span)
    return picked


def layer_summary(spans):
    """Self seconds and calls per layer, top-level seconds per job, and the
    inclusive seconds of the RK4, expm-oracle and CSV spans.

    ``spans`` must be in recording order (a parent before its children) and
    carry parent indices into the same list.
    """
    self_s = Counter()
    calls = Counter()
    for span, own in zip(spans, self_times(spans)):
        layer = span[NAME].split(".", 1)[0]
        self_s[layer] += own
        calls[layer] += 1
    top_by_job = Counter()
    for span in spans:
        if span[PARENT] < 0:
            top_by_job[span[JOB]] += span[END] - span[START]
    inclusive = {
        key: sum((span[END] - span[START] for span in _outermost(spans, names)), 0.0)
        for key, names in (("rk4", RK4_SPANS), ("oracle", ORACLE_SPANS), ("csv", CSV_SPANS))
    }
    return {"self_s": self_s, "calls": calls, "top_s": top_by_job, "inclusive_s": inclusive}
