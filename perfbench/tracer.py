"""Spans and counters around the public functions of every partstats module.

The tracer wraps functions from outside the package: it replaces every
module binding of a wrapped function (``cli``, ``shifted_bell`` and
``asymptotics`` each import their own ``bell``; ``statistics`` and ``cli``
import ``enumerate_partitions``), and methods on their classes. Generators
are timed per ``next``.

Spans are kept in memory, rolled up by calling context: one record per
(job, parent record, span name) holding the call count, the summed duration
and the first start and last end. A record's self time is its duration minus
the durations of its child records. ``dump`` writes records and counters out
when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function names, span name); every name in a row shares the span
FUNCTIONS = [
    ("partitions", ["parse_partition"], "partitions.parse"),
    ("statistics", ["aggregate"], "statistics.aggregate"),
    ("statistics", ["merge_product"], "statistics.merge"),
    ("statistics", ["parse_pattern"], "statistics.parse"),
    ("recursions", ["dim_table", "dim_distribution"], "recursions.dim_dist"),
    ("recursions", ["int_table", "int_distribution"], "recursions.int_dist"),
    ("recursions", ["dim_moments_range", "dim_moments"], "recursions.dim_moments"),
    ("recursions", ["int_moments_range", "int_moments"], "recursions.int_moments"),
    ("exactnum", ["bell_mod_table", "bell_mod"], "exactnum.bell_mod"),
    ("asymptotics", ["alpha", "log_big_int", "log_bell_exact", "log_bell_asym", "bell_ratio",
                     "dim_moment_asym", "int_moment_asym"], "asymptotics"),
    ("cli", ["run"], "cli"),
]
# (module, class, method, span name)
METHODS = [
    ("statistics", "WeightPolynomial", "evaluate", "statistics.evaluate"),
    ("statistics", "Statistic", "evaluate", "statistics.value"),
    ("shifted_bell", "ShiftedBellPolynomial", "evaluate", "shifted_bell.evaluate"),
]

NAME, PARENT, JOB, COUNT, TOTAL, START, END = range(7)


class Tracer:
    def __init__(self):
        self.records = []  # [name, parent, job, count, total, start, end]
        self.counters = defaultdict(int)
        self._children = {}  # (parent record, name) -> record
        self._stack = []
        self.job = None

    # -- recording -------------------------------------------------------------
    def begin_job(self, job_id) -> None:
        self.job = job_id
        del self._stack[:]
        self.records.append(["job", -1, job_id, 1, 0.0, time.perf_counter(), 0.0])
        self._stack.append(len(self.records) - 1)

    def end_job(self) -> None:
        rec = self.records[self._stack[0]]
        rec[END] = time.perf_counter()
        rec[TOTAL] = rec[END] - rec[START]
        del self._stack[:]

    def wrap(self, name, fn, after=None, before=None):
        """``fn`` inside a span; ``after(result, state)`` updates counters,
        with ``state = before(*args)`` taken before the call."""
        records, children, stack, clock = self.records, self._children, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            key = (parent, name)
            rec = children.get(key)
            if rec is None:
                rec = children[key] = len(records)
                records.append([name, parent, self.job, 0, 0.0, None, 0.0])
            state = before(*args) if before else None
            stack.append(rec)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                r = records[rec]
                r[COUNT] += 1
                r[TOTAL] += t1 - t0
                r[END] = t1
                if r[START] is None:
                    r[START] = t0
            if after:
                after(result, state)
            return result

        return traced

    def wrap_generator(self, name, fn, item_counter):
        """A generator function whose every ``next`` is a span."""
        counters = self.counters

        def traced(*args, **kwargs):
            step = self.wrap(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                counters[item_counter] += 1
                yield item

        return traced

    def parent_name(self) -> str:
        return self.records[self._stack[-1]][NAME] if self._stack else ""

    # -- installing ----------------------------------------------------------------
    def install(self, package) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        c = self.counters

        def rebind(original, wrapper):
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

        def occurrences_done(result, _):
            c["statistics.occurrences.found"] += len(result)
            c["statistics.occurrences.hits"] += bool(result)

        def merge_done(result, _):
            c["statistics.merge.terms"] += len(result.terms)

        def fit_done(_result, profile_unknowns):
            c["shifted_bell.fit.unknowns"] += profile_unknowns

        table = mod["exactnum"]._BELL

        def bell_done(_result, state):
            n, before = state
            c["exactnum.bell.hits"] += n <= before
            c["exactnum.bell.max_index"] = max(c["exactnum.bell.max_index"], table.max_index)

        def recursion_done(result, _):
            if self.parent_name().startswith("recursions."):
                return  # counted by the outermost recursion call
            cells, bits = _cells_and_bits(result)
            c["recursions.out_cells"] += cells
            c["recursions.max_bits"] = max(c["recursions.max_bits"], bits)

        hooks = {
            "statistics.merge": merge_done,
            "recursions.dim_dist": recursion_done, "recursions.int_dist": recursion_done,
            "recursions.dim_moments": recursion_done, "recursions.int_moments": recursion_done,
        }
        rebind(mod["statistics"].occurrences,
               self.wrap("statistics.occurrences", mod["statistics"].occurrences, occurrences_done))
        for module, names, span in FUNCTIONS:
            for fname in names:
                original = getattr(mod[module], fname)
                rebind(original, self.wrap(span, original, hooks.get(span)))
        original = mod["shifted_bell"].fit
        rebind(original, self.wrap("shifted_bell.fit", original, fit_done,
                                   before=lambda samples, profile, *rest: profile.unknowns))
        original = mod["exactnum"].bell
        rebind(original, self.wrap("exactnum.bell", original, bell_done,
                                   before=lambda n: (n, table.max_index)))
        original = mod["partitions"].enumerate_partitions
        rebind(original, self.wrap_generator("partitions.enumerate", original, "partitions.enumerate.items"))
        for module, cls, method, span in METHODS:
            klass = getattr(mod[module], cls)
            setattr(klass, method, self.wrap(span, getattr(klass, method)))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"records": self.records, "counters": dict(self.counters)}, fh)


def _cells_and_bits(result):
    """Output cells and the largest bit length in a recursion's result."""
    if hasattr(result, "cells"):
        result = result.cells
    if isinstance(result, dict):
        values = list(result.values())
    elif result and isinstance(result[0], list):
        values = [v for row in result for v in row]
    else:
        values = list(result)
    return len(values), max((abs(v).bit_length() for v in values), default=0)


def layer_metrics(records: list) -> dict:
    """Self time and call count per span name, and the total job time."""
    child = [0.0] * len(records)
    for r in records:
        if r[PARENT] >= 0:
            child[r[PARENT]] += r[TOTAL]
    self_s, calls = defaultdict(float), defaultdict(int)
    for i, r in enumerate(records):
        self_s[r[NAME]] += r[TOTAL] - child[i]
        calls[r[NAME]] += r[COUNT]
    return self_s, calls
