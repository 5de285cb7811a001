"""Layer spans recorded from outside the library.

:func:`install` replaces each layer's public entry points with wrappers
that record a span (name, start, end, parent span, job id) and the layer's
work counters.  The library source is not edited: module-level functions
are rebound in every ``pwinterp`` module that holds them, methods are
replaced on their class.  Untraced runs never call :func:`install`.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from pwinterp import _engine, _tails, cli, criteria, genfn, interp, nodes


def _output_bytes(argv) -> int:
    argv = list(argv)
    return os.path.getsize(argv[argv.index("-o") + 1]) if "-o" in argv else 0


def _points(args):
    return (np.size(args[1]),)


def _pointwise(args):
    core, z = args[0], args[1]
    return np.size(z), np.size(z) * core.pos.size


def _reconstruct(args):
    return len(args[1]), args[2].points().size


# (owner, attribute, span name, counted metrics, counter).  The counter maps
# the call's positional arguments to one number per counted metric; it runs
# after the call has returned.
LAYERS = [
    (nodes, "separation", "nodes.separation", (), None),
    (_tails, "build_tail", "tails.build", (), None),
    (_engine.ProductCore, "__init__", "engine.setup", (), None),
    (_engine.ProductCore, "logabs_real", "engine.bulk",
     ("engine.bulk.points",), _points),
    (_engine.ProductCore, "eval_points", "engine.pointwise",
     ("engine.pointwise.points", "engine.pointwise.factor_evals"),
     _pointwise),
    (genfn, "build_generating_function", "genfn.build", (), None),
    (genfn.GeneratingFunction, "value", "genfn.value", (), None),
    (genfn.GeneratingFunction, "weight", "genfn.weight",
     ("genfn.weight.points",), _points),
    (genfn.GeneratingFunction, "node_derivatives", "genfn.node_derivatives",
     (), None),
    (criteria, "carleson_sum", "criteria.carleson", (), None),
    (criteria, "continuous_ap", "criteria.continuous_ap", (), None),
    (criteria, "select_probe_points", "criteria.probe_points", (), None),
    (criteria, "full_verdict", "criteria.full_verdict", (), None),
    (interp, "reconstruct", "interp.reconstruct",
     ("interp.reconstruct.samples", "interp.reconstruct.grid_points"),
     _reconstruct),
    (cli, "main", "cli.main", ("cli.output_bytes",),
     lambda args: (_output_bytes(args[0]),)),
]

# layers whose call count is a per-layer metric
CALL_COUNTED = ("nodes.separation", "tails.build", "engine.setup",
                "engine.pointwise", "criteria.carleson")


class Tracer:
    """In-memory span log for one process.

    ``job`` is the (job index, run number) of the job running now; every
    span and counter is tagged with it.
    """

    def __init__(self):
        self.spans = []       # (id, name, start, end, parent id, job)
        self.counts = defaultdict(int)   # (metric, job index) -> total
        self.job = None
        self._stack = []
        self._ids = itertools.count()

    def wrap(self, name, fn, counted, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.job))
            if counter is not None:
                for metric, n in zip(counted, counter(args)):
                    self.counts[metric, self.job[0]] += n
            return result
        return traced

    def self_times(self) -> dict:
        """Self time per (span name, job index): each span's duration minus
        the part of its interval that its child spans cover."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(float)
        for sid, name, start, end, _, job in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[name, job[0]] += (end - start) - covered
        return out

    def layer_metrics(self, runs_per_job: dict) -> dict:
        """Self time of every layer, call counts and work counters for one
        pass over the job list: each job's totals divided by the number of
        times it ran, summed over the jobs."""
        def per_pass(totals):
            out = defaultdict(float)
            for (key, j), total in totals.items():
                out[key] += total / runs_per_job[j]
            return out

        self_s = per_pass(self.self_times())
        calls = per_pass(Counter((span[1], span[5][0])
                                 for span in self.spans))
        counts = per_pass(self.counts)
        out = {f"{name}.self_s": self_s[name] for _, _, name, _, _ in LAYERS}
        out.update({f"{name}.calls": calls[name] for name in CALL_COUNTED})
        out.update({m: counts[m] for layer in LAYERS for m in layer[3]})
        for name in ("engine.bulk", "engine.pointwise"):
            points = out[f"{name}.points"]
            out[f"{name}.ns_per_point"] = (
                out[f"{name}.self_s"] / points * 1e9 if points else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")


def install(tracer: Tracer):
    """Route every entry point in :data:`LAYERS` through ``tracer``.

    Returns a function that puts the original entry points back.
    """
    modules = [m for n, m in sys.modules.items()
               if n == "pwinterp" or n.startswith("pwinterp.")]
    replaced = []
    for owner, attr, name, counted, counter in LAYERS:
        orig = getattr(owner, attr)
        traced = tracer.wrap(name, orig, counted, counter)
        holders = [(owner, attr)] if isinstance(owner, type) else [
            (mod, key) for mod in modules
            for key, val in vars(mod).items() if val is orig]
        for holder, key in holders:
            setattr(holder, key, traced)
            replaced.append((holder, key, orig))

    def uninstall():
        for holder, key, orig in replaced:
            setattr(holder, key, orig)
    return uninstall
