"""Span tracing of nlmagic from the benchmark's side.

``install`` replaces each traced function at every module attribute that
holds it, which is where callers look it up (``nlmagic.rcm.sample_shots``
as well as ``nlmagic.noise.sample_shots``). The wrapper records one span
per call: name, start, end, parent span, whether it raised, and the
counters listed in ``COUNTERS``. Spans stay in memory until ``save``
writes them out at exit; ``summarize`` turns a saved file into per-pass
self time, calls, errors and counter totals. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# Span name -> (module, functions recorded under that name).
TRACED = {
    "cli.main": ("cli", ("main",)),
    "scenarios.run_scenario": ("scenarios", ("run_scenario",)),
    "scenarios.report": ("scenarios", ("report_table1", "report_fig3", "report_fig4")),
    "circuits.run_circuit": ("circuits", ("run_circuit",)),
    "circuits.single_qubit_clifford_group": ("circuits", ("single_qubit_clifford_group",)),
    "rcm.collect_dataset": ("rcm", ("collect_dataset",)),
    "noise.sample_shots": ("noise", ("sample_shots",)),
    "noise.clean_probability_vector": ("noise", ("clean_probability_vector",)),
    "rcm.estimate": (
        "rcm",
        ("estimate_purity", "estimate_stabilizer_purity", "estimate_sre", "estimate_rdm_purity"),
    ),
    "rcm.purity_statistic": ("rcm", ("purity_statistic",)),
    "rcm.stabilizer_purity_statistic": ("rcm", ("stabilizer_purity_statistic",)),
    "mitigation.mitigate_least_squares": ("mitigation", ("mitigate_least_squares",)),
    "magic.sre_exact": ("magic", ("sre_exact",)),
    "magic.stabilizer_purity_exact": ("magic", ("stabilizer_purity_exact",)),
    "qcore.pauli_matrix_stack": ("qcore", ("pauli_matrix_stack",)),
    "erasure.sweep_landscape": ("erasure", ("sweep_landscape",)),
    "erasure.optimize_erasure": ("erasure", ("optimize_erasure",)),
    "benchfit.fit_exp_decay": ("benchfit", ("fit_exp_decay",)),
}


def _read(attribute: str):
    def call(fn, args, kwargs):
        result = fn(*args, **kwargs)
        return result, getattr(result, attribute)

    return call


def _iterations(fn, args, kwargs):
    """Run the mitigation solver with ``full_output`` to read its iteration
    count, and hand the caller what it asked for."""
    if kwargs.get("full_output") or len(args) > 4:
        result = fn(*args, **kwargs)
        return result, result[1]["iterations"]
    p, info = fn(*args, **kwargs, full_output=True)
    return p, info["iterations"]


# Span name -> (counter, call that returns the result and the counter
# value, how one pass combines the values of its calls).
COUNTERS = {
    "rcm.collect_dataset": ("draws", _read("n_samples"), sum),
    "mitigation.mitigate_least_squares": ("iterations", _iterations, sum),
    "erasure.optimize_erasure": ("evaluations", _read("evaluations"), sum),
    "qcore.pauli_matrix_stack": ("bytes", _read("nbytes"), max),
}

# The benchmark wraps each pass in a span of this name.
PASS_SPAN = "pass"


class Tracer:
    """In-memory span store, one list per field."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.failed: list[bool] = []
        self.counters: list[tuple[int, float]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        sid = self.names.index(name)
        counted = COUNTERS[name][1] if name in COUNTERS else None
        stack, start, end, failed = self._stack, self.start, self.end, self.failed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            self.name_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            failed.append(False)
            end.append(0.0)
            stack.append(i)
            start.append(time.perf_counter())
            try:
                if counted is None:
                    result = fn(*args, **kwargs)
                else:
                    result, value = counted(fn, args, kwargs)
            except BaseException:
                failed[i] = True
                raise
            finally:
                end[i] = time.perf_counter()
                stack.pop()
            if counted is not None:
                self.counters.append((i, float(value)))
            return result

        return traced

    def save(self, path) -> None:
        counters = np.array(self.counters, dtype=float).reshape(-1, 2)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.array(self.name_id, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            failed=np.array(self.failed, dtype=bool),
            counters=counters,
        )


def install(tracer: Tracer) -> None:
    """Swap every traced function for its recording wrapper."""
    modules = [m for n, m in list(sys.modules.items()) if n == "nlmagic" or n.startswith("nlmagic.")]
    for span, (module, functions) in TRACED.items():
        for fname in functions:
            original = getattr(sys.modules[f"nlmagic.{module}"], fname)
            wrapper = tracer.wrap(span, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def summarize(path) -> list[dict]:
    """Per pass, in order: ``{span: {"self_s", "calls", "errors", counter...}}``."""
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        name_id, parent, failed, counters = (data[k] for k in ("name_id", "parent", "failed", "counters"))
        duration = data["end"] - data["start"]
    children = parent >= 0
    child_time = np.bincount(parent[children], weights=duration[children], minlength=parent.size)
    self_time = duration - child_time
    # The top-level ancestor of each span, found by pointer jumping.
    root = np.where(children, parent, np.arange(parent.size))
    while True:
        nxt = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(nxt, root):
            break
        root = nxt
    pass_id = names.index(PASS_SPAN)
    passes = [int(i) for i in np.flatnonzero(name_id == pass_id)]
    summary = []
    for p in passes:
        members = (root == p) & (np.arange(parent.size) != p)
        layers = {}
        for sid in np.unique(name_id[members]):
            sel = members & (name_id == sid)
            layers[names[sid]] = {
                "self_s": float(self_time[sel].sum()),
                "calls": int(sel.sum()),
                "errors": int(failed[sel].sum()),
            }
        for span_index, value in counters[members[counters[:, 0].astype(np.int64)]]:
            span = names[name_id[int(span_index)]]
            key, _, combine = COUNTERS[span]
            layers[span][key] = combine((layers[span].get(key, 0.0), value))
        summary.append(layers)
    return summary
