"""Span recording for the traced run, from outside the program.

Only the traced worker imports this.  ``Tracer.install`` rebinds public
names at the sites the program looks them up (``kitwpa.runner.X``,
``kitwpa.analysis.X`` ...) with wrappers that record spans; ``uninstall``
puts the originals back, so traced and untraced iterations can alternate in
one warm process.  Spans stay in memory until the worker writes them out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.integrate import RK45

import kitwpa.analysis
import kitwpa.dispersion
import kitwpa.fwm
import kitwpa.runner
from kitwpa.twoport import TwoPortMatrix

# fields of a span record
NAME, START, END, PARENT, OP, ATTRS = range(6)

# Counters that must repeat exactly across iterations and processes.
EXACT_COUNTERS = ("fwm.rhs_evals", "fwm.rk_steps", "fwm.segments",
                  "twoport.matmul_count", "circuit.elements",
                  "dispersion.stopband_count")

# per-layer time metric -> span name whose durations it sums (inclusive)
TIME_METRICS = {
    "circuit.expand_s": "circuit.expand",
    "circuit.netlist_write_s": "circuit.netlist_write",
    "circuit.netlist_read_s": "circuit.netlist_read",
    "twoport.network_matrix_s": "twoport.network_matrix",
    "twoport.touchstone_s": "twoport.touchstone",
    "dispersion.device_s": "dispersion.device",
    "dispersion.bloch_s": "dispersion.bloch",
    "dispersion.stopbands_s": "dispersion.stopbands",
    "fwm.integrate_s": "fwm.integrate",
    "fwm.harmonics_s": "fwm.harmonics",
    "analysis.metrics_s": "analysis.metrics",
    "analysis.calibrate_s": "analysis.calibrate",
    "analysis.sweep_s": "analysis.sweep",
    "runner.run_s": "runner.run",
}

BYTES_PER_POINT_PRODUCT = 12 * 16   # 8 complex inputs + 4 outputs per point


def _elements(result, args, kwargs):
    return {"elements": len(result.elements)}


def _stopbands(result, args, kwargs):
    return {"count": len(result)}


def _nonfinite(result, args, kwargs):
    ok = (np.isfinite(result.s11) & np.isfinite(result.s21)
          & np.isfinite(result.s12) & np.isfinite(result.s22))
    return {"nonfinite": int(ok.size - np.count_nonzero(ok))}


def _sweep_failures(result, args, kwargs):
    return {"failures": len(result.failures)}


def _dispersion_key(result, args, kwargs):
    """Identity of the network a ``device_dispersion`` call analysed: its
    period (the only part the Bloch curve depends on), grid and options."""
    network, rest = args[0], args[1:]
    p = network.periods
    chain = network.elements[:p.elements_per_period] if p else network.elements
    return {"key": (p, chain, rest, tuple(sorted(kwargs.items())))}


# (module, attribute, span name, attrs taken from the result)
PATCHES = (
    (kitwpa.analysis, "expand_design", "circuit.expand", _elements),
    (kitwpa.analysis, "with_i_star", "circuit.expand", _elements),
    (kitwpa.runner, "write_netlist", "circuit.netlist_write", None),
    (kitwpa.runner, "read_netlist", "circuit.netlist_read", _elements),
    (kitwpa.runner, "network_matrix", "twoport.network_matrix", None),
    (kitwpa.dispersion, "network_matrix", "twoport.network_matrix", None),
    (kitwpa.fwm, "network_matrix", "twoport.network_matrix", None),
    (kitwpa.runner, "to_s_parameters", "twoport.to_s_parameters", _nonfinite),
    (kitwpa.runner, "write_touchstone", "twoport.touchstone", None),
    (kitwpa.runner, "device_dispersion", "dispersion.device", _dispersion_key),
    (kitwpa.analysis, "device_dispersion", "dispersion.device", _dispersion_key),
    (kitwpa.dispersion, "bloch_dispersion", "dispersion.bloch", None),
    (kitwpa.runner, "find_stopbands", "dispersion.stopbands", _stopbands),
    (kitwpa.analysis, "find_stopbands", "dispersion.stopbands", _stopbands),
    (kitwpa.runner, "integrate_gain", "fwm.integrate", None),
    (kitwpa.analysis, "integrate_gain", "fwm.integrate", None),
    (kitwpa.runner, "third_harmonic_scan", "fwm.harmonics", None),
    (kitwpa.runner, "gain_metrics", "analysis.metrics", None),
    (kitwpa.analysis, "gain_metrics", "analysis.metrics", None),
    (kitwpa.runner, "calibrate_istar", "analysis.calibrate", None),
    (kitwpa.runner, "sweep", "analysis.sweep", _sweep_failures),
)


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent
    index, operation id, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._saved: list = []
        tracer = self

        class CountingRK45(RK45):
            """RK45 that counts accepted steps: each ``step`` call is one,
            since rejected attempts are retried inside it."""

            def step(self):
                tracer._rk_steps += 1
                return super().step()

        self._rk45 = CountingRK45
        self._rk_steps = 0

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self._op, {}])
        self._stack.append(len(self.spans) - 1)
        rec = self.spans[-1]
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[ATTRS].update(attrs(result, args, kwargs))
            return result
        return traced

    def run_op(self, op_id, run, *args):
        """Call ``kitwpa.runner.run`` as the root span of operation op_id."""
        self._op = op_id
        rec = self._open("runner.run")
        rec[ATTRS].update(matmul_count=0, matmul_points=0)
        try:
            return run(*args)
        finally:
            self._close(rec)
            self._op = None

    def _solve_ivp(self, orig):
        def solve_ivp(fun, t_span, y0, method="RK45", **kwargs):
            if method == "RK45":
                method = self._rk45
            self._rk_steps = 0
            rec = self._open("fwm.solve_ivp")
            try:
                sol = orig(fun, t_span, y0, method=method, **kwargs)
            finally:
                self._close(rec)
            # the propagator's bound RHS knows how many systems it stacks
            systems = getattr(getattr(fun, "__self__", None), "n", None)
            rec[ATTRS].update(nfev=int(sol.nfev), steps=self._rk_steps,
                              systems=int(systems or len(y0) // 3))
            return sol
        return solve_ivp

    def _matmul(self, orig):
        spans = self.spans
        stack = self._stack

        def matmul(a, b):
            root = spans[stack[0]][ATTRS]
            root["matmul_count"] += 1
            root["matmul_points"] += a.a.size
            return orig(a, b)
        return matmul

    # -- installation ----------------------------------------------------

    def install(self):
        for module, attr, name, attrs in PATCHES:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, attrs))
        self._saved.append((kitwpa.fwm, "solve_ivp", kitwpa.fwm.solve_ivp))
        kitwpa.fwm.solve_ivp = self._solve_ivp(kitwpa.fwm.solve_ivp)
        self._saved.append((TwoPortMatrix, "__matmul__", TwoPortMatrix.__matmul__))
        TwoPortMatrix.__matmul__ = self._matmul(TwoPortMatrix.__matmul__)

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def export(self) -> list:
        """Spans as JSON-ready records; unhashable keys become hashes."""
        out = []
        for name, start, end, parent, op, attrs in self.spans:
            attrs = dict(attrs)
            if "key" in attrs:
                attrs["key"] = hash(attrs["key"])
            out.append([name, start, end, parent, op, attrs])
        return out


def _covered(intervals) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def iteration_metrics(spans: list, ops: set) -> dict:
    """Per-layer metrics of one traced iteration (the spans of ``ops``)."""
    mine = [i for i, s in enumerate(spans) if s[OP] in ops]
    children: dict = {}
    for i in mine:
        children.setdefault(spans[i][PARENT], []).append(i)

    def ancestor(i, name):
        p = spans[i][PARENT]
        while p is not None:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def named(name):
        return [spans[i] for i in mine if spans[i][NAME] == name]

    def total(name, attr=None):
        if attr is None:
            return sum(s[END] - s[START] for s in named(name))
        # a span whose call raised carries no attrs
        return sum(s[ATTRS].get(attr, 0) for s in named(name))

    m = {metric: total(name) for metric, name in TIME_METRICS.items()}
    runs = [i for i in mine if spans[i][NAME] == "runner.run"]
    m["runner.self_s"] = sum(
        spans[i][END] - spans[i][START]
        - _covered((spans[c][START], spans[c][END]) for c in children.get(i, ()))
        for i in runs)
    m["circuit.elements"] = (total("circuit.expand", "elements")
                             + total("circuit.netlist_read", "elements"))
    m["twoport.matmul_count"] = total("runner.run", "matmul_count")
    m["twoport.matmul_bytes"] = (total("runner.run", "matmul_points")
                                 * BYTES_PER_POINT_PRODUCT)
    m["twoport.nonfinite_points"] = total("twoport.to_s_parameters", "nonfinite")
    device = named("dispersion.device")
    m["dispersion.stopband_count"] = total("dispersion.stopbands", "count")
    m["dispersion.distinct_ratio"] = (
        len({s[ATTRS].get("key") for s in device}) / len(device)
        if device else 0.0)
    solves = named("fwm.solve_ivp")
    m["fwm.integrate_calls"] = len(named("fwm.integrate"))
    m["fwm.segments"] = len(solves)
    m["fwm.rhs_evals"] = total("fwm.solve_ivp", "nfev")
    m["fwm.rk_steps"] = total("fwm.solve_ivp", "steps")
    system_evals = sum(spans[i][ATTRS].get("nfev", 0)
                       * spans[i][ATTRS].get("systems", 0)
                       for i in mine if spans[i][NAME] == "fwm.solve_ivp"
                       and ancestor(i, "fwm.integrate"))
    m["fwm.rhs_ns_per_system"] = (1e9 * m["fwm.integrate_s"] / system_evals
                                  if system_evals else 0.0)
    m["analysis.calibrate_probes"] = sum(
        1 for i in mine if spans[i][NAME] == "fwm.integrate"
        and ancestor(i, "analysis.calibrate"))
    m["analysis.sweep_failures"] = total("analysis.sweep", "failures")
    return m


def median_metrics(per_iteration: list) -> dict:
    """Median of each metric over traced iterations."""
    return {k: statistics.median(it[k] for it in per_iteration)
            for k in per_iteration[0]}
