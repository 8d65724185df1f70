"""Span tracer installed around the public functions of each `rllbec` layer.

The benchmark's traced passes wrap the functions listed in TARGETS. A
wrapper replaces the function under every name the package binds it to,
so aliases such as `rllbec.sim.feedback_capacity` (imported by name)
are traced too. Nothing under `src/` changes.

A call is always counted. It is also recorded as a span (name id, parent
span id, start, end) when it crosses a layer boundary, i.e. when the
innermost open span belongs to another layer or there is none. Calls
inside the same layer, such as `codec.partition` under
`codec.transmit_message`, are only counted: their time is part of the
layer's own span, and recording them would multiply the tracing cost of
the per-use codec functions. Spans stay in memory in flat arrays and are
written out once, after the pass.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import tracemalloc
from array import array

import numpy as np

import rllbec
from rllbec import capacity, cli, codec, constraint, markov, sim

MODULES = (rllbec, cli, capacity, codec, sim, constraint, markov)


def _cert_gap(bound, result):
    """|C - log2((1 - d)/d)| for the last parameter d of an interior optimum."""
    p = result.argmax
    d = p.delta[-1]
    if p.epsilon < 1.0 and 0.0 < d < 1.0:
        return abs(result.value - math.log2((1.0 - d) / d))
    return None


def _grid_rows(bound, result):
    a = bound.arguments
    return a["grid_n"] ** a["k"] + 201 * a["k"]  # cube rows plus the refinement lines


def _symbols(bound, result):
    bits = bound.arguments["bits"]
    return len(bits) if hasattr(bits, "__len__") else None


def _value(bound, result):
    return result


# (span name, owner, attribute, observer of (bound args, result), track allocations)
TARGETS = (
    ("cli.main", cli, "main", None, False),
    ("capacity.feedback_capacity", capacity, "feedback_capacity", _cert_gap, False),
    ("capacity.nc_capacity_d_inf", capacity, "nc_capacity_d_inf", None, False),
    ("capacity.capacity_12", capacity, "capacity_12", None, False),
    ("capacity.fb_upper_2inf", capacity, "fb_upper_2inf", None, True),
    ("capacity.grid_max_rate", capacity, "grid_max_rate", _grid_rows, True),
    ("codec.transmit_message", codec, "transmit_message", None, False),
    ("codec.partition", codec, "partition", None, False),
    ("codec.input_bit", codec, "input_bit", None, False),
    ("codec.update_live", codec, "update_live", None, False),
    ("codec.next_label", codec, "next_label", None, False),
    ("sim.run_feedback_sim", sim, "run_feedback_sim", None, False),
    ("sim.channel", sim.BecChannel, "step", None, False),
    ("sim.label_occupancy_check", sim, "label_occupancy_check", _value, False),
    ("constraint.first_violation", constraint, "first_violation", _symbols, False),
    ("markov.stationary", markov, "stationary", None, False),
    ("markov.build_labeling_chain", markov, "build_labeling_chain", None, False),
)


class Tracer:
    """Holds the spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.observed = []     # per name id: values returned by its observer
        self.alloc_mb = []     # per name id: tracemalloc peaks
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [(-1, None)]  # (span id, layer) of the open spans
        self._patched = []

    def _wrap(self, fn, name, observer, track_alloc):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.observed.append([])
        self.alloc_mb.append([])
        layer = name.split(".")[0]
        calls, stack = self.calls, self._stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        observed, alloc = self.observed[nid], self.alloc_mb[nid]
        sig = inspect.signature(fn) if observer else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            parent, parent_layer = stack[-1]
            if parent_layer == layer:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append((sid, layer))
            if track_alloc:
                tracemalloc.start()
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                if track_alloc:
                    alloc.append(tracemalloc.get_traced_memory()[1] / 2 ** 20)
                    tracemalloc.stop()
            if observer:
                value = observer(sig.bind(*args, **kwargs), result)
                if value is not None:
                    observed.append(value)
            return result

        return traced

    def install(self):
        """Wrap every target under each name the package binds it to."""
        for name, owner, attr, observer, track_alloc in TARGETS:
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, observer, track_alloc)
            owners = [owner] + [m for m in MODULES if m is not owner]
            for mod in owners:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def arrays(self):
        """The spans as numpy arrays: name id, parent span id, start, end."""
        return (np.array(self.span_name, dtype=np.int32), np.array(self.span_parent, dtype=np.int32),
                np.array(self.span_start), np.array(self.span_end))

    def save(self, path):
        nid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent, start=start, end=end)

    def stats(self):
        """Per span name: calls, durations (s), total self time (s), observed values, alloc peaks."""
        nid, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        out = {}
        for i, name in enumerate(self.names):
            mine = nid == i
            out[name] = {
                "calls": self.calls[i],
                "durations": dur[mine],
                "self_s": float(self_time[mine].sum()),
                "observed": self.observed[i],
                "alloc_mb": self.alloc_mb[i],
            }
        return out


def per_layer_metrics(stats, uses: int) -> dict:
    """The per-layer metrics of one traced pass.

    `uses` is the number of simulated channel uses in the pass (0 when
    no simulation ran); per-use ratios are 0 then.
    """

    def calls(n):
        return float(stats[n]["calls"])

    def busy(n):
        return float(stats[n]["durations"].sum())

    def pct_ms(n, q):
        d = stats[n]["durations"]
        return float(np.percentile(d, q)) * 1e3 if d.size else 0.0

    def most(n, key):
        vals = stats[n][key]
        return float(max(vals)) if vals else 0.0

    def per_use(x):
        return x / uses if uses else 0.0

    def per_busy(x, n):
        b = busy(n)
        return x / b if b > 0 else 0.0

    fc, gm, fv = "capacity.feedback_capacity", "capacity.grid_max_rate", "constraint.first_violation"
    codec_self = stats["codec.transmit_message"]["self_s"] + stats["codec.next_label"]["self_s"]
    out = {
        f"{fc}.calls": calls(fc),
        f"{fc}.busy_s": busy(fc),
        f"{fc}.p50_ms": pct_ms(fc, 50),
        f"{fc}.p95_ms": pct_ms(fc, 95),
        f"{fc}.cert_gap_max": most(fc, "observed"),
    }
    for n in ("capacity.nc_capacity_d_inf", "capacity.capacity_12"):
        out[f"{n}.busy_s"] = busy(n)
        out[f"{n}.p50_ms"] = pct_ms(n, 50)
    n = "capacity.fb_upper_2inf"
    out.update({f"{n}.calls": calls(n), f"{n}.busy_s": busy(n), f"{n}.p50_ms": pct_ms(n, 50),
                f"{n}.peak_alloc_mb": most(n, "alloc_mb")})
    out.update({f"{gm}.calls": calls(gm), f"{gm}.busy_s": busy(gm),
                f"{gm}.rows_per_s": per_busy(sum(stats[gm]["observed"]), gm),
                f"{gm}.peak_alloc_mb": most(gm, "alloc_mb")})
    n = "codec.transmit_message"
    out.update({f"{n}.calls": calls(n), f"{n}.busy_s": busy(n),
                # codec self time: the session loop and the histogram replay,
                # without the channel draws it calls out to
                "codec.ns_per_use": per_use(codec_self) * 1e9})
    for n in ("partition", "input_bit", "update_live", "next_label"):
        out[f"codec.{n}.calls_per_use"] = per_use(calls(f"codec.{n}"))
    n = "sim.run_feedback_sim"
    out.update({f"{n}.busy_s": busy(n), f"{n}.self_s": stats[n]["self_s"],
                "sim.channel.draws": calls("sim.channel"), "sim.channel.busy_s": busy("sim.channel"),
                "sim.label_occupancy_check.busy_s": busy("sim.label_occupancy_check"),
                "sim.occupancy_dist_max": most("sim.label_occupancy_check", "observed")})
    out.update({f"{fv}.calls": calls(fv), f"{fv}.busy_s": busy(fv),
                f"{fv}.symbols_per_s": per_busy(sum(stats[fv]["observed"]), fv)})
    n = "markov.stationary"
    out.update({f"{n}.calls": calls(n), f"{n}.busy_s": busy(n)})
    out["cli.main.self_s"] = stats["cli.main"]["self_s"]
    return out
