"""Spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public functions and methods of each
whittlesched layer in place (in every module that imported them), so calls
made inside the library are recorded as well.  A span is a row of five
columns: name, start, end, parent span and op id.  Rows live in flat arrays
while the run lasts and are written out when it ends.  Some calls are only
counted, against the name of the span they happen in.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name); attribute "Class.method" patches the class
SPANS = (
    ("whittlesched.whittle", "build_index_table", "whittle.build_index_table"),
    ("whittlesched.relaxed", "solve_relaxed", "relaxed.solve_relaxed"),
    ("whittlesched.fluid", "FluidModel.__init__", "fluid.model_init"),
    ("whittlesched.fluid", "FluidModel.step", "fluid.step"),
    ("whittlesched.fluid", "linearize", "fluid.linearize"),
    ("whittlesched.fluid", "stability_certificate", "fluid.certificate"),
    ("whittlesched.fluid", "fluid_trajectory", "fluid.trajectory"),
    ("whittlesched.sim", "make_engine", "sim.make_engine"),
    ("whittlesched.sim", "run_throughput", "sim.run_throughput"),
    ("whittlesched.sim", "PooledEngine.step", "sim.step"),
    ("whittlesched.cli", "main", "cli.main"),
)
COUNTS = (
    ("whittlesched.relaxed", "activation_fraction", "relaxed.activation_fraction"),
    ("whittlesched.fluid", "FluidModel.in_linear_region", "fluid.in_linear_region"),
)
OP = "op"


def _engine_label(config, *args, **kwargs) -> str:
    """Cell of a simulation, as in sim.step_us.whittle.1c.n1e3."""
    return (f"{config.policy}.{config.mix.n_classes}c."
            f"n1e{round(math.log10(config.n_users))}")


# spans whose call arguments are kept as a label: {span name: label function}
LABELS = {"sim.make_engine": _engine_label}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.labels: dict[int, str] = {}  # span index -> label of its call
        self.counts: Counter = Counter()  # (counted name, enclosing span name)
        self._stack: list[int] = []
        self._op_id = -1
        self._ops = 0
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        label = LABELS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            if label:
                self.labels[idx] = label(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _count_wrapper(self, fn, name: str):
        def counted(*args, **kwargs):
            where = self.names[self.name[self._stack[-1]]] if self._stack else None
            self.counts[(name, where)] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def op_span(self):
        """Span of one benchmark op; the library spans under it share its id."""
        self._op_id = self._ops
        self._ops += 1
        idx = self._open(self._name_id(OP))
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def install(self) -> None:
        """Wrap the layer boundaries of the whittlesched modules now loaded."""
        mods = [m for n, m in sys.modules.items()
                if n == "whittlesched" or n.startswith("whittlesched.")]
        for factory, table in ((self._span_wrapper, SPANS), (self._count_wrapper, COUNTS)):
            for mod_name, attr, name in table:
                owner = sys.modules[mod_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    self._patch(owner, attr, factory(getattr(owner, attr), name))
                    continue
                original = getattr(owner, attr)
                wrapped = factory(original, name)
                for mod in mods:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self, main_ops: int) -> tuple[dict[str, tuple[float, str]], dict]:
        """Per-layer metrics as {name: (value, unit)}, plus diagnostics about
        the trace over the first ``main_ops`` ops (those of the workload the
        run was asked for).  Times are means per call unless named per step."""
        c = self.columns()
        dur = c["end"] - c["start"]
        parent = c["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(name):
            return c["name"] == ids.get(name, -1)

        def per(total, calls):
            return float(total / calls) if calls else 0.0

        def mean_ms(name, scale=1e3):
            m = sel(name)
            return per(dur[m].sum() * scale, m.sum())

        def calls_under(name, parent_name):
            return int((sel(name) & np.isin(parent, np.flatnonzero(sel(parent_name)))).sum())

        out = {}
        steps = sel("sim.step")
        # a slot's cell is the label of the engine built by the same
        # run_throughput call
        run_cell = {int(parent[i]): cell for i, cell in self.labels.items()}
        step_cell = np.array([run_cell.get(int(p), "") for p in parent[steps]])
        for policy in ("whittle", "relaxed"):
            for mix in ("1c", "2c"):
                for n in ("n1e3", "n1e5"):
                    cell = f"{policy}.{mix}.{n}"
                    d = dur[steps][step_cell == cell]
                    out[f"sim.step_us.{cell}"] = (per(d.sum() * 1e6, d.size), "us")
        out["sim.make_engine_ms"] = (mean_ms("sim.make_engine"), "ms")
        out["sim.slots"] = (int(steps.sum()), "count")
        out["fluid.step_us"] = (mean_ms("fluid.step", 1e6), "us")
        traj = sel("fluid.trajectory")
        out["fluid.trajectory_self_us_per_step"] = (
            per(self_time[traj].sum() * 1e6, calls_under("fluid.step", "fluid.trajectory")), "us")
        out["fluid.steps"] = (int(sel("fluid.step").sum()), "count")
        out["fluid.model_init_ms"] = (mean_ms("fluid.model_init"), "ms")
        out["fluid.linearize_ms"] = (mean_ms("fluid.linearize"), "ms")
        n_lin = int(sel("fluid.linearize").sum())
        out["fluid.linearize_step_calls"] = (
            per(calls_under("fluid.step", "fluid.linearize"), n_lin), "count")
        out["fluid.linearize_region_checks"] = (
            per(self.counts[("fluid.in_linear_region", "fluid.linearize")], n_lin), "count")
        out["fluid.certificate_ms"] = (mean_ms("fluid.certificate"), "ms")
        out["whittle.build_index_table_ms"] = (mean_ms("whittle.build_index_table"), "ms")
        out["relaxed.solve_ms"] = (mean_ms("relaxed.solve_relaxed"), "ms")
        out["relaxed.activation_evals"] = (
            per(self.counts[("relaxed.activation_fraction", "relaxed.solve_relaxed")],
                sel("relaxed.solve_relaxed").sum()), "count")
        out["cli.pipeline_ms"] = (mean_ms("cli.main"), "ms")
        main = sel("cli.main")
        out["cli.self_ms"] = (per(self_time[main].sum() * 1e3, main.sum()), "ms")

        ops = sel(OP) & (c["op"] < main_ops)
        diag = {
            "spans": int(dur.size),
            # op time not covered by any library span: the benchmark's own glue
            "untraced_share": per(self_time[ops].sum(), dur[ops].sum()),
        }
        return out, diag
