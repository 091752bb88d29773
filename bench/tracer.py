"""Span tracer for the traced benchmark run.

The tracer replaces module-level names that vesselflow's modules call
(for example `vesselflow.solver.freeze_step`) with wrappers that record
one span per call: layer, parent span, start and end. Spans stay in
memory until the run ends, and `layers()` folds them into calls, total
time and self time per layer. A span under `check_state` is charged to
the wellposedness layer, not to its own. A name the program no longer
defines is reported as absent and its layer reads zero.
"""

from __future__ import annotations

import importlib
import time
from array import array

CHECK = "wellposedness.check_state"

# (module, name it calls, layer)
TRACED = (
    ("vesselflow.cli", "load_config", "config.load"),
    ("vesselflow.cli", "initial_state", "solver.initial_state"),
    ("vesselflow.cli", "run", "solver.run"),
    ("vesselflow.config", "load_config", "config.load"),
    ("vesselflow.solver", "initial_state", "solver.initial_state"),
    ("vesselflow.solver", "run", "solver.run"),
    ("vesselflow.solver", "picard_step", "solver.picard_step"),
    ("vesselflow.solver", "freeze_step", "characteristics.freeze_step"),
    ("vesselflow.solver", "interior_update", "characteristics.interior_update"),
    ("vesselflow.solver", "from_riemann", "constitutive.from_riemann"),
    ("vesselflow.solver", "assemble_branching", "junctions.assemble"),
    ("vesselflow.solver", "assemble_transitional", "junctions.assemble"),
    ("vesselflow.solver", "solve_junction", "junctions.solve"),
    ("vesselflow.solver", "close_external_pressure", "junctions.external"),
    ("vesselflow.solver", "close_external_flow", "junctions.external"),
    ("vesselflow.solver", "check_state", CHECK),
    ("vesselflow.solver", "emit_probes", "output.emit_probes"),
    ("vesselflow.characteristics", "coefficients", "constitutive.coefficients"),
    ("vesselflow.characteristics", "eigen", "constitutive.eigen"),
    # check_state imports freeze_step from here when it is called
    ("vesselflow.characteristics", "freeze_step", "characteristics.freeze_step"),
    ("vesselflow.wellposedness", "coefficients", "constitutive.coefficients"),
    ("vesselflow.wellposedness", "assemble_branching", "junctions.assemble"),
    ("vesselflow.wellposedness", "assemble_transitional", "junctions.assemble"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.full_sweeps = 0
        self.absent: list[str] = []
        self._stack = [-1]

    def install(self, table=TRACED) -> None:
        for module_name, attr, layer in table:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if layer not in self.names:
                self.names.append(layer)
            counts_sweeps = module_name == "vesselflow.solver" and layer == CHECK
            setattr(module, attr, self._wrap(fn, self.names.index(layer), counts_sweeps))

    def _wrap(self, fn, layer_id: int, counts_sweeps: bool):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if counts_sweeps and not kwargs.get("endpoints_only", False):
                self.full_sweeps += 1
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def layers(self) -> dict[str, dict[str, int]]:
        """Calls, total ns and self ns per layer (self time: the span's
        duration minus the durations of its direct child spans)."""
        n = len(self.start)
        check_id = self.names.index(CHECK) if CHECK in self.names else -2
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        under_check = bytearray(n)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_check[i] = under_check[p] or self.layer[p] == check_id
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            if under_check[i]:
                continue
            s = out[self.names[self.layer[i]]]
            s["calls"] += 1
            s["total_ns"] += dur[i]
            s["self_ns"] += dur[i] - child[i]
        return out
