"""Spans around natmap's public functions, and the per-layer metrics.

``Tracer.install`` replaces each traced function by a timing wrapper in
every natmap namespace that holds it, because natmap modules import names
directly (``natmap.natural_map.loxodromic_fixed_points`` is the name the
orbit table build looks up, not ``natmap.geometry``'s).  Methods are
wrapped on their class.  ``uninstall`` puts the originals back; the
wrappers are made once, at the first ``install``.

A span is (name, start, end, parent span, unit id, value); the value is
the Newton iteration count of an interior barycenter result and the table
size of an orbit boundary map.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SETUP_UNIT = -1

# (module, attribute or Class.attribute, span name)
TARGETS = (
    ("natmap.geometry", "loxodromic_fixed_points", "geometry.loxodromic_fixed_points"),
    ("natmap.geometry", "translation_length", "geometry.translation_length"),
    ("natmap.geometry", "busemann_gradients_frame", "geometry.busemann_gradients_frame"),
    ("natmap.geometry", "busemann_many", "geometry.busemann_many"),
    ("natmap.measures", "max_atom_mass", "measures.max_atom_mass"),
    ("natmap.measures", "VisualFamily.quadrature", "measures.VisualFamily.quadrature"),
    ("natmap.barycenter", "barycenter", "barycenter.barycenter"),
    ("natmap.natural_map", "OrbitBoundaryMap.build", "natural_map.OrbitBoundaryMap.build"),
    ("natmap.natural_map", "PushedFamily.__init__", "natural_map.PushedFamily"),
    ("natmap.natural_map", "natural_map", "natural_map.natural_map"),
    ("natmap.natural_map", "operators_at", "natural_map.operators_at"),
    ("natmap.natural_map", "jacobian", "natural_map.jacobian"),
    ("natmap.natural_map", "convergence_diagnostics", "natural_map.convergence_diagnostics"),
    ("natmap.spd", "boundary_bound_scan", "spd.boundary_bound_scan"),
    ("natmap.spd", "random_trace_one_spd", "spd.random_trace_one_spd"),
    ("natmap.spd", "psi", "spd.psi"),
    ("natmap.spd", "quantitative_converse", "spd.quantitative_converse"),
    ("natmap.triangulation", "deformation_path", "triangulation.deformation_path"),
    ("natmap.triangulation", "solve_edge_equations", "triangulation.solve_edge_equations"),
    ("natmap.triangulation", "holonomy_from_shapes", "triangulation.holonomy_from_shapes"),
    ("natmap.triangulation", "sample_gluing_variety", "triangulation.sample_gluing_variety"),
    ("natmap.triangulation", "bloch_wigner", "triangulation.bloch_wigner"),
    ("natmap.cli", "cmd_psi_scan", "cli.psi_scan"),
    ("natmap.cli", "cmd_psi_converse", "cli.psi_converse"),
    ("natmap.cli", "cmd_volume_path", "cli.volume_path"),
)


def _jacobian_name(args, kwargs) -> str:
    method = args[4] if len(args) > 4 else kwargs.get("method", "implicit")
    return "natural_map.jacobian." + method.replace("-", "_")


def _scan_name(args, kwargs) -> str:
    margin = args[1] if len(args) > 1 else kwargs["margin"]
    return f"spd.boundary_bound_scan.margin_{margin:.0e}".replace("e-0", "e-")


_NAMERS = {"natural_map.jacobian": _jacobian_name,
           "spd.boundary_bound_scan": _scan_name}


def _result_value(name: str, result):
    if name == "barycenter.barycenter" and result.kind == "interior":
        return result.iterations
    if name == "natural_map.OrbitBoundaryMap.build":
        return result.table_source.shape[0]
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self.values: list = []
        self.unit = SETUP_UNIT
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        namer = _NAMERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span = len(tracer.names)
            tracer.names.append(namer(args, kwargs) if namer else name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.units.append(tracer.unit)
            tracer.values.append(None)
            tracer.ends.append(0.0)
            tracer._stack.append(span)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[span] = perf_counter()
                tracer._stack.pop()
            tracer.values[span] = _result_value(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every natmap namespace that holds it."""
        if not self._patches:
            self._patches = self._find_patches()
        for obj, key, _, wrapped in self._patches:
            setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, original, _ in reversed(self._patches):
            setattr(obj, key, original)

    def _find_patches(self) -> list[tuple]:
        """(namespace, name, original, wrapper) for every traced name."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "natmap" or key.startswith("natmap.")]
        patches = []
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                patches.append((cls, meth, raw, wrapped))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            patches += [(mod, key, original, wrapped) for mod in modules
                        for key, val in vars(mod).items() if val is original]
        return patches

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: index, name, start, end, parent, unit, value."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,unit,value\n")
            for i, name in enumerate(self.names):
                v = self.values[i]
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                         f"{self.parents[i]},{self.units[i]},{'' if v is None else v}\n")

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, count_units: set[int]) -> dict[str, float]:
        """Per-layer metrics; counts from set-up plus ``count_units`` only.

        Times are per call over every traced span, except where a metric
        says otherwise.  A layer the workload never reaches reads 0.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child_time[self.parents[i]] += dur[i]
        by_name = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)
        in_window = [u == SETUP_UNIT or u in count_units for u in self.units]

        def ancestor(i: int, name: str) -> int:
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            return p

        def mean_ms(name: str) -> float:
            spans = by_name.get(name, [])
            return 1e3 * sum(dur[i] for i in spans) / len(spans) if spans else 0.0

        def per_parent(name: str, parent: str, window: bool) -> tuple[float, float]:
            """(calls, ms) of ``name`` inside ``parent``, per ``parent`` call."""
            parents = [i for i in by_name.get(parent, []) if in_window[i] or not window]
            if not parents:
                return 0.0, 0.0
            inside = [i for i in by_name.get(name, [])
                      if (in_window[i] or not window) and ancestor(i, parent) >= 0]
            return (len(inside) / len(parents),
                    1e3 * sum(dur[i] for i in inside) / len(parents))

        def mean_value(name: str) -> float:
            vals = [self.values[i] for i in by_name.get(name, [])
                    if in_window[i] and self.values[i] is not None]
            return statistics.fmean(vals) if vals else 0.0

        out = {}
        build = "natural_map.OrbitBoundaryMap.build"
        for layer in ("loxodromic_fixed_points", "translation_length"):
            name = f"geometry.{layer}"
            out[f"{name}.calls"] = per_parent(name, build, True)[0]
            out[f"{name}.ms"] = per_parent(name, build, False)[1]
        solve = "barycenter.barycenter"
        out["geometry.busemann_gradients_frame.calls"] = per_parent(
            "geometry.busemann_gradients_frame", solve, True)[0]
        out["geometry.busemann_many.calls"] = per_parent(
            "geometry.busemann_many", solve, True)[0]
        out["geometry.busemann.ms"] = (
            per_parent("geometry.busemann_gradients_frame", solve, False)[1]
            + per_parent("geometry.busemann_many", solve, False)[1])
        out["measures.max_atom_mass.calls"] = per_parent(
            "measures.max_atom_mass", solve, True)[0]
        out["measures.max_atom_mass.ms"] = mean_ms("measures.max_atom_mass")
        out["measures.VisualFamily.quadrature.ms"] = 1e3 * sum(
            dur[i] for i in by_name.get("measures.VisualFamily.quadrature", [])
            if self.units[i] == SETUP_UNIT)
        out["barycenter.barycenter.ms"] = mean_ms(solve)
        solves = by_name.get(solve, [])
        out["barycenter.barycenter.self_ms"] = (
            1e3 * sum(dur[i] - child_time[i] for i in solves) / len(solves)
            if solves else 0.0)
        out["barycenter.newton_iterations"] = mean_value(solve)
        out[f"{build}.ms"] = mean_ms(build)
        out["natural_map.orbit_table_entries"] = mean_value(build)
        for name in ("natural_map.PushedFamily", "natural_map.natural_map",
                     "natural_map.operators_at", "natural_map.jacobian.implicit",
                     "natural_map.jacobian.finite_difference",
                     "natural_map.convergence_diagnostics",
                     "spd.boundary_bound_scan.margin_1e-3",
                     "spd.boundary_bound_scan.margin_1e-4",
                     "spd.random_trace_one_spd", "spd.psi",
                     "spd.quantitative_converse", "triangulation.deformation_path"):
            out[f"{name}.ms"] = mean_ms(name)
        out["triangulation.solve_edge_equations.calls"] = per_parent(
            "triangulation.solve_edge_equations", "triangulation.deformation_path", True)[0]
        for name in ("triangulation.holonomy_from_shapes",
                     "triangulation.sample_gluing_variety",
                     "triangulation.bloch_wigner", "cli.psi_scan",
                     "cli.psi_converse", "cli.volume_path"):
            out[f"{name}.ms"] = mean_ms(name)
        out["cli.self_ms"] = self._cli_self_ms(dur)
        return out

    def _cli_self_ms(self, dur: list[float]) -> float:
        """Command time minus its outermost spd and triangulation spans."""
        commands = [i for i, name in enumerate(self.names) if name.startswith("cli.")]
        if not commands:
            return 0.0
        inner = {i: 0.0 for i in commands}
        for i, name in enumerate(self.names):
            if not name.startswith(("spd.", "triangulation.")):
                continue
            p, outermost = self.parents[i], True
            while p >= 0 and not self.names[p].startswith("cli."):
                if self.names[p].startswith(("spd.", "triangulation.")):
                    outermost = False
                p = self.parents[p]
            if p >= 0 and outermost:
                inner[p] += dur[i]
        return 1e3 * sum(dur[i] - inner[i] for i in commands) / len(commands)
