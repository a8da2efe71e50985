"""The four benchmark workloads.

Each workload builds its inputs in ``__init__`` (the set-up the benchmark
times as ``setup_s``), makes the inputs of unit ``i`` in ``make_input``
(untimed), runs the unit in ``run`` (timed) and checks the unit's outputs
in ``check`` (untimed), returning one message per failed check.  Every
call into natmap goes through a module attribute (``nmap.natural_map``,
``cli.main``), so the wrappers of a traced run see it.

Inputs of unit ``i`` come from ``numpy.random.default_rng([seed, i])``,
so a seed fixes every unit, and a run always walks units 0, 1, 2, ...
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from natmap import barycenter as bary
from natmap import cli, geometry, measures
from natmap import natural_map as nmap
from natmap import triangulation as tri

from . import oracles

TRACE_TOL = 1e-12
STATIONARITY_TOL = 1e-9


def _unit_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def _probe(rng: np.random.Generator, k: int, r_lo: float, r_hi: float) -> geometry.HPoint:
    """Ball point at hyperbolic radius uniform in [r_lo, r_hi]."""
    d = rng.standard_normal(k)
    d /= np.linalg.norm(d)
    return geometry.HPoint(np.tanh(rng.uniform(r_lo, r_hi) / 2.0) * d)


def _natural_map_checks(tag: str, pushed, x: np.ndarray, H: np.ndarray,
                        image: np.ndarray) -> list[str]:
    """trace H = 1 and the stationarity residual recomputed at F(x)."""
    out = []
    tr = float(np.trace(H))
    if not abs(tr - 1.0) <= TRACE_TOL:
        out.append(f"{tag}: trace H = {tr!r}, not 1 within {TRACE_TOL}")
    res = oracles.stationarity_residual(x, pushed.nodes, pushed.base_weights,
                                        pushed.images, image)
    if not res <= STATIONARITY_TOL:
        out.append(f"{tag}: stationarity residual {res:.3e} > {STATIONARITY_TOL}")
    return out


class Workload:
    """Base of the workloads: ``make_input``, ``run`` and ``check`` as in
    the module docstring."""

    name = ""
    ops_per_unit = 1      # operations counted in ``attempted`` per unit
    round_units = 1       # a run always ends on a multiple of this
    count_units = 1       # traced units whose counts form the count metrics

    def __init__(self, seed: int):
        self.seed = seed

    def failed(self, inp, out) -> int:
        """Failed operations of one unit; only the kept fault counts."""
        return 0


# ---------------------------------------------------------------------------
# rigidity-path
# ---------------------------------------------------------------------------

class RigidityPath(Workload):
    """One step of the 50-step figure-eight path of ``rigidity-report``."""

    name = "rigidity-path"
    count_units = 2
    steps = 50

    def __init__(self, seed: int):
        super().__init__(seed)
        self.path = tri.deformation_path(tri.figure_eight(), steps=self.steps)
        self.complete = self.path[0].representation
        self.family = measures.VisualFamily(3, 2000)
        self.family.quadrature()
        rng = np.random.default_rng(seed)
        self.probes = [_probe(rng, 3, 0.1, 0.5) for _ in range(4)]

    def make_input(self, i: int):
        return 1 + i % self.steps, i % len(self.probes)

    def run(self, inp):
        step_index, probe_index = inp
        st = self.path[step_index]
        D = nmap.OrbitBoundaryMap.build(self.complete, st.representation,
                                        max_word_length=8, min_table=5000)
        pushed = nmap.PushedFamily(D, self.family)
        rows = nmap.convergence_diagnostics(
            [(st.t, st.representation, D, st.volume.value)], self.family,
            self.probes, tri.FIG8_VOLUME)
        p = self.probes[probe_index]
        pair = nmap.operators_at(st.representation, pushed, self.family, p)
        fd = nmap.jacobian(st.representation, pushed, self.family, p,
                           "finite-difference", pair=pair)
        return {"table_source": D.table_source, "table_target": D.table_target,
                "pushed": pushed, "rows": rows, "pair": pair, "fd": fd}

    def check(self, inp, out) -> list[str]:
        step_index, probe_index = inp
        st = self.path[step_index]
        tag = f"{self.name} step {step_index}"
        errs = []
        for side in ("table_source", "table_target"):
            table = out[side]
            if table.shape[0] < 5000:
                errs.append(f"{tag}: {side} has {table.shape[0]} < 5000 entries")
            dev = float(np.max(np.abs(np.linalg.norm(table, axis=1) - 1.0)))
            if not dev <= 1e-12:
                errs.append(f"{tag}: {side} entries leave the unit sphere by {dev:.2e}")
        p = self.probes[probe_index]
        pair = out["pair"]
        errs += _natural_map_checks(tag, out["pushed"], p.coords, pair.H,
                                    pair.image.coords)
        implicit = nmap.jacobian(st.representation, out["pushed"], self.family,
                                 p, "implicit", pair=pair)
        gap = float(np.max(np.abs(implicit.DF - out["fd"].DF)))
        if not gap <= 1e-3:
            errs.append(f"{tag}: implicit and finite-difference DF differ by {gap:.2e}")
        worst = max(r.jac for r in out["rows"])
        if not worst <= 1.0 + 5e-3:
            errs.append(f"{tag}: Jac_k = {worst!r} > 1 + 5e-3")
        bound = nmap.jacobian_bound_check(pair, implicit, 3, 3)
        if not bound.bound - implicit.jac_k >= -1e-3:
            errs.append(f"{tag}: bound - Jac_k = {bound.bound - implicit.jac_k:.2e} < -1e-3")
        vol_m = oracles.figure_eight_volume()
        vol = st.volume.value
        if st.t >= 1e-2 and not vol < vol_m:
            errs.append(f"{tag}: Vol(rho_t) = {vol!r} not below Vol(M) = {vol_m!r}")
        ref = oracles.shapes_volume(st.shapes)
        if not abs(vol - ref) <= 1e-12:
            errs.append(f"{tag}: volume {vol!r} differs from mpmath {ref!r}")
        return errs


# ---------------------------------------------------------------------------
# exact-natural-map
# ---------------------------------------------------------------------------

class ExactNaturalMap(Workload):
    """One probe sent through four exact boundary maps."""

    name = "exact-natural-map"
    ops_per_unit = 4
    count_units = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.family = measures.VisualFamily(3, 2000)
        self.family_fine = measures.VisualFamily(3, 8000)
        g = geometry.random_isometry(np.random.default_rng(seed), 3, 0.7, 0.7)
        self.g = g
        self.maps = {
            "identity": nmap.PushedFamily(nmap.identity_boundary_map(3), self.family),
            "identity-8192": nmap.PushedFamily(nmap.identity_boundary_map(3),
                                               self.family_fine),
            "mobius": nmap.PushedFamily(nmap.MobiusBoundaryMap(g), self.family),
            "geodesic-m5": nmap.PushedFamily(nmap.TotallyGeodesicBoundaryMap(3, 5),
                                             self.family),
        }

    def make_input(self, i: int):
        return _probe(_unit_rng(self.seed, i), 3, 0.05, 1.0)

    def run(self, x):
        out = {}
        for key, pushed in self.maps.items():
            F = nmap.natural_map(None, pushed, pushed.family, x)
            pair = nmap.operators_at(None, pushed, pushed.family, x, image=F)
            jac = nmap.jacobian(None, pushed, pushed.family, x, "implicit", pair=pair)
            bound = nmap.jacobian_bound_check(pair, jac, 3, pushed.target_dim)
            out[key] = {"F": F.coords, "H": pair.H, "jac": jac.jac_k,
                        "bound": bound.bound}
        return out

    def check(self, x, out) -> list[str]:
        xc = x.coords
        errs = []
        for key, pushed in self.maps.items():
            r = out[key]
            errs += _natural_map_checks(f"{self.name} {key}", pushed, xc,
                                        r["H"], r["F"])
        for key, budget in (("identity", 5e-4), ("identity-8192", 2.5e-4)):
            r = out[key]
            d = oracles.distance(r["F"], xc)
            if not d <= budget:
                errs.append(f"{self.name} {key}: d(F(x), x) = {d:.3e} > {budget}")
            if not abs(r["jac"] - 1.0) <= 1e-3:
                errs.append(f"{self.name} {key}: |Jac_k - 1| = {abs(r['jac'] - 1.0):.3e}")
            if not r["jac"] <= r["bound"] + 1e-9:
                errs.append(f"{self.name} {key}: Jac_k {r['jac']!r} above bound {r['bound']!r}")
        f_id = out["identity"]["F"]
        d = oracles.distance(out["mobius"]["F"], oracles.lorentz_apply(self.g.lorentz, f_id))
        if not d <= 1e-8:
            errs.append(f"{self.name} mobius: d(F_g(x), g F_id(x)) = {d:.3e} > 1e-8")
        f5 = out["geodesic-m5"]["F"]
        extra = float(np.max(np.abs(f5[3:])))
        if not extra <= 1e-12:
            errs.append(f"{self.name} geodesic-m5: extra coordinates {extra:.3e} > 1e-12")
        agree = float(np.linalg.norm(f5[:3] - f_id))
        if not agree <= 1e-8:
            errs.append(f"{self.name} geodesic-m5: |F(x) - F_id(x)| = {agree:.3e} > 1e-8")
        return errs


# ---------------------------------------------------------------------------
# atomic-barycenter
# ---------------------------------------------------------------------------

MAX_GENERIC_ATOM = 0.49


def two_equal_atoms_list(n: int) -> list[np.ndarray]:
    """The fixed two-equal-atoms inputs: n draws of two Gaussian points
    from ``default_rng(0)``, independent of the run's seed."""
    rng = np.random.default_rng(0)
    return [rng.standard_normal((2, 3)) for _ in range(n)]


class AtomicBarycenter(Workload):
    """A generic measure (solved and pushed), a dominant atom, two equal atoms."""

    name = "atomic-barycenter"
    ops_per_unit = 4
    round_units = 100
    count_units = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.loose = bary.SolverConfig(gradient_tol=1e-10)
        self.tight = bary.SolverConfig(gradient_tol=1e-12)
        self.pairs = [measures.atomic_measure([0.5, 0.5], p)
                      for p in two_equal_atoms_list(self.round_units)]

    def make_input(self, i: int):
        rng = _unit_rng(self.seed, i)
        # no atom near 1/2: the solver stalls within 1e-8 of it, and its
        # gradient tolerance stops pinning the location within 1e-3 of it
        while True:
            n = int(rng.integers(3, 7))
            w = rng.dirichlet(np.ones(n))
            if w.max() < MAX_GENERIC_ATOM:
                break
        generic = measures.atomic_measure(w, rng.standard_normal((n, 3)))
        g = geometry.random_isometry(rng, 3, 0.7, 0.7)
        n = int(rng.integers(2, 5))
        heavy = rng.uniform(0.55, 0.9)
        w = np.concatenate([[heavy], (1.0 - heavy) * rng.dirichlet(np.ones(n))])
        dominant = measures.atomic_measure(w, rng.standard_normal((n + 1, 3)))
        return {"generic": generic, "g": g, "dominant": dominant,
                "pair": self.pairs[i % self.round_units]}

    def run(self, inp):
        r1 = bary.barycenter(inp["generic"], self.loose)
        pushed = measures.pushforward(inp["generic"], inp["g"])
        r2 = bary.barycenter(pushed, self.tight)
        r3 = bary.barycenter(inp["dominant"], self.loose)
        try:
            r4 = bary.barycenter(inp["pair"], self.loose)
        except bary.TwoEqualAtomsError:
            r4 = "TwoEqualAtomsError"
        except (ValueError, RuntimeError) as exc:
            r4 = f"{type(exc).__name__}: {exc}"
        return {"generic": r1, "pushed_measure": pushed, "pushed": r2,
                "dominant": r3, "pair": r4}

    def check(self, inp, out) -> list[str]:
        errs = []
        tag = self.name
        slack = 0.0
        for key, beta in (("generic", inp["generic"]), ("pushed", out["pushed_measure"])):
            r = out[key]
            if r.kind != "interior":
                errs.append(f"{tag} {key}: kind {r.kind!r}, expected interior")
                continue
            y = r.location.coords
            grad = oracles.atomic_gradient(beta.weights, beta.points, y)
            if not grad <= 1e-9:
                errs.append(f"{tag} {key}: gradient {grad:.3e} > 1e-9 at the result")
            slack += grad / oracles.atomic_hessian_floor(beta.weights, beta.points, y)
        if not errs:
            # a result with gradient e lies about e / (smallest Hessian
            # eigenvalue) from the true barycenter; twice that is allowed on
            # top of 1e-8 (it stays below 1e-8 unless atoms nearly merge)
            lhs = out["pushed"].location.coords
            rhs = oracles.lorentz_apply(inp["g"].lorentz, out["generic"].location.coords)
            d = oracles.distance(lhs, rhs)
            if not d <= 1e-8 + 2.0 * slack:
                errs.append(f"{tag}: equivariance error {d:.3e} > 1e-8 + {2.0 * slack:.1e}")
        r = out["dominant"]
        atom = inp["dominant"].points[0]
        if r.kind != "boundary-atom":
            errs.append(f"{tag} dominant: kind {r.kind!r}, expected boundary-atom")
        elif not oracles.angle(r.location.direction, atom) <= 1e-12:
            errs.append(f"{tag} dominant: result {oracles.angle(r.location.direction, atom):.3e}"
                        " rad from the heavy atom")
        pair = out["pair"]
        if isinstance(pair, str) and pair != "TwoEqualAtomsError":
            errs.append(f"{tag} two equal atoms: raised {pair}")
        return errs

    def failed(self, inp, out) -> int:
        # the two-equal-atoms fault: a result instead of TwoEqualAtomsError
        return int(not isinstance(out["pair"], str))


# ---------------------------------------------------------------------------
# psi-volume
# ---------------------------------------------------------------------------

PSI_COMMANDS = (
    ("psi-scan", ["psi-scan"]),
    ("psi-scan-1e-4", ["psi-scan", "--margin", "1e-4", "--samples", "10000"]),
    ("psi-converse", ["psi-converse"]),
    ("volume-path", ["volume-path"]),
)


class PsiVolume(Workload):
    """The psi and volume commands of the CLI, run in-process."""

    name = "psi-volume"
    ops_per_unit = len(PSI_COMMANDS)

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed)
        self.scratch = scratch

    def make_input(self, i: int):
        cmd_seed = int(_unit_rng(self.seed, i).integers(2 ** 31))
        self.scratch.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix=f"unit{i}-", dir=self.scratch))
        return {"seed": cmd_seed, "root": root}

    def run(self, inp):
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for key, argv in PSI_COMMANDS:
                out = inp["root"] / key
                codes[key] = cli.main(argv + ["--seed", str(inp["seed"]),
                                              "--out", str(out)])
        return codes

    def read_outputs(self, inp, codes) -> dict:
        """Exit codes, report JSONs and the volume CSV; removes the files."""
        root = inp["root"]
        out = {"codes": codes, "reports": {}}
        for key, argv in PSI_COMMANDS:
            path = root / key / f"{argv[0]}.json"
            out["reports"][key] = (json.loads(path.read_text(encoding="utf-8"))
                                   if path.exists() else None)
        csv = root / "volume-path" / "volume-path.csv"
        out["volume_csv"] = csv.read_text(encoding="utf-8") if csv.exists() else ""
        shutil.rmtree(root)
        return out

    def check(self, inp, out) -> list[str]:
        return check_psi_outputs(self.read_outputs(inp, out))


def _assertion(report: dict, name: str) -> float:
    return next(a["value"] for a in report["assertions"] if a["name"] == name)


def check_psi_outputs(out: dict) -> list[str]:
    tag = PsiVolume.name
    errs = []
    for key, _ in PSI_COMMANDS:
        rep = out["reports"][key]
        if out["codes"][key] != 0 or rep is None or rep.get("pass") is not True:
            errs.append(f"{tag} {key}: exit {out['codes'][key]}, pass "
                        f"{None if rep is None else rep.get('pass')}")
    if errs:
        return errs
    scan = out["reports"]["psi-scan"]
    sup = oracles.collar_supremum(scan["params"]["margin"])
    top = scan["collar_scan"]["max_value"]
    if not sup - 1e-9 <= top <= sup + 1e-12:
        errs.append(f"{tag}: collar max {top!r} at margin 1e-3 outside "
                    f"[sup - 1e-9, sup + 1e-12], sup = {sup!r}")
    top4 = out["reports"]["psi-scan-1e-4"]["collar_scan"]["max_value"]
    if not top4 <= 0.2501:
        errs.append(f"{tag}: collar max {top4!r} at margin 1e-4 above 0.2501")
    sample = _assertion(scan, "random_sample_bound")
    if not sample <= 27.0 / 64.0 + 1e-12:
        errs.append(f"{tag}: random-sample max {sample!r} above 27/64")
    radius = out["reports"]["psi-converse"]["converse"]["delta_max_sampled"]
    if not radius <= 0.02:
        errs.append(f"{tag}: converse radius {radius!r} above 0.02")
    vol_m = oracles.figure_eight_volume()
    lines = out["volume_csv"].strip().splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    complete = [float(r["volume"]) for r in rows if float(r["t"]) == 0.0]
    if len(complete) != 1 or not abs(complete[0] - vol_m) <= 1e-12:
        errs.append(f"{tag}: complete volume {complete} differs from 2 D(e^(i pi/3)) = {vol_m!r}")
    deformed = [float(r["volume"]) for r in rows if float(r["t"]) >= 1e-2]
    if not deformed or not max(deformed) < vol_m:
        errs.append(f"{tag}: deformed volume {max(deformed, default=None)!r} not below Vol(M)")
    return errs


WORKLOADS = {w.name: w for w in (RigidityPath, ExactNaturalMap,
                                 AtomicBarycenter, PsiVolume)}


def make_workload(name: str, seed: int, scratch: Path) -> Workload:
    cls = WORKLOADS[name]
    return cls(seed, scratch) if cls is PsiVolume else cls(seed)
