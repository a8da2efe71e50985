"""Batch experiment runner.

Each subcommand reproduces one slice of the verification suite, writes
machine-readable reports (JSON summary plus CSV tables) into the output
directory, and exits 0 only if every assertion in the run passed.  Fixed
seeds give byte-identical outputs; all sampling is vectorized numpy driven
by one generator per run, and report rows are emitted in index order.

Exit codes: 0 all assertions passed, 1 at least one failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import criteria, spd
from .barycenter import NoConvergenceError, SolverConfig
from .geometry import HPoint, random_isometry
from .measures import VisualFamily, atomic_measure
from .natural_map import UnresolvedVisualMeasureError
from .triangulation import (FIG8_VOLUME, deformation_path, figure_eight,
                            sample_gluing_variety)


class _Report:
    """Collects named assertions plus free-form payload for one run."""

    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = params
        self.assertions = []
        self.payload = {}

    def check(self, name: str, value: float, bound: float, budget: str = "") -> None:
        self.assertions.append({
            "name": name, "value": float(value), "bound": float(bound),
            "kind": "<=", "pass": bool(value <= bound), "budget": budget,
        })

    def note(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append({"name": name, "pass": bool(passed),
                                "detail": detail})

    @contextmanager
    def resolving(self, section: str):
        """Runs one section of the checks.  Where the quadrature cannot
        resolve the visual density at a basepoint, as at a coarse --nodes,
        or a barycenter solve stops short of its tolerance, as at a --tol
        below the gradient's rounding, the section ends as one failed
        assertion instead of a traceback."""
        try:
            yield
        except UnresolvedVisualMeasureError as exc:
            self.note(f"{section}_visual_measure_resolved", False, str(exc))
        except NoConvergenceError as exc:
            self.note(f"{section}_converged", False, str(exc))

    @property
    def passed(self) -> bool:
        return all(a["pass"] for a in self.assertions)

    def dump(self, out_dir: Path) -> int:
        """Write the JSON report, print one line per assertion and return
        the exit code."""
        out_dir.mkdir(parents=True, exist_ok=True)
        data = {"command": self.command, "params": self.params,
                "assertions": self.assertions, "pass": self.passed}
        data.update(self.payload)
        path = out_dir / f"{self.command}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        lines = [f"{'PASS' if a['pass'] else 'FAIL'}  {a['name']}"
                 for a in self.assertions]
        print("\n".join(lines))
        print(f"report: {path}")
        return 0 if self.passed else 1


def _write_csv(out_dir: Path, name: str, header: str, rows) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = header + "\n" + "\n".join(rows) + "\n"
    (out_dir / name).write_text(text, encoding="utf-8")


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_psi_scan(args) -> int:
    rep = _Report("psi-scan", {"k": args.k, "margin": args.margin,
                               "samples": args.samples, "seed": args.seed})
    k = args.k
    try:
        scan = spd.boundary_bound_scan(k, args.margin, args.samples, seed=args.seed)
    except ValueError as exc:
        print(f"usage error: --margin: {exc}", file=sys.stderr)
        return 2
    rep.check("psi_at_center", abs(spd.psi(np.eye(k) / k) - spd.psi_max(k)),
              1e-14, budget="closed-form determinants")
    rep.check("random_sample_bound",
              spd.random_psi_max(np.random.default_rng(args.seed), k, args.samples),
              spd.psi_max(k) + 1e-12, budget=f"{args.samples} Dirichlet+QR samples")
    if k == 3:
        rep.check("collar_max_vs_exact_sup", scan.max_value, scan.threshold,
                  budget="exact collar supremum: max over b of Psi(y, b, 1-y-b) "
                         f"at y = margin <= {spd.COLLAR_MARGIN_MAX}, on the ridge "
                         "b* = y(1+2y+O(y^2)); 1/4 + y/2 + 3y^2/4 + O(y^3)")
        rep.payload["collar_scan"] = asdict(scan)
        limits = [spd.edge_limit_values(a)[1] for a in (0.2, 0.35, 0.5, 0.65, 0.8)]
        rep.check("edge_limits_vanish", max(abs(v) for v in limits), 1e-4,
                  budget="Richardson extrapolation along approach sequences")
    else:
        rep.check("vertex_envelope_ratio", scan.max_value, scan.threshold,
                  budget="envelope s^(k-3)/(k-1)^(k-1), correction (1-s)^(3-2k)")
        rep.payload["vertex_scan"] = asdict(scan)
    return rep.dump(Path(args.out))


def cmd_psi_converse(args) -> int:
    rep = _Report("psi-converse", {"k": args.k, "eps": args.eps,
                                   "trials": args.trials, "seed": args.seed})
    res = spd.quantitative_converse(args.k, args.eps, args.trials, seed=args.seed)
    rep.payload["converse"] = asdict(res)
    known = {0.0: 1e-7, 1e-4: 0.02, 1e-2: 0.2}
    bound = known.get(args.eps)
    if bound is not None:
        rep.check("sampled_level_set_radius", res.delta_max_sampled, bound,
                  budget="rejection sampling near I/k plus global scatter")
        # the grid certifies only down to its own resolution
        if args.k == 3 and bound >= 4.0 * res.grid_step:
            rep.check("grid_certified_radius",
                      res.delta_max_grid + 2.0 * res.grid_step, bound,
                      budget=f"eigenvalue grid step {res.grid_step}")
    else:
        rep.note("reported_only", True, f"delta_max={res.delta_max_sampled}")
    return rep.dump(Path(args.out))


def _spread_atoms(rng, n: int):
    """Measure of n random atoms; None when an atom reaches 1/2."""
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    w = rng.dirichlet(np.ones(n))
    return None if w.max() >= 0.5 - 1e-9 else atomic_measure(w, pts)


def cmd_barycenter_suite(args) -> int:
    rep = _Report("barycenter-suite", {"seed": args.seed, "tol": args.tol})
    rng = np.random.default_rng(args.seed)
    stationarity = [(i, _spread_atoms(rng, int(rng.integers(3, 7)))) for i in range(50)]
    equivariance = []
    while len(equivariance) < 100:
        m = _spread_atoms(rng, int(rng.integers(3, 7)))
        if m is not None:
            equivariance.append((m, random_isometry(rng, 3, 0.7, 0.7)))
    oracle = [_spread_atoms(rng, 4) for _ in range(20)]
    with rep.resolving("barycenter"):
        res = criteria.barycenter_checks([(i, m) for i, m in stationarity if m is not None],
                                         equivariance, [m for m in oracle if m is not None],
                                         SolverConfig(gradient_tol=args.tol))
        rep.check("stationarity", res.gradient, args.tol, budget="Newton gradient tolerance")
        _write_csv(Path(args.out), "barycenter-stationarity.csv",
                   "index,gradient_norm,iterations",
                   [f"{i},{_fmt(g)},{it}" for i, g, it in res.rows])
        rep.check("equivariance", res.equivariance, 1e-8,
                  budget="two solves at gradient tolerance 1e-12")
        rep.check("grid_oracle_agreement", res.oracle, 2e-3,
                  budget="pattern search to chart step 1e-4")
        rep.note("two_equal_atoms_raises", res.two_equal_atoms_raise)
    return rep.dump(Path(args.out))


def _ball_probes(rng, n: int, r_lo: float, r_hi: float) -> list[HPoint]:
    """n points of H^3 at hyperbolic radius uniform in [r_lo, r_hi]."""
    probes = []
    for _ in range(n):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        probes.append(HPoint(np.tanh(rng.uniform(r_lo, r_hi) / 2.0) * d))
    return probes


def _quadrature_fits(nodes: int, what: str) -> bool:
    """Whether S^2 has a quadrature of ``nodes`` nodes; prints the usage
    error when not."""
    try:
        VisualFamily(3, nodes).quadrature()
    except ValueError as exc:
        print(f"usage error: {what}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_natural_map_suite(args) -> int:
    rep = _Report("natural-map-suite", {"nodes": args.nodes, "m": args.m,
                                        "seed": args.seed})
    fam = VisualFamily(3, args.nodes)
    if not _quadrature_fits(4 * args.nodes, "the four-fold refinement of --nodes"):
        return 2
    probes = _ball_probes(np.random.default_rng(args.seed), 50, 0.05, 1.0)

    with rep.resolving("identity"):
        ident = criteria.identity_checks(probes, fam)
        _write_csv(Path(args.out), "natural-map-identity.csv",
                   "probe,displacement,jac,bound",
                   [f"{i},{_fmt(d)},{_fmt(j)},{_fmt(b)}"
                    for i, (d, j, b) in enumerate(ident.rows)])
        rep.check("identity_displacement", ident.displacement, 5e-4,
                  budget=f"{fam.quadrature()[0].shape[0]} nodes, solver 1e-10")
        rep.check("identity_displacement_4N", ident.displacement_fine, 2.5e-4,
                  budget="four-fold node refinement")
        rep.check("H_isotropy", ident.h_deviation, 1e-3)
        rep.check("jacobian_identity", ident.jac_deviation, 1e-3)
        rep.check("bound_value_identity", ident.bound_deviation, 1e-3)

    if args.m > 3:
        with rep.resolving("geodesic_copy"):
            copy = criteria.geodesic_copy_checks(probes[:20], fam, args.m)
            for _ in range(copy.bound_failures):
                rep.note("restricted_bound", False)
            rep.check("geodesic_copy_confinement", copy.confinement, 5e-4)
            rep.check("geodesic_copy_agreement", copy.agreement, 5e-4)
            rep.check("restricted_H_isotropy", copy.h_deviation, 1e-3)

    # deformed configurations with the orbit-approximation boundary map
    path = deformation_path(figure_eight(), steps=20, t_end=0.6)
    with rep.resolving("deformed"):
        deformed = criteria.deformed_jacobian_checks(
            path, [probes[i % len(probes)] for i in range(1, len(path))], fam)
        _write_csv(Path(args.out), "natural-map-deformed.csv",
                   "parameter,jac,bound,label",
                   [f"{_fmt(t)},{_fmt(j)},{_fmt(b)},approximate-D"
                    for t, j, b in deformed.rows])
        rep.check("deformed_jac_below_one", deformed.jac, 1.0 + 5e-3,
                  budget="orbit table >= 5000 words, labeled approximate-D")
        rep.check("deformed_bound_margin", -deformed.bound_margin, 1e-3,
                  budget="bound minus measured Jacobian")
        rep.check("fd_vs_implicit", deformed.fd_gap, 1e-3, budget="fd step 1e-4")
    return rep.dump(Path(args.out))


def cmd_volume_path(args) -> int:
    rep = _Report("volume-path", {"steps": args.steps, "seed": args.seed})
    path = deformation_path(figure_eight(), steps=args.steps)
    samples = sample_gluing_variety(np.random.default_rng(args.seed), 10000)
    res = criteria.volume_checks(path, samples)
    rep.check("complete_edge_residual", res.edge_residual, 1e-12)
    rep.check("complete_cusp_residual", res.cusp_residual, 1e-12)
    rep.check("complete_volume", abs(res.volume.value - FIG8_VOLUME), 1e-9,
              budget="dilogarithm series, error estimate "
                     f"{res.volume.error_estimate:.1e}")
    rep.check("relator_residual", res.relator_residual, 1e-8)
    rep.check("parabolic_generators", res.generator_translation, 1e-6)
    rows = [",".join([_fmt(t), _fmt(z[0].real), _fmt(z[0].imag), _fmt(z[1].real),
                      _fmt(z[1].imag), _fmt(vol), _fmt(deficit),
                      ";".join(_fmt(x) for x in lengths)])
            for t, z, vol, deficit, lengths in res.rows]
    _write_csv(Path(args.out), "volume-path.csv",
               "t,re_z0,im_z0,re_z1,im_z1,volume,deficit,translation_lengths",
               rows)
    rep.check("path_deficit_positive", -res.path_deficit, -1e-6,
              budget="straight-map volume along the deformation path")
    rep.check("near_ideal_deficit", -res.tail_deficit, -1e-6,
              budget="tail = steps with a shape within 1e-2 of a pole")
    rep.check("variety_volume_bound", res.sample_volume, FIG8_VOLUME + 1e-9,
              budget="10000 random rectangular edge-equation solutions")
    rep.note("strict_deficit_off_complete", res.strict_deficit,
             "volume < Vol(M) for every sample with shape distance > 1e-6")
    return rep.dump(Path(args.out))


def cmd_rigidity_report(args) -> int:
    rep = _Report("rigidity-report", {"steps": args.steps, "nodes": args.nodes,
                                      "seed": args.seed})
    if not _quadrature_fits(args.nodes, "--nodes"):
        return 2
    path = deformation_path(figure_eight(), steps=args.steps)
    probes = _ball_probes(np.random.default_rng(args.seed), 4, 0.1, 0.5)
    with rep.resolving("diagnostics"):
        diag = criteria.path_diagnostics(path, VisualFamily(3, args.nodes), probes)
        rows = []
        for r in diag.rows:
            lens = ";".join(_fmt(v) for v in r.translation_lengths)
            rows.append(f"{_fmt(r.parameter)},{r.probe_index},{_fmt(r.jac)},"
                        f"{_fmt(r.h_deviation)},{_fmt(r.h_lambda_max)},"
                        f"{_fmt(r.h_eigen_dev)},{_fmt(r.df_norm)},{_fmt(r.lipschitz)},"
                        f"{lens},{_fmt(r.volume)},{_fmt(r.volume_deficit)},"
                        f"{int(r.approximate_boundary_map)}")
        _write_csv(Path(args.out), "rigidity-report.csv",
                   "parameter,probe_index,jac,H_dev,H_lambda_max,H_eigen_dev,DF_norm,"
                   "lipschitz,translation_lengths,volume,volume_deficit,approximate_D",
                   rows)
        for name, ok in zip(("H_deviation_monotone", "jac_deviation_monotone",
                             "deficit_monotone"), diag.monotone):
            rep.note(name, ok)
        rep.check("derivative_norm_bound", diag.df_norm,
                  float(np.sqrt(3) + 4.5 * diag.eigen_dev),
                  budget=f"eps = max eigenvalue deviation of H from 1/3 over the "
                         f"{diag.regime_steps} steps with lambda_max <= 2/3")
    return rep.dump(Path(args.out))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type of the count flags: an integer of at least 1."""
    return _int_at_least(text, 1)


def positive_float(text: str) -> float:
    """argparse type of --tol: a float above 0, which a gradient norm can fall below."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be above 0, got {value}")
    return value


def dimension(text: str) -> int:
    """argparse type of --k and --m: psi has a maximum only on k x k
    matrices, k >= 3, and the target sphere S^(m-1) is at least S^2."""
    return _int_at_least(text, 3)


def rng_seed(text: str) -> int:
    """argparse type of --seed: numpy seeds a generator from an integer >= 0."""
    return _int_at_least(text, 0)


def path_steps(text: str) -> int:
    """argparse type of --steps: a path of one step stops at t = 0.02 and
    never nears the ideal point, so it takes at least 2."""
    return _int_at_least(text, 2)


# name, handler, help, command flags (flag, type, default), default seed
_COMMANDS = (
    ("psi-scan", cmd_psi_scan, "maximum and boundary analysis of psi",
     (("--k", dimension, 3), ("--margin", float, 1e-3),
      ("--samples", positive_int, 100_000)), 0),
    ("psi-converse", cmd_psi_converse, "level sets of psi near the maximum",
     (("--k", dimension, 3), ("--eps", float, 1e-4),
      ("--trials", positive_int, 100_000)), 0),
    ("barycenter-suite", cmd_barycenter_suite, "barycenter solver checks",
     (("--tol", positive_float, 1e-10),), 7),
    ("natural-map-suite", cmd_natural_map_suite, "natural map and Jacobian checks",
     (("--nodes", positive_int, 2000), ("--m", dimension, 5)), 0),
    ("volume-path", cmd_volume_path, "figure-eight volumes and rigidity scan",
     (("--steps", path_steps, 50),), 0),
    ("rigidity-report", cmd_rigidity_report, "diagnostics along the deformation path",
     (("--steps", path_steps, 50), ("--nodes", positive_int, 2000)), 0),
)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and, by name, the parser of each subcommand."""
    ap = argparse.ArgumentParser(prog="natmap",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, help_text, flags, seed in _COMMANDS:
        sp = commands[name] = sub.add_parser(name, help=help_text)
        for flag, kind, default in flags:
            sp.add_argument(flag, type=kind, default=default)
        sp.add_argument("--seed", type=rng_seed, default=seed)
        sp.add_argument("--out", type=str, default="natmap-reports")
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with flag defaults; explicit flags win")
        sp.set_defaults(func=func)
    return ap, commands


def main(argv=None) -> int:
    ap, commands = build_parser()
    args = ap.parse_args(argv)
    if args.config:
        try:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(overrides, dict):
            print("config error: the file must hold one JSON object", file=sys.stderr)
            return 2
        options = {"--seed", "--out"}.union(
            flag for name, _, _, flags, _ in _COMMANDS if name == args.command
            for flag, _, _ in flags)
        for key in overrides:
            if "--" + key.replace("_", "-") not in options:
                print(f"config error: {key}: not an option of {args.command}",
                      file=sys.stderr)
                return 2
        # the values become the subcommand's defaults, as strings, so the
        # second parse types them like their flags and explicit flags win
        commands[args.command].set_defaults(
            **{key.replace("-", "_"): str(value) for key, value in overrides.items()})
        args = ap.parse_args(argv)
    # looked up by name at call time, so a rebinding of natmap.cli.cmd_*
    # after the parser was built (a tracer's wrapper) is the one that runs
    return globals()[args.func.__name__](args)


if __name__ == "__main__":
    sys.exit(main())
