"""Tests of the benchmark itself: one unit of each workload passes its
checks, and every check fails when fed a corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from natmap import barycenter as bary  # noqa: E402
from natmap import geometry, measures  # noqa: E402
from natmap import natural_map as nmap  # noqa: E402

from perfbench import oracles, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

SEED = 3


def _expect(errs: list[str], fragment: str) -> None:
    assert any(fragment in e for e in errs), (fragment, errs)


def _moved(coords: np.ndarray, by: float) -> np.ndarray:
    step = np.zeros_like(coords)
    step[0] = by
    return coords + step


# ---------------------------------------------------------------------------
# rigidity-path
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rigidity():
    w = workloads.RigidityPath(SEED)
    inp = w.make_input(0)
    return w, inp, w.run(inp)


def test_rigidity_unit_passes(rigidity):
    w, inp, out = rigidity
    assert w.check(inp, out) == []
    assert w.failed(inp, out) == 0


def test_rigidity_checks_fail_on_corrupted_output(rigidity):
    w, inp, out = rigidity
    pair = out["pair"]

    def corrupt(**changes):
        return w.check(inp, {**out, **changes})

    _expect(corrupt(table_source=out["table_source"][:4999]), "4999 < 5000")
    _expect(corrupt(table_target=1.001 * out["table_target"]), "leave the unit sphere")
    moved = dataclasses.replace(pair, image=geometry.HPoint(_moved(pair.image.coords, 1e-4)))
    _expect(corrupt(pair=moved), "stationarity residual")
    _expect(corrupt(pair=dataclasses.replace(pair, H=1.001 * pair.H)), "trace H")
    fd = dataclasses.replace(out["fd"], DF=out["fd"].DF + 2e-3)
    _expect(corrupt(fd=fd), "implicit and finite-difference")
    rows = [dataclasses.replace(out["rows"][0], jac=1.006)] + out["rows"][1:]
    _expect(corrupt(rows=rows), "> 1 + 5e-3")
    flat = dataclasses.replace(pair, H=np.diag([1.0 - 2e-6, 1e-6, 1e-6]))
    _expect(corrupt(pair=flat), "bound - Jac_k")

    step_index, _ = inp
    st = w.path[step_index]
    vol_m = oracles.figure_eight_volume()
    try:
        w.path[step_index] = dataclasses.replace(
            st, volume=dataclasses.replace(st.volume, value=vol_m + 1e-9))
        _expect(w.check(inp, out), "not below Vol(M)")
        w.path[step_index] = dataclasses.replace(
            st, volume=dataclasses.replace(st.volume, value=st.volume.value + 1e-11))
        _expect(w.check(inp, out), "differs from mpmath")
    finally:
        w.path[step_index] = st


# ---------------------------------------------------------------------------
# exact-natural-map
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exact():
    w = workloads.ExactNaturalMap(SEED)
    inp = w.make_input(0)
    return w, inp, w.run(inp)


def test_exact_unit_passes(exact):
    w, inp, out = exact
    assert w.check(inp, out) == []


def test_exact_checks_fail_on_corrupted_output(exact):
    w, inp, out = exact

    def corrupt(key, **changes):
        bad = copy.deepcopy(out)
        bad[key].update(changes)
        return w.check(inp, bad)

    errs = corrupt("identity", F=_moved(out["identity"]["F"], 6e-4))
    _expect(errs, "identity: d(F(x), x)")
    _expect(errs, "identity: stationarity residual")
    _expect(corrupt("identity-8192", F=_moved(out["identity-8192"]["F"], 3e-4)),
            "identity-8192: d(F(x), x)")
    _expect(corrupt("identity", H=out["identity"]["H"] + 1e-9 * np.eye(3)), "trace H")
    _expect(corrupt("identity", jac=1.002), "|Jac_k - 1|")
    _expect(corrupt("identity", bound=out["identity"]["jac"] - 1e-8), "above bound")
    _expect(corrupt("mobius", F=_moved(out["mobius"]["F"], 1e-7)), "d(F_g(x), g F_id(x))")
    f5 = out["geodesic-m5"]["F"].copy()
    f5[4] = 1e-11
    _expect(corrupt("geodesic-m5", F=f5), "extra coordinates")
    _expect(corrupt("geodesic-m5", F=_moved(out["geodesic-m5"]["F"], 1e-7)),
            "|F(x) - F_id(x)|")


# ---------------------------------------------------------------------------
# atomic-barycenter
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def atomic():
    w = workloads.AtomicBarycenter(SEED)
    inp = w.make_input(0)
    return w, inp, w.run(inp)


def test_atomic_unit_passes(atomic):
    w, inp, out = atomic
    assert w.check(inp, out) == []


def test_atomic_checks_fail_on_corrupted_output(atomic):
    w, inp, out = atomic
    r1 = out["generic"]
    moved = dataclasses.replace(r1, location=geometry.HPoint(_moved(r1.location.coords, 1e-6)))
    _expect(w.check(inp, {**out, "generic": moved}), "generic: gradient")
    # a true barycenter of the measure pushed by another isometry: stationary,
    # but not the image of the first solve under g
    other = measures.pushforward(inp["generic"], geometry.random_isometry(
        np.random.default_rng(99), 3, 0.7, 0.7))
    wrong = {**out, "pushed_measure": other, "pushed": bary.barycenter(other, w.tight)}
    _expect(w.check(inp, wrong), "equivariance error")
    interior = dataclasses.replace(r1, kind="interior")
    _expect(w.check(inp, {**out, "dominant": interior}), "expected boundary-atom")
    elsewhere = dataclasses.replace(
        out["dominant"], location=geometry.BoundaryPoint(inp["dominant"].points[1]))
    _expect(w.check(inp, {**out, "dominant": elsewhere}), "from the heavy atom")
    _expect(w.check(inp, {**out, "pair": "NoConvergenceError: cap"}), "raised NoConvergenceError")


def test_two_equal_atoms_failures_do_not_depend_on_the_seed():
    counts = []
    for seed in (1, 2):
        w = workloads.AtomicBarycenter(seed)
        failed = 0
        for i in range(w.round_units):
            inp = w.make_input(i)
            out = w.run(inp)
            assert w.check(inp, out) == []
            failed += w.failed(inp, out)
            assert w.failed(inp, out) == int(not isinstance(out["pair"], str))
        counts.append(failed)
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# psi-volume
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def psi(tmp_path_factory):
    w = workloads.PsiVolume(SEED, tmp_path_factory.mktemp("psi"))
    inp = w.make_input(0)
    return w.read_outputs(inp, w.run(inp))


def test_psi_unit_passes(psi):
    assert workloads.check_psi_outputs(psi) == []


def test_psi_checks_fail_on_corrupted_output(psi):
    def corrupt(edit):
        bad = copy.deepcopy(psi)
        edit(bad)
        return workloads.check_psi_outputs(bad)

    _expect(corrupt(lambda o: o["codes"].update({"psi-converse": 1})), "psi-converse: exit 1")
    _expect(corrupt(lambda o: o["reports"]["volume-path"].update({"pass": False})),
            "volume-path: exit 0, pass False")
    # the scan max with the ridge probes dropped: the symmetric corner family
    y = 1e-3 * (1.0 - 1e-6)
    symmetric = (1.0 - 2.0 * y) / (4.0 * (1.0 - y) ** 4)
    scan = lambda o: o["reports"]["psi-scan"]["collar_scan"]  # noqa: E731
    _expect(corrupt(lambda o: scan(o).update({"max_value": symmetric})), "at margin 1e-3 outside")
    sup = oracles.collar_supremum(1e-3)
    _expect(corrupt(lambda o: scan(o).update({"max_value": sup + 1e-11})), "at margin 1e-3 outside")
    _expect(corrupt(lambda o: o["reports"]["psi-scan-1e-4"]["collar_scan"].update(
        {"max_value": 0.25011})), "above 0.2501")

    def sample(o):
        a = next(a for a in o["reports"]["psi-scan"]["assertions"]
                 if a["name"] == "random_sample_bound")
        a["value"] = 27.0 / 64.0 + 1e-9
    _expect(corrupt(sample), "random-sample max")
    _expect(corrupt(lambda o: o["reports"]["psi-converse"]["converse"].update(
        {"delta_max_sampled": 0.021})), "converse radius")

    def volumes(o, row, value):
        lines = o["volume_csv"].splitlines()
        cells = lines[row].split(",")
        cells[lines[0].split(",").index("volume")] = repr(value)
        lines[row] = ",".join(cells)
        o["volume_csv"] = "\n".join(lines) + "\n"
    vol_m = oracles.figure_eight_volume()
    _expect(corrupt(lambda o: volumes(o, 1, vol_m + 1e-11)), "complete volume")
    _expect(corrupt(lambda o: volumes(o, 2, vol_m + 1e-9)), "not below Vol(M)")


# ---------------------------------------------------------------------------
# tracing and the runner
# ---------------------------------------------------------------------------

def test_traced_counts_repeat_and_originals_return(exact):
    w, inp, _ = exact
    original = nmap.natural_map
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.unit = 0
        tracer.install()
        try:
            assert nmap.natural_map is not original
            w.run(inp)
        finally:
            tracer.uninstall()
        m = tracer.metrics({0})
        counts.append({k: v for k, v in m.items() if k.endswith(("calls", "iterations"))})
        assert m["measures.max_atom_mass.calls"] == 1.0
        assert m["natural_map.natural_map.ms"] > 0.0
    assert nmap.natural_map is original
    assert counts[0] == counts[1]


def test_runner_fails_without_the_sources(tmp_path):
    pkg = tmp_path / "perfbench"
    pkg.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (pkg / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "psi-volume",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
