import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import _golden
from natmap import cli


def run(argv):
    return cli.main(argv)


class TestSubcommands:
    def test_psi_scan(self, tmp_path):
        assert run(["psi-scan", "--k", "3", "--margin", "1e-3",
                    "--samples", "5000", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "psi-scan.json").read_text())
        assert data["pass"] is True
        names = {a["name"] for a in data["assertions"]}
        assert "collar_max_vs_exact_sup" in names

    def test_psi_scan_margin_out_of_range_exit_2(self, tmp_path):
        assert run(["psi-scan", "--margin", "0.2", "--samples", "100",
                    "--out", str(tmp_path)]) == 2

    def test_psi_scan_k4(self, tmp_path):
        assert run(["psi-scan", "--k", "4", "--margin", "2.5e-3",
                    "--samples", "4000", "--out", str(tmp_path)]) == 0

    def test_psi_converse(self, tmp_path):
        assert run(["psi-converse", "--eps", "1e-4", "--trials", "20000",
                    "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "psi-converse.json").read_text())
        assert data["converse"]["delta_max_sampled"] <= 0.02

    def test_barycenter_suite(self, tmp_path):
        assert run(["barycenter-suite", "--seed", "7",
                    "--out", str(tmp_path)]) == 0
        assert (tmp_path / "barycenter-stationarity.csv").exists()

    def test_natural_map_suite_node_cap_exit_2(self, tmp_path):
        # the four-fold refinement of 5000 nodes exceeds the 13122-node
        # product rule; the command refuses before any work
        assert run(["natural-map-suite", "--nodes", "5000",
                    "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())

    def test_rigidity_report_node_cap_exit_2(self, tmp_path):
        # once a ValueError traceback (exit 1) after the path was built
        assert run(["rigidity-report", "--nodes", "20000", "--steps", "2",
                    "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())

    # an 18-node rule cannot resolve the visual density at the probes
    # (the natural map refuses from radius 0.22): each section of checks
    # ends as one failed assertion, where it once raised a traceback
    @pytest.mark.parametrize("argv, sections", [
        (["rigidity-report", "--steps", "2"], ["diagnostics"]),
        (["natural-map-suite", "--m", "4"], ["identity", "geodesic_copy", "deformed"])])
    def test_coarse_nodes_report_unresolved_sections(self, tmp_path, argv, sections):
        assert run(argv + ["--nodes", "9", "--out", str(tmp_path)]) == 1
        data = json.loads((tmp_path / f"{argv[0]}.json").read_text())
        assert [a["name"] for a in data["assertions"]] == [
            f"{s}_visual_measure_resolved" for s in sections]
        assert all(not a["pass"] and "off centre" in a["detail"]
                   for a in data["assertions"])
        assert [f.name for f in tmp_path.iterdir()] == [f"{argv[0]}.json"]

    # --nodes 0 once ran an 8-node rule and reported PASS; volume-path
    # --steps 0 failed on an empty sequence
    @pytest.mark.parametrize("command, flag", [
        ("psi-scan", "--samples"), ("psi-converse", "--trials"),
        ("natural-map-suite", "--nodes"), ("volume-path", "--steps"),
        ("rigidity-report", "--steps"), ("rigidity-report", "--nodes")])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_count_below_one_exit_2(self, tmp_path, command, flag, value):
        with pytest.raises(SystemExit) as err:
            run([command, flag, value, "--out", str(tmp_path)])
        assert err.value.code == 2
        assert not any(tmp_path.iterdir())

    # a negative seed, as a flag or in a config file, once ended in a
    # ValueError traceback (exit 1) from numpy, and psi-scan blamed --margin
    @pytest.mark.parametrize("command", [
        "psi-scan", "psi-converse", "barycenter-suite", "natural-map-suite",
        "volume-path", "rigidity-report"])
    @pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
    def test_negative_seed_exit_2(self, tmp_path, command, in_config, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -2}))
        out = tmp_path / "out"
        argv = ["--config", str(cfg)] if in_config else ["--seed", "-1"]
        with pytest.raises(SystemExit) as err:
            run([command, *argv, "--out", str(out)])
        assert err.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    # --m 2, 0 and -5 once skipped the geodesic-copy checks and passed
    @pytest.mark.parametrize("value", ["2", "0", "-5"])
    def test_natural_map_suite_m_below_3_exit_2(self, tmp_path, value):
        with pytest.raises(SystemExit) as err:
            run(["natural-map-suite", "--m", value, "--out", str(tmp_path)])
        assert err.value.code == 2
        assert not any(tmp_path.iterdir())

    # --tol 0, -1 and nan once ran 200 iterations and ended in a
    # NoConvergenceError traceback (exit 1) with no report written
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_tol_not_positive_exit_2(self, tmp_path, value):
        with pytest.raises(SystemExit) as err:
            run(["barycenter-suite", "--tol", value, "--out", str(tmp_path)])
        assert err.value.code == 2
        assert not any(tmp_path.iterdir())

    # a positive --tol below the gradient's rounding once ended in a
    # NoConvergenceError traceback (exit 1) with no report written
    def test_tol_below_rounding_reports_no_convergence(self, tmp_path):
        assert run(["barycenter-suite", "--tol", "1e-20", "--out", str(tmp_path)]) == 1
        data = json.loads((tmp_path / "barycenter-suite.json").read_text())
        assert [(a["name"], a["pass"]) for a in data["assertions"]] == [
            ("barycenter_converged", False)]
        assert "no convergence" in data["assertions"][0]["detail"]
        assert data["pass"] is False

    # a one-step path stops at t = 0.02: rigidity-report once passed its
    # monotonicity checks with nothing to compare, and volume-path failed
    # near_ideal_deficit on a stand-in value 0.0
    @pytest.mark.parametrize("command", ["volume-path", "rigidity-report"])
    def test_one_step_exit_2(self, tmp_path, command):
        with pytest.raises(SystemExit) as err:
            run([command, "--steps", "1", "--out", str(tmp_path)])
        assert err.value.code == 2
        assert not any(tmp_path.iterdir())

    # a config file once bypassed the flag types: steps 0 failed on an
    # empty sequence, samples 0 on an empty reduction
    @pytest.mark.parametrize("command, key", [
        ("volume-path", "steps"), ("psi-scan", "samples")])
    def test_config_count_below_one_exit_2(self, tmp_path, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}))
        out = tmp_path / "out"
        try:
            code = run([command, "--config", str(cfg), "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    def test_volume_path(self, tmp_path):
        assert run(["volume-path", "--steps", "12", "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "volume-path.csv").read_text().splitlines()
        assert csv[0].startswith("t,re_z0")
        assert len(csv) == 14          # header + complete + 12 steps

    def test_rigidity_report_smoke(self, tmp_path):
        assert run(["rigidity-report", "--steps", "4", "--nodes", "600",
                    "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "rigidity-report.csv").read_text().splitlines()
        assert csv[0].startswith("parameter,probe_index,jac")
        assert len(csv) == 1 + 4 * 4     # header + steps x probes

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run(["no-such-command"])
        assert err.value.code == 2

    # the parser once kept the handler bound when it was built, so a
    # wrapper bound later (the benchmark's tracer) never ran
    def test_main_calls_handler_bound_at_call_time(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_psi_scan", lambda args: calls.append(args) or 0)
        assert run(["psi-scan", "--samples", "10", "--out", str(tmp_path)]) == 0
        assert [args.samples for args in calls] == [10]
        assert not any(tmp_path.iterdir())

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 2000, "margin": 1e-3}))
        assert run(["psi-scan", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "psi-scan.json").read_text())
        assert data["params"]["samples"] == 2000

    # a config key once set any attribute of the parsed arguments: "func"
    # replaced the handler, "command" the subcommand's name
    @pytest.mark.parametrize("overrides", [
        {"func": "x"}, {"command": "volume-path"}, {"config": "other.json"},
        {"no_such_option": 1}, {"steps": 3}, {"seed": "seven"}, ["samples", 10]],
        ids=["func", "command", "config", "unknown", "other-command", "bad-seed",
             "not-an-object"])
    def test_config_key_not_an_option_exit_2(self, tmp_path, overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        out = tmp_path / "out"
        try:
            code = run(["psi-scan", "--samples", "100", "--config", str(cfg),
                        "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    # --k 2 once ended in a ValueError traceback and --k 1 in a
    # ZeroDivisionError; at k >= 4 a margin of 1/k or more, or not above 0,
    # once ran and reported a failed vertex envelope
    @pytest.mark.parametrize("argv, config", [
        (["psi-scan", "--k", "2"], None), (["psi-scan", "--k", "1"], None),
        (["psi-converse", "--k", "2"], None), (["psi-converse", "--k", "1"], None),
        (["psi-scan"], {"k": 2}), (["psi-converse"], {"k": 0}),
        (["psi-scan", "--k", "4", "--margin", "0.3"], None),
        (["psi-scan", "--k", "4", "--margin", "0.25"], None),
        (["psi-scan", "--k", "4", "--margin", "-0.01"], None),
        (["psi-scan", "--k", "5", "--margin", "0"], None),
        (["psi-scan", "--k", "4"], {"margin": 0.3})],
        ids=["scan-k2", "scan-k1", "converse-k2", "converse-k1", "config-scan-k2",
             "config-converse-k0", "k4-margin-0.3", "k4-margin-quarter",
             "k4-margin-negative", "k5-margin-0", "config-k4-margin-0.3"])
    def test_psi_range_exit_2(self, tmp_path, argv, config):
        out = tmp_path / "out"
        argv = argv + ["--samples" if argv[0] == "psi-scan" else "--trials", "100",
                       "--out", str(out)]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    # seed and out are typed as the parser types them
    def test_config_seed_typed_as_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "7", "out": str(tmp_path / "a")}))
        assert run(["psi-scan", "--samples", "2000", "--config", str(cfg)]) == 0
        assert run(["psi-scan", "--samples", "2000", "--seed", "7",
                    "--out", str(tmp_path / "b")]) == 0
        a, b = (tmp_path / d / "psi-scan.json" for d in ("a", "b"))
        assert json.loads(a.read_text())["params"]["seed"] == 7
        assert a.read_bytes() == b.read_bytes()

    # an explicit --flag=value once lost to the config file's value
    def test_explicit_flag_with_equals_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 2000}))
        assert run(["psi-scan", "--samples=1000", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "psi-scan.json").read_text())
        assert data["params"]["samples"] == 1000

    # an abbreviated flag once lost to the config file's value
    def test_abbreviated_flag_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 5000}))
        assert run(["psi-scan", "--samp", "2000", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "psi-scan.json").read_text())
        assert data["params"]["samples"] == 2000

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run(["psi-scan", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 2


class TestDeterminism:
    """Each command runs twice with equal bytes, and its first run also
    matches the golden files of ``_golden.CASES``."""

    @staticmethod
    def check(tmp_path, case):
        argv, names = _golden.CASES[case]
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(argv + ["--out", str(out)]) == 0
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        report = _golden.compare(case, a)
        if report:
            pytest.fail("\n".join(report), pytrace=False)

    def test_psi_scan_byte_identical(self, tmp_path):
        self.check(tmp_path, "psi-scan")

    # at margin 1e-4 the collar's corner probes crowd within 1e-10 of the
    # margin, on the symmetric family and on the ridge
    def test_psi_scan_small_margin_byte_identical(self, tmp_path):
        self.check(tmp_path, "psi-scan-small-margin")

    def test_psi_converse_byte_identical(self, tmp_path):
        self.check(tmp_path, "psi-converse")

    def test_natural_map_suite_byte_identical(self, tmp_path):
        self.check(tmp_path, "natural-map-suite")

    def test_volume_path_byte_identical(self, tmp_path):
        self.check(tmp_path, "volume-path")

    def test_barycenter_suite_byte_identical(self, tmp_path):
        self.check(tmp_path, "barycenter-suite")

    def test_rigidity_report_byte_identical(self, tmp_path):
        self.check(tmp_path, "rigidity-report")


# The psi checks hold their drawn points plus one block of BLOCK_ROWS rows:
# 8.6 MiB (psi-scan) and 9.3 MiB (psi-converse) traced at default flags.
# Holding every matrix and grid point at once takes over 30 MiB.
@pytest.mark.parametrize("command", ["psi-scan", "psi-converse"])
def test_psi_commands_traced_peak(tmp_path, command):
    tracemalloc.start()
    try:
        assert run([command, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


# Every natmap module, and the psi and volume subcommands, run without
# scipy: it is imported inside the functions that call it.  Checked in a
# fresh interpreter, since this one has imported scipy already.
_NO_SCIPY_SCRIPT = """
import sys
from natmap import barycenter, cli, criteria, measures, natural_map, triangulation
out = sys.argv[1]
for argv in (["psi-converse"], ["psi-scan", "--samples", "2000"], ["volume-path"]):
    assert cli.main(argv + ["--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_psi_and_volume_commands_import_no_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
