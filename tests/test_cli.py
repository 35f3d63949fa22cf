import dataclasses
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from laplab import cli, models, perturb, scenario
from laplab.errors import ScenarioError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "laplab", *args], capture_output=True, text=True
    )


def load(name):
    return scenario.load_scenario(SCENARIOS / name)


class TestScenarioValidation:
    def base_doc(self):
        return {
            "model": {"type": "free_lattice_1d"},
            "rigging": {"channels": [{"sites": [[0, [1.0, 0.0]]]}]},
            "lambda": 0.0,
        }

    def test_minimal_document(self):
        scn = scenario.parse_scenario(self.base_doc())
        assert scn.lam == 0.0 and scn.direction is None
        assert scn.anchors == (0.0, 1.0, -1.0, 0.5, 2.0)

    def test_missing_required_key(self):
        doc = self.base_doc()
        del doc["lambda"]
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert "lambda" in str(err.value)

    def test_unknown_top_level_key(self):
        doc = self.base_doc()
        doc["bogus"] = 1
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path == "/bogus"

    def test_unknown_model_type(self):
        doc = self.base_doc()
        doc["model"] = {"type": "continuum"}
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path == "/model/type"

    def test_non_hermitian_j_path(self):
        doc = self.base_doc()
        doc["rigging"]["channels"].append({"sites": [[1, [1.0, 0.0]]]})
        doc["J"] = [[[0.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path == "/J"

    def test_j_size_mismatch(self):
        doc = self.base_doc()
        doc["J"] = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path == "/J"

    def test_bad_complex_pair_path(self):
        doc = self.base_doc()
        doc["rigging"]["channels"][0]["sites"][0][1] = [1.0]
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path.startswith("/rigging/channels/0/sites/0")

    def test_split_bounds(self):
        doc = {
            "model": {
                "type": "direct_sum",
                "left": {"type": "free_lattice_1d"},
                "right": {"type": "finite_hermitian", "matrix": [[[0.0, 0.0]]]},
                "split": 2,
            },
            "rigging": {"channels": [{"sites": [[0, [1.0, 0.0]]]}, {"row": [[1.0, 0.0]]}]},
            "lambda": 0.0,
        }
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path == "/model/split"

    def test_channel_kind_must_match_model(self):
        doc = self.base_doc()
        doc["rigging"]["channels"][0] = {"row": [[1.0, 0.0]]}
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert "sites" in str(err.value)

    def test_window_must_be_interval(self):
        doc = self.base_doc()
        doc["window"] = [2.0, -2.0]
        with pytest.raises(ScenarioError):
            scenario.parse_scenario(doc)

    def test_grid_floor_reported(self):
        doc = self.base_doc()
        doc["grid"] = {"y0": 1e-3, "q": 0.1, "n": 12}
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path == "/grid"

    def test_sweep_axis_t_is_removed(self, tmp_path):
        # "t" was the "r" axis with J = identity, which "r" now uses when J is absent
        doc = self.base_doc()
        doc["sweep"] = {"axis": "t", "start": -1.0, "stop": 1.0, "points": 3}
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path == "/sweep/axis"
        path = tmp_path / "axis_t.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("--scenario", str(path), "--command", "limit")
        assert proc.returncode == 2 and "/sweep/axis" in proc.stderr

    def test_fuzzed_documents_never_reach_computation(self):
        rng = np.random.default_rng(998)
        base = json.dumps(self.base_doc())
        for _ in range(200):
            chars = list(base)
            for _ in range(int(rng.integers(1, 6))):
                idx = int(rng.integers(0, len(chars)))
                chars[idx] = chr(int(rng.integers(32, 127)))
            mangled = "".join(chars)
            try:
                doc = json.loads(mangled)
            except json.JSONDecodeError:
                continue
            try:
                scenario.parse_scenario(doc)
            except ScenarioError:
                continue
            except Exception as exc:  # pragma: no cover
                pytest.fail(f"non-schema error escaped validation: {exc!r}")


class TestCommands:
    def test_limit_lattice(self):
        report, code = cli.run_scenario(load("lattice_limit.json"), "limit")
        assert code == 0
        result = report["result"]
        assert result["outcome"] == "converged" and result["method"] == "exact"
        np.testing.assert_allclose(result["value"][0][0], [0.0, 0.5], atol=1e-12)
        extrap = result["extrapolation"]
        assert extrap["outcome"] == "converged"
        np.testing.assert_allclose(extrap["value"][0][0], [0.0, 0.5], atol=1e-6)
        assert len(result["norms_trace"]) == 20

    def test_limit_embedded_diverges(self):
        report, code = cli.run_scenario(load("embedded_limit.json"), "limit")
        assert code == 0
        assert report["result"]["outcome"] == "diverged"
        assert 0.9 <= report["result"]["blowup_exponent"] <= 1.1

    def test_scan_lambda3(self):
        report, code = cli.run_scenario(load("lattice_lambda3_scan.json"), "scan")
        assert code == 0
        verdict = report["result"]["verdict"]
        assert verdict["verdict"] == "regular"
        table = verdict["resonances"]["resonances"]
        assert len(table) == 1 and table[0]["multiplicity"] == 1
        assert abs(table[0]["r"] - 2.2360680) <= 1e-6

    def test_limit_at_exact_resonance(self):
        # T_{3+i0} = -1/sqrt(5): the anchor sqrt(5) is a coupling resonance
        scn = dataclasses.replace(load("lattice_lambda3_scan.json"), anchors=(np.sqrt(5.0),))
        report, code = cli.run_scenario(scn, "limit")
        assert code == 0
        result = report["result"]
        assert result["outcome"] == "at_resonance" and result["method"] == "exact"
        assert result["sigma_min"] <= 1e-12
        assert result["extrapolation"]["outcome"] in ("converged", "diverged", "inconclusive")
        assert "value" not in result

    def test_sweep_lambda_at_exact_resonance(self):
        scn = dataclasses.replace(
            load("lattice_lambda3_scan.json"),
            anchors=(np.sqrt(5.0),),
            sweep=scenario.SweepSpec(axis="lambda", start=2.5, stop=3.5, points=3),
        )
        report, code = cli.run_scenario(scn, "limit")
        assert code == 0
        rows = report["result"]["rows"]
        assert [row["verdict"] for row in rows] == ["converged", "at_resonance", "converged"]
        assert [row["at_resonance"] for row in rows] == [False, True, False]
        assert rows[1]["t_norm"] is None

    def test_scan_disagreement_is_inconclusive(self, monkeypatch):
        real = cli.regular_direction

        def disagreeing(*args, **kwargs):
            verdict = real(*args, **kwargs)
            report = dataclasses.replace(verdict.resonances, scan_agrees=False)
            return dataclasses.replace(verdict, resonances=report)

        monkeypatch.setattr(cli, "regular_direction", disagreeing)
        report, code = cli.run_scenario(load("lattice_lambda3_scan.json"), "scan")
        assert code == 3
        assert report["result"]["verdict"]["resonances"]["scan_agrees"] is False

    def test_scan_names_dropped_resonance(self, monkeypatch):
        # H = diag(1/3000.7, 2), F = I at lam = 0 gives T = diag(3000.7, 0.5);
        # the eigenvalue route is made to lose r = -2
        real = perturb._eigenvalue_route

        def dropping(*args):
            return [res for res in real(*args) if abs(res.coupling + 2.0) > 1e-9]

        monkeypatch.setattr(perturb, "_eigenvalue_route", dropping)
        doc = {
            "model": {
                "type": "finite_hermitian",
                "matrix": [[[1.0 / 3000.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
            },
            "rigging": {
                "channels": [{"row": [[1.0, 0.0], [0.0, 0.0]]}, {"row": [[0.0, 0.0], [1.0, 0.0]]}]
            },
            "J": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "lambda": 0.0,
            "window": [-5.0, 5.0],
        }
        report, code = cli.run_scenario(scenario.parse_scenario(doc), "scan")
        assert code == 3
        resonances = report["result"]["verdict"]["resonances"]
        assert resonances["scan_agrees"] is False and resonances["root_count"] == 2
        assert len(resonances["missed"]) == 1 and abs(resonances["missed"][0] + 2.0) <= 1e-9

    def test_scan_wide_window_is_bounded(self):
        # neither time nor memory may grow with the width of the window
        scn = dataclasses.replace(load("lattice_lambda3_scan.json"), window=(-1e6, 1e6))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report, code = cli.run_scenario(scn, "scan")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        resonances = report["result"]["verdict"]["resonances"]
        assert [res["r"] for res in resonances["resonances"]] == pytest.approx([np.sqrt(5.0)])
        assert resonances["root_count"] == 1 and resonances["missed"] == []
        assert elapsed < 2.0 and peak < 50 * 2**20

    def test_verify_thm_embedded(self):
        report, code = cli.run_scenario(load("embedded_verify_thm.json"), "verify-thm")
        assert code == 0
        cert = report["result"]["certificate"]
        assert cert["passed"] and not cert["vacuous"]
        limit = np.array(
            [[complex(*pair) for pair in row] for row in cert["conclusion"]["limit"]]
        )
        np.testing.assert_allclose(limit, np.diag([0.2 + 0.4j, 1.0]), rtol=0, atol=1e-6)

    def test_verify_thm_zero_direction_inconclusive(self):
        report, code = cli.run_scenario(load("embedded_verify_thm_zero.json"), "verify-thm")
        assert code == 3
        cert = report["result"]["certificate"]
        assert cert["vacuous"] and cert["passed"]

    def test_verify_cor_abs(self):
        report, code = cli.run_scenario(load("embedded_verify_cor_abs.json"), "verify-cor-abs")
        assert code == 0
        assert report["result"]["certificate"]["passed"]

    def test_verify_cor_mono(self):
        report, code = cli.run_scenario(load("lattice_cor_mono.json"), "verify-cor-mono")
        assert code == 0

    def test_verify_cor_mono_invalid_premise(self):
        report, code = cli.run_scenario(load("cor_mono_invalid.json"), "verify-cor-mono")
        assert code == 1
        cert = report["result"]["certificate"]
        assert not cert["passed"]
        assert any("invalid premise" in note for note in cert["notes"])

    def test_invalid_premise_certificate_has_common_shape(self):
        report, _ = cli.run_scenario(load("cor_mono_invalid.json"), "verify-cor-mono")
        cert = report["result"]["certificate"]
        other, _ = cli.run_scenario(load("lattice_cor_mono.json"), "verify-cor-mono")
        assert sorted(cert) == sorted(other["result"]["certificate"])
        assert cert["scenario"] == other["result"]["certificate"]["scenario"]
        assert (cert["premise"], cert["conclusion"]) == (None, None)
        assert cert["premise_direction"] == [[[1.0, 0.0]]]
        assert cert["conclusion_direction"] == [[[0.5, 0.0]]]

    def test_limit_without_j_couples_by_identity(self):
        # T_{0+i0} = i/2, so T(H + F*F) = (i/2) / (1 + i/2) = 0.2 + 0.4i
        scn = dataclasses.replace(load("lattice_limit.json"), anchors=(1.0,))
        report, code = cli.run_scenario(scn, "limit")
        assert code == 0
        result = report["result"]
        assert result["coupling"] == 1.0 and result["method"] == "exact"
        expected = perturb.perturbed_resolvent(
            models.boundary_exact(scn.model, scn.rigging, 0.0), np.eye(1)
        )
        value = complex(*result["value"][0][0])
        assert value == complex(expected[0, 0])
        assert abs(value - (0.2 + 0.4j)) <= 1e-15
        swept = dataclasses.replace(
            scn, sweep=scenario.SweepSpec(axis="lambda", start=-1.0, stop=1.0, points=3)
        )
        rows = cli.run_scenario(swept, "limit")[0]["result"]["rows"]
        assert rows[1]["value"] == 0.0 and rows[1]["t_norm"] == pytest.approx(abs(value), abs=1e-15)
        y_swept = dataclasses.replace(
            scn, sweep=scenario.SweepSpec(axis="y", start=0.5, stop=0.25, points=2)
        )
        rows = cli.run_scenario(y_swept, "limit")[0]["result"]["rows"]
        for row in rows:
            t = models.sandwiched_resolvent(scn.model, scn.rigging, complex(0.0, row["value"]))
            coupled = perturb.perturbed_resolvent(t, np.eye(1))
            assert row["t_norm"] == pytest.approx(abs(coupled[0, 0]), abs=1e-15)

    def test_scan_requires_direction(self):
        report, code = cli.run_scenario(load("lattice_limit.json"), "scan")
        assert code == 2
        assert report["result"]["path"] == "/J"

    def test_flow(self):
        report, code = cli.run_scenario(load("finite_flow.json"), "flow")
        assert code == 0
        result = report["result"]
        assert result["flow"] == 1
        assert result["count_from"] == 1 and result["count_to"] == 0

    def test_flow_needs_finite_model(self):
        report, code = cli.run_scenario(load("lattice_limit.json"), "flow")
        assert code == 2

    def test_sweep_lambda_im_t_column(self):
        report, code = cli.run_scenario(load("lattice_sweep_lambda.json"), "limit")
        assert code == 0
        rows = report["result"]["rows"]
        assert len(rows) == 39
        for row in rows:
            lam = row["value"]
            assert abs(row["im_t_min_eig"] - 1.0 / np.sqrt(4.0 - lam * lam)) <= 1e-6
            assert row["verdict"] == "converged"

    def test_sweep_r_dips_only_near_resonance(self):
        report, code = cli.run_scenario(load("lattice_sweep_r.json"), "scan")
        assert code == 0
        rows = report["result"]["rows"]
        assert len(rows) == 601
        sq5 = np.sqrt(5.0)
        sigmas = np.array([row["criterion_sigma_min"] for row in rows])
        values = np.array([row["value"] for row in rows])
        argmin = int(np.argmin(sigmas))
        assert abs(values[argmin] - sq5) <= 0.01
        far = np.abs(values - sq5) > 0.1
        assert sigmas[far].min() > 1e-3
        for row in rows:
            if row["criterion_sigma_min"] < 1e-6:
                assert abs(row["value"] - sq5) <= 0.02

    def test_sweep_y_pole_exponent(self):
        report, code = cli.run_scenario(load("embedded_sweep_y.json"), "limit")
        assert code == 0
        rows = report["result"]["rows"]
        ys = np.array([row["value"] for row in rows])
        norms = np.array([row["t_norm"] for row in rows])
        slope = np.polyfit(-np.log(ys), np.log(norms), 1)[0]
        assert 0.9 <= slope <= 1.1


class TestEmission:
    def test_round_trip_identity(self):
        report, _ = cli.run_scenario(load("lattice_lambda3_scan.json"), "scan")
        blob = cli.emit_report(report, "json")
        assert cli.parse_report(blob) == report

    def test_float_formatting_17g(self):
        blob = cli.emit_report({"x": 1.0 / 3.0}, "json").decode()
        assert "0.33333333333333331" in blob

    def test_complex_pair_convention(self):
        report, _ = cli.run_scenario(load("lattice_limit.json"), "limit")
        value = report["result"]["value"]
        assert value[0][0] == [0.0, 0.5]

    def test_empty_resonance_table_serializes(self):
        scn = load("lattice_limit.json")
        doc = dict(scn.raw)
        doc["J"] = [[[1.0, 0.0]]]
        report, code = cli.run_scenario(scenario.parse_scenario(doc), "scan")
        assert code == 0
        assert report["result"]["verdict"]["resonances"]["resonances"] == []
        blob = cli.emit_report(report, "json").decode()
        assert '"resonances": []' in blob

    def test_csv_scan_table(self):
        report, _ = cli.run_scenario(load("lattice_lambda3_scan.json"), "scan")
        text = cli.emit_report(report, "csv").decode()
        lines = text.split("\r\n")
        assert lines[0] == "r,multiplicity"
        assert lines[1].startswith("2.236067977")

    def test_csv_sweep_table(self):
        report, _ = cli.run_scenario(load("lattice_sweep_lambda.json"), "limit")
        text = cli.emit_report(report, "csv").decode()
        lines = [ln for ln in text.split("\r\n") if ln]
        assert lines[0] == "axis,value,t_norm,im_t_min_eig,criterion_sigma_min,verdict,at_resonance"
        assert len(lines) == 40

    def test_wall_clock_not_in_canonical_report(self):
        report, _ = cli.run_scenario(load("lattice_limit.json"), "limit")
        assert "wall_clock_ms" not in report


class TestEndToEnd:
    @pytest.mark.parametrize(
        "name,command,expected",
        [
            ("lattice_limit.json", "limit", 0),
            ("embedded_limit.json", "limit", 0),
            ("lattice_lambda3_scan.json", "scan", 0),
            ("embedded_verify_thm.json", "verify-thm", 0),
            ("embedded_verify_thm_zero.json", "verify-thm", 3),
            ("embedded_verify_cor_abs.json", "verify-cor-abs", 0),
            ("lattice_cor_mono.json", "verify-cor-mono", 0),
            ("cor_mono_invalid.json", "verify-cor-mono", 1),
            ("malformed_j.json", "scan", 2),
            ("finite_flow.json", "flow", 0),
        ],
    )
    def test_exit_codes(self, name, command, expected, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "--scenario", str(SCENARIOS / name), "--command", command, "--out", str(out)
        )
        assert proc.returncode == expected, proc.stderr
        if expected != 2:
            assert out.exists()

    def test_malformed_j_reports_pointer_path(self):
        proc = run_cli("--scenario", str(SCENARIOS / "malformed_j.json"), "--command", "scan")
        assert proc.returncode == 2
        assert "/J" in proc.stderr

    def test_unknown_flag_is_error(self):
        proc = run_cli(
            "--scenario", str(SCENARIOS / "lattice_limit.json"), "--command", "limit", "--bogus", "1"
        )
        assert proc.returncode == 2

    def test_unknown_command_is_error(self):
        proc = run_cli(
            "--scenario", str(SCENARIOS / "lattice_limit.json"), "--command", "explode"
        )
        assert proc.returncode == 2

    def test_missing_file(self):
        proc = run_cli("--scenario", "/nonexistent.json", "--command", "limit")
        assert proc.returncode == 2

    def test_stdout_emission_and_overrides(self):
        proc = run_cli(
            "--scenario", str(SCENARIOS / "lattice_lambda3_scan.json"),
            "--command", "scan",
            "--window=-4:4",
            "--anchors", "0,1",
            "--tol", "1e-7",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["effective"]["window"] == [-4.0, 4.0]
        assert report["effective"]["anchors"] == [0.0, 1.0]
        assert report["effective"]["tol"] == 1e-7

    def test_seed_is_not_an_option(self):
        proc = run_cli(
            "--scenario", str(SCENARIOS / "lattice_limit.json"), "--command", "limit", "--seed", "42"
        )
        assert proc.returncode == 2
        doc = json.loads((SCENARIOS / "lattice_limit.json").read_text())
        doc["seed"] = 1
        with pytest.raises(ScenarioError) as err:
            scenario.parse_scenario(doc)
        assert err.value.path == "/seed"

    def test_import_pulls_in_numpy_alone(self):
        code = (
            "import sys; before = set(sys.modules); import laplab; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['laplab', 'numpy']"

    def test_byte_identical_repeat_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            proc = run_cli(
                "--scenario", str(SCENARIOS / "embedded_verify_thm.json"),
                "--command", "verify-thm",
                "--out", str(out),
            )
            assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()
