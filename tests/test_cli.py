import json
import math
import time

import pytest

from oracles import bisect_giant_fraction
from supergraph import theory
from supergraph.cli import main, render_report
from supergraph.config import SizeConfiguration, empirical_profile, parse_inline
from supergraph.montecarlo import ExperimentPlan, ExperimentReport, run_experiment
from supergraph.sampler import resolve_p


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_p_zero_empty_edge_list(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--inline", "1x10",
                                 "--regime", "raw", "--c", "0", "--seed", "1")
        assert code == 0
        assert out == "# N=10 sizes=1x10\n"

    def test_subnormal_p_is_quiet(self, capsys):
        # the kernel's gap divide overflows to +inf at this p, which is harmless
        code, out, err = run_cli(capsys, "generate", "--inline", "1x1000",
                                 "--regime", "raw", "--c", "1e-310", "--seed", "1")
        assert (code, err) == (0, "")
        assert out == "# N=1000 sizes=1x1000\n"

    def test_constructive_sampler_flag(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--inline", "1x4", "--regime", "raw",
                               "--c", "1", "--seed", "2", "--sampler", "constructive")
        assert code == 0
        assert len(out.splitlines()) == 1 + 6  # header + complete graph on 4

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        code, out, _ = run_cli(capsys, "generate", "--inline", "1x3", "--regime", "raw",
                               "--c", "1", "--seed", "0", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().splitlines()[0] == "# N=3 sizes=1x3"

    def test_out_file_bytes_equal_stdout(self, tmp_path, capsys):
        argv = ["generate", "--inline", "1x3000,2x1000", "--regime", "sparse", "--c", "1.5",
                "--seed", "4"]
        path = tmp_path / "edges.txt"
        _, out, _ = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    def test_failed_sample_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "edges.txt"
        code, _, err = run_cli(capsys, "generate", "--inline", "1x3", "--regime", "raw",
                               "--c", "1", "--seed", "-1", "--out", str(path))
        assert code == 1 and "seed" in err
        assert not path.exists()


class TestPredict:
    def test_two_size_prediction(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--inline", "1x1000,2x500",
                               "--regime", "sparse", "--c", "1.2")
        assert code == 0
        doc = json.loads(out)
        # s2 = (1*1000 + 4*500)/2000 = 1.5, so c* = 2/3
        assert doc["c_star"] == pytest.approx(2 / 3, abs=1e-12)
        assert doc["rho"] > 0.0
        assert doc["N"] == 1500 and doc["n"] == 2000
        assert set(doc["rho_by_size"]) == {"1", "2"}
        assert abs(sum(doc["degree_pmf"]) - 1.0) < 1e-6

    def test_near_threshold_matches_bisection(self, capsys):
        # s2 = (1*50000 + 4*50000)/150000, so c* = 0.6; eps = 1e-6 above it
        c = 0.6 * (1.0 + 1e-6)
        code, out, _ = run_cli(capsys, "predict", "--inline", "1x50000,2x50000",
                               "--regime", "sparse", "--c", repr(c))
        assert code == 0
        want = bisect_giant_fraction({1: 0.5, 2: 0.5}, c)
        assert json.loads(out)["rho"] == pytest.approx(want, rel=1e-9, abs=0.0)

    # c* = 2/3 on 1x1000,2x500, so c = 0.3 is subcritical; c* = 0.6 on 1x50000,2x50000
    @pytest.mark.parametrize("inline,c", [("1x1000,2x500", 0.3), ("1x1000,2x500", 1.2),
                                          ("1x50000,2x50000", 0.6 * (1.0 + 1e-6))])
    def test_reports_the_giant_solver(self, capsys, inline, c):
        code, out, _ = run_cli(capsys, "predict", "--inline", inline, "--regime", "sparse",
                               "--c", repr(c))
        assert code == 0
        config = parse_inline(inline)
        c_sparse = resolve_p("sparse", c, config).p * config.num_vertices
        want = theory.solve_giant_fraction(empirical_profile(config), c_sparse)
        assert json.loads(out)["giant_solver"] == {"iterations": want.iterations,
                                                   "residual": want.residual}

    def test_moments_match_theory(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--inline", "1x50",
                               "--regime", "raw", "--c", "0.1")
        doc = json.loads(out)
        cfg = SizeConfiguration({1: 50})
        assert doc["E_isolated"] == theory.expected_isolated(cfg, 0.1)
        assert doc["Var_isolated"] == theory.variance_isolated(cfg, 0.1)


class TestExperimentCommands:
    def test_giant_small(self, capsys):
        code, out, _ = run_cli(capsys, "giant", "--inline", "1x20000", "--c", "2",
                               "--trials", "5", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["estimates"]["l1_fraction"]["value"] == pytest.approx(0.7968, abs=0.03)
        assert doc["theory"]["rho"] == pytest.approx(0.796812, abs=1e-5)

    def test_connectivity_default_regime(self, capsys):
        code, out, _ = run_cli(capsys, "connectivity", "--inline", "1x200", "--c", "1",
                               "--trials", "20", "--seed", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["regime"] == "connectivity"
        assert 0.0 <= doc["estimates"]["p_connected"]["value"] <= 1.0

    def test_degree_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "degree", "--inline", "1x500", "--c", "1",
                               "--trials", "3", "--seed", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,empirical,theory"
        k, emp, th = lines[1].split(",")
        assert k == "0" and 0 <= float(emp) <= 1 and 0 <= float(th) <= 1

    def test_trial_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "giant", "--inline", "1x50", "--c", "1",
                               "--trials", "4", "--seed", "4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "trial,connected,isolated,L1,L2"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] in ("0", "1")


class TestRendering:
    def test_json_round_trip_recovers_estimates(self):
        plan = ExperimentPlan(config=SizeConfiguration({1: 60}), regime="sparse", c=1.0,
                              trials=12, seed=5, experiment="giant")
        report = run_experiment(plan)
        doc = json.loads(render_report(report, "json"))
        for name, (value, stderr) in report.estimates.items():
            assert doc["estimates"][name]["value"] == value
            assert doc["estimates"][name]["stderr"] == stderr

    def test_empty_estimates_skeleton(self):
        report = ExperimentReport(experiment="giant", estimates={}, theory={})
        doc = json.loads(render_report(report, "json"))
        assert doc["estimates"] == {} and doc["distributions"] == {}
        assert doc["trials"] == {}

    def test_unknown_format(self):
        report = ExperimentReport(experiment="giant", estimates={}, theory={})
        with pytest.raises(ValueError):
            render_report(report, "yaml")

    def test_byte_identical_for_identical_argv(self, capsys):
        argv = ("connectivity", "--inline", "1x100", "--c", "0", "--trials", "15",
                "--seed", "33")
        _, out_a, _ = run_cli(capsys, *argv)
        _, out_b, _ = run_cli(capsys, *argv)
        doc_a, doc_b = json.loads(out_a), json.loads(out_b)
        doc_a["meta"].pop("wall_time")
        doc_b["meta"].pop("wall_time")
        assert json.dumps(doc_a, sort_keys=False) == json.dumps(doc_b, sort_keys=False)


class TestPowerlawCommand:
    def test_composes_with_config_flag(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        code, _, _ = run_cli(capsys, "powerlaw", "--n", "1000", "--alpha", "2",
                             "--max-size", "10", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "predict", "--config", str(path),
                               "--regime", "sparse", "--c", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 1000


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run_cli(capsys, "generate", "--inline", "1x10")[0] == 2  # missing flags
        assert run_cli(capsys, "nonsense")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_runtime_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--inline", "1x10",
                               "--regime", "raw", "--c", "1.5", "--seed", "1")
        assert code == 1
        assert "error" in err

    def test_inexact_position_space_is_1(self, capsys):
        # 5e17 underlying vertex pairs in one block, past float64's exact 2^53
        code, out, err = run_cli(capsys, "generate", "--inline", "10000x100000",
                                 "--regime", "raw", "--c", "1e-16", "--seed", "0",
                                 "--sampler", "constructive")
        assert code == 1 and out == ""
        assert "2^53" in err

    @pytest.mark.parametrize("command,spec,message", [
        *(pytest.param(command, spec, message, id=f"{kind}-{command}")
          for kind, spec, message in (("count", f"1x{10**20}", "overflows int64"),
                                      ("size", f"{10**20}x1", "below 2^63"))
          for command in ("generate", "connectivity")),
        # past float64's range: n^2 and the product of two counts overflow it
        *(pytest.param(command, spec, message, id=f"{kind}-{command}")
          for kind, spec, message in (
              ("float_count", f"1x{10**200}", f"count {10**200} for size 1"),
              ("float_size", f"{10**200}x3", f"size {10**200} "))
          for command in ("predict", "connectivity", "giant", "degree")),
    ])
    def test_oversized_configuration_is_1(self, capsys, command, spec, message):
        seed = [] if command == "predict" else ["--seed", "1"]
        trials = ["--trials", "2"] if command in ("connectivity", "giant", "degree") else []
        code, out, err = run_cli(capsys, command, "--inline", spec, "--regime", "sparse",
                                 "--c", "1", *seed, *trials)
        assert code == 1 and out == ""
        assert err.startswith("supergraph: error:") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["predict", "degree"])
    def test_degree_law_past_the_head_limit_fails_fast(self, capsys, command):
        # the size-10^6 class has degree mean i*c = 10^6, so the degree pmf head
        # cannot end within 10^6 terms; walking them took ~2 s before failing
        trials = ["--trials", "2", "--seed", "1"] if command == "degree" else []
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--inline", "1x10,1000000x2", "--regime",
                                 "sparse", "--c", "1", *trials)
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("supergraph: error: degree law of size 1000000 at rate i*c = 1e+06")
        assert err.count("\n") == 1

    def test_predicts_a_configuration_past_int64(self, capsys):
        code, out, err = run_cli(capsys, "predict", "--inline", f"2x{2**62}", "--regime",
                                 "sparse", "--c", "1")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["N"] == 2**62 and doc["n"] == 2**63
        assert all(math.isfinite(doc[k]) for k in ("E_isolated", "Var_isolated", "rho"))

    def test_missing_config_file_is_1(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--config", "/nonexistent.json",
                               "--regime", "raw", "--c", "0.1")
        assert code == 1

    def test_help_is_0_and_names_the_phenomenon(self, capsys):
        code, out, _ = run_cli(capsys, "connectivity", "--help")
        assert code == 0
        assert "exp(-exp(-c))" in out
        code, out, _ = run_cli(capsys, "giant", "--help")
        assert "c * s2 = 1" in out
        code, out, _ = run_cli(capsys, "degree", "--help")
        assert "mixed Poisson" in out
