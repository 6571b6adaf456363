import json
import math
import types

import numpy as np
import pytest

from supergraph import montecarlo, rng, sampler, theory
from supergraph.cli import render_report
from supergraph.config import SizeConfiguration, empirical_profile, power_law_configuration
from supergraph.graph import connected_components, degrees
from supergraph.montecarlo import (ExperimentPlan, ExperimentReport, run_experiment,
                                   total_variation)
from supergraph.sampler import SuperGraph, resolve_p, sample_direct


class TestTotalVariation:
    def test_identical(self):
        assert total_variation({0: 0.3, 1: 0.7}, {0: 0.3, 1: 0.7}) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation({0: 1.0}, {5: 1.0}) == 1.0

    def test_half(self):
        assert total_variation({0: 0.5, 1: 0.5}, {0: 1.0}) == pytest.approx(0.5, abs=1e-15)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            total_variation({0: -0.1, 1: 1.1}, {0: 1.0})

    def test_oversized_mass_rejected(self):
        with pytest.raises(ValueError):
            total_variation({0: 0.9, 1: 0.2}, {0: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_mass_rejected_in_first(self, bad):
        with pytest.raises(ValueError, match="first"):
            total_variation({0: bad}, {0: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_mass_rejected_in_second(self, bad):
        with pytest.raises(ValueError, match="second"):
            total_variation({0: 1.0}, {0: bad})

    def test_partial_mass_allowed(self):
        # truncated empirical pmfs legitimately sum below 1
        assert total_variation({0: 0.5}, {0: 1.0}) == pytest.approx(0.25, abs=1e-15)


def plan_for(counts, regime, c, trials, seed, experiment):
    return ExperimentPlan(config=SizeConfiguration(counts), regime=regime, c=c,
                          trials=trials, seed=seed, experiment=experiment)


class TestConnectivityExperiment:
    def test_p_one_always_connected(self):
        report = run_experiment(plan_for({1: 20}, "raw", 1.0, 50, 5, "connectivity"))
        assert report.estimates["p_connected"][0] == 1.0
        assert report.estimates["isolated_mean"][0] == 0.0

    def test_p_zero_never_connected(self):
        report = run_experiment(plan_for({1: 20}, "raw", 0.0, 50, 5, "connectivity"))
        assert report.estimates["p_connected"][0] == 0.0
        assert report.estimates["isolated_mean"][0] == 20.0
        assert report.estimates["tv_isolated_poisson"][0] <= 1.0

    def test_estimates_in_range_and_theory_block(self):
        report = run_experiment(
            plan_for({1: 300}, "connectivity", 0.5, 200, 17, "connectivity"))
        p_hat, se = report.estimates["p_connected"]
        assert 0.0 <= p_hat <= 1.0 and se is not None
        assert report.theory["c_connectivity"] == pytest.approx(0.5, abs=1e-9)
        assert report.theory["isolated_mean_limit"] == pytest.approx(math.exp(-0.5), abs=1e-9)
        assert set(report.distributions) == {"isolated_empirical", "isolated_poisson"}
        assert report.meta["trials"] == 200

    def test_estimator_sanity_check_trips_on_wrong_theory(self, monkeypatch):
        real = theory.expected_isolated
        monkeypatch.setattr(theory, "expected_isolated",
                            lambda cfg, p: real(cfg, p) + 50.0)
        with pytest.raises(RuntimeError, match="sanity"):
            run_experiment(
                plan_for({1: 300}, "connectivity", 0.5, 600, 17, "connectivity"))


class TestGiantExperiment:
    def test_c_zero_exact(self):
        report = run_experiment(plan_for({1: 100}, "sparse", 0.0, 10, 3, "giant"))
        assert report.estimates["l1_fraction"][0] == pytest.approx(1 / 100, abs=1e-15)
        assert report.theory["rho"] == 0.0

    def test_supercritical_matches_fixed_point(self):
        report = run_experiment(plan_for({1: 20000}, "sparse", 2.0, 5, 19, "giant"))
        assert report.estimates["l1_fraction"][0] == pytest.approx(0.796812, abs=0.03)
        assert report.estimates["l2_fraction"][0] <= 0.01
        assert report.theory["c_star"] == 1.0

    def test_subcritical_small(self):
        report = run_experiment(plan_for({1: 10000, 2: 10000}, "sparse", 0.5, 5, 19, "giant"))
        assert report.estimates["l1_fraction"][0] <= 0.05
        assert report.theory["rho"] == 0.0
        assert report.theory["c_star"] == pytest.approx(0.6, abs=1e-12)


class TestDegreeExperiment:
    def test_c_zero_concentrates_at_zero(self):
        report = run_experiment(plan_for({1: 50}, "sparse", 0.0, 5, 23, "degree"))
        assert report.distributions["degree_hist"][0] == 1.0
        assert report.estimates["tv_degree"][0] == pytest.approx(0.0, abs=1e-12)

    def test_poisson_limit_small_scale(self):
        report = run_experiment(plan_for({1: 20000}, "sparse", 1.0, 5, 29, "degree"))
        assert report.estimates["tv_degree"][0] <= 0.03
        emp = report.distributions["degree_hist"]
        assert emp[0] == pytest.approx(math.exp(-1), abs=0.02)
        tails = report.distributions["degree_tail_empirical"]
        assert tails[0] == pytest.approx(1.0, abs=1e-12)

    def test_distributions_are_valid_pmfs(self):
        report = run_experiment(plan_for({1: 500, 2: 500}, "sparse", 1.0, 4, 31, "degree"))
        for name in ("degree_hist", "degree_theory"):
            pmf = report.distributions[name]
            assert all(v >= 0 for v in pmf.values())
            assert math.fsum(pmf.values()) == pytest.approx(1.0, abs=1e-9)

    # In both cases the unclamped empirical tail at k = 0 sums to 1.0000000000000002,
    # so the clamp at 1.0 is exercised.
    @pytest.mark.parametrize("counts, trials", [({1: 70, 3: 13}, 1), ({1: 50, 3: 10}, 7)],
                             ids=["one_trial", "seven_trials"])
    def test_report_matches_public_theory_bit_for_bit(self, counts, trials):
        report = run_experiment(plan_for(counts, "sparse", 1.5, trials, 2, "degree"))
        profile = empirical_profile(SizeConfiguration(counts))
        c_sparse = report.theory["c_sparse"]
        head = theory.degree_pmf_head(profile, c_sparse)
        dist = report.distributions
        assert list(dist["degree_theory"].values()) == head + [theory.tail_mass(head)]
        assert dist["degree_tail_theory"] == {
            k: theory.mixed_poisson_tail(profile, c_sparse, k) for k in range(len(head) + 1)}
        hist = list(dist["degree_hist"].values())
        running, tails = 0.0, []
        for value in reversed(hist):
            running += value
            tails.append(running)
        assert running == 1.0000000000000002
        assert list(dist["degree_tail_empirical"].values()) == [min(t, 1.0) for t in reversed(tails)]
        assert list(dist["degree_tail_empirical"]) == list(dist["degree_hist"])


class TestEstimatorProperties:
    def test_sample_variance_tracks_exact_variance(self):
        # N <= 100 config, 2000 trials: sample Var(X) within 5 SE of exact
        counts = {1: 60, 2: 20}
        plan = plan_for(counts, "raw", 0.02, 2000, 41, "connectivity")
        report = run_experiment(plan)
        s2, se = report.estimates["isolated_variance"]
        exact = theory.variance_isolated(SizeConfiguration(counts), 0.02)
        assert abs(s2 - exact) <= 5 * se

    def test_mean_tracks_exact_expectation(self):
        counts = {1: 60, 2: 20}
        plan = plan_for(counts, "raw", 0.02, 2000, 41, "connectivity")
        report = run_experiment(plan)
        x_bar, se = report.estimates["isolated_mean"]
        exact = theory.expected_isolated(SizeConfiguration(counts), 0.02)
        assert abs(x_bar - exact) <= 4 * se


def _strip_wall_time(rendered: str) -> dict:
    doc = json.loads(rendered)
    doc["meta"].pop("wall_time")
    return doc


class TestReproducibility:
    @pytest.mark.parametrize("experiment", ["connectivity", "giant", "degree"])
    def test_worker_count_does_not_change_report(self, monkeypatch, experiment):
        plan = plan_for({1: 150, 2: 50}, "sparse", 1.0, 40, 12345, experiment)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda plan: 1)
        serial = _strip_wall_time(render_report(run_experiment(plan), "json"))
        monkeypatch.setattr(montecarlo, "_worker_count", lambda plan: 4)
        threaded = _strip_wall_time(render_report(run_experiment(plan), "json"))
        assert serial == threaded

    def test_repeat_runs_identical(self):
        plan = plan_for({1: 100}, "connectivity", 0.0, 30, 777, "connectivity")
        a = _strip_wall_time(render_report(run_experiment(plan), "json"))
        b = _strip_wall_time(render_report(run_experiment(plan), "json"))
        assert a == b


def _reference_trials(plan, params, cutoff):
    """Per-trial records and summed degree counts through the public graph path."""
    records, counts = [], np.zeros(cutoff + 1, np.int64)
    for t in range(plan.trials):
        graph = sample_direct(plan.config, params, rng.stream_root(plan.seed, t))
        summary = connected_components(graph)
        sizes = summary.sizes_desc
        records.append((sizes.shape[0] == 1, summary.isolated_count, sizes[0],
                        sizes[1] if sizes.shape[0] > 1 else 0))
        counts += np.bincount(np.minimum(degrees(graph), cutoff), minlength=cutoff + 1)
    return records, counts


class TestTrialPath:
    @pytest.mark.parametrize("counts", [
        {1: 1}, {1: 1000}, {1: 200, 2: 60, 4: 10}, power_law_configuration(1000, 2.0, 20).counts,
    ], ids=["one_vertex", "1000", "three_class", "power_law"])
    @pytest.mark.parametrize("p", ["zero", "sparse", "one"])
    def test_records_match_the_public_graph_path(self, counts, p):
        config = SizeConfiguration(counts)
        p = {"zero": 0.0, "sparse": min(1.0, 1.5 / config.num_vertices), "one": 1.0}[p]
        params = resolve_p("raw", p, config)
        for seed in (0, 31337, 2**64 - 1):
            plan = ExperimentPlan(config=config, regime="raw", c=p, trials=3, seed=seed,
                                  experiment="degree")
            # no degree reaches N, so the counts are exact histograms with no lumping
            stats, totals = montecarlo._run_trials(plan, params, config.num_super)
            records, want_totals = _reference_trials(plan, params, config.num_super)
            got = list(zip(*(stats[key].tolist() for key in ("connected", "isolated", "L1",
                                                             "L2"))))
            assert got == records, seed
            assert np.array_equal(totals, want_totals), seed
            assert stats["connected"].dtype == np.int8
            assert all(stats[key].dtype == np.int64 for key in ("isolated", "L1", "L2"))
            assert totals.dtype == np.int64

    @pytest.mark.parametrize("experiment", ["connectivity", "giant", "degree"])
    def test_trials_build_no_super_graph(self, monkeypatch, experiment):
        def no_graph(self):
            raise AssertionError("a trial built a SuperGraph")

        monkeypatch.setattr(SuperGraph, "__post_init__", no_graph)
        report = run_experiment(plan_for({1: 150, 2: 50}, "sparse", 1.5, 6, 8, experiment))
        assert report.meta["trials"] == 6

    @pytest.mark.parametrize("experiment", ["connectivity", "giant", "degree"])
    def test_n_checked_before_building_arrays(self, monkeypatch, experiment):
        # the real limit needs a 3e9-entry sizes vector; a lowered one runs the same check
        def no_arrays(config):
            raise AssertionError("size_classes ran before the N check")

        monkeypatch.setattr(sampler, "_MAX_SUPER", 3)
        monkeypatch.setattr(SizeConfiguration, "size_classes", no_arrays)
        with pytest.raises(ValueError, match="overflows int64"):
            run_experiment(plan_for({1: 2, 2: 2}, "sparse", 1.0, 2, 1, experiment))


def _patch_cpus(monkeypatch, affinity=None, cpu_count=4):
    """Replace montecarlo.os; affinity=None means the platform has no affinity call."""
    fake = types.SimpleNamespace(cpu_count=lambda: cpu_count)
    if affinity is not None:
        fake.sched_getaffinity = lambda pid: set(range(affinity))
    monkeypatch.setattr(montecarlo, "os", fake)


class TestWorkerCount:
    # only the count is computed; no thread is started
    @pytest.mark.parametrize("counts,trials,want", [
        ({1: 1000}, 500, 1),
        ({1: 3000}, 200, 1),
        # N = 100k in 58 classes: a mean class of 1724 despite the large N
        (power_law_configuration(100_000, 2.0, 300).counts, 4, 1),
        ({1: 10_000, 2: 10_000}, 20, 1),
        ({1: 12_000}, 40, 1),
        ({1: 1 << 14}, 40, 4),
        ({1: 1 << 15}, 20, 4),
        ({1: 50_000, 2: 50_000}, 8, 4),
        ({1: 1 << 16}, 12, 4),
        ({1: 1 << 17}, 6, 4),
        ({1: 500_000}, 3, 3),
    ], ids=["1000", "3000", "1724", "10000", "12000", "16384", "32768", "50000", "65536",
            "131072", "500000"])
    def test_chosen_from_mean_class_size(self, monkeypatch, counts, trials, want):
        _patch_cpus(monkeypatch, affinity=4)
        plan = plan_for(counts, "sparse", 2.0, trials, 1, "giant")
        assert montecarlo._worker_count(plan) == want

    @pytest.mark.parametrize("trials,want", [(1, 1), (2, 2), (4, 4), (1000, 4)])
    def test_clamped_to_trials(self, monkeypatch, trials, want):
        _patch_cpus(monkeypatch, affinity=4)
        plan = plan_for({1: 1 << 16}, "sparse", 2.0, trials, 1, "giant")
        assert montecarlo._worker_count(plan) == want

    @pytest.mark.parametrize("affinity,cpu_count,trials,want", [
        (2, 64, 1000, 2), (1, 64, 1000, 1), (None, 3, 1000, 3), (None, None, 1000, 1),
        (None, 64, 2, 2),
    ])
    def test_usable_cpus(self, monkeypatch, affinity, cpu_count, trials, want):
        _patch_cpus(monkeypatch, affinity=affinity, cpu_count=cpu_count)
        plan = plan_for({1: 1 << 16}, "sparse", 2.0, trials, 1, "giant")
        assert montecarlo._worker_count(plan) == want


class TestPlanValidation:
    def test_trials_positive(self):
        with pytest.raises(ValueError):
            plan_for({1: 5}, "raw", 0.5, 0, 1, "giant")

    def test_experiment_name(self):
        with pytest.raises(ValueError):
            plan_for({1: 5}, "raw", 0.5, 5, 1, "percolation")

    @pytest.mark.parametrize("trials", [2.0, True, np.bool_(True)])
    def test_trials_not_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials"):
            plan_for({1: 5}, "raw", 0.5, trials, 1, "giant")

    def test_numpy_trials_stored_as_int(self):
        plan = plan_for({1: 30, 2: 10}, "sparse", 1.0, np.int64(40), 3, "giant")
        assert type(plan.trials) is int
        report = render_report(run_experiment(plan), "json")
        want = render_report(run_experiment(plan_for({1: 30, 2: 10}, "sparse", 1.0, 40, 3,
                                                     "giant")), "json")

        def kept(rendered):
            return [line for line in rendered.splitlines() if '"wall_time"' not in line]
        assert kept(report) == kept(want)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            plan_for({1: 5}, "raw", 0.5, 5, seed, "giant")

    def test_numpy_seed_stored_as_int(self):
        plan = plan_for({1: 5}, "raw", 0.5, 5, np.uint64(7), "giant")
        assert type(plan.seed) is int
        assert json.loads(render_report(run_experiment(plan), "json"))["meta"]["seed"] == 7

    def test_seed_range(self):
        with pytest.raises(ValueError):
            plan_for({1: 5}, "raw", 0.5, 5, -1, "giant")
        with pytest.raises(ValueError):
            plan_for({1: 5}, "raw", 0.5, 5, 1 << 64, "giant")

    @pytest.mark.parametrize("experiment", ["connectivity", "giant", "degree"])
    def test_report_names_the_plan_experiment(self, experiment):
        plan = plan_for({1: 30, 2: 10}, "sparse", 1.0, 3, 5, experiment)
        report = run_experiment(plan)
        assert report.experiment == report.meta["experiment"] == plan.experiment

    def test_report_dataclass_shape(self):
        report = run_experiment(plan_for({1: 30}, "raw", 0.1, 8, 2, "giant"))
        assert isinstance(report, ExperimentReport)
        assert set(report.trial_stats) == {"connected", "isolated", "L1", "L2"}
        assert all(len(v) == 8 for v in report.trial_stats.values())
