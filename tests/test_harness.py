"""Unit tests for the statistical experiment harness."""

import numpy as np
import pytest

from openkpz import harness
from openkpz.harness import (
    batch_means_se,
    coupling_experiment,
    ergodic_average,
    ks_two_sample,
    stationarity_experiment,
)


class TestKs:
    def test_same_distribution_high_p(self):
        rng = np.random.default_rng(0)
        stat, p = ks_two_sample(rng.normal(size=500), rng.normal(size=500))
        assert p > 0.01

    def test_shifted_distribution_low_p(self):
        rng = np.random.default_rng(1)
        _, p = ks_two_sample(rng.normal(size=500), rng.normal(size=500) + 1.0)
        assert p < 1e-10

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 50 samples per side, got 10 and 100"):
            ks_two_sample(np.zeros(10), np.zeros(100))


class TestBatchMeans:
    def test_iid_matches_naive_se(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20000)
        se = batch_means_se(x)
        naive = x.std(ddof=1) / np.sqrt(len(x))
        assert 0.5 * naive < se < 2.0 * naive

    def test_correlated_series_inflates_se(self):
        rng = np.random.default_rng(3)
        eps = rng.normal(size=20000)
        x = np.empty_like(eps)
        x[0] = eps[0]
        for i in range(1, len(eps)):
            x[i] = 0.95 * x[i - 1] + eps[i]
        naive = x.std(ddof=1) / np.sqrt(len(x))
        assert batch_means_se(x) > 2.0 * naive

    def test_fewer_samples_than_batches_rejected(self):
        with pytest.raises(ValueError, match="16 samples"):
            batch_means_se(np.ones(16))


class TestStationarity:
    def test_exact_regime_passes(self):
        report, = stationarity_experiment(
            0.5, -0.5, n_samples=300, t_final=0.125, dx=1.0 / 32, seed=0
        )
        assert report.passed
        assert set(report.statistics["p_values"]) == {"0.25", "0.5", "0.75", "1.0"}

    def test_wrong_law_control_fails(self):
        n = 32
        wrong = np.zeros((300, n + 1))  # a flat law is far from stationarity
        report, control = stationarity_experiment(
            0.5, -0.5, n_samples=300, t_final=0.125, dx=1.0 / 32, seed=0,
            wrong_laws={"flat": wrong},
        )
        assert report.passed and not control.passed
        assert control.experiment == "flat"

    def test_report_serializes(self):
        import dataclasses
        import json

        report, = stationarity_experiment(
            0.5, -0.5, n_samples=120, t_final=0.0625, dx=1.0 / 32, seed=1
        )
        json.dumps(dataclasses.asdict(report))


class TestErgodic:
    def test_time_average_matches_ensemble(self):
        report = ergodic_average(
            0.5, -0.5, functional="endpoint", t_final=4.0, dx=1.0 / 32, seed=0,
            n_reference=2000,
        )
        assert report.passed
        assert abs(report.statistics["z_score"]) < 3.0

    def test_too_few_samples_rejected_before_simulating(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran before the sample count was checked")

        monkeypatch.setattr(harness, "sample_stationary_mcmc", unreachable)
        monkeypatch.setattr(harness, "simulate_she", unreachable)
        with pytest.raises(ValueError, match="16 samples"):
            ergodic_average(0.5, 0.5, "endpoint", t_final=0.25, dx=1.0 / 16, seed=4)

    @pytest.mark.parametrize("name, value", [("n_reference", 1), ("n_reference", 0),
                                             ("sample_stride", 0), ("sample_stride", -8)])
    def test_degenerate_counts_rejected_before_simulating(self, name, value, monkeypatch):
        # n_reference = 1 gave a NaN ensemble error and a passing z = 0
        def unreachable(*args, **kwargs):
            raise AssertionError("ran before the counts were checked")

        monkeypatch.setattr(harness, "sample_stationary_mcmc", unreachable)
        monkeypatch.setattr(harness, "sample_bm_drift", unreachable)
        monkeypatch.setattr(harness, "simulate_she", unreachable)
        with pytest.raises(ValueError, match=f"{name} = {value}"):
            ergodic_average(0.5, -0.5, "endpoint", t_final=1.25, dx=1.0 / 8, seed=0,
                            **{name: value})

    def test_unknown_functional_rejected(self):
        with pytest.raises(ValueError):
            ergodic_average(0.5, -0.5, functional="mystery", t_final=1.0, dx=1.0 / 32, seed=0)


class TestReportIsItsCall:
    """A report's parameters are its call's arguments: rerunning them gives the report."""

    def test_stationarity(self):
        # 0.1 is off the dt = 1/128 grid: the recorded horizon is the snapped one
        report, = stationarity_experiment(0.5, -0.5, n_samples=60, t_final=0.1, dx=1.0 / 8,
                                          seed=5)
        assert report.parameters["t_final"] == 13 / 128
        assert stationarity_experiment(**report.parameters) == (report,)

    def test_ergodic(self):
        report = ergodic_average(1.0, 0.5, "max", t_final=0.3, dx=1.0 / 8, seed=5,
                                 n_reference=60, sample_stride=1)
        assert ergodic_average(**report.parameters) == report

    def test_coupling(self):
        x = np.linspace(0, 1, 9)
        starts = {"h0_a": np.zeros_like(x), "h0_b": np.sin(np.pi * x)}
        report = coupling_experiment(0.5, -0.5, **starts, t_final=0.1, dx=1.0 / 8, seed=5)
        assert coupling_experiment(**starts, **report.parameters) == report


class TestCoupling:
    def test_distance_decays(self):
        n = 32
        x = np.linspace(0, 1, n + 1)
        report = coupling_experiment(
            0.0, 0.0, np.zeros(n + 1), np.sin(np.pi * x),
            t_final=0.5, dx=1.0 / 32, seed=0,
        )
        curve = report.statistics["distance_curve"]
        d0 = curve["0.0"]
        d_end = list(curve.values())[-1]
        assert d_end < 0.2 * d0
        assert report.passed is None  # exploratory, no hard verdict
