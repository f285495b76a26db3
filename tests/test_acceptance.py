"""Acceptance suite: twelve binary criteria, one pass/fail line each.

Every numeric target is pinned.  Oracle provenance:
- frozen quadrature value of the boundary constant, cross-validated against
  an independent direct tensor quadrature with Richardson extrapolation;
- deterministic Robin semigroup for Monte Carlo means;
- exact drifted-Brownian sampler and self-normalized importance sampling for
  stationary marginals;
- closed-form Gaussian covariance for the reference pCN chain.
"""

import json
import sys
import time

import numpy as np
import pytest

TOL = {
    "golden_seconds": 1.0,
    "constants_seconds": 1.0,
    "neumann_vs_spectral": 1e-8,
    "neumann_mass": 1e-8,
    "neumann_seconds": 10.0,
    "robin_reduction": 1e-4,
    "constant_a_stability": 1e-6,
    "constant_a_value": 1e-6,
    "mean_field_sigmas": 3.0,
    "ks_alpha_bonferroni": 0.01 / 4,
    "moment_sigmas": 3.0,
    "cov_sigmas": 3.0,
    "acceptance_low": 0.05,
    "acceptance_high": 0.95,
}

CONSTANT_A_FROZEN = -0.02742750513831


def report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:2d}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


class TestAlgebra:
    def test_criterion_01_golden_tables(self):
        from openkpz.treealg import verify_golden_tables

        start = time.perf_counter()
        rep = verify_golden_tables()
        elapsed = time.perf_counter() - start
        ok = rep.all_passed and elapsed < TOL["golden_seconds"]
        report(1, "golden tables, structure-group laws and renormalization constants exact",
               ok, f"{len(rep.mismatches)} mismatches over {rep.rows_checked} elements, "
               f"{elapsed:.2f}s")

    def test_criterion_02_renorm_constants(self):
        import sympy

        from openkpz.treealg import renorm_constants
        from openkpz.treealg.combination import SYMBOLS

        s = {name: sympy.Symbol(name) for name in SYMBOLS}
        start = time.perf_counter()
        c1, c2, c3 = renorm_constants()
        elapsed = time.perf_counter() - start
        want = (
            s["C0"],
            2 * s["C0"],
            sympy.Rational(1, 4) * s["C2"] + sympy.Rational(1, 2) * s["C3"]
            + 2 * s["a10"] * s["C0"] + s["C1"],
        )
        exact = all(sympy.expand(sympy.sympify(str(g)) - w) == 0
                    for g, w in zip((c1, c2, c3), want))
        ok = exact and elapsed < TOL["constants_seconds"]
        report(2, "renormalization constants extracted symbolically",
               ok, f"({c1}, {c2}, {c3}), {elapsed:.2f}s")

    def test_criterion_03_truncated_nonlinearity(self):
        import sympy

        from openkpz.treealg import basis_tree, picard_dW, q_leq0_nonlinearity
        from openkpz.treealg.combination import SYMBOLS
        from openkpz.treealg.trees import ONE

        s = {name: sympy.Symbol(name) for name in SYMBOLS}
        q = q_leq0_nonlinearity(picard_dW())
        want = {
            basis_tree("<2d>"): sympy.Integer(1),
            basis_tree("<2d2d>"): sympy.Integer(1),
            basis_tree("<1d>"): 2 * s["wtilde"],
            basis_tree("<1d2d>"): 2 * s["a10"] + s["wtilde"],
            basis_tree("<2d1d>"): s["wtilde"],
            basis_tree("<tree1>"): sympy.Rational(1, 2),
            basis_tree("<tree2>"): sympy.Rational(1, 4),
            ONE: s["wtilde"] ** 2,
        }
        got = {t: sympy.sympify(str(c)) for t, c in q.items()}
        ok = len(got) == 8 and set(got) == set(want)
        exact = ok and all(sympy.expand(got[t] - want[t]) == 0 for t in want)
        report(3, "degree <= 0 nonlinearity has the eight expected diagrams",
               ok and exact, f"{len(got)} terms")

    def test_criterion_04_sector_exponents(self):
        from fractions import Fraction as F

        from openkpz.treealg import ExactDegree, sector_table

        def d(rational, kappa):
            return ExactDegree(F(rational), F(kappa))

        want = {
            "gamma": d("3/2", 1), "eta": d(0, 1), "sigma": d("1/2", 2),
            "eta_0": d(-2, 2), "sigma_0": d(-1, 4), "mu_0": d(-2, 2),
            "eta_1": d("-3/2", 0), "sigma_1": d(-1, 1), "mu_1": d("-3/2", 0),
            "eta_2": d(-1, -2), "sigma_2": d(-1, -2), "mu_2": d(-1, -2),
            "eta_3": d(-1, 1), "sigma_3": d("-1/2", 2), "mu_3": d(-1, 1),
            "eta_4": d("-1/2", -1), "sigma_4": d("-1/2", -1), "mu_4": d("-1/2", -1),
            "eta_5": d(0, 0), "sigma_5": d(0, 0), "mu_5": d(0, 0),
        }
        table = sector_table()
        mism = [k for k, v in want.items() if table[k] != v]
        gammas = [table[f"gamma_{i}"] == d(0, 1) for i in range(6)]
        ok = not mism and all(gammas)
        report(4, "sector exponents (gamma, eta, sigma, mu) all exact",
               ok, f"{len(want) - len(mism)}/{len(want)} pinned values"
               + (f", mismatches {mism}" if mism else ""))


class TestKernels:
    def test_criterion_05_neumann_two_routes(self):
        from openkpz import kernels

        xs = np.linspace(0.0, 1.0, 33)
        start = time.perf_counter()
        worst = 0.0
        worst_mass = 0.0
        for t in (0.05, 0.1, 0.5, 1.0):
            img, tail = kernels.neumann_kernel(t, xs[:, None], xs[None, :])
            spec = kernels.neumann_kernel_spectral(t, xs[:, None], xs[None, :])
            worst = max(worst, float(np.max(np.abs(img - spec))))
            worst_mass = max(
                worst_mass, float(np.max(np.abs(np.trapezoid(img, xs, axis=1) - 1.0)))
            )
        elapsed = time.perf_counter() - start
        ok = (worst < TOL["neumann_vs_spectral"]
              and worst_mass < TOL["neumann_mass"]
              and elapsed < TOL["neumann_seconds"])
        report(5, "Neumann kernel: images vs spectral series and mass conservation",
               ok, f"max dev {worst:.2e}, mass err {worst_mass:.2e}, {elapsed:.1f}s")

    def test_criterion_06_robin_reduces_to_neumann(self):
        from openkpz import kernels

        n, t = 256, 0.1
        xs = np.linspace(0.0, 1.0, n + 1)
        robin = kernels.robin_kernel(t, 0.5, 0.5, n=n)
        neu, _ = kernels.neumann_kernel(t, xs[:, None], xs[None, :])
        err = float(np.max(np.abs(robin - neu)))
        ok = err < TOL["robin_reduction"]
        report(6, "Robin kernel at u=v=1/2 reduces to the Neumann kernel",
               ok, f"sup error {err:.2e} at dx=1/256, t=0.1")

    def test_criterion_07_boundary_constant(self):
        from openkpz import kernels

        coarse, _ = kernels.constant_a(kernels.Mollifier(1.0, 1.0), n=128)
        fine, err = kernels.constant_a(kernels.Mollifier(1.0, 1.0), n=256)
        drift = abs(fine - coarse)
        gap = abs(fine - CONSTANT_A_FROZEN)
        ok = drift < TOL["constant_a_stability"] and gap < TOL["constant_a_value"]
        report(7, "boundary constant a stable in resolution and on its frozen value",
               ok, f"a={fine:.12f}, drift {drift:.1e}, oracle gap {gap:.1e}")


class TestSolver:
    def test_criterion_08_mean_field(self):
        from openkpz import shesolver

        dx = 1.0 / 64
        params = shesolver.BoundaryParams(1.0, 0.0)
        dt = 0.5 * dx**2
        times = [round(t / dt) * dt for t in (0.1, 0.5, 1.0)]
        cfg = shesolver.SimConfig(dx=dx, t_final=times[-1], n_paths=2000,
                                  seed=0, save_times=tuple(times))
        res = shesolver.simulate_she(np.ones(cfg.n + 1), params, cfg)
        cols = [0, cfg.n // 2, cfg.n]
        worst_z = 0.0
        for t in times:
            z = res.valid(t)
            oracle = shesolver.robin_semigroup_apply(
                np.ones(cfg.n + 1), params, dx, t
            )
            mean = z.mean(axis=0)[cols]
            se = z.std(axis=0, ddof=1)[cols] / np.sqrt(len(z))
            worst_z = max(worst_z, float(np.max(np.abs(mean - oracle[cols]) / se)))
        ok = worst_z < TOL["mean_field_sigmas"]
        report(8, "Monte Carlo mean field matches the Robin semigroup",
               ok, f"worst |z|={worst_z:.2f} over 9 (t,x) cells, "
               f"excl. rate {res.exclusion_rate:.3f}")

    def test_criterion_09_stationarity_with_control(self):
        from openkpz import harness

        from openkpz.stationary import sample_bm_drift

        wrong_ref = sample_bm_drift(2.5, 1.0 / 64, 1000, seed=99)
        # one evolved ensemble, KS-tested against the true and the wrong law
        rep, control = harness.stationarity_experiment(
            0.5, -0.5, n_samples=1000, t_final=1.0, dx=1.0 / 64, seed=0,
            wrong_laws={"wrong-law control": wrong_ref},
        )
        p_vals = rep.statistics["p_values"]
        ok = rep.passed and not control.passed
        detail = ("p=" + "/".join(f"{v:.3f}" for v in p_vals.values())
                  + f" vs threshold {TOL['ks_alpha_bonferroni']:.4f}; control "
                  + ("rejected" if not control.passed else "NOT rejected"))
        report(9, "time-1 marginals pass KS stationarity, wrong-law control fails",
               ok, detail)

    def test_criterion_10_three_route_moments(self):
        from openkpz import harness, shesolver, stationary

        dx = 1.0 / 64
        cols = [32, 64]  # x = 1/2, 1

        cfg = stationary.McmcConfig(rho=0.5, burn_in=2000, thinning=10,
                                    n_samples=2000, seed=10)
        mcmc = stationary.sample_stationary_mcmc(1.0, 1.0, cfg, dx=dx)
        m_mean = mcmc.samples[:, cols].mean(axis=0)
        m_var = mcmc.samples[:, cols].var(axis=0, ddof=1)
        m_mean_se = np.array([harness.batch_means_se(mcmc.samples[:, c])
                              for c in cols])
        m_var_se = np.array([
            harness.batch_means_se((mcmc.samples[:, c] - m_mean[i]) ** 2)
            for i, c in enumerate(cols)
        ])

        iw = stationary.importance_sampling_moments(
            1.0, 1.0, dx, 300000, seed=11, x_indices=cols
        )

        init_cfg = stationary.McmcConfig(rho=0.5, burn_in=2000, thinning=10,
                                         n_samples=1000, seed=12)
        init = stationary.sample_stationary_mcmc(1.0, 1.0, init_cfg, dx=dx)
        sim = shesolver.SimConfig(dx=dx, t_final=1.0, n_paths=1000, seed=13)
        res = shesolver.simulate_she(
            np.exp(init.samples), shesolver.BoundaryParams(1.0, 1.0), sim
        )
        h = shesolver.anchor(shesolver.hopf_cole(res.valid(1.0)))[:, cols]
        s_mean = h.mean(axis=0)
        s_var = h.var(axis=0, ddof=1)
        s_mean_se = h.std(axis=0, ddof=1) / np.sqrt(len(h))
        s_var_se = ((h - s_mean) ** 2).std(axis=0, ddof=1) / np.sqrt(len(h))

        def sig(a, b, sa, sb):
            return float(np.max(np.abs(a - b) / np.sqrt(sa**2 + sb**2)))

        gaps = {
            "mcmc-vs-is": max(sig(m_mean, iw["mean"], m_mean_se, iw["mean_se"]),
                              sig(m_var, iw["var"], m_var_se, iw["var_se"])),
            "spde-vs-is": max(sig(s_mean, iw["mean"], s_mean_se, iw["mean_se"]),
                              sig(s_var, iw["var"], s_var_se, iw["var_se"])),
            "mcmc-vs-spde": max(sig(m_mean, s_mean, m_mean_se, s_mean_se),
                                sig(m_var, s_var, m_var_se, s_var_se)),
        }
        worst = max(gaps.values())
        ok = worst < TOL["moment_sigmas"]
        report(10, "u=v=1 stationary moments agree across MCMC, IS, and SPDE routes",
               ok, ", ".join(f"{k} {v:.2f} sigma" for k, v in gaps.items())
               + f"; IS ESS {iw['ess']:.0f}, max weight {iw['max_weight']:.2e}")

    def test_criterion_11_pcn_reference_covariance(self, monkeypatch):
        from openkpz import harness, stationary

        dx = 1.0 / 16
        cfg = stationary.McmcConfig(rho=0.5, burn_in=1000, thinning=5,
                                    n_samples=6000, seed=20)
        # a zero weight: the chain targets the reference Gaussian itself
        with monkeypatch.context() as patch:
            patch.setattr(stationary, "rn_log_weight", lambda beta, u, v, dx: 0.0)
            ref = stationary.sample_stationary_mcmc(1.0, 1.0, cfg, dx=dx)
        beta = ref.beta_samples
        idx = [0, 4, 8, 12, 16]
        x = np.linspace(0, 1, 17)[idx]
        want = np.minimum(x[:, None], x[None, :]) / 2.0
        worst = 0.0
        for i, a in enumerate(idx):
            for j, b in enumerate(idx):
                series = beta[:, a] * beta[:, b]
                se = harness.batch_means_se(series)
                if se == 0.0:
                    ok_entry = abs(series.mean() - want[i, j]) < 1e-12
                    worst = max(worst, 0.0 if ok_entry else np.inf)
                    continue
                worst = max(worst, abs(series.mean() - want[i, j]) / se)
        weighted = stationary.sample_stationary_mcmc(
            1.0, 1.0,
            stationary.McmcConfig(rho=0.5, burn_in=500, thinning=5,
                                  n_samples=400, seed=21),
            dx=dx,
        )
        acc_ok = TOL["acceptance_low"] < weighted.acceptance_rate < TOL["acceptance_high"]
        ok = worst < TOL["cov_sigmas"] and ref.acceptance_rate == 1.0 and acc_ok
        report(11, "pCN reference covariance min(x,y)/2 and healthy acceptance",
               ok, f"worst cov dev {worst:.2f} sigma on 5x5 grid, weighted "
               f"acceptance {weighted.acceptance_rate:.2f}")

    def test_criterion_12_reproducible_artifacts(self, tmp_path):
        from openkpz.cli import main

        base = ["experiment", "stationarity", "--u", "0.5", "--v", "-0.5",
                "--seed", "7", "--n-samples", "200", "--t-final", "0.125",
                "--dx", "0.03125"]
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            assert main(["--out-dir", str(d)] + base) == 0
            assert main(["--out-dir", str(d), "constant-a", "--cells", "64"]) == 0
            outs.append(d)
        names = ("experiment_stationarity.json", "experiment_stationarity.csv",
                 "constant_a.json")
        same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                   for n in names)
        payload = json.loads((outs[0] / "experiment_stationarity.json").read_text())
        embeds = payload["config"]["seed"] == 7
        ok = same and embeds
        report(12, "CLI rerun with fixed seed yields byte-identical artifacts",
               ok, f"{len(names)} artifacts compared")
