"""Unit tests for the stationary-measure samplers."""

import hashlib
import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from openkpz import stationary, streams
from openkpz.stationary import (
    BLOCK_ROWS,
    McmcConfig,
    McmcResult,
    RegimeError,
    check_regime,
    estimate_normalization,
    importance_sampling_moments,
    rn_log_weight,
    sample_bm_drift,
    sample_stationary_mcmc,
)


class TestRegime:
    def test_accepts_interior(self):
        check_regime(1.0, 1.0)
        check_regime(2.0, -0.5)

    def test_rejects_nonpositive_sum(self):
        # u + v = 0 is served by the exact drifted-Brownian sampler instead.
        with pytest.raises(RegimeError, match=r"u \+ v = 0 is sample_bm_drift's") as caught:
            check_regime(0.5, -0.5)
        assert "need u + v > 0, min(u, v) > -1" in str(caught.value)
        with pytest.raises(RegimeError, match=r"need u \+ v > 0") as caught:
            check_regime(0.5, -0.7)
        assert "sample_bm_drift" not in str(caught.value)

    def test_rejects_slope_below_minus_one(self):
        with pytest.raises(RegimeError):
            check_regime(-1.2, 3.0)


class TestBmDrift:
    def test_moments(self):
        dx = 1.0 / 64
        h = sample_bm_drift(0.5, dx, 20000, seed=0)
        assert h.shape == (20000, 65)
        assert np.allclose(h[:, 0], 0.0)
        # h(1) ~ N(u, 1): the half-variance ingredients W and beta add up
        assert abs(h[:, -1].mean() - 0.5) < 0.03
        assert abs(h[:, -1].var() - 1.0) < 0.03

    def test_deterministic(self):
        a = sample_bm_drift(0.1, 1.0 / 16, 10, seed=4)
        b = sample_bm_drift(0.1, 1.0 / 16, 10, seed=4)
        assert np.array_equal(a, b)


class TestRnWeight:
    def test_linear_path_closed_form(self):
        # beta(x) = x: log weight = -2v - (u+v) log((1 - e^{-2})/2)
        dx = 1.0 / 4096
        x = np.arange(0, 1 + dx / 2, dx)
        beta = x[None, :]
        u, v = 1.0, 2.0
        got = rn_log_weight(beta, u, v, dx)[0]
        want = -2 * v - (u + v) * np.log((1 - np.exp(-2.0)) / 2.0)
        assert abs(got - want) < 1e-5

    def test_zero_path(self):
        dx = 1.0 / 64
        beta = np.zeros((1, 65))
        assert abs(rn_log_weight(beta, 1.0, 1.0, dx)[0]) < 1e-12

    @pytest.mark.parametrize("shape", [(65,), (7, 65), (3, 17)])
    def test_bitwise_equal_to_trapezoid(self, shape):
        beta = np.random.default_rng(5).normal(0.0, 0.3, size=shape)
        u, v, dx = 0.5, 1.5, 1.0 / (shape[-1] - 1)
        integral = np.trapezoid(np.exp(-2.0 * beta), dx=dx, axis=-1)
        want = -2.0 * v * beta[..., -1] - (u + v) * np.log(integral)
        assert np.asarray(rn_log_weight(beta, u, v, dx)).tobytes() == want.tobytes()


def _one_step_at_a_time(u, v, cfg, dx):
    """The pCN chain's reference: each step draws its proposal's normals on the
    proposal stream and one uniform on the acceptance stream, and weighs the
    proposal once; W comes from a third stream of the seed."""
    n = round(1 / dx)
    rng = streams.stream(cfg.seed, streams.PCN_PROPOSALS)
    accept = streams.stream(cfg.seed, streams.PCN_ACCEPT)

    def brownian_half(rows, rng):
        out = np.zeros((rows, n + 1))
        out[:, 1:] = np.cumsum(rng.standard_normal((rows, n)) * np.sqrt(dx / 2.0), axis=1)
        return out

    beta = brownian_half(1, rng)[0]
    logw = float(stationary.rn_log_weight(beta, u, v, dx))
    accepted, series, kept = 0, [], []
    for step in range(cfg.chain_length):
        xi = np.zeros(n + 1)
        xi[1:] = np.cumsum(rng.standard_normal(n) * np.sqrt(dx / 2.0)) * cfg.rho
        proposal = np.sqrt(1.0 - cfg.rho**2) * beta + xi
        proposal_logw = float(stationary.rn_log_weight(proposal, u, v, dx))
        if np.log(accept.random()) < proposal_logw - logw:
            beta, logw = proposal, proposal_logw
            accepted += 1
        series.append(logw)
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thinning == 0:
            kept.append(beta)
    beta_samples = np.array(kept)
    w_fresh = brownian_half(cfg.n_samples, streams.stream(cfg.seed, streams.PCN_FRESH_W))
    return McmcResult(w_fresh + beta_samples, beta_samples,
                      accepted / cfg.chain_length,
                      stationary._integrated_autocorr(np.array(series[cfg.burn_in:])), cfg)


def _chain_digests(res):
    return tuple(hashlib.sha256(np.float64(getattr(res, name)).tobytes()).hexdigest()
                 for name in ("samples", "beta_samples", "acceptance_rate", "autocorr_time"))


class TestMcmc:
    def test_zero_exponents_reference_covariance(self, monkeypatch):
        # With the density switched off the chain targets the variance-1/2
        # Brownian prior for beta.
        monkeypatch.setattr(stationary, "rn_log_weight", lambda beta, u, v, dx: 0.0)
        cfg = McmcConfig(rho=0.5, burn_in=500, thinning=5, n_samples=4000, seed=0)
        res = sample_stationary_mcmc(1.0, 1.0, cfg, dx=1.0 / 16)
        assert res.acceptance_rate == 1.0
        beta = res.beta_samples
        x = np.linspace(0, 1, beta.shape[1])
        emp = (beta[:, :, None] * beta[:, None, :]).mean(axis=0)
        want = np.minimum(x[:, None], x[None, :]) / 2.0
        assert np.max(np.abs(emp - want)) < 0.05

    def test_weighted_chain_mixes(self):
        cfg = McmcConfig(rho=0.5, burn_in=500, thinning=5, n_samples=500, seed=1)
        res = sample_stationary_mcmc(1.0, 1.0, cfg, dx=1.0 / 32)
        assert 0.05 < res.acceptance_rate < 0.95
        assert res.samples.shape == (500, 33)
        assert np.allclose(res.samples[:, 0], 0.0)

    def test_deterministic(self):
        cfg = McmcConfig(rho=0.5, burn_in=100, thinning=2, n_samples=50, seed=9)
        a = sample_stationary_mcmc(1.0, 1.0, cfg, dx=1.0 / 16)
        b = sample_stationary_mcmc(1.0, 1.0, cfg, dx=1.0 / 16)
        assert np.array_equal(a.samples, b.samples)

    # SHA-256 of samples, beta_samples, acceptance_rate and autocorr_time as
    # float64 bytes, as _one_step_at_a_time gave them (numpy 2.4, x86-64): block
    # draws of the proposal noise and of the uniforms must give every bit.  No
    # pinned value passes through BLAS, so no OpenBLAS kernel choice moves them.
    PINNED = {
        False: ("16e98af2ea21d3b66a95a8d822d3dd1d2f814caa2dc3503e10d1aaaedf982689",
                "ca511ea71bb8a6b655fabcd6db60f62caf37970fb3a602e6c0ca776a61fb964e",
                "c2edb40633612b356dbab79b8e4e4858e1744a695a9d9d1ce815670af93ba712",
                "d84d739f03a7c20bb08f02d09c8e9defdcdb4959aaa13af566451ac9cf16e530"),
        True: ("3070ddc9ab7a50b1c19433676f1930707340f7de50e3edf6a8893c5ad6d61b73",
               "ca4f98e81f05c23d1e8449564514a86169a78a64609a84b3e5a413719561eb8c",
               "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
               "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    }
    CHAIN = McmcConfig(rho=0.5, burn_in=100, thinning=2, n_samples=50, seed=9)

    @pytest.mark.parametrize("zero_exponents", [False, True])
    def test_chain_bytes_pinned(self, zero_exponents, monkeypatch):
        if zero_exponents:
            monkeypatch.setattr(stationary, "rn_log_weight", lambda beta, u, v, dx: 0.0)
        res = sample_stationary_mcmc(1.0, 1.0, self.CHAIN, dx=1.0 / 16)
        assert _chain_digests(res) == self.PINNED[zero_exponents]

    @pytest.mark.parametrize("zero_exponents", [False, True])
    @pytest.mark.parametrize("u, v, dx, cfg", [
        (1.0, 1.0, 1.0 / 16, CHAIN),
        # 550 steps: two full noise blocks and a partial one
        (2.0, -0.5, 1.0 / 32, McmcConfig(rho=0.3, burn_in=37, thinning=3, n_samples=171, seed=5)),
    ], ids=["one-block", "three-blocks"])
    def test_block_code_matches_one_step_at_a_time(self, u, v, dx, cfg, zero_exponents,
                                                   monkeypatch):
        if zero_exponents:
            monkeypatch.setattr(stationary, "rn_log_weight", lambda beta, u, v, dx: 0.0)
        want = _chain_digests(_one_step_at_a_time(u, v, cfg, dx))
        assert _chain_digests(sample_stationary_mcmc(u, v, cfg, dx)) == want

    @pytest.mark.parametrize("rows", [1, 7, CHAIN.chain_length + 1])
    def test_no_bit_depends_on_noise_rows(self, rows, monkeypatch):
        want = _chain_digests(sample_stationary_mcmc(1.0, 1.0, self.CHAIN, dx=1.0 / 16))
        monkeypatch.setattr(stationary, "NOISE_ROWS", rows)
        assert _chain_digests(sample_stationary_mcmc(1.0, 1.0, self.CHAIN, dx=1.0 / 16)) == want

    def test_regime_enforced(self):
        with pytest.raises(RegimeError):
            sample_stationary_mcmc(0.5, -0.7, McmcConfig(), dx=1.0 / 16)

    @pytest.mark.parametrize("acceptance, warnings", [
        (0.01, ("acceptance rate 0.010 outside (0.05, 0.95); try rho around 0.250",)),
        (0.99, ("acceptance rate 0.990 outside (0.05, 0.95); try rho around 0.900",)),
        (0.5, ()),
    ], ids=["low-halves-rho", "high-doubles-rho-capped-at-0.9", "healthy"])
    def test_warnings_suggest_a_step(self, acceptance, warnings):
        empty = np.zeros((0, 3))
        result = McmcResult(empty, empty, acceptance, 1.0, McmcConfig(rho=0.5))
        assert result.warnings() == warnings


class TestImportanceSampling:
    def test_agrees_with_mcmc_mean(self):
        dx = 1.0 / 32
        out = importance_sampling_moments(1.0, 1.0, dx, 200000, seed=0, x_indices=[16, 32])
        cfg = McmcConfig(rho=0.5, burn_in=2000, thinning=10, n_samples=2000, seed=3)
        res = sample_stationary_mcmc(1.0, 1.0, cfg, dx=dx)
        mcmc_mean = res.samples[:, [16, 32]].mean(axis=0)
        mcmc_se = res.samples[:, [16, 32]].std(axis=0) / np.sqrt(len(res.samples) / 4)
        gap = np.abs(out["mean"] - mcmc_mean)
        assert np.all(gap < 4 * np.sqrt(out["mean_se"] ** 2 + mcmc_se**2))

    def test_ess_reported(self):
        out = importance_sampling_moments(1.0, 1.0, 1.0 / 16, 5000, seed=1, x_indices=[16])
        assert 0 < out["ess"] <= 5000

    def test_max_weight_reported(self):
        out = importance_sampling_moments(1.0, 1.0, 1.0 / 16, 5000, seed=1, x_indices=[16])
        # sum w_i^2 <= max w_i for normalised weights, so 1/ess <= max_weight <= 1
        assert 1.0 / out["ess"] <= out["max_weight"] <= 1.0

    @pytest.mark.parametrize("x_indices, named", [([-1], "-1"), ([4, 17], "17"),
                                                  ([2.5], "2.5"), ([True], "True"),
                                                  ([], "empty")])
    def test_bad_index_rejected_before_drawing(self, x_indices, named, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("made a generator before checking x_indices")

        monkeypatch.setattr(stationary.np.random, "default_rng", forbidden)
        with pytest.raises(ValueError, match=named):
            importance_sampling_moments(1.0, 1.0, 1.0 / 16, 5000, seed=1, x_indices=x_indices)

    def test_w_drawn_only_at_the_points(self, monkeypatch):
        # beta takes N n normals and W N k, for k distinct points; nothing else is drawn
        dx, n_samples = 1.0 / 16, 2 * BLOCK_ROWS + 1
        drawn = _count_normals(monkeypatch)
        for x_indices in ([16], [16, 8, 16]):
            drawn.clear()
            importance_sampling_moments(1.0, 1.0, dx, n_samples, seed=1, x_indices=x_indices)
            assert sum(drawn) == n_samples * 16 + n_samples * len(set(x_indices)), x_indices
        drawn.clear()
        estimate_normalization(1.0, 1.0, dx, n_samples, seed=1)
        assert sum(drawn) == n_samples * 16


def _count_normals(monkeypatch) -> list:
    """Make the stationary module's generators log the size of every normal draw."""
    drawn = []

    class Counting(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            out = super().standard_normal(*args, **kwargs)
            drawn.append(np.size(out))
            return out

        def normal(self, *args, **kwargs):
            out = super().normal(*args, **kwargs)
            drawn.append(np.size(out))
            return out

    monkeypatch.setattr(stationary.np.random, "default_rng",
                        lambda seed: Counting(np.random.PCG64(seed)))
    return drawn


class TestBrownianAtPoints:
    def test_covariance_at_unsorted_repeated_points(self):
        # W(x_i) for x = j dx: Cov = min(x_i, x_j) / 2.  Each empirical second
        # moment has standard error at most sqrt(2 / 4) / sqrt(n) = 0.0016; 0.01 is 6 of those.
        dx, n = 1.0 / 16, 200_000
        indices = np.array([16, 0, 5, 16])
        values = np.zeros((n, 4))
        stationary._add_brownian_half_at(values, dx, np.random.default_rng(3), indices)
        assert np.all(values[:, 1] == 0.0)
        assert np.array_equal(values[:, 0], values[:, 3])
        x = indices * dx
        want = np.minimum(x[:, None], x[None, :]) / 2.0
        emp = values.T @ values / n
        assert np.max(np.abs(emp - want)) < 0.01
        assert np.max(np.abs(values.mean(axis=0))) < 0.01


def _full_draw_reference(u, v, dx, n_samples, seed, x_indices):
    """The oracles as full-size draws: every beta path held at once, W at the points."""
    def brownian_half(n, rng):
        out = np.zeros((n, round(1 / dx) + 1))
        np.cumsum(rng.normal(0.0, np.sqrt(dx / 2.0), size=(n, round(1 / dx))), axis=1,
                  out=out[:, 1:])
        return out

    def log_weight(beta):
        integral = np.trapezoid(np.exp(-2.0 * beta), dx=dx, axis=-1)
        return -2.0 * v * beta[..., -1] - (u + v) * np.log(integral)

    beta = brownian_half(n_samples, streams.stream(seed, streams.REFERENCE_BETA))
    # W only at the distinct sorted points: independent increments over the gaps
    points = sorted(set(x_indices))
    gaps = np.diff([0] + points)
    w = streams.stream(seed, streams.REFERENCE_W)
    w_points = np.cumsum(w.normal(0.0, np.sqrt(gaps * dx / 2.0), size=(n_samples, len(points))),
                         axis=1)
    h = beta[:, list(x_indices)] + w_points[:, [points.index(j) for j in x_indices]]
    logw = log_weight(beta)
    logw -= logw.max()
    weights = np.exp(logw)
    weights /= weights.sum()
    ess = 1.0 / float(np.sum(weights**2))
    mean = weights @ h
    var = weights @ (h - mean) ** 2
    moments = {
        "mean": mean,
        "var": var,
        "mean_se": np.sqrt(weights @ (h - mean) ** 2 / ess),
        "var_se": np.sqrt(weights @ ((h - mean) ** 2 - var) ** 2 / ess),
        "ess": ess,
        "max_weight": float(weights.max()),
    }
    # the normalization draws the same beta paths, on a fresh generator of their stream
    z_weights = np.exp(log_weight(brownian_half(n_samples,
                                                streams.stream(seed, streams.REFERENCE_BETA))))
    z = (float(z_weights.mean()), float(z_weights.std(ddof=1) / np.sqrt(n_samples)))
    return moments, z


class TestStreamedOracles:
    """Row-block beta draws and W at the points give the full-size draw's numbers, bit for bit."""

    @pytest.mark.parametrize("n_samples", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                           2 * BLOCK_ROWS + 5, 4 * BLOCK_ROWS + 3])
    @pytest.mark.parametrize("u, v, dx, x_indices", [(1.0, 1.0, 1.0 / 16, [0, 8, 16]),
                                                     (2.0, -0.5, 1.0 / 32, np.array([32, 5, 32]))])
    def test_bitwise_equal_to_full_draw(self, n_samples, u, v, dx, x_indices):
        seed = 40 + n_samples
        want, want_z = _full_draw_reference(u, v, dx, n_samples, seed, x_indices)
        got = importance_sampling_moments(u, v, dx, n_samples, seed, x_indices)
        assert set(got) == set(want)
        for key in want:
            assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key
        got_z = estimate_normalization(u, v, dx, n_samples, seed)
        assert np.asarray(got_z).tobytes() == np.asarray(want_z).tobytes()

    def test_bitwise_equal_under_thread_contention(self, monkeypatch):
        # 7-row blocks, a 1-us switch interval and four oracles at once (eight threads
        # on fewer cores): many buffer handovers, and still a full draw's bits
        monkeypatch.setattr(stationary, "BLOCK_ROWS", 7)
        cases = [(1.0, 1.0, 1.0 / 16, 200 + i, 60 + i, [0, 8, 16]) for i in range(4)]
        got = {}

        def run(i):
            got[i] = importance_sampling_moments(*cases[i]), estimate_normalization(*cases[i][:5])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, case in enumerate(cases):
            want, want_z = _full_draw_reference(*case)
            moments, z = got[i]
            for key in want:
                assert np.asarray(moments[key]).tobytes() == np.asarray(want[key]).tobytes()
            assert np.asarray(z).tobytes() == np.asarray(want_z).tobytes()

    @pytest.mark.parametrize("side", ["caller", "helper"])
    def test_a_failing_stage_stops_the_pass(self, side, monkeypatch):
        # an exception on either thread reaches the caller, and the helper is joined
        calls = []

        def fail_on_third(function):
            def wrapper(*args, **kwargs):
                calls.append(None)
                if len(calls) == 3:
                    raise FloatingPointError("stage failed")
                return function(*args, **kwargs)
            return wrapper

        if side == "caller":
            monkeypatch.setattr(stationary, "rn_log_weight", fail_on_third(rn_log_weight))
        else:
            class Failing(np.random.Generator):
                standard_normal = fail_on_third(np.random.Generator.standard_normal)

            monkeypatch.setattr(stationary.np.random, "default_rng",
                                lambda seed: Failing(np.random.PCG64(seed)))
        before = threading.active_count()
        outcome = []

        def call():
            with pytest.raises(FloatingPointError, match="stage failed"):
                importance_sampling_moments(1.0, 1.0, 1.0 / 16, 6 * BLOCK_ROWS, 0, [16])
            outcome.append(threading.active_count())

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and outcome == [before + 1]

    @pytest.mark.parametrize("n_samples", [1, 0, -3])
    def test_degenerate_sample_count_rejected_before_drawing(self, n_samples, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("made a generator before checking n_samples")

        monkeypatch.setattr(stationary.np.random, "default_rng", forbidden)
        with pytest.raises(ValueError, match=f"n_samples = {n_samples}"):
            estimate_normalization(1.0, 1.0, 1.0 / 16, n_samples, seed=0)
        with pytest.raises(ValueError, match=f"n_samples = {n_samples}"):
            importance_sampling_moments(1.0, 1.0, 1.0 / 16, n_samples, seed=0, x_indices=[16])

    # SHA-256 of the float64 bytes of the moments (mean, var, mean_se, var_se,
    # ess, max_weight in turn) and of (estimate, se), as _full_draw_reference
    # gave them (numpy 2.4, x86-64): the helper-thread pipeline must give every
    # bit whatever the scheduling.
    PINNED_IS = "c025f9d7f776c9586687cf3a3cc55165cf2934959d390159610a96d0b2d7fde2"
    PINNED_Z = "a0925e8bff269816baa1e2c46d1eba2b94ccf72e96b4494048da67283adf11c9"

    def test_oracle_bytes_pinned(self):
        moments = importance_sampling_moments(1.0, 1.0, 1.0 / 64, 300_000, 7, [32, 64])
        digest = hashlib.sha256()
        for key in ("mean", "var", "mean_se", "var_se", "ess", "max_weight"):
            digest.update(np.float64(moments[key]).tobytes())
        assert digest.hexdigest() == self.PINNED_IS
        z = estimate_normalization(1.0, 1.0, 1.0 / 64, 20_000, 7)
        assert hashlib.sha256(np.float64(z).tobytes()).hexdigest() == self.PINNED_Z

    def test_public_functions_run_on_the_calling_thread(self, monkeypatch):
        # the helper thread only draws: the weights and every public call stay here
        threads = {}

        def recorded(name, function):
            def wrapper(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.get_ident())
                return function(*args, **kwargs)
            return wrapper

        for name, obj in list(vars(stationary).items()):
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == stationary.__name__):
                monkeypatch.setattr(stationary, name, recorded(name, obj))
        importance_sampling_moments(1.0, 1.0, 1.0 / 16, 3 * BLOCK_ROWS + 1, 2, [8, 16])
        estimate_normalization(1.0, 1.0, 1.0 / 16, 3 * BLOCK_ROWS + 1, 2)
        assert {"rn_log_weight", "check_regime"} <= set(threads)
        assert all(ids == {threading.get_ident()} for ids in threads.values()), threads

    def test_memory_bounded_by_blocks(self):
        # 100 000 paths at dx = 1/64: a full-size draw peaks near 150-200 MB
        for call in (lambda: importance_sampling_moments(1.0, 1.0, 1.0 / 64, 100_000, seed=0,
                                                         x_indices=[32, 64]),
                     lambda: estimate_normalization(1.0, 1.0, 1.0 / 64, 100_000, seed=0)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, peak / 2**20


class TestNormalizationOverflow:
    @pytest.mark.parametrize("u", [200.0, 400.0])  # se = inf, then (inf, nan)
    def test_nonfinite_estimate_is_numerical_failure(self, u):
        with pytest.raises(RuntimeError, match=rf"u \+ v = {2 * u}"):
            estimate_normalization(u, u, 1.0 / 16, 1000, 0)
