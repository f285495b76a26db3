"""The benchmark's four workloads: seeded inputs, one operation, and gates.

Each workload makes its program inputs from ``(seed, operation index)`` and
checks every answer against an oracle that does not share the code path it
checks.  An operation is one gated call of the workload's unit; ``run_op``
returns one ``Gate`` per gated call and any exact counts the benchmark
itself takes (the CLI's artifact bytes).

Statistical gates compare an estimate with its oracle in units of the
combined standard error.  The driver of a benchmark runs hundreds of
operations on seeds nobody chose, so the threshold ``Z_GATE = 6`` is set for
a per-comparison false-alarm rate near 1e-5 under the heaviest tails used
here (Student t with 19 degrees of freedom, from 20-batch batch means); a
deliberately wrong answer still misses it by far (see ``tests/``).

The program is imported inside the workloads: ``run.py`` imports this module
before the program's sources are on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

Z_GATE = 6.0
BATCHES = 20
# Boundary constant for the default mollifier: a quadrature value
# cross-validated against an independent direct tensor quadrature; the
# acceptance suite pins the same number.
CONSTANT_A_FROZEN = -0.02742750513831
CONSTANT_A_TOL = 1e-6
NEUMANN_SPECTRAL_TOL = 1e-8


@dataclass
class Gate:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class OpResult:
    gates: List[Gate]
    counts: Dict[str, float] = field(default_factory=dict)


def op_seed(seed: int, index: int) -> int:
    """Program seed of operation ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def batch_means_se(series: np.ndarray, n_batches: int = BATCHES) -> float:
    usable = (len(series) // n_batches) * n_batches
    batches = np.asarray(series[:usable], dtype=float).reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(n_batches))


def _z(estimate, oracle, se) -> float:
    z = np.abs(np.asarray(estimate, dtype=float) - np.asarray(oracle, dtype=float)) / se
    return float(np.max(np.where(np.isnan(z), np.inf, z)))


# --- ensemble -----------------------------------------------------------------


def check_mean_field(snapshots: Dict[float, np.ndarray], oracle: Dict[float, np.ndarray],
                     cols: Sequence[int]) -> Gate:
    """Monte Carlo mean within Z_GATE standard errors of the semigroup oracle."""
    worst = 0.0
    for t, z in snapshots.items():
        if len(z) < 2:
            return Gate("mean-field", False, f"{len(z)} valid paths at t={t:.6g}")
        se = z[:, cols].std(axis=0, ddof=1) / np.sqrt(len(z))
        worst = max(worst, _z(z[:, cols].mean(axis=0), oracle[t][cols], se))
    return Gate("mean-field", worst <= Z_GATE, f"worst |z|={worst:.2f}")


class Ensemble:
    name = "ensemble"
    modules = ("openkpz.shesolver",)
    layers = ("shesolver", "kernels")
    u, v = 1.0, 0.0

    def __init__(self, seed: int, tiny: bool = False, workdir: Path | None = None):
        from openkpz import shesolver

        self.seed = seed
        self.dx = 1.0 / 16 if tiny else 1.0 / 64
        self.n_paths = 64 if tiny else 1024
        n_steps = 32 if tiny else 512
        self.n = round(1.0 / self.dx)
        dt = 0.5 * self.dx**2
        self.times = tuple(k * dt for k in (n_steps // 4, n_steps // 2, n_steps))
        self.cols = [0, self.n // 2, self.n]
        self.params = shesolver.BoundaryParams(self.u, self.v)
        self.oracle = {t: shesolver.robin_semigroup_apply(np.ones(self.n + 1), self.params,
                                                          self.dx, t)
                       for t in self.times}

    def run_op(self, index: int) -> OpResult:
        from openkpz import shesolver

        cfg = shesolver.SimConfig(dx=self.dx, t_final=self.times[-1], n_paths=self.n_paths,
                                  seed=op_seed(self.seed, index), save_times=self.times)
        res = shesolver.simulate_she(np.ones(self.n + 1), self.params, cfg)
        gate = check_mean_field({t: res.valid(t) for t in self.times}, self.oracle, self.cols)
        return OpResult([gate])


# --- single path --------------------------------------------------------------


def check_ergodic(time_average: float, se_time: float, exact_mean: float) -> Gate:
    """Time average of F along the path within Z_GATE batch-means errors of E F."""
    z = _z(time_average, exact_mean, se_time) if se_time > 0 else float("inf")
    return Gate("ergodic", z <= Z_GATE, f"|z|={z:.2f}")


def check_coupling(d_initial: float, d_final: float) -> Gate:
    """One-force coupling must bring two anchored solutions closer."""
    return Gate("coupling", bool(d_final < d_initial), f"d {d_initial:.3g} -> {d_final:.3g}")


class SinglePath:
    name = "single-path"
    modules = ("openkpz.harness",)
    layers = ("shesolver", "kernels", "stationary", "harness")
    u, v = 0.5, -0.5

    def __init__(self, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.seed = seed
        self.dx = 1.0 / 8 if tiny else 1.0 / 32
        self.t_final = 2.0 if tiny else 20.0
        self.coupling_t = 0.25 if tiny else 1.0
        self.n_reference = 400 if tiny else 4000

    def coupling_starts(self, index: int) -> np.ndarray:
        """Two independent Brownian starts with h(0) = 0, shape (2, n+1)."""
        n = round(1.0 / self.dx)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index, 1]))
        out = np.zeros((2, n + 1))
        out[:, 1:] = np.cumsum(rng.normal(0.0, np.sqrt(self.dx), size=(2, n)), axis=1)
        return out

    def run_op(self, index: int) -> OpResult:
        from openkpz import harness

        seed = op_seed(self.seed, index)
        starts = self.coupling_starts(index)
        erg = harness.ergodic_average(self.u, self.v, "endpoint", t_final=self.t_final,
                                      dx=self.dx, seed=seed, n_reference=self.n_reference,
                                      sample_stride=8)
        cpl = harness.coupling_experiment(self.u, self.v, starts[0], starts[1],
                                          t_final=self.coupling_t, dx=self.dx, seed=seed)
        stats = erg.statistics
        gates = [
            # the anchored stationary field at u + v = 0 is Brownian motion
            # with drift u, so E h(1) = u exactly
            check_ergodic(stats["time_average"], stats["se_time"], self.u),
            check_coupling(cpl.statistics["d_initial"], cpl.statistics["d_final"]),
        ]
        return OpResult(gates)


# --- stationary ---------------------------------------------------------------


def effective_samples(mcmc) -> float:
    """n / tau_int of a pCN chain, capped at the number of kept samples.

    ``autocorr_time`` is measured on the post-burn-in chain in steps, which
    has ``n_samples * thinning`` states.
    """
    cfg = mcmc.config
    return min(cfg.n_samples, cfg.n_samples * cfg.thinning / mcmc.autocorr_time)


def check_moments(mcmc_samples: np.ndarray, acceptance: float, is_moments: Dict) -> Gate:
    """pCN mean and variance within Z_GATE combined errors of importance sampling."""
    mean = mcmc_samples.mean(axis=0)
    var = mcmc_samples.var(axis=0, ddof=1)
    mean_se = np.array([batch_means_se(c) for c in mcmc_samples.T])
    var_se = np.array([batch_means_se((c - m) ** 2) for c, m in zip(mcmc_samples.T, mean)])
    z = max(_z(mean, is_moments["mean"], np.hypot(mean_se, is_moments["mean_se"])),
            _z(var, is_moments["var"], np.hypot(var_se, is_moments["var_se"])))
    healthy = 0.05 < acceptance < 0.95
    return Gate("mcmc-vs-is", z <= Z_GATE and healthy,
                f"worst |z|={z:.2f}, acceptance {acceptance:.3f}")


class Stationary:
    name = "stationary"
    modules = ("openkpz.stationary",)
    layers = ("stationary",)
    u, v = 1.0, 1.0

    def __init__(self, seed: int, tiny: bool = False, workdir: Path | None = None):
        self.seed = seed
        self.dx = 1.0 / 16 if tiny else 1.0 / 64
        n = round(1.0 / self.dx)
        self.cols = [n // 2, n]
        self.mcmc = dict(rho=0.5, burn_in=200 if tiny else 2000, thinning=2 if tiny else 10,
                         n_samples=200 if tiny else 2000)
        self.n_normalization = 1000 if tiny else 20000
        self.n_is = 5000 if tiny else 300000

    def run_op(self, index: int) -> OpResult:
        from openkpz import stationary as st

        seeds = np.random.SeedSequence([self.seed, index]).generate_state(3)
        cfg = st.McmcConfig(seed=int(seeds[0]), **self.mcmc)
        mcmc = st.sample_stationary_mcmc(self.u, self.v, cfg, self.dx)
        z_est, z_se = st.estimate_normalization(self.u, self.v, self.dx,
                                                self.n_normalization, int(seeds[1]))
        moments = st.importance_sampling_moments(self.u, self.v, self.dx, self.n_is,
                                                 int(seeds[2]), x_indices=self.cols)
        gate = check_moments(mcmc.samples[:, self.cols], mcmc.acceptance_rate, moments)
        normalized = bool(np.isfinite(z_est) and z_est > 0 and z_se > 0)
        gate = Gate(gate.label, gate.ok and normalized,
                    f"{gate.detail}, normalization {z_est:.4g} +- {z_se:.2g}")
        return OpResult([gate])


# --- CLI artifacts ------------------------------------------------------------


def check_artifact(label: str, code: int, data: bytes, reference: str | None,
                   oracle=None) -> Gate:
    """Exit 0 and bytes equal to the first execution's, or (first time) the oracle."""
    if code != 0:
        return Gate(label, False, f"exit code {code}")
    digest = hashlib.sha256(data).hexdigest()
    if reference is not None:
        return Gate(label, digest == reference, "byte-identical" if digest == reference
                    else "bytes differ from the first execution")
    ok, detail = oracle(data)
    return Gate(label, ok, detail)


def _golden_oracle(data: bytes):
    text = data.decode()
    ok = "4/4 tables exact" in text and "all properties hold" in text and "MISMATCH" not in text
    return ok, "golden tables exact" if ok else "golden tables mismatch"


def _constant_a_oracle(data: bytes):
    value = json.loads(data)["value"]
    gap = abs(value - CONSTANT_A_FROZEN)
    return gap < CONSTANT_A_TOL, f"a={value:.12f}, gap {gap:.1e}"


def _kernel_table(data: bytes) -> np.ndarray:
    lines = data.decode().splitlines()[2:]  # config comment, header
    return np.array([[float(f) for f in line.split(",")[:4]] for line in lines])


def _neumann_oracle(data: bytes):
    from openkpz import kernels

    t, x, y, value = _kernel_table(data).T
    err = float(np.max(np.abs(value - kernels.neumann_kernel_spectral(t[0], x, y))))
    return err < NEUMANN_SPECTRAL_TOL, f"vs spectral series {err:.1e}"


def _robin_oracle(grid: int):
    # Robin at u = v = 1/2 is Neumann; the discrete kernel is second order,
    # 6.1e-5 from the image sum at grid 256.
    tol = 1e-4 * (256 / grid) ** 2

    def oracle(data: bytes):
        from openkpz import kernels

        t, x, y, value = _kernel_table(data).T
        err = float(np.max(np.abs(value - kernels.neumann_kernel(t[0], x, y)[0])))
        return err < tol, f"vs Neumann images {err:.1e}"

    return oracle


class CliArtifacts:
    name = "cli-artifacts"
    modules = ("openkpz.cli", "openkpz.treealg", "openkpz.kernels")
    layers = ("cli", "kernels", "treealg")

    def __init__(self, seed: int, tiny: bool = False, workdir: Path | None = None):
        grid = 128 if tiny else 256
        # A fixed order: the order changes peak memory by several per cent.
        self.commands = [
            ("verify-algebra", ["verify-algebra"], None, _golden_oracle),
            ("constant-a", ["constant-a"], "constant_a.json", _constant_a_oracle),
            ("kernel-neumann", ["kernel", "--kind", "neumann"], "kernel_neumann.csv",
             _neumann_oracle),
            ("kernel-robin", ["kernel", "--kind", "robin", "--grid", str(grid)],
             "kernel_robin.csv", _robin_oracle(grid)),
        ]
        self.cli_seed = str(op_seed(seed, 0) % 1_000_000)
        self.workdir = Path(workdir)
        self.reference: Dict[str, str] = {}

    def run_op(self, index: int) -> OpResult:
        from openkpz import cli

        out = self.workdir / f"op-{index}"
        gates, artifact_bytes = [], 0
        for label, args, artifact, oracle in self.commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--out-dir", str(out), "--seed", self.cli_seed] + args)
            data = ((out / artifact).read_bytes() if artifact and code == 0
                    else stdout.getvalue().encode())
            gate = check_artifact(label, code, data, self.reference.get(label), oracle)
            if gate.ok and label not in self.reference:
                self.reference[label] = hashlib.sha256(data).hexdigest()
            gates.append(gate)
            artifact_bytes += len(data)
        shutil.rmtree(out, ignore_errors=True)
        return OpResult(gates, {"artifact_bytes": artifact_bytes})


WORKLOADS = {w.name: w for w in (Ensemble, SinglePath, Stationary, CliArtifacts)}
