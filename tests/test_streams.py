"""One seed, independent streams: no two consumers, indices or seeds share normals."""

import itertools

import numpy as np
import pytest

from openkpz import shesolver, streams
from openkpz.shesolver import BoundaryParams, SimConfig, simulate_she
from openkpz.stationary import sample_bm_drift

# What a fixed seed means: a code, once given, is never renumbered.
CODES = {"SHE_NOISE": 0, "BM_DRIFT": 1, "PCN_PROPOSALS": 2, "PCN_ACCEPT": 3, "PCN_FRESH_W": 4,
         "REFERENCE_BETA": 5, "REFERENCE_W": 6}


def test_consumer_codes_are_fixed():
    assert {name: code for name, code in vars(streams).items() if name.isupper()} == CODES


def test_every_seed_consumer_and_index_has_its_own_stream():
    keys = list(itertools.product(range(10), CODES.values(), [(), (0,), (1,)]))
    firsts = {tuple(streams.stream(seed, code, *index).standard_normal(4))
              for seed, code, index in keys}
    assert len(firsts) == len(keys)


def _she_first_step_normals(seed, dx, monkeypatch):
    """The normals of the SHE's first step on one path from Z = 1, read off its factor."""
    captured = []
    step = shesolver._TridiagonalStep.__call__

    def recording(self, y, factor):
        captured.append((factor - 2.0) / np.sqrt(0.5 * dx))  # factor = 2 + eta sqrt(dt/dx)
        return step(self, y, factor)

    monkeypatch.setattr(shesolver._TridiagonalStep, "__call__", recording)
    cfg = SimConfig(dx=dx, t_final=0.5 * dx * dx, n_paths=1, seed=seed)
    simulate_she(np.ones(cfg.n + 1), BoundaryParams(0.5, -0.5), cfg)
    (eta,) = captured
    return eta[0]


@pytest.mark.parametrize("seed", [0, 7])
def test_she_noise_is_not_the_drifted_brownian_sampler(seed, monkeypatch):
    # at u + v = 0 `simulate` and `sample-stationary` read one seed, and the
    # harness starts the SHE from sample_bm_drift: their normals must differ
    u, dx = 0.5, 1.0 / 32
    eta = _she_first_step_normals(seed, dx, monkeypatch)
    # the positive control: eta is read right, so a mismatch below is a real one
    own = streams.stream(seed, streams.SHE_NOISE, 0).standard_normal(len(eta))
    assert np.max(np.abs(eta - own)) < 1e-12
    for other in (seed - 1, seed, seed + 1):
        if other < 0:
            continue
        increments = np.diff(sample_bm_drift(u, dx, 1, other)[0])
        standardised = (increments - u * dx) / np.sqrt(dx)
        assert not np.allclose(eta[: len(standardised)], standardised), other
