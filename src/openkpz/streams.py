"""Every random draw is stream(seed, consumer, *index): numpy's SeedSequence(seed,
spawn_key=(consumer, *index)).  Codes never change: they are part of what a seed means."""

from __future__ import annotations  # np.random.Generator unevaluated: numpy.random loads lazily

import numpy as np

SHE_NOISE, BM_DRIFT, PCN_PROPOSALS, PCN_ACCEPT, PCN_FRESH_W, REFERENCE_BETA, REFERENCE_W = range(7)


def stream(seed: int, consumer: int, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(consumer, *index)))
