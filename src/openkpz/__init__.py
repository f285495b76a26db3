"""Laboratory for the KPZ equation on [0,1] with Neumann-type boundaries.

Subpackages/modules:

- ``treealg``: exact symbolic engine for the tree algebra of the equation's
  regularity structure (degrees, coproduct, structure group, renormalization).
- ``grid``: the space and time grids shared by every numerical module.
- ``kernels``: heat kernels on the line and on [0,1] (Neumann via images,
  Robin via a discrete semigroup) and the boundary renormalization constant.
- ``streams``: the one rule from (seed, consumer, index) to a random stream.
- ``shesolver``: Monte Carlo solver for the multiplicative stochastic heat
  equation with Robin boundaries, plus the Hopf-Cole map.
- ``stationary``: samplers for the stationary measure (exact Brownian case,
  pCN chain), its Monte Carlo normalisation, importance-sampling oracles.
- ``harness``: reproducible statistical experiments (stationarity, ergodic
  averages, noise-coupling decay).
- ``cli``: command line entry point.
"""

__version__ = "0.1.0"
