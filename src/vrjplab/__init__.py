"""Simulation and verification lab for the 1-D reinforced-walk random operator.

Modules
-------
stochastic       seedable streams, elementary samplers, reference CDFs
beta_field       the random potential on circle and half-line, its measure
green_circle     operator assembly and the closed-form circle inverse
matsumoto_yor    discrete hidden-Markov chains and the samplers of the Z diffusion
continuum_kernel the circle and line kernels of one path, operator checks, ensembles
spectrum         phase-counting, FD spectra, renewal and density of states
stats            the pass rule, quantiles, KS tests, the mean interval
experiments/cli  registered, seeded verification runs; every statistic is formed here
"""

__version__ = "0.1.0"
