"""Distributed discrete Laplace noise via negative-binomial shares.

The discrete Laplace distribution DLap(p) has pmf (1-p)/(1+p) * p^|z| and is
infinitely divisible: the difference of two geometric(p) variables is
DLap(p), and a geometric(p) variable is the sum of m independent
NB(1/m, p) draws. Each user in a group of size m therefore contributes an
NB(1/m, p) pair of positive and negative shares, and the group aggregate
carries exactly DLap(p) noise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError


def noise_base(epsilon_eff: float, sensitivity: int) -> float:
    """p = exp(-eps/sensitivity), the DLap parameter for a given budget."""
    if epsilon_eff <= 0:
        raise ParameterError("epsilon must be positive")
    if sensitivity <= 0:
        raise ParameterError("sensitivity must be positive")
    return math.exp(-epsilon_eff / sensitivity)


def dlap_pmf(z, p: float):
    return (1.0 - p) / (1.0 + p) * p ** np.abs(z)


def dlap_tail(t: int, p: float) -> float:
    """Pr[|Z| >= t] for Z ~ DLap(p), exact: 2 p^t / (1+p) for t >= 1."""
    if t <= 0:
        return 1.0
    return 2.0 * p**t / (1.0 + p)


def dlap_threshold(epsilon_eff: float, sensitivity: int, beta: float) -> int:
    """Smallest integer t >= 1 with Pr[|DLap(p)| >= t] <= beta.

    This exact tail quantile serves as the high-probability error bound of
    every group aggregate, and hence as the detection threshold theta.
    """
    if not 0 < beta < 1:
        raise ParameterError("beta must be in (0, 1)")
    p = noise_base(epsilon_eff, sensitivity)
    if p == 0.0:  # noiseless limit: |Z| >= 1 has probability zero
        return 1
    # 2 p^t / (1+p) <= beta  <=>  t >= log(beta (1+p) / 2) / log(p)
    t = max(1, math.ceil(math.log(beta * (1.0 + p) / 2.0) / math.log(p)))
    # Guard against float rounding at the boundary.
    while t > 1 and dlap_tail(t - 1, p) <= beta:
        t -= 1
    while dlap_tail(t, p) > beta:
        t += 1
    return t


def nb_sample(r, p: float, rng: np.random.Generator, size=None) -> np.ndarray:
    """Negative binomial NB(r, p) with pmf proportional to C(k+r-1, k)(1-p)^r p^k.

    Sampled as a Gamma-Poisson mixture so that fractional r (= 1/m noise
    shares) is supported; ``r`` may be an array for batched draws, and
    r = 0 degenerates to the constant 0. At r = 1 this is geometric(p)
    with mean p/(1-p). The draws are an int64 array of shape ``size``,
    or of the shape of ``r`` when ``size`` is None.
    """
    if np.any(np.asarray(r) < 0):
        raise ParameterError("r must be nonnegative")
    if p <= 0.0:
        return np.zeros(np.shape(r) if size is None else size, dtype=np.int64)
    lam = rng.gamma(r, p / (1.0 - p), size=size)
    return np.asarray(rng.poisson(lam), dtype=np.int64)
