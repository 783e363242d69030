"""Distributed discrete Laplace noise via negative-binomial shares.

The discrete Laplace distribution DLap(p) has pmf (1-p)/(1+p) * p^|z| and is
infinitely divisible: the difference of two geometric(p) variables is
DLap(p), and a geometric(p) variable is the sum of m independent
NB(1/m, p) draws. Each user in a group of size m therefore contributes an
NB(1/m, p) pair of positive and negative shares, and the group aggregate
carries exactly DLap(p) noise.

``nb_sample`` draws NB(r, p) as poisson(gamma(r, p/(1-p))) and makes
the gamma draws cheaply, using three facts about numpy's ``Generator``:
gamma(r, s) is s times standard_gamma(r), bit for bit, as numpy computes
it as that product; standard_gamma(1) is one standard exponential draw,
the draw that ``standard_exponential`` fills with; and a call with an
array of r draws element by element, in element order, exactly as
scalar calls over the same elements do. So, for an array of r, a long
run of r = 1 is one exponential fill, the elements between such runs
are one per-element ``standard_gamma`` call, and the draws and the
generator state after them are those of the one broadcast ``gamma``
call, which costs about twice as much per element. A scalar r is one
fill, then times the scale: at r = 1, as for a token level with no
corrupted user, one exponential fill with no run search, and otherwise
one ``standard_gamma`` fill. An array r holds one
value per row of the draw, repeated along the row, such as the token
protocols' per-group shares drawn into a ``(groups, bins)`` array, and
is searched for runs before it repeats. The Poisson draw is unchanged.

``nb_sample`` has one form: it draws into a given int64 ``out``, in
place, as numpy's ``out=`` arguments do. The gamma means go into
``out``'s own memory viewed as float64, and the Poisson draws then
overwrite them ``BLOCK`` elements at a time, in element order. So a
caller that owns its buffers, as both tallies do, touches no fresh
memory per call beyond one block of Poisson draws.
``tests/test_noise.py::test_nb_sample_is_gamma_poisson`` and
``test_nb_sample_out_is_the_allocating_draw`` pin these facts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

#: Runs of r = 1 shorter than this are drawn with their neighbours, in one
#: per-element gamma call, rather than by one exponential fill each.
MIN_RUN = 64

#: Poisson draws per call in ``nb_sample``: each block's draws are one
#: small temporary, not a whole-size array.
BLOCK = 8192


def noise_base(epsilon_eff: float, sensitivity: int) -> float:
    """p = exp(-eps/sensitivity), the DLap parameter for a given budget."""
    if epsilon_eff <= 0:
        raise ParameterError("epsilon must be positive")
    if sensitivity <= 0:
        raise ParameterError("sensitivity must be positive")
    p = math.exp(-epsilon_eff / sensitivity)
    if p == 1.0:  # no finite threshold or noise scale exists
        raise ParameterError(
            f"epsilon {epsilon_eff:g} is too small for sensitivity "
            f"{sensitivity}: exp(-epsilon/sensitivity) rounds to 1"
        )
    return p


def dlap_tail(t: int, p: float) -> float:
    """Pr[|Z| >= t] for Z ~ DLap(p), exact: 2 p^t / (1+p) for t >= 1."""
    if t <= 0:
        return 1.0
    return 2.0 * p**t / (1.0 + p)


def dlap_threshold(p: float, beta: float) -> int:
    """Smallest integer t >= 1 with Pr[|DLap(p)| >= t] <= beta.

    This exact tail quantile serves as the high-probability error bound of
    every group aggregate, and hence as the detection threshold theta.
    """
    if not 0 < beta < 1:
        raise ParameterError("beta must be in (0, 1)")
    if p == 0.0:  # noiseless limit: |Z| >= 1 has probability zero
        return 1
    # 2 p^t / (1+p) <= beta  <=>  t >= log(beta (1+p) / 2) / log(p), the
    # log split in two: beta (1+p) / 2 underflows to 0 for a subnormal beta.
    t = max(1, math.ceil(
        (math.log(beta) + math.log((1.0 + p) / 2.0)) / math.log(p)
    ))
    # Guard against float rounding at the boundary.
    while t > 1 and dlap_tail(t - 1, p) <= beta:
        t -= 1
    while dlap_tail(t, p) > beta:
        t += 1
    return t


def _standard_gamma(
    r: np.ndarray, reps: int, rng: np.random.Generator, out: np.ndarray
):
    """Fill ``out`` with the draws of ``rng.standard_gamma(np.repeat(r,
    reps))``, run by run.

    ``r`` and ``out`` are flat, ``out`` holding ``reps`` draws per element
    of ``r``. The runs are found on ``r``, each run of it being ``reps``
    times as long in ``out``. A run of r = 1 of at least ``MIN_RUN``
    draws is one ``standard_exponential`` fill; the draws between two
    such runs are drawn together, in one per-element ``standard_gamma``
    call.
    """
    if not out.size:
        return
    starts = np.concatenate([[0], np.flatnonzero(r[1:] != r[:-1]) + 1])
    ones = (np.diff(starts, append=r.size) * reps >= MIN_RUN) & (
        r[starts] == 1.0
    )
    # A call starts at each run of ones and at each other run after one.
    cut = ones.copy()
    cut[1:] |= ones[:-1]
    cut[0] = True
    calls = starts[cut].tolist()
    for s, e, is_ones in zip(calls, calls[1:] + [r.size], ones[cut].tolist()):
        if is_ones:
            rng.standard_exponential(out=out[s * reps : e * reps])
        else:
            rng.standard_gamma(
                np.repeat(r[s:e], reps), out=out[s * reps : e * reps]
            )


def nb_sample(
    r, p: float, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """Negative binomial NB(r, p) with pmf proportional to C(k+r-1, k)(1-p)^r p^k.

    Sampled as a Gamma-Poisson mixture so that fractional r (= 1/m noise
    shares) is supported. ``r`` is a scalar, or for batched draws an
    array of one value per row of ``out``, repeated along its row; r = 0
    degenerates to the constant 0, and numpy refuses a negative r. At
    r = 1 this is geometric(p) with mean p/(1-p). The draws are written
    into ``out``, a C-contiguous int64 array whose shape is the size of
    the draw, and ``out`` is returned; no array of its size is allocated.
    A scalar r = 1 is one ``standard_exponential`` fill, and an array r
    is searched for runs of 1 (``_standard_gamma``).

    The draws and the generator state after them are exactly those of
    ``rng.poisson(rng.gamma(r, p/(1-p), out.shape))``, the sampler's
    definition (an array r repeated along its rows), but made the
    cheaper way the module docstring describes;
    ``tests/test_noise.py::test_nb_sample_is_gamma_poisson`` pins this.
    """
    if out.dtype != np.int64 or not out.flags.c_contiguous:
        raise ParameterError("out must be a C-contiguous int64 array")
    if np.ndim(r) and out.shape[:1] != (np.size(r),):
        raise ParameterError("an array r must be one value per row of out")
    if p <= 0.0:
        out.fill(0)
        return out
    lam = out.view(np.float64)
    if np.ndim(r) == 0:
        if r == 1.0:
            rng.standard_exponential(out=lam)
        else:
            rng.standard_gamma(r, out=lam)
    else:
        # Each r repeats along its row: the run search reads the r
        # before they repeat, a bin-fold fewer for the token protocols.
        reps = math.prod(out.shape[1:])
        _standard_gamma(np.ravel(r), reps, rng, lam.reshape(-1))
    lam *= p / (1.0 - p)
    # Each block of means is read by its Poisson call before its draws
    # overwrite it.
    draws, means = out.reshape(-1), lam.reshape(-1)
    for s in range(0, means.size, BLOCK):
        draws[s : s + BLOCK] = rng.poisson(means[s : s + BLOCK])
    return out
