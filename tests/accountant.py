"""An exact per-level privacy accountant for the NB pair noise.

In a group of m users, each member adds NB(1/m, p) tokens of each sign
(per bin), so the h members who do not drop their shares add
NB(h/m, p) - NB(h/m, p) to the group's aggregate. With every member
honest (h = m) that is DLap(p). ``pair_pmf`` takes this law from
``scipy.stats.nbinom``, independently of the package's sampler, and
``level_epsilon`` finds the least epsilon whose hockey-stick divergence
for a shift of the query's sensitivity is within the level's delta.
"""

import math

import numpy as np
from scipy import stats

#: Each NB pmf is cut where its upper tail falls below this.
TAIL = 1e-30


def pair_pmf(r: float, p: float) -> np.ndarray:
    """The pmf of NB(r, p) - NB(r, p) on -K..K (index K is z = 0), where
    NB(r, p) has pmf proportional to C(k+r-1, k) (1-p)^r p^k and K is
    where its tail falls below ``TAIL``."""
    nb = stats.nbinom(r, 1.0 - p)
    pmf = nb.pmf(np.arange(int(nb.isf(TAIL)) + 1))
    return np.convolve(pmf, pmf[::-1])


def hockey_stick(pmf: np.ndarray, shift: int, epsilon: float) -> float:
    """delta(epsilon) = sum_z max(0, P(z) - e^epsilon P(z - shift)) for
    the noise law P, the larger of the two directions of the shift."""
    pad = np.zeros(shift)
    a = np.concatenate([pmf, pad])
    b = np.concatenate([pad, pmf])  # b(z) = a(z - shift)
    w = math.exp(epsilon)
    return max(
        float(np.maximum(a - w * b, 0.0).sum()),
        float(np.maximum(b - w * a, 0.0).sum()),
    )


def level_epsilon(pmf: np.ndarray, shift: int, delta: float) -> float:
    """The least epsilon >= 0 with ``hockey_stick(pmf, shift, epsilon)``
    at most ``delta``, by bisection (to a relative 1e-12)."""
    if hockey_stick(pmf, shift, 0.0) <= delta:
        return 0.0
    lo, hi = 0.0, 1.0
    while hockey_stick(pmf, shift, hi) > delta:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if hockey_stick(pmf, shift, mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi
