"""Discrete Laplace tail quantiles and negative-binomial noise shares."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from shuffleguard.errors import ParameterError
from shuffleguard.noise import (
    MIN_RUN,
    dlap_tail,
    dlap_threshold,
    nb_sample,
    noise_base,
)


def threshold_oracle(epsilon_eff, sensitivity, beta):
    """Brute-force smallest t>=1 whose exact tail is within beta, where the
    tail is cross-checked by summing scipy's DLap pmf (``dlaplace`` with
    a = eps/sensitivity), a reference independent of the package."""
    p = math.exp(-epsilon_eff / sensitivity)
    t = 1
    while True:
        # tail = 1 - sum of pmf over |z| < t
        body = stats.dlaplace.pmf(np.arange(-t + 1, t), -math.log(p)).sum()
        if 1.0 - body <= beta + 1e-12:
            return t
        t += 1


class TestThreshold:
    def test_unit_case(self):
        assert dlap_threshold(1.0, 1, 0.1) == 3

    def test_boundary_t1(self):
        p = math.exp(-1.0)
        assert dlap_threshold(1.0, 1, 2 * p / (1 + p) + 1e-12) == 1

    def test_wide_sensitivity(self):
        assert dlap_threshold(0.5, 10, 0.05) == threshold_oracle(0.5, 10, 0.05)

    @pytest.mark.parametrize(
        "eps,sens,beta",
        [(1.0, 1, 0.1), (0.5, 10, 0.05), (2.0, 3, 0.01), (0.1, 1, 0.3),
         (4.0, 1, 0.001), (0.05, 25, 0.2)],
    )
    def test_matches_pmf_oracle(self, eps, sens, beta):
        assert dlap_threshold(eps, sens, beta) == threshold_oracle(eps, sens, beta)

    def test_noiseless_limit(self):
        assert dlap_threshold(math.inf, 1, 0.1) == 1

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            dlap_threshold(1.0, 1, 1.0)
        with pytest.raises(ParameterError):
            dlap_threshold(-1.0, 1, 0.1)
        with pytest.raises(ParameterError):
            dlap_threshold(1.0, 0, 0.1)

    def test_tail_closed_form(self):
        p = 0.7
        for t in range(1, 10):
            body = stats.dlaplace.pmf(np.arange(-t + 1, t), -math.log(p)).sum()
            assert dlap_tail(t, p) == pytest.approx(1.0 - body, abs=1e-12)


class TestNbSample:
    def test_degenerate_p(self):
        rng = np.random.default_rng(0)
        assert nb_sample(1.0, 0.0, rng) == 0
        assert np.all(nb_sample(0.5, 0.0, rng, size=10) == 0)

    def test_zero_r(self):
        rng = np.random.default_rng(0)
        assert np.all(nb_sample(np.zeros(100), 0.5, rng) == 0)

    def test_geometric_mean(self):
        rng = np.random.default_rng(1)
        draws = nb_sample(1.0, 0.5, rng, size=100_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_share_sum_is_geometric(self, m):
        p = math.exp(-1.0)
        rng = np.random.default_rng(m)
        shares = nb_sample(1.0 / m, p, rng, size=(100_000, m))
        total = shares.sum(axis=1)
        hi = 12
        observed = np.bincount(np.minimum(total, hi), minlength=hi + 1)
        probs = np.array([(1 - p) * p**k for k in range(hi)] + [p**hi])
        chi = stats.chisquare(observed, probs * total.size)
        assert chi.pvalue > 0.01

    def test_dlap_difference_tail(self):
        # Empirical Pr[|Z| >= threshold] stays within 1.5 beta.
        for eps, beta in [(1.0, 0.1), (0.5, 0.05)]:
            p = math.exp(-eps)
            t = dlap_threshold(eps, 1, beta)
            rng = np.random.default_rng(int(eps * 10))
            z = nb_sample(1.0, p, rng, size=10_000) - nb_sample(
                1.0, p, rng, size=10_000
            )
            assert np.mean(np.abs(z) >= t) <= 1.5 * beta


def gamma_poisson(r, p, rng, size=None):
    """The sampler's definition: one broadcast gamma call, then Poisson."""
    return np.asarray(rng.poisson(rng.gamma(r, p / (1 - p), size=size)), np.int64)


@st.composite
def r_patterns(draw):
    """(r, size) as the protocols pass them: a scalar share 1/m with a
    size, or a (groups, bins) broadcast view of hcount/m whose runs of 0,
    1 and fractions are long, short or alternating."""
    if draw(st.booleans()):
        m = draw(st.sampled_from([1, 2, 3, 512]))
        r = draw(st.sampled_from([0.0, 1.0, 1.0 / m]))
        return r, draw(st.sampled_from([None, 0, 1, 5, 200, (3, 70)]))
    m = draw(st.sampled_from([1, 2, 4]))
    runs = draw(st.lists(
        st.tuples(st.integers(0, m), st.sampled_from([1, 3, MIN_RUN, 150])),
        max_size=6,
    ))
    hcount = np.repeat(
        np.array([h for h, _ in runs], dtype=np.int64),
        [k for _, k in runs],
    )
    bins = draw(st.sampled_from([1, 3]))
    return np.broadcast_to((hcount / m)[:, None], (hcount.size, bins)), None


@settings(max_examples=150, deadline=None)
@given(
    pattern=r_patterns(),
    p=st.sampled_from([0.0, math.exp(-1.0), 0.99]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nb_sample_is_gamma_poisson(pattern, p, seed):
    # Same draws and same generator state after as the one broadcast
    # gamma call: this pins the numpy identities nb_sample relies on.
    r, size = pattern
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = nb_sample(r, p, rng_a, size=size)
    if p == 0.0:
        want = np.zeros(np.shape(r) if size is None else size, np.int64)
    else:
        want = gamma_poisson(r, p, rng_b, size=size)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from([1, 3, 22, MIN_RUN, 150])),
        min_size=1, max_size=6,
    ),
    bins=st.sampled_from([1, 3, 31]),
    p=st.sampled_from([math.exp(-1.0), 0.99]),
    seed=st.integers(0, 2**32 - 1),
)
@example(runs=[(4, 1)], bins=31, p=0.5, seed=0)  # g = 1, one short run
@example(runs=[(0, 3), (4, 22), (2, 1)], bins=3, p=0.5, seed=1)
def test_nb_sample_column_of_shares_is_its_repeat(runs, bins, p, seed):
    # A (groups, 1) column of shares drawn at size (groups, bins) is the
    # draw of the repeated shares: the run search on the column scales
    # each run by bins, so a run too short for an exponential fill
    # before the repeat (22 or 3 shares) may reach MIN_RUN after it.
    share = np.repeat(
        np.array([h / 4 for h, _ in runs]), [k for _, k in runs]
    )
    g = share.size
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = nb_sample(share[:, None], p, rng_a, size=(g, bins))
    want = nb_sample(np.repeat(share, bins).reshape(g, bins), p, rng_b)
    assert got.shape == (g, bins)
    np.testing.assert_array_equal(got, want)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("size", [0, 1, 2 * MIN_RUN + 1, 10_000])
def test_nb_sample_alternating_r_is_few_calls(size):
    # Alternating 0/1 is the worst case for runs: every run is short, so
    # they are drawn together rather than by one call each.
    class Spy:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def call(*args, **kwargs):
                self.calls += 1
                return method(*args, **kwargs)

            return call

    r = (np.arange(size) % 2).astype(float)
    spy = Spy(np.random.default_rng(size))
    got = nb_sample(r, 0.5, spy)
    assert spy.calls <= size // MIN_RUN + 2
    want = gamma_poisson(r, 0.5, np.random.default_rng(size))
    np.testing.assert_array_equal(got, want)


def test_noise_base_validates():
    assert noise_base(1.0, 1) == pytest.approx(math.exp(-1))
    with pytest.raises(ParameterError):
        noise_base(0.0, 1)
    # exp(-eps/sensitivity) rounds to 1: no threshold or noise scale exists.
    for eps, sensitivity in ((1e-20, 1), (1e-14, 255)):
        with pytest.raises(ParameterError, match=f"epsilon {eps:g} .* {sensitivity}"):
            noise_base(eps, sensitivity)
