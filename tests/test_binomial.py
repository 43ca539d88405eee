from math import comb, lgamma

import numpy as np
import pytest
from scipy.stats import binom

from ecopull import _binomial

SIZES = (0, 1, 4, 100, 1000, 100_000)
PROBABILITIES = (0.0, 1e-12, 0.31, 0.5, 1.0 - 1e-12, 1.0)
LOG_SIZES = (0, 1, 7, 100, 1000, 20_000)
LOG_PROBABILITIES = (0.0, 1e-9, 1e-3, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-9, 1.0)


def pmf(n, p):
    return np.exp(_binomial.saddle_logpmf(n, p))


@pytest.mark.parametrize("p, n", [(p, n) for p in LOG_PROBABILITIES
                                  for n in LOG_SIZES
                                  if n == 0 or p in (0.0, 1.0)])
def test_logpmf_is_bitwise_scipy(n, p):
    # a degenerate law (no trial, or a sure outcome) is exact in both forms:
    # 0 at its one load and -inf elsewhere, which fixes the chain's support
    expected = binom.logpmf(np.arange(n + 1), n, p)
    assert np.array_equal(_binomial.saddle_logpmf(n, p), expected)


@pytest.mark.parametrize("n", LOG_SIZES)
@pytest.mark.parametrize("p", LOG_PROBABILITIES)
def test_saddle_logpmf_matches_scipy_logpmf(n, p):
    # the Metropolis chain reads the log form, also in the tails where its
    # exp underflows. scipy's log-gamma form cancels terms as large as
    # log(n!) + |value|, so it is a reference only to a few ulps of those.
    expected = binom.logpmf(np.arange(n + 1), n, p)
    value = _binomial.saddle_logpmf(n, p)
    finite = np.isfinite(expected)
    assert np.array_equal(value[~finite], expected[~finite])
    slack = 16 * np.finfo(float).eps * (lgamma(n + 1)
                                        + np.abs(expected[finite]))
    assert np.all(np.abs(value[finite] - expected[finite]) <= slack)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", PROBABILITIES)
def test_pmf_matches_scipy(n, p):
    # pytest.approx keeps its 1e-12 absolute floor: at N = 1e5 scipy's own
    # pmf is off by up to 4e-13 relative where it is 1e-12..1e-6
    value = pmf(n, p)
    assert value.shape == (n + 1,)
    assert value == pytest.approx(binom.pmf(np.arange(n + 1), n, p),
                                  rel=1e-13)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", PROBABILITIES)
def test_pmf_sums_to_one(n, p):
    assert abs(pmf(n, p).sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("n, p", [(4, 0.31), (100, 0.31), (100, 1e-12),
                                  (1000, 0.5), (1000, 0.31), (1000, 0.999),
                                  (100_000, 1.0 - 1e-12)])
def test_pmf_matches_exact_rational_value(n, p):
    # p = a/d exactly, so the pmf is a ratio of integers, which int division
    # rounds correctly: within 1e-14 in the bulk and 2e-13 in the tails.
    # The small loads and their mirror images use every tabulated Stirling
    # term.
    a, d = p.as_integer_ratio()
    value = pmf(n, p)
    rough = _binomial.saddle_logpmf(n, p)
    mode = int(n * p)
    loads = set(range(min(n, 16) + 1)) | {n - k for k in range(min(n, 16))}
    loads |= {n // 3, max(0, mode - 5), mode, min(n, mode + 3)}
    # the exact values below 1e-278 are skipped
    kept = sorted(k for k in loads if rough[k] > -640.0)
    assert kept
    done, power = 0, 1
    for k in kept:
        power *= a ** (k - done)  # a ** k, built up across the loads
        done = k
        exact = comb(n, k) * power * (d - a) ** (n - k) / d ** n
        rel = 1e-14 if exact > 1e-6 else 2e-13
        assert value[k] == pytest.approx(exact, rel=rel, abs=0.0)


def test_pmf_edge_cases():
    assert pmf(0, 0.3).tolist() == [1.0]
    assert pmf(3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert pmf(3, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]
    # far tails underflow to 0, not to NaN
    tails = pmf(100_000, 0.5)
    assert np.all(np.isfinite(tails)) and tails[0] == 0.0


def test_deviance_series_length_is_the_least_that_meets_its_bound():
    # every row sums the deviance series to one length: the least whose
    # dropped terms are below 2^-56 of the leading one wherever it runs
    cut, terms = _binomial._SERIES_CUT, _binomial._SERIES_TERMS
    assert cut ** (2 * terms) <= 2.0 ** -56 < cut ** (2 * terms - 2)


BATCH_SIZES = (0, 1, 2, 15, 16, 17, 100, 1000)
# both ends, a tiny p, small p and small q (the end points'
# other branch) and the middle, among random values
BATCH_PROBABILITIES = np.concatenate((
    [0.0, 1.0, 1e-300, 1e-12, 0.03, 0.0999, 0.1, 0.5, 0.9, 0.97,
     1.0 - 1e-12],
    np.random.default_rng(20).random(29)))


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_law_rows_are_bitwise_scalar_calls(n):
    # a grid reads one row per pass probability; each row must be the
    # scalar law, whatever else is in its batch and in whatever order
    rows = _binomial.saddle_logpmf(n, BATCH_PROBABILITIES)
    assert rows.shape == (len(BATCH_PROBABILITIES), n + 1)
    for row, p in zip(rows, BATCH_PROBABILITIES.tolist()):
        assert np.array_equal(row, _binomial.saddle_logpmf(n, p))
    order = np.random.default_rng(n).permutation(len(BATCH_PROBABILITIES))
    assert np.array_equal(
        _binomial.saddle_logpmf(n, BATCH_PROBABILITIES[order]), rows[order])
    for p in (BATCH_PROBABILITIES[:1], BATCH_PROBABILITIES[-3:]):
        assert np.array_equal(_binomial.saddle_logpmf(n, p),
                              [_binomial.saddle_logpmf(n, q) for q in p])


def test_law_rows_do_not_depend_on_the_row_blocks():
    # a long batch is computed a block of rows at a time
    n = 1000
    probabilities = np.random.default_rng(3).random(
        3 * _binomial._LAW_BLOCK // (n + 1) + 2)
    rows = _binomial.saddle_logpmf(n, probabilities)
    for row, p in zip(rows, probabilities.tolist()):
        assert np.array_equal(row, _binomial.saddle_logpmf(n, p))
    assert _binomial.saddle_logpmf(n, []).shape == (0, n + 1)
