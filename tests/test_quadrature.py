"""The filtered masses and the numpy incomplete beta against references.

The filtered mass is checked against ``tests/data/filtered_mass.csv``, the
by-parts form at 30 digits in mpmath (``reference.filtered_mass_reference``,
written by ``tools/filtered_mass_reference.py``); a sample of its rows is
recomputed here. The incomplete beta is checked against
``scipy.special.betainc``.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from scipy.special import betainc, betaincc

from ecopull import BetaTruth, UniformTruth, cli, p_th
from ecopull.config import _betainc
from ecopull.energy import _filtered_mass, quad_interval
from reference import filtered_mass_reference

TOL = 1e-12
TABLE = Path(__file__).resolve().parent / "data" / "filtered_mass.csv"
SHAPES = [(2, 5), (0.5, 0.5), (0.1, 0.1), (0.05, 0.05), (0.3, 2), (2, 0.7),
          (0.01, 3)]
GRID_SHAPES = [None, (0.7, 0.2), (0.5, 0.5), (5, 1), (30, 3), (2, 5), (1, 1),
               *(s for s in SHAPES if s not in ((2, 5), (0.5, 0.5)))]


def _truth(shape):
    return UniformTruth() if shape is None else BetaTruth(*shape)


def _shape_id(shape):
    return "uniform" if shape is None else f"beta-{shape[0]}-{shape[1]}"


def _table():
    rows = {}
    with open(TABLE, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            shape = (None if not row["alpha"]
                     else (float(row["alpha"]), float(row["beta"])))
            case = (float(row["noise"]), float(row["threshold"]),
                    float(row["lower"]), float(row["mass"]))
            rows.setdefault(shape, []).append(case)
    return rows


REFERENCE = _table()


def _mass(shape, noise, threshold, lower):
    # uncached: every case is evaluated, none read back from an earlier one
    return _filtered_mass.__wrapped__(threshold, noise, _truth(shape), lower)


def test_table_covers_the_grid():
    noises = [1e-6, 1e-3, 0.05, 0.125, 0.3]
    thresholds = {0.0, 0.15, 0.5, 0.9, 1.0}
    assert set(REFERENCE) == set(GRID_SHAPES)
    for cases in REFERENCE.values():
        assert sorted({c[0] for c in cases}) == noises
        assert thresholds < {c[1] for c in cases}
        assert {c[2] for c in cases} == {0.0, 0.9}
        assert len(cases) == len(noises) * 43 * 2


@pytest.mark.parametrize("shape", GRID_SHAPES, ids=_shape_id)
def test_filtered_mass_matches_30_digit_reference(shape):
    worst = max((abs(_mass(shape, noise, threshold, lower) - mass),
                 noise, threshold, lower)
                for noise, threshold, lower, mass in REFERENCE[shape])
    assert worst[0] <= TOL, worst


@pytest.mark.parametrize("shape, noise, threshold, lower", [
    ((0.7, 0.2), 0.05, 0.15, 0.9),
    ((0.5, 0.5), 0.3, 0.999, 0.0),
    ((30, 3), 1e-3, 0.9, 0.9),
    ((0.01, 3), 0.125, 0.025, 0.0),
    (None, 1e-6, 0.5, 0.0),
])
def test_table_rows_are_the_reference(shape, noise, threshold, lower):
    [mass] = [m for s, t, lo, m in REFERENCE[shape]
              if (s, t, lo) == (noise, threshold, lower)]
    reference = filtered_mass_reference(threshold, noise, shape, lower)
    assert abs(mass - float(reference)) <= 1e-16


def test_p_th_keeps_the_half_gaussian_at_a_threshold_on_an_end():
    # a breakpoint on an end of the interval was dropped, and this read 0.0
    expected = 1e-6 / np.sqrt(2.0 * np.pi)
    assert abs(p_th(1.0, 1e-6, UniformTruth()) - expected) <= TOL
    assert abs(p_th(1.0, 1e-6, UniformTruth()) - 3.989422804014327e-07) < 1e-21


def test_beta_mass_at_narrow_noise_matches_the_reference():
    # the adaptive rule was 4.4e-8 off here and raised nothing
    reference = filtered_mass_reference(0.075, 1e-3, (5, 1), 0.0)
    assert abs(p_th(0.075, 1e-3, BetaTruth(5, 1)) - float(reference)) <= TOL


def test_peaked_truth_mass_matches_the_reference():
    # Beta(300, 30) rises within about 0.05 of 0.91: panels three noise
    # deviations wide (0.9 here) missed it by 3.6e-4
    reference = filtered_mass_reference(0.95, 0.3, (300, 30), 0.0)
    assert abs(p_th(0.95, 0.3, BetaTruth(300, 30)) - float(reference)) <= TOL


def test_analyze_with_a_j_shaped_truth_succeeds(capsys):
    # the adaptive rule once failed here with a roundoff error, exit 3
    rc = cli.main(["analyze", "--mode", "exact",
                   "--set", "truth_distribution.kind=beta",
                   "--set", "truth_distribution.alpha=0.7",
                   "--set", "truth_distribution.beta=0.2",
                   "--set", "model_noise=0.05",
                   "--set", "relevance_threshold=0.15"])
    out = capsys.readouterr().out
    assert rc == 0
    assert 0.0 < float(out.splitlines()[1].split(",")[1]) <= 1.0


@pytest.mark.parametrize("shape", [(0.7, 0.2), (0.5, 0.5), (5, 1), (30, 3),
                                   (2, 5), (1, 1), *SHAPES[2:]],
                         ids=_shape_id)
def test_betainc_matches_scipy(shape):
    a, b = shape
    switch = (a + 1.0) / (a + b + 2.0)
    x = np.concatenate([np.random.default_rng(7).random(2000),
                        [0.0, 1.0, switch, np.nextafter(switch, 1.0)]])
    lower, upper = _betainc(a, b, x)
    np.testing.assert_allclose(lower, betainc(a, b, x), rtol=1e-13, atol=0)
    # a tail taken as the complement of the other has that one's absolute
    # error, up to 4e-15 here where it is near 1
    np.testing.assert_allclose(upper, betaincc(a, b, x), rtol=1e-13,
                               atol=1e-14)


@pytest.mark.parametrize("shape", SHAPES)
def test_singular_beta_truths_validate(shape):
    truth = BetaTruth(*shape)  # validate runs on construction
    assert truth.cdf(0.0) == 0.0
    assert truth.cdf(1.0) == 1.0
    grid = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(truth.cdf(grid), betainc(*shape, grid),
                               rtol=1e-13, atol=0)


def test_graded_panels_resolve_an_endpoint_singularity():
    # int_0^1 x^e dx = 1 / (1 + e), not smooth at 0 for a fractional e
    for exponent in (0.05, 0.2, 0.5, 0.7):
        levels = int(np.ceil(16.0 / (exponent + 1.0)))
        value = quad_interval(lambda x: x ** exponent, 0.0, 1.0, 1.0,
                              (levels, 0))
        assert value == pytest.approx(1.0 / (1.0 + exponent), abs=1e-14)
        assert abs(quad_interval(lambda x: x ** exponent, 0.0, 1.0, 1.0)
                   - 1.0 / (1.0 + exponent)) > 1e-6


def test_empty_interval_is_zero():
    assert quad_interval(np.exp, 0.5, 0.5, 1.0) == 0.0


@pytest.mark.parametrize("noise", [0.05, 0.125, 0.25, 0.5])
def test_uniform_p_th_converges_at_every_threshold(noise):
    # in [0, 1] and falling with the threshold, at every threshold
    truth = UniformTruth()
    values = [p_th(step / 1000, noise, truth) for step in range(1001)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_refined_p_th_matches_a_tight_reference():
    # thresholds where the adaptive rule once stopped above its bound
    for threshold in (0.128, 0.13, 0.133):
        reference = filtered_mass_reference(threshold, 0.125, None, 0.0)
        assert abs(p_th(threshold, 0.125, UniformTruth())
                   - float(reference)) <= 1e-15
