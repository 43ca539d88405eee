import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom, chisquare, multinomial, norm

from ecopull import (ConfigError, UniformTruth, default_vth_grid,
                     expected_sifi_exact, fidelity_distance, load_config,
                     mcmc_expected_sifi,
                     omega_nonempty_probability, p_delta, p_th, sifi_affine,
                     simulate)
from ecopull import analytic
from ecopull.analytic import (_mean_fractions, _panel_rule,
                              expected_sifi_over_rates, score_terms)
from reference import compositions, realization_pmf


def cfg_for(device_count, images, slots, **overrides):
    spec = {"device_count": device_count, "images_per_device": images,
            "slots_per_frame": slots, "slot_coefficient": None}
    spec.update(overrides)
    return load_config(spec)


# --- composition machinery ---------------------------------------------------

def test_composition_count():
    states = list(compositions(3, 3))
    assert len(states) == math.comb(5, 2)
    assert all(sum(s) == 3 for s in states)
    assert len(set(states)) == len(states)


def test_pmf_point_mass():
    # a certain miss rate parks every device at zero relevant images
    assert realization_pmf((3, 0, 0), 2, 3, 0.0) == pytest.approx(1.0)
    assert realization_pmf((0, 0, 3), 2, 3, 1.0) == pytest.approx(1.0)


def test_pmf_small_case():
    assert realization_pmf((1, 1), 1, 2, 0.5) == pytest.approx(0.5)


def test_pmf_normalizes():
    total = sum(realization_pmf(psi, 2, 3, 0.37)
                for psi in compositions(3, 3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pmf_matches_scipy():
    prel = binom.pmf(np.arange(5), 4, 0.31)
    for psi in compositions(3, 5):
        mine = realization_pmf(psi, 4, 3, 0.31)
        ref = multinomial.pmf(psi, 3, prel)
        assert mine == pytest.approx(ref, rel=1e-9, abs=1e-15)


def test_pmf_wrong_total_is_zero():
    assert realization_pmf((1, 0, 0), 2, 3, 0.5) == 0.0


def test_pmf_shape_checked():
    with pytest.raises(ValueError, match="bins"):
        realization_pmf((1, 1), 2, 2, 0.5)


def test_per_frame_factor_nonincreasing_in_contention():
    for slots in (2, 4, 25):
        factors = [(1 - 1 / slots) ** (w - 1) for w in range(1, 8)]
        assert all(b <= a for a, b in zip(factors, factors[1:]))


# --- actually-relevant machinery ---------------------------------------------

def test_p_delta_values():
    truth = UniformTruth()
    assert p_delta(0.9, truth) == pytest.approx(0.1)
    assert p_delta(1.0, truth) == 0.0
    assert p_delta(0.0, truth) == 1.0


def detected_fraction(cfg):
    # P(an actually-relevant image passes the filter) = alpha_r * p_th / p_delta
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    alpha_r = score_terms(cfg, pth)[2]
    return alpha_r * pth / p_delta(cfg.truth_threshold, cfg.truth_distribution)


def test_p_actual_collect_reference_value():
    # an actually-relevant image is collected when it passes the filter and
    # nothing collides; frozen from the quadrature oracle at delta=0.9,
    # vth=0.6, sigma=0.125
    cfg = cfg_for(2, 1, 4)
    assert detected_fraction(cfg) == pytest.approx(0.9968310034, abs=1e-8)


def test_p_actual_collect_step_noise_limit():
    cfg = cfg_for(2, 1, 4, model_noise=1e-9, relevance_threshold=0.5)
    assert detected_fraction(cfg) == pytest.approx(1.0, abs=1e-9)


def test_omega_probability():
    cfg = cfg_for(2, 2, 4)
    assert omega_nonempty_probability(cfg) == pytest.approx(1 - 0.9 ** 4,
                                                            rel=1e-9)


# --- exact expectation -------------------------------------------------------

def test_exact_is_one_without_actual_relevance():
    cfg = cfg_for(3, 4, 4, truth_threshold=1.0)
    assert expected_sifi_exact(cfg) == 1.0


def test_exact_perfect_regime_approaches_one():
    cfg = cfg_for(3, 4, 10 ** 9, model_noise=1e-9, relevance_threshold=0.5,
                  compression_rate=200.0)
    assert expected_sifi_exact(cfg) == pytest.approx(1.0, abs=1e-6)


def direct_composition_sum(cfg):
    # per composition, the exact per-round delivered fraction
    # f = alpha_r * E[1/(1 + Bin(R-1, alpha_r) + Bin(KN-R, alpha_n))]
    #     * sum_frames W * b^(W-1), the Bin+Bin law convolved directly and
    # the frames past a fixed_frames cap dropped
    devices, images = cfg.device_count, cfg.images_per_device
    horizon = images if cfg.fixed_frames is None else cfg.fixed_frames
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    pdelta = 1.0 - cfg.truth_threshold  # uniform truth
    detected = quad(lambda beta: norm.sf((cfg.relevance_threshold - beta)
                                         / cfg.model_noise),
                    cfg.truth_threshold, 1.0, epsabs=1e-14)[0]
    alpha_r = detected / pth
    alpha_n = (pdelta - detected) / (1.0 - pth)
    total_images = devices * images
    base = 1.0 - 1.0 / cfg.frame_slots()
    prel = binom.pmf(np.arange(images + 1), images, pth)
    mean_fraction = 0.0
    for psi in compositions(devices, images + 1):
        load = sum(nu * q for nu, q in enumerate(psi))
        if load == 0:
            continue
        others = np.convolve(binom.pmf(np.arange(load), load - 1, alpha_r),
                             binom.pmf(np.arange(total_images - load + 1),
                                       total_images - load, alpha_n))
        g = float(np.sum(others / (1.0 + np.arange(len(others)))))
        active = [sum(psi[frame:]) for frame in range(1, images + 1)]
        active = active[:horizon]
        deliveries = sum(w * base ** (w - 1) for w in active if w > 0)
        mean_fraction += (multinomial.pmf(psi, devices, prel)
                          * alpha_r * g * deliveries)
    p_omega = omega_nonempty_probability(cfg)
    gamma = cfg.penalty
    return (p_omega * (1 - gamma) + (1 - p_omega)
            + (gamma - fidelity_distance(cfg.compression_rate))
            * mean_fraction)


def test_exact_matches_direct_multinomial_sum():
    for cfg in (cfg_for(4, 5, 6),
                cfg_for(4, 5, 1),
                cfg_for(1, 5, 6),
                cfg_for(4, 5, 6, truth_threshold=0.5),
                cfg_for(4, 5, 6, relevance_threshold=0.8, model_noise=1e-4)):
        assert expected_sifi_exact(cfg) == pytest.approx(
            direct_composition_sum(cfg), rel=1e-9)


@pytest.mark.parametrize("devices, images, slots, frames", [
    (4, 5, 6, 1), (4, 5, 6, 2), (4, 5, 6, 5), (3, 6, 1, 2), (1, 5, 6, 3),
    (4, 5, 2, 3),
])
def test_exact_honours_fixed_frames(devices, images, slots, frames):
    cfg = cfg_for(devices, images, slots, fixed_frames=frames)
    assert expected_sifi_exact(cfg) == pytest.approx(
        direct_composition_sum(cfg), rel=1e-9)


def unswapped_mean_fraction(devices, images, slots, pth, alpha_r, alpha_n):
    # the closed form as written in the analytic module docstring, before
    # its two sums are swapped, at 30 digits on the closed form's own nodes
    with mpmath.workdps(30):
        lam = (devices * images - 1) * (pth * alpha_r + (1 - pth) * alpha_n)
        nodes, weights = _panel_rule(lam)
        prob = [mpmath.binomial(images, c) * mpmath.mpf(pth) ** c
                * (1 - mpmath.mpf(pth)) ** (images - c)
                for c in range(images + 1)]
        base = 1 - mpmath.mpf(1) / slots
        total = mpmath.mpf(0)
        for s, weight in zip(nodes, weights):
            xr = 1 - mpmath.mpf(alpha_r) * mpmath.mpf(s)
            xn = 1 - mpmath.mpf(alpha_n) * mpmath.mpf(s)
            y = [prob[c] * xr ** c * xn ** (images - c)
                 for c in range(images + 1)]
            suffix = [mpmath.fsum(y[nu:]) for nu in range(images + 1)]
            frames = [(suffix[0] - suffix[nu] + base * suffix[nu])
                      ** (devices - 1) for nu in range(1, images + 1)]
            total += weight * mpmath.fsum(
                prob[c] * xr ** (c - 1) * xn ** (images - c)
                * mpmath.fsum(frames[:c]) for c in range(1, images + 1))
        return float(devices * alpha_r * total)


@pytest.mark.parametrize("devices, images, slots", [
    (1, 6, 4), (3, 8, 1), (5, 20, 15), (50, 10, 2),
])
def test_closed_form_matches_30_digit_reference(devices, images, slots):
    args = (0.3, 0.8, 0.05)
    fast = _mean_fractions(devices, images, [slots], *args)[slots]
    assert fast == pytest.approx(
        unswapped_mean_fraction(devices, images, slots, *args),
        rel=1e-12, abs=0.0)


def doubling_edges(lam):
    # the panel edges h, 2h, 4h, ... (h = 8/lam) doubled all the way to 1
    edges = [0.0]
    edge = 8.0 / lam if lam > 8.0 else 1.0
    while edge < 1.0:
        edges.append(edge)
        edge *= 2.0
    return edges + [1.0]


def doubling_rule(lam):
    # a rule padded well past its integrand's needs, the yardstick of the
    # gate below: 32 Gauss-Legendre nodes on every panel up to s = 1
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.array(doubling_edges(lam))
    start, span = edges[:-1, None], np.diff(edges)[:, None]
    return ((start + span * 0.5 * (nodes + 1.0)).ravel(),
            (span * 0.5 * weights).ravel())


def adaptive_mean_fraction(devices, images, slots, pth, alpha_r, alpha_n):
    # the swapped integrand K alpha_r (1/x_r) sum_nu S_nu M_nu^(K-1) by
    # mpmath's own adaptive quadrature at 30 digits, split at the doubling
    # edges up to s = 1; returns the value and mpmath's error estimate
    with mpmath.workdps(30):
        pth, alpha_r, alpha_n = map(mpmath.mpf, (pth, alpha_r, alpha_n))
        prob = [mpmath.binomial(images, c) * pth ** c
                * (1 - pth) ** (images - c) for c in range(images + 1)]

        def integrand(s):
            xr, xn = 1 - alpha_r * s, 1 - alpha_n * s
            suffix = [mpmath.mpf(0)] * (images + 2)
            for c in range(images, -1, -1):
                suffix[c] = (suffix[c + 1]
                             + prob[c] * xr ** c * xn ** (images - c))
            return mpmath.fsum(
                suffix[nu] * (suffix[0] - suffix[nu] / slots)
                ** (devices - 1) for nu in range(1, images + 1)) / xr

        lam = (devices * images - 1) * float(pth * alpha_r
                                             + (1 - pth) * alpha_n)
        value, error = mpmath.quad(integrand, doubling_edges(lam),
                                   method="gauss-legendre", error=True)
        return (float(devices * alpha_r * value),
                float(devices * alpha_r * error))


@pytest.mark.parametrize("devices, images, slots, pth, alpha_r, alpha_n", [
    (5, 25, 15, 0.24, 0.8, 0.05),
    (5, 100, 20, 0.24, 0.9, 0.05),
    (5, 100, 15, 0.3, 1.0, 0.0),
    (50, 20, 2, 0.3, 0.8, 0.05),
    (3, 8, 1, 0.3, 0.8, 0.05),
    (1, 6, 4, 0.3, 0.8, 0.05),
    (200, 50, 1, 1e-4, 1.0, 1e-4),  # one panel at large KN
    (200, 50, 15, 1e-4, 1.0, 1e-4),
    (200, 20, 15, 0.3, 0.8, 0.05),
    (1000, 5, 3, 0.01, 1.0, 0.0),
    (1000, 50, 15, 0.3, 0.8, 0.05),  # lam = 1.5e4: the cut drops panels
])
def test_closed_form_matches_adaptive_reference(
        monkeypatch, devices, images, slots, pth, alpha_r, alpha_n):
    # an independent quadrature, so unlike the 30-digit test above this
    # one sees the rule's own error and the tail it cuts
    args = (devices, images, [slots], pth, alpha_r, alpha_n)
    reference, error = adaptive_mean_fraction(devices, images, slots, pth,
                                              alpha_r, alpha_n)
    assert error < 1e-20 * reference  # the reference itself is trustworthy
    fast = _mean_fractions(*args)[slots]
    monkeypatch.setattr(analytic, "_panel_rule", doubling_rule)
    doubled = _mean_fractions(*args)[slots]
    # at K = 1000 both rules sit near an arithmetic floor of about 1e-13
    assert abs(fast - reference) <= reference * max(
        1e-13, 2.0 * abs(doubled - reference) / reference)
    if devices <= 200:
        assert fast == pytest.approx(doubled, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lam", [0.5, 8.0, 150.0, 1e5])
def test_panel_rule_stops_where_the_tail_is_negligible(lam):
    # past s* = 48/lam the integrand's mass is below 3e-21 (analytic.py)
    stop = min(1.0, 48.0 / lam)
    nodes, weights = _panel_rule(lam)
    assert np.all((nodes > 0.0) & (nodes < stop))
    assert weights.sum() == pytest.approx(stop, rel=1e-14)
    if lam == 1e5:
        # panels run on to s = 1 would number 15
        assert len(nodes) <= 4 * analytic._PANEL_ORDER


def _peak_rss_kb(argv: list, out_dir) -> int:
    # a fresh interpreter, so its peak RSS is this command's alone
    code = ("import resource, sys\n"
            "import ecopull.cli\n"
            "assert ecopull.cli.main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code, *argv,
                           "--out", str(out_dir)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return int(done.stdout.strip().splitlines()[-1])  # KB on Linux


def test_closed_form_memory_stays_bounded_at_huge_libraries(tmp_path):
    # each of the rule's rows holds O(N), so the row count sets the peak
    argv = ["analyze", "--mode", "exact", "--set", "images_per_device=40000"]
    assert _peak_rss_kb(argv, tmp_path) < 400 * 1024


def test_grid_search_memory_stays_bounded_at_huge_libraries(tmp_path):
    # the search holds one law row per threshold, 31 x (N + 1), beside the
    # closed form's (node, load) arrays: neither may grow with the grid
    argv = ["optimize", "--set", "images_per_device=40000"]
    assert _peak_rss_kb(argv, tmp_path) < 200 * 1024


@pytest.mark.parametrize("devices, images, slots, pth, alpha_r, alpha_n", [
    (1000, 50, 1, 0.3, 0.8, 0.05),
    (5, 100, 15, 1e-6, 0.8, 0.05),
    (5, 100, 15, 0.3, 1.0, 0.0),
    (2, 1, 1, 0.3, 0.8, 0.05),
    (2, 1, 3, 0.3, 0.8, 0.05),
    (4, 5, 1, 1.0, 0.8, 0.05),  # every frame collides: all terms zero
])
def test_closed_form_stays_finite_on_degenerate_inputs(
        devices, images, slots, pth, alpha_r, alpha_n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _mean_fractions(devices, images, [slots], pth, alpha_r,
                                alpha_n)[slots]
    assert math.isfinite(value)
    assert 0.0 <= value <= 1.0


def test_exact_single_device_reduces_to_closed_form():
    cfg = cfg_for(1, 6, 4)
    offset, slope = sifi_affine(cfg)
    # one device never collides with itself
    assert expected_sifi_exact(cfg) == pytest.approx(offset + slope,
                                                     rel=1e-9)


def test_sifi_affine_rejects_a_frame_cap_below_the_library():
    # under a cap F < N a queued image may never be sent, so offset + slope
    # is not the one-device score: at F=2 it read 0.99606 against 0.87734
    with pytest.raises(ValueError, match="fixed_frames=2"):
        sifi_affine(cfg_for(1, 6, 4, fixed_frames=2))
    # a cap at or above N caps nothing
    uncapped = sifi_affine(cfg_for(1, 6, 4))
    for frames in (6, 7):
        assert sifi_affine(cfg_for(1, 6, 4, fixed_frames=frames)) == uncapped


BETA_TRUTH = {"truth_distribution": {"kind": "beta", "alpha": 2.0,
                                     "beta": 5.0}}


@pytest.mark.parametrize("truth", [{}, BETA_TRUTH], ids=["uniform", "beta"])
def test_zero_tail_scores_one_on_every_path(truth):
    # no image is actually relevant, so Omega = 0 in every round; no path
    # takes a branch of its own for it
    cfg = load_config({**truth, "truth_threshold": 1.0})
    rates = [1.0, 1.5, 2.0, 4.86]
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    rows = analytic.ScoreRows(cfg, rates)
    for vth in (0.5, 0.6, 0.8):
        assert rows.row(vth, p_th(vth, cfg.model_noise,
                                  cfg.truth_distribution),
                        range(len(rates))) == [1.0] * len(rates)
    offset, _, alpha_r, alpha_n = score_terms(cfg, pth)
    assert (offset, alpha_r, alpha_n) == (1.0, 0.0, 0.0)
    assert sifi_affine(cfg) == (1.0, 0.0)
    assert mcmc_expected_sifi(cfg, 200, 0).estimate == 1.0


@pytest.mark.parametrize("spec", [
    {},
    BETA_TRUTH,
    {"truth_threshold": 1.0},
    {"fixed_frames": 3, "truth_threshold": 0.5, "model_noise": 1e-4},
], ids=["default", "beta", "zero-tail", "capped"])
def test_chain_and_grid_read_the_same_alphas(spec):
    cfg = load_config(spec)
    rows = analytic.ScoreRows(cfg, [cfg.compression_rate])
    for vth in default_vth_grid():
        pth = p_th(vth, cfg.model_noise, cfg.truth_distribution)
        chain = score_terms(replace(cfg, relevance_threshold=vth), pth)
        assert chain[2:] == rows.alphas(vth, pth)
        assert chain[:2] == (rows.offset, rows.gains[0])


def test_exact_tracks_simulation_within_model_error():
    # 0.93403 at K=3, N=4, L=15, derived twice: the composition sum of the
    # per-round delivered fraction with G(R) convolved directly (as in
    # test_exact_matches_direct_multinomial_sum), and a closed form that
    # tags one image, treats device loads as iid and writes
    # 1/(1+x) = int t^x dt; the paper's per-frame factor gives 0.9465
    cfg = load_config({"device_count": 3, "images_per_device": 4})
    exact = expected_sifi_exact(cfg)
    agg = simulate(cfg, 40_000, 17)
    assert exact == pytest.approx(0.93403, abs=2e-3)
    assert abs(exact - agg.mean_sifi) < 0.02


def test_exact_matches_simulation_at_scale():
    # K=50, N=1000: about 10^86 compositions, far past any enumeration
    cfg = load_config({"device_count": 50, "images_per_device": 1000})
    agg = simulate(cfg, 200, 3)
    assert abs(expected_sifi_exact(cfg) - agg.mean_sifi) < 5 * agg.sifi_stderr


# --- Metropolis sampling -----------------------------------------------------

def test_mcmc_point_mass_scores_one():
    cfg = cfg_for(3, 4, 4, truth_threshold=1.0)
    assert mcmc_expected_sifi(cfg, 1, 0).estimate == 1.0


@pytest.mark.parametrize("frames", [1, 3, 10])
def test_exact_tracks_simulation_under_fixed_frames(frames):
    cfg = load_config({"fixed_frames": frames})
    agg = simulate(cfg, 20_000, 5)
    assert abs(expected_sifi_exact(cfg) - agg.mean_sifi) < 5 * agg.sifi_stderr


def test_rate_grid_rejects_nonpositive_rate():
    # with explicit slots no slot derivation would catch it
    with pytest.raises(ConfigError, match="compression_rate"):
        expected_sifi_over_rates(cfg_for(3, 4, 4), (1.0, 0.0))


def test_mcmc_honours_fixed_frames():
    cfg = cfg_for(5, 6, 15, fixed_frames=2)
    exact = expected_sifi_exact(cfg)
    assert exact < expected_sifi_exact(replace(cfg, fixed_frames=None))
    estimate = mcmc_expected_sifi(cfg, 10_000, 3).estimate
    assert abs(estimate - exact) < 0.01


def test_mcmc_is_deterministic():
    cfg = cfg_for(5, 6, 15)
    assert (mcmc_expected_sifi(cfg, 5000, 12).estimate
            == mcmc_expected_sifi(cfg, 5000, 12).estimate)


def test_mcmc_matches_exact_small_instance():
    cfg = cfg_for(5, 6, 15)
    exact = expected_sifi_exact(cfg)
    estimate = mcmc_expected_sifi(cfg, 10_000, 3).estimate
    assert abs(estimate - exact) < 0.01


def test_hastings_mode_removes_proposal_bias():
    cfg = cfg_for(5, 6, 2, relevance_threshold=0.5)
    exact = expected_sifi_exact(cfg)
    corrected = [mcmc_expected_sifi(cfg, 60_000, s, hastings=True).estimate
                 for s in (1, 2, 3)]
    assert abs(np.mean(corrected) - exact) < 0.005


def test_plain_ratio_chain_keeps_the_proposal_bias():
    # the paper's plain ratio ignores the proposal's asymmetry, so it
    # samples another law: here it reads about 0.86 where the score is 0.821
    cfg = cfg_for(2, 2, 1)
    exact = expected_sifi_exact(cfg)
    for seed in (1, 2, 3):
        plain = mcmc_expected_sifi(cfg, 50_000, seed, hastings=False)
        corrected = mcmc_expected_sifi(cfg, 50_000, seed)
        assert plain.estimate - exact > 0.02
        assert abs(corrected.estimate - exact) < 0.002


def test_chain_states_stay_valid():
    cfg = cfg_for(4, 6, 4)
    result = mcmc_expected_sifi(cfg, 20_000, 9, check_every=1)
    assert result.checked_states == 20_000
    assert result.invalid_states == 0
    assert 0.0 < result.acceptance_rate <= 1.0


def test_chain_visits_follow_pmf_in_corrected_mode():
    cfg = cfg_for(3, 2, 4)
    from ecopull import p_th
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    # thinned visits, so the chi-square independence assumption is sane
    result = mcmc_expected_sifi(cfg, 200_000, 31, hastings=True,
                                state_stride=20)
    states = list(compositions(3, 3))
    expected = np.array([realization_pmf(s, 2, 3, pth) for s in states])
    observed = np.array([result.state_counts.get(s, 0) for s in states],
                        dtype=float)
    _, pvalue = chisquare(observed, expected * observed.sum())
    assert pvalue > 0.01


def test_mcmc_estimate_stays_in_unit_interval():
    for seed in range(5):
        cfg = cfg_for(4, 5, 3, relevance_threshold=0.7)
        value = mcmc_expected_sifi(cfg, 2000, seed).estimate
        assert 0.0 <= value <= 1.0


def test_single_slot_channel_is_supported():
    # one slot: a frame delivers only when exactly one device is active
    cfg = cfg_for(2, 2, 1)
    exact = expected_sifi_exact(cfg)
    assert 0.0 <= exact <= 1.0
    # corrected chain: the plain ratio's bias peaks on one-slot channels
    sampled = mcmc_expected_sifi(cfg, 50_000, 7, hastings=True).estimate
    assert abs(exact - sampled) < 0.01


def test_trace_has_requested_length():
    cfg = cfg_for(3, 4, 5)
    result = mcmc_expected_sifi(cfg, 500, 2, keep_trace=True)
    assert result.success_trace.shape == (500,)
    assert np.all((result.success_trace >= 0) & (result.success_trace <= 1))


def test_chain_starts_in_typical_set():
    # without burn-in, a chain started far from the mode carries its
    # transient into the estimate at this size
    cfg = load_config({"device_count": 50, "images_per_device": 1000})
    exact = expected_sifi_exact(cfg)
    for seed in (1, 2, 3):
        sampled = mcmc_expected_sifi(cfg, 10_000, seed, burn_in=0).estimate
        assert abs(sampled - exact) < 0.002


def test_burn_in_discards_early_samples():
    cfg = cfg_for(5, 40, 10)
    cold = mcmc_expected_sifi(cfg, 2000, 4, burn_in=0)
    warm = mcmc_expected_sifi(cfg, 2000, 4, burn_in=500)
    assert cold.estimate != warm.estimate


def test_negative_burn_in_is_rejected():
    # a negative burn-in would run fewer steps than the chain averages over
    cfg = cfg_for(5, 6, 10)
    with pytest.raises(ValueError, match="burn_in"):
        mcmc_expected_sifi(cfg, 10, 0, burn_in=-5)


def test_negative_seed_is_rejected():
    cfg = cfg_for(5, 6, 10)
    with pytest.raises(ValueError, match=r"seed=-1 must be >= 0"):
        mcmc_expected_sifi(cfg, 10, -1)
