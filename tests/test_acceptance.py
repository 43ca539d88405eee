"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Every criterion is asserted at its stated tolerance and a
failing one prints a full table. The analysis scores each composition by
the exact per-round delivered fraction the simulator scores and samples
with the corrected chain, which criteria 1 and 2 check against simulation.
Criterion 6's grid search scores every point with the closed form. It fails
on its band and its break-even crossing only: the energy terms in this
repository do not reach its absolute energy-ratio targets (see the README).
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from ecopull import (compare_schemes, expected_sifi_exact,
                     expected_total_energy, fixed_overhead_energy,
                     load_config, mcmc_expected_sifi, p_th,
                     per_relevant_image_energy, simulate, UniformTruth)
from ecopull.cli import main as cli_main
from ecopull.experiments import sweep_sifi_vs_rate
from reference import (compositions, expected_energy_by_count,
                       realization_pmf)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_analysis_vs_simulation_agreement():
    """MCMC estimate within 0.02 of the simulated mean at every grid point."""
    tolerance = 0.02
    rows = []
    failures = []
    for coeff in (2, 5, 10):
        for rate in (1.0, 1.5, 2.0, 3.0, 4.5):
            cfg = load_config({"slot_coefficient": coeff,
                               "compression_rate": rate})
            analytic = mcmc_expected_sifi(cfg, 10_000, 1).estimate
            simulated = simulate(cfg, 10_000, 1).mean_sifi
            diff = abs(analytic - simulated)
            rows.append(f"c_L={coeff} r={rate} L={cfg.frame_slots()}: "
                        f"mcmc={analytic:.4f} sim={simulated:.4f} "
                        f"|diff|={diff:.4f}")
            if diff > tolerance:
                failures.append(rows[-1])
    ok = not failures
    report(1, ok, f"{len(failures)}/15 points exceed {tolerance}")
    assert ok, "analysis/simulation gap exceeds 0.02 at:\n" + "\n".join(rows)


def test_criterion_2_exact_oracle_equivalence():
    """Exact enumeration within 0.01 of simulation and of the MCMC estimate."""
    tolerance = 0.01
    rows = []
    sim_failures = mcmc_failures = 0
    for devices, images, slots, vth in itertools.product(
            (2, 3, 5), (2, 4, 6), (2, 4), (0.5, 0.7)):
        cfg = load_config({"device_count": devices,
                           "images_per_device": images,
                           "slots_per_frame": slots,
                           "slot_coefficient": None,
                           "relevance_threshold": vth})
        exact = expected_sifi_exact(cfg)
        sampled = mcmc_expected_sifi(cfg, 100_000, 2).estimate
        simulated = simulate(cfg, 100_000, 2).mean_sifi
        d_sim = abs(exact - simulated)
        d_mcmc = abs(exact - sampled)
        sim_failures += d_sim > tolerance
        mcmc_failures += d_mcmc > tolerance
        rows.append(f"K={devices} N={images} L={slots} Vth={vth}: "
                    f"exact={exact:.4f} mcmc={sampled:.4f} "
                    f"sim={simulated:.4f} |e-m|={d_mcmc:.4f} "
                    f"|e-s|={d_sim:.4f}")
    ok = sim_failures == 0 and mcmc_failures == 0
    report(2, ok, f"sim leg {sim_failures}/36 over {tolerance}, "
                  f"mcmc leg {mcmc_failures}/36 over {tolerance}")
    assert ok, "exact-oracle equivalence misses 0.01 at:\n" + "\n".join(rows)


def test_criterion_3_threshold_probability_consistency():
    """Quadrature matches brute-force thresholding of the noisy score."""
    truth = UniformTruth()
    rng = np.random.default_rng(20240817)
    n = 10 ** 6
    beta = rng.random(n)
    score = beta + rng.normal(0.0, 0.125, n)
    worst = 0.0
    for vth in (0.5, 0.6, 0.7, 0.8):
        quadrature = p_th(vth, 0.125, truth)
        empirical = float((score >= vth).mean())
        worst = max(worst, abs(quadrature - empirical))
    step_worst = max(abs(p_th(vth, 1e-6, truth) - (1.0 - vth))
                     for vth in (0.5, 0.6, 0.7, 0.8))
    ok = worst <= 2e-3 and step_worst <= 1e-4
    report(3, ok, f"max |quad-mc|={worst:.2e} (tol 2e-3), "
                  f"max step error={step_worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_4_energy_identity():
    """Count-sum form equals the closed form and the simulated mean."""
    cfg = load_config()
    by_sum = expected_energy_by_count(cfg)
    closed = expected_total_energy(cfg)
    identity_err = abs(by_sum - closed) / closed
    direct = (cfg.images_per_device
              * p_th(cfg.relevance_threshold, cfg.model_noise,
                     cfg.truth_distribution)
              * per_relevant_image_energy(cfg) + fixed_overhead_energy(cfg))
    direct_err = abs(by_sum - direct) / direct
    aggregate = simulate(cfg, 10_000, 77)
    gap = abs(aggregate.mean_total_energy - by_sum)
    margin = 3 * aggregate.total_energy_stderr
    ok = identity_err <= 1e-9 and direct_err <= 1e-9 and gap <= margin
    report(4, ok, f"identity rel err={identity_err:.2e} (tol 1e-9), "
                  f"sim gap={gap:.3f} J vs 3SE={margin:.3f} J")
    assert ok


def test_criterion_5_rate_sweep_shape():
    """Interior optimum in rate, monotone segments, more slots dominate."""
    grid = tuple(round(1.0 + 0.1 * k, 10) for k in range(39))  # 1.0..4.8
    sweeps = {}
    for coeff in (2, 5, 10):
        cfg = load_config({"slot_coefficient": coeff})
        sweeps[coeff] = sweep_sifi_vs_rate(cfg, grid, mode="mcmc",
                                           samples=10_000, seed=4)
    values = [row.sifi_mcmc for row in sweeps[5]]
    best = int(np.argmax(values))
    interior = 0 < best < len(values) - 1 \
        and values[best] > values[0] and values[best] > values[-1]
    monotone = all(
        b.sifi_mcmc >= a.sifi_mcmc - 1e-12
        for a, b in zip(sweeps[5], sweeps[5][1:]) if a.slots == b.slots)
    dominated = all(h.sifi_mcmc >= l.sifi_mcmc - 1e-12
                    for h, l in zip(sweeps[10], sweeps[2]))
    ok = interior and monotone and dominated
    report(5, ok, f"interior max at r={sweeps[5][best].rate} "
                  f"(sifi={values[best]:.4f}); monotone segments={monotone}; "
                  f"c_L=10 dominates c_L=2: {dominated}")
    assert ok


@pytest.fixture(scope="module")
def comparison():
    cfg = load_config()
    return compare_schemes(cfg, range(5, 101, 5), 0.8)


def test_criterion_6_baseline_comparison(comparison):
    """Ratio curves: shape, ordering, endpoint, and the break-even crossing."""
    rows = comparison
    feasible_all = all(row.feasible for row in rows)
    eco = [row.eta_ecopull for row in rows]
    tiny = [row.eta_tinyairnet for row in rows]
    ns = [row.images_per_device for row in rows]

    decreasing = (all(b < a for a, b in zip(eco, eco[1:]))
                  and all(b < a for a, b in zip(tiny, tiny[1:])))
    ordered = all(e < t for n, e, t in zip(ns, eco, tiny) if n >= 30)
    final = eco[ns.index(100)]
    saves_enough = final <= 0.30
    within_band = abs(final - 0.2250) <= 0.08
    crossings = [n for n, a, b in zip(ns[1:], eco, eco[1:])
                 if a >= 1.0 > b]
    crossing_in_window = any(10 <= n <= 30 for n in crossings)

    detail = (f"feasible={feasible_all}; (a) decreasing={decreasing}; "
              f"(b) ordering N>=30={ordered}; "
              f"(c) eta(100)={final:.4f} <=0.30:{saves_enough} "
              f"band |{final:.4f}-0.2250|<=0.08:{within_band}; "
              f"(d) crossings at {crossings or 'none'} "
              f"in [10,30]:{crossing_in_window}")
    ok = feasible_all and decreasing and ordered and saves_enough \
        and within_band and crossing_in_window
    report(6, ok, detail)
    table = "\n".join(
        f"N={row.images_per_device:3d} eta_eco={row.eta_ecopull:.4f} "
        f"eta_tiny={row.eta_tinyairnet:.4f} vth={row.relevance_threshold} "
        f"r={row.rate}" for row in rows)
    assert ok, detail + "\n" + table


def _run_twice(tmp_path: Path, name: str, argv: list[str]) -> bool:
    outputs = []
    for attempt in ("a", "b"):
        directory = tmp_path / f"{name}_{attempt}"
        rc = cli_main(argv + ["--out", str(directory)])
        assert rc == 0
        payload = {f.name: f.read_bytes()
                   for f in sorted(directory.glob("*.csv"))}
        assert payload, f"{name} produced no CSV"
        outputs.append(payload)
    return outputs[0] == outputs[1]


def test_criterion_7_cli_determinism(tmp_path):
    """Every command yields byte-identical CSV under a fixed seed."""
    shrink = ["--set", "images_per_device=6", "--set", "device_count=3"]
    commands = {
        "print-config": ["print-config"],
        "simulate": ["simulate", "--rounds", "60", "--seed", "5",
                     "--per-round", *shrink],
        "analyze": ["analyze", "--mode", "mcmc", "--samples", "2000",
                    "--seed", "5", "--trace", *shrink],
        "sweep": ["sweep-sifi", "--grid", "1.0,2.0,3.0", "--mode", "both",
                  "--rounds", "100", "--samples", "1000", "--seed", "5",
                  *shrink],
        "optimize": ["optimize", "--gamma-th", "0.5", "--samples", "500",
                     "--seed", "5", "--full-grid", *shrink],
        "compare": ["compare", "--n-grid", "5,10", "--gamma-th", "0.5",
                    "--samples", "500", "--seed", "5"],
        "energy-breakdown": ["energy-breakdown"],
        "expected-energy": ["expected-energy", "--vth-grid", "0.5,0.7",
                            "--r-grid", "1.0,2.0"],
    }
    stable = {}
    for name, argv in commands.items():
        if name == "print-config":
            first = cli_main(argv + ["--out", str(tmp_path / "pc_a")])
            second = cli_main(argv + ["--out", str(tmp_path / "pc_b")])
            assert first == second == 0
            stable[name] = ((tmp_path / "pc_a" / "config.json").read_bytes()
                            == (tmp_path / "pc_b" / "config.json").read_bytes())
        else:
            stable[name] = _run_twice(tmp_path, name, argv)
    ok = all(stable.values())
    report(7, ok, "byte-identical outputs: "
           + ", ".join(f"{k}={v}" for k, v in stable.items()))
    assert ok


def test_criterion_8_chain_validity_and_stationarity():
    """State constraints hold on every step; corrected chain matches the pmf."""
    cfg = load_config({"device_count": 5, "images_per_device": 6})
    verbatim = mcmc_expected_sifi(cfg, 10 ** 6, 3, check_every=1)
    valid = (verbatim.invalid_states == 0
             and verbatim.checked_states == 10 ** 6)

    tiny = load_config({"device_count": 3, "images_per_device": 2,
                        "slots_per_frame": 4, "slot_coefficient": None})
    pth = p_th(tiny.relevance_threshold, tiny.model_noise,
               tiny.truth_distribution)
    # thin the recorded visits so the chi-square iid approximation applies
    corrected = mcmc_expected_sifi(tiny, 10 ** 6, 13, hastings=True,
                                   state_stride=25, check_every=1)
    states = list(compositions(3, 3))
    weights = np.array([realization_pmf(s, 2, 3, pth) for s in states])
    observed = np.array([corrected.state_counts.get(s, 0) for s in states],
                        dtype=float)
    assert abs(weights.sum() - 1.0) < 1e-12
    _, pvalue = chisquare(observed, weights * observed.sum())
    chain_ok = (corrected.invalid_states == 0
                and corrected.checked_states == 10 ** 6)
    ok = valid and chain_ok and pvalue > 0.01
    report(8, ok, f"invalid states: {verbatim.invalid_states} + "
                  f"{corrected.invalid_states} of 2e6; "
                  f"chi-square p={pvalue:.4f} (needs > 0.01)")
    assert ok
