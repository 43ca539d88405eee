"""Experiment harness: rate sweeps, constrained grid search, scheme comparison.

Each is one function of a config::

    rows = sweep_sifi_vs_rate(cfg, (1.0, 1.5, 2.0), mode="exact")
    best = optimize(cfg, 0.8).best      # a GridPoint, or None
    table = compare_schemes(cfg, [25, 100], 0.8)   # one CompareRow per N

The grid search scores points with the closed form
:func:`~ecopull.analytic.expected_sifi_exact`, so its feasibility boundary
and argmin carry no sampling noise and depend on no seed. It scores only
the points that are no dearer than the best feasible one found so far, and
all scored rates of one threshold in one call, which shares the
threshold's quadratures and sums over loads between them. The thresholds
share one binomial law and the energy's and score's per-size constants;
no config is built per threshold. Rate sweeps in
``mcmc`` mode run one Metropolis chain per grid point with the sweep's
seed; only a sweep that simulates imports the simulator. The default
grids come from ``ecopull._tabular.grid``; the CSV writer lives there too
and is exported as ``ecopull.render_csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ._binomial import saddle_logpmf
from ._tabular import grid
from .analytic import ScoreRows, expected_sifi_over_rates, mcmc_expected_sifi
from .baselines import baseline_energy, energy_saving_ratio, tinyairnet_energy
from .config import ScenarioConfig, _warn_if_penalty_below_distance
from .energy import expected_energy_grid, p_th

__all__ = [
    "SweepRow",
    "GridPoint",
    "OptimizationResult",
    "CompareRow",
    "sweep_sifi_vs_rate",
    "default_vth_grid",
    "default_rate_grid",
    "optimize",
    "compare_schemes",
]


@dataclass(frozen=True)
class SweepRow:
    rate: float
    slots: int
    sifi_mcmc: Optional[float] = None
    sifi_sim: Optional[float] = None
    sim_stderr: Optional[float] = None
    sifi_exact: Optional[float] = None


def sweep_sifi_vs_rate(cfg: ScenarioConfig, grid: Sequence[float], *,
                       mode: str = "mcmc", rounds: int = 10_000,
                       samples: int = 10_000, seed: int = 0
                       ) -> list[SweepRow]:
    """Evaluate the score across compression rates, one row per grid point.

    ``mode`` is ``mcmc`` (one chain of ``samples`` steps per rate),
    ``simulate`` (``rounds`` rounds per rate), ``exact`` (the closed form
    over all rates in one call) or ``both`` (chain and simulation). Each
    point's chain and simulation take ``seed``.
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sweep grid must be strictly increasing")
    if mode not in ("mcmc", "simulate", "exact", "both"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    exact_scores = (expected_sifi_over_rates(cfg, grid) if mode == "exact"
                    else [None] * len(grid))
    rows = []
    for rate, exact in zip(grid, exact_scores):
        # explicit slot counts stay fixed; otherwise L follows the rate
        point = replace(cfg, compression_rate=rate)
        mcmc = sim = stderr = None
        if mode in ("mcmc", "both"):
            mcmc = mcmc_expected_sifi(point, samples, seed).estimate
        if mode in ("simulate", "both"):
            # only a simulating sweep compiles the simulator
            from .sim import simulate
            aggregate = simulate(point, rounds, seed)
            sim = aggregate.mean_sifi
            stderr = aggregate.sifi_stderr
        rows.append(SweepRow(rate=rate, slots=point.frame_slots(),
                             sifi_mcmc=mcmc, sifi_sim=sim, sim_stderr=stderr,
                             sifi_exact=exact))
    return rows


@dataclass(frozen=True)
class GridPoint:
    relevance_threshold: float
    rate: float
    slots: int
    sifi: float
    expected_energy: float
    feasible: bool


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the constrained grid search.

    ``best`` is the optimum, or None when no point meets the score floor.
    ``grid`` holds the scored points in grid order, thresholds outer and
    rates inner: every point under ``optimize(..., full_grid=True)``,
    otherwise those the search did not prune. A pruned point costs more
    than the optimum; with no feasible point nothing is pruned.
    """

    best: Optional[GridPoint]
    grid: list[GridPoint] = field(repr=False)


def default_vth_grid() -> tuple[float, ...]:
    return grid(0.50, 0.80, 0.01)


def default_rate_grid() -> tuple[float, ...]:
    return grid(1.0, 2.0, 0.0667)


def optimize(cfg: ScenarioConfig, gamma_th: float,
             vth_grid: Optional[Sequence[float]] = None,
             rate_grid: Optional[Sequence[float]] = None,
             full_grid: bool = False) -> OptimizationResult:
    """Minimum expected energy over (threshold, rate) subject to a score floor.

    Every point's energy is taken first, one threshold row at a time
    (:func:`~ecopull.energy.expected_energy_grid`), and is bitwise
    ``expected_total_energy`` of the config at that point.
    Scoring is a branch and bound on those energies: thresholds are
    visited cheapest point first, a rate is scored only while its energy is
    at most the best feasible energy found so far (every rate is scored
    while none is feasible), and the search stops at the first threshold
    whose cheapest point costs more. A skipped point costs more than the
    optimum, so it cannot win; ``full_grid=True`` scores every point.

    A scored point's ``sifi`` and ``slots`` are bitwise
    :func:`expected_sifi_exact` and ``frame_slots()`` of the config at that
    point. Ties break deterministically: lowest energy, then highest
    score, then smallest rate, then smallest threshold. An empty feasible
    set is reported, not raised; an empty grid raises ``ValueError``. Like
    a config, it warns when the penalty is below the fidelity distance of
    its smallest rate.
    """
    if not 0.0 <= gamma_th <= 1.0:
        raise ValueError(f"gamma_th={gamma_th} outside [0, 1]")
    vth_grid = tuple(vth_grid) if vth_grid is not None else default_vth_grid()
    rate_grid = (tuple(rate_grid) if rate_grid is not None
                 else default_rate_grid())
    # nothing scored is not the same answer as nothing feasible
    if not vth_grid:
        raise ValueError("threshold grid must be nonempty")
    if not rate_grid:
        raise ValueError("rate grid must be nonempty")
    _warn_if_penalty_below_distance(cfg.penalty, min(rate_grid),
                                    stacklevel=3)

    # no config per threshold: the thresholds share one binomial law, the
    # energy's per-size constants and the score's (ScoreRows)
    pass_probabilities = [p_th(vth, cfg.model_noise, cfg.truth_distribution)
                          for vth in vth_grid]
    log_law = saddle_logpmf(cfg.images_per_device, pass_probabilities)
    energy_rows = expected_energy_grid(cfg, pass_probabilities, rate_grid,
                                       log_law)
    score_rows = ScoreRows(cfg, rate_grid)
    cheapest = [min(row) for row in energy_rows]
    scored: list[list[GridPoint]] = [[] for _ in vth_grid]
    best: Optional[GridPoint] = None
    best_key = None
    # the key compares energy first, so a point dearer than the best
    # feasible one can never win
    for i in sorted(range(len(vth_grid)), key=cheapest.__getitem__):
        bound = (math.inf if full_grid or best is None
                 else best.expected_energy)
        if cheapest[i] > bound:
            break
        columns = [j for j, energy in enumerate(energy_rows[i])
                   if energy <= bound]
        vth = vth_grid[i]
        scores = score_rows.row(vth, pass_probabilities[i], columns,
                                log_law[i])
        for j, sifi in zip(columns, scores):
            rate, energy = rate_grid[j], energy_rows[i][j]
            feasible = sifi >= gamma_th
            point = GridPoint(relevance_threshold=vth, rate=rate,
                              slots=score_rows.slots[j], sifi=sifi,
                              expected_energy=energy, feasible=feasible)
            scored[i].append(point)
            if feasible:
                key = (energy, -sifi, rate, vth)
                if best_key is None or key < best_key:
                    best_key = key
                    best = point
    return OptimizationResult(
        best=best, grid=[point for row in scored for point in row])


@dataclass(frozen=True)
class CompareRow:
    images_per_device: int
    eta_ecopull: float
    eta_tinyairnet: float
    relevance_threshold: Optional[float]
    rate: Optional[float]
    sifi: Optional[float]
    energy_ecopull: float
    energy_tinyairnet: float
    energy_baseline: float
    feasible: bool


def compare_schemes(cfg: ScenarioConfig, n_grid: Sequence[int],
                    gamma_th: float,
                    vth_grid: Optional[Sequence[float]] = None,
                    rate_grid: Optional[Sequence[float]] = None
                    ) -> list[CompareRow]:
    """Energy-saving ratios of each scheme, one row per library size.

    The TinyML scheme is re-optimized per library size; the filter-only and
    plain schemes are evaluated at the template's own threshold, keeping
    their curves independent of the optimizer's grid flips. A size with no
    feasible grid point reports NaN ratios and energies, bar the plain
    scheme's, and is flagged, rather than failing the whole comparison.
    """
    rows = []
    for n in n_grid:
        base_cfg = replace(cfg, images_per_device=int(n))
        best = optimize(base_cfg, gamma_th, vth_grid=vth_grid,
                        rate_grid=rate_grid).best
        base = baseline_energy(base_cfg)
        if best is None:
            eco = tiny = eta_eco = eta_tiny = math.nan
            vth = rate = sifi = None
        else:
            eco = best.expected_energy
            tiny = tinyairnet_energy(base_cfg)
            eta_eco = energy_saving_ratio(eco, base)
            eta_tiny = energy_saving_ratio(tiny, base)
            vth, rate, sifi = best.relevance_threshold, best.rate, best.sifi
        rows.append(CompareRow(
            images_per_device=int(n), eta_ecopull=eta_eco,
            eta_tinyairnet=eta_tiny,
            relevance_threshold=vth, rate=rate, sifi=sifi,
            energy_ecopull=eco, energy_tinyairnet=tiny,
            energy_baseline=base, feasible=best is not None))
    return rows

