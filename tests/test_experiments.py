import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from ecopull import (ScenarioConfig, compare_schemes,
                     expected_sifi_exact, expected_total_energy, load_config,
                     optimize, render_csv, slots_for_rate, sweep_sifi_vs_rate)
from ecopull.cli import main as cli_main
from ecopull.experiments import default_rate_grid, default_vth_grid
from ecopull.svgplot import line_chart


def _empty_caches():
    for name, module in list(sys.modules.items()):
        if name == "ecopull" or name.startswith("ecopull."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_slots_for_rate_reference_points():
    assert slots_for_rate(1.2, 5) == 25
    assert slots_for_rate(4.86, 5) == 5
    assert slots_for_rate(2.5, 2) == 4


def test_slots_for_rate_nonincreasing():
    grid = [0.5 + 0.05 * k for k in range(90)]
    values = [slots_for_rate(r, 5) for r in grid]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_default_grids():
    vth = default_vth_grid()
    assert vth[0] == 0.50 and vth[-1] == 0.80 and len(vth) == 31
    rates = default_rate_grid()
    assert rates[0] == 1.0 and len(rates) == 15
    assert rates[-1] <= 2.0


def test_sweep_spec_validation():
    cfg = load_config()
    with pytest.raises(ValueError, match="increasing"):
        sweep_sifi_vs_rate(cfg, (1.0, 1.0))
    with pytest.raises(ValueError, match="nonempty"):
        sweep_sifi_vs_rate(cfg, ())
    with pytest.raises(ValueError, match="mode"):
        sweep_sifi_vs_rate(cfg, (1.0,), mode="guess")


def test_sweep_rows_and_slot_derivation():
    cfg = load_config({"images_per_device": 20})
    rows = sweep_sifi_vs_rate(cfg, (1.0, 1.5, 2.0, 3.0), mode="mcmc",
                              samples=2000, seed=5)
    assert [r.slots for r in rows] == [slots_for_rate(r.rate, 5)
                                       for r in rows]
    assert all(r.sifi_mcmc is not None and r.sifi_sim is None for r in rows)


def test_sweep_both_modes_fill_both_columns():
    cfg = load_config({"images_per_device": 10})
    rows = sweep_sifi_vs_rate(cfg, (1.0, 2.0), mode="both", rounds=300,
                              samples=1000, seed=5)
    for row in rows:
        assert row.sifi_mcmc is not None
        assert row.sifi_sim is not None
        assert row.sim_stderr is not None


def test_sweep_monotone_within_constant_slot_segments():
    cfg = load_config({"images_per_device": 30})
    grid = tuple(round(1.0 + 0.1 * k, 10) for k in range(20))
    rows = sweep_sifi_vs_rate(cfg, grid, mode="mcmc", samples=3000, seed=8)
    for a, b in zip(rows, rows[1:]):
        if a.slots == b.slots:
            assert b.sifi_mcmc >= a.sifi_mcmc - 1e-12


def test_sweep_is_deterministic():
    cfg = load_config({"images_per_device": 15})
    spec = dict(mode="both", rounds=200, samples=800, seed=3)
    assert (sweep_sifi_vs_rate(cfg, (1.0, 1.6, 2.4), **spec)
            == sweep_sifi_vs_rate(cfg, (1.0, 1.6, 2.4), **spec))


def test_score_memo_separates_truth_thresholds():
    # same pass probability and slot count; only the relevance pair differs
    strict = load_config({"images_per_device": 12})
    loose = load_config({"images_per_device": 12, "truth_threshold": 0.7})
    _empty_caches()
    cold = expected_sifi_exact(loose)
    _empty_caches()
    assert expected_sifi_exact(strict) != cold
    assert expected_sifi_exact(loose) == cold


SINGLE_POINT_SPECS = {
    "uniform": {},
    "beta": {"truth_distribution": {"kind": "beta", "alpha": 2, "beta": 5}},
    "fixed_frames": {"fixed_frames": 3},
    "K20": {"device_count": 20},
    "K1": {"device_count": 1},
    "noise1e-6": {"model_noise": 1e-6},
    "none-relevant": {"truth_threshold": 1.0},
}


def test_grid_points_equal_single_point_evaluation():
    # the grid scores one threshold row at a time from per-size constants;
    # every value must be the single-point one, bit for bit
    for name, spec in SINGLE_POINT_SPECS.items():
        for images in (5, 100):
            cfg = load_config(dict(spec, images_per_device=images))
            result = optimize(cfg, 0.8, full_grid=True)
            assert len(result.grid) == (len(default_vth_grid())
                                        * len(default_rate_grid()))
            for point in result.grid:
                single = replace(
                    cfg, relevance_threshold=point.relevance_threshold,
                    compression_rate=point.rate)
                case = (name, images, point)
                assert point.sifi == expected_sifi_exact(single), case
                assert (point.expected_energy
                        == expected_total_energy(single)), case
                assert point.slots == single.frame_slots(), case


def test_search_builds_no_config_per_threshold(monkeypatch):
    # the thresholds share the scenario's per-size constants, so the
    # search validates no config of its own
    cfg = load_config({"images_per_device": 25})
    built = []
    validate = ScenarioConfig.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(ScenarioConfig, "__post_init__", counted)
    optimize(cfg, 0.8, full_grid=True)
    assert built == []


@pytest.mark.parametrize("spec", [
    {},
    {"truth_distribution": {"kind": "beta", "alpha": 2, "beta": 5}},
    {"fixed_frames": 3},
    {"device_count": 20},
], ids=["uniform", "beta", "fixed_frames", "K20"])
def test_pruned_search_matches_the_full_grid(spec):
    # the pruned search may skip only points dearer than the optimum; with
    # no feasible point it must score them all
    base = load_config(spec)
    for images in (5, 25, 50, 100):
        cfg = replace(base, images_per_device=images)
        for gamma_th in (0.6, 0.7, 0.8, 0.85, 0.9):
            full = optimize(cfg, gamma_th, full_grid=True)
            pruned = optimize(cfg, gamma_th)
            assert replace(pruned, grid=[]) == replace(full, grid=[])
            kept = {(p.relevance_threshold, p.rate) for p in pruned.grid}
            assert pruned.grid == [
                p for p in full.grid
                if (p.relevance_threshold, p.rate) in kept]
            missing = [p for p in full.grid
                       if (p.relevance_threshold, p.rate) not in kept]
            if full.best is not None:
                assert all(p.expected_energy > full.best.expected_energy
                           for p in missing)
            else:
                assert missing == []


def test_sweep_exact_rows_equal_single_point_evaluation():
    cfg = load_config({"images_per_device": 20, "truth_threshold": 0.8})
    grid = (1.0, 1.2, 1.6, 2.4, 4.86)
    rows = sweep_sifi_vs_rate(cfg, grid, mode="exact")
    for row in rows:
        single = replace(cfg, compression_rate=row.rate)
        assert row.sifi_exact == expected_sifi_exact(single)


def test_optimum_meets_floor_exactly():
    # at N=55 a 10k-step chain scored (0.72, 1.2001) at 0.800053, over the
    # floor, while its exact score is 0.799722
    cfg = load_config({"images_per_device": 55})
    best = optimize(cfg, 0.8).best
    assert best is not None
    chosen = replace(cfg, relevance_threshold=best.relevance_threshold,
                     compression_rate=best.rate)
    exact = expected_sifi_exact(chosen)
    assert exact >= 0.8
    assert best.sifi == exact


def test_compare_output_does_not_depend_on_seed(tmp_path):
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert cli_main(["compare", "--n-grid", "10,40", "--gamma-th", "0.8",
                         "--seed", seed, "--out", str(out)]) == 0
        outputs.append((out / "compare.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_optimize_unconstrained_returns_energy_minimum():
    cfg = load_config({"images_per_device": 12})
    result = optimize(cfg, 0.0, vth_grid=(0.5, 0.6, 0.7),
                      rate_grid=(1.0, 1.5))
    best = result.best
    assert best is not None
    energies = [p.expected_energy for p in result.grid]
    assert best.expected_energy == min(energies)
    # the score floor is vacuous, so the cheapest point wins outright
    assert best.relevance_threshold == 0.7
    assert best.rate == 1.0


def test_optimize_impossible_floor_reports_infeasible():
    cfg = load_config({"images_per_device": 12})
    result = optimize(cfg, 1.0, vth_grid=(0.5, 0.6), rate_grid=(1.0,))
    assert result.best is None
    assert len(result.grid) == 2


def test_optimize_result_is_rederivable():
    cfg = load_config({"images_per_device": 40})
    best = optimize(cfg, 0.8, vth_grid=(0.55, 0.65, 0.75),
                    rate_grid=(1.0, 1.3, 1.6)).best
    assert best is not None
    chosen = replace(cfg, relevance_threshold=best.relevance_threshold,
                     compression_rate=best.rate)
    assert expected_total_energy(chosen) == pytest.approx(
        best.expected_energy, rel=1e-12)
    assert best.sifi >= 0.8


def test_optimize_tie_break_prefers_small_rate_then_threshold():
    cfg = load_config({"images_per_device": 8})
    best = optimize(cfg, 0.0, vth_grid=(0.6, 0.7), rate_grid=(1.0, 1.2)).best
    # energy rises with rate and falls with threshold, so the winner is the
    # highest threshold at the smallest rate
    assert (best.relevance_threshold, best.rate) == (0.7, 1.0)


def test_optimize_warns_on_grid_rates_below_the_penalty():
    # the config's own rate (2.0) passes; the grid's r = 1 has k_d = 0.0725
    cfg = load_config({"penalty": 0.05, "images_per_device": 8})
    with pytest.warns(UserWarning, match="penalty"):
        optimize(cfg, 0.5, vth_grid=(0.6,), rate_grid=(1.0, 2.0))


def test_optimize_default_grid_does_not_warn():
    cfg = load_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimize(cfg, 0.8)


def test_optimize_rejects_bad_floor():
    cfg = load_config()
    with pytest.raises(ValueError, match="gamma_th"):
        optimize(cfg, 1.5)


@pytest.mark.parametrize("grids, name", [
    ({"rate_grid": ()}, "rate grid"),
    ({"vth_grid": ()}, "threshold grid"),
    ({"vth_grid": (), "rate_grid": ()}, "threshold grid"),
])
def test_optimize_rejects_an_empty_grid(grids, name):
    # nothing scored is not "no point meets the floor"
    cfg = load_config({"images_per_device": 8})
    with pytest.raises(ValueError, match=f"{name} must be nonempty"):
        optimize(cfg, 0.8, **grids)
    with pytest.raises(ValueError, match=f"{name} must be nonempty"):
        compare_schemes(cfg, [5], 0.8, **grids)


def test_compare_rows_and_ratio_consistency():
    cfg = load_config()
    rows = compare_schemes(cfg, [10, 30], 0.8, vth_grid=(0.55, 0.65, 0.75),
                           rate_grid=(1.0, 1.5))
    assert [row.images_per_device for row in rows] == [10, 30]
    for row in rows:
        assert row.feasible
        assert row.eta_ecopull == pytest.approx(
            row.energy_ecopull / row.energy_baseline, rel=1e-12)
        assert row.eta_tinyairnet == pytest.approx(
            row.energy_tinyairnet / row.energy_baseline, rel=1e-12)


def test_csv_rendering_uses_nine_significant_digits():
    text = render_csv(["a", "b", "c", "d"],
                      [[1.23456789012345, 7, None, True]])
    assert text == "a,b,c,d\n1.23456789,7,,true\n"
    assert render_csv(["x"], [[0.1]]) == "x\n0.1\n"


def test_svg_chart_is_well_formed():
    svg = line_chart([("a", [1, 2, 3], [0.2, 0.5, 0.4]),
                      ("b", [1, 2, 3], [0.3, 0.1, 0.6])],
                     title="t", x_label="x", y_label="y")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    with pytest.raises(ValueError):
        line_chart([])


def _fresh_interpreter(code, *args):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_commands_do_not_import_scipy_stats(tmp_path):
    # scipy.stats costs most of the package's import time; it must stay out
    # of the import and of the score paths, not move into the first call,
    # also when one interpreter runs commands back to back
    code = (
        "import sys\n"
        "import ecopull, ecopull.cli\n"
        "ecopull.load_config(None)\n"
        "out = sys.argv[1]\n"
        "assert ecopull.cli.main(['compare', '--n-grid', '5', '--out', out]) == 0\n"
        "assert ecopull.cli.main(['analyze', '--mode', 'exact', '--set',\n"
        "                         'images_per_device=10', '--out', out]) == 0\n"
        "print('scipy.stats' in sys.modules)\n")
    assert _fresh_interpreter(code, tmp_path) == "False"


# what the setup code (import ecopull and ecopull.cli, load the default
# config) loads, and what a command must not load on top of it
_SETUP_MODULES = ["ecopull", "ecopull._tabular", "ecopull.cli",
                  "ecopull.config", "ecopull.sifi"]
_NOT_LOADED_BY = {
    "simulate": {"ecopull.analytic", "ecopull.experiments",
                 "ecopull.baselines", "ecopull.svgplot"},
    "optimize": {"ecopull.sim", "ecopull.svgplot"},
    "compare": {"ecopull.sim", "ecopull.svgplot"},
    # a chart is drawn only when --format asks to write one
    "sweep-sifi": {"ecopull.sim", "ecopull.svgplot"},
}


def test_numpy_only_commands_load_no_scipy(tmp_path):
    # the filtered masses, the incomplete beta, the normal tail and both
    # score paths' log P(c) run on numpy, for a uniform and a Beta truth;
    # scipy.stats alone costs more than the package's whole import. Each
    # command runs in its own fresh interpreter, so its ecopull modules
    # are the ones it loads.
    beta = ["--set", "truth_distribution.kind=beta",
            "--set", "truth_distribution.alpha=2",
            "--set", "truth_distribution.beta=5"]
    code = (
        "import json, sys\n"
        "import ecopull, ecopull.cli\n"
        "ecopull.load_config(None)\n"
        "setup = sorted(m for m in sys.modules if m.startswith('ecopull'))\n"
        "random = 'numpy.random' in sys.modules\n"
        "argv = json.loads(sys.argv[2]) + ['--out', sys.argv[1]]\n"
        "assert ecopull.cli.main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.startswith(('ecopull', 'scipy')))\n"
        "print(json.dumps([setup, random, loaded]))\n")
    for argv in (["print-config"], ["simulate", "--rounds", "50"],
                 ["compare", "--n-grid", "5"],
                 ["optimize", "--set", "images_per_device=10"],
                 ["analyze", "--mode", "exact", "--set",
                  "images_per_device=10"],
                 ["analyze", "--mode", "mcmc", "--samples", "200"],
                 ["sweep-sifi", "--mode", "mcmc", "--grid", "1.0,2.0",
                  "--samples", "200"],
                 ["energy-breakdown"], ["expected-energy"],
                 ["compare", "--n-grid", "5", *beta],
                 ["analyze", "--mode", "exact", *beta]):
        setup, random, loaded = json.loads(
            _fresh_interpreter(code, tmp_path, json.dumps(argv)))
        assert setup == _SETUP_MODULES
        # only the simulator and the chain draw random numbers
        assert not random
        assert not [m for m in loaded if m.startswith("scipy")], argv
        if argv[0] == "print-config":
            assert loaded == _SETUP_MODULES
        assert not set(loaded) & _NOT_LOADED_BY.get(argv[0], set()), argv


def test_beta_truth_loads_no_scipy_stats(tmp_path):
    # building and validating a Beta truth, and its pass mass, run on the
    # numpy incomplete beta: no scipy module loads, scipy.stats included
    code = (
        "import sys\n"
        "import ecopull, ecopull.energy\n"
        "cfg = ecopull.load_config({'truth_distribution':\n"
        "                           {'kind': 'beta', 'alpha': 2, 'beta': 5}})\n"
        "p = ecopull.energy.p_th(cfg.relevance_threshold, cfg.model_noise,\n"
        "                        cfg.truth_distribution)\n"
        "assert 0.0 < p < 1.0, p\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert _fresh_interpreter(code, tmp_path) == "[]"
