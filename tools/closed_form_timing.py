"""Paired timing of the closed form for E[f] and of the design calls.

Run from the root of a source checkout, given a second checkout to compare
against (for example the parent commit, unpacked with ``git archive``)::

    python3 tools/closed_form_timing.py --parent ../parent --pairs 10 \
        --out BENCH.json

Each pair runs one fresh interpreter per side, alternating which side runs
first. An interpreter imports ``ecopull`` from its side's ``src/`` and
times, each as the median of several calls after one warm-up call:

- ``analytic._mean_fractions`` for one threshold of the default scenario
  at K=5, N=100, at K=50, N=1000 and at K=5, N=10000, the large-library
  path (one slot count, the default rate's);
- one ``optimize`` search of the default scenario at ``--gamma-th 0.8``
  over the default grid, at N=25 and at N=100, with ecopull's functools
  caches emptied first, as a fresh invocation starts;
- the binomial law ``_binomial.saddle_logpmf`` at N=25 and at N=100
  for the 31 pass probabilities of the default threshold grid, in one
  call, and at N=100 for the default threshold's alone (one row, in µs);
- one ``compare --n-grid 25,100 --gamma-th 0.8`` call (the benchmark's
  ``design`` workload), one ``compare --n-grid 5:100:5 --gamma-th 0.8``
  call (the default library-size grid) and one ``expected-energy
  --vth-grid 0.5:0.8:0.01 --r-grid 1:2:0.0667`` call (the search's
  threshold and rate grids) through ``ecopull.cli.main``, each with
  ecopull's functools caches emptied first, as a fresh invocation starts.

The pairing and the report are ``tools/paired_timing.py``'s.
"""

import contextlib
import io
import tempfile

from paired_timing import empty_caches, median_ms, run

SIZES = ((5, 100, 50), (50, 1000, 10), (5, 10000, 3))  # (K, N, calls)
OPTIMIZE_SIZES = (25, 100)
OPTIMIZE_CALLS = 20
LAW_SIZES = (25, 100)
LAW_CALLS = 50
CLI_CALLS = 5
CLI_ARGVS = {
    "compare_ms": ["compare", "--n-grid", "25,100", "--gamma-th", "0.8"],
    "compare_default_grid_ms": ["compare", "--n-grid", "5:100:5",
                                "--gamma-th", "0.8"],
    "expected_energy_ms": ["expected-energy", "--vth-grid", "0.5:0.8:0.01",
                           "--r-grid", "1:2:0.0667"],
}


def measure() -> dict:
    """Time this interpreter's ``ecopull``; one value in ms per metric."""
    import numpy as np

    import ecopull.analytic as analytic
    import ecopull.cli as cli
    from ecopull import (_binomial, default_vth_grid, load_config, optimize,
                         p_th)

    result = {}
    for devices, images, repeats in SIZES:
        cfg = load_config({"device_count": devices,
                           "images_per_device": images})
        pth = p_th(cfg.relevance_threshold, cfg.model_noise,
                   cfg.truth_distribution)
        _, _, alpha_r, alpha_n = analytic.score_terms(cfg, pth)
        args = (devices, images, [cfg.frame_slots()], pth, alpha_r, alpha_n)
        result[f"mean_fractions_K{devices}_N{images}_ms"] = median_ms(
            lambda: analytic._mean_fractions(*args), repeats)

    for images in OPTIMIZE_SIZES:
        cfg = load_config({"images_per_device": images})

        def search():
            empty_caches()
            optimize(cfg, 0.8)

        result[f"optimize_N{images}_ms"] = median_ms(search, OPTIMIZE_CALLS)

    cfg = load_config(None)
    probabilities = np.array([p_th(vth, cfg.model_noise,
                                   cfg.truth_distribution)
                              for vth in default_vth_grid()])
    for size in LAW_SIZES:
        result[f"saddle_logpmf_grid_N{size}_ms"] = median_ms(
            lambda: _binomial.saddle_logpmf(size, probabilities), LAW_CALLS)
    one = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    result["saddle_logpmf_row_N100_us"] = 1e3 * median_ms(
        lambda: _binomial.saddle_logpmf(100, one), LAW_CALLS)

    for name, argv in CLI_ARGVS.items():
        with tempfile.TemporaryDirectory() as out:
            argv = argv + ["--out", out]

            def cli_call():
                empty_caches()
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    if cli.main(argv) != 0:
                        raise RuntimeError(
                            f"{argv[0]} failed: {sink.getvalue()}")

            result[name] = median_ms(cli_call, CLI_CALLS)
    return result


if __name__ == "__main__":
    raise SystemExit(run(__doc__, measure, CLI_ARGVS))
