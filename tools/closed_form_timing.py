"""Paired timing of the closed form for E[f] and of the design calls.

Run from the root of a source checkout, given a second checkout to compare
against (for example the parent commit, unpacked with ``git archive``)::

    python3 tools/closed_form_timing.py --parent ../parent --pairs 10 \
        --out BENCH_13.json

Each pair runs one fresh interpreter per side, alternating which side runs
first. An interpreter imports ``ecopull`` from its side's ``src/`` and
times, each as the median of several calls after one warm-up call:

- ``analytic._mean_fractions`` for one threshold of the default scenario
  at K=5, N=100 and at K=50, N=1000 (one slot count, the default rate's);
- one ``compare --n-grid 25,100 --gamma-th 0.8`` call (the benchmark's
  ``design`` workload) and one ``compare --n-grid 5:100:5 --gamma-th 0.8``
  call (the default library-size grid) through ``ecopull.cli.main``, each
  with ecopull's functools caches emptied first, as a fresh invocation
  starts.

The output holds, per metric and side, every run's value, the median and
the quartiles, and how many pairs the change won.
"""

import os

# One thread per process, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = ((5, 100, 50), (50, 1000, 10))  # (K, N, timed calls)
COMPARE_CALLS = 5
COMPARE_ARGVS = {
    "compare_ms": ["compare", "--n-grid", "25,100", "--gamma-th", "0.8"],
    "compare_default_grid_ms": ["compare", "--n-grid", "5:100:5",
                                "--gamma-th", "0.8"],
}


def _median_ms(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _empty_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "ecopull" or name.startswith("ecopull."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def measure() -> dict:
    """Time this interpreter's ``ecopull``; one value in ms per metric."""
    import ecopull.analytic as analytic
    import ecopull.cli as cli
    from ecopull import load_config, p_th

    result = {}
    for devices, images, repeats in SIZES:
        cfg = load_config({"device_count": devices,
                           "images_per_device": images})
        pth = p_th(cfg.relevance_threshold, cfg.model_noise,
                   cfg.truth_distribution)
        _, _, alpha_r, alpha_n = analytic.score_terms(cfg, pth)
        args = (devices, images, [cfg.frame_slots()], pth, alpha_r, alpha_n)
        result[f"mean_fractions_K{devices}_N{images}_ms"] = _median_ms(
            lambda: analytic._mean_fractions(*args), repeats)

    for name, argv in COMPARE_ARGVS.items():
        with tempfile.TemporaryDirectory() as out:
            argv = argv + ["--out", out]

            def design_call():
                _empty_caches()
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    if cli.main(argv) != 0:
                        raise RuntimeError(
                            f"compare failed: {sink.getvalue()}")

            result[name] = _median_ms(design_call, COMPARE_CALLS)
    return result


def _run_side(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--worker"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path,
                        help="source checkout to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path,
                        help="JSON report to write")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure()))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run_side(sides[side]))
        print(f"pair {pair + 1}/{args.pairs}: "
              + "; ".join(f"{side} " + ", ".join(
                  f"{runs[side][-1][name]:.1f}" for name in COMPARE_ARGVS)
                  + " ms" for side in ("parent", "change")),
              file=sys.stderr)

    metrics = {}
    for name in runs["parent"][0]:
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        metrics[name] = {
            "unit": "ms",
            "parent": _summary(parent),
            "change": _summary(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
        }
    report = {
        "harness": "tools/closed_form_timing.py",
        "pairs": args.pairs,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({name: (m["parent"]["median"], m["change"]["median"])
                      for name, m in metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
