"""Paired, alternated, fresh-interpreter timing of two source checkouts.

A harness script defines ``measure()``, which times this interpreter's
``ecopull`` and returns one value per metric, in ms or, for a name ending
in ``_us``, in microseconds, or, for a name ending in ``_faults``, in page
faults per round, and calls
``run(doc, measure, progress)`` under its ``__main__`` check. Run from the
root of a source checkout, the harness then takes a second checkout to
compare against (for example the parent commit, unpacked with
``git archive``)::

    python3 tools/<harness>.py --parent ../parent --pairs 10 --out BENCH.json

Each pair runs one fresh interpreter per side, alternating which side runs
first; an interpreter imports ``ecopull`` from its side's ``src/``. The
report holds, per metric and side, every run's value, the median and the
quartiles, and how many pairs the change won.
"""

import os

# One thread per process, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def median_ms(call, repeats: int) -> float:
    """Median ms of ``repeats`` calls, after one warm-up call."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def empty_caches() -> None:
    """Empty ecopull's functools caches, as a fresh invocation starts."""
    for name, module in list(sys.modules.items()):
        if name == "ecopull" or name.startswith("ecopull."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _run_side(script: Path, checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, str(script), "--worker"],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_faults", "faults/round")):
        if name.endswith(suffix):
            return unit
    return "ms"


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def run(doc: str, measure, progress) -> int:
    """The harness's command line: a worker prints ``measure()`` as JSON;
    otherwise run the pairs, print ``progress`` metrics after each, and
    write the report."""
    script = Path(sys.argv[0]).resolve()
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
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
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run_side(script, sides[side]))
        print(f"pair {pair + 1}/{args.pairs}: "
              + "; ".join(f"{side} " + ", ".join(
                  f"{name} {runs[side][-1][name]:.1f}" for name in progress)
                  for side in ("parent", "change")),
              file=sys.stderr)

    metrics = {}
    for name in runs["parent"][0]:
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        metrics[name] = {
            "unit": _unit(name),
            "parent": _summary(parent),
            "change": _summary(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
        }
    report = {
        "harness": str(script.relative_to(ROOT)),
        "pairs": args.pairs,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({name: (m["parent"]["median"], m["change"]["median"])
                      for name, m in metrics.items()}))
    return 0
