"""ecopull benchmark: end-to-end and per-layer timings of the ecopull CLI.

Run from the root of a source checkout::

    python3 bench/run.py --workload sim-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One run measures one workload (see ``BENCHMARK.json`` and ``layers.json``
next to this file) in this single-threaded process, calling
``ecopull.cli.main`` in-process from ``src/`` of the checkout. It

- times import of ``ecopull`` plus loading the default config in fresh
  interpreters (``setup_s``, median of several);
- makes CLI calls for ``--seconds`` seconds, each with a seed drawn from
  ``--seed`` and with ecopull's functools caches emptied first, and times
  each call;
- checks every call's output file against seed-independent references
  (``workloads.py``) and counts the calls that failed or raised.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
makes each call traced and then again untraced, which gives the tracing
overhead, and reports the per-layer metrics; the spans go to
``.bench_out/``. Provenance is printed before the result, whose JSON
object is always the last line of standard output. ``--smoke`` runs every
workload at a tiny size in both modes and checks that the emitted metric
names and units match ``BENCHMARK.json``.
"""

import os

# One thread per process, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_CODE = ("import time\n"
              "start = time.perf_counter()\n"
              "import ecopull, ecopull.cli\n"
              "ecopull.load_config(None)\n"
              "print(time.perf_counter() - start)\n")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure_setup() -> float:
    """Seconds to import ecopull and load the default config in a fresh process."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def import_ecopull():
    sys.path.insert(0, str(SRC))
    import ecopull
    if SRC.resolve() not in Path(ecopull.__file__).resolve().parents:
        raise SystemExit(f"bench: imported ecopull from {ecopull.__file__}, "
                         f"not from {SRC}")
    return ecopull


def call_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


def empty_caches() -> None:
    """Empty every functools cache held by an ecopull module, so that each
    in-process call does the work of a separate ``ecopull`` invocation."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "ecopull"
                                   or name.startswith("ecopull.")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def call_once(workload, main, argv, out_dir: Path):
    """One CLI call: (seconds, parsed output or the text of its failure)."""
    output_file = out_dir / workload.output
    output_file.unlink(missing_ok=True)
    empty_caches()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        code = f"raised {exc!r}"
        traceback.print_exc(file=sys.stderr)
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit {code}"
    try:
        return elapsed, workload.parse(output_file.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return elapsed, f"unreadable output: {exc}"


def timed_loop(step, argvs, seconds: float, min_calls: int) -> int:
    """Run ``step(argv)`` until ``min_calls`` are done and the next step,
    taking as long as the last, would overrun ``seconds``; returns the count."""
    started = time.perf_counter()
    done = 0
    for argv in argvs:
        last = step(argv)
        done += 1
        if (done >= min_calls
                and time.perf_counter() - started + last > seconds):
            return done
    return done


def batch_ms_p90(times: list) -> float:
    """90th percentile of the call times in ms.

    It is the only gated latency. On a shared host the share of calls that
    other tenants slow changes from run to run, and the median and the
    fastest call of a run move with it far more than the 90th percentile.
    """
    if len(times) == 1:
        return times[0] * 1e3
    return statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3


def provenance(args, workload, ecopull, times: list) -> dict:
    """Where and on what a run was made, with the untraced call-time summary."""
    import numpy
    import scipy
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unavailable: {exc}"
    digest = hashlib.sha256()
    for path in sorted((SRC / "ecopull").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "size": args.size, "calls": len(times),
        "batch_ms_min": min(times) * 1e3,
        "batch_ms_p50": statistics.median(times) * 1e3,
        "batch_ms_mean": statistics.fmean(times) * 1e3,
        "sizes": workload.sizes(), "git_commit": commit,
        "source_sha256": digest.hexdigest(), "ecopull": ecopull.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "platform": platform.platform(),
    }


def measure(args) -> tuple:
    """Run one workload; returns (metrics, attempted, failed, provenance)."""
    if not (SRC / "ecopull" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ecopull sources under {SRC}")
    setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
    ecopull = import_ecopull()
    import ecopull.cli
    import tracer as tracing
    import workloads

    workload = workloads.make(args.workload, args.size == "tiny")
    out_dir = OUT / f"tmp-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        seeds = call_seeds(args.seed)
        argvs = (workload.argv(seed, str(out_dir)) for seed in seeds)
        main = ecopull.cli.main
        times, outputs = [], []
        if not args.trace:
            def step(argv):
                elapsed, output = call_once(workload, main, argv, out_dir)
                times.append(elapsed)
                outputs.append(output)
                return elapsed

            timed_loop(step, argvs, args.seconds, workload.min_calls)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": statistics.median(setup),
                "batch_ms_p90": batch_ms_p90(times),
                "peak_rss_mb": peak_rss_mb,
            }
        else:
            # Each call runs traced, then untraced, so that drift in machine
            # speed cancels out of the overhead ratio.
            tracer = tracing.Tracer()
            traced_main = tracer.wrap(tracing.ROOT_SPAN, main)
            traced_times, seeds_used = [], []

            def step(argv):
                tracer.op += 1
                tracing.install(tracer)
                try:
                    traced, output = call_once(workload, traced_main, argv, out_dir)
                finally:
                    tracer.restore()
                plain, replayed = call_once(workload, main, argv, out_dir)
                traced_times.append(traced)
                times.append(plain)
                outputs.extend((output, replayed))
                seeds_used.append(int(argv[argv.index("--seed") + 1]))
                return traced + plain

            timed_loop(step, argvs, args.seconds, workload.min_calls)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = tracing.layer_metrics(
                tracer, sum(traced_times) / sum(times))
            extras, replay_failure = workload.layer_extras(seeds_used[0], outputs[0])
            metrics.update(extras)
            metrics["sim.kernel_us"] = (metrics["sim.round_us"]
                                        - metrics["sim.rng_floor_us"])
            if replay_failure is not None:
                outputs[0] = replay_failure
        reasons = workload.check(outputs)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for reason in sorted({r for r in reasons if r is not None}):
        print(f"bench: check failed: {reason}", file=sys.stderr)
    failed = sum(reason is not None for reason in reasons)
    return metrics, len(reasons), failed, provenance(args, workload, ecopull, times)


def result_line(args) -> dict:
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, attempted, failed, info = measure(args)
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        raise SystemExit(f"bench: metric names differ from BENCHMARK.json: "
                         f"missing {sorted(names - set(metrics))}, "
                         f"extra {sorted(set(metrics) - names)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps({"provenance": info, "result": result},
                                 indent=2), encoding="utf-8")
    print("provenance " + json.dumps(info, sort_keys=True))
    return result


def smoke() -> int:
    """Every workload at a tiny size, both modes; metric names must match."""
    spec = _spec()
    layer_map = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
    problems = []
    workload_names = [w["name"] for w in spec["workloads"]]
    if sorted(layer_map["workloads"]) != sorted(workload_names):
        problems.append("layers.json workloads differ from BENCHMARK.json")
    if sorted(layer_map["per_layer"]) != sorted(m["name"] for m in spec["per_layer"]):
        problems.append("layers.json per_layer differs from BENCHMARK.json")
    for name in workload_names:
        for trace in (0, 1):
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{name} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            elif units != {m["name"]: m["unit"] for m in wanted}:
                problems.append(f"{label}: metric names or units differ")
            elif not (result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1):
                problems.append(f"{label}: outputs failed checks: "
                                f"{done.stderr.strip()[-500:]}")
            elif not all(math.isfinite(v["value"])
                         for v in result["metrics"].values()):
                problems.append(f"{label}: non-finite metric")
            print(f"smoke {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for --smoke only")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    print(json.dumps(result_line(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
