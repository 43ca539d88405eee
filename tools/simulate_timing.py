"""Paired timing of one ``simulate`` call, its parser and its rounds.

Run from the root of a source checkout, given a second checkout to compare
against (for example the parent commit, unpacked with ``git archive``)::

    python3 tools/simulate_timing.py --parent ../parent --pairs 10 \
        --out BENCH_20.json

An interpreter imports ``ecopull`` from its side's ``src/`` and times, each
as the median of several calls after one warm-up call:

- ``simulate_ms``: one ``simulate --rounds 50`` call through
  ``ecopull.cli.main`` (the benchmark's ``sim-default`` workload), with
  ecopull's functools caches emptied first, as a fresh invocation starts;
- ``parser_simulate_ms``: the parser that call builds,
  ``build_parser("simulate")``; ``parser_all_ms``: ``build_parser()``;
- ``round_K5_N100_us`` and ``round_K2_N2_us``: ``simulate`` per round, in
  microseconds, at the default K=5, N=100 (4 blocks of 32 rounds) and at
  K=2, N=2, criterion 2's smallest size (2 blocks of 4096 rounds);
- ``round_K10_N1000_us``, ``round_K20_N1000_us`` and
  ``round_K50_N1000_us``: the same over 10 rounds that each run alone,
  the first below the size that ``simulate`` runs on two threads, the
  last at the benchmark's ``sim-large`` size;
- ``round_K5_N100_faults`` and the like: the minor page faults
  (``getrusage``'s ``ru_minflt``) per round over each size's calls and
  their warm-up call.

The pairing and the report are ``tools/paired_timing.py``'s.
"""

import contextlib
import io
import resource

from paired_timing import empty_caches, median_ms, run

SIMULATE_ARGV = ["simulate", "--rounds", "50", "--seed", "1"]
SIMULATE_CALLS = 40
PARSER_CALLS = 100
ROUND_SIZES = ((5, 100, 128, 9), (2, 2, 8192, 5), (10, 1000, 10, 21),
               (20, 1000, 10, 21), (50, 1000, 10, 21))  # (K, N, rounds, calls)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure() -> dict:
    """Time this interpreter's ``ecopull``; one value per metric."""
    import ecopull.cli as cli
    from ecopull import load_config, simulate

    def simulate_call():
        empty_caches()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if cli.main(SIMULATE_ARGV) != 0:
                raise RuntimeError(f"simulate failed: {sink.getvalue()}")

    result = {
        "simulate_ms": median_ms(simulate_call, SIMULATE_CALLS),
        "parser_simulate_ms": median_ms(
            lambda: cli.build_parser("simulate"), PARSER_CALLS),
        "parser_all_ms": median_ms(cli.build_parser, PARSER_CALLS),
    }
    for devices, images, rounds, calls in ROUND_SIZES:
        cfg = load_config({"device_count": devices,
                           "images_per_device": images})
        name = f"round_K{devices}_N{images}"
        faults = _minor_faults()
        result[f"{name}_us"] = median_ms(
            lambda: simulate(cfg, rounds, 3), calls) / rounds * 1e3
        result[f"{name}_faults"] = ((_minor_faults() - faults)
                                    / ((calls + 1) * rounds))
    return result


if __name__ == "__main__":
    raise SystemExit(run(__doc__, measure,
                         ("simulate_ms", "round_K5_N100_us",
                          "round_K2_N2_us", "round_K50_N1000_us",
                          "round_K50_N1000_faults")))
