"""Paired timing of config construction: documents and ``replace``.

Run from the root of a source checkout, given a second checkout to compare
against (for example the parent commit, unpacked with ``git archive``)::

    python3 tools/config_timing.py --parent ../parent --pairs 10 \
        --out BENCH_25.json

An interpreter imports ``ecopull`` from its side's ``src/`` and times, in
microseconds per call, each as the median of several batches after one
warm-up call:

- ``load_default_us``: ``load_config(None)``, the default scenario built
  from an empty document;
- ``load_nested_us``: ``load_config`` of a document that sets two
  top-level fields and one field each of three nested profiles;
- ``replace_us``: ``dataclasses.replace(cfg, images_per_device=25)``, the
  rebuild the experiment layer and the CLI run.

The pairing and the report are ``tools/paired_timing.py``'s.
"""

import dataclasses

from paired_timing import median_ms, run

NESTED = {"device_count": 7, "compression_rate": 1.5,
          "radio": {"rate": 2e5}, "compressor_hw": {"parallelism": 32},
          "behavior_model": {"tx_bits": 4}}
BATCH = 2000     # calls per timed batch
BATCHES = 25


def measure() -> dict:
    """Time this interpreter's ``ecopull``; one value per metric."""
    from ecopull import load_config

    cfg = load_config(None)
    calls = {
        "load_default_us": lambda: load_config(None),
        "load_nested_us": lambda: load_config(NESTED),
        "replace_us": lambda: dataclasses.replace(cfg, images_per_device=25),
    }

    def batch(call):
        return lambda: [call() for _ in range(BATCH)]

    return {name: median_ms(batch(call), BATCHES) / BATCH * 1e3
            for name, call in calls.items()}


if __name__ == "__main__":
    raise SystemExit(run(__doc__, measure,
                         ("load_default_us", "load_nested_us", "replace_us")))
