"""Paired timing of the Tier-1 test suite and of acceptance criterion 2.

Run from the root of a source checkout, given a second checkout to compare
against (for example the parent commit, unpacked with ``git archive``)::

    python3 tools/tier1_timing.py --parent ../parent --pairs 3 \
        --out BENCH_30.json

An interpreter imports ``ecopull`` from its side's ``src/``, finds that
side's checkout from ``ecopull.__file__``, and times, once each, the wall
time of a ``python -m pytest -q -p no:cacheprovider`` subprocess run in
the checkout:

- ``tier1_ms``: over the checkout's ``tests/``;
- ``criterion2_ms``: over
  ``tests/test_acceptance.py::test_criterion_2_exact_oracle_equivalence``.

pytest's output is captured, not printed. A run whose only failures are
``KNOWN_FAILURES`` counts; any other failure or error stops the harness.
The pairing and the report are ``tools/paired_timing.py``'s.
"""

import subprocess
import sys
import time
from pathlib import Path

from paired_timing import run

# acceptance criterion 6 is a known failure (ROADMAP.md, item 2)
KNOWN_FAILURES = {
    "tests/test_acceptance.py::test_criterion_6_baseline_comparison"}
CRITERION_2 = ("tests/test_acceptance.py"
               "::test_criterion_2_exact_oracle_equivalence")


def _pytest_ms(checkout: Path, target: str) -> float:
    """Wall ms of one pytest run over ``target`` in ``checkout``."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         target], cwd=checkout, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    failed = {line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    if failed - KNOWN_FAILURES or done.returncode != (1 if failed else 0):
        raise RuntimeError(f"pytest {target} in {checkout} failed:\n"
                           + done.stdout[-2000:] + done.stderr[-2000:])
    return elapsed * 1e3


def measure() -> dict:
    """Time this interpreter's checkout's tests; one value per metric."""
    import ecopull

    checkout = Path(ecopull.__file__).resolve().parents[2]
    return {"tier1_ms": _pytest_ms(checkout, "tests/"),
            "criterion2_ms": _pytest_ms(checkout, CRITERION_2)}


if __name__ == "__main__":
    raise SystemExit(run(__doc__, measure, ("tier1_ms", "criterion2_ms")))
