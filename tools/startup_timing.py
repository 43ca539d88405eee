"""Paired timing of fresh ``ecopull`` processes: start-up and short commands.

Run from the root of a source checkout, given a second checkout to compare
against (for example the parent commit, unpacked with ``git archive``)::

    python3 tools/startup_timing.py --parent ../parent --pairs 10 \
        --out BENCH_23.json

Each worker spawns fresh interpreters of its own, which import ``ecopull``
from its side's ``src/``, and reports the least of ``REPEATS`` runs of
each, since other load on the host only adds time to a start-up:

- ``setup_*_ms``: the benchmark's setup code (``bench/run.py``'s
  ``SETUP_CODE``: import ``ecopull`` and ``ecopull.cli``, load the default
  config), timed inside the interpreter as the benchmark times it;
- ``print_config_*_ms``, ``simulate_*_ms``, ``compare_*_ms`` and
  ``analyze_*_ms``: the wall time of a whole process running
  ``print-config``, ``simulate --rounds 1``, ``compare --n-grid 25`` and
  ``analyze --mode exact`` through ``ecopull.cli.main``, as the installed
  ``ecopull`` script does, from spawn to exit.

Every one is measured twice. ``nopyc`` runs under
``PYTHONDONTWRITEBYTECODE=1``, so each process compiles the package from
source, as a fresh checkout runs; a side whose package holds a
``__pycache__`` is refused. ``pyc`` runs read bytecode from a
``PYTHONPYCACHEPREFIX`` temporary tree that one untimed run of each
process has filled, so neither checkout gets a ``__pycache__``.

The pairing and the report are ``tools/paired_timing.py``'s.
"""

import importlib.util
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from paired_timing import run

REPEATS = 5
SETUP_CODE = ("import time\n"
              "start = time.perf_counter()\n"
              "import ecopull, ecopull.cli\n"
              "ecopull.load_config(None)\n"
              "print(time.perf_counter() - start)\n")
COMMAND_CODE = ("import sys\n"
                "from ecopull.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
COMMANDS = {
    "print_config": ["print-config"],
    "simulate": ["simulate", "--rounds", "1"],
    "compare": ["compare", "--n-grid", "25"],
    "analyze": ["analyze", "--mode", "exact"],
}


def _setup_s(env: dict, cwd: str) -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          cwd=cwd, capture_output=True, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _command_s(env: dict, cwd: str, argv: list) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", COMMAND_CODE, *argv], env=env,
                   cwd=cwd, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def _mode(env: dict, cwd: str, mode: str) -> dict:
    """Least ms of each process under one bytecode mode."""
    samples = {f"setup_{mode}_ms": [_setup_s(env, cwd)
                                    for _ in range(REPEATS)]}
    for name, argv in COMMANDS.items():
        samples[f"{name}_{mode}_ms"] = [_command_s(env, cwd, argv)
                                        for _ in range(REPEATS)]
    return {name: min(values) * 1e3 for name, values in samples.items()}


def measure() -> dict:
    # found, not imported: an import here could write the bytecode
    package = Path(importlib.util.find_spec("ecopull").origin).parent
    if (package / "__pycache__").exists():
        raise SystemExit(f"{package / '__pycache__'} exists, so the nopyc "
                         "runs would read bytecode; remove it first")
    with tempfile.TemporaryDirectory() as scratch:
        prefix = Path(scratch) / "pycache"
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        metrics = _mode(dict(env, PYTHONDONTWRITEBYTECODE="1"), scratch,
                        "nopyc")
        cached = dict(env, PYTHONPYCACHEPREFIX=str(prefix))
        # one untimed run of each process writes the bytecode it reads
        _setup_s(cached, scratch)
        for argv in COMMANDS.values():
            _command_s(cached, scratch, argv)
        metrics.update(_mode(cached, scratch, "pyc"))
    return metrics


if __name__ == "__main__":
    raise SystemExit(run(__doc__, measure,
                         ("setup_nopyc_ms", "print_config_nopyc_ms",
                          "setup_pyc_ms")))
