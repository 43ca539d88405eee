"""Parameter grids and deterministic CSV text.

The command line parses every grid flag with :func:`grid` and writes every
table with :func:`render_csv`; :mod:`ecopull.experiments` builds its
default grids with :func:`grid`. The module needs only numpy, so a command
that writes a table loads no model code through it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["grid", "format_cell", "render_csv"]


def grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """``start, start + step, ...`` up to ``stop``, each rounded to 10
    decimals; a value within 1e-9 past ``stop`` is kept."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid {start}:{stop}:{step} must have finite "
                         "start, stop and step")
    if step <= 0:
        raise ValueError(f"grid step {step} must be positive")
    values = []
    while (value := round(start + len(values) * step, 10)) <= stop + 1e-9:
        values.append(value)
    return tuple(values)


def format_cell(value) -> str:
    """One CSV cell; floats carry 9 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Deterministic CSV text with a mandatory header row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"
