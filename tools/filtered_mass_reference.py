"""Write the 30-digit reference table of the filtered mass.

Run from the root of a source checkout::

    python3 tools/filtered_mass_reference.py

It evaluates ``tests/reference.py``'s ``filtered_mass_reference`` (mpmath,
by parts) on the grid below and writes ``tests/data/filtered_mass.csv``,
which ``tests/test_quadrature.py`` checks ``energy._filtered_mass``
against. One row per (truth, noise, threshold, lower limit); ``alpha`` and
``beta`` are empty for the uniform truth. It takes about 12 minutes on one
core of a 2-core x86 host.
"""

import sys
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

from reference import filtered_mass_reference  # noqa: E402

# the shapes of the truths the package is checked on: a U-shaped and a
# J-shaped truth with exponents below 1 at an end, smooth and peaked ones,
# and Beta(1, 1), the uniform law through the Beta path
SHAPES = [None, (0.7, 0.2), (0.5, 0.5), (5, 1), (30, 3), (2, 5), (1, 1),
          (0.1, 0.1), (0.05, 0.05), (0.3, 2), (2, 0.7), (0.01, 3)]
NOISES = [1e-6, 1e-3, 0.05, 0.125, 0.3]
THRESHOLDS = [k / 40 for k in range(41)] + [1e-3, 0.999]
LOWERS = [0.0, 0.9]  # p_th, and the joint mass at the default truth threshold
OUT = ROOT / "tests" / "data" / "filtered_mass.csv"


def main() -> None:
    lines = ["alpha,beta,noise,threshold,lower,mass"]
    for shape in SHAPES:
        alpha, beta = ("", "") if shape is None else map(repr, shape)
        for noise in NOISES:
            for threshold in THRESHOLDS:
                for lower in LOWERS:
                    mass = filtered_mass_reference(threshold, noise, shape,
                                                   lower)
                    lines.append(f"{alpha},{beta},{noise!r},{threshold!r},"
                                 f"{lower!r},{mpmath.nstr(mass, 25)}")
        print(f"done {shape}", flush=True)
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
