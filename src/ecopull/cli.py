"""Command-line surface: simulation, analysis, sweeps, optimization, comparison.

Common flags: ``--config`` (JSON document), repeated ``--set path=value``
overrides mirroring config field paths, ``--seed``, ``--out`` (output
directory). The two charting commands, ``sweep-sifi`` and ``compare``, also
take ``--format csv|svg|both``. All file output is deterministic for a
fixed seed.

Each command imports the modules it runs when it runs, and looks their
functions up then, so ``print-config`` loads only the config code,
``simulate`` never loads the score or experiment code, and the chart
module loads only when a chart is written. The config loaders and
``render_csv``, which every command calls, stay module globals.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from ._tabular import grid, render_csv
from .config import (ConfigError, ScenarioConfig, _parse_json,
                     apply_overrides, dump_config, load_config)

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="path to a JSON configuration document")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="PATH=VALUE",
                        help="override one config field, e.g. radio.rate=2e5")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="directory for output files (default: stdout only)")


def _add_format(cmd: argparse.ArgumentParser) -> None:
    # only the commands that draw a chart have an SVG to write
    cmd.add_argument("--format", choices=("csv", "svg", "both"),
                     default="csv")


# optimize and compare keep --samples so that existing command lines run
_UNUSED_SAMPLES = ("accepted for compatibility; has no effect, because the "
                   "grid is scored in closed form")


def _add_simulate(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--rounds", type=int, default=10_000)
    cmd.add_argument("--per-round", action="store_true",
                     help="emit one CSV row per round before the aggregate")


def _add_analyze(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--mode", choices=("exact", "mcmc"), default="mcmc")
    cmd.add_argument("--samples", type=int, default=10_000,
                     help="chain length for mcmc mode")
    cmd.add_argument("--burn-in", type=int, default=0)
    cmd.add_argument("--hastings", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="apply the proposal-asymmetry correction, which "
                          "makes the chain sample the multinomial (default); "
                          "--no-hastings gives the paper's plain ratio")
    cmd.add_argument("--trace", action="store_true",
                     help="emit the per-step chain trace as CSV")


def _add_sweep(cmd: argparse.ArgumentParser) -> None:
    _add_format(cmd)
    cmd.add_argument("--grid", default="1.0:4.8:0.1",
                     help="rate grid start:stop:step, or comma-separated values")
    cmd.add_argument("--mode", choices=("mcmc", "simulate", "exact", "both"),
                     default="mcmc")
    cmd.add_argument("--rounds", type=int, default=10_000)
    cmd.add_argument("--samples", type=int, default=10_000)


def _add_optimize(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--gamma-th", type=float, default=0.8)
    cmd.add_argument("--samples", type=int, default=10_000,
                     help=_UNUSED_SAMPLES)
    cmd.add_argument("--full-grid", action="store_true",
                     help="emit every grid point, not just the optimum")


def _add_compare(cmd: argparse.ArgumentParser) -> None:
    _add_format(cmd)
    cmd.add_argument("--gamma-th", type=float, default=0.8)
    cmd.add_argument("--n-grid", default="5:100:5",
                     help="library-size grid start:stop:step or comma list")
    cmd.add_argument("--samples", type=int, default=10_000,
                     help=_UNUSED_SAMPLES)


def _add_expected_energy(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--vth-grid", default="0.5:0.8:0.05")
    cmd.add_argument("--r-grid", default="1.0:2.0:0.25")


def _add_nothing(cmd: argparse.ArgumentParser) -> None:
    pass


def _load(args) -> ScenarioConfig:
    spec = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        spec = _parse_json(text)
    apply_overrides(spec, args.overrides)
    return load_config(spec)


def _parse_grid(text: str, integer: bool = False) -> list:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid {text!r} must be start:stop:step")
        values = list(grid(*(float(p) for p in parts)))
    else:
        values = [float(p) for p in text.split(",") if p.strip()]
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"grid {text!r} must hold finite values")
    if not values:
        raise ConfigError(f"grid {text!r} is empty")
    if integer:
        for value in values:
            if not value.is_integer():
                raise ConfigError(f"grid {text!r} holds {value}, "
                                  "not an integer")
        values = [int(v) for v in values]
    return values


def _records_csv(record: type, rows) -> str:
    """CSV of ``record`` dataclass rows, one column per field."""
    return render_csv([f.name for f in fields(record)], map(astuple, rows))


def _write(args, filename: str, text: str) -> None:
    """Write ``text`` to ``filename`` under ``--out``, or to stdout."""
    if args.out:
        path = Path(args.out) / filename
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _emit_chart(args, name: str, csv_text: str,
                svg_text: Optional[str]) -> None:
    """Write a charting command's CSV and SVG as ``--format`` asks."""
    if args.format in ("csv", "both"):
        _write(args, f"{name}.csv", csv_text)
    if svg_text is not None and args.format in ("svg", "both"):
        _write(args, f"{name}.svg", svg_text)


def _cmd_print_config(args) -> int:
    _write(args, "config.json", dump_config(_load(args)) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    from .sim import simulate
    cfg = _load(args)
    aggregate = simulate(cfg, args.rounds, args.seed,
                         keep_rounds=args.per_round)
    header = ["row", "round", "sifi", "sifi_stderr", "mean_device_energy",
              "energy_stderr", "delivered", "actual_relevant", "frames"]
    rows = []
    if aggregate.rounds_detail:
        for stat in aggregate.rounds_detail:
            rows.append(["round", stat.index, stat.sifi, "",
                         stat.mean_device_energy, "", stat.delivered,
                         stat.actual_relevant, stat.frames])
    rows.append(["aggregate", aggregate.rounds, aggregate.mean_sifi,
                 aggregate.sifi_stderr, aggregate.mean_total_energy,
                 aggregate.total_energy_stderr, aggregate.mean_delivered,
                 aggregate.mean_actual_relevant, aggregate.mean_frames])
    _write(args, "simulate.csv", render_csv(header, rows))
    return 0


def _cmd_analyze(args) -> int:
    from .analytic import expected_sifi_exact, mcmc_expected_sifi
    cfg = _load(args)
    if args.mode == "exact":
        if args.trace or args.burn_in != 0 or not args.hastings:
            raise ValueError("--trace, --burn-in and --no-hastings apply to "
                             "--mode mcmc only")
        row = ["exact", expected_sifi_exact(cfg), "", ""]
    else:
        result = mcmc_expected_sifi(cfg, args.samples, args.seed,
                                    burn_in=args.burn_in,
                                    hastings=args.hastings,
                                    keep_trace=args.trace)
        row = ["mcmc", result.estimate, result.samples,
               result.acceptance_rate]
    header = ["mode", "sifi", "samples", "acceptance_rate"]
    _write(args, "analyze.csv", render_csv(header, [row]))
    # --trace is refused in exact mode, so a chain ran
    if args.trace and result.success_trace is not None:
        trace_rows = [[i, v] for i, v in enumerate(result.success_trace)]
        _write(args, "analyze_trace.csv",
               render_csv(["step", "success_probability"], trace_rows))
    return 0


def _cmd_sweep(args) -> int:
    from .experiments import SweepRow, sweep_sifi_vs_rate
    rows = sweep_sifi_vs_rate(_load(args), _parse_grid(args.grid),
                              mode=args.mode, rounds=args.rounds,
                              samples=args.samples, seed=args.seed)
    svg = None
    if args.format != "csv":
        from .svgplot import line_chart
        rates = [r.rate for r in rows]
        # every mode fills at least one score column
        series = []
        for label, name in (("analysis", "sifi_mcmc"),
                            ("simulation", "sifi_sim"),
                            ("exact", "sifi_exact")):
            scores = [getattr(r, name) for r in rows]
            if any(score is not None for score in scores):
                series.append((label, rates, scores))
        svg = line_chart(series, title="Retrieval score vs compression rate",
                         x_label="compression rate [bpp]", y_label="score")
    _emit_chart(args, "sweep_sifi", _records_csv(SweepRow, rows), svg)
    return 0


def _cmd_optimize(args) -> int:
    from .experiments import GridPoint, optimize
    cfg = _load(args)
    result = optimize(cfg, args.gamma_th, full_grid=args.full_grid)
    header = ["feasible", "relevance_threshold", "rate", "slots", "sifi",
              "expected_energy", "gamma_th"]
    best = result.best
    if best is not None:
        rows = [[True, best.relevance_threshold, best.rate, best.slots,
                 best.sifi, best.expected_energy, args.gamma_th]]
    else:
        rows = [[False, "", "", "", "", "", args.gamma_th]]
        print("no grid point satisfies the score constraint",
              file=sys.stderr)
    _write(args, "optimize.csv", render_csv(header, rows))
    if args.full_grid:
        _write(args, "optimize_grid.csv",
               _records_csv(GridPoint, result.grid))
    return 0


def _cmd_compare(args) -> int:
    from .experiments import CompareRow, compare_schemes
    cfg = _load(args)
    n_grid = _parse_grid(args.n_grid, integer=True)
    rows = compare_schemes(cfg, n_grid, args.gamma_th)
    feasible = [r for r in rows if r.feasible]
    svg = None
    if args.format != "csv":
        if not feasible:
            print("compare: no library size has a feasible design point, "
                  "so there is no chart to draw", file=sys.stderr)
            return 2
        from .svgplot import line_chart
        ns = [r.images_per_device for r in feasible]
        svg = line_chart(
            [("ecopull", ns, [r.eta_ecopull for r in feasible]),
             ("filter-only", ns, [r.eta_tinyairnet for r in feasible]),
             ("baseline", ns, [1.0] * len(ns))],
            title="Energy saving vs library size",
            x_label="images per device", y_label="energy ratio")
    _emit_chart(args, "compare", _records_csv(CompareRow, rows), svg)
    return 0


def _cmd_energy_breakdown(args) -> int:
    from .energy import (communication_energy, computation_energy,
                         expected_total_energy, p_th)
    from .hardware import e_dram_access, e_muac, inference_breakdown
    cfg = _load(args)
    header = ["model", "e_muac", "e_dram_access", "dram", "compute",
              "weight_moves", "activation_moves", "total"]
    rows = []
    for name, hw, model in (("behavior", cfg.behavior_hw, cfg.behavior_model),
                            ("compressor", cfg.compressor_hw,
                             cfg.compressor_model)):
        terms = inference_breakdown(hw, model, cfg.image)
        rows.append([name, e_muac(hw), e_dram_access(hw), terms.dram,
                     terms.compute, terms.weight_moves,
                     terms.activation_moves, terms.total])

    # both tables are built before either is written: a failing p_th
    # leaves no partial output
    device_header = ["quantity", "joules"]
    pth = p_th(cfg.relevance_threshold, cfg.model_noise,
               cfg.truth_distribution)
    device_rows = [
        ["computation_all_relevant",
         computation_energy(cfg, cfg.images_per_device)],
        ["computation_none_relevant", computation_energy(cfg, 0)],
        ["communication_none_relevant", communication_energy(cfg, 0)],
        ["expected_total", expected_total_energy(cfg)],
        ["pass_probability", pth],
    ]
    _write(args, "energy_breakdown.csv", render_csv(header, rows))
    _write(args, "device_energy.csv", render_csv(device_header, device_rows))
    return 0


def _cmd_expected_energy(args) -> int:
    from .energy import expected_energy_grid, p_th
    cfg = _load(args)
    thresholds = _parse_grid(args.vth_grid)
    rates = _parse_grid(args.r_grid)
    pass_probabilities = [p_th(vth, cfg.model_noise, cfg.truth_distribution)
                          for vth in thresholds]
    energies = expected_energy_grid(cfg, pass_probabilities, rates)
    header = ["relevance_threshold", "rate", "expected_energy"]
    rows = [[vth, rate, energy]
            for vth, row in zip(thresholds, energies)
            for rate, energy in zip(rates, row)]
    _write(args, "expected_energy.csv", render_csv(header, rows))
    return 0


class _Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


# every subcommand, in the order of the help text
_COMMANDS = {
    "print-config": _Command("dump the fully resolved configuration",
                             _add_nothing, _cmd_print_config),
    "simulate": _Command("Monte Carlo protocol simulation", _add_simulate,
                         _cmd_simulate),
    "analyze": _Command("expected score, exact or sampled", _add_analyze,
                        _cmd_analyze),
    "sweep-sifi": _Command("score versus compression rate", _add_sweep,
                           _cmd_sweep),
    "optimize": _Command("minimum-energy parameters under a score floor",
                         _add_optimize, _cmd_optimize),
    "compare": _Command("energy-saving ratios versus the baseline",
                        _add_compare, _cmd_compare),
    "energy-breakdown": _Command("per-term inference and device energy as CSV",
                                 _add_nothing, _cmd_energy_breakdown),
    "expected-energy": _Command("expected device energy over a parameter "
                                "grid", _add_expected_energy,
                                _cmd_expected_energy),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``ecopull`` parser: every subcommand, or only ``command``.

    A parser holding one subcommand parses that subcommand's command lines
    as the full parser does, and its usage and help texts are the same.
    """
    parser = argparse.ArgumentParser(
        prog="ecopull",
        description="Energy and retrieval-quality toolkit for TinyML-filtered "
                    "IoT image collection over slotted ALOHA")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # one command's parser still lists every command in its usage line;
    # the full parser keeps the default metavar, that same list, since an
    # explicit one would rename the action in its error messages
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        cmd = sub.add_parser(name, help=_COMMANDS[name].help)
        _add_common(cmd)
        _COMMANDS[name].add_arguments(cmd)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that names its command needs only that one's parser
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _COMMANDS[args.command].run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # the library's own argument checks (rounds, samples, gamma_th, ...)
        print(f"invalid argument: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
