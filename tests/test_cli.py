import hashlib
import json

import pytest

from ecopull import BetaTruth, ScenarioConfig, UniformTruth, cli, load_config
from ecopull.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_print_config_round_trips(capsys):
    rc, out, _ = run_cli(capsys, "print-config", "--set", "device_count=7")
    assert rc == 0
    cfg = load_config(json.loads(out))
    assert cfg.device_count == 7
    assert cfg.model_noise == 0.125  # resolved default visible in the dump


def test_simulate_emits_aggregate_row(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--rounds", "20", "--seed", "4",
                         "--set", "images_per_device=5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("row,round,sifi")
    assert lines[-1].startswith("aggregate,20,")
    assert len(lines) == 2  # no per-round rows unless asked


def test_simulate_per_round_rows(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--rounds", "3", "--seed", "4",
                         "--per-round", "--set", "images_per_device=5")
    lines = out.strip().splitlines()
    assert rc == 0
    assert len(lines) == 5  # header, 3 rounds, aggregate
    assert lines[1].startswith("round,0,")


def test_analyze_modes(capsys):
    overrides = ["--set", "device_count=3", "--set", "images_per_device=4"]
    rc, out, _ = run_cli(capsys, "analyze", "--mode", "exact", *overrides)
    assert rc == 0
    assert out.splitlines()[0] == "mode,sifi,samples,acceptance_rate"
    exact = float(out.splitlines()[1].split(",")[1])
    rc, out, _ = run_cli(capsys, "analyze", "--mode", "mcmc", "--samples",
                         "20000", "--seed", "2", *overrides)
    sampled = float(out.splitlines()[1].split(",")[1])
    assert rc == 0
    assert abs(sampled - exact) < 0.02


def test_no_hastings_runs_the_plain_ratio_chain(tmp_path, capsys):
    small = ("--samples", "50000", "--seed", "1",
             "--set", "device_count=2", "--set", "images_per_device=2",
             "--set", "slots_per_frame=1")
    scores = {}
    for flag in ("--hastings", "--no-hastings"):
        out = tmp_path / flag
        rc, _, _ = run_cli(capsys, "analyze", "--mode", "mcmc", flag, *small,
                           "--out", str(out))
        assert rc == 0
        lines = (out / "analyze.csv").read_text().splitlines()
        scores[flag] = float(lines[1].split(",")[1])
    # the plain ratio keeps the proposal's bias, about +0.04 here
    assert scores["--no-hastings"] - scores["--hastings"] > 0.02


def test_analyze_trace_output(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--mode", "mcmc", "--samples",
                         "50", "--trace", "--out", str(tmp_path),
                         "--set", "images_per_device=4")
    assert rc == 0
    assert (tmp_path / "analyze.csv").exists()
    trace = (tmp_path / "analyze_trace.csv").read_text()
    assert trace.splitlines()[0] == "step,success_probability"
    assert len(trace.splitlines()) == 51


def test_sweep_writes_csv_and_svg(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "sweep-sifi", "--grid", "1.0,2.0,3.0",
                       "--mode", "mcmc", "--samples", "500",
                       "--format", "both", "--out", str(tmp_path),
                       "--set", "images_per_device=10")
    assert rc == 0
    csv_text = (tmp_path / "sweep_sifi.csv").read_text()
    assert csv_text.splitlines()[0] == \
        "rate,slots,sifi_mcmc,sifi_sim,sim_stderr,sifi_exact"
    assert len(csv_text.splitlines()) == 4
    assert (tmp_path / "sweep_sifi.svg").read_text().startswith("<svg")


def test_optimize_reports_optimum(capsys):
    rc, out, _ = run_cli(capsys, "optimize", "--gamma-th", "0.0",
                         "--samples", "300", "--set", "images_per_device=6")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("feasible,")
    assert lines[1].startswith("true,")


def test_optimize_infeasible_is_reported_not_fatal(capsys):
    rc, out, err = run_cli(capsys, "optimize", "--gamma-th", "1.0",
                           "--samples", "100",
                           "--set", "images_per_device=6")
    assert rc == 0
    assert out.strip().splitlines()[1].startswith("false,")
    assert "constraint" in err


def test_compare_stdout_is_the_csv(capsys):
    rc, out, _ = run_cli(capsys, "compare", "--n-grid", "5,10",
                         "--gamma-th", "0.0", "--samples", "200")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split(",")[:2] == ["images_per_device", "eta_ecopull"]
    assert len(lines) == 3


def test_energy_breakdown_rows(capsys):
    rc, out, _ = run_cli(capsys, "energy-breakdown")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("model,e_muac")
    assert lines[1].startswith("behavior,")
    assert lines[2].startswith("compressor,")
    assert any(l.startswith("expected_total,") for l in lines)


def test_energy_breakdown_writes_nothing_on_failure(capsys, monkeypatch,
                                                   tmp_path):
    import ecopull.energy

    def fail(*args):
        raise ValueError("no pass probability")

    # the command looks p_th up on its module when it runs
    monkeypatch.setattr(ecopull.energy, "p_th", fail)
    rc, _, err = run_cli(capsys, "energy-breakdown", "--out", str(tmp_path))
    assert rc == 2
    assert err == "invalid argument: no pass probability\n"
    assert list(tmp_path.glob("*.csv")) == []


def test_expected_energy_grid(capsys):
    rc, out, _ = run_cli(capsys, "expected-energy", "--vth-grid", "0.5,0.6",
                         "--r-grid", "1.0,2.0")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "relevance_threshold,rate,expected_energy"
    assert len(lines) == 5


def test_expected_energy_builds_no_config_per_point(capsys, monkeypatch):
    # the points share one energy grid over the thresholds' pass
    # probabilities, so only the loaded config is validated
    built = []
    validate = ScenarioConfig.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(ScenarioConfig, "__post_init__", counted)
    rc, _, _ = run_cli(capsys, "expected-energy", "--set", "fixed_frames=3")
    assert rc == 0
    assert len(built) == 1


def test_energy_commands_match_simulation_under_frame_cap(capsys):
    cap = ("--set", "fixed_frames=1")
    rc, out, _ = run_cli(capsys, "simulate", "--rounds", "2000", "--seed", "1",
                         *cap)
    assert rc == 0
    lines = out.strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    simulated = float(row["mean_device_energy"])
    margin = 5 * float(row["energy_stderr"])
    rc, out, _ = run_cli(capsys, "expected-energy", "--vth-grid", "0.6",
                         "--r-grid", "2.0", *cap)
    assert rc == 0
    expected = float(out.strip().splitlines()[1].split(",")[2])
    assert abs(expected - simulated) < margin
    rc, out, _ = run_cli(capsys, "energy-breakdown", *cap)
    assert rc == 0
    total = next(line for line in out.splitlines()
                 if line.startswith("expected_total,"))
    assert abs(float(total.split(",")[1]) - simulated) < margin


def test_partial_nested_override_at_its_default_changes_nothing(capsys):
    rc, plain, _ = run_cli(capsys, "energy-breakdown")
    assert rc == 0
    rc, override, _ = run_cli(capsys, "energy-breakdown", "--set",
                              "compressor_hw.parallelism=64")
    assert rc == 0
    assert override == plain


def test_partial_behavior_model_override_runs(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--rounds", "5", "--set",
                         "behavior_model.tx_bits=4",
                         "--set", "images_per_device=5")
    assert rc == 0
    assert out.strip().splitlines()[-1].startswith("aggregate,5,")


@pytest.mark.parametrize("content", ["{not json", None, "[1, 2]"],
                         ids=["malformed", "missing", "list"])
def test_bad_config_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    rc, _, err = run_cli(capsys, "print-config", "--config", str(path))
    assert rc == 2
    assert "configuration error" in err


def test_config_file_is_read(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"device_count": 7}', encoding="utf-8")
    rc, out, _ = run_cli(capsys, "print-config", "--config", str(path),
                         "--set", "radio.rate=2e5")
    assert rc == 0
    cfg = load_config(out)
    assert (cfg.device_count, cfg.radio.rate) == (7, 2e5)


def test_set_switches_truth_kind_to_one_with_fewer_parameters(tmp_path,
                                                             capsys):
    path = tmp_path / "beta.json"
    path.write_text('{"truth_distribution": {"kind": "beta", "alpha": 2, '
                    '"beta": 5}}', encoding="utf-8")
    rc, out, _ = run_cli(capsys, "print-config", "--config", str(path),
                         "--set", "truth_distribution.kind=uniform")
    assert rc == 0
    assert load_config(out).truth_distribution == UniformTruth()


def test_set_switches_truth_kind_then_sets_its_parameters(tmp_path, capsys):
    path = tmp_path / "uniform.json"
    path.write_text('{"truth_distribution": {"kind": "uniform"}}',
                    encoding="utf-8")
    rc, out, _ = run_cli(capsys, "print-config", "--config", str(path),
                         "--set", "truth_distribution.kind=beta",
                         "--set", "truth_distribution.alpha=2",
                         "--set", "truth_distribution.beta=5")
    assert rc == 0
    assert load_config(out).truth_distribution == BetaTruth(2.0, 5.0)


@pytest.mark.parametrize("argv", [
    ["analyze", "--mode", "exact", "--set", "compression_rate=1e13"],
    ["sweep-sifi", "--grid", "1,1e13", "--mode", "exact"],
])
def test_huge_rates_keep_the_minimum_frame(capsys, argv):
    # a frame of L = 0 slots once raised ZeroDivisionError here
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    if argv[0] == "sweep-sifi":
        assert out.splitlines()[-1].startswith("1e+13,5,")


def test_config_errors_exit_code(capsys):
    rc, _, err = run_cli(capsys, "print-config", "--set",
                         "relevance_threshold=2.0")
    assert rc == 2
    assert "configuration error" in err


def test_nested_field_error_names_the_dotted_field(capsys):
    rc, out, err = run_cli(capsys, "print-config", "--set",
                           "compressor_hw.sram_bits=0")
    assert rc == 2 and out == ""
    assert "compressor_hw.sram_bits=0 must be an integer >= 1" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--rounds", "0"],
    ["analyze", "--samples", "0"],
    ["analyze", "--samples", "10", "--burn-in", "-5",
     "--set", "images_per_device=6"],
    ["optimize", "--gamma-th", "2"],
    ["sweep-sifi", "--grid", "2,1", "--mode", "exact"],
    ["compare", "--n-grid", "5.5"],
    ["compare", "--n-grid", ","],
    ["expected-energy", "--vth-grid", "0.5:0.4:0.1"],
    ["expected-energy", "--vth-grid", "0.5:0.8:nan"],
    ["expected-energy", "--vth-grid", "0.5:inf:0.1"],
    # a comma list once let non-finite values through to the output
    ["expected-energy", "--vth-grid", "0.6", "--r-grid", "inf"],
    ["sweep-sifi", "--grid", "1,inf", "--mode", "exact"],
    ["compare", "--n-grid", "5:inf:5"],
    # non-finite config numbers once gave a score of 0 or NaN energies
    ["analyze", "--mode", "exact", "--set", "model_noise=1e400"],
    ["energy-breakdown", "--set", "radio.tx_power=1e400"],
    # the closed form runs no chain
    ["analyze", "--mode", "exact", "--trace"],
    ["analyze", "--mode", "exact", "--burn-in", "50"],
    ["analyze", "--mode", "exact", "--no-hastings"],
])
def test_bad_numeric_arguments_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [
    command for command in cli._COMMANDS
    if command not in ("sweep-sifi", "compare")])
def test_format_is_offered_only_where_a_chart_is_drawn(capsys, command):
    # a chartless command has no SVG to write, so --format is unknown there
    rc, _, err = parse_outcome(capsys, main, [command, "--format", "svg"])
    assert rc == 2
    assert "unrecognized arguments: --format svg" in err


@pytest.mark.parametrize("command", [
    ["sweep-sifi", "--grid", "1.0,2.0", "--mode", "exact",
     "--set", "images_per_device=6"],
    ["compare", "--n-grid", "5", "--gamma-th", "0.0"],
])
def test_format_svg_writes_only_the_chart(tmp_path, capsys, command):
    rc, _, _ = run_cli(capsys, *command, "--format", "svg",
                       "--out", str(tmp_path))
    assert rc == 0
    [written] = tmp_path.iterdir()
    assert written.suffix == ".svg"
    assert written.read_text().startswith("<svg")


@pytest.mark.parametrize("fmt", ["svg", "both"])
def test_compare_chart_without_a_feasible_point_fails(tmp_path, capsys, fmt):
    # no N meets gamma_th = 1, so there is no line to draw
    rc, out, err = run_cli(capsys, "compare", "--n-grid", "5", "--gamma-th",
                           "1.0", "--format", fmt, "--out", str(tmp_path))
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "no library size has a feasible design point" in err
    assert list(tmp_path.iterdir()) == []


def parse_outcome(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["--seed", "3", "simulate"],
    *([command, "-h"] for command in cli._COMMANDS),
    *([command, "--bogus"] for command in cli._COMMANDS),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_command_parser_matches_the_full_parser(capsys, argv):
    full = parse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert parse_outcome(capsys, main, argv) == full


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_one_command_parser_parses_like_the_full_parser(command):
    argv = [command, "--seed", "4", "--set", "device_count=3"]
    assert (cli.build_parser(command).parse_args(argv)
            == cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command", [
    ["simulate", "--rounds", "5", "--seed", "-1"],
    ["analyze", "--samples", "10", "--seed", "-1"],
])
def test_negative_seed_is_named(capsys, command):
    rc, _, err = run_cli(capsys, *command)
    assert rc == 2
    assert err == "invalid argument: seed=-1 must be >= 0\n"


@pytest.mark.parametrize("command", [
    ["analyze", "--mode", "exact"],
    ["analyze", "--mode", "mcmc", "--samples", "100"],
    ["optimize", "--gamma-th", "0.0"],
    ["compare", "--n-grid", "5", "--gamma-th", "0.0"],
])
def test_score_commands_honour_fixed_frames(capsys, command):
    rc, _, err = run_cli(capsys, *command, "--set", "fixed_frames=2",
                         "--set", "images_per_device=4")
    assert rc == 0
    assert "error" not in err


def test_cli_outputs_are_byte_identical(tmp_path, capsys):
    args = ["simulate", "--rounds", "30", "--seed", "11",
            "--set", "images_per_device=8", "--per-round"]
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, digests", [
    # criterion 7's chain argv
    (["analyze", "--mode", "mcmc", "--samples", "2000", "--seed", "5",
      "--trace", "--set", "images_per_device=6", "--set", "device_count=3"],
     {"analyze.csv": ("e4a2344982b6c0668cf1ad6664d72bbd"
                      "a68898cce5379d93a2b7ffa06b615f96"),
      "analyze_trace.csv": ("4291585d2a60f476c52c4fce926d8cb2"
                            "1e24a087095c4290a6b532748c73ae3d")}),
    # K=50, N=1000, where the saddle-point and log-gamma laws differ most
    (["analyze", "--mode", "mcmc", "--samples", "20000", "--seed", "3",
      "--set", "device_count=50", "--set", "images_per_device=1000"],
     {"analyze.csv": ("7936d58aeb2ed05fea5704b4d9b7ac4a"
                      "dcbe75534c2d7a922831cd3c71ba1b30")}),
    # the comparison schemes' energies, over the default library-size grid
    (["compare", "--n-grid", "5:100:5", "--gamma-th", "0.8"],
     {"compare.csv": ("5132029be8a36582adca92ffaaa14ac8"
                      "cb7409df9e8fe04c8a11638beb60f854")}),
    # a compressor chip whose SRAM width differs from the behavior chip's:
    # each model's weights are staged at its own chip
    (["energy-breakdown", "--set", "compressor_hw.muac_bits=32"],
     {"energy_breakdown.csv": ("b66ab03b0b81d2b7407e50e6ffea6326"
                               "49e79c628e207d0ea6109aedd429d92d"),
      "device_energy.csv": ("8f3c886e8b6f64a64245a4d88ffbde56"
                            "1e81f4c74be895e1ff89d1e65a53f880")}),
    # the expected energy over the default grids, draining every queue
    # and under a frame cap
    (["expected-energy"],
     {"expected_energy.csv": ("0e528d1e93fa9386077c3ab6cf464c00"
                              "506ff5d161e0daf522ad59fc49cffc6b")}),
    (["expected-energy", "--set", "fixed_frames=3"],
     {"expected_energy.csv": ("038a75d644326e774275516feb76563d"
                              "33b5b260427142bf6fff93abbc77edc5")}),
    # a Beta truth under a cap, on the search's threshold and rate grids
    (["expected-energy", "--vth-grid", "0.5:0.8:0.01",
      "--r-grid", "1:2:0.0667", "--set", "fixed_frames=7",
      "--set", "truth_distribution.kind=beta",
      "--set", "truth_distribution.alpha=2",
      "--set", "truth_distribution.beta=5"],
     {"expected_energy.csv": ("78e22299f1f38c6dbf5537cf96b01579"
                              "b185a9d20045430131e59f1eedf01e6f")}),
    # every point of the default design grid, none pruned
    (["optimize", "--gamma-th", "0.8", "--full-grid"],
     {"optimize.csv": ("5c571397736970f4c9fcddbe55d04ac9"
                       "d711fbfef642cdf3b710b15ee244a4e4"),
      "optimize_grid.csv": ("e2016544ba969de742e25c8203d6d3db"
                            "ff94f2c8e08893d782a50697c8e51c4e")}),
    # a seed wider than 32 bits, whose rounds draw from default_rng
    (["simulate", "--rounds", "20", "--seed", "99999999999999999999"],
     {"simulate.csv": ("bdabfb0c385bbb6ff9448ee255c4e196"
                       "68320a243e4183d3d3ce6993499790a8")}),
    # criterion 2's sizes, where blocks of 546 rounds hash their seeds
    (["simulate", "--rounds", "3000", "--seed", "1", "--per-round",
      "--set", "device_count=5", "--set", "images_per_device=6"],
     {"simulate.csv": ("be0c894060c347a6110ce5d03605de85"
                       "b32a27cb8d7832d3fad35f5f245f39ad")}),
    # the score over the default rate grid, in closed form
    (["sweep-sifi", "--grid", "1.0:4.8:0.1", "--mode", "exact"],
     {"sweep_sifi.csv": ("c3869cb2e09b6b1413044e310bf1aece"
                         "cfcf70f6bf68a854456a516f12f92581")}),
    # the chain, the simulator and the empty exact column in one table
    (["sweep-sifi", "--grid", "1.0,2.0", "--mode", "both", "--rounds", "50",
      "--samples", "500", "--seed", "3"],
     {"sweep_sifi.csv": ("2b375326a2504f55e951ae378fe43850"
                         "1dc6e42f578b9f10497328265645f816")}),
])
def test_chain_csv_bytes_are_fixed(tmp_path, capsys, argv, digests):
    # the chain digests were recorded when it read the log-gamma law of
    # scipy.stats.binom, which differs from saddle_logpmf by up to 1.9e-12;
    # the compare and energy-breakdown digests when the comparison schemes
    # and the weight-staging term still had switches; the full-grid digests
    # when the search still scored every point
    rc, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert rc == 0
    for name, digest in digests.items():
        content = (tmp_path / name).read_bytes()
        assert hashlib.sha256(content).hexdigest() == digest
