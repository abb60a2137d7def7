import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ebrsim import cli
from ebrsim.cli import ConfigError, SWEEP_HEADER, main, parse_config_text
from ebrsim.protocol import ChannelConfig, FilterPair, Scenario, run_protocol
from ebrsim.tomography import counts_from_csv

DATA = Path(__file__).parent / "data"
GOLDEN_SWEEPS = [
    "sweep_T_indistinguishable",
    "sweep_T_filters",
    "sweep_epsilon_V",
    "sweep_p_partial",
]

STAGE_LINE = re.compile(
    r"^stage (I{1,3})\s+C=(\d\.\d{4})  P=(\d\.\d{4})  cumP=(\d\.\d{4})$"
)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigParsing:
    def test_values_comments_whitespace(self):
        cfg = parse_config_text(
            "# full line comment\n"
            "scenario = distinguishable  # trailing comment\n"
            "\n"
            "T=0.41\n"
        )
        assert cfg == {"scenario": "distinguishable", "T": "0.41"}

    @pytest.mark.parametrize(
        "text",
        ["just words\n", "T =\n", "= 0.4\n", "T = 0.4\nT = 0.5\n"],
    )
    def test_malformed_lines_raise(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_error_message_numbers_the_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("T = 0.4\nbroken line\n")


class TestRunCommand:
    CFG = "scenario = distinguishable\nT = 0.41\nA_A = 0.33\nA_B = 1\n"

    def test_happy_path_output(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CFG)
        code, out, err = run_cli(capsys, ["run", "--config", path])
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == (
            "scenario=distinguishable T=0.41 p=0.0 branch=H feed_forward=false"
        )
        assert lines[1] == "filters A_A=0.33 A_B=1.0"
        assert [STAGE_LINE.match(s).group(1) for s in lines[2:]] == ["I", "II", "III"]

    def test_stage_lines_match_the_library(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CFG)
        _, out, _ = run_cli(capsys, ["run", "--config", path])
        config = ChannelConfig(
            scenario=Scenario("distinguishable"), T=0.41, filters=FilterPair(0.33, 1.0)
        )
        stages = run_protocol(config)
        for line, stage in zip(out.splitlines()[2:], stages):
            m = STAGE_LINE.match(line)
            assert m.group(1) == stage.stage
            assert float(m.group(3)) == pytest.approx(stage.probability, abs=5e-5)
            assert float(m.group(4)) == pytest.approx(
                stage.cumulative_probability, abs=5e-5
            )

    def test_json_trace(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CFG)
        out_path = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, ["run", "--config", path, "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert [s["stage"] for s in doc["stages"]] == ["I", "II", "III"]
        assert doc["filters"] == {"A_A": 0.33, "A_B": 1.0}
        last = doc["stages"][-1]
        assert set(last["params"]) == {"alpha", "beta", "gamma", "delta", "xi", "P"}
        assert last["concurrence"] == pytest.approx(0.42604, abs=1e-3)
        assert last["state"]["basis"] == ["HH", "HV", "VH", "VV"]

    def test_feed_forward_branch_v(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = partial\np = 0.85\nT = 0.3\nbranch = V\nfeed_forward = true\n",
        )
        code, out, _ = run_cli(capsys, ["run", "--config", path])
        assert code == 0
        assert "branch=V feed_forward=true" in out.splitlines()[0]

    @pytest.mark.parametrize(
        "cfg,fragment",
        [
            ("scenario = distinguishable\nT = 0.4\nbogus = 1\n", "unknown config key: bogus"),
            ("T = 0.4\n", "missing required config key: scenario"),
            ("scenario = distinguishable\n", "missing required config key: T"),
            ("scenario = distinguishable\nT = 0.4\np = 0.5\n", "p only applies"),
            ("scenario = partial\nT = 0.4\n", "missing required config key: p"),
            ("scenario = distinguishable\nT = oops\n", "must be a number"),
            ("scenario = distinguishable\nT = 0.4\nA_A = 0.5\n", "together"),
            (
                "scenario = distinguishable\nT = 0.4\nA_A = 0.5\nA_B = 1\nepsilon = 1\n",
                "not both",
            ),
            ("scenario = distinguishable\nT = 0.4\nfeed_forward = yes\n", "true or false"),
            ("scenario = distinguishable\nT = 1.4\n", ""),
            ("scenario = elsewhere\nT = 0.4\n", "scenario must be"),
            ("scenario = partial\np = 1.5\nT = 0.4\n", "needs p in [0, 1]"),
            ("scenario = partial\np = nan\nT = 0.4\n", "needs p in [0, 1]"),
            ("scenario = distinguishable\nT = 0.4\nepsilon = 2\n", "epsilon must lie in (0, 1]"),
            ("scenario = distinguishable\nT = 0.4\nepsilon = nan\n", "epsilon must lie in (0, 1]"),
            ("scenario = distinguishable\nT = 0.4\nA_A = 0\nA_B = 1\n", "a_a must lie in (0, 1]"),
        ],
    )
    def test_config_errors_exit_2(self, tmp_path, capsys, cfg, fragment):
        path = write_config(tmp_path, cfg)
        code, out, err = run_cli(capsys, ["run", "--config", path])
        assert code == 2
        assert err.startswith("config error:")
        assert fragment in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "cannot read config" in err

    def test_singular_prescription_exits_3(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "scenario = indistinguishable\nT = 0.5\nepsilon = 1\n"
        )
        code, _, err = run_cli(capsys, ["run", "--config", path])
        assert code == 3
        assert err.startswith("domain error:")

    def test_zero_transmittivity_prescription_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, "scenario = distinguishable\nT = 0\nepsilon = 0.5\n")
        code, out, err = run_cli(capsys, ["run", "--config", path])
        assert code == 3
        assert out == ""
        assert err.startswith("domain error: filter prescription is singular at T = 0.0")


class TestSweepCommand:
    def test_csv_header_and_shape(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = distinguishable\nvariable = T\nstart = 0.1\nstop = 0.9\n"
            "steps = 5\nepsilon = 1\n",
        )
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ",".join(rows[0]) == SWEEP_HEADER
        assert len(rows) == 1 + 5 * 3
        assert {r[1] for r in rows[1:]} == {"I", "II", "III"}
        # the p column echoes the overlap weight, zero for this scenario
        assert {r[4] for r in rows[1:]} == {"0"}
        concurrences = [float(r[7]) for r in rows[1:]]
        assert all(0.0 <= c <= 1.0 for c in concurrences)

    def test_singular_point_drops_stage_three(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = indistinguishable\nvariable = T\nstart = 0.3\nstop = 0.5\n"
            "steps = 2\nepsilon = 1\n",
        )
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        at_half = [r for r in rows if float(r[2]) == 0.5]
        assert [r[1] for r in at_half] == ["I", "II"]
        assert all(r[5] == "nan" and r[6] == "nan" for r in at_half)
        at_03 = [r for r in rows if float(r[2]) == 0.3]
        assert [r[1] for r in at_03] == ["I", "II", "III"]

    @pytest.mark.parametrize(
        "scenario",
        ["distinguishable", "indistinguishable", "partial\np = 0.85"],
        ids=["distinguishable", "indistinguishable", "partial"],
    )
    def test_sweep_from_zero_transmittivity(self, tmp_path, capsys, scenario):
        path = write_config(
            tmp_path,
            f"scenario = {scenario}\nvariable = T\nstart = 0\nstop = 0.3\n"
            "steps = 2\nepsilon = 0.25\nfeed_forward = true\n",
        )
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        at_zero = [r for r in rows if float(r[2]) == 0.0]
        assert [r[1] for r in at_zero] == ["I", "II"]
        assert all(r[5] == "nan" and r[6] == "nan" for r in at_zero)
        assert [r[1] for r in rows if float(r[2]) == 0.3] == ["I", "II", "III"]

    def test_json_format_is_loadable(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = indistinguishable\nvariable = T\nstart = 0.3\nstop = 0.5\n"
            "steps = 2\nepsilon = 1\n",
        )
        code, out, _ = run_cli(capsys, ["sweep", "--config", path, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        singular = [r for r in doc["records"] if r["T"] == 0.5]
        assert len(singular) == 2
        assert all(r["A_A"] is None and r["A_B"] is None for r in singular)
        regular = [r for r in doc["records"] if r["T"] == 0.3]
        assert len(regular) == 3

    def test_epsilon_sweep(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = distinguishable\nT = 0.41\nvariable = epsilon\n"
            "start = 0.2\nstop = 1\nsteps = 5\n",
        )
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 15
        eps = sorted({float(r[3]) for r in rows})
        assert eps == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])

    def test_p_sweep_requires_partial(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = distinguishable\nT = 0.3\nvariable = p\n"
            "start = 0\nstop = 1\nsteps = 3\n",
        )
        code, _, err = run_cli(capsys, ["sweep", "--config", path])
        assert code == 2
        assert "requires scenario = partial" in err

    def test_p_sweep_scenario_is_case_insensitive(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = Partial\nT = 0.3\nvariable = p\n"
            "start = 0\nstop = 1\nsteps = 3\nepsilon = 0.5\n",
        )
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {r[0] for r in rows} == {"partial"}
        assert sorted({float(r[4]) for r in rows}) == [0.0, 0.5, 1.0]

    def test_epsilon_sweep_rejects_explicit_filters(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = distinguishable\nT = 0.3\nA_A = 0.5\nA_B = 1\n"
            "variable = epsilon\nstart = 0\nstop = 1\nsteps = 3\n",
        )
        code, _, err = run_cli(capsys, ["sweep", "--config", path])
        assert code == 2
        assert "conflicts" in err

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("variable = Q", "variable must be"),
            ("variable = T\nstart = 0.1\nstop = 0.9\nsteps = 0", "steps must be"),
            ("variable = T\nstart = 0.1\nstop = 0.9", "missing required config key: steps"),
            (
                "T = 0.4\nvariable = epsilon\nstart = nan\nstop = 1\nsteps = 2",
                "epsilon must lie in (0, 1]",
            ),
        ],
    )
    def test_sweep_config_errors(self, tmp_path, capsys, line, fragment):
        path = write_config(tmp_path, f"scenario = distinguishable\nepsilon = 1\n{line}\n")
        code, _, err = run_cli(capsys, ["sweep", "--config", path])
        assert code == 2
        assert fragment in err

    def test_single_step_sweep(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = partial\nT = 0.3\nvariable = p\nstart = 0.85\nstop = 0.85\n"
            "steps = 1\nepsilon = 1\n",
        )
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        assert len(out.splitlines()) == 1 + 3

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = partial\np = 0.85\nvariable = T\nstart = 0.05\nstop = 0.95\n"
            "steps = 19\nepsilon = 0.7\n",
        )
        _, first, _ = run_cli(capsys, ["sweep", "--config", path])
        _, second, _ = run_cli(capsys, ["sweep", "--config", path])
        assert first == second

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = distinguishable\nvariable = T\nstart = 0.2\nstop = 0.8\n"
            "steps = 4\nepsilon = 1\n",
        )
        _, out, _ = run_cli(capsys, ["sweep", "--config", path])
        out_path = tmp_path / "sweep.csv"
        code, silent, _ = run_cli(
            capsys, ["sweep", "--config", path, "--out", str(out_path)]
        )
        assert code == 0
        assert silent == ""
        assert out_path.read_text() == out


    @pytest.mark.parametrize("steps", [cli.MAX_SWEEP_POINTS + 1, 10**12])
    def test_oversized_sweep_exits_2(self, tmp_path, capsys, steps):
        path = write_config(
            tmp_path,
            f"scenario = distinguishable\nepsilon = 1\nvariable = T\nstart = 0.1\n"
            f"stop = 0.9\nsteps = {steps}\n",
        )
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith("config error: steps must be at most")

    def test_steps_cap_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 3)
        text = "scenario = distinguishable\nepsilon = 1\nvariable = T\nstart = 0.1\nstop = 0.9\n"
        path = write_config(tmp_path, text + "steps = 3\n")
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * 3
        path = write_config(tmp_path, text + "steps = 4\n")
        code, _, err = run_cli(capsys, ["sweep", "--config", path])
        assert code == 2
        assert "steps must be at most 3, got 4" in err


class TestSweepGoldenFiles:
    """Sweep output is byte-identical to files written by the csv/json-module writers."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", GOLDEN_SWEEPS)
    def test_stdout_and_out_file(self, tmp_path, capsys, name, fmt):
        want = (DATA / f"{name}.{fmt}").read_bytes()
        argv = ["sweep", "--config", str(DATA / f"{name}.cfg"), "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == want
        out_path = tmp_path / f"sweep.{fmt}"
        code, silent, _ = run_cli(capsys, argv + ["--out", str(out_path)])
        assert (code, silent) == (0, "")
        assert out_path.read_bytes() == want


def reference_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER.split(","))
    for row in rows:
        writer.writerow(
            [row[0], row[1]] + [cli._fmt(x) if isinstance(x, float) else str(x) for x in row[2:]]
        )
    return buf.getvalue()


def reference_json(rows):
    names = SWEEP_HEADER.split(",")
    records = [
        {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in zip(names, row)}
        for row in rows
    ]
    return json.dumps({"records": records}, indent=2) + "\n"


SYNTHETIC_ROWS = [
    ("partial", "III", -0.0, 5e-324, 1e16, 1e-7, 0.1, 0.30000000000000004, 1.0, 0.0),
    ("indistinguishable", "I", 0.5, 0.25, 1.0, math.nan, math.nan, 0.0, 1e-300, 2.5e-8),
    ("distinguishable", "II", 1e16, -0.0, 0.0, math.inf, -math.inf, 1e22, 1.5, 123456789.125),
    ("partial", "II", 0.3, 0.4, 0.85, 0.5, 1.0, 2, 0.25, 0.5),
    ("partial", "I", 1e308, 1e308, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
]


class TestSweepWriters:
    """The templated writers against csv.writer + _fmt and json.dumps(indent=2)."""

    @pytest.mark.parametrize("index", range(len(SYNTHETIC_ROWS)))
    def test_one_row(self, index):
        rows = [SYNTHETIC_ROWS[index]]
        assert cli._sweep_csv(rows) == reference_csv(rows)
        assert cli._sweep_json(rows) == reference_json(rows)

    def test_all_rows(self):
        assert cli._sweep_csv(SYNTHETIC_ROWS) == reference_csv(SYNTHETIC_ROWS)
        assert cli._sweep_json(SYNTHETIC_ROWS) == reference_json(SYNTHETIC_ROWS)

    def test_random_bit_patterns(self):
        # every float64 class: normal, subnormal, signed zero, inf, nan payloads
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=(400, 8), dtype=np.uint64)
        rows = [("partial", "III", *v) for v in bits.view(np.float64).tolist()]
        # and short decimals, which take the fewest repr digits
        rows += [("partial", "II", *v) for v in rng.uniform(0, 1, size=(50, 8)).round(3).tolist()]
        assert cli._sweep_csv(rows) == reference_csv(rows)
        assert cli._sweep_json(rows) == reference_json(rows)


class TestOracleCheckCommand:
    def test_coarse_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle-check", "--grid-step", "0.25"])
        assert code == 0
        lines = out.splitlines()
        passes = [l for l in lines if l.startswith("PASS")]
        assert len(passes) == 3
        assert any("distinguishable" in l for l in passes)
        assert any("partial" in l for l in passes)
        # T = 0.5 sits on this grid, so the singular skips are reported
        assert any(l.startswith("SKIPPED-singular") for l in lines)

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, ["oracle-check", "--grid-step", "0.25", "--tol", "1e-18"]
        )
        assert code == 1
        assert "FAIL first offending tuple:" in out
        assert "deviation=" in out

    def test_report_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, ["oracle-check", "--grid-step", "0.25", "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text() == out

    def test_bad_grid_step_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["oracle-check", "--grid-step", "1.5"])
        assert code == 2
        assert "grid_step" in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--tol", "nan"),
            ("--tol", "inf"),
            ("--tol", "-1"),
            # the grid k * step, k = 1 .. round(1/step) - 1, is empty
            ("--grid-step", "0.7"),
            ("--grid-step", "0.9"),
        ],
    )
    def test_vacuous_check_exits_2(self, capsys, flag, value):
        argv = ["oracle-check", "--grid-step", "0.25", flag, value]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert flag.lstrip("-").replace("-", "_") in err

    # 5e-324 overflows 1/step; 1e-9 would ask for 1e9 grid points
    @pytest.mark.parametrize("step", ["5e-324", "1e-9"])
    def test_oversized_grid_exits_2(self, capsys, step):
        code, out, err = run_cli(capsys, ["oracle-check", "--grid-step", step])
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert "grid_step" in err

    def test_largest_grid_step_checks_one_point(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle-check", "--grid-step", "0.6"])
        assert code == 0
        assert out.count("PASS") == 3
        assert out.count("points=") == 3


class TestTomographyCommand:
    CFG = (
        "state = stage\nstage = II\nscenario = distinguishable\nT = 0.4\n"
        "total_triples = 500\ntrials = 20\nseed = 3\n"
    )

    def test_summary_output(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CFG)
        code, out, _ = run_cli(capsys, ["tomography", "--config", path])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "settings=36 total_triples=500 seed=3 trials=20"
        fields = dict(
            part.split("=", 1) for line in lines[1:] for part in line.split()
        )
        assert 0.0 <= float(fields["fidelity_to_truth"]) <= 1.0
        assert float(fields["concurrence"]) >= 0.0
        assert float(fields["scale"]) > 0.0

    def test_deterministic_per_seed(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CFG)
        _, first, _ = run_cli(capsys, ["tomography", "--config", path])
        _, second, _ = run_cli(capsys, ["tomography", "--config", path])
        assert first == second
        _, other, _ = run_cli(capsys, ["tomography", "--config", path, "--seed", "4"])
        assert other != first
        assert other.splitlines()[0].endswith("seed=4 trials=20")

    def test_output_files(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CFG)
        prefix = str(tmp_path / "tomo")
        code, _, _ = run_cli(capsys, ["tomography", "--config", path, "--out", prefix])
        assert code == 0
        records = counts_from_csv((tmp_path / "tomo.counts.csv").read_text())
        assert len(records) == 36
        doc = json.loads((tmp_path / "tomo.result.json").read_text())
        assert doc["seed"] == 3
        assert doc["uncertainty"]["trials"] == 20
        assert doc["state"]["basis"] == ["HH", "HV", "VH", "VV"]

    def test_minimal_settings(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CFG + "settings = 16\n")
        prefix = str(tmp_path / "tomo16")
        code, out, _ = run_cli(capsys, ["tomography", "--config", path, "--out", prefix])
        assert code == 0
        assert out.splitlines()[0].startswith("settings=16")
        records = counts_from_csv((tmp_path / "tomo16.counts.csv").read_text())
        assert len(records) == 16

    @pytest.mark.parametrize("stage", ["II", "III"])
    def test_singular_prescription_exits_3(self, tmp_path, capsys, stage):
        path = write_config(
            tmp_path,
            f"state = stage\nstage = {stage}\nscenario = indistinguishable\nT = 0.5\n"
            "epsilon = 1\ntotal_triples = 500\ntrials = 5\n",
        )
        code, out, err = run_cli(capsys, ["tomography", "--config", path])
        assert (code, out) == (3, "")
        assert err.startswith("domain error: filter prescription is singular")

    def test_nothing_clipped_is_positive_zero(self, tmp_path, capsys):
        # a fit that is already physical clips nothing: report 0, never -0
        path = write_config(
            tmp_path,
            "state = stage\nstage = III\nscenario = partial\np = 0.85\nT = 0.3\n"
            "epsilon = 0.4\ntotal_triples = 2000\ntrials = 5\nseed = 12345\n",
        )
        prefix = str(tmp_path / "tomo")
        code, out, _ = run_cli(capsys, ["tomography", "--config", path, "--out", prefix])
        assert code == 0
        assert out.splitlines()[-1] == "clipped_weight=0"
        text = (tmp_path / "tomo.result.json").read_text()
        assert '"clipped_weight": 0.0,' in text

    def test_named_truth_states(self, tmp_path, capsys):
        path = write_config(tmp_path, "state = singlet\ntotal_triples = 400\ntrials = 5\n")
        code, out, _ = run_cli(capsys, ["tomography", "--config", path])
        assert code == 0
        fid = float(out.splitlines()[1].split("=")[1])
        assert fid > 0.8

    @pytest.mark.parametrize(
        "cfg,fragment",
        [
            ("state = thermal\n", "state must be"),
            (CFG + "settings = 20\n", "settings must be 16 or 36"),
            ("state = stage\nstage = IV\nscenario = distinguishable\nT = 0.4\n", "stage must be"),
            ("state = singlet\ntotal_triples = nan\n", "total_triples must be positive"),
            ("state = singlet\ntotal_triples = inf\n", "total_triples must be positive"),
            ("state = singlet\ntotal_triples = 0\n", "total_triples must be positive"),
            ("state = singlet\ntrials = 1\n", "trials must be at least 2"),
            ("state = singlet\nbackground = nan\n", "background must be nonnegative"),
            ("state = singlet\nbackground = inf\n", "background must be nonnegative"),
            ("state = singlet\nbackground = -3\n", "background must be nonnegative"),
            ("state = singlet\ntotal_triples = 1e300\n", "expected counts per setting"),
        ],
    )
    def test_config_errors(self, tmp_path, capsys, cfg, fragment):
        path = write_config(tmp_path, cfg)
        code, _, err = run_cli(capsys, ["tomography", "--config", path])
        assert code == 2
        assert err.startswith("config error:")
        assert fragment in err
