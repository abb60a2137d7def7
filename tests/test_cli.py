import argparse
import csv
import dataclasses
import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ebrsim import cli, fock
from ebrsim.cli import ConfigError, SWEEP_HEADER, main, parse_config_text
from ebrsim.core import EbrsimError, InvalidParameter, unchecked
from ebrsim.fock import oracle_check, oracle_protocol
from ebrsim.metrics import concurrence_x
from ebrsim.protocol import (
    ChannelConfig,
    FilterPair,
    Scenario,
    partial,
    resolve_filters,
    run_protocol,
)
from ebrsim.tomography import UnusableCounts, counts_from_csv

DATA = Path(__file__).parent / "data"
GOLDEN_SWEEPS = [
    "sweep_T_indistinguishable",
    "sweep_T_filters",
    "sweep_epsilon_V",
    "sweep_p_partial",
    # p sweeps at T = 1/2, with the unit pair at p = 1, and at T = 0, with the unit
    # pair at every point
    "sweep_p_T_half",
    "sweep_p_T_zero",
    # an epsilon sweep from 1e-300: filter factors and stage-III probabilities below
    # 1e-200, and a p below the 1e-4 switch to scientific notation
    "sweep_epsilon_tiny_ff",
    # p in tenths on the V branch: short decimals, zeros and 1.0 as JSON prints them
    "sweep_p_decimal",
    # a p sweep's explicit pair: one filter value per column
    "sweep_p_filters",
    # a distinguishable T sweep: every A_B is epsilon's own float, and so is A_A at T = 1
    "sweep_T_distinguishable",
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


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


class TestHeapPolicy:
    RUN = "scenario = distinguishable\nT = 0.4\n"

    @pytest.fixture
    def fresh(self):
        # the policy is applied again by the next main, with whatever libc is in place
        cli._keep_heap.cache_clear()
        yield
        cli._keep_heap.cache_clear()

    @staticmethod
    def fake_libc(monkeypatch, libc):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)

    def test_main_applies_it_once(self, tmp_path, capsys, monkeypatch, fresh):
        calls = []
        libc = argparse.Namespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        self.fake_libc(monkeypatch, libc)
        argv = ["run", "--config", write_config(tmp_path, self.RUN)]
        for _ in range(3):
            assert run_cli(capsys, argv)[0] == 0
        # M_MMAP_THRESHOLD at glibc's 64-bit ceiling, M_TRIM_THRESHOLD at twice it
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]

    @pytest.mark.parametrize("case", ["confstr raises", "confstr None", "no mallopt", "no libc"])
    def test_a_silent_no_op_without_glibc(self, tmp_path, capsys, monkeypatch, fresh, case):
        def confstr(name):
            if case == "confstr raises":
                raise ValueError("unrecognized configuration name")
            return None if case == "confstr None" else "glibc 2.36"

        def cdll(name):
            if case == "no libc":
                raise OSError("no such library")
            if case == "confstr None":
                raise AssertionError("the C library was loaded without glibc")
            return argparse.Namespace()  # a library without mallopt

        monkeypatch.setattr(os, "confstr", confstr)
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        argv = ["run", "--config", write_config(tmp_path, self.RUN)]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith("scenario=distinguishable T=0.4")

    @pytest.mark.skipif(not _glibc(), reason="the policy is glibc's")
    def test_second_sweep_reuses_the_heap(self, tmp_path, capsys):
        # freed blocks stay in the heap, so the same sweep again faults in few new pages
        cfg = write_config(tmp_path, "scenario = partial\np = 0.85\nepsilon = 0.25\n"
                           "variable = T\nstart = 0\nstop = 1\nsteps = 1001\n")
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "sweep.csv")]

        import resource  # Unix only

        def faults():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(argv) == 0
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        first = faults()
        assert faults() <= max(16, first // 4)
        assert capsys.readouterr() == ("", "")


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
            ("scenario = distinguishable\nT = 0.4\nseed = oops\n", "unknown config key: seed"),
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

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        # a Latin-1 e-acute in a comment: the decode error is a config error naming the file
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# caf\xe9\n" + self.CFG.encode())
        code, out, err = run_cli(capsys, ["run", "--config", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot read config {str(path)!r}:")
        assert "can't decode byte 0xe9" in err

    # the three filter branches: a prescription, an explicit pair, the unit pair; and a
    # pair whose product is subnormal, whose root is sqrt(A_A) * sqrt(A_B)
    @pytest.mark.parametrize(
        "name",
        [
            "run_partial_V_ff",
            "run_indistinguishable_H_filters",
            "run_distinguishable_V_unit",
            "run_tiny_filters",
        ],
    )
    def test_output_equals_golden_files(self, tmp_path, capsys, name):
        # one closed-form point on floats: stdout and --out
        argv = ["run", "--config", str(DATA / f"{name}.cfg")]
        code, out, err = run_cli(capsys, argv + ["--out", str(tmp_path / "trace.json")])
        assert (code, err) == (0, "")
        assert out.encode() == (DATA / f"{name}.txt").read_bytes()
        got = (tmp_path / "trace.json").read_bytes()
        assert got == (DATA / f"{name}.json").read_bytes()

    @pytest.mark.parametrize(
        "text",
        [
            "scenario = indistinguishable\nT = 0.5\nepsilon = 1\n",
            "scenario = distinguishable\nT = 0\nepsilon = 0.5\n",
            "scenario = partial\np = 0.85\nT = 0\nepsilon = 0.25\nbranch = V\n"
            "feed_forward = true\n",
        ],
        ids=["indistinguishable-T-half", "distinguishable-T-0", "partial-T-0-V-ff"],
    )
    def test_zero_factor_runs_the_unit_pair(self, tmp_path, capsys, text):
        # a prescribed factor of zero (beta gamma = 0, where stage II's xi is 0) gives the
        # unit pair: stage III is stage II, passed with probability 1
        code, out, err = run_cli(capsys, ["run", "--config", write_config(tmp_path, text)])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[1] == "filters A_A=1.0 A_B=1.0"
        stage_2, stage_3 = (STAGE_LINE.match(line).groups() for line in lines[3:5])
        assert stage_3 == ("III", stage_2[1], "1.0000", stage_2[3])
        assert stage_2[1] == "0.0000"


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

    def test_unit_pair_point_keeps_stage_two_as_stage_three(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scenario = indistinguishable\nvariable = T\nstart = 0.3\nstop = 0.5\n"
            "steps = 2\nepsilon = 1\n",
        )
        code, out, _ = run_cli(capsys, ["sweep", "--config", path])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        at_half = [r for r in rows if float(r[2]) == 0.5]
        assert [r[1] for r in at_half] == ["I", "II", "III"]
        assert all(r[5] == "1" and r[6] == "1" for r in at_half)
        # stage III's concurrence and cumulative probability are stage II's, passed at 1
        assert at_half[2][7::2] == at_half[1][7::2] and at_half[2][8] == "1"
        at_03 = [r for r in rows if float(r[2]) == 0.3]
        assert [r[1] for r in at_03] == ["I", "II", "III"]

    @pytest.mark.parametrize(
        "text,stage3_points",
        [
            # every T within 1e-10 of T = 1/2, where the 2T - 1 coherence vanishes
            ("scenario = partial\np = 0.85\nvariable = T\nstart = 0.4999999999\n"
             "stop = 0.5000000001\nsteps = 7\nepsilon = 0.25\n", 7),
            ("scenario = partial\np = 0\nvariable = T\nstart = 0\nstop = 1\nsteps = 2\n"
             "epsilon = 0.25\n", 2),
            ("scenario = partial\nT = 1\nvariable = p\nstart = 0\nstop = 1\nsteps = 2\n"
             "epsilon = 0.25\n", 2),
            # A_A A_B = 1e-600 underflows: only sqrt(A_A) sqrt(A_B) keeps the T = 1 coherence;
            # T = 0 and 1/2 take the unit pair, and the rest is filtered to zero trace
            ("scenario = indistinguishable\nvariable = T\nstart = 0\nstop = 1\nsteps = 7\n"
             "epsilon = 1e-300\nbranch = V\nfeed_forward = true\n", 3),
            # epsilon sweeps: stages I-II are one point, whose rows fill every point
            ("scenario = indistinguishable\nT = 1\nvariable = epsilon\nstart = 1e-300\n"
             "stop = 1\nsteps = 7\nbranch = V\nfeed_forward = true\n", 7),
            ("scenario = partial\np = 0.85\nT = 0.5\nvariable = epsilon\nstart = 1e-300\n"
             "stop = 1\nsteps = 7\n", 6),
        ],
        ids=["T-half", "T-0-1-p-0", "p-0-1-T-1", "epsilon-1e-300-V-ff", "epsilon-T-1-V-ff",
             "epsilon-T-half"],
    )
    def test_grid_of_edge_values_agrees_with_the_oracle(
        self, tmp_path, capsys, text, stage3_points
    ):
        code, out, err = run_cli(capsys, ["sweep", "--config", write_config(tmp_path, text)])
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        points = [r for r in rows if r[1] == "I"]
        stage3 = [r for r in rows if r[1] == "III"]
        cfg = parse_config_text(text)
        kind = cfg["scenario"]
        p = np.array([float(r[4]) for r in points])
        config = ChannelConfig(
            scenario=partial(p) if kind == "partial" else Scenario(kind),
            T=np.array([float(r[2]) for r in points]),
            epsilon=np.array([float(r[3]) for r in points]),
            branch=cfg.get("branch", "H"),
            feed_forward=cfg.get("feed_forward") == "true",
        )
        *stages, oracle = oracle_protocol(config)
        for stage in stages:
            got = [float(r[7]) for r in rows if r[1] == stage.stage]
            assert got == pytest.approx(concurrence_x(stage.params).tolist(), rel=1e-9, abs=1e-12)
        pair = resolve_filters(config)
        unit = (pair.a_a == 1.0) & (pair.a_b == 1.0)
        assert len(stage3) == stage3_points == np.count_nonzero(oracle.kept)
        # a point keeps stage III where the oracle keeps it, unit-pair points always
        assert np.all(oracle.kept[unit])
        assert [float(r[2]) for r in stage3] == config.T[oracle.kept].tolist()
        for row, c in zip(stage3, concurrence_x(oracle.params).tolist()):
            assert float(row[7]) == pytest.approx(c, rel=1e-9, abs=1e-12), row
        for row, point_kept in zip(rows, np.repeat(oracle.kept, 2 + oracle.kept)):
            assert (row[5] == "nan") == (not point_kept), row
        if kind == "indistinguishable":
            assert float(stage3[-1][7]) == pytest.approx(1.0, rel=1e-12)

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
        # T = 0 takes the unit pair: stage III is stage II
        at_zero = [r for r in rows if float(r[2]) == 0.0]
        assert [r[1] for r in at_zero] == ["I", "II", "III"]
        assert all(r[5] == "1" and r[6] == "1" for r in at_zero)
        assert at_zero[2][7::2] == at_zero[1][7::2]
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
        unit = [r for r in doc["records"] if r["T"] == 0.5]
        assert len(unit) == 3
        assert all(r["A_A"] == r["A_B"] == 1.0 for r in unit)
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

    @pytest.mark.parametrize(
        "variable,value", [("T", "oops"), ("T", "0.4"), ("p", "7"), ("epsilon", "0.5")]
    )
    def test_sweep_rejects_its_own_variable_as_a_key(self, tmp_path, capsys, variable, value):
        keys = {"scenario": "partial", "p": "0.5", "T": "0.3", variable: value}
        keys.update(variable=variable, start="0.1", stop="0.9", steps="3")
        path = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, out) == (2, "")
        assert err == f"config error: config key {variable} conflicts with variable = {variable}\n"

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
            ("variable = T\nstart = 0.1\nstop = inf\nsteps = 3", "must be finite"),
            ("variable = T\nstart = -inf\nstop = 0.9\nsteps = 1", "must be finite"),
            ("variable = T\nstart = -1e308\nstop = 1e308\nsteps = 2", "finite span"),
            ("variable = T\nstart = 0\nstop = 1e308\nsteps = 3", "finite span"),
            (
                "variable = T\nstart = 0.1\nstop = 0.9\nsteps = 3\nseed = 1",
                "unknown config key: seed",
            ),
        ],
    )
    def test_sweep_config_errors(self, tmp_path, capsys, line, fragment):
        # a sweep over epsilon may not set epsilon itself
        epsilon = "" if "variable = epsilon" in line else "epsilon = 1\n"
        path = write_config(tmp_path, f"scenario = distinguishable\n{epsilon}{line}\n")
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, out) == (2, "")
        assert err.startswith("config error:")
        assert fragment in err
        assert "Warning" not in err

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

    def test_out_of_range_point_exits_2_before_a_failing_point(self, tmp_path, capsys):
        # the sweep's last T = 1.5 is out of range, a config error found when
        # the whole T column is checked, before any point is evaluated or written
        path = write_config(
            tmp_path,
            "scenario = partial\np = 0.85\nepsilon = 1e-300\nvariable = T\nstart = 0.1\n"
            "stop = 1.5\nsteps = 15\n",
        )
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, ["sweep", "--config", path, "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err.startswith("config error: T must lie in [0, 1]")
        assert not out_path.exists()

    def test_zero_trace_point_drops_stage_three(self, tmp_path, capsys):
        # epsilon = 1e-300 filters the stage-II population down to zero trace
        # at the 12 points up to T = 0.8071; each gets stages I-II, with NaN factors
        path = write_config(
            tmp_path,
            "scenario = partial\np = 0.85\nepsilon = 1e-300\nvariable = T\nstart = 0.1\n"
            "stop = 1\nsteps = 15\n",
        )
        code, out, err = run_cli(capsys, ["sweep", "--config", path])
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        points: dict[float, list] = {}
        for r in rows:
            points.setdefault(float(r[2]), []).append(r)
        assert len(points) == 15
        for t, point in points.items():
            if t < 0.81:
                assert [r[1] for r in point] == ["I", "II"], t
                assert all(r[5] == "nan" and r[6] == "nan" for r in point)
            else:
                assert [r[1] for r in point] == ["I", "II", "III"], t
        assert [len(p) for p in points.values()] == [2] * 12 + [3] * 3

    def test_zero_trace_point_still_fails_a_run(self, tmp_path, capsys):
        # the prescribed pair is not the unit pair at T = 0.3: its factors are tiny, not zero
        for t in ("0.1", "0.3"):
            text = f"scenario = partial\np = 0.85\nepsilon = 1e-300\nT = {t}\n"
            code, out, err = run_cli(capsys, ["run", "--config", write_config(tmp_path, text)])
            assert (code, out) == (3, ""), t
            assert err.startswith("domain error: filtering removed all population"), t

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", GOLDEN_SWEEPS)
    def test_blocks_of_three_points(self, tmp_path, capsys, monkeypatch, name, fmt):
        # every block seam, and a last block shorter than the others, leave the bytes alone
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 3)
        want = (DATA / f"{name}.{fmt}").read_bytes()
        argv = ["sweep", "--config", str(DATA / f"{name}.cfg"), "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == want
        out_path = tmp_path / f"sweep.{fmt}"
        code, silent, _ = run_cli(capsys, argv + ["--out", str(out_path)])
        assert (code, silent) == (0, "")
        assert out_path.read_bytes() == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_number_call_per_block(self, capsys, monkeypatch, fmt):
        # every float column of a block is formatted in one call of the format's number map
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 3)
        name = {"csv": "_csv_numbers", "json": "_json_numbers"}[fmt]
        number = getattr(cli, name)
        sizes = []
        monkeypatch.setattr(cli, name, lambda col: sizes.append(col.size) or number(col))
        argv = ["sweep", "--config", str(DATA / "sweep_epsilon_tiny_ff.cfg"), "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (DATA / f"sweep_epsilon_tiny_ff.{fmt}").read_bytes()
        # 26 points in blocks of 3
        assert len(sizes) == 9

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_block_cells_freed_before_next_block(self, capsys, monkeypatch, fmt):
        # at most one block's cells are alive: each block's are freed before the next is built
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 3)
        sweep_cells = cli._sweep_cells
        blocks = []

        def watched(*args):
            assert [ref() for ref in blocks] == [None] * len(blocks)
            cells = sweep_cells(*args)
            blocks.append(weakref.ref(cells))
            return cells

        monkeypatch.setattr(cli, "_sweep_cells", watched)
        argv = ["sweep", "--config", str(DATA / "sweep_epsilon_tiny_ff.cfg"), "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (DATA / f"sweep_epsilon_tiny_ff.{fmt}").read_bytes()
        assert len(blocks) == 9


class TestDistinctValues:
    """A block's number map is given each distinct value once, compared by its bits."""

    @staticmethod
    def numbers(capsys, monkeypatch, path, fmt):
        """The columns a sweep hands to ``fmt``'s number map, one per block, and its stdout."""
        name = {"csv": "_csv_numbers", "json": "_json_numbers"}[fmt]
        number = getattr(cli, name)
        columns = []
        monkeypatch.setattr(cli, name, lambda col: columns.append(col.copy()) or number(col))
        code, out, err = run_cli(capsys, ["sweep", "--config", str(path), "--format", fmt])
        assert (code, err) == (0, "")
        return columns, out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("steps", [1, 2, 10])
    def test_prescribed_p_sweep(self, tmp_path, capsys, monkeypatch, fmt, steps):
        # per point p, stages I-II's concurrence and probability, stage III's three
        # columns and the prescribed pair's attenuated factor; the other factor is epsilon's
        # own float and takes its text.  Once per block T and epsilon, and a factor column
        # of one bit pattern: both of a one-point block's, and the first 10-step block's
        # A_B, all epsilon, as gamma > beta up to p = 0.93
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 5)
        path = write_config(
            tmp_path,
            "scenario = partial\nT = 0.35\nepsilon = 0.4\nbranch = V\nvariable = p\n"
            f"start = 0\nstop = 1\nsteps = {steps}\n",
        )
        columns, _ = self.numbers(capsys, monkeypatch, path, fmt)
        assert [col.size for col in columns] == {1: [12], 2: [20], 10: [48, 47]}[steps]

    @staticmethod
    def filter_values(path, col):
        """The filter factors in a one-block column: after the swept column and two constants."""
        conf = cli._read_config(str(path), "sweep")
        kept = run_protocol(conf.channel)[2].kept
        # stages I-II's concurrence and probability (stage II's cumulative probability is
        # its own, or with feed-forward stage I's, and takes that text), and stage III's
        # three where kept
        stage_values = 4 * kept.size + 3 * kept.sum()
        return col[kept.size + 2 : col.size - stage_values], conf.epsilon

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["sweep_T_filters", "sweep_p_filters"])
    def test_explicit_pair_once(self, capsys, monkeypatch, fmt, name):
        (col,), out = self.numbers(capsys, monkeypatch, DATA / f"{name}.cfg", fmt)
        assert out.encode("utf-8") == (DATA / f"{name}.{fmt}").read_bytes()
        assert self.filter_values(DATA / f"{name}.cfg", col)[0].tolist() == [0.35, 0.9]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["sweep_T_indistinguishable", "sweep_T_distinguishable"])
    def test_prescribed_T_sweep_reuses_epsilon(self, capsys, monkeypatch, fmt, name):
        # the unattenuated arm's factor is epsilon's own float, whose text epsilon's cell
        # gives; only the distinguishable sweep's constant A_B is formatted, once
        (col,), out = self.numbers(capsys, monkeypatch, DATA / f"{name}.cfg", fmt)
        assert out.encode("utf-8") == (DATA / f"{name}.{fmt}").read_bytes()
        filters, epsilon = self.filter_values(DATA / f"{name}.cfg", col)
        same = filters.view(np.uint64) == np.float64(epsilon).view(np.uint64)
        assert same.sum() == (name == "sweep_T_distinguishable")
        # the other arm at every point, and both NaN factors where stage III is dropped
        sizes = {"sweep_T_indistinguishable": 42, "sweep_T_distinguishable": 20}
        assert filters.size == sizes[name]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("feed_forward", ["true", "false"])
    def test_cumulative_column_takes_a_probability_text(
        self, tmp_path, capsys, monkeypatch, fmt, feed_forward
    ):
        # stage II's cumulative probability is stage I's probability (2 P_II with
        # feed-forward) or its own: the number map is given no column for it
        path = write_config(
            tmp_path,
            "scenario = partial\np = 0.85\nepsilon = 0.25\nbranch = V\n"
            f"feed_forward = {feed_forward}\nvariable = T\nstart = 0.1\nstop = 0.9\nsteps = 9\n",
        )
        (col,), out = self.numbers(capsys, monkeypatch, path, fmt)
        s1, s2, s3 = run_protocol(cli._read_config(path, "sweep").channel)
        handed = np.concatenate([concurrence_x(s1.params), s1.probability,
                                 concurrence_x(s2.params), s2.probability,
                                 concurrence_x(s3.params), s3.probability,
                                 s3.cumulative_probability])
        assert col[-handed.size :].view(np.uint64).tolist() == handed.view(np.uint64).tolist()
        if fmt == "csv":
            rows = [line.split(",") for line in out.splitlines()[1:]]
        else:
            rows = [list(r.values()) for r in json.loads(out)["records"]]
        cumulative = [float(r[9]) for r in rows if r[1] == "II"]
        assert cumulative == s2.cumulative_probability.tolist()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signed_zeros_and_nans_keep_their_text(self, tmp_path, capsys, monkeypatch, fmt):
        # an explicit pair's epsilon cell is 0.0: a -0.0 factor does not take its text, a
        # column of 0.0 and -0.0 is not one value, nor one of NaN and a number
        path = write_config(
            tmp_path,
            "scenario = partial\np = 0.6\nA_A = 0.5\nA_B = 0.5\nvariable = T\n"
            "start = 0.2\nstop = 0.4\nsteps = 3\n",
        )
        pairs = {"a_a": [-0.0, 0.0, -0.0], "a_b": [math.nan, 0.5, math.nan]}
        real = cli.run_protocol

        def crafted(config):
            stages = real(config)
            filters = unchecked(FilterPair, **{k: np.array(v) for k, v in pairs.items()})
            stages[2] = dataclasses.replace(stages[2], filters=filters)
            return stages

        monkeypatch.setattr(cli, "run_protocol", crafted)
        _, out = self.numbers(capsys, monkeypatch, path, fmt)
        if fmt == "csv":
            cells = [line.split(",")[5:7] for line in out.splitlines()[1::3]]
            assert cells == [["-0", "nan"], ["0", "0.5"], ["-0", "nan"]]
        else:
            records = json.loads(out)["records"][::3]
            assert [(r["A_A"], r["A_B"]) for r in records] == [(-0.0, None), (0.0, 0.5),
                                                               (-0.0, None)]
            assert [math.copysign(1, r["A_A"]) for r in records] == [-1, 1, -1]


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
    ("partial", "II", 0.3, 0.4, 0.85, 0.5, 1.0, 2.0, 0.25, 0.5),
    ("partial", "I", 1e308, 1e308, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
]


def near_powers(first, stop):
    """The powers of ten from ``1e{first}`` below ``1e{stop}``, then 1, 2 and 3 ulps either side."""
    powers = np.array([float(f"1e{e}") for e in range(first, stop)])
    near = [powers]
    up = down = powers
    for _ in range(3):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, 0.0)
        near += [up, down]
    return np.concatenate(near)


def format_cells(rows, fmt):
    """The rows' cells as the sweep builds them from the format record ``fmt``.

    Each numeric column goes through ``fmt.number`` and each label through
    ``fmt.label``, and every cell carries the text after it, the first also
    the record's opening.
    """
    kinds, stages, *numbers = zip(*rows)
    opening, *after = fmt.separators
    cells = np.column_stack(
        [np.array([fmt.label(x) for x in labels], dtype=object) for labels in (kinds, stages)]
        + [np.array(fmt.number(np.array(col, dtype=np.float64)), dtype=object) for col in numbers]
    )
    cells[:, 0] = opening + cells[:, 0]
    return cells + np.array(after, dtype=object)


def sweep_text(rows, fmt, first=True, last=True):
    """The rows written by the sweep's one writer as ``fmt``'s table, or a block of it."""
    record = cli._SWEEP_FORMATS[fmt]
    return cli._sweep_text(format_cells(rows, record), record, first, last)


class TestSweepWriters:
    """The cell formatters and writer against csv.writer + _fmt and json.dumps(indent=2)."""

    @pytest.mark.parametrize("index", range(len(SYNTHETIC_ROWS)))
    def test_one_row(self, index):
        rows = [SYNTHETIC_ROWS[index]]
        assert sweep_text(rows, "csv") == reference_csv(rows)
        assert sweep_text(rows, "json") == reference_json(rows)

    def test_all_rows(self):
        assert sweep_text(SYNTHETIC_ROWS, "csv") == reference_csv(SYNTHETIC_ROWS)
        assert sweep_text(SYNTHETIC_ROWS, "json") == reference_json(SYNTHETIC_ROWS)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks(self, fmt):
        # a table written as a first, a middle and a last block is one table; the last
        # record's last cell, whose separator the last block replaces, is integral and
        # follows a NaN and a -inf
        rows = SYNTHETIC_ROWS + [
            ("partial", "III", 0.25, 1e-300, 0.5, 1.0, 2.0, math.nan, -math.inf, 3.0)
        ]
        text = (
            sweep_text(rows[:2], fmt, first=True, last=False)
            + sweep_text(rows[2:4], fmt, first=False, last=False)
            + sweep_text(rows[4:], fmt, first=False, last=True)
        )
        if fmt == "csv":
            assert text == reference_csv(rows)
            assert text.endswith("\npartial,III,0.25,1e-300,0.5,1,2,nan,-inf,3\n")
        else:
            assert text == reference_json(rows)
            assert text.endswith(
                '      "concurrence": null,\n      "probability": -Infinity,\n'
                '      "cumulative_probability": 3.0\n    }\n  ]\n}\n'
            )

    def test_random_bit_patterns(self):
        # every float64 class: normal, subnormal, signed zero, inf, nan payloads
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=(400, 8), dtype=np.uint64)
        rows = [("partial", "III", *v) for v in bits.view(np.float64).tolist()]
        # and short decimals, which take the fewest repr digits
        rows += [("partial", "II", *v) for v in rng.uniform(0, 1, size=(50, 8)).round(3).tolist()]
        assert sweep_text(rows, "csv") == reference_csv(rows)
        assert sweep_text(rows, "json") == reference_json(rows)

    def test_csv_numbers_equal_percent_format(self):
        # the vectorized kernel against "%.17g" % x, one value at a time
        rng = np.random.default_rng(11)
        odd = 2 * rng.integers(0, 2**20, size=20_000) + 1
        col = np.concatenate(
            [
                rng.random(100_000),
                10.0 ** rng.uniform(-30, 17, size=100_000),
                # every power of ten from 1e-200 to 1e17 and 3 ulps either side: both
                # sides of the switches at 1e-5/1e-4 and 1e16/1e17 among them
                near_powers(-200, 18),
                # exact binary fractions, among them 18-digit decimal ties
                odd * 2.0 ** -rng.integers(1, 64, size=odd.size),
                rng.integers(1, 2**52, size=1000, dtype=np.uint64).view(np.float64),  # subnormal
                [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-200, 1e300],
            ]
        )
        col = np.concatenate([col, -col[::5]])
        assert col.size >= 200_000
        assert cli._csv_numbers(col) == ["%.17g" % x for x in col.tolist()]
        # a half-even tie that rounds up: without a margin for it the kernel prints ...937e-08
        assert cli._csv_numbers(np.array([3 * 2**-25])) == ["8.9406967163085938e-08"]

    def test_json_numbers_equal_repr(self):
        # the shortest-digit kernel against repr, one value at a time
        rng = np.random.default_rng(13)
        places = rng.integers(1, 15, size=20_000)
        col = np.concatenate(
            [
                rng.random(60_000),
                10.0 ** rng.uniform(-210, 17, size=60_000),
                rng.integers(0, 2**64, size=30_000, dtype=np.uint64).view(np.float64),
                rng.integers(1, 2**52, size=1000, dtype=np.uint64).view(np.float64),  # subnormal
                np.arange(1000) / 999,
                # decimals with 1-14 places, which repr prints in few digits
                rng.integers(0, 10**6, size=places.size) / 10.0**places,
                2.0 ** np.arange(-700, 60),
                # every power of ten from 1e-210 to 1e17 and 3 ulps either side
                near_powers(-210, 18),
                [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-200, 1e300],
            ]
        )
        col = np.concatenate([col, -col[::3]])
        assert col.size >= 200_000
        assert cli._json_numbers(col) == [
            "null" if math.isnan(x) else repr(x).replace("inf", "Infinity") for x in col.tolist()
        ]

    @pytest.mark.parametrize(
        "x,text",
        [
            # the gap below a power of two is half the gap above: the nearest 16-digit
            # candidate, ...801e-14, lies outside it, so only the one above fits
            (2.0**-44, "5.684341886080802e-14"),
            (2.0**-24, "5.960464477539063e-08"),
            (123.0, "123.0"),
            (-0.0, "-0.0"),
            (0.0, "0.0"),
            (1e16, "1e+16"),
            (9999999999999998.0, "9999999999999998.0"),
            (0.1 + 0.2, "0.30000000000000004"),
        ],
    )
    def test_json_number_pins(self, x, text):
        assert repr(x) == text
        assert cli._json_numbers(np.array([x])) == [text]

    def test_near_tie_keeps_its_digit(self):
        # the rounding remainder lies within the tie margin of 1/2 but is no tie: without
        # the margin the kernel rounds the 17th digit down and prints 4.421976605688792e-92
        from ebrsim import g17

        x = 4.421976605688792e-92
        assert g17.strings(np.array([x, -x])) == ["%.17g" % v for v in (x, -x)]

    def test_zeros_take_the_fast_path(self):
        # a zero's digits are N = 0 at e = 0, laid out as "0" or "-0" without "%.17g" %
        from ebrsim import g17

        col = np.array([0.0, -0.0, 0.5, -0.0])
        fast, n, exponent = g17._g17_digits(col)
        assert fast.all()
        assert (n[[0, 1, 3]].tolist(), exponent[[0, 1, 3]].tolist()) == ([0] * 3, [0] * 3)
        assert g17.strings(col) == ["0", "-0", "0.5", "-0"]

    def test_layout_table_holds_every_exponent(self):
        # the fast domain's ends, a zero and values off the domain, which compute on 1
        from ebrsim import g17

        tiny = 1e-200  # below 10**-200: its 17 digits lie a decade lower, its shortest not
        col = np.array([tiny, np.nextafter(tiny, 1), np.nextafter(1e16, 0), 1e16, 0.0, -0.0,
                        math.nan, math.inf, 1e300, 5e-324])
        assert g17._g17_digits(col)[2][0] == g17._LEAST_EXPONENT == -201
        for digits in (g17._g17_digits, g17._shortest_digits):
            exponent = digits(col)[2]
            assert g17._LEAST_EXPONENT <= exponent.min()
            assert exponent.max() < g17._LEAST_EXPONENT + g17._EXPONENTS
        assert g17.strings(col) == ["%.17g" % x for x in col.tolist()]
        assert g17.shortest(col) == [repr(x) for x in col.tolist()]

    def test_near_power_values_take_the_fast_path(self):
        # log10 rounds a value a few ulps below a power of ten up to that power; such a
        # value is computed again one decade lower and stays on the fast path, unless its
        # exact V = |x| * 10**(16 - e) lies within the tie margin of a half-integer
        from ebrsim import g17

        col = near_powers(-200, 16)
        col = col[col >= 1e-200]  # the fast domain's lower end
        ties = []
        for x in col.tolist():
            exact = Fraction(x)
            e = math.floor(math.log10(x))
            e += (exact >= Fraction(10) ** (e + 1)) - (exact < Fraction(10) ** e)
            v = exact * Fraction(10) ** (16 - e)
            ties.append(abs(v - math.floor(v) - Fraction(1, 2)) <= 2 * g17._TIE_MARGIN)
        ties = np.array(ties)
        # 1e15 - 0.125, + 0.25 and - 0.375 are exact 17-digit ties
        assert ties.sum() == 3
        assert g17._digits(col)[0].tolist() == (~ties).tolist()
        col = np.concatenate([col, -col])
        assert g17.strings(col) == ["%.17g" % x for x in col.tolist()]
        assert g17.shortest(col) == [repr(x) for x in col.tolist()]


class TestOracleCheckCommand:
    def test_coarse_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle-check", "--grid-step", "0.25"])
        assert code == 0
        lines = out.splitlines()
        passes = [l for l in lines if l.startswith("PASS")]
        assert len(passes) == 3
        assert any("distinguishable" in l for l in passes)
        assert any("partial" in l for l in passes)
        # T = 0.5 sits on this grid, and its three stages are compared like every T's
        assert lines == passes
        assert all(" points=18 " in l for l in passes)

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

    # 0.02 puts a grid point on the singular T = 1/2; 0.05 is the default grid;
    # 0.001 has 999 T values, more than one oracle_check block holds
    @pytest.mark.parametrize("step", ["0.02", "0.05", "0.001"])
    def test_output_equals_golden_file(self, capsys, tmp_path, step):
        golden = (DATA / f"oracle_check_{step}.txt").read_bytes()
        out_path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, ["oracle-check", "--grid-step", step, "--out", str(out_path)]
        )
        assert code == 0
        assert out.encode() == golden
        assert out_path.read_bytes() == golden

    def test_phase_convention_equals_golden_file(self):
        # the CLI has no convention flag, so the report goes through its text helper
        golden = (DATA / "oracle_check_0.02_phase.txt").read_bytes()
        report = oracle_check(0.02, convention="phase")
        assert cli._oracle_check_text(report).encode() == golden

    @pytest.fixture(scope="class")
    def report_002(self):
        return oracle_check(0.02)

    # 0 and 7e-16 fail every scenario, 1e-10 none
    @pytest.mark.parametrize("tol", [0.0, 7e-16, 1e-10])
    def test_replaced_tolerance_gets_its_own_verdict(self, report_002, tol):
        # the verdict at the report's own 1e-10 is cached before the copy is made
        assert report_002.ok and cli._oracle_check_text(report_002).count("PASS") == 3
        copy = dataclasses.replace(report_002, tol=tol)
        fresh = oracle_check(0.02, tol=tol)
        assert copy.first_failure == fresh.first_failure
        assert copy.ok == fresh.ok == (tol == 1e-10)
        assert cli._oracle_check_text(copy).splitlines() == cli._oracle_check_text(fresh).splitlines()

    @pytest.mark.parametrize("tol", ["1e-10", "1e-18"])
    def test_each_scenario_is_judged_once(self, capsys, monkeypatch, tol):
        judged = []
        failures = fock.ScenarioDeviations.failures

        def counting(check, tol):
            judged.append(check.kind)
            return failures(check, tol)

        monkeypatch.setattr(fock.ScenarioDeviations, "failures", counting)
        code, _, _ = run_cli(capsys, ["oracle-check", "--grid-step", "0.25", "--tol", tol])
        assert code == (0 if tol == "1e-10" else 1)
        assert judged == ["distinguishable", "indistinguishable", "partial"]

    def test_failing_output_equals_golden_file(self, capsys, tmp_path):
        # every scenario fails at 7e-16, and the first failure is mid-grid (T = 0.96)
        golden = (DATA / "oracle_check_0.02_tol7e-16.txt").read_bytes()
        out_path = tmp_path / "report.txt"
        argv = ["oracle-check", "--grid-step", "0.02", "--tol", "7e-16", "--out", str(out_path)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 1
        assert out.encode() == golden
        assert out_path.read_bytes() == golden


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
        counts = counts_from_csv((tmp_path / "tomo.counts.csv").read_text())
        assert len(counts.settings) == len(counts.observed) == 36
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
        counts = counts_from_csv((tmp_path / "tomo16.counts.csv").read_text())
        assert len(counts.settings) == len(counts.observed) == 16

    @pytest.mark.parametrize(
        "source",
        ["scenario = indistinguishable\nT = 0.5\nepsilon = 1\n",
         "scenario = distinguishable\nT = 0\nepsilon = 0.5\n"],
        ids=["indistinguishable-T-half", "distinguishable-T-0"],
    )
    def test_unit_pair_stage_three_is_stage_two(self, tmp_path, capsys, source):
        # the unit pair leaves stage II as it is: the same truth, seed and counts
        outs = []
        for stage in ("II", "III"):
            text = f"state = stage\nstage = {stage}\n{source}total_triples = 500\ntrials = 5\n"
            path = write_config(tmp_path, text)
            code, out, err = run_cli(capsys, ["tomography", "--config", path])
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]

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

    # stage III on 36 settings, whose counts file has the bytes the per-setting draw loop
    # wrote; and stage II on the 16 minimal settings with a background and a clipped weight
    @pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("tomography_*.cfg")))
    def test_output_equals_golden_files(self, tmp_path, capsys, name):
        argv = ["tomography", "--config", str(DATA / f"{name}.cfg")]
        code, out, err = run_cli(capsys, argv + ["--out", str(tmp_path / "tomo")])
        assert (code, err) == (0, "")
        assert out.encode() == (DATA / f"{name}.txt").read_bytes()
        for suffix in (".counts.csv", ".result.json"):
            got = (tmp_path / f"tomo{suffix}").read_bytes()
            assert got == (DATA / f"{name}{suffix}").read_bytes()

    @pytest.mark.parametrize(
        "line",
        [
            "total_triples = 1e-300",
            # the subtraction leaves counts near -1e308, whose inversion overflows
            "background = 1e308",
        ],
    )
    def test_uncalibrated_counts_are_typed(self, tmp_path, capsys, line):
        path = write_config(tmp_path, f"state = singlet\ntrials = 5\n{line}\n")
        args = argparse.Namespace(config=path, out=None, seed=None)
        with pytest.raises(UnusableCounts, match="too low to calibrate"):
            cli.cmd_tomography(args)
        code, out, err = run_cli(capsys, ["tomography", "--config", path])
        assert (code, out) == (3, "")
        assert err == "domain error: count totals too low to calibrate the measurement scale\n"

    @pytest.mark.parametrize("state", ["singlet", "mixed"])
    @pytest.mark.parametrize(
        "lines,key",
        [
            ("T = oops\nscenario = banana\nstage = IV\n", "T"),
            ("stage = III\n", "stage"),
            ("epsilon = 0.25\nfeed_forward = true\n", "epsilon"),
            ("A_A = 0.5\nA_B = 0.5\nbranch = V\n", "A_A"),
        ],
    )
    def test_run_keys_without_a_stage_state_exit_2(self, tmp_path, capsys, state, lines, key):
        path = write_config(tmp_path, f"state = {state}\ntrials = 5\n{lines}")
        code, out, err = run_cli(capsys, ["tomography", "--config", path])
        assert (code, out) == (2, "")
        assert err == f"config error: config key {key} only applies to state = stage\n"

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CFG)
        code, out, err = run_cli(capsys, ["tomography", "--config", path, "--seed", "-1"])
        assert (code, out) == (2, "")
        assert err == "config error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "seed,message",
        [("oops", "config key seed must be an integer, got 'oops'"),
         ("-1", "seed must be nonnegative, got -1")],
    )
    def test_config_seed_is_read_under_the_seed_flag(self, tmp_path, capsys, seed, message):
        # --seed overrides the config's seed, but the config's is still read and checked
        path = write_config(tmp_path, f"state = singlet\nseed = {seed}\ntrials = 5\n")
        for flags in ([], ["--seed", "3"]):
            code, out, err = run_cli(capsys, ["tomography", "--config", path, *flags])
            assert (code, out, err) == (2, "", f"config error: {message}\n"), flags

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
            ("state = singlet\ntrials = 100001\n", "trials must be at most 100000, got 100001"),
            ("state = singlet\ntrials = 1000000000000000\n", "trials must be at most 100000"),
            ("state = singlet\nbackground = nan\n", "background must be nonnegative"),
            ("state = singlet\nbackground = inf\n", "background must be nonnegative"),
            ("state = singlet\nbackground = -3\n", "background must be nonnegative"),
            ("state = singlet\ntotal_triples = 1e300\n", "expected counts per setting"),
            ("state = singlet\nseed = -1\n", "seed must be nonnegative, got -1"),
        ],
    )
    def test_config_errors(self, tmp_path, capsys, cfg, fragment):
        path = write_config(tmp_path, cfg)
        code, _, err = run_cli(capsys, ["tomography", "--config", path])
        assert code == 2
        assert err.startswith("config error:")
        assert fragment in err


# A valid config of each command that gives every key it requires
KEY_BASES = {
    "run": {"scenario": "partial", "p": "0.85", "T": "0.3"},
    "sweep": {"scenario": "partial", "p": "0.85", "T": "0.3", "variable": "epsilon",
              "start": "0.5", "stop": "1", "steps": "2"},
    "tomography": {"state": "stage", "scenario": "partial", "p": "0.85", "T": "0.3", "trials": "5"},
}
FOREIGN_KEYS = [(command, key) for command in KEY_BASES for key, row in cli._KEYS.items()
                if command not in row.commands]
REQUIRED_KEYS = [(command, key) for command in KEY_BASES for key, row in cli._KEYS.items()
                 if command in row.commands and row.default is cli._REQUIRED]


def run_config(tmp_path, capsys, command, cfg):
    text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
    return run_cli(capsys, [command, "--config", write_config(tmp_path, text)])


class TestKeyTable:
    """Each command's keys, rules and defaults come from the one table, ``cli._KEYS``."""

    @pytest.mark.parametrize("command", KEY_BASES)
    def test_bases_are_valid(self, tmp_path, capsys, command):
        assert run_config(tmp_path, capsys, command, KEY_BASES[command])[0] == 0

    @pytest.mark.parametrize("command,key", FOREIGN_KEYS)
    def test_a_key_the_command_does_not_take_exits_2(self, tmp_path, capsys, command, key):
        cfg = KEY_BASES[command] | {key: "1"}
        code, out, err = run_config(tmp_path, capsys, command, cfg)
        assert (code, out, err) == (2, "", f"config error: unknown config key: {key}\n")

    @pytest.mark.parametrize("command,key", REQUIRED_KEYS)
    def test_a_missing_required_key_exits_2(self, tmp_path, capsys, command, key):
        cfg = {k: v for k, v in KEY_BASES[command].items() if k != key}
        code, out, err = run_config(tmp_path, capsys, command, cfg)
        assert (code, out, err) == (2, "", f"config error: missing required config key: {key}\n")

    def test_readme_lists_the_table(self):
        # README's common-keys table, and the tables of the keys sweep and tomography add,
        # each row a key (or two) and its default: "required", "none" or its value's text
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = {}
        for command, heading in [("run", "Common keys"), ("sweep", "`sweep` adds:"),
                                 ("tomography", "`tomography` adds:")]:
            rest = readme[readme.index(heading):].splitlines()[1:]
            first = next(i for i, line in enumerate(rest) if line.startswith("|"))
            rows = rest[first + 2:]
            rows = rows[: next(i for i, line in enumerate(rows) if not line.startswith("|"))]
            listed[command] = {}
            for line in rows:
                names, default = [cell.strip() for cell in line.strip("|").split("|")][:2]
                for key in re.findall(r"`([^`]+)`", names):
                    listed[command][key] = default.strip("`")
        for command in ("sweep", "tomography"):
            listed[command] |= listed["run"]
        for command, keys in listed.items():
            taken = {key for key, row in cli._KEYS.items() if command in row.commands}
            assert keys.keys() == taken, command
            for key, default in keys.items():
                row = cli._KEYS[key]
                if default == "required":
                    assert row.default is cli._REQUIRED, key
                elif default == "none":
                    assert row.default is None, key
                else:
                    assert row.parse(key, default) == row.default, key


# Values at, just past or far beyond an edge of some input's domain, and one
# that is not a number; the plain values let a config reach the deeper layers.
EDGE_VALUES = [
    "0", "1", repr(0.5 + 1e-10), repr(0.5 - 1e-10), "5e-324", "1e-300", "nan", "inf",
    "-inf", "-0.0", "1e308", "-1", "2", "oops",
]
PLAIN_VALUES = ["0.3", "0.25", "0.85", "0.7"]
# the same for the integer keys and flags
INTEGER_EDGE_VALUES = ["0", "1", "2", "-1", "-0", "1e308", "nan", "oops"]


# Ends of the seeded sweep grids, each of which runs from one to another in
# 3-7 steps: 0 to 1 in an odd number of steps passes through 1/2 as well.
GRID_EDGES = ["0", "1", repr(0.5 + 1e-10), repr(0.5 - 1e-10), "5e-324", "1e-300"]


def _value(rng, edges=EDGE_VALUES):
    return rng.choice(edges if rng.random() < 0.7 else PLAIN_VALUES)


def _channel_keys(rng, edges=EDGE_VALUES):
    cfg = {
        "scenario": rng.choice(["distinguishable", "indistinguishable", "partial", "Partial"]),
        "T": _value(rng, edges),
    }
    if cfg["scenario"].lower() == "partial" or rng.random() < 0.1:
        cfg["p"] = _value(rng, edges)
    filters = rng.random()
    if filters < 0.4:
        cfg["epsilon"] = _value(rng, edges)
    elif filters < 0.6:
        cfg["A_A"], cfg["A_B"] = _value(rng, edges), _value(rng, edges)
    if rng.random() < 0.3:
        cfg["branch"] = "V"
    if rng.random() < 0.3:
        cfg["feed_forward"] = "true"
    return cfg


def _run_argv(rng, path):
    return _channel_keys(rng), ["run", "--config", path]


def _sweep_argv(rng, path):
    cfg = _channel_keys(rng)
    variable = rng.choice(["T", "epsilon", "p"])
    cfg.pop(variable, None)  # a sweep that sets its own variable exits 2
    if variable == "epsilon" and rng.random() < 0.8:
        cfg.pop("A_A", None), cfg.pop("A_B", None)
    if variable == "p" and rng.random() < 0.8:
        cfg["scenario"] = "partial"
    cfg.update(variable=variable, start=_value(rng), stop=_value(rng), steps=rng.choice("127"))
    return cfg, ["sweep", "--config", path, "--format", rng.choice(["csv", "json"])]


def _sweep_grid_argv(rng, path):
    """A sweep between two edge values, its constant keys drawn from the same edges."""
    cfg = _channel_keys(rng, GRID_EDGES)
    variable = rng.choice(["T", "epsilon", "p"])
    cfg.pop(variable, None)
    if variable == "epsilon":
        cfg.pop("A_A", None), cfg.pop("A_B", None)
    if variable == "p":
        cfg["scenario"] = "partial"
    start, stop = rng.sample(GRID_EDGES, 2)
    cfg.update(variable=variable, start=start, stop=stop, steps=rng.randint(3, 7))
    return cfg, ["sweep", "--config", path, "--format", rng.choice(["csv", "json"])]


def _tomography_argv(rng, path):
    state = rng.choice(["stage", "stage", "singlet", "mixed"])
    # the run keys and stage apply only to state = stage; a singlet or mixed config with one exits 2
    cfg = _channel_keys(rng) | {"stage": rng.choice(["I", "II", "III"])} if state == "stage" else {}
    cfg["state"] = state
    for key, plain, edges in (
        ("total_triples", "2000", EDGE_VALUES),
        ("trials", "20", INTEGER_EDGE_VALUES),
        ("settings", rng.choice(["16", "36"]), INTEGER_EDGE_VALUES),
        ("background", "0.5", EDGE_VALUES),
        ("seed", "3", INTEGER_EDGE_VALUES),
    ):
        draw = rng.random()
        if draw < 0.2:
            cfg[key] = rng.choice(edges)
        elif draw < 0.8:
            cfg[key] = plain
    argv = ["tomography", "--config", path]
    if rng.random() < 0.2:
        argv.append(f"--seed={rng.choice(INTEGER_EDGE_VALUES)}")
    return cfg, argv


def _oracle_check_argv(rng, path):
    return {}, ["oracle-check", f"--grid-step={_value(rng)}", f"--tol={_value(rng)}"]


def _env(**overrides):
    """The environment of a fresh interpreter that imports this ebrsim."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path, **overrides}


def _out_argv(rng, command, work):
    """No ``--out``, or one into a missing directory, onto a directory, or to a new file."""
    kind = rng.choice(["none", "missing", "directory", "valid"])
    if kind == "none":
        return []
    if kind == "missing":
        return ["--out", str(work / "missing" / "out")]
    if kind == "valid":
        return ["--out", str(work / "out")]
    # tomography's --out is a prefix: one of the two files it names is a directory
    suffix = rng.choice([".counts.csv", ".result.json"]) if command == "tomography" else ""
    (work / f"taken{suffix}").mkdir(exist_ok=True)
    return ["--out", str(work / "taken")]


# A small valid config of each command that reads one, for the tests of failed writes
WRITE_CONFIGS = {
    "run": "scenario = distinguishable\nT = 0.4\n",
    "sweep": "scenario = distinguishable\nvariable = T\nstart = 0.2\nstop = 0.8\nsteps = 3\n",
    "tomography": "state = singlet\ntotal_triples = 2000\ntrials = 20\n",
}


def failing_stream(error, method):
    """A text stream whose ``method``, ``write`` or ``flush``, fails with ``error``."""

    class Failing(io.StringIO):
        pass

    def fail(*args):
        raise OSError(error, os.strerror(error))

    setattr(Failing, method, fail)
    return Failing()


# Each command's --help, and the top-level one
HELP_ARGVS = [["--help"], *([command, "--help"] for command in
                            ("run", "sweep", "oracle-check", "tomography"))]


class TestExitCodeContract:
    """Whatever a config or flag holds, a command returns a status or raises a typed error.

    ``main`` maps ``ConfigError`` and ``InvalidParameter`` to exit 2 and other
    ``EbrsimError``s to exit 3; anything else, a warning included, is a bug.
    """

    @pytest.mark.parametrize(
        "make,count",
        [(_run_argv, 120), (_sweep_argv, 150), (_tomography_argv, 150), (_oracle_check_argv, 60),
         (_sweep_grid_argv, 120)],
        ids=["run", "sweep", "tomography", "oracle-check", "sweep-grid"],
    )
    def test_only_typed_errors_escape(self, tmp_path, capsys, make, count):
        rng = random.Random(20261018)
        # a stream of its own, so the configs drawn do not depend on the --out draws
        out_rng = random.Random(20261019)
        path = str(tmp_path / "edge.cfg")
        for _ in range(count):
            cfg, argv = make(rng, path)
            argv += _out_argv(out_rng, argv[0], tmp_path)
            text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
            Path(path).write_text(text)
            try:
                args = cli.build_parser().parse_args(argv)
            except SystemExit as exc:
                # argparse's own exit 2 for a flag value that is not a number
                assert exc.code == 2, argv
                continue
            try:
                code = args.func(args)
            except (ConfigError, InvalidParameter, EbrsimError):
                continue
            except Exception as exc:  # noqa: BLE001 - any other escape fails the contract
                raise AssertionError(f"{argv} with config {text!r} raised {exc!r}") from exc
            assert code in (0, 1), (argv, text)
        capsys.readouterr()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize(
        "command,suffix",
        [("run", ""), ("sweep", ""), ("oracle-check", ""),
         ("tomography", ".counts.csv"), ("tomography", ".result.json")],
    )
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command, suffix, kind):
        # tomography's --out is a prefix: the directory takes one of the two file names
        argv = [command]
        if command in WRITE_CONFIGS:
            argv += ["--config", write_config(tmp_path, WRITE_CONFIGS[command])]
        if kind == "missing":
            out = tmp_path / "missing" / "out"
        else:
            out = tmp_path / "taken"
            Path(f"{out}{suffix}").mkdir()
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run_cli(capsys, argv + ["--out", str(out)])
        assert code == 2
        assert err.startswith("config error: cannot write")
        # every output is opened before the first write: nothing written, no file left
        assert stdout == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "command,config",
        [
            ("run", "scenario = distinguishable\nT = 0.4\n"),
            # three points fail as the file's buffer is flushed on close, 4000 in a write
            ("sweep", "scenario = distinguishable\nvariable = T\nstart = 0.2\nstop = 0.8\nsteps = 3\n"),
            ("sweep", "scenario = distinguishable\nvariable = T\nstart = 0.2\nstop = 0.8\nsteps = 4000\n"),
            ("oracle-check", None),
        ],
        ids=["run", "sweep", "sweep-blocks", "oracle-check"],
    )
    def test_failed_write_exits_2(self, tmp_path, capsys, command, config):
        # /dev/full opens, but every write to it fails with ENOSPC
        argv = [command] if config is None else [command, "--config", write_config(tmp_path, config)]
        code, stdout, err = run_cli(capsys, argv + ["--out", "/dev/full"])
        assert code == 2
        assert err.startswith("config error: cannot write '/dev/full': ")
        # stdout is written only once the --out file is closed
        assert stdout == ""

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("error", [errno.ENOSPC, errno.EPIPE], ids=["full", "closed"])
    @pytest.mark.parametrize("command", ["run", "sweep", "oracle-check", "tomography"])
    def test_failed_stdout_write_exits_2(self, tmp_path, capsys, monkeypatch, command, error,
                                         method):
        # a full stdout (ENOSPC) and one whose reader has gone (EPIPE), failing as it is
        # written to or flushed: never an OSError, never the failed-check status 1
        argv = [command]
        if command in WRITE_CONFIGS:
            argv += ["--config", write_config(tmp_path, WRITE_CONFIGS[command])]
        else:
            argv += ["--grid-step", "0.25", "--tol", "1e-18"]  # a check that fails
        monkeypatch.setattr(sys, "stdout", failing_stream(error, method))
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(ConfigError):
            args.func(args)
        assert main(argv) == 2
        message = f"cannot write '<stdout>': [Errno {error}] {os.strerror(error)}"
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_failed_help_write_exits_2(self, capsys, monkeypatch, argv, method):
        # argparse prints help itself; its text is written by the same rule as a command's
        monkeypatch.setattr(sys, "stdout", failing_stream(errno.ENOSPC, method))
        assert main(argv) == 2
        message = "cannot write '<stdout>': [Errno 28] No space left on device"
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize(
        "argv,status",
        [
            (["run", "--config", "missing.cfg"], 2),
            (["sweep", "--config", "missing.cfg", "--format", "json"], 2),
            (["tomography", "--config", "missing.cfg", "--seed", "3"], 2),
            (["oracle-check", "--out", "missing/report.txt"], 2),
            # argparse's usage errors: a missing command, flag and flag value
            ([], 2),
            (["run"], 2),
            (["oracle-check", "--grid-step", "oops"], 2),
            # a point filtered to zero trace is a domain error
            (["run", "--config", "zero_trace.cfg"], 3),
            # help is written to stdout, and nothing to stderr
            (["--help"], 0),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_unwritable_error_message_keeps_the_status(self, tmp_path, capsys, monkeypatch, argv,
                                                       status, method):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, "scenario = partial\np = 0.85\nT = 0.3\nepsilon = 1e-300\n",
                     "zero_trace.cfg")
        monkeypatch.setattr(sys, "stderr", failing_stream(errno.ENOSPC, method))
        assert main(argv) == status
        assert capsys.readouterr().out.startswith("usage: ebrsim" if status == 0 else "")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_full_stdout_help_exits_2(self, argv, unbuffered):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ebrsim.cli", *argv], stdout=full, stderr=subprocess.PIPE,
                text=True, timeout=120, env=_env(PYTHONUNBUFFERED=unbuffered),
            )
        assert proc.returncode == 2
        message = "cannot write '<stdout>': [Errno 28] No space left on device"
        assert proc.stderr == f"config error: {message}\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", [["run", "--config", "/nonexistent"], ["run"]],
                             ids=["config", "usage"])
    def test_full_stderr_keeps_exit_2(self, argv, unbuffered):
        # the error message cannot be written: the status is still 2, and stdout stays empty
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ebrsim.cli", *argv], stdout=subprocess.PIPE, stderr=full,
                text=True, timeout=120, env=_env(PYTHONUNBUFFERED=unbuffered),
            )
        assert (proc.returncode, proc.stdout) == (2, "")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_full_stdout_prints_no_traceback(self, tmp_path, unbuffered):
        # block-buffered stdout fails only as it is flushed; the flush at exit then prints nothing
        path = write_config(tmp_path, WRITE_CONFIGS["run"])
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ebrsim.cli", "run", "--config", path],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                env=_env(PYTHONUNBUFFERED=unbuffered),
            )
        assert proc.returncode == 2
        message = "cannot write '<stdout>': [Errno 28] No space left on device"
        assert proc.stderr == f"config error: {message}\n"

    def test_closed_pipe_prints_no_traceback(self, tmp_path):
        # sweep | head -n 1: the reader goes after one line, four blocks into a 20 001-point sweep
        path = write_config(
            tmp_path,
            "scenario = partial\nT = 0.35\nepsilon = 0.4\nbranch = V\nvariable = p\n"
            "start = 0\nstop = 1\nsteps = 20001\n",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "ebrsim.cli", "sweep", "--config", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
        )
        assert proc.stdout.readline() == SWEEP_HEADER + "\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert err == "config error: cannot write '<stdout>': [Errno 32] Broken pipe\n"

    def test_unwritable_out_exits_2_before_a_failing_check(self, tmp_path, capsys):
        # the tolerance fails the check (exit 1 with a writable --out, see the golden file)
        argv = ["oracle-check", "--grid-step", "0.02", "--tol", "7e-16"]
        out = tmp_path / "taken"
        out.mkdir()
        code, stdout, err = run_cli(capsys, argv + ["--out", str(out)])
        assert (code, stdout) == (2, "")
        assert err.startswith("config error: cannot write")
        code, stdout, _ = run_cli(capsys, argv + ["--out", str(tmp_path / "report.txt")])
        assert code == 1
        assert stdout == (tmp_path / "report.txt").read_text() == (
            DATA / "oracle_check_0.02_tol7e-16.txt"
        ).read_text()

    def test_failed_open_keeps_an_existing_file(self, tmp_path, capsys):
        config = write_config(tmp_path, "state = singlet\ntotal_triples = 2000\ntrials = 20\n")
        out = tmp_path / "tomo"
        Path(f"{out}.counts.csv").write_text("earlier counts\n")
        Path(f"{out}.result.json").mkdir()
        code, stdout, _ = run_cli(capsys, ["tomography", "--config", config, "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert Path(f"{out}.counts.csv").read_text() == "earlier counts\n"

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    def test_out_replaces_an_existing_file(self, tmp_path, capsys, command):
        # the file is opened without truncation and emptied only once every output is open
        argv = [command]
        if command == "run":
            argv += ["--config", write_config(tmp_path, "scenario = distinguishable\nT = 0.4\n")]
        out = tmp_path / "out.txt"
        out.write_text("x" * 100_000)
        code, stdout, _ = run_cli(capsys, argv + ["--out", str(out)])
        assert code == 0
        fresh = tmp_path / "fresh.txt"
        assert run_cli(capsys, argv + ["--out", str(fresh)]) == (0, stdout, "")
        assert out.read_bytes() == fresh.read_bytes()


# A fresh interpreter imports the CLI, runs each argv, and prints which deferred
# modules' bodies ran: a marker name each body defines is in its namespace, read
# with object.__getattribute__, which does not run the body the way any module
# attribute lookup would.
_START_UP_PROBE = """
import contextlib, io, json, sys
import ebrsim.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [ebrsim.cli.main(argv) for argv in json.loads(sys.argv[1])]
markers = {"fock": "oracle_check", "tomography": "simulate_counts"}
ran = sorted(name for name, marker in markers.items()
             if marker in object.__getattribute__(sys.modules["ebrsim." + name], "__dict__"))
print(json.dumps({"codes": codes, "ran": ran}))
"""


class TestStartUp:
    """A command runs the bodies of only the deferred modules it calls."""

    def _ran(self, *argvs):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        proc = subprocess.run(
            [sys.executable, "-c", _START_UP_PROBE, json.dumps(list(argvs))],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        result = json.loads(proc.stdout)
        assert result["codes"] == [0] * len(argvs)
        return result["ran"]

    def test_run_and_sweep_run_neither_oracle_nor_tomography(self):
        run = ["run", "--config", str(DATA / "run_partial_V_ff.cfg")]
        sweep = ["sweep", "--config", str(DATA / "sweep_T_indistinguishable.cfg")]
        json_sweep = ["sweep", "--config", str(DATA / "sweep_p_partial.cfg"), "--format", "json"]
        assert self._ran(run, sweep, json_sweep) == []

    def test_oracle_check_runs_fock_only(self):
        assert self._ran(["oracle-check", "--grid-step", "0.1"]) == ["fock"]

    def test_tomography_runs_tomography_only(self):
        tomo = ["tomography", "--config", str(DATA / "tomography_stage3.cfg")]
        assert self._ran(tomo) == ["tomography"]
