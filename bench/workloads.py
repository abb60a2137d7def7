"""Seeded inputs, output checks and the layer map of the ebrsim benchmark.

Every input the CLI receives is generated here from the run's seed. The
module imports no part of ebrsim at load time: the set-up probe times
that import itself, so only the check functions, which run after it,
touch the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SWEEP_HEADER = [
    "scenario", "stage", "T", "epsilon", "p", "A_A", "A_B",
    "concurrence", "probability", "cumulative_probability",
]

# Oracle comparison tolerances. The Wootters route to the concurrence
# agrees with the closed form to ~2e-11 over the whole parameter box.
RTOL = 1e-8
ATOL = 1e-9
# A point may omit stage III only where the filter prescription is
# singular: at T = 1/2, and at T = 0 once the edge defect is fixed.
SINGULAR_DISTANCE = 1e-6

# Acceptance-test-10 bound on the fidelity to the true state. Like that
# test, it bounds the median: a single 2000-triple reconstruction falls
# below 0.90 about once in 300 draws from counting statistics alone.
MIN_MEDIAN_FIDELITY = 0.90

# Public functions timed as layers: (layer.function, module, attribute,
# workloads whose calls must reach it). ``core`` is absent: none of its
# functions is called at a meaningful rate, so its cost lands in its
# callers' self time.
SWEEPS = ("sweep_T_csv", "sweep_p_json")
ALL = SWEEPS + ("oracle_grid", "tomography_bootstrap")
TOMOGRAPHY = ("tomography_bootstrap",)
ORACLE = ("oracle_grid",)
LAYERS = [
    ("cli.main", "ebrsim.cli", "main", ALL),
    ("protocol.run_protocol", "ebrsim.protocol", "run_protocol", ALL),
    ("protocol.stage1", "ebrsim.protocol", "stage1", ALL),
    ("protocol.stage2", "ebrsim.protocol", "stage2", ALL),
    ("protocol.resolve_filters", "ebrsim.protocol", "resolve_filters", ALL),
    ("metrics.normalized_state", "ebrsim.metrics", "normalized_state", ALL),
    ("metrics.concurrence_x", "ebrsim.metrics", "concurrence_x", SWEEPS),
    ("metrics.concurrence", "ebrsim.metrics", "concurrence", TOMOGRAPHY),
    ("metrics.fidelity", "ebrsim.metrics", "fidelity", TOMOGRAPHY),
    ("fock.oracle_check", "ebrsim.fock", "oracle_check", ORACLE),
    ("fock.oracle_protocol", "ebrsim.fock", "oracle_protocol", ORACLE),
    ("fock.evolve_bs", "ebrsim.fock", "evolve_bs", ORACLE),
    ("fock.conditional_state", "ebrsim.fock", "conditional_state", ORACLE),
    ("tomography.simulate_counts", "ebrsim.tomography", "simulate_counts", TOMOGRAPHY),
    ("tomography.reconstruct", "ebrsim.tomography", "reconstruct", TOMOGRAPHY),
    ("tomography.error_bars", "ebrsim.tomography", "error_bars", TOMOGRAPHY),
]


class CheckFailed(Exception):
    """A CLI output disagrees with what the benchmark expects."""


@dataclass
class Call:
    """One CLI invocation: its argv, the config files it reads, and what to expect."""

    argv: list[str]
    items: int
    configs: dict[Path, str] = field(default_factory=dict)
    outputs: list[Path] = field(default_factory=list)
    expect: dict = field(default_factory=dict)


@dataclass
class Output:
    code: int
    stdout: str
    stderr: str
    files: dict[Path, str]

    def digest(self) -> str:
        """Every byte the call produced, for the determinism check."""
        files = "".join(f"\0{p.name}\0{t}" for p, t in sorted(self.files.items()))
        return self.stdout + self.stderr + files


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[random.Random, int, Path, bool], Call]
    check: Callable[[Call, Output], dict]


def _cfg(pairs: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def _exit_ok(out: Output) -> None:
    if out.code != 0:
        raise CheckFailed(f"exit code {out.code}: {out.stderr.strip()}")


def _close(name: str, got: float, want: float) -> None:
    if not abs(got - want) <= RTOL * max(abs(got), abs(want)) + ATOL:
        raise CheckFailed(f"{name}: CLI {got!r} vs oracle {want!r}")


def _grid(start: float, stop: float, steps: int) -> list[float]:
    return [start + i * (stop - start) / (steps - 1) for i in range(steps)]


# --- sweeps -----------------------------------------------------------------


def make_sweep_T(rng: random.Random, index: int, work: Path, smoke: bool) -> Call:
    """T sweep symmetric about 1/2 with an odd step count, so its midpoint is singular."""
    steps = 21 if smoke else 1001
    half = rng.uniform(0.45, 0.49)
    cfg = {
        "scenario": "partial",
        "p": repr(rng.uniform(0.80, 0.90)),
        "epsilon": repr(rng.uniform(0.2, 0.6)),
        "feed_forward": "true",
        "variable": "T",
        "start": repr(0.5 - half),
        "stop": repr(0.5 + half),
        "steps": steps,
    }
    path = work / "sweep_T.cfg"
    samples = sorted({steps // 2, *rng.sample(range(steps), 3)})
    return Call(
        argv=["sweep", "--config", str(path)],
        items=steps,
        configs={path: _cfg(cfg)},
        expect={"cfg": cfg, "samples": samples},
    )


def make_sweep_T_edge(work: Path) -> Call:
    """The untimed edge operation: an epsilon sweep that starts at T = 0."""
    cfg = {
        "scenario": "partial", "p": "0.85", "epsilon": "0.25", "feed_forward": "true",
        "variable": "T", "start": "0", "stop": "1", "steps": 11,
    }
    path = work / "sweep_T_edge.cfg"
    return Call(
        argv=["sweep", "--config", str(path)],
        items=11,
        configs={path: _cfg(cfg)},
        expect={"cfg": cfg, "samples": list(range(11))},
    )


def make_sweep_p(rng: random.Random, index: int, work: Path, smoke: bool) -> Call:
    steps = 20 if smoke else 1000
    t = rng.uniform(0.1, 0.4) if rng.random() < 0.5 else rng.uniform(0.6, 0.9)
    cfg = {
        "scenario": "partial",
        "T": repr(t),
        "epsilon": repr(rng.uniform(0.2, 0.6)),
        "branch": "V",
        "feed_forward": "false",
        "variable": "p",
        "start": "0",
        "stop": "1",
        "steps": steps,
    }
    path = work / "sweep_p.cfg"
    out = work / "sweep_p.json"
    return Call(
        argv=["sweep", "--config", str(path), "--format", "json", "--out", str(out)],
        items=steps,
        configs={path: _cfg(cfg)},
        outputs=[out],
        expect={"cfg": cfg, "samples": sorted(rng.sample(range(steps), 4))},
    )


def _csv_rows(text: str) -> list[list]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != SWEEP_HEADER:
        raise CheckFailed("CSV header missing or wrong")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != len(SWEEP_HEADER):
            raise CheckFailed(f"CSV row has {len(f)} fields: {line!r}")
        rows.append([f[0], f[1]] + [float(x) for x in f[2:]])
    return rows


def _json_rows(text: str) -> list[list]:
    rows = []
    for rec in json.loads(text)["records"]:
        if list(rec) != SWEEP_HEADER:
            raise CheckFailed(f"JSON record keys {list(rec)}")
        rows.append(
            [rec["scenario"], rec["stage"]]
            + [math.nan if rec[k] is None else float(rec[k]) for k in SWEEP_HEADER[2:]]
        )
    return rows


def _check_sweep(call: Call, rows: list[list]) -> dict:
    """Row structure of every point, then a seeded sample against the Fock oracle."""
    from ebrsim.fock import oracle_protocol
    from ebrsim.metrics import concurrence
    from ebrsim.protocol import ChannelConfig, partial

    cfg = call.expect["cfg"]
    variable = cfg["variable"]
    col = SWEEP_HEADER.index(variable)
    values = _grid(float(cfg["start"]), float(cfg["stop"]), int(cfg["steps"]))
    points: list[list[list]] = []
    for row in rows:
        if row[1] == "I":
            points.append([])
        elif not points:
            raise CheckFailed("sweep output starts with a row that is not stage I")
        points[-1].append(row)
    if len(points) != len(values):
        raise CheckFailed(f"{len(points)} points for {len(values)} sweep values")
    stage3 = 0
    for want, point in zip(values, points):
        stages = [r[1] for r in point]
        t = point[0][2]
        if any(r[2:5] != point[0][2:5] for r in point):
            raise CheckFailed(f"rows of one point disagree on T, epsilon or p at {t!r}")
        if not abs(point[0][col] - want) <= 1e-12 * max(1.0, abs(want)):
            raise CheckFailed(f"{variable} = {point[0][col]!r}, expected {want!r}")
        if stages == ["I", "II", "III"]:
            stage3 += 1
        elif stages == ["I", "II"]:
            if min(abs(2.0 * t - 1.0), t) > SINGULAR_DISTANCE:
                raise CheckFailed(f"stage III missing at non-singular T = {t!r}")
        else:
            raise CheckFailed(f"stages {stages} at T = {t!r}")
    for index in call.expect["samples"]:
        point = points[index]
        _, _, t, eps, p = point[0][:5]
        config = ChannelConfig(
            scenario=partial(p),
            T=t,
            branch=cfg.get("branch", "H"),
            feed_forward=cfg["feed_forward"] == "true",
            epsilon=eps if len(point) == 3 else None,
        )
        for row, ref in zip(point, oracle_protocol(config)):
            where = f"{variable}={point[0][col]!r} stage {row[1]}"
            _close(f"concurrence at {where}", row[7], concurrence(ref.state).value)
            _close(f"probability at {where}", row[8], ref.probability)
            _close(f"cumulative_probability at {where}", row[9], ref.cumulative_probability)
    return {"points": len(points), "stage3_points": stage3}


def check_sweep_csv(call: Call, out: Output) -> dict:
    _exit_ok(out)
    return _check_sweep(call, _csv_rows(out.stdout))


def check_sweep_json(call: Call, out: Output) -> dict:
    _exit_ok(out)
    if out.stdout:
        raise CheckFailed("--out given but the sweep also wrote to stdout")
    return _check_sweep(call, _json_rows(out.files[call.outputs[0]]))


# --- oracle grid -------------------------------------------------------------

# Every step rounds to 50 grid intervals (49 interior T values, 294
# tuples); 0.02 puts a grid point on the singular T = 1/2.
_GRID_STEPS = (0.0199, 0.01995, 0.02, 0.02005, 0.0201, 0.0202)
_SMOKE_GRID_STEPS = (0.099, 0.1, 0.101)


def make_oracle(rng: random.Random, index: int, work: Path, smoke: bool) -> Call:
    step = rng.choice(_SMOKE_GRID_STEPS if smoke else _GRID_STEPS)
    interior = round(1.0 / step) - 1
    return Call(argv=["oracle-check", "--grid-step", repr(step)], items=3 * interior * 2)


def check_oracle(call: Call, out: Output) -> dict:
    _exit_ok(out)
    lines = out.stdout.splitlines()
    passed = [ln for ln in lines if ln.startswith("PASS ")]
    skipped = [ln for ln in lines if ln.startswith("SKIPPED-singular ")]
    if len(passed) != 3 or len(passed) + len(skipped) != len(lines):
        raise CheckFailed(f"expected three PASS lines and singular notes, got {lines!r}")
    # A tuple compares stages I-III, or I-II where the prescription is singular.
    records = sum(int(ln.split("points=")[1].split()[0]) for ln in passed)
    if records != 3 * call.items - len(skipped):
        raise CheckFailed(f"{records} stage comparisons for {call.items} tuples")
    return {"tuples": call.items, "skipped_tuples": len(skipped)}


# --- tomography --------------------------------------------------------------


def make_tomography(rng: random.Random, index: int, work: Path, smoke: bool) -> Call:
    """A stage-III state; every fourth call uses the minimal 16-setting scheme."""
    trials = 10 if smoke else 200
    t = rng.uniform(0.2, 0.4) if rng.random() < 0.5 else rng.uniform(0.6, 0.8)
    cfg = {
        "state": "stage",
        "stage": "III",
        "scenario": "partial",
        "p": repr(rng.uniform(0.80, 0.90)),
        "T": repr(t),
        "epsilon": repr(rng.uniform(0.2, 0.6)),
        "total_triples": 2000,
        "trials": trials,
        "settings": 16 if index % 4 == 3 else 36,
        "seed": rng.randrange(2**31),
    }
    path = work / "tomography.cfg"
    return Call(
        argv=["tomography", "--config", str(path)],
        items=trials,
        configs={path: _cfg(cfg)},
        expect={"cfg": cfg},
    )


def check_tomography(call: Call, out: Output) -> dict:
    _exit_ok(out)
    fields = dict(
        item.split("=", 1) for line in out.stdout.splitlines() for item in line.split()
        if "=" in item
    )
    if fields.get("settings") != str(call.expect["cfg"]["settings"]):
        raise CheckFailed(f"settings line missing or wrong in {out.stdout!r}")
    try:
        f_truth = float(fields["fidelity_to_truth"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"no fidelity_to_truth in {out.stdout!r}") from exc
    if not 0.0 <= f_truth <= 1.0:
        raise CheckFailed(f"fidelity_to_truth = {f_truth!r} outside [0, 1]")
    return {"fidelity_to_truth": f_truth}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_T_csv",
            "Hot path of the closed-form engine: protocol.run_protocol and cli parsing plus "
            "CSV formatting dominate, on one sweep thread.",
            make_sweep_T,
            check_sweep_csv,
        ),
        Workload(
            "sweep_p_json",
            "Same protocol layer via mix_partial and the V-branch flip, but cli time goes to "
            "JSON serialization into a file, so a CSV-only speed-up that slows JSON shows.",
            make_sweep_p,
            check_sweep_json,
        ),
        Workload(
            "oracle_grid",
            "fock.oracle_protocol dominates: Fock optimizations show here, closed-form "
            "optimizations should show almost nothing.",
            make_oracle,
            check_oracle,
        ),
        Workload(
            "tomography_bootstrap",
            "tomography.reconstruct, fidelity and Wootters concurrence dominate, with two "
            "design-cache keys; the sweeps bypass all of it.",
            make_tomography,
            check_tomography,
        ),
    )
}
