"""Command-line front end: run, sweep, oracle-check, tomography.

Config files are flat ``key = value`` text with ``#`` comments.  All
outputs are deterministic: identical config and seed produce
byte-identical bytes.  CSV floats carry 17 significant digits; JSON
floats use Python's shortest round-trip representation.

A sweep range-checks its whole swept column first, so a config error
exits 2 before any byte is written.  It then evaluates the column in
blocks of ``SWEEP_BLOCK`` points, one columnar ``run_protocol`` call per
block, and writes each block's text before the next block starts, so
memory stays bounded whatever the number of steps.  A point without
stage III (a singular prescription, or a filtered trace of zero) gets
its stage I-II rows with NaN filter factors.

The sweep writers format a block with one ``%``: the header (in the
first block), then a fixed row template (``_CSV_ROW``, ``_JSON_RECORD``)
repeated once per row, filled from the flattened rows, so no row becomes
a string of its own.  The bytes of the whole table are those of
``csv.writer`` with ``_fmt`` on every float, and of
``json.dumps({"records": ...}, indent=2)`` with NaN as ``null``: the
scenario and stage labels never need CSV quoting, and ``str`` of a
finite float is the repr json writes.  The templates exist
because the general writers cost more than the physics on a large
sweep: with ``indent`` set, ``json.dumps`` skips its C encoder and walks
every value in Python, and ``csv.writer`` makes one ``_fmt`` call per
float.

Exit codes: 0 success, 1 failed consistency check, 2 usage or config
error (including every :class:`~ebrsim.core.InvalidParameter` the
library raises), 3 domain error raised by the simulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import nullcontext
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import (
    DensityOperator,
    EbrsimError,
    InvalidParameter,
    maximally_mixed,
    singlet_vector,
    to_json,
)
from .fock import oracle_check
from .metrics import concurrence_x, fidelity
from .protocol import (
    ChannelConfig,
    FilterPair,
    Scenario,
    StageOutput,
    resolve_filters,
    run_protocol,
)
from .tomography import counts_to_csv, error_bars, reconstruct, simulate_counts

SWEEP_HEADER = (
    "scenario,stage,T,epsilon,p,A_A,A_B,concurrence,probability,cumulative_probability"
)

# Largest sweep the CLI builds; more steps is a config error, not an
# allocation that runs until memory does.
MAX_SWEEP_POINTS = 1_000_000

# Points per run_protocol call of a sweep.  Each block's three (n, 4, 4)
# state stacks, rows and text are freed once the block is written, so a
# sweep's memory does not grow with its length.
SWEEP_BLOCK = 4096

# Row templates, repeated once per row into one table template.  Fields
# 0-1 (scenario kind, stage label) never need CSV quoting, and "%.17g" is
# _fmt for fields 2-9.
_CSV_ROW = "%s,%s" + ",%.17g" * 8 + "\n"
# One record of json.dumps({"records": [...]}, indent=2), keys pre-encoded.
_JSON_RECORD = (
    "    {\n"
    + ",\n".join(f"      {encode_basestring_ascii(k)}: %s" for k in SWEEP_HEADER.split(","))
    + "\n    }"
)
_FLOAT_ONLY = {float}


class ConfigError(Exception):
    """Bad config file or bad key set; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


_RUN_KEYS = {"scenario", "p", "T", "epsilon", "A_A", "A_B", "branch", "feed_forward", "seed"}
_SWEEP_KEYS = _RUN_KEYS | {"variable", "start", "stop", "steps"}
_TOMO_KEYS = _RUN_KEYS | {"state", "stage", "total_triples", "trials", "settings", "background"}


def _check_keys(cfg: dict[str, str], allowed: set[str]) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")


def _require(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required config key: {key}")
    return cfg[key]


def _as_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be a number, got {cfg[key]!r}") from exc


def _as_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key} must be an integer, got {cfg[key]!r}") from exc


def _as_bool(cfg: dict[str, str], key: str) -> bool:
    value = cfg[key].lower()
    if value not in ("true", "false"):
        raise ConfigError(f"config key {key} must be true or false, got {cfg[key]!r}")
    return value == "true"


def _parse_scenario(cfg: dict[str, str]) -> Scenario:
    kind = _require(cfg, "scenario").lower()
    if kind == "partial":
        _require(cfg, "p")
        return Scenario("partial", _as_float(cfg, "p"))
    if "p" in cfg:
        raise ConfigError("config key p only applies to the partial scenario")
    return Scenario(kind)


def _parse_channel(cfg: dict[str, str]) -> ChannelConfig:
    scenario = _parse_scenario(cfg)
    _require(cfg, "T")
    t = _as_float(cfg, "T")
    branch = cfg.get("branch", "H").upper()
    feed_forward = _as_bool(cfg, "feed_forward") if "feed_forward" in cfg else False
    if ("A_A" in cfg) != ("A_B" in cfg):
        raise ConfigError("A_A and A_B must be given together")
    filters = None
    if "A_A" in cfg:
        filters = FilterPair(a_a=_as_float(cfg, "A_A"), a_b=_as_float(cfg, "A_B"))
    epsilon = _as_float(cfg, "epsilon") if "epsilon" in cfg else None
    return ChannelConfig(
        scenario=scenario,
        T=t,
        branch=branch,
        feed_forward=feed_forward,
        filters=filters,
        epsilon=epsilon,
    )


def _state_obj(state: DensityOperator) -> dict:
    return json.loads(to_json(state))


def _stage_obj(out: StageOutput) -> dict:
    p = out.params
    return {
        "stage": out.stage,
        "params": {
            "alpha": p.alpha,
            "beta": p.beta,
            "gamma": p.gamma,
            "delta": p.delta,
            "xi": p.xi,
            "P": p.P,
        },
        "concurrence": concurrence_x(p),
        "probability": out.probability,
        "cumulative_probability": out.cumulative_probability,
        "state": _state_obj(out.state),
    }


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _RUN_KEYS)
    config = _parse_channel(cfg)
    filters = resolve_filters(config)
    stages = run_protocol(config)
    print(
        f"scenario={config.scenario.kind} T={config.T!r} p={config.scenario.p!r}"
        f" branch={config.branch} feed_forward={'true' if config.feed_forward else 'false'}"
    )
    print(f"filters A_A={filters.a_a!r} A_B={filters.a_b!r}")
    for out in stages:
        c = concurrence_x(out.params)
        print(
            f"stage {out.stage:<4} C={c:.4f}  P={out.probability:.4f}"
            f"  cumP={out.cumulative_probability:.4f}"
        )
    if args.out:
        doc = {
            "scenario": config.scenario.kind,
            "p": config.scenario.p,
            "T": config.T,
            "branch": config.branch,
            "feed_forward": config.feed_forward,
            "filters": {"A_A": filters.a_a, "A_B": filters.a_b},
            "stages": [_stage_obj(s) for s in stages],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2))
            fh.write("\n")
    return 0


def _sweep_values(cfg: dict[str, str]) -> np.ndarray:
    start = _as_float(cfg, "start")
    stop = _as_float(cfg, "stop")
    steps = _as_int(cfg, "steps")
    if steps < 1:
        raise ConfigError(f"steps must be at least 1, got {steps}")
    if steps > MAX_SWEEP_POINTS:
        raise ConfigError(f"steps must be at most {MAX_SWEEP_POINTS}, got {steps}")
    # an infinite end or span would meet a 0 in the grid (inf * 0); a NaN end
    # passes on to the swept variable's range check
    if math.isinf(start) or math.isinf(stop) or math.isinf((stop - start) * (steps - 1)):
        raise ConfigError(
            f"sweep start and stop must be finite with a finite span, got {start!r} and {stop!r}"
        )
    if steps == 1:
        return np.array([start])
    # the float operations of start + i * (stop - start) / (steps - 1), in that order
    return start + np.arange(steps) * (stop - start) / (steps - 1)


def _swept(config: ChannelConfig, variable: str, values: np.ndarray) -> ChannelConfig:
    """``config`` with the swept variable set to a column, which is range-checked."""
    if variable == "p":
        return dataclasses.replace(config, scenario=Scenario("partial", values))
    return dataclasses.replace(config, **{variable: values})


def _sweep_rows(config: ChannelConfig) -> list[tuple]:
    """Row tuples of a column of points, stage by stage within each point.

    A point whose stage III is masked (a singular prescription, or a
    filtered trace of zero) gets stages I-II with NaN filter factors.
    """
    stages = run_protocol(config)
    kept = stages[2].kept
    n = kept.size
    a_a = np.full(n, math.nan)
    a_b = np.full(n, math.nan)
    a_a[kept] = stages[2].filters.a_a
    a_b[kept] = stages[2].filters.a_b
    epsilon = config.epsilon if config.epsilon is not None else 0.0
    shared = [np.broadcast_to(x, n) for x in (config.T, epsilon, config.scenario.p, a_a, a_b)]
    per_stage = []
    for out in stages:
        # stages I-II hold every point (or one, where only epsilon is swept), III the kept ones
        fields = [concurrence_x(out.params), out.probability, out.cumulative_probability]
        if out.kept is None:
            fields = shared + [np.broadcast_to(x, n) for x in fields]
        else:
            fields = [x[kept] for x in shared] + fields
        per_stage.append(
            zip(repeat(config.scenario.kind), repeat(out.stage), *(x.tolist() for x in fields))
        )
    first, second, third = per_stage
    rows: list[tuple] = []
    for row_1, row_2, has_3 in zip(first, second, kept.tolist()):
        rows += (row_1, row_2, next(third)) if has_3 else (row_1, row_2)
    return rows


def _sweep_csv(rows: list[tuple], header: bool = True) -> str:
    """The rows as CSV: what ``csv.writer`` writes with ``_fmt`` on each float.

    Without ``header`` the text continues a table begun by an earlier block.
    """
    head = SWEEP_HEADER + "\n" if header else ""
    return (head + _CSV_ROW * len(rows)) % tuple(chain.from_iterable(rows))


def _json_value(x) -> str:
    return "null" if isinstance(x, float) and math.isnan(x) else json.dumps(x)


def _sweep_json(rows: list[tuple], first: bool = True, last: bool = True) -> str:
    """The rows as ``json.dumps({"records": [...]}, indent=2)``, NaN as null.

    ``str`` of a finite float is the ``float.__repr__`` json writes; a row
    with a NaN, an infinity or a non-float goes through ``json.dumps``
    value by value.  ``rows`` is not empty.  A table written in blocks
    opens the document in its ``first`` block and closes it in its
    ``last``; the blocks between continue the record list.
    """
    fields: list = []
    for row in rows:
        nums = row[2:]
        if set(map(type, nums)) == _FLOAT_ONLY and math.isfinite(sum(nums)):
            fields += (encode_basestring_ascii(row[0]), encode_basestring_ascii(row[1]), *nums)
        else:
            fields += map(_json_value, row)
    template = (
        ('{\n  "records": [\n' if first else ",\n")
        + ",\n".join([_JSON_RECORD] * len(rows))
        + ("\n  ]\n}\n" if last else "")
    )
    return template % tuple(fields)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _SWEEP_KEYS)
    variable = _require(cfg, "variable")
    if variable not in ("T", "epsilon", "p"):
        raise ConfigError(f"variable must be T, epsilon or p, got {variable!r}")
    for key in ("start", "stop", "steps"):
        _require(cfg, key)
    values = _sweep_values(cfg)

    base = dict(cfg)
    for key in ("variable", "start", "stop", "steps"):
        base.pop(key, None)
    if variable == "epsilon" and ("A_A" in base or "A_B" in base):
        raise ConfigError("epsilon sweep conflicts with explicit A_A/A_B filters")
    if variable == "p" and base.get("scenario", "").lower() != "partial":
        raise ConfigError("p sweep requires scenario = partial")

    # The whole swept column is range-checked here, so a config error exits 2
    # before any byte is written; then each block is written as it is done.
    config = _swept(_parse_channel({**base, variable: cfg["start"]}), variable, values)
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        for start in range(0, values.size, SWEEP_BLOCK):
            stop = start + SWEEP_BLOCK
            rows = _sweep_rows(_swept(config, variable, values[start:stop]))
            if args.format == "json":
                fh.write(_sweep_json(rows, first=start == 0, last=stop >= values.size))
            else:
                fh.write(_sweep_csv(rows, header=start == 0))
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    report = oracle_check(grid_step=args.grid_step, tol=args.tol)
    lines = []
    for check in report.scenarios:
        status = "FAIL" if check.failures(report.tol).size else "PASS"
        lines.append(
            f"{status} {check.kind:<18} points={check.points}"
            f" max|dstate|={check.max_state_deviation:.3e}"
            f" max|dP|={check.max_probability_deviation:.3e}"
        )
    lines.extend(f"SKIPPED-singular {note}" for note in report.skipped)
    exit_code = 0
    first = report.first_failure
    if first is not None:
        lines.append(
            "FAIL first offending tuple:"
            f" scenario={first.scenario} T={_fmt(first.T)}"
            f" epsilon={_fmt(first.epsilon)} stage={first.stage}"
            f" deviation={first.deviation:.3e}"
        )
        exit_code = 1
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return exit_code


def _tomography_truth(cfg: dict[str, str]) -> DensityOperator:
    kind = cfg.get("state", "stage")
    if kind == "singlet":
        return DensityOperator.from_pure(singlet_vector())
    if kind == "mixed":
        return maximally_mixed(4)
    if kind != "stage":
        raise ConfigError(f"state must be singlet, mixed or stage, got {kind!r}")
    stage_label = cfg.get("stage", "II")
    if stage_label not in ("I", "II", "III"):
        raise ConfigError(f"stage must be I, II or III, got {stage_label!r}")
    config = _parse_channel({k: v for k, v in cfg.items() if k in _RUN_KEYS})
    resolve_filters(config)  # a singular prescription is a domain error here
    stages = run_protocol(config)
    return {s.stage: s for s in stages}[stage_label].state


def cmd_tomography(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _TOMO_KEYS)
    total = _as_float(cfg, "total_triples") if "total_triples" in cfg else 500.0
    trials = _as_int(cfg, "trials") if "trials" in cfg else 200
    seed = args.seed if args.seed is not None else (_as_int(cfg, "seed") if "seed" in cfg else 0)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    n_settings = _as_int(cfg, "settings") if "settings" in cfg else 36
    if n_settings not in (16, 36):
        raise ConfigError(f"settings must be 16 or 36, got {n_settings}")
    background = _as_float(cfg, "background") if "background" in cfg else 0.0
    truth = _tomography_truth(cfg)

    records = simulate_counts(truth, total, seed, minimal=(n_settings == 16))
    result = reconstruct(records, background=background)
    report = error_bars(result, records, trials=trials, seed=seed)
    f_truth = fidelity(result.state, truth)

    print(f"settings={n_settings} total_triples={_fmt(total)} seed={seed} trials={trials}")
    print(f"fidelity_to_truth={f_truth:.6f}")
    print(f"concurrence={report.concurrence_mean:.6f} std={report.concurrence_std:.6f}")
    print(f"fidelity_spread_std={report.fidelity_std:.6f}")
    print(f"scale={_fmt(result.scale)} relative_std={report.probability_std:.6f}")
    print(f"clipped_weight={_fmt(result.clipped_weight)}")

    if args.out:
        counts_path = args.out + ".counts.csv"
        with open(counts_path, "w", encoding="utf-8") as fh:
            fh.write(counts_to_csv(records))
        doc = {
            "settings": n_settings,
            "total_triples": total,
            "seed": seed,
            "background": background,
            "state": _state_obj(result.state),
            "scale": result.scale,
            "clipped_weight": result.clipped_weight,
            "fidelity_to_truth": f_truth,
            "uncertainty": {
                "trials": report.trials,
                "fidelity_mean": report.fidelity_mean,
                "fidelity_std": report.fidelity_std,
                "concurrence_mean": report.concurrence_mean,
                "concurrence_std": report.concurrence_std,
                "probability_mean": report.probability_mean,
                "probability_std": report.probability_std,
            },
        }
        with open(args.out + ".result.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2))
            fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebrsim",
        description="Simulator for beam-splitter entanglement breaking and restoration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate stages I-III for one configuration")
    p_run.add_argument("--config", required=True, help="flat key = value config file")
    p_run.add_argument("--out", help="write the full stage trace as JSON")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep T, epsilon or p and tabulate stages")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle-check", help="compare the closed form against the Fock oracle"
    )
    p_oracle.add_argument("--grid-step", type=float, default=0.05)
    p_oracle.add_argument("--tol", type=float, default=1e-10)
    p_oracle.add_argument("--out", help="also write the report to this path")
    p_oracle.set_defaults(func=cmd_oracle_check)

    p_tomo = sub.add_parser("tomography", help="simulate counts and reconstruct a state")
    p_tomo.add_argument("--config", required=True)
    p_tomo.add_argument("--out", help="output prefix for counts CSV and result JSON")
    p_tomo.add_argument("--seed", type=int, help="override the config seed")
    p_tomo.set_defaults(func=cmd_tomography)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EbrsimError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
