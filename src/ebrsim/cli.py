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

A block is built as a ``(rows, 10)`` array of cell strings
(``_sweep_cells``) in which each distinct value is formatted once: a
swept-over constant once per block, a point's swept value and filter
factors once per point, a stage's concurrence and probabilities once per
stage row, and once in all for the one-point stages I-II of a sweep over
``epsilon``.  All of a block's distinct float columns are concatenated and
formatted in one call by the numpy kernel :mod:`ebrsim.g17`: for CSV
by ``_csv_numbers``, the exact ``%.17g`` text of the whole column, and
for JSON by ``_json_numbers``, its exact ``repr`` text, the shortest
digits that round back, with NaN and infinities found by mask.  Values
outside the kernel's fast domain, and those whose digits it cannot
decide, go through ``"%.17g" %`` or ``repr`` one at a time.  Each format
is one ``_SweepFormat`` record: its number and label maps, the text
around a record's cells, the table's head and its close.  Every cell
carries the text that follows it (a comma or newline for CSV, which no
label or number ever needs to quote; the next key or the record's end
for JSON), added once per distinct value before it fills rows, so one
writer, ``_sweep_text``, gives either format's block as its cells in one
``"".join``.  A JSON table is the bytes of ``json.dumps({"records":
...}, indent=2)`` with NaN as ``null``, since ``repr`` of a finite float
is json's.

Exit codes: 0 success, 1 failed consistency check, 2 usage or config
error (including every :class:`~ebrsim.core.InvalidParameter` the
library raises, and an ``--out`` path that cannot be opened for
writing), 3 domain error raised by the simulation.  Every command opens
all its output files before it writes any output, so an ``--out`` that
cannot be opened exits 2 with nothing written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple, TextIO

import numpy as np

from .core import (
    EbrsimError,
    InvalidParameter,
    json_obj,
    maximally_mixed,
    pure_state,
    singlet_vector,
)
from .fock import OracleCheckReport, oracle_check
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

# Points per run_protocol call of a sweep.  A block's three (n, 4, 4) state
# stacks, cells and text are no longer referenced once its text is written,
# before the next block is built, so a sweep's memory does not grow with its
# length.
SWEEP_BLOCK = 4096


class _SweepFormat(NamedTuple):
    """How a sweep table is written: its maps and the text around its cells.

    ``number`` maps a float64 column to its cells' strings and ``label`` a
    scenario or stage label to its cell.  ``separators`` is the text before
    a record's first cell, then the text after each of its ten cells;
    ``head`` opens the table, and ``close`` replaces the last record's final
    separator.
    """

    number: Callable[[np.ndarray], list[str]]
    label: Callable[[str], str]
    separators: tuple[str, ...]
    head: str
    close: str


# The keys of json.dumps({"records": [...]}, indent=2), pre-encoded, each on
# its own line of a record
_JSON_KEYS = [f"\n      {encode_basestring_ascii(k)}: " for k in SWEEP_HEADER.split(",")]

# The number maps are looked up when called, so the module's current
# _csv_numbers or _json_numbers formats the cells.
_SWEEP_FORMATS = {
    "csv": _SweepFormat(
        lambda col: _csv_numbers(col), str, ("", *[","] * 9, "\n"), SWEEP_HEADER + "\n", "\n"
    ),
    # a JSON record opens with "{" before its first key and ends in "},", whose
    # comma the last record drops
    "json": _SweepFormat(
        lambda col: _json_numbers(col),
        encode_basestring_ascii,
        ("    {" + _JSON_KEYS[0], *("," + key for key in _JSON_KEYS[1:]), "\n    },\n"),
        head='{\n  "records": [\n',
        close="\n    }\n  ]\n}\n",
    ),
}


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


@contextlib.contextmanager
def _open_outputs(*paths: str) -> Iterator[list[TextIO]]:
    """Every output file opened for writing, before a command writes any output.

    A path that cannot be opened is a :class:`ConfigError`: the files opened
    so far are closed again, the ones this call created are removed, and no
    file that existed has been emptied, since a regular file is truncated
    only once all of them are open.
    """
    files: list[TextIO] = []
    created = []
    with contextlib.ExitStack() as stack:
        try:
            for path in paths:
                existed = os.path.lexists(path)
                files.append(stack.enter_context(open(path, "a", encoding="utf-8")))
                if not existed:
                    created.append(path)
        except OSError as exc:
            stack.close()
            for made in created:
                os.remove(made)
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc
        # A created file is empty already; truncating it anyway makes ext4
        # (auto_da_alloc) flush it on close: 0.7 ms for a 300 kB sweep file
        # on a 2-vCPU VM.
        for path, fh in zip(paths, files):
            if path not in created and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
        yield files


def _out_paths(out: str | None, *suffixes: str) -> list[str]:
    """The files an ``--out`` value names: the path, or for a prefix one per suffix."""
    return [out + suffix for suffix in suffixes or ("",)] if out else []


_RUN_KEYS = {"scenario", "p", "T", "epsilon", "A_A", "A_B", "branch", "feed_forward"}
_SWEEP_KEYS = _RUN_KEYS | {"variable", "start", "stop", "steps"}
_TOMO_KEYS = _RUN_KEYS | {
    "seed", "state", "stage", "total_triples", "trials", "settings", "background",
}


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


def _stage_obj(out: StageOutput) -> dict:
    return {
        "stage": out.stage,
        "params": dataclasses.asdict(out.params),
        "concurrence": concurrence_x(out.params),
        "probability": out.probability,
        "cumulative_probability": out.cumulative_probability,
        "state": json_obj(out.state),
    }


def _run_point(cfg: dict[str, str]) -> tuple[ChannelConfig, FilterPair, list[StageOutput]]:
    config = _parse_channel(cfg)
    filters = resolve_filters(config)  # a singular prescription is a domain error here
    return config, filters, run_protocol(dataclasses.replace(config, filters=filters, epsilon=None))


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _RUN_KEYS)
    config, filters, stages = _run_point(cfg)
    with _open_outputs(*_out_paths(args.out)) as files:
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
        for fh in files:
            doc = {
                "scenario": config.scenario.kind,
                "p": config.scenario.p,
                "T": config.T,
                "branch": config.branch,
                "feed_forward": config.feed_forward,
                "filters": {"A_A": filters.a_a, "A_B": filters.a_b},
                "stages": [_stage_obj(s) for s in stages],
            }
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


def _csv_numbers(col: np.ndarray) -> list[str]:
    """``_fmt`` of each value of a float64 column, by the numpy kernel ``g17.strings``.

    ``g17`` is imported on first use, here and in ``_json_numbers``: where
    no ``.pyc`` is written, importing it costs about 3 ms, which ``run``,
    ``oracle-check`` and ``tomography`` need not pay.
    """
    from . import g17

    return g17.strings(col)


def _json_numbers(col: np.ndarray) -> list[str]:
    """The JSON text of each value of a float64 column: ``repr``, or NaN as ``null``.

    ``repr`` of a finite float is what ``json.dumps`` prints, and the numpy
    kernel ``g17.shortest`` computes it for the whole column.  The
    non-finite values are found by mask, and an infinity is json's
    ``Infinity``.
    """
    from . import g17

    out = g17.shortest(col)
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        out[i] = "null" if math.isnan(col[i]) else json.dumps(float(col[i]))
    return out


def _sweep_cells(config: ChannelConfig, fmt: _SweepFormat) -> np.ndarray:
    """The table of a column of points as a ``(rows, 10)`` array of ``fmt``'s cells.

    Rows go point by point: stages I and II, then III where the point kept
    it; a point without stage III (a singular prescription, or a filtered
    trace of zero) has NaN filter factors.  ``fmt.number`` is called once,
    with every distinct float column of the block concatenated.

    Each cell carries the separator that follows it, and the scenario cell
    also the record's opening, so the block's text is its cells joined.  A
    separator is added to a column's distinct values before they fill rows:
    once per point, or once for a constant.  A stage whose cumulative
    probability is its probability adds both of those columns' separators
    to the one formatted text.
    """
    stages = run_protocol(config)
    kept = stages[2].kept
    per_point = 2 + kept
    first = np.cumsum(per_point) - per_point
    cells = np.empty((per_point.sum(), 10), dtype=object)
    filters = np.full((2, kept.size), math.nan)
    filters[:, kept] = stages[2].filters.a_a, stages[2].filters.a_b

    epsilon = 0.0 if config.epsilon is None else config.epsilon
    inputs = (config.T, epsilon, config.scenario.p, *filters)
    columns = [*inputs]
    for out in stages:
        columns += [concurrence_x(out.params), out.probability]
        # stage I's cumulative column, and stage II's without feed-forward, is its probability
        if out.cumulative_probability is not out.probability:
            columns.append(out.cumulative_probability)
    # a single value (a constant) broadcasts
    columns = [np.reshape(values, -1) for values in columns]
    ends = np.cumsum([values.size for values in columns])
    text = iter(np.split(np.array(fmt.number(np.concatenate(columns)), dtype=object), ends[:-1]))

    opening, *after = fmt.separators
    cells[:, 0] = opening + fmt.label(config.scenario.kind) + after[0]
    # a separator replaces a value's text in place, so its bare text is freed
    for column, values in enumerate(inputs, start=2):
        cell = next(text)
        cell += after[column]
        cells[:, column] = np.repeat(cell, per_point) if np.ndim(values) else cell
    # stages I-II of a sweep over epsilon are one point, whose cells fill every row
    for out, rows in zip(stages, (first, first + 1, first[kept] + 2)):
        concurrence, probability = next(text), next(text)
        cumulative = probability if out.cumulative_probability is out.probability else next(text)
        concurrence += after[7]
        cumulative = cumulative + after[9]  # before the probability's text changes
        probability += after[8]
        cells[rows, 1] = fmt.label(out.stage) + after[1]
        cells[rows, 7] = concurrence
        cells[rows, 8] = probability
        cells[rows, 9] = cumulative
    return cells


def _sweep_text(cells: np.ndarray, fmt: _SweepFormat, first: bool, last: bool) -> str:
    """A block's cells joined: ``fmt``'s table, or the part of it this block continues.

    The ``first`` block's first cell gains the table's head, and the
    ``last`` block's last cell has its final separator replaced by the
    table's close.
    """
    text = cells.ravel().tolist()
    if first:
        text[0] = fmt.head + text[0]
    if last:
        text[-1] = text[-1][: -len(fmt.separators[-1])] + fmt.close
    return "".join(text)


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
    if variable in base:
        raise ConfigError(f"config key {variable} conflicts with variable = {variable}")
    if variable == "epsilon" and ("A_A" in base or "A_B" in base):
        raise ConfigError("epsilon sweep conflicts with explicit A_A/A_B filters")
    if variable == "p" and base.get("scenario", "").lower() != "partial":
        raise ConfigError("p sweep requires scenario = partial")

    # The whole swept column is range-checked here, so a config error exits 2
    # before any byte is written; then each block is written as it is done.
    config = _swept(_parse_channel({**base, variable: cfg["start"]}), variable, values)
    fmt = _SWEEP_FORMATS[args.format]
    with _open_outputs(*_out_paths(args.out)) as files:
        fh = files[0] if files else sys.stdout
        for start in range(0, values.size, SWEEP_BLOCK):
            stop = start + SWEEP_BLOCK
            # no name holds a block's cells, so they are freed once its text is
            # written, before the next block is built
            block = _swept(config, variable, values[start:stop])
            fh.write(_sweep_text(_sweep_cells(block, fmt), fmt, start == 0, stop >= values.size))
    return 0


def _oracle_check_text(report: OracleCheckReport) -> str:
    """``oracle-check``'s text: a line per scenario, per skipped point and the first failure."""
    lines = []
    for check in report.scenarios:
        status = "FAIL" if check.failures(report.tol).size else "PASS"
        lines.append(
            f"{status} {check.kind:<18} points={check.points}"
            f" max|dstate|={check.max_state_deviation:.3e}"
            f" max|dP|={check.max_probability_deviation:.3e}"
        )
    lines.extend(f"SKIPPED-singular {note}" for note in report.skipped)
    first = report.first_failure
    if first is not None:
        lines.append(
            "FAIL first offending tuple:"
            f" scenario={first.scenario} T={_fmt(first.T)}"
            f" epsilon={_fmt(first.epsilon)} stage={first.stage}"
            f" deviation={first.deviation:.3e}"
        )
    return "\n".join(lines) + "\n"


def cmd_oracle_check(args: argparse.Namespace) -> int:
    report = oracle_check(grid_step=args.grid_step, tol=args.tol)
    text = _oracle_check_text(report)
    with _open_outputs(*_out_paths(args.out)) as files:
        for fh in (sys.stdout, *files):
            fh.write(text)
    return 0 if report.ok else 1


def _tomography_truth(cfg: dict[str, str]) -> np.ndarray:
    kind = cfg.get("state", "stage")
    if kind not in ("singlet", "mixed", "stage"):
        raise ConfigError(f"state must be singlet, mixed or stage, got {kind!r}")
    if kind != "stage":
        stray = sorted(set(cfg) & (_RUN_KEYS | {"stage"}))
        if stray:
            raise ConfigError(f"config key {stray[0]} only applies to state = stage")
        if kind == "mixed":
            return maximally_mixed(4)
        return pure_state(singlet_vector())
    stage_label = cfg.get("stage", "II")
    if stage_label not in ("I", "II", "III"):
        raise ConfigError(f"stage must be I, II or III, got {stage_label!r}")
    _, _, stages = _run_point({k: v for k, v in cfg.items() if k in _RUN_KEYS})
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

    counts = simulate_counts(truth, total, seed, minimal=(n_settings == 16))
    result = reconstruct(counts, background=background)
    report = error_bars(result, counts, trials=trials, seed=seed)
    f_truth = fidelity(result.state, truth)

    doc = {
        "settings": n_settings,
        "total_triples": total,
        "seed": seed,
        "background": background,
        "state": json_obj(result.state),
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
    with _open_outputs(*_out_paths(args.out, ".counts.csv", ".result.json")) as files:
        print(f"settings={n_settings} total_triples={_fmt(total)} seed={seed} trials={trials}")
        print(f"fidelity_to_truth={f_truth:.6f}")
        print(f"concurrence={report.concurrence_mean:.6f} std={report.concurrence_std:.6f}")
        print(f"fidelity_spread_std={report.fidelity_std:.6f}")
        print(f"scale={_fmt(result.scale)} relative_std={report.probability_std:.6f}")
        print(f"clipped_weight={_fmt(result.clipped_weight)}")
        if files:
            counts_fh, result_fh = files
            counts_fh.write(counts_to_csv(counts))
            result_fh.write(json.dumps(doc, indent=2))
            result_fh.write("\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
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
