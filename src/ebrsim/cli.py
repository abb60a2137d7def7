"""Command-line front end: run, sweep, oracle-check, tomography.

Config files are flat ``key = value`` text with ``#`` comments.  One
table, ``_KEYS``, gives each key's parser, default, commands and rules,
and one parse, ``_read_config``, reads a command's config in a fixed
order: an unknown key first, then the selectors ``variable`` and
``state``, then keys given where they may not be or missing where they
are required, and only then the values.  All outputs are deterministic:
identical config and seed produce byte-identical bytes.  CSV floats
carry 17 significant digits; JSON floats use Python's shortest
round-trip representation.

A sweep range-checks its whole swept column first, so a config error
exits 2 before any byte is written.  It then evaluates the column in
blocks of ``SWEEP_BLOCK`` points, one columnar ``run_protocol`` call per
block, and writes each block's text before the next block starts, so
memory stays bounded whatever the number of steps.  A point filtered
to a trace of zero has no stage III: it gets its stage I-II rows with NaN
filter factors.

A block is built as a ``(rows, 10)`` array of cell strings
(``_sweep_cells``).  A swept-over constant is formatted once per block, a
point's swept value once per point, a stage's concurrence and
probabilities once per stage row, and the one-point stages I-II of a
sweep over ``epsilon`` once in all.  Two rules cover the filter factors,
and both compare a float's bits, never ``==``, so ``0.0`` and ``-0.0``
never share a text and a column of NaNs is one value: a factor column of
one bit pattern (an explicit pair, or the unit pair of a ``p`` sweep at
``T = 0``) is formatted once, and in any other column a point's factor
with ``epsilon``'s bits (the prescription's unattenuated arm) takes
``epsilon``'s text.  A third bit rule covers the
cumulative probabilities: a stage's cumulative column with the bits of its
own or an earlier stage's probability column (stage I's, stage II's
without feed-forward, and with it stage II's ``2 P_II``, which is stage
I's ``P``) takes that column's text.  All of a block's distinct
float columns are concatenated and formatted in one call by the numpy
kernel :mod:`ebrsim.g17`: for CSV by ``_csv_numbers``, the exact
``%.17g`` text of the whole column, and for JSON by ``_json_numbers``,
its exact ``repr`` text, the shortest digits that round back, with NaN
and infinities found by mask.  Values
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
library raises, an ``--out`` path that cannot be opened for writing, and
any write that fails), 3 domain error raised by the simulation.  One
rule holds for every write: a failed write or flush, to an ``--out``
file or to stdout (a full disk, a closed pipe), exits 2 with ``cannot
write`` and the stream's name, ``'<stdout>'`` for stdout, never 1 and
with no traceback.  The rule covers argparse's help and usage text,
written to buffers and then to stdout or stderr; an error message that
cannot be written to stderr leaves the status as it is.  Every command
opens all its output files before it writes any output, so an ``--out``
that cannot be opened exits 2 with nothing written; ``run``,
``oracle-check`` and ``tomography`` print to stdout only once their
``--out`` files are closed, so one whose write fails exits 2 with
nothing on stdout.

On glibc, the first ``main`` call fixes the process's allocator policy
(``_keep_heap``): ``M_MMAP_THRESHOLD`` at 32 MiB and ``M_TRIM_THRESHOLD``
at 64 MiB, the ceilings of glibc's own dynamic thresholds.  Freed blocks
then stay in the heap for the next sweep block or call, which reuses
them instead of faulting in fresh pages; a process may keep up to 64 MiB
of freed heap.  Importing the package changes nothing, and off glibc
``main`` leaves the allocator as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import io
import json
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple, TextIO

import numpy as np

from . import fock, g17, tomography
from .core import (
    EbrsimError,
    InvalidParameter,
    json_obj,
    maximally_mixed,
    pure_state,
    singlet_vector,
)
from .metrics import concurrence_x, fidelity
from .protocol import (
    ChannelConfig,
    FilterPair,
    Scenario,
    StageOutput,
    run_protocol,
)

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

# glibc's mallopt parameters, and the ceilings of its own dynamic thresholds
# (mallopt(3)): DEFAULT_MMAP_THRESHOLD_MAX, 32 MiB on 64-bit, and twice that
# for trimming, the ratio glibc keeps as it raises the mmap threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


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
        key, value = map(str.strip, line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


class _OutFile(io.TextIOWrapper):
    """An output file whose failed write or close is a :class:`ConfigError` naming it."""

    def write(self, text: str) -> int:
        try:
            return super().write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {self.name!r}: {exc}") from exc

    def close(self) -> None:
        try:
            super().close()
        except OSError as exc:
            raise ConfigError(f"cannot write {self.name!r}: {exc}") from exc


@contextlib.contextmanager
def _open_outputs(*paths: str) -> Iterator[list[TextIO]]:
    """Every output file opened for writing, before a command writes any output.

    A path that cannot be opened is a :class:`ConfigError`: the files opened
    so far are closed again, the ones this call created are removed, and no
    file that existed has been emptied, since a regular file is truncated
    only once all of them are open.  A write to a file, or the flush as it
    closes (a full disk, say), that fails is a :class:`ConfigError` too.
    """
    files: list[TextIO] = []
    created = []
    with contextlib.ExitStack() as stack:
        try:
            for path in paths:
                existed = os.path.lexists(path)
                files.append(stack.enter_context(_OutFile(open(path, "ab"), encoding="utf-8")))
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


def _write_std(text: str, name: str = "stdout") -> None:
    """``text`` written to ``sys.<name>``, stdout or stderr, and flushed: a failure exits 2."""
    stream = getattr(sys, name)
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        # The interpreter flushes the stream again as it exits: with the descriptor
        # on os.devnull that flush has nothing to fail on, as the signal module
        # docs' note on SIGPIPE shows.  A stream without a descriptor (a test's) stays.
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise ConfigError(f"cannot write '<{name}>': {exc}") from exc


def _out_paths(out: str | None, *suffixes: str) -> list[str]:
    """The files an ``--out`` value names: the path, or for a prefix one per suffix."""
    return [out + suffix for suffix in suffixes or ("",)] if out else []


def _parser(convert: Callable[[str], object], kind: str = "", options: tuple = ()):
    """A config value's parser: ``convert`` of its text, which must give one of ``options``."""

    def parse(key: str, text: str) -> object:
        try:
            value = convert(text)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"config key {key} must be {kind}, got {text!r}") from exc
        if options and value not in options:
            names = ", ".join(map(str, options[:-1])) + f" or {options[-1]}"
            raise ConfigError(f"{key} must be {names}, got {value!r}")
        return value

    return parse


_number = _parser(float, "a number")
_integer = _parser(int, "an integer")
_boolean = _parser(lambda text: {"true": True, "false": False}[text.lower()], "true or false")


def _seed(key: str, text: str) -> int:
    seed = _integer(key, text)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


class _Key(NamedTuple):
    parse: Callable[[str, str], object]
    default: object  # _REQUIRED: the key must be given wherever its rules let it be
    commands: tuple[str, ...]
    rules: tuple = ()


_REQUIRED = object()
_CHANNEL = ("run", "sweep", "tomography")
_SELECTORS = ("variable", "state")
# A rule is a condition on the config's text, with each selector at its default
# if absent, and the message, formatted with the key and that text, for the key
# given where the condition fails.
_STAGE = ((lambda c: c["state"] == "stage", "config key {key} only applies to state = stage"),)
_FILTERS = _STAGE + (
    (lambda c: c["variable"] != "epsilon", "epsilon sweep conflicts with explicit A_A/A_B filters"),
    (lambda c: "A_A" in c and "A_B" in c, "A_A and A_B must be given together"),
)
# a missing scenario passes p's rule, so it is reported as missing
_PARTIAL = (lambda c: c.get("scenario", "partial").lower() == "partial",
            "config key {key} only applies to the partial scenario")
_SWEEP = (
    (lambda c: c["variable"] not in c,
     "config key {variable} conflicts with variable = {variable}"),
    (lambda c: c["variable"] != "p" or c.get("scenario", "").lower() == "partial",
     "p sweep requires scenario = partial"),
)

# Every config key: its parser, default, the commands that take it and its
# rules.  The library checks each value's range.
_KEYS = {
    "variable": _Key(_parser(str, options=("T", "epsilon", "p")), _REQUIRED, ("sweep",), _SWEEP),
    "state": _Key(_parser(str, options=("singlet", "mixed", "stage")), "stage", ("tomography",)),
    "start": _Key(_number, _REQUIRED, ("sweep",)),
    "stop": _Key(_number, _REQUIRED, ("sweep",)),
    "steps": _Key(_integer, _REQUIRED, ("sweep",)),
    "scenario": _Key(_parser(str.lower), _REQUIRED, _CHANNEL, _STAGE),
    "p": _Key(_number, _REQUIRED, _CHANNEL, _STAGE + (_PARTIAL,)),
    "T": _Key(_number, _REQUIRED, _CHANNEL, _STAGE),
    "epsilon": _Key(_number, None, _CHANNEL, _STAGE),
    "A_A": _Key(_number, None, _CHANNEL, _FILTERS),
    "A_B": _Key(_number, None, _CHANNEL, _FILTERS),
    "branch": _Key(_parser(str.upper), "H", _CHANNEL, _STAGE),
    "feed_forward": _Key(_boolean, False, _CHANNEL, _STAGE),
    "stage": _Key(_parser(str, options=("I", "II", "III")), "II", ("tomography",), _STAGE),
    "total_triples": _Key(_number, 500.0, ("tomography",)),
    "trials": _Key(_integer, 200, ("tomography",)),
    "settings": _Key(_parser(int, "an integer", (16, 36)), 36, ("tomography",)),
    "background": _Key(_number, 0.0, ("tomography",)),
    "seed": _Key(_seed, 0, ("tomography",)),
}


def _read_config(path: str, command: str) -> argparse.Namespace:
    """Each key ``command`` takes, read in the module docstring's order or at its default.

    ``channel`` is the checked config (a sweep's over ``column``), or None for a named state.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    rows = {key: row for key, row in _KEYS.items() if command in row.commands}
    unknown = sorted(cfg.keys() - rows.keys())
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    for key in cfg.keys() & _SELECTORS:
        rows[key].parse(key, cfg[key])
    view = {key: _KEYS[key].default for key in _SELECTORS} | cfg
    for key in sorted(cfg):
        for holds, message in rows[key].rules:
            if not holds(view):
                raise ConfigError(message.format(key=key, **view))
    # the swept key's values are the sweep's column
    for key, row in rows.items():
        given = key in cfg or key == view["variable"]
        if row.default is _REQUIRED and not given and all(rule[0](view) for rule in row.rules):
            raise ConfigError(f"missing required config key: {key}")
    conf = argparse.Namespace(channel=None, **{
        key: None if row.default is _REQUIRED else row.default for key, row in rows.items()
    })
    for key, text in cfg.items():
        setattr(conf, key, rows[key].parse(key, text))
    if command == "sweep":
        conf.column = _sweep_values(conf.start, conf.stop, conf.steps)
        # checked at the start point first, so a start out of range is named as
        # written: the column's first value is never -0.0
        setattr(conf, conf.variable, conf.start)
    if view["state"] == "stage":
        filters = None if conf.A_A is None else FilterPair(conf.A_A, conf.A_B)
        conf.channel = ChannelConfig(Scenario(conf.scenario, conf.p), conf.T, conf.branch,
                                     conf.feed_forward, filters, conf.epsilon)
    if command == "sweep":
        conf.channel = _swept(conf.channel, conf.variable, conf.column)
    return conf


def _stage_obj(out: StageOutput) -> dict:
    return {
        "stage": out.stage,
        "params": dataclasses.asdict(out.params),
        "concurrence": concurrence_x(out.params),
        "probability": out.probability,
        "cumulative_probability": out.cumulative_probability,
        "state": json_obj(out.state),
    }


def cmd_run(args: argparse.Namespace) -> int:
    config = _read_config(args.config, "run").channel
    stages = run_protocol(config)
    filters = stages[2].filters
    # stdout is written once the trace file is closed, so a failed write prints nothing
    with _open_outputs(*_out_paths(args.out)) as files:
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
            fh.write(json.dumps(doc, indent=2) + "\n")
    text = (
        f"scenario={config.scenario.kind} T={config.T!r} p={config.scenario.p!r}"
        f" branch={config.branch} feed_forward={'true' if config.feed_forward else 'false'}\n"
        f"filters A_A={filters.a_a!r} A_B={filters.a_b!r}\n"
    )
    for out in stages:
        text += (
            f"stage {out.stage:<4} C={concurrence_x(out.params):.4f}  P={out.probability:.4f}"
            f"  cumP={out.cumulative_probability:.4f}\n"
        )
    _write_std(text)
    return 0


def _sweep_values(start: float, stop: float, steps: int) -> np.ndarray:
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

    ``g17``, ``fock`` and ``tomography`` are deferred modules (see
    :mod:`ebrsim`): each one's body runs on first use, so a command runs
    only the ones it calls.
    """
    return g17.strings(col)


def _json_numbers(col: np.ndarray) -> list[str]:
    """The JSON text of each value of a float64 column: ``repr``, or NaN as ``null``.

    ``repr`` of a finite float is what ``json.dumps`` prints, and the numpy
    kernel ``g17.shortest`` computes it for the whole column.  The
    non-finite values are found by mask, and an infinity is json's
    ``Infinity``.
    """
    out = g17.shortest(col)
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        out[i] = "null" if math.isnan(col[i]) else json.dumps(float(col[i]))
    return out


def _sweep_cells(config: ChannelConfig, fmt: _SweepFormat) -> np.ndarray:
    """The table of a column of points as a ``(rows, 10)`` array of ``fmt``'s cells.

    Rows go point by point: stages I and II, then III where the point kept
    it; a point without stage III (a filtered trace of zero) has NaN filter
    factors.  ``fmt.number`` is called once, with every distinct float
    column of the block concatenated: a filter
    factor column whose values share one bit pattern as that one value, any
    other without the points whose bits equal ``epsilon``'s there, and a
    cumulative probability column only where no probability column has its bits.

    Each cell carries the separator that follows it, and the scenario cell
    also the record's opening, so the block's text is its cells joined.  A
    separator is added to a column's distinct values before they fill rows:
    once per point, or once for a constant; a factor left out is
    ``epsilon``'s text with its own column's separator.  A stage's
    cumulative probability column whose bits equal its own probability
    column, or an earlier stage's, is left out too, and takes that column's
    text with the cumulative separator: stage I's always, stage II's
    without feed-forward, and with it stage II's ``2 P_II``, which is stage
    I's ``P`` bit for bit.
    """
    stages = run_protocol(config)
    kept = stages[2].kept
    per_point = 2 + kept
    first = np.cumsum(per_point) - per_point
    cells = np.empty((per_point.sum(), 10), dtype=object)
    filters = np.full((2, kept.size), math.nan)
    filters[:, kept] = stages[2].filters.a_a, stages[2].filters.a_b

    epsilon = np.reshape(0.0 if config.epsilon is None else config.epsilon, -1)
    columns = [config.T, epsilon, config.scenario.p]
    # per column from T to A_B, the points that take epsilon's text, or None; bits,
    # never ==: 0.0 and -0.0 keep their own texts, and a column of NaNs is one value
    reused = [None] * 3
    for factor in filters:
        bits = factor.view(np.uint64)
        reused.append(None if (bits == bits[0]).all() else bits == epsilon.view(np.uint64))
        columns.append(factor[:1] if reused[-1] is None else factor[~reused[-1]])
    # per stage, the first stage up to it whose probability column has its cumulative
    # column's bits, or None
    probabilities, sources = [], []
    for out in stages:
        columns += [concurrence_x(out.params), out.probability]
        probabilities.append(np.reshape(out.probability, -1).view(np.uint64))
        bits = np.reshape(out.cumulative_probability, -1).view(np.uint64)
        matches = (k for k, p in enumerate(probabilities) if np.array_equal(p, bits))
        sources.append(next(matches, None))
        columns += [out.cumulative_probability] if sources[-1] is None else []
    # a single value (a constant) broadcasts
    columns = [np.reshape(values, -1) for values in columns]
    ends = np.cumsum([values.size for values in columns])
    text = iter(np.split(np.array(fmt.number(np.concatenate(columns)), dtype=object), ends[:-1]))

    opening, *after = fmt.separators
    cells[:, 0] = opening + fmt.label(config.scenario.kind) + after[0]
    # a separator replaces a value's text in place, so its bare text is freed
    for column, same in enumerate(reused, start=2):
        cell = next(text)
        if column == 3:
            epsilon_text = cell.copy()
        if same is not None:  # a filter factor's points with epsilon's bits take its text
            cell, own = np.broadcast_to(epsilon_text, same.shape).copy(), cell
            cell[~same] = own
        cell += after[column]
        cells[:, column] = np.repeat(cell, per_point) if cell.size > 1 else cell
    # stages I-II of a sweep over epsilon are one point, whose cells fill every row
    bare = []  # each stage's probability text, without its separator
    for out, rows, source in zip(stages, (first, first + 1, first[kept] + 2), sources):
        concurrence, probability = next(text), next(text)
        bare.append(probability)
        cumulative = next(text) if source is None else bare[source]
        cells[rows, 1] = fmt.label(out.stage) + after[1]
        cells[rows, 7] = concurrence + after[7]
        cells[rows, 8] = probability + after[8]
        cells[rows, 9] = cumulative + after[9]
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
    # The whole swept column is range-checked as the config is read, so a config
    # error exits 2 before any byte is written; then each block is written as it is done.
    conf = _read_config(args.config, "sweep")
    fmt = _SWEEP_FORMATS[args.format]
    with _open_outputs(*_out_paths(args.out)) as files:
        write = files[0].write if files else _write_std
        for start in range(0, conf.column.size, SWEEP_BLOCK):
            stop = start + SWEEP_BLOCK
            # no name holds a block's cells, so they are freed once its text is
            # written, before the next block is built
            block = _swept(conf.channel, conf.variable, conf.column[start:stop])
            write(_sweep_text(_sweep_cells(block, fmt), fmt, start == 0, stop >= conf.column.size))
    return 0


def _oracle_check_text(report: fock.OracleCheckReport) -> str:
    """``oracle-check``'s text: a line per scenario and the first failure."""
    lines = []
    for check, hits in zip(report.scenarios, report.failures):
        status = "FAIL" if hits.size else "PASS"
        lines.append(
            f"{status} {check.kind:<18} points={check.points}"
            f" max|dstate|={check.max_state_deviation:.3e}"
            f" max|dP|={check.max_probability_deviation:.3e}"
        )
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
    report = fock.oracle_check(grid_step=args.grid_step, tol=args.tol)
    text = _oracle_check_text(report)
    with _open_outputs(*_out_paths(args.out)) as files:
        for fh in files:
            fh.write(text)
    _write_std(text)
    return 0 if report.ok else 1


def cmd_tomography(args: argparse.Namespace) -> int:
    conf = _read_config(args.config, "tomography")
    seed = conf.seed if args.seed is None else _seed("seed", str(args.seed))
    if conf.channel is None:
        truth = maximally_mixed(4) if conf.state == "mixed" else pure_state(singlet_vector())
    else:
        truth = {s.stage: s for s in run_protocol(conf.channel)}[conf.stage].state
    minimal = conf.settings == 16
    counts = tomography.simulate_counts(truth, conf.total_triples, seed, minimal=minimal)
    result = tomography.reconstruct(counts, background=conf.background)
    report = tomography.error_bars(result, counts, trials=conf.trials, seed=seed)
    f_truth = fidelity(result.state, truth)
    with _open_outputs(*_out_paths(args.out, ".counts.csv", ".result.json")) as files:
        if files:
            counts_fh, result_fh = files
            counts_fh.write(tomography.counts_to_csv(counts))
            doc = {
                "settings": conf.settings,
                "total_triples": conf.total_triples,
                "seed": seed,
                "background": conf.background,
                "state": json_obj(result.state),
                "scale": result.scale,
                "clipped_weight": result.clipped_weight,
                "fidelity_to_truth": f_truth,
                # the bootstrap's trials first, then its fields in their order
                "uncertainty": {"trials": report.trials, **vars(report)},
            }
            result_fh.write(json.dumps(doc, indent=2) + "\n")
    _write_std(
        f"settings={conf.settings} total_triples={_fmt(conf.total_triples)} seed={seed}"
        f" trials={conf.trials}\n"
        f"fidelity_to_truth={f_truth:.6f}\n"
        f"concurrence={report.concurrence_mean:.6f} std={report.concurrence_std:.6f}\n"
        f"fidelity_spread_std={report.fidelity_std:.6f}\n"
        f"scale={_fmt(result.scale)} relative_std={report.probability_std:.6f}\n"
        f"clipped_weight={_fmt(result.clipped_weight)}\n"
    )
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


@functools.cache
def _keep_heap() -> None:
    """On glibc, fix the allocator policy that keeps freed heap for the next block or call.

    Anywhere else, or where the C library cannot be reached, nothing changes.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    _keep_heap()
    parser = build_parser()
    # argparse prints help and usage itself: here into buffers, written by the write rule
    out, err = io.StringIO(), io.StringIO()
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            _write_std(out.getvalue())
            message, status = err.getvalue(), exc.code
        else:
            return args.func(args)
    except (ConfigError, InvalidParameter) as exc:
        message, status = f"config error: {exc}\n", 2
    except (EbrsimError, ValueError) as exc:
        message, status = f"domain error: {exc}\n", 3
    # a message that cannot be written leaves the status as it is
    with contextlib.suppress(ConfigError):
        _write_std(message, "stderr")
    return status


if __name__ == "__main__":
    sys.exit(main())
