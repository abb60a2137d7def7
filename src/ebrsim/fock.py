"""Independent few-photon oracle in second quantization.

Everything the closed-form pipeline in :mod:`ebrsim.protocol` claims is
re-derived here from first principles: three photons tracked over path,
polarization and time-bin modes, a bosonic beam splitter acting on the
creation operators, post-selection, conditional measurement and local
filtering.  The two routes share no formulas, so their agreement is a
meaningful cross-check.

Distinguishability is modeled with time bins: an environment photon in
the signal's bin interferes on the beam splitter, one in the other bin
does not.  Detectors are time-blind, so time bins are traced out of
every reported state.

The transmittivity ``T`` may be a float or a 1-D column.  For a column
each amplitude of a state is a column over the points, and the operators
come back as ``(n, 4, 4)`` stacks.  The beam splitter's photon routings,
the post-selected configurations and the conditional states' slots depend
only on the configurations, so each is planned once, cached, and replayed
on every ``T`` column as stacked numpy products.  A partial overlap is the
``(p, 1-p)`` mixture of the two pure preparations, and the filters act
after the environment measurement, so the Fock expansion depends only on
``T``, the pure preparation, the environment polarization, the
beam-splitter convention and the measured branch: :func:`oracle_protocol`
expands each pure preparation once per distinct ``T`` of its column.
:func:`oracle_check` merges its scenarios and ``epsilon`` values into one
column per block of its ``T`` grid, so one :func:`oracle_protocol` call
expands each preparation once on the block's ``T`` values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import EbrsimError, InvalidParameter, ZERO_TRACE_FLOOR
from .core import require, require_lengths, unchecked
from .metrics import XStateParams
from .protocol import (
    ChannelConfig,
    Scenario,
    StageOutput,
    _check_transmittivity,
    _column_config,
    _is_point,
    _keeps_trace,
    _unwrap_point,
    _zero_trace,
    distinguishable,
    indistinguishable,
    partial,
    run_protocol,
)

MAX_PHOTONS = 3

# Largest number of interior T values one oracle_check grid may have.
MAX_GRID_POINTS = 10_000

# Largest merged column (scenarios x epsilons x grid T values) that one
# oracle_check block evaluates at once; it bounds the block's memory.
CHECK_BLOCK = 4096

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)

_POL_INDEX = {"H": 0, "V": 1}


class ZeroProbability(EbrsimError):
    """Post-selection removed every amplitude."""


class ModeLabel(NamedTuple):
    """One bosonic mode: spatial path, polarization, time bin."""

    path: str
    pol: str
    time_bin: int


# A state is a sparse map from photon configurations to amplitudes in the
# orthonormal occupation basis.  A configuration is the sorted tuple of
# occupied modes, repeated per photon, so double occupation shows up as a
# repeated label.
Key = tuple[ModeLabel, ...]


@dataclass
class FockState:
    """Sparse few-photon state vector.

    An amplitude is a complex number, or a complex column holding one
    amplitude per point of a transmittivity column.
    """

    amps: dict[Key, complex | np.ndarray] = field(default_factory=dict)


def _canonical(modes: Iterable[ModeLabel]) -> Key:
    return tuple(sorted(modes))


def _occupation_factor(key: Key) -> float:
    """sqrt of the product of mode-occupation factorials for one configuration."""
    fac = 1.0
    run = 1
    for prev, cur in zip(key, key[1:]):
        run = run + 1 if cur == prev else 1
        if run > 1:
            fac *= run
    return math.sqrt(fac)


def prepare_input(scenario: Scenario, env_pol: str) -> FockState:
    """Singlet on paths A and B plus one environment photon on path E.

    The environment photon sits in the signal's time bin when the
    scenario is indistinguishable and in the neighboring bin when it is
    distinguishable.  A partial scenario has no single pure preparation;
    mix the two pure ones with weights ``(p, 1-p)`` instead.
    """
    if env_pol not in ("H", "V"):
        raise InvalidParameter(f"env_pol must be 'H' or 'V', got {env_pol!r}")
    if scenario.kind == "partial":
        raise InvalidParameter("partial overlap is a mixture; prepare each pure scenario and mix")
    env_bin = 0 if scenario.kind == "indistinguishable" else 1
    env = ModeLabel("E", env_pol, env_bin)
    amp = 1.0 / math.sqrt(2.0)
    amps = {
        _canonical([ModeLabel("A", "H", 0), ModeLabel("B", "V", 0), env]): amp + 0.0j,
        _canonical([ModeLabel("A", "V", 0), ModeLabel("B", "H", 0), env]): -1.0j * amp,
    }
    return FockState(amps)


def _bs_rows(t: np.ndarray, convention: str) -> tuple[tuple, tuple]:
    """Creation-operator substitution rows for paths B and E, as columns over ``t``.

    ``b+ -> row_b[0] b'+ + row_b[1] e'+`` and likewise for ``e+``.  The
    default real convention pairs a transmitted plus sign with a
    reflected minus; the ``phase`` convention puts ``i`` on both
    reflections.  Both are unitary, and observable predictions must not
    depend on the choice.
    """
    rt = np.sqrt(t)
    rr = np.sqrt(1.0 - t)
    if convention == "real":
        return (rt, -rr), (rr, rt)
    if convention == "phase":
        return (rt, 1.0j * rr), (1.0j * rr, rt)
    raise InvalidParameter(f"unknown beam-splitter convention {convention!r}")


# evolve_bs's multiplier rows: 0 keeps a mode (1+0j), 1-2 are row_b, 3-4 row_e.
_ROUTES = {"B": ((1, "B'"), (2, "E'")), "E": ((3, "B'"), (4, "E'"))}


@functools.lru_cache(maxsize=256)
def _plan(build, *keys):
    """``build(*keys)``, built once per argument tuple; a build that raises is not cached."""
    return build(*keys)


def _route(keys: tuple[Key, ...]) -> tuple:
    """:func:`evolve_bs`'s plan: the configurations' occupation factors, one
    ``(source, modes, ranks, occupation)`` group of terms per photon number,
    and each output configuration's ``(key, (group, row))`` in order."""
    outputs, sizes = {}, {}  # key -> (group, row); photon number -> (terms, outputs' terms)
    for i, key in enumerate(keys):
        if len(key) > MAX_PHOTONS:
            raise InvalidParameter(f"configuration with {len(key)} photons exceeds MAX_PHOTONS")
        terms, rows = sizes.setdefault(len(key), ([], {}))
        options = [_ROUTES.get(m.path, [(0, m.path)]) for m in key]
        for combo in itertools.product(*options):
            new_key = _canonical(m._replace(path=p) for m, (_, p) in zip(key, combo))
            outputs.setdefault(new_key, (list(sizes).index(len(key)), len(rows)))
            rows.setdefault(new_key, []).append(len(terms))
            terms.append((i, *(r for r, _ in combo)))
    groups = []
    for terms, rows in sizes.values():
        source, *modes = map(np.array, zip(*terms))
        picks = list(rows.values())
        # ranks[k] pairs the output rows that have a k-th term with that term
        ranks = tuple(
            tuple(map(np.array, zip(*[(r, js[k]) for r, js in enumerate(picks) if k < len(js)])))
            for k in range(max(map(len, picks)))
        )
        groups.append((source, np.array(modes), ranks, np.array([*map(_occupation_factor, rows)])))
    return tuple(map(_occupation_factor, keys)), tuple(groups), tuple(outputs.items())


def evolve_bs(
    state: FockState, t: float | np.ndarray, convention: str = "real"
) -> FockState:
    """Beam splitter of transmittivity ``t`` on paths (B, E) -> (B', E').

    Acts identically on every (polarization, time-bin) sub-mode pair.
    Implemented as the creation-operator substitution expanded over all
    photon routings, with bosonic factorial factors restored at the end.
    The routings are planned once per tuple of configurations; ``t`` replays
    the per-routing IEEE operations as products stacked by photon number,
    unpadded, as ``x * (1+0j)`` can flip a signed zero.

    ``state`` has complex amplitudes, each a number or a column that
    broadcasts to ``t``'s shape.  Each amplitude of the result has ``t``'s
    shape: an ``np.complex128`` for a float ``t``, a column over a 1-D
    column ``t``.  A configuration whose amplitude is zero at every point
    is left out.
    """
    t = np.asarray(t, dtype=np.float64)
    _check_transmittivity(t)
    row_b, row_e = _bs_rows(t, convention)
    occupation, groups, outputs = _plan(_route, tuple(state.amps))
    coeff = np.empty((len(occupation),) + t.shape, dtype=np.complex128)
    for i, (amp, factor) in enumerate(zip(state.amps.values(), occupation)):
        try:
            coeff[i, ...] = amp / factor
        except ValueError:
            shapes = f"amplitude of shape {np.shape(amp)} does not broadcast to T's shape {t.shape}"
            raise InvalidParameter(shapes) from None
    multipliers = np.empty((5,) + t.shape, dtype=np.complex128)
    multipliers[0], multipliers[1:3], multipliers[3:] = 1.0 + 0.0j, row_b, row_e
    values = []
    for source, modes, ((_, first), *ranks), factors in groups:
        terms = coeff[source]
        for mode in multipliers[modes]:
            terms = terms * mode
        total = 0.0j + terms[first]
        for rows, picked in ranks:
            total[rows] += terms[picked]
        total *= factors.reshape(factors.shape + (1,) * t.ndim)
        values.append((total, (total != 0.0).any(axis=tuple(range(1, total.ndim))).tolist()))
    return FockState({key: values[g][0][r] for key, (g, r) in outputs if values[g][1][r]})


def _selection(keys: tuple[Key, ...]) -> tuple[Key, ...]:
    """The configurations with exactly one photon in each of B' and E'."""
    paths = [[m.path for m in key] for key in keys]
    return tuple(k for k, p in zip(keys, paths) if p.count("B'") == p.count("E'") == 1)


def postselect_one_per_arm(state: FockState) -> tuple[FockState, float | np.ndarray]:
    """Keep exactly-one-photon-per-output-arm configurations.

    Which configurations survive is planned once per tuple of them.
    Returns the renormalized conditional state and the probability of
    the selection, a column for column amplitudes.  Raises
    :class:`ZeroProbability` when nothing survives at some point.
    """
    kept = {k: state.amps[k] for k in _plan(_selection, tuple(state.amps))}
    # abs(a) ** 2 squares a column as x * x; a single amplitude goes through pow
    probability = sum(abs(a) ** 2 for a in kept.values())
    if np.any(probability <= ZERO_TRACE_FLOOR):
        raise ZeroProbability("no amplitude with one photon per output arm")
    scale = 1.0 / np.sqrt(probability)
    return FockState({k: a * scale for k, a in kept.items()}), probability


def _feeds(keys: tuple[Key, ...], outcome: str | None) -> tuple[int, tuple]:
    """The count of (time bins, E' mode) groups, and each kept key's ``4 * group + slot`` row."""
    groups, feeds = {}, []
    for i, key in enumerate(keys):
        if sorted(m.path for m in key) != ["A", "B'", "E'"]:
            raise InvalidParameter("conditional_state expects post-selected one-per-arm states")
        a_mode, b_mode, e_mode = sorted(key)
        if outcome is None or e_mode.pol == outcome:
            group = groups.setdefault((a_mode.time_bin, b_mode.time_bin, e_mode), len(groups))
            feeds.append((i, 4 * group + 2 * _POL_INDEX[a_mode.pol] + _POL_INDEX[b_mode.pol]))
    return len(groups), tuple(feeds)


def conditional_state(state: FockState, outcome: str | None = None) -> np.ndarray:
    """Two-qubit polarization operator on (A, B') after handling the E' arm.

    With ``outcome`` ``None`` the E' modes are traced out (stage I).
    With ``outcome`` ``'H'`` or ``'V'`` the E' photon is projected on
    that polarization, time-blind, before tracing (stage II).  Where each
    configuration lands is planned once per tuple of them and outcome.
    The returned operator is unnormalized: its trace is the branch
    probability given the input state.  It has the amplitudes' shape plus
    ``(4, 4)``: one ``(4, 4)`` matrix for complex amplitudes, an
    ``(n, 4, 4)`` stack for columns.
    """
    if outcome not in (None, "H", "V"):
        raise InvalidParameter(f"outcome must be None, 'H' or 'V', got {outcome!r}")
    groups, feeds = _plan(_feeds, tuple(state.amps), outcome)
    amps = list(state.amps.values())
    shape = np.broadcast_shapes(*map(np.shape, amps))
    # points last, so each outer product runs along the points
    vectors = np.zeros((groups * 4,) + shape, dtype=np.complex128)
    for i, row in feeds:
        vectors[row] += amps[i]
    vectors = vectors.reshape((groups, 4) + shape)
    rho = np.add.reduce(vectors[:, :, None] * vectors[:, None, :].conj(), axis=0, initial=0.0j)
    return np.ascontiguousarray(rho.transpose(*range(2, rho.ndim), 0, 1))


def feed_forward_correction() -> tuple[np.ndarray, np.ndarray]:
    """Local unitaries mapping the V branch onto the H branch.

    A polarization flip on each arm; the Y form on the reflected arm
    carries the extra phase the beam-splitter sign convention imposes,
    so the correction is exact, not merely up to local phases.
    """
    return _SIGMA_X.copy(), _SIGMA_Y.copy()


def _pure_branches(
    kind: str, env_pol: str, t: np.ndarray, convention: str, branch: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pure preparation through the beam splitter and post-selection.

    Returns the one-per-arm selection probability over the ``t`` column
    and the ``(n, 4, 4)`` stacks of unnormalized stage-I and stage-II
    (``branch``) operators of the selected state.  None of it depends on
    the overlap weight ``p`` or on the filters.
    """
    scenario = indistinguishable() if kind == "indistinguishable" else distinguishable()
    selected, p_select = postselect_one_per_arm(
        evolve_bs(prepare_input(scenario, env_pol), t, convention)
    )
    return p_select, conditional_state(selected, None), conditional_state(selected, branch)


def oracle_protocol(config: ChannelConfig, convention: str = "real") -> list[StageOutput]:
    """Stage I-III outputs obtained purely from the Fock simulation.

    Mirrors :func:`ebrsim.protocol.run_protocol` for the same
    configuration, including the per-branch probability bookkeeping, the
    cumulative doubling under feed-forward, the points filtered to no
    trace and the shapes: stages I-II hold one entry per point of the
    ``(p, T)`` broadcast, and stage III broadcasts stage II against the
    filter column.  A column config gives columns and ``(n, 4, 4)`` state
    stacks, and its stage III holds only the points in its ``kept`` mask:
    those whose filtered diagonal X entries, four times the trace of the
    oracle's own filtered operator, pass the floor test
    :func:`~ebrsim.protocol._keeps_trace`.  It reads only the ``p``, ``T``
    and filter columns of the closed form's wrap, and unwraps a point by
    :func:`~ebrsim.protocol._unwrap_point`: the single-point rule is
    :mod:`ebrsim.protocol`'s, stated there once.

    Each pure preparation is expanded once per distinct ``T`` of the
    column, so a column that repeats its ``T`` values, as
    :func:`oracle_check`'s merged blocks do, evolves each value once.  The
    three stages' X entries come from one
    :meth:`~ebrsim.metrics.XStateParams.from_operator` call on their
    operators stacked in stage order, so one set of checks covers every
    row, and a failure names the first failing check over all three stages.
    """
    scalar = _is_point(config)
    config = _column_config(config)
    p, a_a, a_b = config.scenario.p, config.filters.a_a, config.filters.a_b
    t, index = np.unique(config.T, return_inverse=True)
    preparations: list[tuple[np.ndarray, str]] = []
    if np.any(p > 0.0):
        preparations.append((p, "indistinguishable"))
    if np.any(p < 1.0):
        preparations.append((1.0 - p, "distinguishable"))
    rho_1 = np.zeros((index.size, 4, 4), dtype=np.complex128)
    rho_2 = np.zeros((index.size, 4, 4), dtype=np.complex128)
    for weight, kind in preparations:
        for env_pol in ("H", "V"):
            p_select, m_1, m_2 = _pure_branches(kind, env_pol, t, convention, config.branch)
            share = (0.5 * weight * p_select[index])[:, None, None]
            rho_1 += share * m_1[index]
            rho_2 += share * m_2[index]
    if config.branch == "V" and config.feed_forward:
        k = np.kron(*feed_forward_correction())
        rho_2 = k @ rho_2 @ k.conj().T
    # K_A (x) K_B is diagonal: (K rho K^dag)_ij = k_i rho_ij k_j
    s_a, s_b = np.sqrt(a_a), np.sqrt(a_b)
    k = np.stack([np.ones_like(s_a), s_b, s_a, s_a * s_b], axis=1)
    rho_3 = k[:, :, None] * rho_2 * k[:, None, :]
    # apply_filters' floor on the oracle's own X entries' sum, 4 times the trace
    kept = _keeps_trace(4.0 * np.trace(rho_3, axis1=1, axis2=2).real)

    rho_3, n = rho_3[kept], index.size
    # one extraction checks the rows of all three stages; each stage reads its slice
    stacked = vars(XStateParams.from_operator(np.concatenate([rho_1, rho_2, rho_3])))
    params_1, params_2, params_3 = (
        unchecked(XStateParams, **{name: v[rows] for name, v in stacked.items()})
        for rows in (slice(0, n), slice(n, 2 * n), slice(2 * n, None))
    )

    def _stage(stage, rho, params, probability, cumulative, mask=None) -> StageOutput:
        state = rho / params.P[:, None, None]
        return StageOutput(stage, params, state, probability, cumulative, kept=mask)

    factor = 2.0 if config.feed_forward else 1.0
    p2 = np.broadcast_to(params_2.P, kept.shape)[kept]
    pass_probability = params_3.P / p2
    stages = [
        _stage("I", rho_1, params_1, params_1.P, params_1.P),
        _stage("II", rho_2, params_2, params_2.P, factor * params_2.P),
        _stage("III", rho_3, params_3, pass_probability, factor * p2 * pass_probability, kept),
    ]
    return _unwrap_point(stages) if scalar else stages


def hom_coincidence(
    t: float | np.ndarray, p: float | np.ndarray, convention: str = "real"
) -> float | np.ndarray:
    """Two-photon coincidence probability behind the beam splitter.

    Both photons share one polarization; ``p`` is the probability that
    they occupy the same time bin.  At ``t = 0.5`` the coincidence rate
    is ``(1 - p)/2``, so the dip visibility equals ``p`` exactly.  ``t``
    and ``p`` may each be a float or a 1-D column, like every input of
    the oracle; columns have one length (a one-element column broadcasts).
    """
    require((0.0 <= p) & (p <= 1.0), p, "p must lie in [0, 1], got {!r}")
    require_lengths(t, p)
    results = {}
    for label, env_bin in (("same", 0), ("other", 1)):
        amps = {
            _canonical([ModeLabel("B", "H", 0), ModeLabel("E", "H", env_bin)]): 1.0 + 0.0j
        }
        evolved = evolve_bs(FockState(amps), t, convention)
        results[label] = sum(abs(evolved.amps[k]) ** 2 for k in _selection(tuple(evolved.amps)))
    return p * results["same"] + (1.0 - p) * results["other"]


# Stage labels, in the order of the stage axis of a deviation array.
STAGES = ("I", "II", "III")


class OracleFailure(NamedTuple):
    """A grid tuple whose largest deviation exceeds the tolerance."""

    scenario: str
    T: float
    epsilon: float
    stage: str
    deviation: float


@dataclass(frozen=True)
class OracleCheckReport:
    """:func:`oracle_check`'s deviations over its scenarios, grid ``T`` and ``epsilons``.

    ``deviations[k, i, j, s]`` holds the state, probability and cumulative
    probability deviations of scenario ``kinds[k]`` at the ``i``-th grid
    ``T``, the ``j``-th ``epsilon`` and stage ``STAGES[s]``; every stage of
    every point is compared.  The verdict is computed once per report:
    :attr:`failing` is cached on the instance, and :attr:`first_failure`,
    :attr:`ok` and the CLI's report text read it.  A report with another
    ``tol``, as ``dataclasses.replace`` makes one, is a new instance with its
    own cache.
    """

    T: np.ndarray
    epsilons: tuple[float, ...]
    kinds: tuple[str, ...]
    deviations: np.ndarray
    tol: float

    @functools.cached_property
    def failing(self) -> np.ndarray:
        """Whether each (scenario, ``T``, ``epsilon``, stage) deviates by more than ``tol``."""
        return self.deviations.max(axis=-1) > self.tol

    @property
    def first_failure(self) -> OracleFailure | None:
        """The first failing tuple in C order: by scenario, then ``T``, ``epsilon`` and stage."""
        if self.ok:
            return None
        k, i, j, s = np.unravel_index(np.argmax(self.failing), self.failing.shape)
        deviation = float(self.deviations[k, i, j, s].max())
        return OracleFailure(
            self.kinds[k], float(self.T[i]), self.epsilons[j], STAGES[s], deviation
        )

    @property
    def ok(self) -> bool:
        return not self.failing.any()

    @property
    def points(self) -> int:
        """The number of stages compared."""
        return self.deviations[..., 0].size

    @property
    def max_state_deviation(self) -> float:
        return float(np.max(self.deviations[..., 0], initial=0.0))

    @property
    def max_probability_deviation(self) -> float:
        """Largest probability or cumulative probability deviation."""
        return float(np.max(self.deviations[..., 1:], initial=0.0))


def oracle_check(
    grid_step: float = 0.05,
    epsilons: Sequence[float] | np.ndarray = (1.0, 0.25),
    tol: float = 1e-10,
    convention: str = "real",
) -> OracleCheckReport:
    """Sweep the closed form against the oracle over a transmittivity grid.

    Covers all three scenarios (partial at ``p = 0.5``) and stages I-III
    with the tabulated filter prescription at each ``epsilon``.  A point
    filtered down to zero trace raises :class:`~ebrsim.core.ZeroTrace`.

    The grid is ``k * grid_step`` for ``k = 1 .. round(1/grid_step) - 1``;
    a step that leaves no point, or more than :data:`MAX_GRID_POINTS`, is
    rejected, and so are a ``tol`` that is negative, infinite or NaN and
    an ``epsilons`` that is empty or not one-dimensional, since each would
    make the check vacuous.  ``epsilons`` is read once as a float64 column,
    so a tuple, a list and an array of the same values give one report,
    whose ``epsilons`` are Python floats.
    The grid is evaluated in blocks of ``T`` values, each one merged
    column over every scenario, ``epsilon`` and ``T``
    of the block, of at most :data:`CHECK_BLOCK` points.  Per block the
    four pure preparations are evolved once, on the block's ``T`` values,
    and the closed form and the oracle each run once on the merged column
    and resolve its ``epsilon`` column to filter pairs as they do every
    column's.  Every step is elementwise, so a point's deviations do not
    depend on the block it sits in.  The report's one deviation array is
    indexed by scenario, ``T``, ``epsilon`` and stage, and
    :attr:`OracleCheckReport.first_failure` follows the same order.
    """
    if not (0.0 <= tol < math.inf):
        raise InvalidParameter(f"tol must be nonnegative and finite, got {tol!r}")
    eps = np.asarray(epsilons, dtype=np.float64)
    if eps.ndim != 1 or eps.size == 0:
        raise InvalidParameter("epsilons must be a 1-D column of at least one filter prescription")
    if not (grid_step > 0.0 and 1.0 / grid_step >= 1.5):
        raise InvalidParameter(f"grid_step must leave a grid point in (0, 1), got {grid_step!r}")
    # 1/grid_step overflows to inf for subnormal steps
    intervals = 1.0 / grid_step
    if not (math.isfinite(intervals) and round(intervals) - 1 <= MAX_GRID_POINTS):
        raise InvalidParameter(
            f"grid_step {grid_step!r} asks for more than {MAX_GRID_POINTS} grid points"
        )
    # k * grid_step for k = 1 .. round(1/grid_step) - 1, one product per point
    column = np.arange(1, round(intervals)) * grid_step
    scenarios = (distinguishable(), indistinguishable(), partial(0.5))
    # indexed by scenario, T, epsilon and stage
    deviations = np.zeros((len(scenarios), column.size, eps.size, len(STAGES), 3))
    width = max(1, CHECK_BLOCK // (len(scenarios) * eps.size))
    for lo in range(0, column.size, width):
        block = slice(lo, lo + width)
        t = column[block]
        # The last block's outputs stay referenced until this block's replace
        # them, so the allocator reuses their memory instead of handing it back
        # to the system and faulting it in again for every block.
        closed, oracle = _run_block(scenarios, t, eps, convention)
        deviations[:, block] = _block_deviations(
            closed, oracle, (len(scenarios), eps.size, t.size)
        )
    kinds = tuple(scenario.kind for scenario in scenarios)
    return OracleCheckReport(column, tuple(eps.tolist()), kinds, deviations, tol)


def _run_block(
    scenarios: tuple[Scenario, ...], t: np.ndarray, epsilons: np.ndarray, convention: str
) -> tuple[list[StageOutput], list[StageOutput]]:
    """The closed form's and the oracle's outputs on one block ``t`` of grid values.

    Both run once on the merged column, ordered by scenario, then
    ``epsilon``, then ``T``, so it repeats ``t`` once per scenario and
    ``epsilon``, and the oracle evolves its pure preparations on ``t`` alone.
    Each engine resolves the column's ``epsilon`` to its filter pairs as it
    does any column's, through :func:`~ebrsim.protocol._column_config`.
    """
    eps = np.repeat(epsilons, t.size)
    config = ChannelConfig(
        scenario=partial(np.repeat([scenario.p for scenario in scenarios], eps.size)),
        T=np.tile(t, len(scenarios) * epsilons.size),
        epsilon=np.tile(eps, len(scenarios)),
    )
    closed = run_protocol(config)
    oracle = oracle_protocol(config, convention)
    if not (closed[2].kept.all() and oracle[2].kept.all()):
        _zero_trace()
    return closed, oracle


def _block_deviations(
    closed: list[StageOutput], oracle: list[StageOutput], shape: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Deviations of a merged column of ``shape`` (scenarios, epsilons, T).

    They come back indexed by scenario, ``T``, ``epsilon`` and stage.
    """
    deviations = np.stack(
        [
            np.stack(
                [
                    np.max(np.abs(ref.state - alt.state), axis=(1, 2)),
                    np.abs(ref.probability - alt.probability),
                    np.abs(ref.cumulative_probability - alt.cumulative_probability),
                ],
                axis=-1,
            )
            for ref, alt in zip(closed, oracle)
        ],
        axis=1,
    )
    return deviations.reshape(*shape, len(STAGES), 3).swapaxes(1, 2)
