"""Closed-form protocol pipeline for restoring beam-splitter-broken entanglement.

One photon of a polarization singlet crosses a beam splitter of
transmittivity ``T`` where it meets an unpolarized environment photon.
Post-selecting one photon per output arm defines stage I.  Measuring the
environment arm's polarization and keeping one outcome defines stage II.
A pair of local polarization-dependent attenuators (``|V> -> sqrt(A)|V>``
per arm) defines stage III.  Every stage output is an X state, so the
whole pipeline is tracked at the level of :class:`~ebrsim.metrics.XStateParams`.

The environment photon's wave-packet overlap with the signal photon is a
scenario choice: fully distinguishable (``p = 0``), fully
indistinguishable (``p = 1``), or a probability-``p`` mixture of the two.
Stages I and II are each one map ``(p, T) -> XStateParams`` whose entries
and branch probability are polynomials in ``T`` and linear in ``p``: a
classical mixture of preparations mixes the unnormalized entries, and the
state is their quotient by ``4P``.

Every parameter of the pipeline (``p``, ``T``, ``epsilon`` and the filter
factors) may be a float or a 1-D float64 column.  A call whose inputs are
all floats is a single point: it stays on Python floats through every
door, gets floats and a ``(4, 4)`` state, and follows the single-point
rule: a point filtered to no trace raises :class:`~ebrsim.core.ZeroTrace`.
IEEE ``+ - * /`` and ``sqrt`` round the same on Python floats and on
float64 columns, so a point's outputs have the bits of its column row.

A call with a column evaluates every point at once: a sweep is one call
per block of points.  One wrap, :func:`_column_config`, converts a column
config to what an engine reads: the ``(p, T)`` broadcast, carried by the
scenario, and the filter pair resolved on that broadcast.  So a sweep over
``epsilon`` alone evaluates stages I-II on one point, which stage III
broadcasts against the filter column.  A column gets columns and
``(n, 4, 4)`` state stacks, and a point filtered to no trace is masked.
The Fock oracle wraps a point as a one-element column too, and unwraps it by
:func:`_unwrap_point`, beside :func:`run_protocol`: this module owns the
single-point rule, and the oracle and the CLI call it.

Each stage map is a core plus a door.  The cores, :func:`_stage1_entries`,
:func:`_stage2_entries` and :func:`_filtered_entries`, return the six X
entries from ring operations alone (``+``, ``-``, ``*``, halving,
quartering and integer literals), so the shipped code runs on floats,
float64 columns and :class:`fractions.Fraction` alike.  Stage III's one
step outside the ring, the root ``sqrt(A_A A_B)``, is taken by its door and
passed in.  The doors hold the rest: :func:`_stage` serves stages I and II
and :func:`apply_filters` serves stage III.  Each takes its inputs as
floats or as columns by :func:`_floats_or_columns`, checks them and builds
the :class:`StageOutput`.  The filter prescription, :func:`table_filters`,
reads its ratio ``beta / gamma`` off :func:`_stage2_entries`, so one rule
serves every scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidParameter,
    ZeroTrace,
    ZERO_TRACE_FLOOR,
    columns,
    require,
    require_lengths,
    unchecked,
)
from .metrics import XStateParams, normalized_state

_SCENARIO_KINDS = ("distinguishable", "indistinguishable", "partial")

# A product of filter factors below the smallest normal float has lost digits.
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def _ndim(x) -> int:
    """``np.ndim(x)``, without its microsecond for a Python float."""
    return 0 if type(x) is float else np.ndim(x)


def _as_float_or_column(x) -> float | np.ndarray:
    return float(x) if _ndim(x) == 0 else np.asarray(x, dtype=np.float64)


def _floats_or_columns(*values) -> tuple[list, bool]:
    """The values as Python floats if all are scalars (a point), else as :func:`columns`."""
    if any(map(_ndim, values)):
        return columns(*values)
    return [float(v) for v in values], True


def _where(ok, a, b):
    """``np.where`` on columns; on a point, the float that the bool ``ok`` picks."""
    return (a if ok else b) if type(ok) is bool else np.where(ok, a, b)


def _check_transmittivity(t: float | np.ndarray) -> None:
    require((0.0 <= t) & (t <= 1.0), t, "T must lie in [0, 1], got {!r}")


@dataclass(frozen=True)
class Scenario:
    """Wave-packet overlap scenario for the environment photon.

    ``kind`` is one of ``distinguishable``, ``indistinguishable`` or
    ``partial``; the latter carries the overlap probability ``p_value``,
    a float or a column.  A config wrapped by :func:`_column_config` has a
    scenario whose ``p_value`` is the ``(p, T)`` column, for every kind.
    """

    kind: str
    p_value: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SCENARIO_KINDS:
            raise InvalidParameter(
                f"scenario must be distinguishable, indistinguishable or partial, got {self.kind!r}"
            )
        if self.kind == "partial":
            if self.p_value is None:
                raise InvalidParameter("partial scenario needs p in [0, 1], got None")
            p = self.p_value
            require((0.0 <= p) & (p <= 1.0), p, "partial scenario needs p in [0, 1], got {!r}")
        elif self.p_value is not None:
            raise InvalidParameter(f"{self.kind} scenario takes no p value")

    @property
    def p(self) -> float | np.ndarray:
        """Indistinguishability weight: ``p_value`` if set, else 0 or 1 by kind."""
        if self.p_value is not None:
            return _as_float_or_column(self.p_value)
        return 1.0 if self.kind == "indistinguishable" else 0.0


def distinguishable() -> Scenario:
    return Scenario("distinguishable")


def indistinguishable() -> Scenario:
    return Scenario("indistinguishable")


def partial(p: float | np.ndarray) -> Scenario:
    return Scenario("partial", _as_float_or_column(p))


@dataclass(frozen=True)
class FilterPair:
    """Local V-attenuation factors ``|V> -> sqrt(A)|V>`` for the two arms.

    Floats, or columns with one pair per point.
    """

    a_a: float | np.ndarray
    a_b: float | np.ndarray

    def __post_init__(self) -> None:
        for name, value in (("a_a", self.a_a), ("a_b", self.a_b)):
            require((0.0 < value) & (value <= 1.0), value, name + " must lie in (0, 1], got {!r}")


@dataclass(frozen=True)
class ChannelConfig:
    """Full parameter set for one protocol run, or for a column of points.

    ``T``, ``epsilon``, the scenario's ``p`` and the filter factors may each
    be a column; the columns of one config have one length (a one-element
    column broadcasts), or the config raises :class:`InvalidParameter`.
    """

    scenario: Scenario
    T: float | np.ndarray
    branch: str = "H"
    feed_forward: bool = False
    filters: FilterPair | None = None
    epsilon: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_transmittivity(self.T)
        if self.branch not in ("H", "V"):
            raise InvalidParameter(f"branch must be 'H' or 'V', got {self.branch!r}")
        if self.filters is not None and self.epsilon is not None:
            raise InvalidParameter("give either an explicit filter pair or epsilon, not both")
        if self.epsilon is not None:
            eps = self.epsilon
            require((0.0 < eps) & (eps <= 1.0), eps, "epsilon must lie in (0, 1], got {!r}")
        pair = () if self.filters is None else (self.filters.a_a, self.filters.a_b)
        require_lengths(self.scenario.p, self.T, self.epsilon, *pair)


@dataclass(frozen=True)
class StageOutput:
    """Normalized state plus probability bookkeeping for one stage.

    ``state`` is the unit-trace ``(4, 4)`` complex array of the stage's
    ``params``.  ``probability`` is the stage's own success probability
    (for stage III the conditional filter-pass probability);
    ``cumulative_probability`` is the usable fraction of source pairs up to
    and including the stage.  ``filters`` is the attenuator pair a stage-III
    output was filtered with.

    A single point's output holds Python floats, its own ``(4, 4)`` state
    and no ``kept`` mask.  For a column of points, ``params``, the
    probabilities and ``filters`` hold columns and ``state`` is an
    ``(n, 4, 4)`` stack.  Stages I-II hold one entry per point of the
    ``(p, T)`` broadcast, which may be one.  A stage-III column holds only
    the points in its boolean mask ``kept``: the others were filtered down
    to zero trace.
    """

    stage: str
    params: XStateParams
    state: np.ndarray
    probability: float | np.ndarray
    cumulative_probability: float | np.ndarray
    filters: FilterPair | None = None
    kept: np.ndarray | None = None


def _stage1_entries(p, t):
    """Stage-I entries ``(alpha, beta, gamma, delta, xi, P)``: ring operations only."""
    r = 1 - t
    w = 2 * t - 1  # exact for t >= 1/4: the coherence keeps its digits near T = 1/2
    beta = r * r + 2 * t * (t - p * r)
    return r * r, beta, beta, r * r, -2 * t * (p * w + (1 - p) * t), r * r + t * (t - p * r)


def _stage2_entries(p, t):
    """H-branch stage-II entries ``(alpha, beta, gamma, delta, xi, P)``: ring operations only."""
    r = 1 - t
    w = 2 * t - 1
    gamma = p * w * w + (1 - p) * (r * r + t * t)
    # alpha is +0.0 in t's shape for floats: r >= 0
    return 0 * r, t * t, gamma, r * r, -t * (p * w + (1 - p) * t), (r * r + t * (t - p * r)) / 2


def _filtered_entries(alpha, beta, gamma, delta, xi, a_a, a_b, root):
    """Stage-III entries of stage-II entries under the pair whose product has the ``root``."""
    beta, gamma, delta = a_b * beta, a_a * gamma, a_a * a_b * delta
    return alpha, beta, gamma, delta, root * xi, (alpha + beta + gamma + delta) / 4


def _stage(label, entries, scenario, t, flip=False, doubled=False) -> StageOutput:
    """The door of stages I-II: ``entries`` on the ``(p, T)`` columns, as a stage output.

    ``flip`` reverses the diagonal (the V branch's polarization flip), and
    ``doubled`` doubles the cumulative probability (both branches usable).
    """
    (p, t), _ = _floats_or_columns(scenario.p, t)
    _check_transmittivity(t)
    *diagonal, xi, big_p = entries(p, t)
    params = XStateParams(*(diagonal[::-1] if flip else diagonal), xi, big_p)
    cumulative = 2 * big_p if doubled else big_p
    return StageOutput(label, params, normalized_state(params), big_p, cumulative)


def stage1(scenario: Scenario, t: float | np.ndarray) -> StageOutput:
    """State after the beam splitter with the environment arm ignored.

    Valid on the full closed interval ``T in [0, 1]``: ``T = 1`` is the
    transparent channel (singlet survives), ``T = 0`` the full swap
    (unpolarized output).  Tracing the environment out sums the two
    stage-II outcomes, so stage I is stage II's H branch plus its V twin.
    """
    return _stage("I", _stage1_entries, scenario, t)


def stage2(
    scenario: Scenario, t: float | np.ndarray, branch: str = "H", feed_forward: bool = False
) -> StageOutput:
    """State conditioned on the environment polarization measurement.

    ``branch`` selects which detector fired.  The V branch without
    feed-forward is the polarization-flipped twin of the H branch
    (reversed diagonal, same coherence).  With ``feed_forward=True`` the
    flip is undone internally, both branches become usable, and the
    cumulative probability doubles; ``probability`` stays per-branch.
    """
    if branch not in ("H", "V"):
        raise InvalidParameter(f"branch must be 'H' or 'V', got {branch!r}")
    flip = branch == "V" and not feed_forward
    return _stage("II", _stage2_entries, scenario, t, flip, feed_forward)


def _keeps_trace(four_p):
    """Whether a filtered diagonal sum ``4P`` keeps stage III: it exceeds ``ZERO_TRACE_FLOOR``."""
    return four_p > ZERO_TRACE_FLOOR


def _zero_trace():
    """Raise the :class:`~ebrsim.core.ZeroTrace` of a point filtered to no trace."""
    raise ZeroTrace("filtering removed all population from the state")


def apply_filters(stage_out: StageOutput, filters: FilterPair) -> StageOutput:
    """Apply the local V attenuators to a stage-II output.

    Entry map: ``beta -> A_B beta``, ``gamma -> A_A gamma``,
    ``delta -> A_A A_B delta``, ``xi -> sqrt(A_A A_B) xi``; ``alpha`` is
    untouched.  ``probability`` is the conditional pass probability
    (new trace over old, at most 1), and the cumulative probability multiplies.
    Below the normal float range ``sqrt(A_A A_B)`` is ``sqrt(A_A) sqrt(A_B)``.

    The floor applies to the sum of the filtered diagonal entries
    ``alpha + beta + gamma + delta``, which is ``4P``: four times the
    filtered branch probability, so a point keeps stage III while that
    probability exceeds ``ZERO_TRACE_FLOOR / 4`` (:func:`_keeps_trace`).  A
    single point whose sum is at most ``ZERO_TRACE_FLOOR`` raises
    :class:`~ebrsim.core.ZeroTrace` (:func:`_zero_trace`).  For a column the
    output keeps only the points whose sum exceeds the floor.  This module
    owns the rule; see :func:`run_protocol`.
    """
    old = stage_out.params
    (alpha, beta, gamma, delta, xi, big_p, cumulative, a_a, a_b), scalar = _floats_or_columns(
        old.alpha, old.beta, old.gamma, old.delta, old.xi, old.P,
        stage_out.cumulative_probability, filters.a_a, filters.a_b,
    )
    product = a_a * a_b
    # Below the normal range the product loses digits, or all of them: there
    # the roots are taken apart, so a tiny filter pair keeps its coherence.
    sqrt = math.sqrt if scalar else np.sqrt
    root = _where(product >= _SMALLEST_NORMAL, sqrt(product), sqrt(a_a) * sqrt(a_b))
    new = (*_filtered_entries(alpha, beta, gamma, delta, xi, a_a, a_b, root),
           big_p, cumulative, a_a, a_b)
    kept = _keeps_trace(4 * new[5])  # 4P: the filtered diagonal sum
    if scalar and not kept:
        _zero_trace()
    if not scalar and not kept.all():
        new = [x[kept] for x in new]
    *entries, big_p, cumulative, a_a, a_b = new
    params = XStateParams(*entries)
    # 4P over 4P_II, the new trace over the old.  P is rounded as an entry sum
    # and P_II as a polynomial, so near the unit pair the ratio can exceed 1 by
    # an ulp or two; clamped at 1, the cumulative never exceeds stage II's
    passed = (min if scalar else np.minimum)(params.P / big_p, 1.0)
    filters = unchecked(FilterPair, a_a=a_a, a_b=a_b)  # a subset of checked factors
    return StageOutput(
        "III", params, normalized_state(params), passed, cumulative * passed, filters,
        None if scalar else kept,
    )


def table_filters(
    scenario: Scenario, t: float | np.ndarray, epsilon: float | np.ndarray
) -> FilterPair:
    """Attenuation pair that drives the stage-II state toward its best filtered state.

    On the H-branch stage-II X state of :func:`_stage2_entries`, whose
    ``alpha`` is 0, a pair's filtered concurrence is
    ``2 sqrt(A_A A_B) |xi| / (A_B beta + A_A gamma + A_A A_B delta)``.  It
    grows toward its supremum ``|xi| / sqrt(beta gamma)`` as both factors
    fall at the ratio ``A_A / A_B = beta / gamma`` (Kent, Linden & Massar,
    PRL 83, 2656 (1999); Verstraete, Dehaene & De Moor, PRA 64, 010101(R)
    (2001)).  So with ``q = min(sqrt(beta), sqrt(gamma)) / max(sqrt(beta),
    sqrt(gamma))``, the arm of the larger root gets ``epsilon`` and the other
    ``epsilon q^2``: ``epsilon`` in ``(0, 1]`` trades success probability for
    concurrence, which tends to the supremum as ``epsilon -> 0``.  One rule
    serves every scenario, read off stage II's core at the scenario's ``p``,
    and the pair does not depend on the branch.

    Where the smaller factor comes out 0.0 the pair is the unit pair
    ``(1, 1)``.  In exact arithmetic that happens only where
    ``beta gamma = 0``: at ``T = 0``, and at ``T = 1/2`` with ``p = 1``.  There
    stage II's ``xi`` is 0, so no filter restores anything, and stage III is
    stage II.  In floats it also happens where the factor underflows.
    """
    (p, t, epsilon), scalar = _floats_or_columns(scenario.p, t, epsilon)
    require((0.0 < epsilon) & (epsilon <= 1.0), epsilon, "epsilon must lie in (0, 1], got {!r}")
    _check_transmittivity(t)
    _, beta, gamma, *_ = _stage2_entries(p, t)
    sqrt = math.sqrt if scalar else np.sqrt
    root_beta, root_gamma = sqrt(beta), sqrt(gamma)
    wide = root_beta > root_gamma  # A_A / A_B = beta / gamma: arm A takes the larger factor
    q = _where(wide, root_gamma, root_beta) / _where(wide, root_beta, root_gamma)
    # q * q, as Python's float ** 2 calls pow, which need not round correctly
    scaled = epsilon * (q * q)
    unit = scaled == 0.0
    large, small = _where(unit, 1.0, epsilon), _where(unit, 1.0, scaled)
    return unchecked(FilterPair, a_a=_where(wide, large, small), a_b=_where(wide, small, large))


def resolve_filters(config: ChannelConfig) -> FilterPair:
    """Filter pair a config implies: explicit pair, prescription, or none."""
    if config.filters is not None:
        return config.filters
    if config.epsilon is not None:
        return table_filters(config.scenario, config.T, config.epsilon)
    return FilterPair(a_a=1.0, a_b=1.0)


def _is_point(config: ChannelConfig) -> bool:
    """Whether every input of the config is a scalar: ``p``, ``T``, ``epsilon`` and the pair."""
    f = config.filters
    inputs = (config.scenario.p, config.T, config.epsilon) + (() if f is None else (f.a_a, f.a_b))
    return not any(map(_ndim, inputs))


def _column_config(config: ChannelConfig) -> ChannelConfig:
    """The config as 1-D float64 columns: the one conversion.

    The wrapped scenario carries the ``(p, T)`` column for every kind; the
    filter pair is resolved on that ``(p, T)`` column (a float factor holds
    at every point), and ``epsilon`` is None.
    """
    (p, t), _ = columns(config.scenario.p, config.T)  # the config checked its values
    scenario = unchecked(Scenario, kind=config.scenario.kind, p_value=p)
    wrapped = vars(config) | {"scenario": scenario, "T": t}
    resolved = resolve_filters(unchecked(ChannelConfig, **wrapped))
    pair = (resolved.a_a, resolved.a_b)
    (a_a, a_b, *_), _ = columns(*pair) if all(map(_ndim, pair)) else columns(*pair, t)
    wrapped |= {"filters": unchecked(FilterPair, a_a=a_a, a_b=a_b), "epsilon": None}
    return unchecked(ChannelConfig, **wrapped)


def run_protocol(config: ChannelConfig) -> list[StageOutput]:
    """Evaluate stages I, II and III for one configuration or a column of points.

    Stages I-II run on the ``(p, T)`` broadcast; stage III broadcasts them
    against the filter column and holds the points of its ``kept`` mask.  A
    single point runs on floats, and raises :class:`~ebrsim.core.ZeroTrace`
    if filtered to no trace.

    That single-point rule is stated once, here and in :func:`_unwrap_point`
    beside it, which applies it to a one-point column; the floor test is
    :func:`_keeps_trace` and the raise :func:`_zero_trace`.  The Fock oracle
    and the CLI call these and restate none of them.
    """
    if not _is_point(config):
        config = _column_config(config)
    s1 = stage1(config.scenario, config.T)
    s2 = stage2(config.scenario, config.T, branch=config.branch, feed_forward=config.feed_forward)
    return [s1, s2, apply_filters(s2, resolve_filters(config))]


def _unwrap_point(stages: list[StageOutput]) -> list[StageOutput]:
    """The oracle's one-point column outputs as a point's: floats and ``(4, 4)`` states.

    The single-point rule on a column: a point that stage III did not keep
    raises :class:`~ebrsim.core.ZeroTrace`.  The oracle's outputs carry no
    filter pair, and neither do the point's.
    """
    if not stages[-1].kept[0]:
        _zero_trace()

    def floats(obj):  # the column's checks covered its values
        return unchecked(type(obj), **{name: float(v[0]) for name, v in vars(obj).items()})

    return [StageOutput(out.stage, floats(out.params), out.state[0].copy(),
                        float(out.probability[0]), float(out.cumulative_probability[0]))
            for out in stages]
