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
factors) may be a float or a 1-D float64 column, and every stage function
evaluates a column at once: a sweep is one call per block of points.  A
float input runs the same code as a one-element column and comes back as
floats, a :class:`~ebrsim.core.DensityOperator` state and the scalar
errors; a column comes back as columns and ``(n, 4, 4)`` state stacks, and
a point without stage III is masked instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DensityOperator,
    EbrsimError,
    InvalidParameter,
    ZeroTrace,
    ZERO_TRACE_FLOOR,
    columns,
    require,
)
from .metrics import XStateParams, normalized_state

_SCENARIO_KINDS = ("distinguishable", "indistinguishable", "partial")

# Below this distance from T = 1/2 the indistinguishable filter
# prescription degenerates (the 2T-1 coherence amplitude vanishes).
SINGULAR_T_WINDOW = 1e-9


class SingularPrescription(EbrsimError):
    """The tabulated filter prescription is singular at this transmittivity."""


def _as_float_or_column(x) -> float | np.ndarray:
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=np.float64)


def _check_transmittivity(t: float | np.ndarray) -> None:
    require((0.0 <= t) & (t <= 1.0), t, "T must lie in [0, 1], got {!r}")


@dataclass(frozen=True)
class Scenario:
    """Wave-packet overlap scenario for the environment photon.

    ``kind`` is one of ``distinguishable``, ``indistinguishable`` or
    ``partial``; the latter carries the overlap probability ``p_value``,
    a float or a column.
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
        """Indistinguishability weight: 0, 1, or the partial overlap."""
        if self.kind == "partial":
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

    Floats, or columns with one pair per point; in a column, NaN marks a
    point whose prescription is singular (see :func:`table_filters`).
    """

    a_a: float | np.ndarray
    a_b: float | np.ndarray

    def __post_init__(self) -> None:
        for name, value in (("a_a", self.a_a), ("a_b", self.a_b)):
            ok = (0.0 < value) & (value <= 1.0)
            if np.ndim(value):
                ok |= np.isnan(value)
            require(ok, value, name + " must lie in (0, 1], got {!r}")


@dataclass(frozen=True)
class ChannelConfig:
    """Full parameter set for one protocol run, or for a column of points.

    ``T``, ``epsilon``, the scenario's ``p`` and the filter factors may each
    be a column; the columns of one config have equal length.
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


@dataclass(frozen=True)
class StageOutput:
    """Normalized state plus probability bookkeeping for one stage.

    ``probability`` is the stage's own success probability (for stage III
    the conditional filter-pass probability); ``cumulative_probability``
    is the usable fraction of source pairs up to and including the stage.
    ``filters`` is the attenuator pair a stage-III output was filtered with.

    For a column of points, ``params``, the probabilities and ``filters``
    hold columns and ``state`` is an ``(n, 4, 4)`` stack.  A stage-III
    column holds only the points in its boolean mask ``kept``: the others
    had a singular prescription or were filtered down to zero trace.
    """

    stage: str
    params: XStateParams
    state: object
    probability: float | np.ndarray
    cumulative_probability: float | np.ndarray
    filters: FilterPair | None = None
    kept: np.ndarray | None = None


def _point(out: StageOutput) -> StageOutput:
    """A one-point column output as floats and a ``DensityOperator``."""
    filters = out.filters
    if filters is not None:
        filters = FilterPair(float(filters.a_a[0]), float(filters.a_b[0]))
    return StageOutput(
        stage=out.stage,
        params=out.params.row(0),
        state=DensityOperator(out.state[0], 1.0),
        probability=float(out.probability[0]),
        cumulative_probability=float(out.cumulative_probability[0]),
        filters=filters,
    )


def _stage1_params(p: float | np.ndarray, t: float | np.ndarray) -> XStateParams:
    r = 1.0 - t
    w = 2.0 * t - 1.0  # exact for t >= 1/4: the coherence keeps its digits near T = 1/2
    beta = r * r + 2.0 * t * (t - p * r)
    return XStateParams(
        alpha=r * r,
        beta=beta,
        gamma=beta,
        delta=r * r,
        xi=-2.0 * t * (p * w + (1.0 - p) * t),
        P=r * r + t * (t - p * r),
    )


def _stage2_params(p: float | np.ndarray, t: float | np.ndarray) -> XStateParams:
    r = 1.0 - t
    w = 2.0 * t - 1.0
    return XStateParams(
        alpha=0.0 * r,  # +0.0 in t's shape: r >= 0
        beta=t * t,
        gamma=p * w * w + (1.0 - p) * (r * r + t * t),
        delta=r * r,
        xi=-t * (p * w + (1.0 - p) * t),
        P=0.5 * (r * r + t * (t - p * r)),
    )


def stage1(scenario: Scenario, t: float | np.ndarray) -> StageOutput:
    """State after the beam splitter with the environment arm ignored.

    Valid on the full closed interval ``T in [0, 1]``: ``T = 1`` is the
    transparent channel (singlet survives), ``T = 0`` the full swap
    (unpolarized output).
    """
    (p, t), scalar = columns(scenario.p, t)
    _check_transmittivity(t)
    params = _stage1_params(p, t)
    out = StageOutput(
        stage="I",
        params=params,
        state=normalized_state(params),
        probability=params.P,
        cumulative_probability=params.P,
    )
    return _point(out) if scalar else out


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
    (p, t), scalar = columns(scenario.p, t)
    _check_transmittivity(t)
    if branch not in ("H", "V"):
        raise InvalidParameter(f"branch must be 'H' or 'V', got {branch!r}")
    params = _stage2_params(p, t)
    if branch == "V" and not feed_forward:
        params = XStateParams(
            alpha=params.delta,
            beta=params.gamma,
            gamma=params.beta,
            delta=params.alpha,
            xi=params.xi,
            P=params.P,
        )
    out = StageOutput(
        stage="II",
        params=params,
        state=normalized_state(params),
        probability=params.P,
        cumulative_probability=2.0 * params.P if feed_forward else params.P,
    )
    return _point(out) if scalar else out


def apply_filters(stage_out: StageOutput, filters: FilterPair) -> StageOutput:
    """Apply the local V attenuators to a stage-II output.

    Entry map: ``beta -> A_B beta``, ``gamma -> A_A gamma``,
    ``delta -> A_A A_B delta``, ``xi -> sqrt(A_A A_B) xi``; ``alpha`` is
    untouched.  ``probability`` is the conditional pass probability
    (new trace over old), and the cumulative probability multiplies.

    The floor applies to the sum of the filtered diagonal entries
    ``alpha + beta + gamma + delta``, which is ``4P``: four times the
    filtered branch probability, so a point keeps stage III while that
    probability exceeds ``ZERO_TRACE_FLOOR / 4``.  A single point whose sum
    is at most ``ZERO_TRACE_FLOOR`` raises :class:`~ebrsim.core.ZeroTrace`.
    For a column the output keeps only the points whose sum exceeds the
    floor, which also drops the NaN factors of a singular prescription.
    """
    p = stage_out.params
    (alpha, beta, gamma, delta, xi, big_p, cumulative, a_a, a_b), scalar = columns(
        p.alpha, p.beta, p.gamma, p.delta, p.xi, p.P,
        stage_out.cumulative_probability, filters.a_a, filters.a_b,
    )
    new_beta = a_b * beta
    new_gamma = a_a * gamma
    new_delta = a_a * a_b * delta
    new_xi = np.sqrt(a_a * a_b) * xi
    new_trace = alpha + new_beta + new_gamma + new_delta
    kept = new_trace > ZERO_TRACE_FLOOR
    if scalar and not kept[0]:
        raise ZeroTrace("filtering removed all population from the state")
    if not kept.all():
        alpha, new_beta, new_gamma, new_delta, new_xi, new_trace, big_p, cumulative, a_a, a_b = (
            x[kept]
            for x in (alpha, new_beta, new_gamma, new_delta, new_xi, new_trace, big_p,
                      cumulative, a_a, a_b)
        )
    params = XStateParams(
        alpha=alpha,
        beta=new_beta,
        gamma=new_gamma,
        delta=new_delta,
        xi=new_xi,
        P=new_trace / 4.0,
    )
    pass_probability = new_trace / (4.0 * big_p)
    out = StageOutput(
        stage="III",
        params=params,
        state=normalized_state(params),
        probability=pass_probability,
        cumulative_probability=cumulative * pass_probability,
        filters=FilterPair(a_a=a_a, a_b=a_b),
        kept=kept,
    )
    return _point(out) if scalar else out


def table_filters(
    scenario: Scenario, t: float | np.ndarray, epsilon: float | np.ndarray
) -> FilterPair:
    """Attenuation pair that drives the stage-II state toward the singlet.

    ``epsilon`` in ``(0, 1]`` trades success probability for concurrence;
    as ``epsilon -> 0`` the filtered state approaches the scenario's best
    attainable state.  For the indistinguishable (and partial) scenario
    the prescription is singular at ``T = 1/2``, where the surviving
    coherence amplitude ``2T - 1`` vanishes.  Every scenario's
    prescription is singular where an attenuation factor comes out as
    zero: at ``T = 0``, and where it underflows at tiny ``T``.

    At a single point a singular prescription raises
    :class:`SingularPrescription`; in a column its points get NaN factors,
    the column's ``singular`` mask.
    """
    (t, epsilon), scalar = columns(t, epsilon)
    require((0.0 < epsilon) & (epsilon <= 1.0), epsilon, "epsilon must lie in (0, 1], got {!r}")
    _check_transmittivity(t)
    r = 1.0 - t
    w = np.abs(2.0 * t - 1.0)
    if scenario.kind == "distinguishable":
        a_a, a_b = epsilon * t * t / (t * t + r * r), epsilon
        near = np.zeros_like(t, dtype=bool)  # the coherence does not vanish at T = 1/2
    else:
        # Indistinguishable prescription; also used for partial mixtures,
        # whose coherence is dominated by the engineered-overlap component.
        # The wider of T and |2T-1| keeps its arm unfiltered; the other arm
        # gets epsilon times the squared ratio, written q * q because
        # Python's float ** 2 calls pow, which need not round correctly.
        near = w < SINGULAR_T_WINDOW
        wide = t > w
        q = np.where(wide, w, t) / np.where(wide, t, w)
        scaled = epsilon * (q * q)
        a_a, a_b = np.where(wide, epsilon, scaled), np.where(wide, scaled, epsilon)
    zero = (a_a == 0.0) | (a_b == 0.0)
    if scalar:
        t0 = float(t[0])
        if near[0]:
            raise SingularPrescription(
                f"filter prescription is singular at T = {t0!r} (|2T-1| = {float(w[0])!r})"
            )
        a_a, a_b = float(a_a[0]), float(a_b[0])
        if zero[0]:
            raise SingularPrescription(
                f"filter prescription is singular at T = {t0!r} (A_A = {a_a!r}, A_B = {a_b!r})"
            )
        return FilterPair(a_a=a_a, a_b=a_b)
    singular = near | zero
    return FilterPair(a_a=np.where(singular, np.nan, a_a), a_b=np.where(singular, np.nan, a_b))


def resolve_filters(config: ChannelConfig) -> FilterPair:
    """Filter pair a config implies: explicit pair, prescription, or none."""
    if config.filters is not None:
        return config.filters
    if config.epsilon is not None:
        return table_filters(config.scenario, config.T, config.epsilon)
    return FilterPair(a_a=1.0, a_b=1.0)


def run_protocol(config: ChannelConfig) -> list[StageOutput]:
    """Evaluate stages I, II and III for one configuration or a column of points.

    At a single point with a singular filter prescription there is no
    stage III, and only stages I and II are returned.  A column always
    returns three outputs, the stage-III one holding the points in its
    ``kept`` mask; stages I and II are single points when only
    ``epsilon`` or the filters are columns.
    """
    if np.ndim(config.scenario.p) and not np.ndim(config.T):
        # a p column with a scalar T: T takes the column's length, so the
        # prescription masks its singular points instead of raising once
        config = replace(config, T=np.full(np.size(config.scenario.p), config.T))
    s1 = stage1(config.scenario, config.T)
    s2 = stage2(
        config.scenario, config.T, branch=config.branch, feed_forward=config.feed_forward
    )
    try:
        filters = resolve_filters(config)
    except SingularPrescription:
        return [s1, s2]
    return [s1, s2, apply_filters(s2, filters)]
