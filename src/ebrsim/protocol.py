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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EbrsimError, InvalidParameter, ZeroTrace, ZERO_TRACE_FLOOR
from .metrics import XStateParams, normalized_state

_SCENARIO_KINDS = ("distinguishable", "indistinguishable", "partial")

# Below this distance from T = 1/2 the indistinguishable filter
# prescription degenerates (the 2T-1 coherence amplitude vanishes).
SINGULAR_T_WINDOW = 1e-9


class SingularPrescription(EbrsimError):
    """The tabulated filter prescription is singular at this transmittivity."""


@dataclass(frozen=True)
class Scenario:
    """Wave-packet overlap scenario for the environment photon.

    ``kind`` is one of ``distinguishable``, ``indistinguishable`` or
    ``partial``; the latter carries the overlap probability ``p_value``.
    """

    kind: str
    p_value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SCENARIO_KINDS:
            raise InvalidParameter(
                f"scenario must be distinguishable, indistinguishable or partial, got {self.kind!r}"
            )
        if self.kind == "partial":
            if self.p_value is None or not (0.0 <= self.p_value <= 1.0):
                raise InvalidParameter(f"partial scenario needs p in [0, 1], got {self.p_value!r}")
        elif self.p_value is not None:
            raise InvalidParameter(f"{self.kind} scenario takes no p value")

    @property
    def p(self) -> float:
        """Indistinguishability weight: 0, 1, or the partial overlap."""
        if self.kind == "partial":
            return float(self.p_value)  # type: ignore[arg-type]
        return 1.0 if self.kind == "indistinguishable" else 0.0


def distinguishable() -> Scenario:
    return Scenario("distinguishable")


def indistinguishable() -> Scenario:
    return Scenario("indistinguishable")


def partial(p: float) -> Scenario:
    return Scenario("partial", float(p))


@dataclass(frozen=True)
class FilterPair:
    """Local V-attenuation factors ``|V> -> sqrt(A)|V>`` for the two arms.

    ``epsilon`` records the prescription strength when the pair came from
    :func:`table_filters`; it is ``None`` for hand-picked pairs.
    """

    a_a: float
    a_b: float
    epsilon: float | None = None

    def __post_init__(self) -> None:
        for name, value in (("a_a", self.a_a), ("a_b", self.a_b)):
            if not (0.0 < value <= 1.0):
                raise InvalidParameter(f"{name} must lie in (0, 1], got {value!r}")


@dataclass(frozen=True)
class ChannelConfig:
    """Full parameter set for one protocol run."""

    scenario: Scenario
    T: float
    branch: str = "H"
    feed_forward: bool = False
    filters: FilterPair | None = None
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.T <= 1.0):
            raise InvalidParameter(f"T must lie in [0, 1], got {self.T!r}")
        if self.branch not in ("H", "V"):
            raise InvalidParameter(f"branch must be 'H' or 'V', got {self.branch!r}")
        if self.filters is not None and self.epsilon is not None:
            raise InvalidParameter("give either an explicit filter pair or epsilon, not both")
        if self.epsilon is not None and not (0.0 < self.epsilon <= 1.0):
            raise InvalidParameter(f"epsilon must lie in (0, 1], got {self.epsilon!r}")


@dataclass(frozen=True)
class StageOutput:
    """Normalized state plus probability bookkeeping for one stage.

    ``probability`` is the stage's own success probability (for stage III
    the conditional filter-pass probability); ``cumulative_probability``
    is the usable fraction of source pairs up to and including the stage.
    ``filters`` is the attenuator pair a stage-III output was filtered with.
    """

    stage: str
    params: XStateParams
    state: object
    probability: float
    cumulative_probability: float
    filters: FilterPair | None = None


def _stage1_params(p: float, t: float) -> XStateParams:
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


def _stage2_params(p: float, t: float) -> XStateParams:
    r = 1.0 - t
    w = 2.0 * t - 1.0
    return XStateParams(
        alpha=0.0,
        beta=t * t,
        gamma=p * w * w + (1.0 - p) * (r * r + t * t),
        delta=r * r,
        xi=-t * (p * w + (1.0 - p) * t),
        P=0.5 * (r * r + t * (t - p * r)),
    )


def stage1(scenario: Scenario, t: float) -> StageOutput:
    """State after the beam splitter with the environment arm ignored.

    Valid on the full closed interval ``T in [0, 1]``: ``T = 1`` is the
    transparent channel (singlet survives), ``T = 0`` the full swap
    (unpolarized output).
    """
    if not (0.0 <= t <= 1.0):
        raise InvalidParameter(f"T must lie in [0, 1], got {t!r}")
    params = _stage1_params(scenario.p, t)
    return StageOutput(
        stage="I",
        params=params,
        state=normalized_state(params),
        probability=params.P,
        cumulative_probability=params.P,
    )


def stage2(
    scenario: Scenario, t: float, branch: str = "H", feed_forward: bool = False
) -> StageOutput:
    """State conditioned on the environment polarization measurement.

    ``branch`` selects which detector fired.  The V branch without
    feed-forward is the polarization-flipped twin of the H branch
    (reversed diagonal, same coherence).  With ``feed_forward=True`` the
    flip is undone internally, both branches become usable, and the
    cumulative probability doubles; ``probability`` stays per-branch.
    """
    if not (0.0 <= t <= 1.0):
        raise InvalidParameter(f"T must lie in [0, 1], got {t!r}")
    if branch not in ("H", "V"):
        raise InvalidParameter(f"branch must be 'H' or 'V', got {branch!r}")
    params = _stage2_params(scenario.p, t)
    if branch == "V" and not feed_forward:
        params = XStateParams(
            alpha=params.delta,
            beta=params.gamma,
            gamma=params.beta,
            delta=params.alpha,
            xi=params.xi,
            P=params.P,
        )
    factor = 2.0 if feed_forward else 1.0
    return StageOutput(
        stage="II",
        params=params,
        state=normalized_state(params),
        probability=params.P,
        cumulative_probability=factor * params.P,
    )


def apply_filters(stage_out: StageOutput, filters: FilterPair) -> StageOutput:
    """Apply the local V attenuators to a stage-II output.

    Entry map: ``beta -> A_B beta``, ``gamma -> A_A gamma``,
    ``delta -> A_A A_B delta``, ``xi -> sqrt(A_A A_B) xi``; ``alpha`` is
    untouched.  ``probability`` is the conditional pass probability
    (new trace over old), and the cumulative probability multiplies.
    """
    p = stage_out.params
    a_a, a_b = filters.a_a, filters.a_b
    new_alpha = p.alpha
    new_beta = a_b * p.beta
    new_gamma = a_a * p.gamma
    new_delta = a_a * a_b * p.delta
    new_xi = math.sqrt(a_a * a_b) * p.xi
    new_trace = new_alpha + new_beta + new_gamma + new_delta
    if new_trace <= ZERO_TRACE_FLOOR:
        raise ZeroTrace("filtering removed all population from the state")
    params = XStateParams(
        alpha=new_alpha,
        beta=new_beta,
        gamma=new_gamma,
        delta=new_delta,
        xi=new_xi,
        P=new_trace / 4.0,
    )
    pass_probability = new_trace / (4.0 * p.P)
    return StageOutput(
        stage="III",
        params=params,
        state=normalized_state(params),
        probability=pass_probability,
        cumulative_probability=stage_out.cumulative_probability * pass_probability,
        filters=filters,
    )


def table_filters(scenario: Scenario, t: float, epsilon: float) -> FilterPair:
    """Attenuation pair that drives the stage-II state toward the singlet.

    ``epsilon`` in ``(0, 1]`` trades success probability for concurrence;
    as ``epsilon -> 0`` the filtered state approaches the scenario's best
    attainable state.  For the indistinguishable (and partial) scenario
    the prescription is singular at ``T = 1/2``, where the surviving
    coherence amplitude ``2T - 1`` vanishes.  Every scenario's
    prescription is singular where an attenuation factor comes out as
    zero: at ``T = 0``, and where it underflows at tiny ``T``.
    """
    if not (0.0 < epsilon <= 1.0):
        raise InvalidParameter(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if not (0.0 <= t <= 1.0):
        raise InvalidParameter(f"T must lie in [0, 1], got {t!r}")
    r = 1.0 - t
    if scenario.kind == "distinguishable":
        a_a, a_b = epsilon * t * t / (t * t + r * r), epsilon
    else:
        # Indistinguishable prescription; also used for partial mixtures,
        # whose coherence is dominated by the engineered-overlap component.
        w = abs(2.0 * t - 1.0)
        if w < SINGULAR_T_WINDOW:
            raise SingularPrescription(
                f"filter prescription is singular at T = {t!r} (|2T-1| = {w!r})"
            )
        if t > w:
            a_a, a_b = epsilon, epsilon * (w / t) ** 2
        else:
            a_a, a_b = epsilon * (t / w) ** 2, epsilon
    if a_a == 0.0 or a_b == 0.0:
        raise SingularPrescription(
            f"filter prescription is singular at T = {t!r} (A_A = {a_a!r}, A_B = {a_b!r})"
        )
    return FilterPair(a_a=a_a, a_b=a_b, epsilon=epsilon)


def resolve_filters(config: ChannelConfig) -> FilterPair:
    """Filter pair a config implies: explicit pair, prescription, or none."""
    if config.filters is not None:
        return config.filters
    if config.epsilon is not None:
        return table_filters(config.scenario, config.T, config.epsilon)
    return FilterPair(a_a=1.0, a_b=1.0)


def run_protocol(config: ChannelConfig) -> list[StageOutput]:
    """Evaluate stages I, II and III for one configuration.

    Where the filter prescription is singular there is no stage III, and
    only stages I and II are returned.
    """
    s1 = stage1(config.scenario, config.T)
    s2 = stage2(
        config.scenario, config.T, branch=config.branch, feed_forward=config.feed_forward
    )
    try:
        filters = resolve_filters(config)
    except SingularPrescription:
        return [s1, s2]
    return [s1, s2, apply_filters(s2, filters)]
