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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .core import DensityOperator, EbrsimError, InvalidParameter, ZERO_TRACE_FLOOR, apply_local
from .metrics import XStateParams
from .protocol import (
    ChannelConfig,
    Scenario,
    StageOutput,
    distinguishable,
    indistinguishable,
    partial,
    resolve_filters,
    run_protocol,
)

MAX_PHOTONS = 3

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
    """Sparse few-photon state vector."""

    amps: dict[Key, complex] = field(default_factory=dict)

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def photon_number(self) -> int:
        if not self.amps:
            return 0
        return len(next(iter(self.amps)))


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


def _bs_rows(t: float, convention: str) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Creation-operator substitution rows for paths B and E.

    ``b+ -> row_b[0] b'+ + row_b[1] e'+`` and likewise for ``e+``.  The
    default real convention pairs a transmitted plus sign with a
    reflected minus; the ``phase`` convention puts ``i`` on both
    reflections.  Both are unitary, and observable predictions must not
    depend on the choice.
    """
    rt = math.sqrt(t)
    rr = math.sqrt(1.0 - t)
    if convention == "real":
        return (rt, -rr), (rr, rt)
    if convention == "phase":
        return (rt, 1.0j * rr), (1.0j * rr, rt)
    raise InvalidParameter(f"unknown beam-splitter convention {convention!r}")


def evolve_bs(state: FockState, t: float, convention: str = "real") -> FockState:
    """Beam splitter of transmittivity ``t`` on paths (B, E) -> (B', E').

    Acts identically on every (polarization, time-bin) sub-mode pair.
    Implemented as the creation-operator substitution expanded over all
    photon routings, with bosonic factorial factors restored at the end.
    """
    if not (0.0 <= t <= 1.0):
        raise InvalidParameter(f"T must lie in [0, 1], got {t!r}")
    row_b, row_e = _bs_rows(t, convention)
    out: dict[Key, complex] = {}
    for key, amp in state.amps.items():
        if len(key) > MAX_PHOTONS:
            raise InvalidParameter(f"configuration with {len(key)} photons exceeds MAX_PHOTONS")
        coeff = amp / _occupation_factor(key)
        options: list[list[tuple[ModeLabel, complex]]] = []
        for mode in key:
            if mode.path == "B":
                options.append(
                    [
                        (ModeLabel("B'", mode.pol, mode.time_bin), row_b[0]),
                        (ModeLabel("E'", mode.pol, mode.time_bin), row_b[1]),
                    ]
                )
            elif mode.path == "E":
                options.append(
                    [
                        (ModeLabel("B'", mode.pol, mode.time_bin), row_e[0]),
                        (ModeLabel("E'", mode.pol, mode.time_bin), row_e[1]),
                    ]
                )
            else:
                options.append([(mode, 1.0 + 0.0j)])
        for combo in itertools.product(*options):
            factor = coeff
            for _, c in combo:
                factor *= c
            if factor == 0.0:
                continue
            new_key = _canonical(m for m, _ in combo)
            out[new_key] = out.get(new_key, 0.0j) + factor
    amps = {}
    for key, monomial_coeff in out.items():
        value = monomial_coeff * _occupation_factor(key)
        if value != 0.0:
            amps[key] = value
    return FockState(amps)


def _arm_counts(key: Key) -> tuple[int, int]:
    nb = sum(1 for m in key if m.path == "B'")
    ne = sum(1 for m in key if m.path == "E'")
    return nb, ne


def postselect_one_per_arm(state: FockState) -> tuple[FockState, float]:
    """Keep exactly-one-photon-per-output-arm configurations.

    Returns the renormalized conditional state and the probability of
    the selection.  Raises :class:`ZeroProbability` when nothing
    survives.
    """
    kept = {k: a for k, a in state.amps.items() if _arm_counts(k) == (1, 1)}
    probability = float(sum(abs(a) ** 2 for a in kept.values()))
    if probability <= ZERO_TRACE_FLOOR:
        raise ZeroProbability("no amplitude with one photon per output arm")
    scale = 1.0 / math.sqrt(probability)
    return FockState({k: a * scale for k, a in kept.items()}), probability


def conditional_state(state: FockState, outcome: str | None = None) -> DensityOperator:
    """Two-qubit polarization operator on (A, B') after handling the E' arm.

    With ``outcome`` ``None`` the E' modes are traced out (stage I).
    With ``outcome`` ``'H'`` or ``'V'`` the E' photon is projected on
    that polarization, time-blind, before tracing (stage II).  The
    returned operator is unnormalized: its trace is the branch
    probability given the input state.
    """
    if outcome not in (None, "H", "V"):
        raise InvalidParameter(f"outcome must be None, 'H' or 'V', got {outcome!r}")
    vectors: dict[tuple, np.ndarray] = {}
    for key, amp in state.amps.items():
        a_modes = [m for m in key if m.path == "A"]
        b_modes = [m for m in key if m.path == "B'"]
        e_modes = [m for m in key if m.path == "E'"]
        if len(a_modes) != 1 or len(b_modes) != 1 or len(e_modes) != 1:
            raise InvalidParameter("conditional_state expects post-selected one-per-arm states")
        a_mode, b_mode, e_mode = a_modes[0], b_modes[0], e_modes[0]
        if outcome is not None and e_mode.pol != outcome:
            continue
        env_index = (a_mode.time_bin, b_mode.time_bin, e_mode)
        vec = vectors.setdefault(env_index, np.zeros(4, dtype=np.complex128))
        vec[2 * _POL_INDEX[a_mode.pol] + _POL_INDEX[b_mode.pol]] += amp
    rho = np.zeros((4, 4), dtype=np.complex128)
    for vec in vectors.values():
        rho += np.outer(vec, vec.conj())
    return DensityOperator(rho, float(np.trace(rho).real))


def feed_forward_correction() -> tuple[np.ndarray, np.ndarray]:
    """Local unitaries mapping the V branch onto the H branch.

    A polarization flip on each arm; the Y form on the reflected arm
    carries the extra phase the beam-splitter sign convention imposes,
    so the correction is exact, not merely up to local phases.
    """
    return _SIGMA_X.copy(), _SIGMA_Y.copy()


def oracle_protocol(config: ChannelConfig, convention: str = "real") -> list[StageOutput]:
    """Stage I-III outputs obtained purely from the Fock simulation.

    Mirrors :func:`ebrsim.protocol.run_protocol` for the same
    configuration, including the per-branch probability bookkeeping and
    the cumulative doubling under feed-forward.
    """
    p_overlap = config.scenario.p
    preparations: list[tuple[float, Scenario]] = []
    if p_overlap > 0.0:
        preparations.append((p_overlap, indistinguishable()))
    if p_overlap < 1.0:
        preparations.append((1.0 - p_overlap, distinguishable()))

    rho_1 = np.zeros((4, 4), dtype=np.complex128)
    rho_2 = np.zeros((4, 4), dtype=np.complex128)
    for weight, prep in preparations:
        for env_pol in ("H", "V"):
            state0 = prepare_input(prep, env_pol)
            state1 = evolve_bs(state0, config.T, convention)
            selected, p_select = postselect_one_per_arm(state1)
            share = 0.5 * weight * p_select
            rho_1 += share * conditional_state(selected, None).matrix
            rho_2 += share * conditional_state(selected, config.branch).matrix

    op_1 = DensityOperator(rho_1)
    op_2 = DensityOperator(rho_2)
    if config.branch == "V" and config.feed_forward:
        op_2 = apply_local(op_2, *feed_forward_correction())

    filters = resolve_filters(config)
    k_a = np.diag([1.0, math.sqrt(filters.a_a)])
    k_b = np.diag([1.0, math.sqrt(filters.a_b)])
    op_3 = apply_local(op_2, k_a, k_b)

    factor = 2.0 if config.feed_forward else 1.0
    p1 = op_1.trace_weight
    p2 = op_2.trace_weight
    pass_probability = op_3.trace_weight / p2

    def _stage(
        stage: str, op: DensityOperator, probability: float, cumulative: float
    ) -> StageOutput:
        return StageOutput(
            stage=stage,
            params=XStateParams.from_operator(op),
            state=DensityOperator(op.matrix / op.trace_weight, 1.0),
            probability=probability,
            cumulative_probability=cumulative,
        )

    return [
        _stage("I", op_1, p1, p1),
        _stage("II", op_2, p2, factor * p2),
        _stage("III", op_3, pass_probability, factor * p2 * pass_probability),
    ]


def hom_coincidence(t: float, p: float, convention: str = "real") -> float:
    """Two-photon coincidence probability behind the beam splitter.

    Both photons share one polarization; ``p`` is the probability that
    they occupy the same time bin.  At ``t = 0.5`` the coincidence rate
    is ``(1 - p)/2``, so the dip visibility equals ``p`` exactly.
    """
    if not (0.0 <= p <= 1.0):
        raise InvalidParameter(f"p must lie in [0, 1], got {p!r}")
    results = {}
    for label, env_bin in (("same", 0), ("other", 1)):
        amps = {
            _canonical([ModeLabel("B", "H", 0), ModeLabel("E", "H", env_bin)]): 1.0 + 0.0j
        }
        evolved = evolve_bs(FockState(amps), t, convention)
        results[label] = float(
            sum(abs(a) ** 2 for k, a in evolved.amps.items() if _arm_counts(k) == (1, 1))
        )
    return p * results["same"] + (1.0 - p) * results["other"]


@dataclass(frozen=True)
class OracleCheckRecord:
    """Deviations between the closed form and the oracle at one grid point."""

    scenario: str
    p: float
    T: float
    epsilon: float
    stage: str
    state_deviation: float
    probability_deviation: float
    cumulative_deviation: float

    def max_deviation(self) -> float:
        return max(self.state_deviation, self.probability_deviation, self.cumulative_deviation)


@dataclass(frozen=True)
class OracleCheckReport:
    records: list[OracleCheckRecord]
    skipped: list[str]
    tol: float

    @property
    def failures(self) -> list[OracleCheckRecord]:
        return [r for r in self.records if r.max_deviation() > self.tol]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def max_state_deviation(self) -> float:
        return max((r.state_deviation for r in self.records), default=0.0)

    @property
    def max_probability_deviation(self) -> float:
        return max(
            (max(r.probability_deviation, r.cumulative_deviation) for r in self.records),
            default=0.0,
        )


def oracle_check(
    grid_step: float = 0.05,
    epsilons: tuple[float, ...] = (1.0, 0.25),
    tol: float = 1e-10,
    convention: str = "real",
) -> OracleCheckReport:
    """Sweep the closed form against the oracle over a transmittivity grid.

    Covers all three scenarios (partial at ``p = 0.5``) and stages I-III
    with the tabulated filter prescription at each ``epsilon``.  Points
    where the prescription is singular contribute the stages I-II that
    :func:`ebrsim.protocol.run_protocol` returns there and are listed in
    ``skipped``.
    """
    scenarios = [distinguishable(), indistinguishable(), partial(0.5)]
    steps = int(round(1.0 / grid_step))
    grid = [k * grid_step for k in range(1, steps)]
    records: list[OracleCheckRecord] = []
    skipped: list[str] = []
    for scenario in scenarios:
        for t in grid:
            for eps in epsilons:
                closed = run_protocol(ChannelConfig(scenario=scenario, T=t, epsilon=eps))
                filters = closed[-1].filters
                if filters is None:
                    skipped.append(
                        f"{scenario.kind} T={t:.6g} epsilon={eps:.6g}: singular prescription"
                    )
                # Without filters the oracle's stage III is unused: zip stops at II.
                config = ChannelConfig(scenario=scenario, T=t, filters=filters)
                oracle = oracle_protocol(config, convention)
                for ref, alt in zip(closed, oracle):
                    state_dev = float(np.max(np.abs(ref.state.matrix - alt.state.matrix)))
                    prob_dev = abs(ref.probability - alt.probability)
                    cum_dev = abs(ref.cumulative_probability - alt.cumulative_probability)
                    records.append(
                        OracleCheckRecord(
                            scenario=scenario.kind,
                            p=scenario.p,
                            T=t,
                            epsilon=eps,
                            stage=ref.stage,
                            state_deviation=state_dev,
                            probability_deviation=prob_dev,
                            cumulative_deviation=cum_dev,
                        )
                    )
    return OracleCheckReport(records=records, skipped=skipped, tol=tol)
