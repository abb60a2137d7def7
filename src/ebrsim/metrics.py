"""Entanglement measures and structure fits for two-qubit states.

The protocol under study only ever produces X-shaped states: population on
the diagonal plus a single coherence between ``HV`` and ``VH``.  Those are
captured by :class:`XStateParams`, for which the concurrence has a closed
form.  The general Wootters computation is kept alongside it as an
independent cross-check route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    EbrsimError,
    InvalidParameter,
    normalize,
    singlet_vector,
    unit_trace,
)

_EPS = 1e-12

_ENTRY_NAMES = ("alpha", "beta", "gamma", "delta", "xi", "P")

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


class NotTwoQubit(EbrsimError):
    """A two-qubit quantity was requested for an operator of other dimension."""


class NoThreshold(EbrsimError):
    """Concurrence has no zero-to-positive transition for T in (0, 1)."""


@dataclass(frozen=True)
class XStateParams:
    """Unnormalized X-state entries ``(alpha, beta, gamma, delta, xi)``.

    The represented operator is::

        (1 / 4P) * [[alpha, 0,      0,     0    ],
                    [0,     beta,  -i xi,  0    ],
                    [0,     i xi,   gamma, 0    ],
                    [0,     0,      0,     delta]]

    in the ``HH, HV, VH, VV`` basis, where the diagonal entries sum to
    ``4 P`` and ``P`` is the branch probability.  With this sign choice a
    transparent channel (``xi = -2 T^2`` at ``T = 1``) reproduces the
    source singlet ``(|HV> - i|VH>)/sqrt(2)`` exactly.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    xi: float
    P: float

    def __post_init__(self) -> None:
        entries = (self.alpha, self.beta, self.gamma, self.delta, self.xi, self.P)
        if not all(map(math.isfinite, entries)):
            for name, value in zip(_ENTRY_NAMES, entries):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("alpha", "beta", "gamma", "delta"):
            if getattr(self, name) < -_EPS:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if not (0.0 < self.P <= 1.0 + _EPS):
            raise ValueError(f"P must lie in (0, 1], got {self.P!r}")
        total = self.alpha + self.beta + self.gamma + self.delta
        if abs(total - 4.0 * self.P) > 4.0 * _EPS:
            raise ValueError(f"diagonal sum {total!r} does not match 4P = {4.0 * self.P!r}")
        bound = math.sqrt(max(self.beta, 0.0) * max(self.gamma, 0.0))
        if abs(self.xi) > bound + _EPS:
            raise ValueError(f"|xi| = {abs(self.xi)!r} exceeds sqrt(beta*gamma) = {bound!r}")

    @classmethod
    def from_operator(cls, rho: DensityOperator, tol: float = 1e-10) -> "XStateParams":
        """Extract parameters from a branch operator whose trace is ``P``.

        The stored entries are four times the operator's, so that they sum
        to ``4 P`` as the convention requires.  Raises ``ValueError`` if
        entries outside the X pattern exceed ``tol`` or if the coherence
        is not purely imaginary.
        """
        if rho.dim != 4:
            raise NotTwoQubit(f"expected dim 4, got {rho.dim}")
        m = rho.matrix
        mask = np.ones((4, 4), dtype=bool)
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)):
            mask[i, j] = False
        stray = float(np.max(np.abs(m[mask])))
        if stray > tol:
            raise ValueError(f"operator is not X-shaped: stray entry magnitude {stray!r}")
        if abs(m[1, 2].real) > tol:
            raise ValueError("HV-VH coherence is not purely imaginary")
        return cls(
            alpha=4.0 * float(m[0, 0].real),
            beta=4.0 * float(m[1, 1].real),
            gamma=4.0 * float(m[2, 2].real),
            delta=4.0 * float(m[3, 3].real),
            xi=4.0 * float((1.0j * m[1, 2]).real),
            P=float(np.trace(m).real),
        )


def assemble(params: XStateParams) -> np.ndarray:
    """Unnormalized X matrix with trace ``4 P``."""
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = params.alpha
    m[1, 1] = params.beta
    m[2, 2] = params.gamma
    m[3, 3] = params.delta
    m[1, 2] = -1.0j * params.xi
    m[2, 1] = 1.0j * params.xi
    return m


def normalized_state(params: XStateParams) -> DensityOperator:
    """Unit-trace state ``assemble(params) / 4P``."""
    return DensityOperator(assemble(params) / (4.0 * params.P), 1.0)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Wootters concurrence plus the four sqrt-eigenvalues behind it.

    For a stack of ``n`` states ``value`` is an ``(n,)`` array and
    ``sqrt_eigenvalues`` an ``(n, 4)`` array.
    """

    value: float | np.ndarray
    sqrt_eigenvalues: tuple[float, float, float, float] | np.ndarray


def _as_stack(rho: DensityOperator | np.ndarray) -> np.ndarray:
    """A ``DensityOperator`` as a one-matrix stack, or an ``(n, d, d)`` array as is."""
    if isinstance(rho, DensityOperator):
        return rho.matrix[None]
    stack = np.asarray(rho, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected an (n, d, d) stack of states, got shape {stack.shape}")
    return stack


def _hermitian_part(matrices: np.ndarray) -> np.ndarray:
    return 0.5 * (matrices + matrices.conj().swapaxes(-1, -2))


def _psd_sqrt(matrices: np.ndarray) -> np.ndarray:
    """Square root of the PSD part of each matrix in a ``(..., d, d)`` stack."""
    vals, vecs = np.linalg.eigh(_hermitian_part(matrices))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def concurrence(rho: DensityOperator | np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state or of an ``(n, 4, 4)`` stack.

    Computes the sqrt-eigenvalues of ``rho rho~`` (with the spin-flipped
    ``rho~``) through the Hermitian similarity ``sqrt(rho) rho~ sqrt(rho)``,
    which shares the spectrum but keeps the eigenproblem symmetric; tiny
    negative eigenvalues from round-off are clamped to zero.  A
    ``DensityOperator`` gives float results; row ``i`` of a stack's
    result equals the result for ``DensityOperator(stack[i])``.
    """
    stack = _as_stack(rho)
    if stack.shape[-1] != 4:
        raise NotTwoQubit(f"concurrence requires a two-qubit operator, got dim {stack.shape[-1]}")
    states, _ = unit_trace(stack)
    s = _hermitian_part(states)
    flipped = _SPIN_FLIP @ s.conj() @ _SPIN_FLIP
    root = _psd_sqrt(s)
    product = root @ flipped @ root
    vals = np.linalg.eigvalsh(_hermitian_part(product))
    lams = np.sqrt(np.clip(vals, 0.0, None))[:, ::-1]
    values = np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])
    if isinstance(rho, DensityOperator):
        return ConcurrenceResult(
            value=float(values[0]), sqrt_eigenvalues=tuple(float(x) for x in lams[0])
        )
    return ConcurrenceResult(value=values, sqrt_eigenvalues=lams)


def concurrence_x(params: XStateParams) -> float:
    """Closed-form concurrence for X states: ``max(0, (|xi| - sqrt(alpha delta)) / 2P)``."""
    num = abs(params.xi) - math.sqrt(max(params.alpha, 0.0) * max(params.delta, 0.0))
    return max(0.0, num / (2.0 * params.P))


def fidelity(
    a: DensityOperator | np.ndarray, b: DensityOperator | np.ndarray
) -> float | np.ndarray:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(a) b sqrt(a)))^2`` of the normalized states.

    Either argument may be an ``(n, d, d)`` stack of states, which
    broadcasts against the other and gives an ``(n,)`` array; two
    ``DensityOperator`` arguments give a float.
    """
    sa, sb = _as_stack(a), _as_stack(b)
    if sa.shape[-1] != sb.shape[-1]:
        raise ValueError(f"dimension mismatch: {sa.shape[-1]} vs {sb.shape[-1]}")
    sa, _ = unit_trace(sa)
    sb, _ = unit_trace(sb)
    root = _psd_sqrt(sa)
    inner = root @ sb @ root
    vals = np.linalg.eigvalsh(_hermitian_part(inner))
    total = np.sum(np.sqrt(np.clip(vals, 0.0, None)), axis=-1)
    values = np.minimum(total * total, 1.0)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return float(values[0])
    return values


def werner_decompose(rho: DensityOperator, tol: float = 1e-10) -> float | None:
    """Fit ``rho = q |psi-><psi-| + (1 - q) I/4``; return ``q`` or ``None``.

    ``q`` is read off the ``(HV, HV)`` diagonal entry and then verified
    against all sixteen entries.  Negative ``q`` (weight pushed onto the
    triplet sector) is allowed as long as the fit is exact.
    """
    if rho.dim != 4:
        raise NotTwoQubit(f"expected dim 4, got {rho.dim}")
    state, _ = normalize(rho)
    q = float(4.0 * state.matrix[1, 1].real - 1.0)
    psi = singlet_vector()
    model = q * np.outer(psi, psi.conj()) + (1.0 - q) * np.eye(4) / 4.0
    if float(np.max(np.abs(state.matrix - model))) > tol:
        return None
    return q


def breaking_threshold(scenario, stage: str = "I") -> float:
    """Largest transmittivity at which the stage's concurrence is still zero.

    Closed form in the scenario's overlap weight ``p``, with ``R = 1 - T``.
    Stage I (``xi = -2T^2 + 2pRT``, ``alpha = delta = R^2``) is separable
    iff ``|xi| <= R^2``; the largest such ``T`` is the positive root of
    ``(1 + 2p) T^2 + 2(1 - p) T - 1``, which is ``sqrt(2) - 1`` at
    ``p = 0`` and ``1/sqrt(3)`` at ``p = 1``.  The stage-II concurrence
    ``|xi| / 2P`` with ``xi = -T^2 + pRT`` touches zero only at
    ``T = p / (1 + p)``.  For ``p = 0`` that is ``T = 0``, so stage II is
    entangled on all of ``(0, 1)`` and :class:`NoThreshold` is raised.
    ``crossing_threshold`` in ``tests/test_metrics.py``, a grid scan plus
    bisection, is the numerical reference for both.
    """
    if stage not in ("I", "II"):
        raise InvalidParameter(f"stage must be 'I' or 'II', got {stage!r}")
    p = scenario.p
    if stage == "I":
        return (math.sqrt(p * p + 2.0) - (1.0 - p)) / (1.0 + 2.0 * p)
    if p == 0.0:
        raise NoThreshold("stage-II concurrence is positive for every T in (0, 1)")
    return p / (1.0 + p)
