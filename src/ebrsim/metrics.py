"""Entanglement measures and structure fits for two-qubit states.

The protocol under study only ever produces X-shaped states: population on
the diagonal plus a single coherence between ``HV`` and ``VH``.  Those are
captured by :class:`XStateParams`, for which the concurrence has a closed
form.  The general Wootters computation is kept alongside it as an
independent cross-check route.

Every function computes on numpy's batch axes: a state is a ``(4, 4)``
complex array and a stack of states an ``(..., 4, 4)`` array; the X-state
functions take parameters whose entries are floats or equal-shape float
arrays.  A result has the input's leading shape: a single state runs the
stack's code and gets ``np.float64`` results.  :class:`XStateParams`
checks its entries by :func:`~ebrsim.core.require`, the one check rule:
floats stay floats, so a point of six Python floats is checked without a
numpy call; columns name their first failing point; and a failed check
raises a plain ``ValueError`` with the same message either way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import EbrsimError, InvalidParameter, ZeroTrace, require, singlet_vector, unit_trace

_EPS = 1e-12
_MAX = sys.float_info.max  # |x| <= _MAX: x is finite
# Largest entry an exact fit may miss by: stray X-pattern entries in
# XStateParams.from_operator, the Werner model in werner_decompose.
_FIT_TOL = 1e-10

_ENTRY_NAMES = ("alpha", "beta", "gamma", "delta", "xi", "P")

# Entries of a two-qubit operator outside the X pattern (the diagonal and
# the HV-VH coherence).
_OFF_X = ~np.eye(4, dtype=bool)
_OFF_X[1, 2] = _OFF_X[2, 1] = False

# The spin flip sigma_y (x) sigma_y reverses the HH, HV, VH, VV basis and
# signs it by (-1, 1, 1, -1), so rho~ = _FLIP_SIGNS * conj(rho) reversed in
# both indices: the bits of the two matrix products, signed zeros included.
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


class NotTwoQubit(EbrsimError):
    """A two-qubit quantity was requested for an operator of other dimension."""


class NoThreshold(EbrsimError):
    """Concurrence has no zero-to-positive transition for T in (0, 1)."""


def _require_in_order(entries: tuple) -> None:
    """:class:`XStateParams`'s checks in their fixed order, each naming the first failing point."""
    for name, x in zip(_ENTRY_NAMES, entries):
        require(abs(x) <= _MAX, x, name + " must be finite, got {!r}", error=ValueError)
    for name, x in zip(_ENTRY_NAMES, entries[:4]):
        require(x >= -_EPS, x, name + " must be nonnegative, got {!r}", error=ValueError)
    alpha, beta, gamma, delta, xi, p = entries
    require((0.0 < p) & (p <= 1.0 + _EPS), p, "P must lie in (0, 1], got {!r}",
            error=ValueError)
    total, four_p, size = alpha + beta + gamma + delta, 4.0 * p, abs(xi)
    require(abs(total - four_p) <= 4.0 * _EPS, total,
            "diagonal sum {!r} does not match 4P = {!r}", four_p, error=ValueError)
    # max(0, x) on floats and columns alike: x + |x| is +0.0 for x <= 0 and
    # exactly 2x otherwise, as beta and gamma are at most about 4P here
    product = (beta + abs(beta)) / 2 * ((gamma + abs(gamma)) / 2)
    bound = (math.sqrt if type(product) is float else np.sqrt)(product)
    require(size <= bound + _EPS, size,
            "|xi| = {!r} exceeds sqrt(beta*gamma) = {!r}", bound, error=ValueError)


def _passes(alpha, beta, gamma, delta, xi, p) -> bool:
    """Whether array entries pass every check of :class:`XStateParams`, by one reduction.

    The mask is the conjunction of the 13 conditions.  The finiteness checks
    are implied by the others: a NaN fails every comparison, a ``P`` in
    ``(0, 1 + _EPS]`` is finite, four entries of at least ``-_EPS`` whose sum
    lies within ``4 _EPS`` of ``4P`` are finite, and so is an ``|xi|`` within
    their coherence bound.  On such entries ``max(x, 0)`` is ``(x + |x|) / 2``
    up to the sign of a zero, so the bound is the ordered check's.  A
    non-finite entry fails its row without a numpy warning.
    """
    with np.errstate(all="ignore"):
        low = np.minimum(np.minimum(alpha, beta), np.minimum(gamma, delta))
        bound = np.sqrt(np.maximum(beta, 0.0) * np.maximum(gamma, 0.0)) + _EPS
        ok = (low >= -_EPS) & (0.0 < p) & (p <= 1.0 + _EPS) & (abs(xi) <= bound)
        ok &= abs(alpha + beta + gamma + delta - 4.0 * p) <= 4.0 * _EPS
    return np.count_nonzero(ok) == np.size(ok)


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

    The entries are floats, or six equal-shape arrays holding one state
    per point; arrays of two shapes raise a plain ``ValueError`` naming
    them, before any other check.  Both run the same checks through
    :func:`~ebrsim.core.require`, in a fixed order (finiteness of all six,
    the four lower bounds, ``P``, the diagonal sum, the coherence bound):
    floats stay floats, with no numpy call, and columns name their first
    failing entry and point.
    Arrays first fold the 13 conditions into one mask, reduced once, so a
    passing column costs one reduction; only a failing one walks the ordered
    checks for its message.  A failed check raises a plain ``ValueError``,
    not ``InvalidParameter``, with the same message for a point and for the
    column row holding it.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray
    delta: float | np.ndarray
    xi: float | np.ndarray
    P: float | np.ndarray

    def __post_init__(self) -> None:
        entries = (self.alpha, self.beta, self.gamma, self.delta, self.xi, self.P)
        if type(self.P) is float:
            _require_in_order(entries)
            return
        arrays = {n: x.shape for n, x in zip(_ENTRY_NAMES, entries) if isinstance(x, np.ndarray)}
        if len(set(arrays.values())) > 1:  # before numpy broadcasts them, or fails to
            shapes = ", ".join(f"{name} {shape}" for name, shape in arrays.items())
            raise ValueError(f"X-state entries must share one shape, got {shapes}")
        if not _passes(*entries):
            # only a failing column walks the ordered checks, for its message; a
            # non-finite or huge entry fails its check without a numpy warning
            with np.errstate(all="ignore"):
                _require_in_order(entries)

    @classmethod
    def from_operator(cls, rho) -> "XStateParams":
        """Extract parameters from a branch operator whose trace is ``P``.

        The stored entries are four times the operator's, so that they sum
        to ``4 P`` as the convention requires.  Raises ``ValueError`` if
        an entry is not finite, if entries outside the X pattern exceed
        ``_FIT_TOL`` or if the coherence is not purely imaginary.  The
        entries have the leading shape of ``rho``: ``np.float64`` for one
        operator, columns for an ``(n, 4, 4)`` stack, with every check run
        on every operator and the first failure reported.
        """
        stack = _matrices(rho)
        if stack.shape[-1] != 4:
            raise NotTwoQubit(f"expected dim 4, got {stack.shape[-1]}")
        if not np.isfinite(stack).all():
            raise ValueError("matrix contains non-finite entries")
        # the checks see the operators in C order, so they report the first failure
        flat = stack.reshape(-1, 4, 4)
        stray = np.max(np.abs(flat[:, _OFF_X]), axis=1)
        require(stray <= _FIT_TOL, stray, "operator is not X-shaped: stray entry magnitude {!r}",
                error=ValueError)
        real = flat[:, 1, 2].real
        require(np.abs(real) <= _FIT_TOL, real, "HV-VH coherence is not purely imaginary",
                error=ValueError)
        # an entry that overflows here fails the finiteness check of __post_init__
        with np.errstate(over="ignore"):
            entries = [
                4.0 * stack[..., 0, 0].real,
                4.0 * stack[..., 1, 1].real,
                4.0 * stack[..., 2, 2].real,
                4.0 * stack[..., 3, 3].real,
                4.0 * (1.0j * stack[..., 1, 2]).real,
                np.trace(stack, axis1=-2, axis2=-1).real,
            ]
        return cls(*entries)


def assemble(params: XStateParams) -> np.ndarray:
    """Unnormalized X matrix with trace ``4 P``: ``(4, 4)``, or ``(n, 4, 4)`` for columns."""
    xi = np.asarray(params.xi, dtype=np.float64)  # the entries share its shape
    m = np.zeros(xi.shape + (4, 4), dtype=np.complex128)
    m[..., 0, 0] = params.alpha
    m[..., 1, 1] = params.beta
    m[..., 2, 2] = params.gamma
    m[..., 3, 3] = params.delta
    m[..., 1, 2] = -1.0j * xi
    m[..., 2, 1] = 1.0j * xi
    return m


def normalized_state(params: XStateParams) -> np.ndarray:
    """Unit-trace state ``assemble(params) / 4P``: ``(4, 4)``, or ``(n, 4, 4)`` for columns.

    The entries are written through the stack's float view as the float
    operations of numpy's complex division by ``4P + 0j`` (Smith's method:
    ``scl = 1 / 4P``, then ``((re + im * 0.0) * scl, (im - re * 0.0) * scl)``)
    on ``assemble``'s entries, so the bits are the quotient's, signed zeros
    included, with one stack allocated instead of two.  A ``4P`` whose
    reciprocal overflows (``4P <= 2**-1024``, so ``P`` below about 1.4e-309)
    has no finite unit-trace state: it raises
    :class:`~ebrsim.core.ZeroTrace`, naming the least ``P``, before dividing.
    """
    xi = params.xi  # a float, or a column the other entries share the shape of
    shape = getattr(xi, "shape", ())
    four_p = 4.0 * params.P
    if (four_p <= 2.0**-1024).any() if shape else four_p <= 2.0**-1024:
        least = float(np.min(params.P))
        raise ZeroTrace(f"cannot normalize a state with P = {least!r}: 1/4P overflows")
    scl = 1.0 / four_p
    state = np.zeros(shape + (4, 4), dtype=np.complex128)
    parts = state.view(np.float64)  # (..., 4, 8): entry (i, j) is (re, im) at 2j, 2j + 1
    for i, entry in enumerate((params.alpha, params.beta, params.gamma, params.delta)):
        parts[..., i, 2 * i] = (entry + 0.0) * scl  # re of (entry, +0.0)
    # (+0.0, -xi) at (1, 2), from -1j * xi: its re quotient is +0.0
    parts[..., 1, 5] = -xi * scl
    # (0.0 * xi - 0.0, 0.0 + xi) at (2, 1), from 1j * xi: -0.0 + (-0.0) is -0.0 where xi < 0
    im = xi + 0.0
    parts[..., 2, 2] = (0.0 * xi - 0.0 + im * 0.0) * scl
    parts[..., 2, 3] = im * scl
    return state


@dataclass(frozen=True)
class ConcurrenceResult:
    """Wootters concurrence plus the four sqrt-eigenvalues behind it, in descending order.

    ``value`` has the states' leading shape and ``sqrt_eigenvalues`` that
    shape plus 4: an ``np.float64`` and a ``(4,)`` array for one state, an
    ``(n,)`` and an ``(n, 4)`` array for a stack of ``n``.
    """

    value: float | np.ndarray
    sqrt_eigenvalues: np.ndarray


def _matrices(rho) -> np.ndarray:
    """``rho`` as a complex ``(..., d, d)`` array: one matrix, or a stack of them."""
    m = np.asarray(rho, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    return m


def _hermitian_part(matrices: np.ndarray) -> np.ndarray:
    return 0.5 * (matrices + matrices.conj().swapaxes(-1, -2))


def _psd_sqrt(matrices: np.ndarray) -> np.ndarray:
    """Square root of the PSD part of each matrix in a ``(..., d, d)`` stack."""
    vals, vecs = np.linalg.eigh(_hermitian_part(matrices))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def concurrence(rho) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state or of an ``(..., 4, 4)`` stack.

    Computes the sqrt-eigenvalues of ``rho rho~`` (with the spin-flipped
    ``rho~``) through the Hermitian similarity ``sqrt(rho) rho~ sqrt(rho)``,
    which shares the spectrum but keeps the eigenproblem symmetric; tiny
    negative eigenvalues from round-off are clamped to zero.  Row ``i``
    of a stack's result has the bits of the result for ``stack[i]``.
    """
    stack = _matrices(rho)
    if stack.shape[-1] != 4:
        raise NotTwoQubit(f"concurrence requires a two-qubit operator, got dim {stack.shape[-1]}")
    states, _ = unit_trace(stack)
    s = _hermitian_part(states)
    flipped = _FLIP_SIGNS * s.conj()[..., ::-1, ::-1]
    root = _psd_sqrt(s)
    product = root @ flipped @ root
    vals = np.linalg.eigvalsh(_hermitian_part(product))
    lams = np.sqrt(np.clip(vals, 0.0, None))[..., ::-1]
    values = np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])
    return ConcurrenceResult(value=values, sqrt_eigenvalues=lams)


def concurrence_x(params: XStateParams) -> float | np.ndarray:
    """Closed-form concurrence for X states: ``max(0, (|xi| - sqrt(alpha delta)) / 2P)``.

    An ``np.float64`` for float entries, an array of their shape for arrays.
    ``|xi| <= 2P`` holds for the entries, but not always for their rounded
    values, so the result is clamped at 1.
    """
    root = np.sqrt(np.maximum(params.alpha, 0.0) * np.maximum(params.delta, 0.0))
    return np.minimum(np.maximum(0.0, (np.abs(params.xi) - root) / (2.0 * params.P)), 1.0)


def fidelity(a, b) -> float | np.ndarray:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(a) b sqrt(a)))^2`` of the normalized states.

    The arguments are states or ``(..., d, d)`` stacks of states, which
    broadcast against each other; the result has the broadcast leading
    shape, an ``np.float64`` for two states.
    """
    sa, sb = _matrices(a), _matrices(b)
    if sa.shape[-1] != sb.shape[-1]:
        raise ValueError(f"dimension mismatch: {sa.shape[-1]} vs {sb.shape[-1]}")
    sa, _ = unit_trace(sa)
    sb, _ = unit_trace(sb)
    root = _psd_sqrt(sa)
    inner = root @ sb @ root
    vals = np.linalg.eigvalsh(_hermitian_part(inner))
    total = np.sum(np.sqrt(np.clip(vals, 0.0, None)), axis=-1)
    return np.minimum(total * total, 1.0)


def werner_decompose(rho) -> float | None:
    """Fit one state ``rho = q |psi-><psi-| + (1 - q) I/4``; return ``q`` or ``None``.

    ``q`` is read off the ``(HV, HV)`` diagonal entry of the normalized
    state and then verified against all sixteen entries.  Negative ``q``
    (weight pushed onto the triplet sector) is allowed as long as the fit
    is exact to within ``_FIT_TOL`` in every entry.
    """
    m = _matrices(rho)
    if m.shape != (4, 4):
        raise NotTwoQubit(f"expected one two-qubit state, got shape {m.shape}")
    state, _ = unit_trace(m)
    q = float(4.0 * state[1, 1].real - 1.0)
    psi = singlet_vector()
    model = q * np.outer(psi, psi.conj()) + (1.0 - q) * np.eye(4) / 4.0
    if float(np.max(np.abs(state - model))) > _FIT_TOL:
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
    bisection, is the numerical reference for both.  The threshold is one
    number: a scenario whose ``p`` is a column raises :class:`InvalidParameter`.
    """
    if stage not in ("I", "II"):
        raise InvalidParameter(f"stage must be 'I' or 'II', got {stage!r}")
    p = scenario.p
    if np.ndim(p):
        raise InvalidParameter(f"breaking_threshold takes one p, got a column of shape {p.shape}")
    if stage == "I":
        return (math.sqrt(p * p + 2.0) - (1.0 - p)) / (1.0 + 2.0 * p)
    if p == 0.0:
        raise NoThreshold("stage-II concurrence is positive for every T in (0, 1)")
    return p / (1.0 + p)
