"""Simulated two-qubit polarization tomography with Poissonian counting.

The measurement model follows coincidence counting practice: each product
of single-photon analyzer settings is held for an equal share of the
count budget, the registered triples are Poisson distributed around the
state's projection probability, and the state is recovered by linear
inversion on Pauli expectations followed by a projection back onto the
physical (positive, unit-trace) set.  Error bars come from a parametric
bootstrap around the fitted state.  Every state, the true one counted
and the fitted one, is a ``(4, 4)`` complex array.

Counts travel as one :class:`Counts` record of columns: the analyzer
pairs, their model rates and their registered triples.  ``simulate_counts``
and ``counts_from_csv`` return it; ``reconstruct``, ``error_bars`` and
``counts_to_csv`` take it.  A counts file that is empty or has another
header, a malformed row or a negative count, and a record whose columns
differ in length or whose settings name an unknown analyzer, raise
:class:`~ebrsim.core.InvalidParameter`.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EbrsimError, InvalidParameter, unit_trace
from .metrics import concurrence, fidelity

# Largest expected count per setting: numpy's Poisson sampler rejects a
# mean near 1e19 ("lam value too large"), and 9.2e18 still draws.
MAX_EXPECTED_COUNT = 1e18

# Most bootstrap trials error_bars runs.  Every trial is reconstructed in
# one stack, so memory grows with the trials: 100 000 trials of 36
# settings peak near 310 MB and take about 3 s; more is a config error,
# not an allocation that runs until memory does.
MAX_TRIALS = 100_000

STOKES_LABELS = ("H", "V", "D", "A", "R", "L")
MINIMAL_LABELS = ("H", "V", "D", "R")

_SQ2 = 1.0 / np.sqrt(2.0)
_KETS = {
    "H": np.array([1.0, 0.0], dtype=np.complex128),
    "V": np.array([0.0, 1.0], dtype=np.complex128),
    "D": np.array([_SQ2, _SQ2], dtype=np.complex128),
    "A": np.array([_SQ2, -_SQ2], dtype=np.complex128),
    "R": np.array([_SQ2, -1.0j * _SQ2], dtype=np.complex128),
    "L": np.array([_SQ2, 1.0j * _SQ2], dtype=np.complex128),
}

_PAULIS = (
    np.eye(2, dtype=np.complex128),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)

# The 16 two-qubit Pauli products, index 4 * i + j for sigma_i (x) sigma_j.
_PAULI_BASIS = np.array([np.kron(si, sj) for si in _PAULIS for sj in _PAULIS])


def _pauli_terms() -> np.ndarray:
    """The ``(4, 32)`` table of the terms of each float of a Pauli sum's ``(4, 4)`` matrix.

    Float ``f`` is the real (even ``f``) or imaginary part of entry
    ``f // 2`` in C order.  Every Pauli product's entries are ``0``,
    ``+-1`` or ``+-i``, so column ``f`` lists the ``k`` whose product has a
    nonzero part ``f``, in ascending ``k``: ``k`` for ``+1`` and ``16 + k``
    for ``-1``.  A float has no, two or four such terms, and ``32``, a zero,
    fills the slots it leaves.
    """
    parts = _PAULI_BASIS.reshape(16, 16).view(np.float64)
    table = np.full((4, 32), 32)
    for f, part in enumerate(parts.T):
        k = np.flatnonzero(part)
        table[: k.size, f] = np.where(part[k] > 0.0, k, k + 16)
    return table


_PAULI_TERMS = _pauli_terms()

# Single-qubit Pauli expectations <k|sigma_i|k> per analyzer label.
_STOKES_VECTORS = {
    label: np.array([float((ket.conj() @ (s @ ket)).real) for s in _PAULIS])
    for label, ket in _KETS.items()
}


class RankDeficient(EbrsimError):
    """The measurement settings do not span the 16-dimensional operator space."""


class UnusableCounts(EbrsimError, ValueError):
    """The counts fix no count scale, or no physical state survives the projection."""


@dataclass(frozen=True)
class Counts:
    """Coincidence counts as columns, one entry per analyzer pair.

    ``settings`` is a tuple of ``(a, b)`` analyzer label pairs,
    ``expected_rate`` the float64 model projection probabilities and
    ``observed`` the integer registered triples, all in setting order.
    """

    settings: tuple[tuple[str, str], ...]
    expected_rate: np.ndarray
    observed: np.ndarray


def standard_settings(minimal: bool = False) -> tuple[tuple[str, str], ...]:
    """Deterministically ordered analyzer pairs ``(a, b)``.

    The default overcomplete scheme runs all 36 pairs of the six Stokes
    analyzers; ``minimal=True`` selects the 16-setting subset that is
    just informationally complete.
    """
    labels = MINIMAL_LABELS if minimal else STOKES_LABELS
    return tuple((a, b) for a in labels for b in labels)


def projector(label: str) -> np.ndarray:
    ket = _KETS[label]
    return np.outer(ket, ket.conj())


_PAIR_PROJECTORS = {
    (a, b): np.kron(projector(a), projector(b)) for a in _KETS for b in _KETS
}


@functools.lru_cache(maxsize=8)
def _projectors(settings: tuple[tuple[str, str], ...]) -> np.ndarray:
    """The read-only ``(len(settings), 4, 4)`` stack of ``P_a (x) P_b``, cached as the design is."""
    stack = np.array([_PAIR_PROJECTORS[s] for s in settings])
    stack.flags.writeable = False
    return stack


def _rates(matrix: np.ndarray, settings: Sequence[tuple[str, str]]) -> np.ndarray:
    """Projection probabilities ``Tr(rho P_a (x) P_b)`` of every setting, as one stacked product.

    Each rate has the bits of the one-setting product ``matrix @ P_a (x) P_b``
    and its diagonal sum, clamped at zero as ``max(rate, 0.0)`` clamps: a
    ``-0.0`` stays.
    """
    rates = np.trace(matrix[None] @ _projectors(tuple(settings)), axis1=1, axis2=2).real
    return np.where(rates < 0.0, 0.0, rates)


def simulate_counts(state, total_triples: float, seed: int, minimal: bool = False) -> Counts:
    """Poissonian coincidence counts for every analyzer setting.

    The budget is split evenly over settings; expected counts are
    ``4 * total_triples / n_settings * rate`` so that the expected grand
    total equals ``total_triples`` for the overcomplete scheme (whose
    rates average 1/4 for any state), and may not exceed
    ``MAX_EXPECTED_COUNT`` per setting.  The counts are one Poisson draw
    over all settings, in setting order, from ``default_rng(seed)``: the
    same numbers as one scalar draw per setting from that generator.
    ``state`` is array-like: a ``(4, 4)`` matrix of finite entries.
    """
    matrix = np.asarray(state, dtype=np.complex128)
    if matrix.shape != (4, 4):
        raise InvalidParameter(f"tomography expects a (4, 4) state, got shape {matrix.shape}")
    if not np.isfinite(matrix.view(np.float64)).all():
        raise InvalidParameter("state contains non-finite entries")
    if not (0.0 < total_triples < np.inf):
        raise InvalidParameter(
            f"total_triples must be positive and finite, got {total_triples!r}"
        )
    normalized, _ = unit_trace(matrix)
    settings = standard_settings(minimal)
    scale = 4.0 * float(total_triples) / len(settings)
    if scale > MAX_EXPECTED_COUNT:
        raise InvalidParameter(
            f"total_triples {total_triples!r} exceeds {MAX_EXPECTED_COUNT!r} expected"
            f" counts per setting ({scale!r})"
        )
    rates = _rates(normalized, settings)
    return Counts(settings, rates, np.random.default_rng(seed).poisson(scale * rates))


@dataclass(frozen=True)
class TomographyResult:
    """Reconstructed physical state plus fit metadata.

    ``state`` is the fitted ``(4, 4)`` unit-trace state.
    ``scale`` is the fitted per-setting count normalization (the Pauli
    identity component), an estimate of ``4 * total / n_settings``.
    ``clipped_weight`` is the total negative eigenvalue mass removed by
    the projection onto physical states; large values signal starved
    statistics.
    """

    state: np.ndarray
    scale: float
    clipped_weight: float


@functools.lru_cache(maxsize=8)
def _design_matrix(settings: tuple[tuple[str, str], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rows map the 16 Pauli components ``s * S_ij`` to expected counts.

    Returns ``(design, pinv)``.  The few most recent setting orders are
    cached; the standard 16- and 36-setting schemes are the usual keys.
    """
    rows = []
    for a, b in settings:
        va = _STOKES_VECTORS[a]
        vb = _STOKES_VECTORS[b]
        rows.append(0.25 * np.outer(va, vb).reshape(-1))
    design = np.array(rows)
    if np.linalg.matrix_rank(design) < 16:
        raise RankDeficient(
            f"{len(settings)} settings span rank {np.linalg.matrix_rank(design)} < 16"
        )
    return design, np.linalg.pinv(design)


def _checked_settings(counts: Counts) -> tuple[tuple[str, str], ...]:
    """The record's settings as the design cache key, once its columns agree.

    Raises :class:`InvalidParameter` for columns of different lengths or a
    setting that is not a pair of known analyzer labels, and
    :class:`RankDeficient` for fewer than 16 settings.
    """
    settings = tuple(map(tuple, counts.settings))
    lengths = (len(settings), len(counts.expected_rate), len(counts.observed))
    if len(set(lengths)) > 1:
        raise InvalidParameter(f"counts columns (settings, rates, observed) differ: {lengths}")
    unknown = [s for s in settings if s not in _PAIR_PROJECTORS]
    if unknown:
        raise InvalidParameter(f"setting {unknown[0]!r} is not a pair of labels {STOKES_LABELS}")
    if len(settings) < 16:
        raise RankDeficient(f"need at least 16 settings, got {len(settings)}")
    return settings


def _pauli_sum(components: np.ndarray) -> np.ndarray:
    """The ``(n, 4, 4)`` stack ``sum_k components[:, k] S_k / 4`` of an ``(n, 16)`` array.

    One gather through ``_PAULI_TERMS`` takes each float's terms
    ``+-components[:, k]``, which are added onto ``+0.0`` in ascending
    ``k``.  Those are the additions, in order, of a loop that adds each
    whole ``components[:, k] S_k``: its other terms are zeros, and adding a
    zero leaves a sum that started at ``+0.0`` unchanged (such a sum is
    never ``-0.0``).  So for finite components the bits are the loop's,
    signed zeros included.
    """
    n = len(components)
    signed = np.concatenate((components, -components, np.zeros((n, 1))), axis=1)
    terms = signed[:, _PAULI_TERMS]  # (n, 4, 32), not in C order
    sums = np.ascontiguousarray(0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3])
    rho = sums.view(np.complex128).reshape(n, 4, 4)
    rho /= 4.0
    return rho


def _invert(
    settings: tuple[tuple[str, str], ...], counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruct every row of an ``(n, len(settings))`` counts array.

    Returns ``(states, scales, clipped)``: the ``(n, 4, 4)`` physical
    states, the fitted count scales and the clipped negative weights.
    The coefficients are one stacked ``pinv @ row`` product over all rows:
    each row goes through the same matrix-vector product as a one-row
    call, so its bits do not depend on the other rows.  Each unnormalized
    ``rho`` is then one gather of its Pauli coefficients (``_pauli_sum``),
    whose additions and their order keep the bits of a 16-term loop.
    Counts that fix no positive, finite scale raise
    :class:`UnusableCounts`, without a numpy warning where the product
    overflows.  The settings have passed ``_checked_settings``.
    """
    _, pinv = _design_matrix(settings)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.matmul(pinv, counts[:, :, None])[:, :, 0]
    scales = coeffs[:, 0]
    if not np.all(scales > 0.0):
        raise UnusableCounts("count totals too low to calibrate the measurement scale")
    if not np.isfinite(coeffs).all():
        raise UnusableCounts("counts too large for the linear inversion")
    rho = _pauli_sum(coeffs / scales[:, None])
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().swapaxes(-1, -2)))
    # 0.0 - sum rather than -sum: nothing clipped gives +0.0, not -0.0
    clipped = 0.0 - np.sum(np.minimum(vals, 0.0), axis=-1)
    vals = np.clip(vals, 0.0, None)
    totals = np.sum(vals, axis=-1)
    if np.any(totals <= 0.0):
        raise UnusableCounts("projection removed all weight; counts are unusable")
    weights = vals / totals[:, None]
    states = (vecs * weights[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return states, scales, clipped


def reconstruct(counts: Counts, background: float = 0.0) -> TomographyResult:
    """Linear inversion on Pauli expectations, then projection to physical states.

    Reads the record's ``settings`` and ``observed`` columns.  A constant
    ``background`` count (nonnegative and finite) is subtracted from every
    setting before inversion.  The count scale is fitted jointly with the
    state (it is the identity-component coefficient), so no separate
    calibration input is needed.  Raises :class:`InvalidParameter` for a
    malformed record (see ``_checked_settings``) and :class:`RankDeficient`
    when the settings do not determine all 16 Pauli components.
    """
    if not (0.0 <= background < np.inf):
        raise InvalidParameter(
            f"background must be nonnegative and finite, got {background!r}"
        )
    settings = _checked_settings(counts)
    observed = np.asarray(counts.observed, dtype=np.float64) - background
    states, scales, clipped = _invert(settings, observed[None])
    return TomographyResult(
        state=states[0],
        scale=float(scales[0]),
        clipped_weight=float(clipped[0]),
    )


@dataclass(frozen=True)
class UncertaintyReport:
    """Parametric-bootstrap spread of the derived quantities.

    ``probability`` tracks the fitted count scale relative to the point
    estimate, the quantity that carries the success-probability
    information in a counting experiment.
    """

    fidelity_mean: float
    fidelity_std: float
    concurrence_mean: float
    concurrence_std: float
    probability_mean: float
    probability_std: float
    trials: int


def _bootstrap_counts(expected: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """``(trials, len(expected))`` Poisson counts from one generator call.

    The generator is the first child of ``SeedSequence(seed)``, a stream
    apart from the ``default_rng(seed)`` that drew the observed counts.
    Rows are drawn in order, so the first ``k`` rows of any larger draw
    are the rows of a ``k``-trial draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return rng.poisson(expected, size=(trials, len(expected))).astype(float)


def error_bars(
    result: TomographyResult, counts: Counts, trials: int = 200, seed: int = 0
) -> UncertaintyReport:
    """Bootstrap spread around a fitted state.

    Each trial draws Poisson counts at the record's settings from the
    fitted model (state times fitted scale); the record's own counts are
    not read.  It re-runs the reconstruction, and records the fidelity
    to the point estimate, the concurrence, and the relative scale.  All
    trials' counts come from one draw (see ``_bootstrap_counts``), and
    all trials are reconstructed and evaluated as one stack; each row
    equals a one-trial reconstruction.  The fidelity is taken as
    ``fidelity(result.state, trial)``, which Uhlmann fidelity's symmetry
    allows, so the fitted state's square root is computed once rather
    than one root per trial.
    """
    if trials < 2:
        raise InvalidParameter(f"trials must be at least 2 for a spread, got {trials}")
    if trials > MAX_TRIALS:
        raise InvalidParameter(f"trials must be at most {MAX_TRIALS}, got {trials}")
    settings = _checked_settings(counts)
    expected = result.scale * _rates(result.state, settings)
    states, scales, _ = _invert(settings, _bootstrap_counts(expected, trials, seed))
    fidelities = fidelity(result.state, states)
    concurrences = concurrence(states).value
    probabilities = scales / result.scale
    return UncertaintyReport(
        fidelity_mean=float(np.mean(fidelities)),
        fidelity_std=float(np.std(fidelities, ddof=1)),
        concurrence_mean=float(np.mean(concurrences)),
        concurrence_std=float(np.std(concurrences, ddof=1)),
        probability_mean=float(np.mean(probabilities)),
        probability_std=float(np.std(probabilities, ddof=1)),
        trials=trials,
    )


_COUNTS_HEADER = ("setting_A", "setting_B", "expected_rate", "observed")


def counts_to_csv(counts: Counts) -> str:
    """Serialize a counts record; floats keep 17 significant digits, and no field needs quoting."""
    columns = (counts.settings, counts.expected_rate.tolist(), counts.observed.tolist())
    rows = (f"{a},{b},{rate:.17g},{n}\n" for (a, b), rate, n in zip(*columns, strict=True))
    return ",".join(_COUNTS_HEADER) + "\n" + "".join(rows)


def counts_from_csv(text: str) -> Counts:
    """Read what ``counts_to_csv`` writes into a :class:`Counts` record.

    An empty text, another header, a row that is not two labels, a number
    and an int64 count, and a negative count raise :class:`InvalidParameter`.
    Blank lines are skipped; the labels are checked where the record is used.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if tuple(header) != _COUNTS_HEADER:
        got = ",".join(header) or "an empty file"
        raise InvalidParameter(f"counts header must be {','.join(_COUNTS_HEADER)}, got {got}")
    rows = [row for row in reader if row]
    try:
        settings = tuple((a, b) for a, b, _, _ in rows)
        rates = np.array([float(row[2]) for row in rows])
        observed = np.array([int(row[3]) for row in rows], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise InvalidParameter(f"counts rows need two labels, a rate and a count: {exc}") from None
    if (observed < 0).any():
        raise InvalidParameter(f"counts must be nonnegative, got {observed.min()}")
    return Counts(settings, rates, observed)
