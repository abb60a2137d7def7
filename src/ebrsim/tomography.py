"""Simulated two-qubit polarization tomography with Poissonian counting.

The measurement model follows coincidence counting practice: each product
of single-photon analyzer settings is held for an equal share of the
count budget, the registered triples are Poisson distributed around the
state's projection probability, and the state is recovered by linear
inversion on Pauli expectations followed by a projection back onto the
physical (positive, unit-trace) set.  Error bars come from a parametric
bootstrap around the fitted state.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import DensityOperator, EbrsimError, InvalidParameter, normalize
from .metrics import concurrence, fidelity

# Largest expected count per setting: numpy's Poisson sampler rejects a
# mean near 1e19 ("lam value too large"), and 9.2e18 still draws.
MAX_EXPECTED_COUNT = 1e18

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

# Single-qubit Pauli expectations <k|sigma_i|k> per analyzer label.
_STOKES_VECTORS = {
    label: np.array([float((ket.conj() @ (s @ ket)).real) for s in _PAULIS])
    for label, ket in _KETS.items()
}


class RankDeficient(EbrsimError):
    """The measurement settings do not span the 16-dimensional operator space."""


class TomographySetting(NamedTuple):
    setting_a: str
    setting_b: str


@dataclass(frozen=True)
class CountRecord:
    """One analyzer pair with its model rate and registered triples."""

    setting_a: str
    setting_b: str
    expected_rate: float
    observed: int


def standard_settings(minimal: bool = False) -> list[TomographySetting]:
    """Deterministically ordered analyzer pairs.

    The default overcomplete scheme runs all 36 pairs of the six Stokes
    analyzers; ``minimal=True`` selects the 16-setting subset that is
    just informationally complete.
    """
    labels = MINIMAL_LABELS if minimal else STOKES_LABELS
    return [TomographySetting(a, b) for a in labels for b in labels]


def projector(label: str) -> np.ndarray:
    ket = _KETS[label]
    return np.outer(ket, ket.conj())


_PAIR_PROJECTORS = {
    (a, b): np.kron(projector(a), projector(b)) for a in _KETS for b in _KETS
}


def setting_rate(state: DensityOperator, setting: TomographySetting) -> float:
    """Projection probability ``Tr(rho P_a (x) P_b)`` for one analyzer pair."""
    pi = _PAIR_PROJECTORS[setting.setting_a, setting.setting_b]
    return max(float(np.trace(state.matrix @ pi).real), 0.0)


def simulate_counts(
    state: DensityOperator,
    total_triples: float,
    seed: int,
    minimal: bool = False,
    settings: Sequence[TomographySetting] | None = None,
) -> list[CountRecord]:
    """Poissonian coincidence counts for every analyzer setting.

    The budget is split evenly over settings; expected counts are
    ``4 * total_triples / n_settings * rate`` so that the expected grand
    total equals ``total_triples`` for the overcomplete scheme (whose
    rates average 1/4 for any state), and may not exceed
    ``MAX_EXPECTED_COUNT`` per setting.  Deterministic for a given seed.
    """
    if state.dim != 4:
        raise InvalidParameter(f"tomography expects a two-qubit state, got dim {state.dim}")
    if not (0.0 < total_triples < np.inf):
        raise InvalidParameter(
            f"total_triples must be positive and finite, got {total_triples!r}"
        )
    normalized, _ = normalize(state)
    if settings is None:
        settings = standard_settings(minimal)
    scale = 4.0 * float(total_triples) / len(settings)
    if scale > MAX_EXPECTED_COUNT:
        raise InvalidParameter(
            f"total_triples {total_triples!r} exceeds {MAX_EXPECTED_COUNT!r} expected"
            f" counts per setting ({scale!r})"
        )
    rng = np.random.default_rng(seed)
    records = []
    for setting in settings:
        rate = setting_rate(normalized, setting)
        observed = int(rng.poisson(scale * rate))
        records.append(
            CountRecord(
                setting_a=setting.setting_a,
                setting_b=setting.setting_b,
                expected_rate=rate,
                observed=observed,
            )
        )
    return records


@dataclass(frozen=True)
class TomographyResult:
    """Reconstructed physical state plus fit metadata.

    ``scale`` is the fitted per-setting count normalization (the Pauli
    identity component), an estimate of ``4 * total / n_settings``.
    ``clipped_weight`` is the total negative eigenvalue mass removed by
    the projection onto physical states; large values signal starved
    statistics.
    """

    state: DensityOperator
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


def _invert(
    settings: tuple[tuple[str, str], ...], counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruct every row of an ``(n, len(settings))`` counts array.

    Returns ``(states, scales, clipped)``: the ``(n, 4, 4)`` physical
    states, the fitted count scales and the clipped negative weights.
    The coefficients are one ``pinv @ row`` product per row, which keeps
    every row's arithmetic identical to a one-row call.
    """
    if len(settings) < 16:
        raise RankDeficient(f"need at least 16 settings, got {len(settings)}")
    _, pinv = _design_matrix(settings)
    coeffs = np.array([pinv @ row for row in counts])
    scales = coeffs[:, 0]
    if np.any(scales <= 0.0):
        raise ValueError("count totals too low to calibrate the measurement scale")
    pauli_components = coeffs / scales[:, None]
    rho = np.zeros((len(counts), 4, 4), dtype=np.complex128)
    for k in range(16):
        rho += pauli_components[:, k, None, None] * _PAULI_BASIS[k]
    rho /= 4.0
    vals, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().swapaxes(-1, -2)))
    # 0.0 - sum rather than -sum: nothing clipped gives +0.0, not -0.0
    clipped = 0.0 - np.sum(np.minimum(vals, 0.0), axis=-1)
    vals = np.clip(vals, 0.0, None)
    totals = np.sum(vals, axis=-1)
    if np.any(totals <= 0.0):
        raise ValueError("projection removed all weight; counts are unusable")
    weights = vals / totals[:, None]
    states = (vecs * weights[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    return states, scales, clipped


def reconstruct(records: Sequence[CountRecord], background: float = 0.0) -> TomographyResult:
    """Linear inversion on Pauli expectations, then projection to physical states.

    A constant ``background`` count (nonnegative and finite) is
    subtracted from every setting before inversion.  The count scale is
    fitted jointly with the state (it is the identity-component
    coefficient), so no separate calibration input is needed.  Raises
    :class:`RankDeficient` when the settings do not determine all 16
    Pauli components.
    """
    if not (0.0 <= background < np.inf):
        raise InvalidParameter(
            f"background must be nonnegative and finite, got {background!r}"
        )
    settings = tuple((r.setting_a, r.setting_b) for r in records)
    counts = np.array([[float(r.observed) - background for r in records]])
    states, scales, clipped = _invert(settings, counts)
    return TomographyResult(
        state=DensityOperator(states[0], 1.0),
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


def error_bars(
    result: TomographyResult,
    records: Sequence[CountRecord],
    trials: int = 200,
    seed: int = 0,
) -> UncertaintyReport:
    """Bootstrap spread around a fitted state.

    Each trial draws Poisson counts from the fitted model (state times
    fitted scale), re-runs the reconstruction, and records the fidelity
    to the point estimate, the concurrence, and the relative scale.
    Trial ``b`` uses the RNG stream seeded by ``(seed, b)``, so results
    do not depend on evaluation order.  All trials are reconstructed and
    evaluated as one stack; each row equals a one-trial reconstruction.
    """
    if trials < 2:
        raise InvalidParameter(f"trials must be at least 2 for a spread, got {trials}")
    settings = tuple(TomographySetting(r.setting_a, r.setting_b) for r in records)
    expected = np.array(
        [result.scale * setting_rate(result.state, s) for s in settings]
    )
    counts = np.array(
        [np.random.default_rng([seed, b]).poisson(expected) for b in range(trials)],
        dtype=float,
    )
    states, scales, _ = _invert(settings, counts)
    fidelities = fidelity(states, result.state)
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


def counts_to_csv(records: Iterable[CountRecord]) -> str:
    """Serialize count records; floats keep 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COUNTS_HEADER)
    for r in records:
        writer.writerow([r.setting_a, r.setting_b, f"{r.expected_rate:.17g}", r.observed])
    return buf.getvalue()


def counts_from_csv(text: str) -> list[CountRecord]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != _COUNTS_HEADER:
        raise ValueError(f"unexpected counts header: {header!r}")
    return [
        CountRecord(row[0], row[1], float(row[2]), int(row[3]))
        for row in reader
        if row
    ]
