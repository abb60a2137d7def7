"""Density-operator algebra for small optical Hilbert spaces.

Operators are plain complex128 numpy matrices carried together with a
``trace_weight``, the trace the matrix is supposed to have.  Keeping
unnormalized operators first-class lets post-selection and filtering
probabilities compose by plain multiplication: every pipeline stage can
hand back both a conditional state and the weight of the branch that
produced it.

Basis convention for two polarization qubits: ``HH, HV, VH, VV``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TWO_QUBIT_BASIS = ("HH", "HV", "VH", "VV")

TOL_HERMITIAN = 1e-12
TOL_POSITIVITY = 1e-10
TOL_TRACE = 1e-12

# Branch weights at or below this floor count as impossible branches.
ZERO_TRACE_FLOOR = 1e-300


class EbrsimError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidParameter(EbrsimError, ValueError):
    """A caller-supplied value outside its documented domain."""


class ZeroTrace(EbrsimError):
    """Normalization was requested for an operator with (near-)zero trace."""


def _as_complex_matrix(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m.view(np.float64)).all():
        raise ValueError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class DensityOperator:
    """A (possibly unnormalized) Hermitian operator plus its claimed trace.

    ``trace_weight`` is the probability weight of the branch the operator
    describes.  A normalized state has ``trace_weight == 1``.  The
    constructor does not reject unphysical matrices; use :func:`validate`
    to obtain a diagnostics report.
    """

    matrix: np.ndarray
    trace_weight: float

    def __init__(self, matrix, trace_weight: float | None = None):
        m = _as_complex_matrix(matrix)
        if trace_weight is None:
            trace_weight = float(np.trace(m).real)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "trace_weight", float(trace_weight))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, vector, weight: float = 1.0) -> "DensityOperator":
        """Rank-one operator ``weight * |v><v|`` from a normalized ket."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("cannot build a state from the zero vector")
        v = v / norm
        return cls(weight * np.outer(v, v.conj()), trace_weight=weight)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Numerical health check of a :class:`DensityOperator`."""

    hermiticity_residual: float
    min_eigenvalue: float
    trace_deviation: float
    hermitian: bool
    positive: bool
    trace_consistent: bool

    @property
    def ok(self) -> bool:
        return self.hermitian and self.positive and self.trace_consistent


def validate(rho: DensityOperator) -> DiagnosticsReport:
    """Report hermiticity, positivity and trace consistency.

    Never raises: callers decide what to do with a failed check.
    Positivity is judged on the Hermitian part, with eigenvalues allowed
    to dip to ``-TOL_POSITIVITY`` to absorb round-off.
    """
    m = rho.matrix
    herm_residual = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    herm_part = 0.5 * (m + m.conj().T)
    min_eig = float(np.min(np.linalg.eigvalsh(herm_part))) if m.size else 0.0
    trace_dev = float(abs(np.trace(m) - rho.trace_weight))
    return DiagnosticsReport(
        hermiticity_residual=herm_residual,
        min_eigenvalue=min_eig,
        trace_deviation=trace_dev,
        hermitian=herm_residual <= TOL_HERMITIAN,
        positive=min_eig >= -TOL_POSITIVITY,
        trace_consistent=trace_dev <= TOL_TRACE,
    )


def apply_local(rho: DensityOperator, k_a: np.ndarray, k_b: np.ndarray) -> DensityOperator:
    """Apply a product operator ``(K_A (x) K_B) rho (K_A (x) K_B)^dag``.

    The result is left unnormalized; its trace weight is the branch
    weight after the (generally trace-decreasing) local operation.
    """
    ka = _as_complex_matrix(k_a)
    kb = _as_complex_matrix(k_b)
    if ka.shape[0] * kb.shape[0] != rho.dim:
        raise ValueError(
            f"local operators of dims {ka.shape[0]}x{kb.shape[0]} do not match dim {rho.dim}"
        )
    # np.kron(ka, kb) by broadcasting: the same products, a fraction of the call cost
    k = (ka[:, None, :, None] * kb[None, :, None, :]).reshape(rho.dim, rho.dim)
    out = k @ rho.matrix @ k.conj().T
    return DensityOperator(out, float(np.trace(out).real))


def normalize(rho: DensityOperator) -> tuple[DensityOperator, float]:
    """Rescale to unit trace; return ``(state, probability)``.

    The probability is the incoming ``trace_weight``.  Raises
    :class:`ZeroTrace` when the branch weight has collapsed to zero.
    """
    matrices, weights = unit_trace(rho.matrix[None])
    return DensityOperator(matrices[0], 1.0), float(weights[0])


def unit_trace(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale every matrix of an ``(n, d, d)`` stack to unit trace.

    Returns ``(rescaled, traces)``.  Raises :class:`ZeroTrace` when any
    trace has collapsed to zero.
    """
    weights = np.trace(matrices, axis1=1, axis2=2).real
    if np.any(weights <= ZERO_TRACE_FLOOR):
        raise ZeroTrace(f"cannot normalize operator with trace {float(np.min(weights))!r}")
    return matrices / weights[:, None, None], weights


def singlet_vector() -> np.ndarray:
    """Polarization singlet ``(|HV> - i|VH>)/sqrt(2)`` produced by the source."""
    return np.array([0.0, 1.0, -1.0j, 0.0], dtype=np.complex128) / np.sqrt(2.0)


def maximally_mixed(dim: int = 4) -> DensityOperator:
    """Unpolarized state ``I/dim``."""
    return DensityOperator(np.eye(dim, dtype=np.complex128) / dim, 1.0)


def to_json(rho: DensityOperator, indent: int | None = None) -> str:
    """Serialize with ``[re, im]`` entry pairs; round-trips bit exactly.

    Python's JSON float formatting is shortest-roundtrip decimal, so
    ``json.loads`` recovers the identical binary entries.
    """
    obj: dict = {"dim": rho.dim}
    if rho.dim == 4:
        obj["basis"] = list(TWO_QUBIT_BASIS)
    obj["trace_weight"] = rho.trace_weight
    obj["matrix"] = [
        [[float(z.real), float(z.imag)] for z in row] for row in rho.matrix
    ]
    return json.dumps(obj, indent=indent)
