"""State algebra for small optical Hilbert spaces.

A state is a plain complex128 numpy array: ``(d, d)`` for one density
matrix and ``(n, d, d)`` for a stack of them.  Every function here and in
:mod:`ebrsim.metrics` computes on numpy's batch axes, so one state and a
stack run the same code.  A branch probability travels beside its state,
as the trace :func:`unit_trace` divides out, not inside it.

Basis convention for two polarization qubits: ``HH, HV, VH, VV``.
"""

from __future__ import annotations

import numpy as np

TWO_QUBIT_BASIS = ("HH", "HV", "VH", "VV")

# Branch weights at or below this floor count as impossible branches.
ZERO_TRACE_FLOOR = 1e-300


class EbrsimError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidParameter(EbrsimError, ValueError):
    """A caller-supplied value outside its documented domain."""


class ZeroTrace(EbrsimError):
    """Normalization was requested for an operator with (near-)zero trace."""


def require_lengths(*values) -> None:
    """Raise ``InvalidParameter`` unless the 1-D columns among ``values`` have one length or 1."""
    lengths = sorted({np.shape(v)[0] for v in values if np.ndim(v) == 1} - {1})
    if len(lengths) > 1:
        raise InvalidParameter(f"columns must have one length, got lengths {lengths}")


def columns(*values) -> tuple[list[np.ndarray], bool]:
    """The values as equal-length 1-D float64 columns, and whether all were scalars.

    Scalars and one-element columns broadcast against the columns, so a
    call with scalars only gives length-1 columns: the Fock oracle
    evaluates a single point as a one-element column and unwraps the
    result, while the closed-form doors keep a point on Python floats and
    call this only for columns.  Values that already are such columns pass
    as they are.
    Columns of two other lengths raise :class:`InvalidParameter`.
    """
    shape = getattr(values[0], "shape", None)
    if shape is not None and len(shape) == 1 and all(
        isinstance(v, np.ndarray) and v.shape == shape and v.dtype == np.float64 for v in values
    ):
        return list(values), False
    arrays = [np.asarray(v, dtype=np.float64) for v in values]
    shapes = {a.shape for a in arrays}
    if any(len(shape) > 1 for shape in shapes):
        raise InvalidParameter("expected floats or 1-D columns")
    if len(shapes) > 1:
        require_lengths(*arrays)
        shape = max(shapes)  # the longest of (), (1,) and (n,)
        # the wrap, the prescription and float stage calls broadcast floats: np.full is cheapest
        arrays = [a if a.shape == shape else np.full(shape, a) for a in arrays]
    return [a.reshape(-1) for a in arrays], arrays[0].ndim == 0


def unchecked(cls, **fields):
    """A ``cls`` dataclass of values that were checked already, built without its checks.

    Every field is given by name, so a field added to ``cls`` cannot be left unset.
    """
    if fields.keys() != cls.__dataclass_fields__.keys():
        raise TypeError(f"{cls.__name__} needs the fields {list(cls.__dataclass_fields__)}")
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def require(ok, values, message: str, *more, error: type[Exception] = InvalidParameter) -> None:
    """Raise ``error(message.format(v, *w))`` at the first point where ``ok`` fails.

    The one first-failure check: a single point and a whole column run the
    same statements.  On a point of Python floats ``ok`` is a bool, and the
    check makes no numpy call: floats stay floats.  On columns ``ok`` is a
    bool column, checked by one reduction, and the message names the first
    failing point.  ``v`` is ``values`` and each ``w`` one of ``more`` at that
    point, as a float, so a point and a column row fail with the same text.
    The values are floats or columns that broadcast against ``ok``.
    """
    if ok is True:
        return
    if type(ok) is not bool:
        ok = np.asarray(ok).reshape(-1)
        if np.count_nonzero(ok) == ok.size:
            return
        k = np.argmin(ok)
        values, *more = (np.broadcast_to(np.asarray(v, dtype=np.float64), ok.shape)[k]
                         for v in (values, *more))
    raise error(message.format(float(values), *map(float, more)))


def unit_trace(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale every matrix of a ``(..., d, d)`` array to unit trace.

    Returns ``(rescaled, traces)``, the traces in the leading shape: a
    numpy scalar for one ``(d, d)`` matrix.  Raises :class:`ZeroTrace`
    when any trace has collapsed to zero.
    """
    weights = np.trace(matrices, axis1=-2, axis2=-1).real
    if np.any(weights <= ZERO_TRACE_FLOOR):
        raise ZeroTrace(f"cannot normalize operator with trace {float(np.min(weights))!r}")
    return matrices / weights[..., None, None], weights


def singlet_vector() -> np.ndarray:
    """Polarization singlet ``(|HV> - i|VH>)/sqrt(2)`` produced by the source."""
    return np.array([0.0, 1.0, -1.0j, 0.0], dtype=np.complex128) / np.sqrt(2.0)


def pure_state(vector) -> np.ndarray:
    """Unit-trace projector ``|v><v|`` onto the normalized ket."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot build a state from the zero vector")
    v = v / norm
    return np.outer(v, v.conj())


def maximally_mixed(dim: int = 4) -> np.ndarray:
    """Unpolarized state ``I/dim``."""
    return np.eye(dim, dtype=np.complex128) / dim


def json_obj(rho: np.ndarray) -> dict:
    """The JSON document of a ``(d, d)`` unit-trace state, with ``[re, im]`` entry pairs, as a dict.

    Every state written has unit trace, so ``trace_weight`` is the constant
    ``1.0``.  Python's JSON float formatting is shortest-roundtrip decimal,
    so ``json.loads(json.dumps(...))`` recovers the identical binary entries.
    """
    obj: dict = {"dim": len(rho)}
    if len(rho) == 4:
        obj["basis"] = list(TWO_QUBIT_BASIS)
    obj["trace_weight"] = 1.0
    obj["matrix"] = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return obj

