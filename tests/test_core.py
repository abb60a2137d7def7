import json

import numpy as np
import pytest

from ebrsim import (
    ChannelConfig,
    InvalidParameter,
    XStateParams,
    breaking_threshold,
    distinguishable,
    evolve_bs,
    partial,
    prepare_input,
    simulate_counts,
)
from ebrsim.core import (
    TWO_QUBIT_BASIS,
    DensityOperator,
    EbrsimError,
    ZeroTrace,
    apply_local,
    maximally_mixed,
    normalize,
    singlet_vector,
    to_json,
    validate,
)


def test_trace_weight_inferred_from_matrix():
    rho = DensityOperator(np.diag([0.25, 0.75]))
    assert rho.trace_weight == pytest.approx(1.0)
    assert rho.dim == 2


def test_explicit_trace_weight_is_kept():
    rho = DensityOperator(np.diag([0.1, 0.1]), trace_weight=0.2)
    assert rho.trace_weight == 0.2


def test_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        DensityOperator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        DensityOperator(np.array([[np.inf, 0], [0, 1]]))


def test_from_pure_normalizes_the_ket():
    rho = DensityOperator.from_pure([2.0, 0.0], weight=0.5)
    assert np.allclose(rho.matrix, [[0.5, 0], [0, 0]])
    assert rho.trace_weight == 0.5
    with pytest.raises(ValueError):
        DensityOperator.from_pure([0.0, 0.0])


def test_constructor_accepts_unphysical_matrices():
    # validation is deferred: diagnostics flag the problems instead
    rho = DensityOperator(np.array([[1.0, 1.0], [0.0, 1.0]]), trace_weight=1.0)
    report = validate(rho)
    assert not report.hermitian
    assert not report.ok


def test_validate_flags_negative_eigenvalue():
    rho = DensityOperator(np.diag([1.5, -0.5]), trace_weight=1.0)
    report = validate(rho)
    assert report.hermitian
    assert not report.positive
    assert report.min_eigenvalue == pytest.approx(-0.5)


def test_validate_flags_trace_mismatch():
    rho = DensityOperator(np.eye(2) / 2, trace_weight=0.7)
    report = validate(rho)
    assert not report.trace_consistent
    assert report.trace_deviation == pytest.approx(0.3)


def test_validate_accepts_singlet():
    rho = DensityOperator.from_pure(singlet_vector())
    report = validate(rho)
    assert report.ok
    assert report.min_eigenvalue >= -1e-12


def test_singlet_vector_entries():
    v = singlet_vector()
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert v[0] == 0 and v[3] == 0
    # HV and VH amplitudes with relative phase -i
    assert v[2] / v[1] == pytest.approx(-1j)


def test_apply_local_filter_weight():
    rho = DensityOperator.from_pure(singlet_vector())
    k = np.diag([1.0, np.sqrt(0.5)])
    filtered = apply_local(rho, k, np.eye(2))
    # V on Alice carries half the singlet weight, so it loses 0.25
    assert filtered.trace_weight == pytest.approx(0.75)
    state, prob = normalize(filtered)
    assert prob == pytest.approx(0.75)
    assert np.trace(state.matrix).real == pytest.approx(1.0)


def test_apply_local_dimension_check():
    rho = maximally_mixed(4)
    with pytest.raises(ValueError):
        apply_local(rho, np.eye(3), np.eye(2))


def test_normalize_zero_trace_raises():
    with pytest.raises(ZeroTrace):
        normalize(DensityOperator(np.zeros((4, 4)), trace_weight=0.0))


def test_maximally_mixed_is_isotropic():
    rho = maximally_mixed(4)
    assert np.allclose(rho.matrix, np.eye(4) / 4)
    assert validate(rho).ok


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = m @ m.conj().T
    rho = DensityOperator(m, trace_weight=float(np.trace(m).real))
    doc = json.loads(to_json(rho))
    pairs = np.array(doc["matrix"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], rho.matrix)
    assert doc["trace_weight"] == rho.trace_weight


def test_json_declares_polarization_basis():
    doc = json.loads(to_json(maximally_mixed(4)))
    assert doc["basis"] == list(TWO_QUBIT_BASIS)
    assert doc["dim"] == 4


@pytest.mark.parametrize(
    "call",
    [
        lambda: partial(1.5),
        lambda: ChannelConfig(scenario=distinguishable(), T=2.0),
        lambda: simulate_counts(maximally_mixed(4), total_triples=0, seed=0),
        lambda: evolve_bs(prepare_input(distinguishable(), "H"), 1.5),
        lambda: breaking_threshold(distinguishable(), "IV"),
    ],
    ids=["protocol", "channel", "tomography", "fock", "metrics"],
)
def test_out_of_domain_arguments_raise_invalid_parameter(call):
    with pytest.raises(InvalidParameter) as info:
        call()
    assert isinstance(info.value, EbrsimError)
    assert isinstance(info.value, ValueError)


def test_internal_inconsistency_is_not_invalid_parameter():
    with pytest.raises(ValueError) as info:
        XStateParams(alpha=-1.0, beta=1.0, gamma=1.0, delta=1.0, xi=0.0, P=0.5)
    assert not isinstance(info.value, InvalidParameter)
