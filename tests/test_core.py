import importlib
import json
import sys

import numpy as np
import pytest

import ebrsim
from ebrsim import (
    ChannelConfig,
    FilterPair,
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
    EbrsimError,
    ZeroTrace,
    columns,
    json_obj,
    maximally_mixed,
    pure_state,
    singlet_vector,
    unchecked,
    unit_trace,
)


def test_pure_state_normalizes_the_ket():
    rho = pure_state([2.0, 0.0])
    assert type(rho) is np.ndarray and rho.dtype == np.complex128
    assert np.array_equal(rho, [[1.0, 0], [0, 0]])
    with pytest.raises(ValueError, match="zero vector"):
        pure_state([0.0, 0.0])


def test_singlet_vector_entries():
    v = singlet_vector()
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert v[0] == 0 and v[3] == 0
    # HV and VH amplitudes with relative phase -i
    assert v[2] / v[1] == pytest.approx(-1j)


def test_normalize_reports_the_matrix_trace():
    matrix, prob = unit_trace(np.eye(2, dtype=np.complex128) / 2)
    assert prob == 1.0
    assert np.array_equal(matrix, np.eye(2) / 2)


def test_normalize_zero_trace_raises():
    with pytest.raises(ZeroTrace):
        unit_trace(np.zeros((4, 4), dtype=np.complex128))


def test_maximally_mixed_is_isotropic():
    m = maximally_mixed(4)
    assert type(m) is np.ndarray and m.dtype == np.complex128
    assert np.allclose(m, np.eye(4) / 4)
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -1e-10
    assert abs(np.trace(m) - 1.0) <= 1e-12


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = m @ m.conj().T
    rho = m / np.trace(m).real
    doc = json.loads(json.dumps(json_obj(rho)))
    pairs = np.array(doc["matrix"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], rho)
    # every state written has unit trace, so the key is a constant
    assert doc["trace_weight"] == 1.0


def test_json_declares_polarization_basis():
    doc = json.loads(json.dumps(json_obj(maximally_mixed(4))))
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


def test_every_export_resolves():
    assert len(set(ebrsim.__all__)) == len(ebrsim.__all__)
    for name in ebrsim.__all__:
        getattr(ebrsim, name)  # AttributeError names a stale export
    namespace = {}
    exec("from ebrsim import *", namespace)
    assert all(namespace[name] is getattr(ebrsim, name) for name in ebrsim.__all__)


@pytest.mark.parametrize("name", ["fock", "g17", "tomography"])
def test_deferred_module_is_the_imported_one(name):
    module = importlib.import_module(f"ebrsim.{name}")
    assert getattr(ebrsim, name) is module is sys.modules[f"ebrsim.{name}"]


def test_deferred_exports_are_the_module_attributes():
    assert ebrsim.oracle_check is ebrsim.fock.oracle_check
    assert ebrsim.Counts is ebrsim.tomography.Counts
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ebrsim.no_such_name


def test_columns_pass_float_columns_through():
    a, b = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    given, scalar = columns(a, b)
    assert given[0] is a and given[1] is b and not scalar
    (x, y), scalar = columns(0.5, b)  # a float broadcasts against the column
    assert x.tolist() == [0.5, 0.5] and y.tolist() == [0.3, 0.4] and not scalar
    (x,), scalar = columns(0.5)
    assert x.tolist() == [0.5] and scalar


def test_columns_of_two_lengths_raise_a_typed_error():
    with pytest.raises(InvalidParameter, match=r"one length, got lengths \[2, 3\]"):
        columns(np.array([0.1, 0.2]), 0.5, np.array([0.1, 0.2, 0.3]))
    # a one-element column broadcasts, as a float does
    (x, y), scalar = columns(np.array([0.5]), np.array([0.1, 0.2, 0.3]))
    assert x.tolist() == [0.5] * 3 and y.tolist() == [0.1, 0.2, 0.3] and not scalar


def test_unchecked_needs_every_field():
    # the checks are skipped: FilterPair(2.0, 0.5) would raise
    pair = unchecked(FilterPair, a_a=2.0, a_b=0.5)
    assert type(pair) is FilterPair and (pair.a_a, pair.a_b) == (2.0, 0.5)
    with pytest.raises(TypeError):
        unchecked(FilterPair, a_a=0.5)
