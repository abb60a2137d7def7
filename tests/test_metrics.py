import math
from typing import Callable

import numpy as np
import pytest

from ebrsim.core import DensityOperator, InvalidParameter, maximally_mixed, singlet_vector
from ebrsim.metrics import (
    NoThreshold,
    NotTwoQubit,
    XStateParams,
    assemble,
    breaking_threshold,
    concurrence,
    concurrence_x,
    fidelity,
    normalized_state,
    werner_decompose,
)
from ebrsim.protocol import distinguishable, indistinguishable, partial, stage1, stage2


def crossing_threshold(
    value_of_t: Callable[[float], float],
    grid_step: float = 0.01,
    tol: float = 1e-9,
) -> float:
    """Largest ``T`` at which ``value_of_t`` is still zero before turning positive.

    Scans the open grid ``(0, 1)`` with ``grid_step``, brackets the last
    zero-to-positive transition, then bisects to ``|dT| <= tol``.
    """
    grid = [grid_step * k for k in range(1, int(round(1.0 / grid_step)))]
    values = [value_of_t(t) for t in grid]
    bracket = None
    for lo, hi, vlo, vhi in zip(grid, grid[1:], values, values[1:]):
        if vlo <= 0.0 < vhi:
            bracket = (lo, hi)
    if bracket is None:
        raise NoThreshold("concurrence has no zero-to-positive crossing on the grid")
    lo, hi = bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if value_of_t(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def x_params(alpha, beta, gamma, delta, xi):
    return XStateParams(
        alpha=alpha, beta=beta, gamma=gamma, delta=delta, xi=xi,
        P=(alpha + beta + gamma + delta) / 4.0,
    )


def random_x_params(rng):
    d = rng.uniform(0.0, 1.0, size=4)
    xi = rng.uniform(-1.0, 1.0) * math.sqrt(d[1] * d[2])
    return x_params(d[0], d[1], d[2], d[3], xi)


def random_states(rng, n):
    """Random two-qubit states of rank 1-4, plus three exact special states."""
    mats = []
    for i in range(n):
        g = rng.normal(size=(4, i % 4 + 1)) + 1j * rng.normal(size=(4, i % 4 + 1))
        m = g @ g.conj().T
        mats.append(m / np.trace(m).real)
    psi = singlet_vector()
    mats += [np.outer(psi, psi.conj()), np.eye(4) / 4, np.diag([1.0, 0.0, 0.0, 0.0])]
    return np.array(mats, dtype=np.complex128)


class TestXStateParams:
    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match="nonnegative"):
            x_params(-0.1, 0.5, 0.5, 0.1, 0.0)

    def test_rejects_oversized_coherence(self):
        with pytest.raises(ValueError, match="exceeds"):
            x_params(0.0, 0.5, 0.5, 0.0, 0.51)

    def test_rejects_trace_mismatch(self):
        with pytest.raises(ValueError, match="4P"):
            XStateParams(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, xi=0.0, P=0.5)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError, match="P must"):
            XStateParams(alpha=0.0, beta=0.0, gamma=0.0, delta=0.0, xi=0.0, P=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "delta", "xi", "P"])
    def test_rejects_non_finite_entry(self, name, value):
        entries = dict(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, xi=0.0, P=1.0)
        entries[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite") as info:
            XStateParams(**entries)
        assert not isinstance(info.value, InvalidParameter)

    def test_from_operator_rejects_overflowing_entry(self):
        # finite matrix, but 4 * 1e308 overflows to inf
        rho = DensityOperator(np.diag([1e308, 0.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="alpha must be finite"):
            XStateParams.from_operator(rho)

    def test_signed_coherence_is_allowed(self):
        # indistinguishable-scenario outputs carry xi of either sign
        p = x_params(0.2, 0.5, 0.5, 0.2, -0.3)
        assert p.xi == -0.3

    def test_assemble_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_x_params(rng)
            # branch operator: the assembled matrix carries trace 4P
            branch = DensityOperator(assemble(p) / 4.0, p.P)
            q = XStateParams.from_operator(branch)
            assert q.alpha == pytest.approx(p.alpha, abs=1e-14)
            assert q.beta == pytest.approx(p.beta, abs=1e-14)
            assert q.gamma == pytest.approx(p.gamma, abs=1e-14)
            assert q.delta == pytest.approx(p.delta, abs=1e-14)
            assert q.xi == pytest.approx(p.xi, abs=1e-14)
            assert q.P == pytest.approx(p.P, abs=1e-14)

    def test_from_operator_rejects_stray_entries(self):
        m = assemble(x_params(0.2, 0.5, 0.5, 0.2, 0.1)) / 4.0
        m[0, 3] = 1e-6
        with pytest.raises(ValueError, match="X-shaped"):
            XStateParams.from_operator(DensityOperator(m))

    def test_from_operator_rejects_real_coherence(self):
        m = assemble(x_params(0.2, 0.5, 0.5, 0.2, 0.0)) / 4.0
        m[1, 2] = 0.05
        m[2, 1] = 0.05
        with pytest.raises(ValueError, match="imaginary"):
            XStateParams.from_operator(DensityOperator(m))

    def test_from_operator_requires_two_qubits(self):
        with pytest.raises(NotTwoQubit):
            XStateParams.from_operator(maximally_mixed(2))


def test_transparent_channel_is_the_source_singlet():
    # stage I at T = 1: alpha = delta = 0, xi = -2, nothing reflected
    p = XStateParams(alpha=0.0, beta=2.0, gamma=2.0, delta=0.0, xi=-2.0, P=1.0)
    state = normalized_state(p)
    target = DensityOperator.from_pure(singlet_vector())
    assert np.allclose(state.matrix, target.matrix, atol=1e-14)
    assert concurrence_x(p) == pytest.approx(1.0)


class TestConcurrence:
    def test_singlet_is_maximally_entangled(self):
        res = concurrence(DensityOperator.from_pure(singlet_vector()))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.sqrt_eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_separable(self):
        rho = DensityOperator.from_pure([1.0, 0.0, 0.0, 0.0])
        assert concurrence(rho).value == 0.0

    def test_mixed_state_is_separable(self):
        assert concurrence(maximally_mixed(4)).value == 0.0

    def test_werner_closed_form(self):
        # C = max(0, (3q - 1)/2) for a Werner mixture
        psi = singlet_vector()
        for q in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9, 1.0):
            m = q * np.outer(psi, psi.conj()) + (1 - q) * np.eye(4) / 4
            c = concurrence(DensityOperator(m)).value
            assert c == pytest.approx(max(0.0, (3 * q - 1) / 2), abs=1e-12)

    def test_requires_two_qubits(self):
        with pytest.raises(NotTwoQubit):
            concurrence(maximally_mixed(2))
        with pytest.raises(NotTwoQubit):
            concurrence(maximally_mixed(2).matrix[None])

    def test_stack_rows_equal_single_states(self):
        stack = random_states(np.random.default_rng(11), 40)
        res = concurrence(stack)
        assert res.value.shape == (len(stack),)
        assert res.sqrt_eigenvalues.shape == (len(stack), 4)
        for i, m in enumerate(stack):
            single = concurrence(DensityOperator(m))
            assert type(single.value) is float
            assert res.value[i] == single.value
            assert tuple(res.sqrt_eigenvalues[i]) == single.sqrt_eigenvalues
        assert np.count_nonzero(res.value) not in (0, len(stack))

    def test_stack_must_be_three_dimensional(self):
        with pytest.raises(ValueError, match="stack"):
            concurrence(np.eye(4) / 4)

    def test_closed_form_matches_wootters(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            p = random_x_params(rng)
            full = concurrence(normalized_state(p)).value
            assert concurrence_x(p) == pytest.approx(full, abs=1e-12)

    def test_unnormalized_input_is_normalized_first(self):
        p = x_params(0.0, 0.5, 0.5, 0.0, 0.5)
        scaled = DensityOperator(assemble(p) * 3.0)
        assert concurrence(scaled).value == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rho = DensityOperator.from_pure(singlet_vector())
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_overlap(self):
        a = DensityOperator.from_pure([1.0, 0.0, 0.0, 0.0])
        b = DensityOperator.from_pure([np.sqrt(0.7), np.sqrt(0.3), 0.0, 0.0])
        assert fidelity(a, b) == pytest.approx(0.7, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = DensityOperator(m1 @ m1.conj().T)
            b = DensityOperator(m2 @ m2.conj().T)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_orthogonal_states(self):
        a = DensityOperator.from_pure([1.0, 0.0, 0.0, 0.0])
        b = DensityOperator.from_pure([0.0, 1.0, 0.0, 0.0])
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(maximally_mixed(4), maximally_mixed(2))
        with pytest.raises(ValueError):
            fidelity(maximally_mixed(4).matrix[None], maximally_mixed(2))

    def test_stack_rows_equal_single_states(self):
        rng = np.random.default_rng(12)
        stack = random_states(rng, 40)
        others = rng.permutation(random_states(rng, 40))
        target = DensityOperator(others[0])
        assert type(fidelity(target, target)) is float
        left = fidelity(stack, target)
        right = fidelity(target, stack)
        paired = fidelity(stack, others)
        assert left.shape == right.shape == paired.shape == (len(stack),)
        for i, m in enumerate(stack):
            single = DensityOperator(m)
            assert left[i] == fidelity(single, target)
            assert right[i] == fidelity(target, single)
            assert paired[i] == fidelity(single, DensityOperator(others[i]))


class TestWernerDecompose:
    def test_recovers_mixing_weight(self):
        psi = singlet_vector()
        for q in (-0.2, 0.0, 0.3, 0.85, 1.0):
            m = q * np.outer(psi, psi.conj()) + (1 - q) * np.eye(4) / 4
            assert werner_decompose(DensityOperator(m)) == pytest.approx(q, abs=1e-12)

    def test_non_werner_returns_none(self):
        p = x_params(0.1, 0.6, 0.4, 0.1, 0.2)
        assert werner_decompose(normalized_state(p)) is None

    def test_stage1_indistinguishable_is_werner_for_every_t(self):
        for k in range(1, 100):
            t = k / 100.0
            out = stage1(indistinguishable(), t)
            q = werner_decompose(out.state)
            assert q is not None, f"not Werner at T={t}"
            # fitted weight matches the stage-I entries
            expected = t * (2 * t - 1) / out.params.P
            assert q == pytest.approx(expected, abs=1e-12)

    def test_requires_two_qubits(self):
        with pytest.raises(NotTwoQubit):
            werner_decompose(maximally_mixed(2))


class TestThresholds:
    def test_crossing_threshold_simple_root(self):
        got = crossing_threshold(lambda t: t - 0.37, tol=1e-9)
        assert got == pytest.approx(0.37, abs=1e-9)

    def test_crossing_threshold_picks_last_transition(self):
        f = lambda t: (t - 0.2) * (t - 0.5) * (t - 0.8)
        assert crossing_threshold(f, tol=1e-9) == pytest.approx(0.8, abs=1e-9)

    def test_crossing_threshold_no_root(self):
        with pytest.raises(NoThreshold):
            crossing_threshold(lambda t: 1.0)

    def test_breaking_threshold_distinguishable(self):
        got = breaking_threshold(distinguishable(), "I")
        assert got == pytest.approx(math.sqrt(2) - 1, abs=1e-9)

    def test_breaking_threshold_indistinguishable(self):
        got = breaking_threshold(indistinguishable(), "I")
        assert got == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_breaking_threshold_partial_half(self):
        got = breaking_threshold(partial(0.5), "I")
        assert got == pytest.approx(0.5, abs=1e-8)

    def test_stage2_distinguishable_never_separable(self):
        # C_II = T^2/(T^2+R^2) > 0 on the whole open grid
        with pytest.raises(NoThreshold):
            breaking_threshold(distinguishable(), "II")

    def test_stage2_threshold_off_the_scan_grid(self):
        # C_II touches zero at T = p/(1+p) = 0.4595..., between grid points
        got = breaking_threshold(partial(0.85), "II")
        assert got == pytest.approx(0.85 / 1.85, abs=1e-15)
        assert concurrence_x(stage2(partial(0.85), got).params) < 1e-15

    @pytest.mark.parametrize("p", [k / 20 for k in range(21)])
    def test_closed_form_matches_crossing_scan(self, p):
        scan = crossing_threshold(lambda t: concurrence_x(stage1(partial(p), t).params))
        assert breaking_threshold(partial(p), "I") == pytest.approx(scan, abs=2e-9)

    def test_stage_label_is_checked(self):
        with pytest.raises(ValueError):
            breaking_threshold(distinguishable(), "III")
