import math
import re
import warnings
from typing import Callable

import numpy as np
import pytest

from ebrsim import metrics
from ebrsim.core import (
    InvalidParameter,
    maximally_mixed,
    pure_state,
    singlet_vector,
    ZeroTrace,
    unchecked,
    unit_trace,
)
from ebrsim.metrics import (
    _FLIP_SIGNS,
    _hermitian_part,
    _passes,
    _psd_sqrt,
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
    # The checks' absolute floor is 1e-12 (4e-12 for the diagonal sum): each "floor"
    # case at P = 1 lies ten to twenty-five times past it, and is accepted under a
    # floor of 1e-9.

    @pytest.mark.parametrize(
        "entries", [(-0.1, 0.5, 0.5, 0.1, 0.0), (-1e-11, 2.0, 2.0, 1e-11, 0.0)],
        ids=["large", "floor"],
    )
    def test_rejects_negative_population(self, entries):
        with pytest.raises(ValueError, match="nonnegative"):
            x_params(*entries)

    @pytest.mark.parametrize(
        "entries", [(0.0, 0.5, 0.5, 0.0, 0.51), (1.0, 1.0, 1.0, 1.0, 1.0 + 1e-11)],
        ids=["large", "floor"],
    )
    def test_rejects_oversized_coherence(self, entries):
        with pytest.raises(ValueError, match="exceeds"):
            x_params(*entries)

    @pytest.mark.parametrize(
        "delta, big_p", [(1.0, 0.5), (1.0 + 1e-10, 1.0)], ids=["large", "floor"]
    )
    def test_rejects_trace_mismatch(self, delta, big_p):
        with pytest.raises(ValueError, match="4P"):
            XStateParams(alpha=1.0, beta=1.0, gamma=1.0, delta=delta, xi=0.0, P=big_p)

    @pytest.mark.parametrize(
        "entries",
        [(-1e-13, 2.0, 2.0, 1e-13, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0 + 1e-13, 0.0, 1.0),
         (1.0, 1.0, 1.0, 1.0, 1.0 + 1e-13, 1.0)],
        ids=["population", "trace", "coherence"],
    )
    def test_accepts_rounding_within_the_floor(self, entries):
        XStateParams(*entries)

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
        rho = np.diag([1e308, 0.0, 0.0, 0.0]).astype(complex)
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
            branch = assemble(p) / 4.0
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
            XStateParams.from_operator(m)

    def test_from_operator_rejects_real_coherence(self):
        m = assemble(x_params(0.2, 0.5, 0.5, 0.2, 0.0)) / 4.0
        m[1, 2] = 0.05
        m[2, 1] = 0.05
        with pytest.raises(ValueError, match="imaginary"):
            XStateParams.from_operator(m)

    def test_from_operator_requires_two_qubits(self):
        with pytest.raises(NotTwoQubit):
            XStateParams.from_operator(maximally_mixed(2))

    def test_from_operator_stack_equals_each_operator(self):
        rng = np.random.default_rng(7)
        stack = np.array([assemble(random_x_params(rng)) / 4.0 for _ in range(5)])
        params = XStateParams.from_operator(stack)
        for i, m in enumerate(stack):
            single = XStateParams.from_operator(m)
            assert {k: v[i] for k, v in vars(params).items()} == vars(single)

    @pytest.mark.parametrize(
        "entry,value,match",
        [
            ((0, 3), 1e-6, "stray entry magnitude 1e-06"),
            ((1, 2), 0.05 - 0.1j, "imaginary"),
            ((2, 2), math.nan, "non-finite"),
        ],
    )
    def test_from_operator_stack_reports_first_failing_operator(self, entry, value, match):
        base = assemble(x_params(0.2, 0.5, 0.5, 0.2, 0.1)) / 4.0
        stack = np.array([base, base, base, base])
        for i, scale in ((1, 1.0), (3, 2.0)):
            stack[i][entry] = value * scale
        with pytest.raises(ValueError, match=match):
            XStateParams.from_operator(stack)

    # Each rejection case above as six entries and its whole message; -0.0 rows: a
    # clamp max(x, 0.0) keeps -0.0 and its root prints "= -0.0"
    REJECTIONS = [
        ((-0.1, 0.5, 0.5, 0.1, 0.0, 0.25), "alpha must be nonnegative, got -0.1"),
        ((-1e-11, 2.0, 2.0, 1e-11, 0.0, 1.0), "alpha must be nonnegative, got -1e-11"),
        ((1.0, 1.0, -1e-11, 1.0, 0.0, 1.5), "gamma must be nonnegative, got -1e-11"),
        ((0.0, 0.5, 0.5, 0.0, 0.51, 0.25), "|xi| = 0.51 exceeds sqrt(beta*gamma) = 0.5"),
        ((1.0, 1.0, 1.0, 1.0, 1.0 + 1e-11, 1.0),
         "|xi| = 1.00000000001 exceeds sqrt(beta*gamma) = 1.0"),
        ((2.0, -0.0, 2.0, 0.0, 0.5, 1.0), "|xi| = 0.5 exceeds sqrt(beta*gamma) = 0.0"),
        ((2.0, 2.0, -0.0, 0.0, -0.5, 1.0), "|xi| = 0.5 exceeds sqrt(beta*gamma) = 0.0"),
        ((1.0, 1.0, 1.0, 1.0, 0.0, 0.5), "diagonal sum 4.0 does not match 4P = 2.0"),
        ((1.0, 1.0, 1.0, 1.0 + 1e-10, 0.0, 1.0), "diagonal sum 4.0000000001 does not match 4P = 4.0"),
        ((0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "P must lie in (0, 1], got 0.0"),
        ((-1.0, 1.0, 1.0, 1.0, 0.0, math.nan), "P must be finite, got nan"),
    ] + [
        (tuple(value if k == i else entry for k, entry in enumerate((1.0, 1.0, 1.0, 1.0, 0.0, 1.0))),
         f"{name} must be finite, got {value!r}")
        for i, name in enumerate(("alpha", "beta", "gamma", "delta", "xi", "P"))
        for value in (math.nan, math.inf, -math.inf)
    ]

    @pytest.mark.parametrize("columns", [False, True], ids=["floats", "columns"])
    @pytest.mark.parametrize("entries, message", REJECTIONS, ids=[m for _, m in REJECTIONS])
    def test_rejection_is_the_same_on_floats_and_columns(self, entries, message, columns):
        values = [np.array([x]) for x in entries] if columns else entries
        with pytest.raises(ValueError) as info:
            XStateParams(*values)
        assert (type(info.value), str(info.value)) == (ValueError, message)

    # Row 1 fails the coherence bound and row 3 an earlier check: a column that fails
    # the one-reduction pass walks the ordered checks, so the earlier check type wins
    @pytest.mark.parametrize(
        "name, value, message",
        [("delta", math.inf, "delta must be finite, got inf"),
         ("gamma", -0.5, "gamma must be nonnegative, got -0.5")],
        ids=["finite", "lower-bound"],
    )
    def test_failing_column_reports_the_earliest_check(self, name, value, message):
        entries = {key: np.ones(4) for key in ("alpha", "beta", "gamma", "delta", "P")}
        entries["xi"] = np.array([0.0, 1.5, 0.0, 0.0])
        entries[name][3] = value
        with pytest.raises(ValueError) as info:
            XStateParams(**entries)
        assert (type(info.value), str(info.value)) == (ValueError, message)

    def test_nan_and_inf_column_fails_without_a_warning(self):
        # inf * 0 and inf - inf arise in the coherence bound and the diagonal sum
        alpha, beta, gamma = np.ones(3), np.ones(3), np.ones(3)
        alpha[2], beta[1], gamma[1] = math.inf, math.inf, -math.inf
        xi, big_p = np.array([0.0, math.nan, 0.0]), np.array([1.0, 1.0, math.nan])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as info:
                XStateParams(alpha, beta, gamma, np.ones(3), xi, big_p)
        assert str(info.value) == "alpha must be finite, got inf"
        assert caught == []

    def test_column_verdict_equals_the_float_checks_row_by_row(self):
        # one-row columns take the one-reduction pass, Python floats the ordered checks
        rng = np.random.default_rng(11)
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-12, -1.1e-12, 1e308]
        for _ in range(600):
            row = [float(x) for x in vars(random_x_params(rng)).values()]
            for k in rng.choice(6, size=rng.integers(0, 3), replace=False):
                if rng.random() < 0.4:
                    row[k] = specials[rng.integers(len(specials))]
                else:  # at most 1.5e-12 from the edge of this entry's check
                    step = float(rng.integers(-3, 4)) * 5e-13
                    edges = [-step, -step, -step, -step,
                             math.copysign(math.sqrt(max(row[1] * row[2], 0.0)), row[4]) + step,
                             sum(row[:4]) / 4 + step]
                    row[k] = edges[k]
            try:
                XStateParams(*row)
                message = None
            except ValueError as exc:
                message = str(exc)
            assert _passes(*(np.array([x]) for x in row)) == (message is None), row
            if message is not None:
                with pytest.raises(ValueError, match=re.escape(message) + "$"):
                    XStateParams(*(np.array([x]) for x in row))

    @pytest.mark.parametrize(
        "alpha,big_p,shapes",
        [(np.full(2, 0.25), np.full(3, 0.25), "alpha (2,), beta (3,), gamma (3,), delta (3,),"
          " xi (3,), P (3,)"),
         (np.full(3, 0.25), np.full((3, 1), 0.25), "alpha (3,), beta (3,), gamma (3,),"
          " delta (3,), xi (3,), P (3, 1)")],
        ids=["short-alpha", "column-P"],
    )
    def test_array_entries_of_two_shapes_are_rejected(self, monkeypatch, alpha, big_p, shapes):
        # before the one-reduction pass: numpy would fail to broadcast the first
        # and broadcast the second to (3, 3)
        monkeypatch.setattr(metrics, "_passes", lambda *entries: pytest.fail("reduced"))
        q = np.full(3, 0.25)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as info:
                XStateParams(alpha, q, q, q, np.zeros(3), big_p)
        assert type(info.value) is ValueError
        assert str(info.value) == "X-state entries must share one shape, got " + shapes
        assert caught == []


def _bits(x) -> tuple:
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def test_operator_matrix_and_stack_row_give_the_same_bits():
    # one code path: a (4, 4) matrix and row i of a stack
    rng = np.random.default_rng(21)
    stack = np.array([assemble(random_x_params(rng)) / 4.0 for _ in range(6)])
    others = np.array([assemble(random_x_params(rng)) / 4.0 for _ in range(6)])
    rows = concurrence(stack)
    params = XStateParams.from_operator(stack)
    states = normalized_state(params)
    closed = concurrence_x(params)
    fidelities = fidelity(stack, others)
    assert states.shape == stack.shape and closed.shape == fidelities.shape == (6,)
    for i, single in enumerate(stack):
        res = concurrence(single)
        assert _bits(res.value) == _bits(rows.value[i])
        assert _bits(res.sqrt_eigenvalues) == _bits(rows.sqrt_eigenvalues[i])
        assert _bits(fidelity(single, others[i])) == _bits(fidelities[i])
        assert _bits(fidelity(others[i], single)) == _bits(fidelity(others, stack)[i])
        x = XStateParams.from_operator(single)
        for name, column in vars(params).items():
            assert _bits(getattr(x, name)) == _bits(column[i]), name
        assert _bits(normalized_state(x)) == _bits(states[i])
        assert _bits(concurrence_x(x)) == _bits(closed[i])
        assert type(concurrence_x(x)) is np.float64


def test_normalized_state_has_the_complex_quotients_bits():
    # the complex division of assemble's stack by 4P is the reference, signed zeros,
    # subnormal and 1e-12-scale entries included, on columns and on float points
    rng = np.random.default_rng(34)
    n = 20_000

    def column():
        v = rng.random(n) * 10.0 ** rng.integers(-14, 2, n)
        kind = rng.integers(0, 5, n)
        v[kind == 0] = 0.0
        v[kind == 1] = -0.0
        v[kind == 2] *= 1e-310
        return v

    entries = [column() for _ in range(4)]
    xi = column() * rng.choice([-1.0, 1.0], n)
    big_p = sum(entries) / 4
    big_p[big_p == 0.0] = 1e-300
    big_p[:50] = rng.random(50) * 1e-309
    big_p[50:52] = 2.0**-1026, 2.0**-1026 + 2.0**-1074  # 4P at 2**-1024 and one step above
    with np.errstate(all="ignore"):
        finite = np.isfinite(1.0 / (4.0 * big_p))  # elsewhere 1/4P overflows: no unit trace
        assert finite[50:52].tolist() == [False, True]
        params = unchecked(XStateParams, **dict(
            zip(("alpha", "beta", "gamma", "delta", "xi", "P"), (*entries, xi, big_p))))
        least = re.escape(repr(float(big_p.min())))
        with pytest.raises(ZeroTrace, match=f"P = {least}: 1/4P overflows"):
            normalized_state(params)
        kept = unchecked(XStateParams, **{k: v[finite] for k, v in vars(params).items()})
        state = normalized_state(kept)
        reference = assemble(kept) / (4.0 * kept.P[:, None, None])
        assert state.tobytes() == reference.tobytes()
        assert state.flags.owndata
        for i in [*range(1, 52, 7), 50, 51, *range(0, n, 401)]:
            point = unchecked(XStateParams, **{k: float(v[i]) for k, v in vars(params).items()})
            if not finite[i]:
                with pytest.raises(ZeroTrace, match=re.escape(f"P = {point.P!r}")):
                    normalized_state(point)
                continue
            reference = assemble(point) / (4.0 * point.P)
            assert _bits(normalized_state(point)) == _bits(reference), i


def test_transparent_channel_is_the_source_singlet():
    # stage I at T = 1: alpha = delta = 0, xi = -2, nothing reflected
    p = XStateParams(alpha=0.0, beta=2.0, gamma=2.0, delta=0.0, xi=-2.0, P=1.0)
    state = normalized_state(p)
    target = pure_state(singlet_vector())
    assert state.shape == (4, 4)
    assert np.allclose(state, target, atol=1e-14)
    assert concurrence_x(p) == pytest.approx(1.0)


class TestConcurrence:
    def test_singlet_is_maximally_entangled(self):
        res = concurrence(pure_state(singlet_vector()))
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.sqrt_eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_separable(self):
        rho = pure_state([1.0, 0.0, 0.0, 0.0])
        assert concurrence(rho).value == 0.0

    def test_mixed_state_is_separable(self):
        assert concurrence(maximally_mixed(4)).value == 0.0

    def test_werner_closed_form(self):
        # C = max(0, (3q - 1)/2) for a Werner mixture
        psi = singlet_vector()
        for q in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.9, 1.0):
            m = q * np.outer(psi, psi.conj()) + (1 - q) * np.eye(4) / 4
            c = concurrence(m).value
            assert c == pytest.approx(max(0.0, (3 * q - 1) / 2), abs=1e-12)

    def test_requires_two_qubits(self):
        with pytest.raises(NotTwoQubit):
            concurrence(maximally_mixed(2))
        with pytest.raises(NotTwoQubit):
            concurrence(maximally_mixed(2)[None])

    def test_stack_rows_equal_single_states(self):
        stack = random_states(np.random.default_rng(11), 40)
        res = concurrence(stack)
        assert res.value.shape == (len(stack),)
        assert res.sqrt_eigenvalues.shape == (len(stack), 4)
        for i, m in enumerate(stack):
            single = concurrence(m)
            assert type(single.value) is np.float64
            assert single.sqrt_eigenvalues.shape == (4,)
            assert res.value[i] == single.value
            assert np.array_equal(res.sqrt_eigenvalues[i], single.sqrt_eigenvalues)
        assert np.count_nonzero(res.value) not in (0, len(stack))

    def test_a_4x4_array_is_one_state(self):
        res = concurrence(np.eye(4) / 4)
        assert type(res.value) is np.float64 and res.value == 0.0
        # rho rho~ = I/16 for the maximally mixed state
        assert res.sqrt_eigenvalues.shape == (4,)
        assert np.allclose(res.sqrt_eigenvalues, 0.25, rtol=0.0, atol=1e-15)
        for shape in ((4,), (4, 3), (2, 4, 3)):
            with pytest.raises(ValueError, match="square"):
                concurrence(np.zeros(shape))

    def test_indexed_spin_flip_equals_pauli_products(self):
        sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        spin_flip = np.kron(sigma_y, sigma_y)
        for seed in range(4):
            stack = random_states(np.random.default_rng(seed), 100)
            s = _hermitian_part(unit_trace(stack)[0])
            products = spin_flip @ s.conj() @ spin_flip
            indexed = _FLIP_SIGNS * s.conj()[:, ::-1, ::-1]
            # bit for bit, the signs of zeros included
            assert np.array_equal(indexed.view(np.int64), products.view(np.int64))
            # and Wootters' sqrt-eigenvalues through the products, as concurrence takes them
            root = _psd_sqrt(s)
            vals = np.linalg.eigvalsh(_hermitian_part(root @ products @ root))
            lams = np.sqrt(np.clip(vals, 0.0, None))[:, ::-1]
            assert np.array_equal(concurrence(stack).sqrt_eigenvalues, lams)

    def test_closed_form_matches_wootters(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            p = random_x_params(rng)
            full = concurrence(normalized_state(p)).value
            assert concurrence_x(p) == pytest.approx(full, abs=1e-12)

    def test_unnormalized_input_is_normalized_first(self):
        p = x_params(0.0, 0.5, 0.5, 0.0, 0.5)
        scaled = assemble(p) * 3.0
        assert concurrence(scaled).value == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rho = pure_state(singlet_vector())
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_overlap(self):
        a = pure_state([1.0, 0.0, 0.0, 0.0])
        b = pure_state([np.sqrt(0.7), np.sqrt(0.3), 0.0, 0.0])
        assert fidelity(a, b) == pytest.approx(0.7, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = m1 @ m1.conj().T
            b = m2 @ m2.conj().T
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_orthogonal_states(self):
        a = pure_state([1.0, 0.0, 0.0, 0.0])
        b = pure_state([0.0, 1.0, 0.0, 0.0])
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(maximally_mixed(4), maximally_mixed(2))
        with pytest.raises(ValueError):
            fidelity(maximally_mixed(4)[None], maximally_mixed(2))

    def test_stack_order_is_symmetric(self):
        # Uhlmann fidelity is symmetric; round-off on rank-deficient states
        # moves the two argument orders apart by up to about 1.5e-8
        rng = np.random.default_rng(15)
        stack = random_states(rng, 200)
        for ref in random_states(rng, 8)[:4]:
            target = ref
            assert np.max(np.abs(fidelity(target, stack) - fidelity(stack, target))) <= 1e-7

    def test_stack_rows_equal_single_states(self):
        rng = np.random.default_rng(12)
        stack = random_states(rng, 40)
        others = rng.permutation(random_states(rng, 40))
        target = others[0]
        assert type(fidelity(target, target)) is np.float64
        left = fidelity(stack, target)
        right = fidelity(target, stack)
        paired = fidelity(stack, others)
        assert left.shape == right.shape == paired.shape == (len(stack),)
        for i, m in enumerate(stack):
            single = m
            assert left[i] == fidelity(single, target)
            assert right[i] == fidelity(target, single)
            assert paired[i] == fidelity(single, others[i])


class TestWernerDecompose:
    def test_recovers_mixing_weight(self):
        psi = singlet_vector()
        for q in (-0.2, 0.0, 0.3, 0.85, 1.0):
            m = q * np.outer(psi, psi.conj()) + (1 - q) * np.eye(4) / 4
            assert werner_decompose(m) == pytest.approx(q, abs=1e-12)

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

    @pytest.mark.parametrize("stage", ["I", "II"])
    @pytest.mark.parametrize("p", [[0.2, 0.5], [0.5]], ids=["two", "one"])
    def test_a_column_scenario_is_a_typed_error(self, p, stage):
        with pytest.raises(InvalidParameter, match=rf"column of shape \({len(p)},\)"):
            breaking_threshold(partial(np.array(p)), stage)
