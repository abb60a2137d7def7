import dataclasses
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ebrsim import protocol
from ebrsim.core import InvalidParameter, ZeroTrace, pure_state, singlet_vector
from ebrsim.fock import oracle_protocol
from ebrsim.metrics import concurrence_x
from ebrsim.protocol import (
    ChannelConfig,
    FilterPair,
    Scenario,
    SingularPrescription,
    apply_filters,
    distinguishable,
    indistinguishable,
    partial,
    resolve_filters,
    run_protocol,
    stage1,
    stage2,
    table_filters,
)


class TestScenario:
    def test_factories(self):
        assert distinguishable().kind == "distinguishable"
        assert indistinguishable().kind == "indistinguishable"
        assert partial(0.3).kind == "partial"

    def test_p_property(self):
        # p is the weight of the indistinguishable component
        assert distinguishable().p == 0.0
        assert indistinguishable().p == 1.0
        assert partial(0.85).p == 0.85

    def test_partial_requires_p_in_range(self):
        with pytest.raises(ValueError):
            partial(1.2)
        with pytest.raises(ValueError):
            partial(-0.1)
        with pytest.raises(ValueError):
            Scenario("partial")

    def test_pure_kinds_reject_p(self):
        with pytest.raises(ValueError):
            Scenario("distinguishable", 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Scenario("mystery")


class TestChannelConfig:
    def test_validates_transmittivity(self):
        with pytest.raises(ValueError):
            ChannelConfig(scenario=distinguishable(), T=1.5)

    def test_validates_branch(self):
        with pytest.raises(ValueError):
            ChannelConfig(scenario=distinguishable(), T=0.5, branch="D")

    def test_filters_and_epsilon_are_exclusive(self):
        with pytest.raises(ValueError):
            ChannelConfig(
                scenario=distinguishable(),
                T=0.5,
                filters=FilterPair(0.5, 0.5),
                epsilon=0.5,
            )

    def test_columns_of_two_lengths_are_a_typed_error(self):
        # the config raises it itself, before any stage broadcasts its columns
        two, three = np.array([0.2, 0.4]), np.array([0.1, 0.2, 0.3])
        for scenario, fields in [
            (partial(three), {"epsilon": 0.25}),
            (distinguishable(), {"epsilon": three}),
            (indistinguishable(), {"filters": FilterPair(three, 0.5)}),
        ]:
            with pytest.raises(InvalidParameter, match=r"one length, got lengths \[2, 3\]"):
                ChannelConfig(scenario, T=two, **fields)
        # a one-element column broadcasts, as a float does
        config = ChannelConfig(partial(three), T=np.array([0.4]), epsilon=three)
        assert run_protocol(config)[2].kept.size == 3

    def test_filter_pair_range(self):
        with pytest.raises(ValueError):
            FilterPair(0.0, 0.5)
        with pytest.raises(ValueError):
            FilterPair(0.5, 1.2)


class TestStage1:
    @pytest.mark.parametrize("t", [0.1, 0.25, 0.5, 2 / 3, 0.9])
    def test_distinguishable_entries(self, t):
        r = 1.0 - t
        p = stage1(distinguishable(), t).params
        assert p.alpha == pytest.approx(r * r)
        assert p.beta == pytest.approx(r * r + 2 * t * t)
        assert p.gamma == pytest.approx(r * r + 2 * t * t)
        assert p.delta == pytest.approx(r * r)
        assert p.xi == pytest.approx(-2 * t * t)
        assert p.P == pytest.approx(r * r + t * t)

    @pytest.mark.parametrize("t", [0.1, 0.25, 0.5, 2 / 3, 0.9])
    def test_indistinguishable_entries(self, t):
        r = 1.0 - t
        p = stage1(indistinguishable(), t).params
        assert p.alpha == pytest.approx(r * r)
        assert p.beta == pytest.approx(1 - 4 * t + 5 * t * t)
        assert p.gamma == pytest.approx(r * r + 2 * t * t - 2 * r * t)
        assert p.delta == pytest.approx(r * r)
        assert p.xi == pytest.approx(-2 * t * t + 2 * r * t)
        assert p.P == pytest.approx(r * r + t * t - r * t)

    def test_transparent_limit_returns_the_singlet(self):
        for scenario in (distinguishable(), indistinguishable(), partial(0.4)):
            out = stage1(scenario, 1.0)
            target = pure_state(singlet_vector())
            assert np.allclose(out.state, target, atol=1e-14)
            assert out.probability == pytest.approx(1.0)

    def test_probability_equals_cumulative(self):
        out = stage1(distinguishable(), 0.37)
        assert out.cumulative_probability == out.probability
        assert out.stage == "I"

    def test_rejects_out_of_range_t(self):
        with pytest.raises(ValueError):
            stage1(distinguishable(), -0.01)


class TestStage2:
    @pytest.mark.parametrize("t", [0.2, 0.41, 0.5, 0.8])
    def test_distinguishable_entries(self, t):
        r = 1.0 - t
        p = stage2(distinguishable(), t).params
        assert p.alpha == 0.0
        assert p.beta == pytest.approx(t * t)
        assert p.gamma == pytest.approx(r * r + t * t)
        assert p.delta == pytest.approx(r * r)
        assert p.xi == pytest.approx(-t * t)
        assert p.P == pytest.approx((r * r + t * t) / 2)

    @pytest.mark.parametrize("t", [0.2, 0.41, 0.5, 0.8])
    def test_indistinguishable_entries(self, t):
        r = 1.0 - t
        p = stage2(indistinguishable(), t).params
        assert p.alpha == 0.0
        assert p.beta == pytest.approx(t * t)
        assert p.gamma == pytest.approx((2 * t - 1) ** 2)
        assert p.delta == pytest.approx(r * r)
        assert p.xi == pytest.approx(-t * t + r * t)
        assert p.P == pytest.approx((r * r + t * t - r * t) / 2)

    def test_conditioning_halves_the_distinguishable_probability(self):
        t = 0.35
        assert stage2(distinguishable(), t).probability == pytest.approx(
            stage1(distinguishable(), t).probability / 2
        )

    def test_v_branch_flips_populations_keeps_coherence(self):
        h = stage2(indistinguishable(), 0.3, branch="H").params
        v = stage2(indistinguishable(), 0.3, branch="V").params
        assert (v.alpha, v.beta, v.gamma, v.delta) == (h.delta, h.gamma, h.beta, h.alpha)
        assert v.xi == h.xi
        assert v.P == h.P

    def test_feed_forward_restores_h_branch(self):
        for scenario in (distinguishable(), indistinguishable(), partial(0.7)):
            h = stage2(scenario, 0.6, branch="H")
            v = stage2(scenario, 0.6, branch="V", feed_forward=True)
            assert np.allclose(v.state, h.state, atol=1e-15)
            assert v.probability == h.probability
            assert v.cumulative_probability == pytest.approx(2 * h.probability)

    def test_feed_forward_doubles_cumulative_only(self):
        plain = stage2(distinguishable(), 0.44)
        both = stage2(distinguishable(), 0.44, feed_forward=True)
        assert both.probability == plain.probability
        assert both.cumulative_probability == pytest.approx(
            2 * plain.cumulative_probability
        )

    @pytest.mark.parametrize("branch", ["H", "V"])
    def test_feed_forward_cumulative_has_stage_one_bits(self, branch):
        # 2 * (P_I / 2) is exact, so the CLI gives stage II's cumulative probability the
        # text of stage I's probability; without feed-forward it is stage II's probability
        rng = np.random.default_rng(36)
        t = np.concatenate([rng.random(2000), [0.0, 0.5, 1.0]])
        p = rng.random(t.size)
        for scenario in (partial(p), partial(p[:1]), distinguishable(), indistinguishable()):
            plain = stage2(scenario, t, branch)
            both = stage2(scenario, t, branch, feed_forward=True)
            assert _bits(both.cumulative_probability) == _bits(stage1(scenario, t).probability)
            assert _bits(plain.cumulative_probability) == _bits(plain.probability)
        for i in [*range(0, t.size, 100), -3, -2, -1]:
            scenario, point = partial(float(p[i])), float(t[i])
            plain = stage2(scenario, point, branch)
            both = stage2(scenario, point, branch, feed_forward=True)
            assert both.cumulative_probability.hex() == stage1(scenario, point).probability.hex()
            assert plain.cumulative_probability.hex() == plain.probability.hex()

    def test_branch_label_checked(self):
        with pytest.raises(ValueError):
            stage2(distinguishable(), 0.5, branch="X")


class TestPartialMixing:
    def test_endpoints_match_pure_scenarios(self):
        for t in (0.2, 0.6):
            lo = stage1(partial(0.0), t).params
            hi = stage1(partial(1.0), t).params
            d = stage1(distinguishable(), t).params
            i = stage1(indistinguishable(), t).params
            for name in ("alpha", "beta", "gamma", "delta", "xi", "P"):
                assert getattr(lo, name) == pytest.approx(getattr(d, name), abs=1e-15)
                assert getattr(hi, name) == pytest.approx(getattr(i, name), abs=1e-15)

    def test_mixing_is_entrywise_convex(self):
        t, p = 0.3, 0.85
        d = stage2(distinguishable(), t).params
        i = stage2(indistinguishable(), t).params
        m = stage2(partial(p), t).params
        for name in ("alpha", "beta", "gamma", "delta", "xi", "P"):
            expected = p * getattr(i, name) + (1 - p) * getattr(d, name)
            assert getattr(m, name) == pytest.approx(expected, abs=1e-15)

    def test_coherence_signs_oppose_below_half(self):
        # below T = 1/2 the two components interfere destructively in xi
        t = 0.3
        d = stage2(distinguishable(), t).params
        i = stage2(indistinguishable(), t).params
        assert d.xi < 0.0 < i.xi
        # the mixture crosses zero at p = T/R
        p_zero = t / (1 - t)
        m = stage2(partial(p_zero), t).params
        assert m.xi == pytest.approx(0.0, abs=1e-15)


class TestFilters:
    def test_entry_map(self):
        out = stage2(distinguishable(), 0.41)
        filtered = apply_filters(out, FilterPair(a_a=0.33, a_b=1.0))
        p, q = out.params, filtered.params
        assert q.alpha == p.alpha
        assert q.beta == pytest.approx(1.0 * p.beta)
        assert q.gamma == pytest.approx(0.33 * p.gamma)
        assert q.delta == pytest.approx(0.33 * p.delta)
        assert q.xi == pytest.approx(math.sqrt(0.33) * p.xi)
        assert filtered.stage == "III"

    def test_pass_probability_and_cumulative(self):
        out = stage2(distinguishable(), 0.41)
        filtered = apply_filters(out, FilterPair(a_a=0.33, a_b=1.0))
        p, q = out.params, filtered.params
        expected_pass = (q.alpha + q.beta + q.gamma + q.delta) / (4 * p.P)
        assert filtered.probability == pytest.approx(expected_pass)
        assert filtered.cumulative_probability == pytest.approx(
            out.cumulative_probability * expected_pass
        )

    def test_identity_filters_change_nothing(self):
        out = stage2(indistinguishable(), 0.66)
        same = apply_filters(out, FilterPair(1.0, 1.0))
        assert np.allclose(same.state, out.state, atol=1e-15)
        assert same.probability == pytest.approx(1.0)

    def test_filtering_is_physical(self):
        # KrhoK^dag with K = diag(1, sqrt(A)) per arm reproduces the entry map
        from ebrsim.core import unit_trace

        out = stage2(partial(0.6), 0.37)
        a_a, a_b = 0.41, 0.77
        filtered = apply_filters(out, FilterPair(a_a, a_b))
        k = np.kron(np.diag([1.0, math.sqrt(a_a)]), np.diag([1.0, math.sqrt(a_b)]))
        direct_state, passed = unit_trace(k @ out.state @ k.conj().T)
        assert np.allclose(direct_state, filtered.state, atol=1e-14)
        assert filtered.probability == pytest.approx(passed)


class TestTableFilters:
    def test_distinguishable_prescription(self):
        t, eps = 0.41, 0.5
        r = 1.0 - t
        pair = table_filters(distinguishable(), t, eps)
        assert pair.a_a == pytest.approx(eps * t * t / (t * t + r * r))
        assert pair.a_b == pytest.approx(eps)

    def test_indistinguishable_prescription_branches(self):
        eps = 0.8
        hi = table_filters(indistinguishable(), 0.6, eps)  # T > |2T-1|
        assert hi.a_a == pytest.approx(eps)
        assert hi.a_b == pytest.approx(eps * ((2 * 0.6 - 1) / 0.6) ** 2)
        lo = table_filters(indistinguishable(), 0.2, eps)  # T < |2T-1|
        assert lo.a_a == pytest.approx(eps * (0.2 / (2 * 0.2 - 1)) ** 2)
        assert lo.a_b == pytest.approx(eps)

    def test_prescription_is_a_plain_filter_pair(self):
        pair = table_filters(partial(0.85), 0.3, 0.25)
        assert pair == FilterPair(pair.a_a, pair.a_b)
        assert dataclasses.astuple(pair) == (pair.a_a, pair.a_b)

    def test_partial_follows_indistinguishable_prescription(self):
        eps = 0.6
        a = table_filters(partial(0.85), 0.3, eps)
        b = table_filters(indistinguishable(), 0.3, eps)
        assert a == b

    def test_singular_at_balanced_splitter(self):
        with pytest.raises(SingularPrescription):
            table_filters(indistinguishable(), 0.5, 1.0)
        with pytest.raises(SingularPrescription):
            table_filters(partial(0.5), 0.5 + 1e-12, 0.5)
        # the distinguishable prescription has no singularity there
        table_filters(distinguishable(), 0.5, 1.0)

    @pytest.mark.parametrize(
        "scenario", [distinguishable(), indistinguishable(), partial(0.85)]
    )
    @pytest.mark.parametrize("t", [0.0, 1e-200])
    def test_zero_attenuation_is_singular(self, scenario, t):
        # T = 0 prescribes a zero factor exactly; tiny T underflows to one
        with pytest.raises(SingularPrescription, match="singular"):
            table_filters(scenario, t, 0.25)

    def test_ratio_is_squared_by_multiplication(self):
        # q * q is correctly rounded; Python's q ** 2 calls libm pow, which
        # gives 0.6904343851524947 here on glibc
        t = 0.8553762468369701
        q = abs(2 * t - 1) / t
        pair = table_filters(indistinguishable(), t, 1.0)
        assert pair.a_b == q * q == 0.6904343851524948
        assert pair.a_a == 1.0

    @pytest.mark.parametrize(
        "scenario", [distinguishable(), indistinguishable(), partial(0.85)]
    )
    def test_column_marks_singular_points_with_nan(self, scenario):
        t = np.array([0.0, 0.5, 0.3, 1e-200, 0.5 + 1e-10, 0.7, 1.0])
        pair = table_filters(scenario, t, 0.25)
        for i, ti in enumerate(t.tolist()):
            try:
                point = table_filters(scenario, ti, 0.25)
            except SingularPrescription:
                assert math.isnan(pair.a_a[i]) and math.isnan(pair.a_b[i]), ti
            else:
                assert (pair.a_a[i], pair.a_b[i]) == (point.a_a, point.a_b), ti

    def test_resolve_precedence(self):
        explicit = FilterPair(0.4, 0.9)
        cfg = ChannelConfig(scenario=distinguishable(), T=0.41, filters=explicit)
        assert resolve_filters(cfg) == explicit
        cfg = ChannelConfig(scenario=distinguishable(), T=0.41, epsilon=0.5)
        assert resolve_filters(cfg) == table_filters(distinguishable(), 0.41, 0.5)
        cfg = ChannelConfig(scenario=distinguishable(), T=0.41)
        assert resolve_filters(cfg) == FilterPair(1.0, 1.0)


class TestStageThreeClosedForms:
    """Filtered concurrence against forms that match the quoted text values."""

    @pytest.mark.parametrize("t", [0.2, 0.41, 0.5, 0.7])
    @pytest.mark.parametrize("eps", [1.0, 0.25])
    def test_distinguishable(self, t, eps):
        r = 1.0 - t
        cfg = ChannelConfig(scenario=distinguishable(), T=t, epsilon=eps)
        out = run_protocol(cfg)[2]
        s = t * t + r * r
        expected_c = (t / math.sqrt(s)) / (1 + eps * r * r / (2 * s))
        expected_cum = 0.5 * eps * t * t + 0.25 * eps * eps * t * t * r * r / s
        assert concurrence_x(out.params) == pytest.approx(expected_c, abs=1e-12)
        assert out.cumulative_probability == pytest.approx(expected_cum, abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 0.3, 0.6, 0.8])
    @pytest.mark.parametrize("eps", [1.0, 0.25])
    def test_indistinguishable(self, t, eps):
        r = 1.0 - t
        cfg = ChannelConfig(scenario=indistinguishable(), T=t, epsilon=eps)
        out = run_protocol(cfg)[2]
        wide = max(t, abs(2 * t - 1))  # arm kept unfiltered by the prescription
        expected_c = 1.0 / (1 + eps * r * r / (2 * wide * wide))
        assert concurrence_x(out.params) == pytest.approx(expected_c, abs=1e-12)

    def test_asymptotic_filtration_restores_entanglement(self):
        for t in (0.2, 0.35, 0.75):
            cfg = ChannelConfig(scenario=indistinguishable(), T=t, epsilon=1e-8)
            c = concurrence_x(run_protocol(cfg)[2].params)
            assert c > 1 - 1e-6


def _exact_grid():
    """Seeded rational ``(p, T)`` values, with the edges and the near-1/2 family."""
    rng = random.Random(27)
    ts = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3)]
    ts += [Fraction(1, 2) + s * Fraction(1, 10**k) for k in (3, 9, 15) for s in (1, -1)]
    ts += [Fraction(rng.randrange(1, 10**6), 10**6) for _ in range(10)]
    ps = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(17, 20)]
    ps += [Fraction(rng.randrange(1, 10**4), 10**4) for _ in range(4)]
    return ps, ts


def _conjugated(entries, u, v):
    """Stage-III entries as ``K rho K`` with ``K = diag(1, v, u, uv)``, entry by entry."""
    alpha, beta, gamma, delta, xi, _ = entries
    zero = Fraction(0)
    re = [[alpha, zero, zero, zero], [zero, beta, zero, zero],
          [zero, zero, gamma, zero], [zero, zero, zero, delta]]
    im = [[zero] * 4 for _ in range(4)]
    im[1][2], im[2][1] = -xi, xi  # the coherence -i xi at (HV, VH)
    k = [1, v, u, u * v]
    re, im = ([[k[i] * m[i][j] * k[j] for j in range(4)] for i in range(4)] for m in (re, im))
    return re[0][0], re[1][1], re[2][2], re[3][3], im[2][1], sum(re[i][i] for i in range(4)) / 4


class TestExactCores:
    """The shipped stage cores on Fractions: their identities hold with ``==``."""

    ps, ts = _exact_grid()

    def test_cores_run_on_fractions(self):
        for core in (protocol._stage1_entries, protocol._stage2_entries):
            assert all(type(e) is Fraction for e in core(Fraction(1, 3), Fraction(2, 5)))

    def test_diagonal_sums_to_4p(self):
        for p in self.ps:
            for t in self.ts:
                s2 = protocol._stage2_entries(p, t)
                u, v = Fraction(2, 3), Fraction(5, 7)
                s3 = protocol._filtered_entries(*s2[:5], u * u, v * v, u * v)
                for entries in (protocol._stage1_entries(p, t), s2, s3):
                    assert sum(entries[:4]) == 4 * entries[5]

    def test_stage1_is_stage2_plus_its_flipped_twin(self):
        for p in self.ps:
            for t in self.ts:
                s1, s2 = protocol._stage1_entries(p, t), protocol._stage2_entries(p, t)
                assert s1[:4] == tuple(a + b for a, b in zip(s2[:4], s2[3::-1]))
                assert (s1[4], s1[5]) == (2 * s2[4], 2 * s2[5])

    def test_entries_are_affine_in_p(self):
        for core in (protocol._stage1_entries, protocol._stage2_entries):
            for t in self.ts:
                lo, hi = core(Fraction(0), t), core(Fraction(1), t)
                for p in self.ps:
                    assert core(p, t) == tuple((1 - p) * a + p * b for a, b in zip(lo, hi))

    def test_coherence_is_bounded(self):
        for p in self.ps:
            for t in self.ts:
                for core in (protocol._stage1_entries, protocol._stage2_entries):
                    _, beta, gamma, _, xi, _ = core(p, t)
                    assert xi * xi <= beta * gamma

    def test_stage2_coherence_vanishes_only_at_p_over_1_plus_p(self):
        for p in self.ps:
            zero = p / (1 + p)
            assert protocol._stage2_entries(p, zero)[4] == 0
            for t in self.ts:
                if t > 0:
                    assert (protocol._stage2_entries(p, t)[4] == 0) == (t == zero), (p, t)

    def test_unit_pair_leaves_stage2_unchanged(self):
        for p in self.ps:
            for t in self.ts:
                s2 = protocol._stage2_entries(p, t)
                assert protocol._filtered_entries(*s2[:5], 1, 1, 1) == s2

    # filter roots (u, v): the pair is (u^2, v^2) and its root uv
    roots = [(Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 10**6), Fraction(1)),
             (Fraction(9, 10), Fraction(1, 7)), (Fraction(1, 50), Fraction(1, 60))]

    def test_filtering_is_the_diagonal_conjugation(self):
        for p in self.ps:
            for t in self.ts:
                s2 = protocol._stage2_entries(p, t)
                for u, v in self.roots:
                    s3 = protocol._filtered_entries(*s2[:5], u * u, v * v, u * v)
                    assert s3 == _conjugated(s2, u, v)

    def test_filtered_concurrence_stays_below_the_supremum(self):
        # on the H branch (alpha = 0) C_III <= |xi| / sqrt(beta gamma), squared to stay rational
        for p in self.ps:
            for t in self.ts:
                s2 = protocol._stage2_entries(p, t)
                alpha, beta, gamma, _, xi, _ = s2
                assert alpha == 0
                for u, v in self.roots:
                    s3 = protocol._filtered_entries(*s2[:5], u * u, v * v, u * v)
                    assert s3[4] ** 2 * beta * gamma <= (2 * s3[5] * xi) ** 2


class TestRunProtocol:
    def test_composes_stages(self):
        cfg = ChannelConfig(
            scenario=partial(0.85), T=0.3, filters=FilterPair(0.12, 0.30)
        )
        s1, s2, s3 = run_protocol(cfg)
        assert (s1.stage, s2.stage, s3.stage) == ("I", "II", "III")
        ref2 = stage2(partial(0.85), 0.3)
        assert np.allclose(s2.state, ref2.state, atol=1e-15)
        ref3 = apply_filters(ref2, FilterPair(0.12, 0.30))
        assert np.allclose(s3.state, ref3.state, atol=1e-15)
        assert s3.cumulative_probability == pytest.approx(
            s2.probability * s3.probability
        )

    def test_general_case_working_point(self):
        # quoted working point: C_II ~ 0.22, P_II ~ 0.2, C_III ~ 0.47
        cfg = ChannelConfig(
            scenario=partial(0.85), T=0.3, filters=FilterPair(0.12, 0.30)
        )
        s1, s2, s3 = run_protocol(cfg)
        assert concurrence_x(s2.params) == pytest.approx(0.2204, abs=5e-4)
        assert s2.probability == pytest.approx(0.20075, abs=1e-5)
        assert concurrence_x(s3.params) == pytest.approx(0.4704, abs=5e-4)
        assert 0.015 <= s3.cumulative_probability <= 0.019

    @pytest.mark.parametrize(
        "scenario,t",
        [(indistinguishable(), 0.5), (partial(0.85), 0.5), (distinguishable(), 0.0),
         (indistinguishable(), 0.0), (partial(0.85), 0.0)],
    )
    def test_singular_prescription_yields_stages_one_and_two(self, scenario, t):
        outs = run_protocol(ChannelConfig(scenario=scenario, T=t, epsilon=0.25))
        assert [o.stage for o in outs] == ["I", "II"]
        assert outs[0].params == stage1(scenario, t).params
        assert outs[1].params == stage2(scenario, t).params

    def test_stage_three_records_its_filters(self):
        cfg = ChannelConfig(scenario=partial(0.85), T=0.3, epsilon=0.25)
        s3 = run_protocol(cfg)[2]
        assert s3.filters == table_filters(partial(0.85), 0.3, 0.25)
        assert run_protocol(cfg)[1].filters is None

    def test_all_outputs_are_valid_states(self):
        for scenario in (distinguishable(), indistinguishable(), partial(0.3)):
            for t in (0.05, 0.5, 0.95):
                for out in run_protocol(ChannelConfig(scenario=scenario, T=t)):
                    m = out.state
                    where = (scenario.kind, t, out.stage)
                    assert np.max(np.abs(m - m.conj().T)) <= 1e-12, where
                    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -1e-10, where
                    assert abs(np.trace(m) - 1.0) <= 1e-12, where


def _exact_states(p, t, a_a, a_b):
    """Normalized stage I-III matrices in 60-digit arithmetic from float inputs.

    Each stage's entries are the probability-``p`` mixture of the
    per-scenario polynomials, written the way they are usually quoted
    (``xi = -T^2 + R T`` and so on), so the reference shares no
    rearrangement with the closed form under test.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        p, t, a_a, a_b = (Decimal(x) for x in (p, t, a_a, a_b))
        r, q = 1 - t, 1 - p

        def mix(indist, dist):
            return [p * i + q * d for i, d in zip(indist, dist)]

        # (alpha, beta, gamma, delta, xi) and the branch probability P
        s1 = mix(
            [r * r, 1 - 4 * t + 5 * t * t, r * r + 2 * t * t - 2 * r * t, r * r,
             -2 * t * t + 2 * r * t, r * r + t * t - r * t],
            [r * r, r * r + 2 * t * t, r * r + 2 * t * t, r * r, -2 * t * t, r * r + t * t],
        )
        s2 = mix(
            [0, t * t, (2 * t - 1) ** 2, r * r, -t * t + r * t, (r * r + t * t - r * t) / 2],
            [0, t * t, r * r + t * t, r * r, -t * t, (r * r + t * t) / 2],
        )
        alpha, beta, gamma, delta, xi, _ = s2
        s3 = [alpha, a_b * beta, a_a * gamma, a_a * a_b * delta, (a_a * a_b).sqrt() * xi]
        s3.append(sum(s3[:4]) / 4)
        states = []
        for *diagonal, coherence, big_p in (s1, s2, s3):
            m = np.diag([float(d / (4 * big_p)) for d in diagonal]).astype(np.complex128)
            m[1, 2] = -1j * float(coherence / (4 * big_p))
            m[2, 1] = 1j * float(coherence / (4 * big_p))
            states.append(m)
        return states


class TestNearBalancedSplitter:
    """Near T = 1/2 the indistinguishable coherence ``2T - 1`` vanishes and
    the prescribed filters magnify it back to order one, so any cancellation
    in the stage maps shows up in the stage-III state."""

    @pytest.mark.parametrize(
        "scenario", [indistinguishable(), partial(0.85)], ids=["indist", "partial"]
    )
    @pytest.mark.parametrize("t", [0.5 + 2e-9, 0.5 - 2e-9, 0.5 + 1e-7, 0.5 - 1e-7, 0.5 + 1e-5])
    def test_states_match_60_digit_reference(self, scenario, t):
        outs = run_protocol(ChannelConfig(scenario=scenario, T=t, epsilon=1e-6))
        assert [o.stage for o in outs] == ["I", "II", "III"]
        filters = outs[2].filters
        exact = _exact_states(scenario.p, t, filters.a_a, filters.a_b)
        for out, ref in zip(outs, exact):
            assert np.max(np.abs(out.state - ref)) <= 1e-15, out.stage


def _point_configs(kind, t, p, eps, filters, branch, feed_forward):
    """The scalar config of every point of a column config's inputs."""
    for i, ti in enumerate(t.tolist()):
        scenario = partial(float(p[i])) if kind == "partial" else Scenario(kind)
        yield i, ChannelConfig(
            scenario=scenario,
            T=ti,
            branch=branch,
            feed_forward=feed_forward,
            epsilon=None if eps is None else float(eps[i]),
            filters=None if filters is None else FilterPair(*(float(a[i]) for a in filters)),
        )


def _bits(value):
    """IEEE bit patterns of a float, or of a float or complex array: ``-0.0`` is not ``+0.0``."""
    return np.asarray(value).view(np.uint64).tolist()


def _filter_column(kind, branch, feed_forward, swept):
    """A config at T = 0.3 whose only column is ``epsilon`` or the filter pair, and its points.

    ``epsilon = 1e-300`` filters the H branch (and feed-forward) down to zero trace.
    """
    rng = np.random.default_rng(20261018)
    eps = np.concatenate([[1e-300, 1e-12, 1.0], 10.0 ** rng.uniform(-12, 0, 9)])
    pair = (rng.uniform(1e-6, 1.0, eps.size), np.concatenate([[1.0], rng.uniform(1e-6, 1.0, 11)]))
    scenario = partial(0.85) if kind == "partial" else Scenario(kind)
    config = ChannelConfig(scenario, T=0.3, branch=branch, feed_forward=feed_forward)
    if swept == "epsilon":
        column = dataclasses.replace(config, epsilon=eps)
        points = [dataclasses.replace(config, epsilon=e) for e in eps.tolist()]
    else:
        column = dataclasses.replace(config, filters=FilterPair(*pair))
        points = [dataclasses.replace(config, filters=FilterPair(*f)) for f in zip(*pair)]
    return column, points


class TestColumns:
    """A column of points runs the same code as each point alone."""

    @pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable", "partial"])
    @pytest.mark.parametrize("branch,feed_forward", [("H", False), ("V", False), ("V", True)])
    @pytest.mark.parametrize("explicit", [False, True], ids=["epsilon", "filters"])
    def test_rows_equal_single_points(self, kind, branch, feed_forward, explicit):
        rng = np.random.default_rng(20261018)
        edges = [0.0, 1.0, 0.5, 0.5 + 1e-10, 0.5 - 1e-10, 0.25, 1e-200]
        t = np.concatenate([edges, rng.uniform(0.0, 1.0, 13)])
        n = t.size
        p = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
        # epsilon = 1e-300 filters at least the T = 1/4 point (index 5) down to zero trace
        eps = np.concatenate(
            [[1e-12, 1.0, 1e-12, 1e-300, 1e-12, 1e-300], 10.0 ** rng.uniform(-12, 0, n - 6)]
        )
        filters = (
            rng.uniform(1e-6, 1.0, n),
            np.concatenate([[1.0], rng.uniform(1e-6, 1.0, n - 1)]),
        )
        if explicit:
            eps = None
        else:
            filters = None
        config = ChannelConfig(
            scenario=partial(p) if kind == "partial" else Scenario(kind),
            T=t,
            branch=branch,
            feed_forward=feed_forward,
            epsilon=eps,
            filters=None if filters is None else FilterPair(*filters),
        )
        s1, s2, s3 = run_protocol(config)
        row_3 = np.cumsum(s3.kept) - 1
        masked = 0
        for i, point in _point_configs(kind, t, p, eps, filters, branch, feed_forward):
            try:
                outs = run_protocol(point)
            except ZeroTrace:
                # a point filtered to zero trace raises alone and is masked in a column
                assert not s3.kept[i] and not np.isnan(resolve_filters(config).a_a[i])
                masked += 1
                continue
            assert len(outs) == (3 if s3.kept[i] else 2), i
            for column, j, out in zip((s1, s2, s3), (i, i, row_3[i]), outs):
                # the point on floats has its column row's bits, signed zeros included
                entries = {k: _bits(v[j]) for k, v in vars(column.params).items()}
                assert entries == {k: _bits(v) for k, v in vars(out.params).items()}, (i, out.stage)
                assert _bits(column.state[j]) == _bits(out.state), (i, out.stage)
                # the point owns its floats and its matrix, not a view into the column
                assert all(type(v) is float for v in vars(out.params).values())
                assert out.state.flags.owndata, (i, out.stage)
                assert _bits(column.probability[j]) == _bits(out.probability), (i, out.stage)
                assert _bits(column.cumulative_probability[j]) == _bits(
                    out.cumulative_probability
                ), (i, out.stage)
            if s3.kept[i]:
                assert _bits([s3.filters.a_a[row_3[i]], s3.filters.a_b[row_3[i]]]) == _bits(
                    [outs[2].filters.a_a, outs[2].filters.a_b]
                )
                assert concurrence_x(s3.params)[row_3[i]] == concurrence_x(outs[2].params)
        assert s3.params.alpha.size == np.count_nonzero(s3.kept)
        # T = 0 is singular in every scenario; with explicit filters nothing is masked
        assert s3.kept[0] == explicit
        # the flipped V branch keeps R^2 in alpha, which no filter touches
        assert (masked > 0) == (not explicit and (branch == "H" or feed_forward))

    def test_scalar_inputs_give_floats(self):
        outs = run_protocol(ChannelConfig(scenario=partial(0.85), T=0.3, epsilon=0.25))
        for out in outs:
            assert all(type(v) is float for v in dataclasses.astuple(out.params))
            assert type(out.probability) is float
            assert type(out.cumulative_probability) is float
            assert type(out.state) is np.ndarray and out.state.dtype == np.complex128
            assert out.state.shape == (4, 4)
            assert out.kept is None
        assert type(outs[2].filters.a_a) is float

    @pytest.mark.parametrize("engine", [run_protocol, oracle_protocol], ids=["closed", "oracle"])
    def test_point_state_is_row_zero_of_its_column_stack(self, engine):
        point = ChannelConfig(scenario=partial(0.85), T=0.3, epsilon=0.25, branch="V",
                              feed_forward=True)
        column = dataclasses.replace(point, T=np.array([0.3]))
        outs, rows = engine(point), engine(column)
        assert [o.stage for o in outs] == [r.stage for r in rows] == ["I", "II", "III"]
        for out, row in zip(outs, rows):
            assert type(out.state) is np.ndarray and out.state.shape == (4, 4)
            assert np.array_equal(out.state, row.state[0]), out.stage

    def test_a_float_stage_call_is_row_zero_of_its_column(self):
        # each stage function is its own door: floats in, floats and an owned state out
        pair = FilterPair(0.4, 0.7)
        doors = (
            stage1,
            lambda s, t: stage2(s, t, branch="V", feed_forward=True),
            lambda s, t: apply_filters(stage2(s, t), pair),
        )
        for door in doors:
            point = door(partial(0.85), 0.3)
            row = door(partial(np.array([0.85])), np.array([0.3]))
            assert all(type(v) is float for v in dataclasses.astuple(point.params))
            assert type(point.probability) is float
            assert type(point.cumulative_probability) is float
            assert type(point.state) is np.ndarray and point.state.flags.owndata
            assert point.kept is None
            # bit patterns, which tell -0.0 from +0.0 (stage II's alpha is a zero)
            assert _bits(dataclasses.astuple(point.params)) == _bits(
                [v[0] for v in dataclasses.astuple(row.params)]
            )
            assert _bits([point.probability, point.cumulative_probability]) == _bits(
                [row.probability[0], row.cumulative_probability[0]]
            )
            assert _bits(point.state) == _bits(row.state[0])
        assert _bits([point.filters.a_a, point.filters.a_b]) == _bits(
            [row.filters.a_a[0], row.filters.a_b[0]]
        )
        with pytest.raises(ZeroTrace):
            apply_filters(stage2(partial(0.85), 0.1), table_filters(partial(0.85), 0.1, 1e-300))

    def test_zero_trace_is_masked_in_a_column_and_raised_alone(self):
        t = np.array([0.1, 0.9])
        s1, s2, s3 = run_protocol(ChannelConfig(scenario=partial(0.85), T=t, epsilon=1e-300))
        assert s3.kept.tolist() == [False, True]
        assert s1.probability.size == s2.probability.size == 2
        with pytest.raises(ZeroTrace):
            run_protocol(ChannelConfig(scenario=partial(0.85), T=0.1, epsilon=1e-300))

    @pytest.mark.parametrize("t", [0.0, 0.5, 1e-300, 0.3])
    def test_p_column_at_a_scalar_t_gives_three_outputs(self, t):
        p = np.array([0.0, 0.85, 1.0])
        config = ChannelConfig(scenario=partial(p), T=t, epsilon=0.4)
        s1, s2, s3 = run_protocol(config)
        singular = t != 0.3
        assert s3.kept.tolist() == [not singular] * 3
        for i, p_i in enumerate(p.tolist()):
            outs = run_protocol(ChannelConfig(scenario=partial(p_i), T=t, epsilon=0.4))
            assert len(outs) == (2 if singular else 3)
            for column, out in zip((s1, s2), outs):
                assert {k: v[i] for k, v in vars(column.params).items()} == vars(out.params)

    @pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable", "partial"])
    @pytest.mark.parametrize("branch,feed_forward", [("H", False), ("V", False), ("V", True)])
    @pytest.mark.parametrize("swept", ["epsilon", "filters"])
    def test_filter_column_gives_one_point_stages_one_and_two(
        self, kind, branch, feed_forward, swept
    ):
        config, points = _filter_column(kind, branch, feed_forward, swept)
        s1, s2, s3 = run_protocol(config)
        scenario, t = config.scenario, config.T
        # stages I-II depend on (p, T) only: one point, equal to the single-point call
        alone = (stage1(scenario, t), stage2(scenario, t, branch, feed_forward))
        for column, out in zip((s1, s2), alone):
            assert column.probability.shape == (1,) and column.state.shape == (1, 4, 4)
            assert {k: v[0] for k, v in vars(column.params).items()} == vars(out.params)
            assert np.array_equal(column.state[0], out.state)
            assert column.probability[0] == out.probability
            assert column.cumulative_probability[0] == out.cumulative_probability
        assert s3.kept.size == len(points)
        row_3 = np.cumsum(s3.kept) - 1
        for i, point in enumerate(points):
            try:
                outs = run_protocol(point)
            except ZeroTrace:
                assert not s3.kept[i]
                continue
            assert len(outs) == 2 + s3.kept[i], i
            for column, out in zip((s1, s2), outs):
                assert {k: v[0] for k, v in vars(column.params).items()} == vars(out.params)
            if s3.kept[i]:
                j = row_3[i]
                assert {k: v[j] for k, v in vars(s3.params).items()} == vars(outs[2].params)
                assert np.array_equal(s3.state[j], outs[2].state), i
                assert s3.probability[j] == outs[2].probability, i
                assert s3.cumulative_probability[j] == outs[2].cumulative_probability, i
                assert s3.filters.a_a[j] == outs[2].filters.a_a, i
                assert s3.filters.a_b[j] == outs[2].filters.a_b, i

    def test_column_range_check_names_the_first_bad_value(self):
        with pytest.raises(ValueError, match=r"T must lie in \[0, 1\], got 1.25"):
            ChannelConfig(scenario=distinguishable(), T=np.array([0.5, 1.25, 2.0]))
        with pytest.raises(ValueError, match=r"needs p in \[0, 1\], got nan"):
            partial(np.array([0.5, math.nan]))
        with pytest.raises(ValueError, match=r"a_b must lie in \(0, 1\], got 0.0"):
            FilterPair(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_one_wrap_converts_every_column(self, monkeypatch):
        # a columns call converts when it returns a value other than the one it was given:
        # a point stays on floats and converts nothing; for a column, the wrap converts
        # (p, T) once and the filter pair once, and the engines pass every column through;
        # the oracle wraps a point as a column. For each of the wrap's three filter branches
        converted = []
        columns = protocol.columns

        def counting(*values):
            given, scalar = columns(*values)
            converted.append(any(g is not v for g, v in zip(given, values)))
            return given, scalar

        monkeypatch.setattr(protocol, "columns", counting)

        def conversions(engine, config):
            converted.clear()
            engine(config)
            return sum(converted)

        t = np.linspace(0.0, 1.0, 4096)
        for filters in ({"epsilon": 0.25}, {"filters": FilterPair(0.3, 0.65)}, {}):
            point = ChannelConfig(partial(0.85), 0.3, branch="V", feed_forward=True, **filters)
            assert conversions(run_protocol, point) == 0, filters
            assert conversions(run_protocol, dataclasses.replace(point, T=t)) == 2, filters
            assert conversions(oracle_protocol, point) <= 2, filters
