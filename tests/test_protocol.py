import math

import numpy as np
import pytest

from ebrsim.core import DensityOperator, ZeroTrace, singlet_vector
from ebrsim.metrics import concurrence_x
from ebrsim.protocol import (
    ChannelConfig,
    FilterPair,
    Scenario,
    SingularPrescription,
    apply_filters,
    distinguishable,
    indistinguishable,
    mix_partial,
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
            target = DensityOperator.from_pure(singlet_vector())
            assert np.allclose(out.state.matrix, target.matrix, atol=1e-14)
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
            assert np.allclose(v.state.matrix, h.state.matrix, atol=1e-15)
            assert v.probability == h.probability
            assert v.cumulative_probability == pytest.approx(2 * h.probability)

    def test_feed_forward_doubles_cumulative_only(self):
        plain = stage2(distinguishable(), 0.44)
        both = stage2(distinguishable(), 0.44, feed_forward=True)
        assert both.probability == plain.probability
        assert both.cumulative_probability == pytest.approx(
            2 * plain.cumulative_probability
        )

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

    def test_mix_partial_function_agrees(self):
        t = 0.45
        d = stage1(distinguishable(), t).params
        i = stage1(indistinguishable(), t).params
        m = mix_partial(i, d, 0.6)
        s = stage1(partial(0.6), t).params
        assert m == s

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
        assert np.allclose(same.state.matrix, out.state.matrix, atol=1e-15)
        assert same.probability == pytest.approx(1.0)

    def test_filtering_is_physical(self):
        # KrhoK^dag with K = diag(1, sqrt(A)) per arm reproduces the entry map
        from ebrsim.core import apply_local, normalize

        out = stage2(partial(0.6), 0.37)
        a_a, a_b = 0.41, 0.77
        filtered = apply_filters(out, FilterPair(a_a, a_b))
        k_a = np.diag([1.0, math.sqrt(a_a)])
        k_b = np.diag([1.0, math.sqrt(a_b)])
        direct = apply_local(out.state, k_a, k_b)
        direct_state, passed = normalize(direct)
        assert np.allclose(direct_state.matrix, filtered.state.matrix, atol=1e-14)
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


class TestRunProtocol:
    def test_composes_stages(self):
        cfg = ChannelConfig(
            scenario=partial(0.85), T=0.3, filters=FilterPair(0.12, 0.30)
        )
        s1, s2, s3 = run_protocol(cfg)
        assert (s1.stage, s2.stage, s3.stage) == ("I", "II", "III")
        ref2 = stage2(partial(0.85), 0.3)
        assert np.allclose(s2.state.matrix, ref2.state.matrix, atol=1e-15)
        ref3 = apply_filters(ref2, FilterPair(0.12, 0.30))
        assert np.allclose(s3.state.matrix, ref3.state.matrix, atol=1e-15)
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
        from ebrsim.core import validate

        for scenario in (distinguishable(), indistinguishable(), partial(0.3)):
            for t in (0.05, 0.5, 0.95):
                for out in run_protocol(ChannelConfig(scenario=scenario, T=t)):
                    report = validate(out.state)
                    assert report.ok, (scenario.kind, t, out.stage)
