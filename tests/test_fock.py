import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ebrsim import fock
from ebrsim.core import InvalidParameter, ZeroTrace
from ebrsim.fock import (
    MAX_GRID_POINTS,
    FockState,
    ModeLabel,
    OracleCheckReport,
    STAGES,
    ScenarioDeviations,
    ZeroProbability,
    _occupation_factor,
    conditional_state,
    evolve_bs,
    feed_forward_correction,
    hom_coincidence,
    oracle_check,
    oracle_protocol,
    postselect_one_per_arm,
    prepare_input,
)
from ebrsim.metrics import XStateParams, concurrence_x
from ebrsim.protocol import (
    ChannelConfig,
    FilterPair,
    distinguishable,
    indistinguishable,
    partial,
    resolve_filters,
    run_protocol,
    table_filters,
)


def key(*modes):
    return tuple(sorted(ModeLabel(*m) for m in modes))


class TestFockBasics:
    def test_occupation_factors(self):
        single = key(("A", "H", 0), ("B", "V", 0))
        assert _occupation_factor(single) == 1.0
        double = key(("B", "H", 0), ("B", "H", 0))
        assert _occupation_factor(double) == pytest.approx(math.sqrt(2))
        triple = key(("B", "H", 0), ("B", "H", 0), ("B", "H", 0))
        assert _occupation_factor(triple) == pytest.approx(math.sqrt(6))

    def test_prepare_input_structure(self):
        state = prepare_input(indistinguishable(), "H")
        assert len(next(iter(state.amps))) == 3
        assert sum(abs(a) ** 2 for a in state.amps.values()) == pytest.approx(1.0)
        bins = {m.time_bin for k in state.amps for m in k if m.path == "E"}
        assert bins == {0}
        state = prepare_input(distinguishable(), "V")
        bins = {m.time_bin for k in state.amps for m in k if m.path == "E"}
        assert bins == {1}

    def test_prepare_input_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            prepare_input(indistinguishable(), "D")
        with pytest.raises(ValueError):
            prepare_input(partial(0.5), "H")

    def test_singlet_relative_phase(self):
        state = prepare_input(distinguishable(), "H")
        hv = state.amps[key(("A", "H", 0), ("B", "V", 0), ("E", "H", 1))]
        vh = state.amps[key(("A", "V", 0), ("B", "H", 0), ("E", "H", 1))]
        assert vh / hv == pytest.approx(-1j)


class TestBeamSplitter:
    @pytest.mark.parametrize("convention", ["real", "phase"])
    @pytest.mark.parametrize("t", [0.0, 0.17, 0.5, 0.83, 1.0])
    def test_norm_preserved(self, convention, t):
        state = prepare_input(indistinguishable(), "H")
        evolved = evolve_bs(state, t, convention)
        assert sum(abs(a) ** 2 for a in evolved.amps.values()) == pytest.approx(1.0, abs=1e-12)

    def test_transparent_at_t_one(self):
        state = FockState({key(("B", "H", 0),): 1.0 + 0j})
        evolved = evolve_bs(state, 1.0)
        assert evolved.amps == {key(("B'", "H", 0),): 1.0 + 0j}

    def test_swap_at_t_zero(self):
        state = FockState({key(("B", "H", 0),): 1.0 + 0j})
        evolved = evolve_bs(state, 0.0)
        # full reflection routes B into E' (with the convention's sign)
        assert set(evolved.amps) == {key(("E'", "H", 0),)}
        assert abs(evolved.amps[key(("E'", "H", 0),)]) == pytest.approx(1.0)

    def test_acts_per_submode(self):
        # photons in different time bins do not mix
        state = FockState({key(("B", "H", 0), ("E", "H", 1)): 1.0 + 0j})
        evolved = evolve_bs(state, 0.5)
        for k in evolved.amps:
            bins = sorted(m.time_bin for m in k)
            assert bins == [0, 1]

    def test_bosonic_bunching_at_balanced_splitter(self):
        # two indistinguishable photons never exit separately at T = 1/2
        state = FockState({key(("B", "H", 0), ("E", "H", 0)): 1.0 + 0j})
        evolved = evolve_bs(state, 0.5)
        coincidence = sum(
            abs(a) ** 2
            for k, a in evolved.amps.items()
            if {m.path for m in k} == {"B'", "E'"}
        )
        assert coincidence == pytest.approx(0.0, abs=1e-12)
        assert sum(abs(a) ** 2 for a in evolved.amps.values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_t_and_convention(self):
        state = FockState({key(("B", "H", 0),): 1.0 + 0j})
        with pytest.raises(ValueError, match=r"T must lie in \[0, 1\], got 1.2"):
            evolve_bs(state, 1.2)
        with pytest.raises(ValueError):
            evolve_bs(state, 0.5, "sideways")

    @pytest.mark.parametrize("t", [np.array([0.2, 0.5, 0.7]), 0.5])
    def test_rejects_amplitude_column_not_broadcasting_to_t(self, t):
        state = FockState({key(("B", "H", 0),): np.array([1.0, 0.5j])})
        shapes = rf"\(2,\) does not broadcast to T's shape {re.escape(str(np.shape(t)))}"
        with pytest.raises(InvalidParameter, match=shapes):
            evolve_bs(state, t)


class TestPostselection:
    def test_probability_matches_kept_weight(self):
        state = evolve_bs(prepare_input(distinguishable(), "H"), 0.3)
        selected, prob = postselect_one_per_arm(state)
        assert sum(abs(a) ** 2 for a in selected.amps.values()) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < prob < 1.0
        for k in selected.amps:
            assert sum(1 for m in k if m.path == "B'") == 1
            assert sum(1 for m in k if m.path == "E'") == 1

    def test_raises_when_nothing_survives(self):
        bunched = FockState({key(("B'", "H", 0), ("B'", "H", 0)): 1.0 + 0j})
        with pytest.raises(ZeroProbability):
            postselect_one_per_arm(bunched)


class TestConditionalState:
    def test_outcomes_partition_the_trace(self):
        state = evolve_bs(prepare_input(indistinguishable(), "H"), 0.35)
        selected, _ = postselect_one_per_arm(state)
        both = conditional_state(selected, None)
        h = conditional_state(selected, "H")
        v = conditional_state(selected, "V")
        # complex amplitudes give one (4, 4) operator each
        assert both.shape == h.shape == v.shape == (4, 4)
        assert np.allclose(h + v, both, atol=1e-14)
        assert np.trace(h).real + np.trace(v).real == pytest.approx(np.trace(both).real)

    def test_trace_is_branch_probability(self):
        state = evolve_bs(prepare_input(distinguishable(), "V"), 0.5)
        selected, _ = postselect_one_per_arm(state)
        both = conditional_state(selected, None)
        assert np.trace(both).real == pytest.approx(1.0, abs=1e-12)

    def test_requires_postselected_input(self):
        with pytest.raises(ValueError):
            conditional_state(prepare_input(distinguishable(), "H"))
        state = evolve_bs(prepare_input(distinguishable(), "H"), 0.3)
        selected, _ = postselect_one_per_arm(state)
        with pytest.raises(ValueError):
            conditional_state(selected, "D")


def _reference_evolve_bs(state, t, convention):
    """The per-term routing loop ``evolve_bs`` replays, one term at a time."""
    t = np.asarray(t, dtype=np.float64)
    row_b, row_e = fock._bs_rows(t, convention)
    out = {}
    for k, amp in state.amps.items():
        coeff = np.full(t.shape, amp / _occupation_factor(k), dtype=np.complex128)
        options = []
        for mode in k:
            if mode.path in ("B", "E"):
                row = row_b if mode.path == "B" else row_e
                options.append(
                    [(mode._replace(path="B'"), row[0]), (mode._replace(path="E'"), row[1])]
                )
            else:
                options.append([(mode, 1.0 + 0.0j)])
        for combo in itertools.product(*options):
            factor = coeff
            for _, c in combo:
                factor = factor * c
            new_key = tuple(sorted(m for m, _ in combo))
            out[new_key] = out.get(new_key, 0.0j) + factor
    amps = {}
    for k, monomial in out.items():
        value = monomial * _occupation_factor(k)
        if np.any(value != 0.0):
            amps[k] = value
    return FockState(amps)


def _reference_postselect(state):
    kept = {
        k: a
        for k, a in state.amps.items()
        if sum(m.path == "B'" for m in k) == 1 and sum(m.path == "E'" for m in k) == 1
    }
    probability = sum(abs(a) ** 2 for a in kept.values())
    if np.any(probability <= fock.ZERO_TRACE_FLOOR):
        raise ZeroProbability("no amplitude with one photon per output arm")
    scale = 1.0 / np.sqrt(probability)
    return FockState({k: a * scale for k, a in kept.items()}), probability


def _reference_conditional_state(state, outcome):
    shape = np.broadcast_shapes(*(np.shape(a) for a in state.amps.values()))
    vectors = {}
    for k, amp in state.amps.items():
        (a_mode,) = [m for m in k if m.path == "A"]
        (b_mode,) = [m for m in k if m.path == "B'"]
        (e_mode,) = [m for m in k if m.path == "E'"]
        if outcome is not None and e_mode.pol != outcome:
            continue
        vec = vectors.setdefault(
            (a_mode.time_bin, b_mode.time_bin, e_mode), np.zeros(shape + (4,), dtype=np.complex128)
        )
        vec[..., 2 * "HV".index(a_mode.pol) + "HV".index(b_mode.pol)] += amp
    rho = np.zeros(shape + (4, 4), dtype=np.complex128)
    for vec in vectors.values():
        rho += vec[..., :, None] * vec[..., None, :].conj()
    return rho


def _bits(value):
    """An amplitude or operator's type, shape and IEEE bit patterns, signed zeros included."""
    bits = np.array(value, dtype=np.complex128, ndmin=1).view(np.uint64)
    return type(value), np.shape(value), bits.tolist()


def _assert_same_state(state, reference):
    assert list(state.amps) == list(reference.amps)
    for k in reference.amps:
        assert _bits(state.amps[k]) == _bits(reference.amps[k]), k


EDGE_T = [0.0, 0.5, 0.5 + 1e-10, 1.0, 5e-324]
# the column adds generic points, where the order of a term's products shows
COLUMN_T = np.array(EDGE_T + [0.3, 0.77, 0.123456789])
SQRT_HALF = 1.0 / math.sqrt(2.0)

# 1-, 2- and 3-photon states, with bunched inputs and outputs (occupation
# factor sqrt 2 and sqrt 6), signed-zero amplitudes and mixed photon numbers
ROUTING_STATES = {
    "one": FockState({key(("B", "H", 0)): 0.6 - 0.8j, key(("E", "V", 1)): complex(-0.0, 1.0)}),
    "hom": FockState({key(("B", "H", 0), ("E", "H", 0)): 1.0 + 0.0j}),
    "bunched": FockState({key(("B", "H", 0), ("B", "H", 0)): SQRT_HALF + 0.0j,
                          key(("E", "V", 0), ("E", "V", 0)): complex(-0.0, -SQRT_HALF)}),
    "mixed": FockState({key(("B", "V", 1)): complex(-0.5, -0.0),
                        key(("A", "H", 0), ("E", "H", 0)): 0.5j,
                        key(("B", "V", 1), ("E", "V", 1)): -0.5 + 0.5j}),
    "triple": FockState({key(("B", "H", 0), ("B", "H", 0), ("E", "H", 0)): 1.0 + 0.0j}),
    # three configurations whose routings meet: B'E' sums six terms, in order
    "merging": FockState({key(("B", "H", 0), ("E", "H", 0)): 0.6 + 0.1j,
                          key(("B", "H", 0), ("B", "H", 0)): -0.3 + 0.7j,
                          key(("E", "H", 0), ("E", "H", 0)): 0.2 - 0.4j}),
    **{
        f"{kind}-{env}": prepare_input(scenario, env)
        for kind, scenario in (("dist", distinguishable()), ("indist", indistinguishable()))
        for env in ("H", "V")
    },
}


class TestRoutingCore:
    """evolve_bs, postselect_one_per_arm and conditional_state replay their
    plans with the per-term loops' IEEE operations, bit for bit."""

    @pytest.mark.parametrize("convention", ["real", "phase"])
    @pytest.mark.parametrize("t", EDGE_T + [COLUMN_T], ids=[*map(repr, EDGE_T), "column"])
    @pytest.mark.parametrize("name", list(ROUTING_STATES))
    def test_evolve_bs_bits(self, name, t, convention):
        state = ROUTING_STATES[name]
        reference = _reference_evolve_bs(state, t, convention)
        _assert_same_state(evolve_bs(state, t, convention), reference)

    def test_column_amplitudes(self):
        t = np.array(EDGE_T)
        amps = np.array([1.0, -0.0, 0.5j, complex(-0.0, -0.0), -1.0]) + 0.0j
        state = FockState({key(("B", "H", 0), ("E", "H", 0)): amps, key(("B", "V", 1)): 1j * amps})
        _assert_same_state(evolve_bs(state, t), _reference_evolve_bs(state, t, "real"))

    @pytest.mark.parametrize("convention", ["real", "phase"])
    @pytest.mark.parametrize("t", EDGE_T + [COLUMN_T[1:]], ids=[*map(repr, EDGE_T), "column"])
    @pytest.mark.parametrize("name", [n for n in ROUTING_STATES if "-" in n])
    def test_postselect_and_conditional_bits(self, name, t, convention):
        evolved = _reference_evolve_bs(ROUTING_STATES[name], t, convention)
        try:
            reference, probability = _reference_postselect(evolved)
        except ZeroProbability:
            with pytest.raises(ZeroProbability):
                postselect_one_per_arm(evolved)
            return
        selected, p_select = postselect_one_per_arm(evolved)
        _assert_same_state(selected, reference)
        assert _bits(p_select) == _bits(probability)
        for outcome in (None, "H", "V"):
            assert _bits(conditional_state(selected, outcome)) == _bits(
                _reference_conditional_state(reference, outcome)
            ), outcome

    # one time bin: an outcome keeps one group, whose unfed slots meet negative
    # parts as signed zeros; two bins: each entry sums four groups in order
    @pytest.mark.parametrize("bins", [(0,), (0, 1)])
    @pytest.mark.parametrize("shape", [(), (6,)])
    def test_conditional_state_sums_groups_from_zero_in_order(self, shape, bins):
        rng = np.random.default_rng(7)
        modes = [(pol, b) for pol in "HV" for b in bins]
        amps = {}
        for a_mode, b_mode, e_mode in itertools.product(modes, repeat=3):
            if rng.random() < 0.75:
                value = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                value = np.where(rng.random(shape) < 0.2, complex(-0.0, -0.0), value)
                amps[key(("A", *a_mode), ("B'", *b_mode), ("E'", *e_mode))] = value[()]
        state = FockState(amps)
        for outcome in (None, "H", "V"):
            assert _bits(conditional_state(state, outcome)) == _bits(
                _reference_conditional_state(state, outcome)
            ), outcome


class TestRoutingPlans:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Each plan builder's calls, counted from an empty plan cache."""
        fock._plan.cache_clear()
        calls = {name: _counting(monkeypatch, name) for name in ("_route", "_selection", "_feeds")}
        yield calls
        fock._plan.cache_clear()

    def test_second_oracle_check_builds_no_plan(self, builds):
        first = oracle_check(0.02)
        # four preparations: one routing each, a selection per surviving set of
        # configurations, and a feed per selection and outcome
        assert [len(builds[name]) for name in ("_route", "_selection", "_feeds")] == [4, 4, 8]
        done = {name: len(calls) for name, calls in builds.items()}
        second = oracle_check(0.02)
        assert {name: len(calls) for name, calls in builds.items()} == done
        _assert_same_report(second, first)

    def test_errors_raise_on_every_call(self, builds):
        four = FockState({key(*[("B", "H", 0)] * 4): 1.0 + 0.0j})
        unselected = prepare_input(distinguishable(), "H")
        selected, _ = postselect_one_per_arm(evolve_bs(unselected, 0.3))
        for attempt in (1, 2):
            with pytest.raises(InvalidParameter, match="MAX_PHOTONS"):
                evolve_bs(four, 0.5)
            with pytest.raises(InvalidParameter, match="one-per-arm"):
                conditional_state(unselected)
            with pytest.raises(InvalidParameter, match="outcome"):
                conditional_state(selected, "D")
            # a failed build is not cached, so each call builds again
            assert len(builds["_route"]) == 1 + attempt
            assert len(builds["_feeds"]) == attempt


def test_feed_forward_correction_is_unitary():
    k_a, k_b = feed_forward_correction()
    assert np.allclose(k_a @ k_a.conj().T, np.eye(2), atol=1e-15)
    assert np.allclose(k_b @ k_b.conj().T, np.eye(2), atol=1e-15)
    # both act as polarization flips on populations
    assert abs(k_a[0, 1]) == 1.0 and abs(k_b[0, 1]) == 1.0


class TestHom:
    def test_perfect_dip_for_full_overlap(self):
        assert hom_coincidence(0.5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_no_dip_for_no_overlap(self):
        assert hom_coincidence(0.5, 0.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t", [0.2, 0.5, 0.77])
    @pytest.mark.parametrize("p", [0.0, 0.4, 0.85, 1.0])
    def test_matches_closed_form(self, t, p):
        r = 1.0 - t
        expected = (r * r + t * t) - 2.0 * p * r * t
        assert hom_coincidence(t, p) == pytest.approx(expected, abs=1e-12)

    def test_visibility_equals_overlap(self):
        base = hom_coincidence(0.5, 0.0)
        for p in (0.25, 0.6, 0.85):
            vis = (base - hom_coincidence(0.5, p)) / base
            assert vis == pytest.approx(p, abs=1e-12)

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            hom_coincidence(0.5, 1.4)


class TestOracleAgainstClosedForm:
    @pytest.mark.parametrize("convention", ["real", "phase"])
    def test_matches_run_protocol(self, convention):
        scenarios = [distinguishable(), indistinguishable(), partial(0.6)]
        for scenario in scenarios:
            for t in (0.15, 0.5, 0.85):
                cfg = ChannelConfig(
                    scenario=scenario, T=t, filters=FilterPair(0.4, 0.8)
                )
                closed = run_protocol(cfg)
                oracle = oracle_protocol(cfg, convention)
                for ref, alt in zip(closed, oracle):
                    dev = float(np.max(np.abs(ref.state - alt.state)))
                    assert dev <= 1e-12, (scenario.kind, t, ref.stage, convention)
                    assert alt.probability == pytest.approx(ref.probability, abs=1e-12)
                    assert alt.cumulative_probability == pytest.approx(
                        ref.cumulative_probability, abs=1e-12
                    )

    def test_covers_v_branch_and_feed_forward(self):
        for ff in (False, True):
            cfg = ChannelConfig(
                scenario=partial(0.35), T=0.62, branch="V", feed_forward=ff
            )
            closed = run_protocol(cfg)
            oracle = oracle_protocol(cfg)
            for ref, alt in zip(closed, oracle):
                assert np.allclose(ref.state, alt.state, atol=1e-12)
                assert alt.cumulative_probability == pytest.approx(
                    ref.cumulative_probability, abs=1e-12
                )


class TestOracleCheck:
    def test_clean_report_on_coarse_grid(self):
        report = oracle_check(grid_step=0.25, epsilons=(1.0, 0.25))
        assert report.ok
        assert report.max_state_deviation <= 1e-12
        assert report.max_probability_deviation <= 1e-12
        kinds = [check.kind for check in report.scenarios]
        assert kinds == ["distinguishable", "indistinguishable", "partial"]

    def test_every_stage_is_compared_at_the_balanced_splitter(self):
        # the indistinguishable prescription at T = 1/2 is the unit pair: its stage III
        # is stage II, and it is compared like every other tuple
        report = oracle_check(grid_step=0.25, epsilons=(1.0,))
        assert all(check.points == 3 * 3 for check in report.scenarios)
        check = report.scenarios[1]
        assert check.kind == "indistinguishable"
        half = report.T.tolist().index(0.5)
        # the state and cumulative deviations; stage III's own probability is the pass ratio
        stage_2, stage_3 = check.deviations[half, 0, 1:]
        assert np.array_equal(stage_3[::2], stage_2[::2])
        config = ChannelConfig(scenario=indistinguishable(), T=0.5, epsilon=1.0)
        for outs in (run_protocol(config), oracle_protocol(config)):
            assert outs[2].params == outs[1].params

    def test_impossible_tolerance_reports_failures(self):
        report = oracle_check(grid_step=0.25, epsilons=(1.0,), tol=0.0)
        assert not report.ok
        assert 0.0 < report.first_failure.deviation
        worst = max(report.max_state_deviation, report.max_probability_deviation)
        assert worst <= 1e-12  # only round-off level deviations exist

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, math.inf])
    def test_rejects_vacuous_tolerance(self, tol):
        with pytest.raises(InvalidParameter, match="tol"):
            oracle_check(grid_step=0.25, tol=tol)

    def test_zero_trace_point_raises(self):
        # epsilon = 1e-300 filters the small-T points of the grid to zero trace
        with pytest.raises(ZeroTrace):
            oracle_check(grid_step=0.25, epsilons=(1e-300,))

    def test_rejects_empty_epsilons(self):
        with pytest.raises(InvalidParameter, match="epsilons"):
            oracle_check(grid_step=0.25, epsilons=())

    @pytest.mark.parametrize(
        "grid_step",
        [
            0.0,
            -0.1,
            math.nan,
            math.inf,
            # k * step for k = 1 .. round(1/step) - 1 is empty above 2/3
            0.7,
            0.9,
            # 1/step overflows to inf, or the grid is over the cap
            5e-324,
            1e-9,
            1.0 / (MAX_GRID_POINTS + 2),
        ],
    )
    def test_rejects_grid_without_points_or_over_cap(self, grid_step):
        with pytest.raises(InvalidParameter, match="grid_step"):
            oracle_check(grid_step=grid_step)


def _reference_oracle_check(grid_step, epsilons, convention="real"):
    """Scenario-major loop of single-point closed-form and oracle calls.

    Returns one ``(kind, T, epsilon, stage, state, probability,
    cumulative)`` deviation tuple per stage.
    """
    records = []
    for scenario in (distinguishable(), indistinguishable(), partial(0.5)):
        for t in [k * grid_step for k in range(1, round(1.0 / grid_step))]:
            for eps in epsilons:
                config = ChannelConfig(scenario=scenario, T=t, epsilon=eps)
                closed = run_protocol(config)
                oracle = oracle_protocol(config, convention)
                assert len(oracle) == len(closed) == 3
                for ref, alt in zip(closed, oracle):
                    records.append(
                        (
                            scenario.kind,
                            t,
                            eps,
                            ref.stage,
                            float(np.max(np.abs(ref.state - alt.state))),
                            abs(ref.probability - alt.probability),
                            abs(ref.cumulative_probability - alt.cumulative_probability),
                        )
                    )
    return records


def _counting(monkeypatch, name):
    """Replace ``fock.<name>`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(fock, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fock, name, counting)
    return calls


def _assert_same_stages(left, right):
    assert [o.stage for o in left] == [o.stage for o in right]
    for a, b in zip(left, right):
        for name in ("alpha", "beta", "gamma", "delta", "xi", "P"):
            assert np.array_equal(getattr(a.params, name), getattr(b.params, name)), name
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.probability, b.probability)
        assert np.array_equal(a.cumulative_probability, b.cumulative_probability)
        assert np.array_equal(a.kept, b.kept)


class TestPureBranchReuse:
    @pytest.fixture(scope="class")
    def reference_002(self):
        return _reference_oracle_check(0.02, (1.0, 0.25))

    def test_oracle_check_evolves_four_preparations_over_the_grid(self, monkeypatch):
        evolved = _counting(monkeypatch, "evolve_bs")
        closed = _counting(monkeypatch, "run_protocol")
        protocols = _counting(monkeypatch, "oracle_protocol")
        conditionals = _counting(monkeypatch, "conditional_state")
        oracle_check(grid_step=0.25, epsilons=(1.0, 0.25))
        # two kinds times two environment polarizations, each over the whole grid
        assert len(evolved) == 4
        for _, t, _ in evolved:
            assert t.tolist() == [0.25, 0.5, 0.75]
        # the grid is one block: one closed-form and one oracle call on the column
        # merged over the three scenarios and two epsilons
        assert len(closed) == len(protocols) == 1
        assert protocols[0][0].T.tolist() == [0.25, 0.5, 0.75] * 6
        # stage I and II per preparation
        assert len(conditionals) == 8

    def test_oracle_check_evaluates_each_block_once(self, monkeypatch):
        # 49 grid T values in blocks of 20 // 6 = 3 points: 16 full blocks and one short
        monkeypatch.setattr(fock, "CHECK_BLOCK", 20)
        evolved = _counting(monkeypatch, "evolve_bs")
        closed = _counting(monkeypatch, "run_protocol")
        protocols = _counting(monkeypatch, "oracle_protocol")
        report = oracle_check(grid_step=0.02, epsilons=(1.0, 0.25))
        assert len(closed) == len(protocols) == 17
        assert len(evolved) == 4 * 17
        blocks = [t.tolist() for _, t, _ in evolved[::4]]
        assert [len(b) for b in blocks] == [3] * 16 + [1]
        assert sum(blocks, []) == report.T.tolist()

    @pytest.mark.parametrize("convention", ["real", "phase"])
    def test_records_equal_cold_scenario_major_reference(self, convention):
        epsilons = (1.0, 0.25)
        records = _reference_oracle_check(0.25, epsilons, convention)
        report = oracle_check(grid_step=0.25, epsilons=epsilons, convention=convention)
        grid = [0.25, 0.5, 0.75]
        assert report.T.tolist() == grid
        assert [c.kind for c in report.scenarios] == list(dict.fromkeys(r[0] for r in records))
        for check in report.scenarios:
            deviations = np.full((len(grid), len(epsilons), len(STAGES), 3), np.nan)
            for kind, t, eps, stage, *devs in records:
                if kind == check.kind:
                    deviations[grid.index(t), epsilons.index(eps), STAGES.index(stage)] = devs
            # every tuple of the grid is filled: no stage is left out
            assert np.array_equal(check.deviations, deviations)

    # at 7e-16 on the 0.02 grid the first failure sits mid-grid, at T = 0.96;
    # None stands for the largest deviation itself, which does not exceed it
    @pytest.mark.parametrize("tol", [0.0, 3e-16, 7e-16, None])
    def test_first_failure_follows_reference_order(self, reference_002, tol):
        records = reference_002
        if tol is None:
            tol = max(max(r[4:]) for r in records)
        report = oracle_check(grid_step=0.02, epsilons=(1.0, 0.25), tol=tol)
        over = [r for r in records if max(r[4:]) > tol]
        if over:
            kind, t, eps, stage, *devs = over[0]
            assert report.first_failure == (kind, t, eps, stage, max(devs))
        else:
            assert report.first_failure is None and report.ok
        for check in report.scenarios:
            failing = any(r[0] == check.kind for r in over)
            assert (check.failures(tol).size > 0) == failing

    @pytest.mark.parametrize("convention", ["real", "phase"])
    @pytest.mark.parametrize("branch", ["H", "V"])
    @pytest.mark.parametrize("feed_forward", [False, True])
    def test_warm_cache_matches_cold(self, monkeypatch, convention, branch, feed_forward):
        # warm: a column that repeats k = 5 values of T evolves each of them once;
        # cold: each repeat's slice is evaluated alone
        t = np.array([0.62, 0.0, 0.5, 0.3, 1.0])
        repeats = 3
        config = ChannelConfig(
            scenario=partial(np.repeat([0.0, 1.0, 0.35], t.size)),
            T=np.tile(t, repeats),
            filters=FilterPair(0.4, 0.8),
            branch=branch,
            feed_forward=feed_forward,
        )
        evolved = _counting(monkeypatch, "evolve_bs")
        warm = oracle_protocol(config, convention)
        assert len(evolved) == 4
        assert all(sorted(args[1].tolist()) == sorted(t.tolist()) for args in evolved)
        _assert_same_stages(warm, _per_slice(config, repeats, convention))


def _per_slice(config, repeats, convention):
    """``oracle_protocol`` on each of ``repeats`` equal slices of a column config, concatenated."""
    size = config.T.size // repeats
    outs = []
    for r in range(repeats):
        part = slice(r * size, (r + 1) * size)
        filters = config.filters
        if np.ndim(filters.a_a):
            filters = FilterPair(filters.a_a[part], filters.a_b[part])
        outs.append(oracle_protocol(
            replace(config, scenario=partial(config.scenario.p[part]), T=config.T[part],
                    filters=filters),
            convention,
        ))

    def joined(*stages):
        def cat(get):
            return np.concatenate([get(s) for s in stages])

        names = vars(stages[0].params)
        return replace(
            stages[0],
            params=XStateParams(**{k: cat(lambda s: vars(s.params)[k]) for k in names}),
            state=cat(lambda s: s.state),
            probability=cat(lambda s: s.probability),
            cumulative_probability=cat(lambda s: s.cumulative_probability),
            kept=None if stages[0].kept is None else cat(lambda s: s.kept),
        )

    return [joined(*stages) for stages in zip(*outs)]


def _per_slice_oracle_check(grid_step, epsilons, convention, tol):
    """Reference for the merged blocks: one column call per scenario and epsilon.

    Runs the closed form and the oracle on the whole grid once per slice and
    returns the report built from their deviation arrays.
    """
    column = np.arange(1, round(1.0 / grid_step)) * grid_step
    scenarios = []
    for scenario in (distinguishable(), indistinguishable(), partial(0.5)):
        deviations = np.zeros((column.size, len(epsilons), len(STAGES), 3))
        for j, eps in enumerate(epsilons):
            filters = table_filters(scenario, column, eps)
            config = ChannelConfig(scenario=scenario, T=column, filters=filters)
            closed = run_protocol(config)
            oracle = oracle_protocol(config, convention)
            assert closed[2].kept.all() and oracle[2].kept.all()
            for s, (ref, alt) in enumerate(zip(closed, oracle)):
                deviations[:, j, s] = np.stack(
                    [
                        np.max(np.abs(ref.state - alt.state), axis=(1, 2)),
                        np.abs(ref.probability - alt.probability),
                        np.abs(ref.cumulative_probability - alt.cumulative_probability),
                    ],
                    axis=-1,
                )
        scenarios.append(ScenarioDeviations(scenario.kind, deviations))
    return OracleCheckReport(
        T=column, epsilons=tuple(epsilons), scenarios=tuple(scenarios), tol=tol
    )


def _assert_same_report(merged, reference):
    assert np.array_equal(merged.T, reference.T)
    assert merged.epsilons == reference.epsilons
    assert [c.kind for c in merged.scenarios] == [c.kind for c in reference.scenarios]
    for check, ref in zip(merged.scenarios, reference.scenarios):
        assert check.deviations.shape == ref.deviations.shape
        assert np.array_equal(check.deviations, ref.deviations), check.kind
    assert merged.first_failure == reference.first_failure


class TestMergedColumns:
    """oracle_check's merged blocks give the per-(scenario, epsilon) loop's bits."""

    # 0.5: the only grid point is T = 1/2, where the indistinguishable pair is the unit
    # pair; 0.001: 999 T values,
    # a full block of 682 and a short one of 317 at two epsilons
    @pytest.mark.parametrize("grid_step", [0.5, 0.25, 0.02, 0.0199, 0.001])
    @pytest.mark.parametrize("epsilons", [(1.0,), (1.0, 0.25), (1.0, 0.25, 1e-3)])
    @pytest.mark.parametrize("convention", ["real", "phase"])
    def test_equals_per_slice_loop(self, grid_step, epsilons, convention):
        merged = oracle_check(grid_step, epsilons, convention=convention)
        reference = _per_slice_oracle_check(grid_step, epsilons, convention, 1e-10)
        # on the finer grids 0 and 3e-16 put the first failure at different tuples
        for tol in (0.0, 3e-16, 1e-10):
            _assert_same_report(replace(merged, tol=tol), replace(reference, tol=tol))

    @pytest.mark.parametrize("block", [6, 7, 50, 100])
    @pytest.mark.parametrize("convention", ["real", "phase"])
    def test_block_size_does_not_move_a_bit(self, monkeypatch, block, convention):
        # blocks of 1, 1, 8 and 16 grid T values; the 0.02 grid's 49 end in a short one
        monkeypatch.setattr(fock, "CHECK_BLOCK", block)
        epsilons = (1.0, 0.25)
        merged = oracle_check(0.02, epsilons, tol=3e-16, convention=convention)
        _assert_same_report(merged, _per_slice_oracle_check(0.02, epsilons, convention, 3e-16))

    @pytest.mark.parametrize("branch,feed_forward", [("H", False), ("V", False), ("V", True)])
    @pytest.mark.parametrize("convention", ["real", "phase"])
    def test_branches_on_a_repeated_column_equal_tiled_branches(
        self, branch, feed_forward, convention
    ):
        t = np.array([0.0, 0.2, 0.5, 0.62, 1.0])
        repeats = 3
        config = ChannelConfig(
            scenario=partial(np.repeat([0.0, 1.0, 0.35], t.size)),
            T=np.tile(t, repeats),
            filters=FilterPair(
                # (1e-300, 1e-300) filters T = 0.2 to zero trace but on the flipped V branch
                np.tile([0.4, 1e-300, 0.9, 1.0, 0.3], repeats),
                np.tile([0.8, 1e-300, 0.05, 0.6, 1.0], repeats),
            ),
            branch=branch,
            feed_forward=feed_forward,
        )
        # the column evolves t once; each repeat alone evolves it again
        _assert_same_stages(
            oracle_protocol(config, convention), _per_slice(config, repeats, convention)
        )


def _single_point(config, i):
    """Point ``i`` of a column config with float fields."""
    filters = config.filters
    if filters is not None:
        filters = FilterPair(float(filters.a_a[i]), float(filters.a_b[i]))
    epsilon = config.epsilon
    if np.ndim(epsilon):
        epsilon = float(epsilon[i])
    return ChannelConfig(
        scenario=config.scenario,
        T=float(config.T[i]),
        branch=config.branch,
        feed_forward=config.feed_forward,
        filters=filters,
        epsilon=epsilon,
    )


def _filter_column(scenario, branch, feed_forward, swept):
    """A config at T = 0.3 whose only column is ``epsilon`` or the filter pair, and its points."""
    eps = np.array([1e-300, 1e-12, 1e-3, 0.25, 1.0])  # 1e-300: zero trace on the H branch
    pair = (np.array([0.4, 1e-6, 1.0, 0.9, 0.05]), np.array([0.8, 1.0, 1e-6, 0.3, 0.05]))
    config = ChannelConfig(scenario, T=0.3, branch=branch, feed_forward=feed_forward)
    if swept == "epsilon":
        points = [replace(config, epsilon=e) for e in eps.tolist()]
        return replace(config, epsilon=eps), points
    points = [replace(config, filters=FilterPair(*f)) for f in zip(*pair)]
    return replace(config, filters=FilterPair(*pair)), points


def _words(values):
    """The 64-bit words of float or complex values, flattened: equal only if every bit is."""
    return np.ascontiguousarray(values).view(np.uint64).reshape(-1)


class TestStackedExtraction:
    """One ``from_operator`` call on the stacked stages equals one call per stage, bit for bit."""

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The operator stacks ``XStateParams.from_operator`` is called on, and the real call."""
        calls, extract = [], XStateParams.from_operator

        def recording(cls, rho):
            calls.append(rho)
            return extract(rho)

        monkeypatch.setattr(XStateParams, "from_operator", classmethod(recording))
        return calls, extract

    @staticmethod
    def _assert_per_stage_bits(stages, stacks):
        calls, extract = stacks
        assert len(calls) == 1  # one extraction per oracle_protocol call
        n = np.size(stages[0].params.P)
        for out, rows in zip(stages, (calls[0][:n], calls[0][n:2 * n], calls[0][2 * n:])):
            own = extract(rows)
            for name in ("alpha", "beta", "gamma", "delta", "xi", "P"):
                assert np.array_equal(_words(getattr(out.params, name)), _words(getattr(own, name)))
            # the rows are the stage's own operators: they divide into its states
            assert np.array_equal(_words(out.state), _words(rows / own.P[:, None, None]))

    def test_merged_block_of_the_002_grid(self, stacks):
        # T = 1/2 is on the grid, where the indistinguishable pair is the unit pair
        scenarios = (distinguishable(), indistinguishable(), partial(0.5))
        _, oracle = fock._run_block(scenarios, np.arange(1, 50) * 0.02, np.array([1.0, 0.25]),
                                    "real")
        assert oracle[2].kept.all()
        self._assert_per_stage_bits(oracle, stacks)

    def test_v_branch_feed_forward_column(self, stacks):
        t = np.array([0.0, 0.2, 0.5, 0.62, 1.0])
        # the pairs that filter T = 0.2 and T = 1/2 to zero trace leave stage III
        a_a, a_b = np.array([0.4, 1e-300, 1e-300, 1.0, 0.3]), np.full(5, 0.8)
        a_b[1:3] = 1e-300
        filters = FilterPair(a_a, a_b)
        config = ChannelConfig(partial(0.35), T=t, filters=filters, branch="V", feed_forward=True)
        stages = oracle_protocol(config, "phase")
        assert stages[2].kept.tolist() == [True, False, False, True, True]
        self._assert_per_stage_bits(stages, stacks)

    @pytest.mark.parametrize("t", [0.3, 0.5], ids=["filtered", "unit-pair"])
    def test_single_point(self, stacks, t):
        # _unwrap_point unwraps the one-point column: floats and (4, 4) states; at
        # T = 1/2 the pair is the unit pair, so stage III is stage II
        stages = oracle_protocol(ChannelConfig(indistinguishable(), T=t, epsilon=0.25))
        assert len(stages) == 3
        assert (stages[2].params == stages[1].params) == (t == 0.5)
        assert all(type(out.params.P) is float for out in stages)
        self._assert_per_stage_bits(stages, stacks)


class TestOracleColumns:
    """A column of points runs the same code as each point alone."""

    T_EDGES = [0.0, 1.0, 0.5, 0.25, 0.75, 0.5 + 1e-7, 1e-200]

    @pytest.mark.parametrize("convention", ["real", "phase"])
    @pytest.mark.parametrize("branch,feed_forward", [("H", False), ("V", False), ("V", True)])
    @pytest.mark.parametrize(
        "scenario",
        [distinguishable(), indistinguishable(), partial(0.85)],
        ids=["dist", "indist", "partial"],
    )
    @pytest.mark.parametrize("explicit", [False, True], ids=["epsilon", "filters"])
    def test_rows_equal_single_points(self, convention, branch, feed_forward, scenario, explicit):
        rng = np.random.default_rng(20261018)
        t = np.concatenate([self.T_EDGES, rng.uniform(0.0, 1.0, 9)])
        if explicit:
            a_a = rng.uniform(1e-6, 1.0, t.size)
            a_b = np.concatenate([[1.0], rng.uniform(1e-6, 1.0, t.size - 1)])
            # filters T = 1/4 to zero trace, but on the flipped V branch
            a_a[3] = a_b[3] = 1e-300
            filters = FilterPair(a_a, a_b)
            config = ChannelConfig(scenario=scenario, T=t, branch=branch,
                                   feed_forward=feed_forward, filters=filters)
        else:
            config = ChannelConfig(scenario=scenario, T=t, branch=branch,
                                   feed_forward=feed_forward, epsilon=0.25)
        columns = oracle_protocol(config, convention)
        kept = columns[2].kept
        row_3 = np.cumsum(kept) - 1
        for i in range(t.size):
            if not kept[i]:
                with pytest.raises(ZeroTrace):
                    oracle_protocol(_single_point(config, i), convention)
                continue
            outs = oracle_protocol(_single_point(config, i), convention)
            assert len(outs) == 3, i
            for column, j, out in zip(columns, (i, i, row_3[i]), outs):
                entries = {k: v[j] for k, v in vars(column.params).items()}
                assert entries == vars(out.params), (i, out.stage)
                assert np.array_equal(column.state[j], out.state), (i, out.stage)
                assert column.probability[j] == out.probability, (i, out.stage)
                assert column.cumulative_probability[j] == out.cumulative_probability
        # a prescription keeps every point, the unit pairs at T = 0 and 1e-200 too
        flipped = branch == "V" and not feed_forward
        assert kept.tolist() == [i != 3 or not explicit or flipped for i in range(t.size)]

    @pytest.mark.parametrize("convention", ["real", "phase"])
    @pytest.mark.parametrize("branch,feed_forward", [("H", False), ("V", False), ("V", True)])
    @pytest.mark.parametrize(
        "scenario",
        [distinguishable(), indistinguishable(), partial(0.85)],
        ids=["dist", "indist", "partial"],
    )
    @pytest.mark.parametrize("swept", ["epsilon", "filters"])
    def test_filter_column_gives_one_point_stages_one_and_two(
        self, convention, branch, feed_forward, scenario, swept
    ):
        config, points = _filter_column(scenario, branch, feed_forward, swept)
        columns = oracle_protocol(config, convention)
        closed = run_protocol(config)
        assert np.array_equal(columns[2].kept, closed[2].kept)
        assert columns[2].kept.size == len(points)
        row_3 = np.cumsum(columns[2].kept) - 1
        for i, point in enumerate(points):
            try:
                outs = oracle_protocol(point, convention)
            except ZeroTrace:
                assert not columns[2].kept[i]
                continue
            assert len(outs) == 2 + columns[2].kept[i], i
            # stages I-II are one point, equal to every point's own
            for column, j, out in zip(columns, (0, 0, row_3[i]), outs):
                assert {k: v[j] for k, v in vars(column.params).items()} == vars(out.params)
                assert np.array_equal(column.state[j], out.state), (i, out.stage)
                assert column.probability[j] == out.probability, (i, out.stage)
                assert column.cumulative_probability[j] == out.cumulative_probability
        # the closed form has the same shapes and agrees
        for ref, alt in zip(closed, columns):
            rows = 1 if ref.kept is None else np.count_nonzero(ref.kept)
            assert ref.state.shape == alt.state.shape == (rows, 4, 4)
            assert np.max(np.abs(ref.state - alt.state)) <= 1e-12, ref.stage
            assert np.allclose(ref.cumulative_probability, alt.cumulative_probability,
                               rtol=1e-12, atol=0.0), ref.stage

    @pytest.mark.parametrize("convention", ["real", "phase"])
    @pytest.mark.parametrize("kind", ["distinguishable", "indistinguishable"])
    @pytest.mark.parametrize("env_pol", ["H", "V"])
    def test_evolve_bs_column_equals_each_t(self, convention, kind, env_pol):
        t = np.array([0.0, 1e-200, 0.17, 0.5, 0.83, 1.0])
        state = prepare_input(distinguishable() if kind == "distinguishable" else
                              indistinguishable(), env_pol)
        column = evolve_bs(state, t, convention)
        keys = set()
        for i, ti in enumerate(t.tolist()):
            single = evolve_bs(state, ti, convention)
            # a float t keeps its shape: every amplitude is one complex128
            assert all(type(a) is np.complex128 for a in single.amps.values())
            keys |= set(single.amps)
            for key, amps in column.amps.items():
                assert amps[i] == single.amps.get(key, 0.0), (ti, key)
        assert keys == set(column.amps)
        norm = sum(abs(a) ** 2 for a in column.amps.values())
        assert np.allclose(norm, 1.0, rtol=0.0, atol=1e-12)

    def test_column_stacks_and_kept_mask(self):
        # epsilon = 1e-300 filters T = 0.2 and 0.7 to zero trace; T = 1/2 takes the unit pair
        t = np.array([0.2, 0.5, 0.7])
        outs = oracle_protocol(ChannelConfig(scenario=indistinguishable(), T=t, epsilon=1e-300))
        assert [o.stage for o in outs] == ["I", "II", "III"]
        assert outs[0].state.shape == outs[1].state.shape == (3, 4, 4)
        assert outs[2].kept.tolist() == [False, True, False]
        assert outs[2].state.shape == (1, 4, 4)
        assert outs[2].probability.shape == (1,)
        assert np.array_equal(outs[2].state[0], outs[1].state[1])


class TestOracleMirrorsRunProtocol:
    """Points with the unit pair or without a stage III behave as in :func:`run_protocol`."""

    @pytest.mark.parametrize("t", [0.5, 0.0])
    @pytest.mark.parametrize("scenario", [indistinguishable(), partial(0.85)],
                             ids=["indist", "partial"])
    def test_unit_pair_point_keeps_stage_two_as_stage_three(self, scenario, t):
        # a zero factor (T = 0, and T = 1/2 at p = 1) gives the unit pair: stage III is stage II
        config = ChannelConfig(scenario=scenario, T=t, epsilon=0.25)
        unit = t == 0.0 or scenario.kind == "indistinguishable"
        assert (resolve_filters(config) == FilterPair(1.0, 1.0)) == unit
        closed = run_protocol(config)
        oracle = oracle_protocol(config)
        assert [o.stage for o in oracle] == [o.stage for o in closed] == ["I", "II", "III"]
        assert (closed[2].params == closed[1].params) == unit
        for ref, alt in zip(closed, oracle):
            assert np.max(np.abs(ref.state - alt.state)) <= 1e-12
            assert alt.cumulative_probability == pytest.approx(
                ref.cumulative_probability, abs=1e-12
            )

    def test_lone_points_take_the_same_branch_in_both_engines(self):
        # the closed form runs a point on floats, the oracle as an unwrapped one-point
        # column: both must keep stage III or raise ZeroTrace alike
        rng = np.random.default_rng(20261022)
        scenarios = [distinguishable(), indistinguishable(), partial(0.0), partial(0.85),
                     partial(1.0)]
        ts = [0.0, 1e-200, 0.5, 0.5 - 1e-10, 0.5 + 1e-10, 1.0, *rng.uniform(0.0, 1.0, 4)]
        filters = [{"epsilon": eps} for eps in (1.0, 0.25, 1e-300)] + [
            {"filters": FilterPair(a_a, a_b)}
            for a_a, a_b in ((0.4, 0.8), (5e-324, 1.0), (1e-300, 1e-300))
        ] + [{}]
        branches = [("H", False), ("V", False), ("V", True)]
        outcomes = {3: 0, "ZeroTrace": 0}

        def outcome(engine, config):
            try:
                return engine(config)
            except ZeroTrace:
                return "ZeroTrace"

        for scenario, t, pair, (branch, ff) in itertools.product(scenarios, ts, filters, branches):
            config = ChannelConfig(scenario=scenario, T=float(t), branch=branch,
                                   feed_forward=ff, **pair)
            closed, oracle = outcome(run_protocol, config), outcome(oracle_protocol, config)
            where = (scenario, t, pair, branch, ff)
            if closed == "ZeroTrace" or oracle == "ZeroTrace":
                assert closed == oracle, where
                outcomes["ZeroTrace"] += 1
                continue
            assert [o.stage for o in closed] == [o.stage for o in oracle], where
            assert len(closed) == 3, where
            outcomes[len(closed)] += 1
            for out in closed + oracle:
                assert type(out.params.P) is float and out.state.shape == (4, 4), where
        assert sum(outcomes.values()) == 1050
        assert all(outcomes.values()), outcomes

    def test_zero_trace_is_masked_in_a_column_and_raised_alone(self):
        # epsilon = 1e-300 filters partial(0.85) to zero trace up to T = 0.8071
        t = np.linspace(0.1, 1.0, 15)
        config = ChannelConfig(scenario=partial(0.85), T=t, epsilon=1e-300)
        closed = run_protocol(config)
        oracle = oracle_protocol(config)
        assert oracle[2].kept.tolist() == closed[2].kept.tolist() == [False] * 12 + [True] * 3
        assert oracle[2].state.shape == (3, 4, 4)
        with pytest.raises(ZeroTrace):
            run_protocol(ChannelConfig(scenario=partial(0.85), T=0.1, epsilon=1e-300))
        with pytest.raises(ZeroTrace):
            oracle_protocol(ChannelConfig(scenario=partial(0.85), T=0.1, epsilon=1e-300))

    @pytest.mark.parametrize(
        "scenario,t,epsilon",
        [(partial(0.85), 0.7, 1e-170), (indistinguishable(), 1.0, 1e-300)],
        ids=["partial-1e-170", "indistinguishable-T1-1e-300"],
    )
    def test_tiny_filter_pair_keeps_the_stage_three_coherence(self, scenario, t, epsilon):
        # A_A A_B is below the smallest normal float (or underflows to zero), while
        # sqrt(A_A) sqrt(A_B) is a normal float: the coherence must survive filtering
        config = ChannelConfig(
            scenario=scenario, T=t, branch="V", feed_forward=True, epsilon=epsilon
        )
        closed = run_protocol(config)[2]
        oracle = oracle_protocol(config)[2]
        filters = closed.filters
        assert filters.a_a * filters.a_b < np.finfo(np.float64).tiny
        assert concurrence_x(oracle.params) > 0.9
        assert concurrence_x(closed.params) == pytest.approx(
            concurrence_x(oracle.params), rel=1e-9
        )


class TestDenseAgreement:
    """The oracle and the closed form agree on a dense T column, away from T = 1/2,
    where the oracle's coherence cancels as sqrt(T)^2 - sqrt(R)^2."""

    T = np.linspace(0.0, 1.0, 2001)
    FAR = np.abs(2.0 * T - 1.0) >= 1e-5

    @pytest.mark.parametrize("convention", ["real", "phase"])
    @pytest.mark.parametrize("branch,feed_forward", [("H", False), ("V", False), ("V", True)])
    @pytest.mark.parametrize(
        "scenario",
        [distinguishable(), indistinguishable(), partial(0.5), partial(0.85)],
        ids=["dist", "indist", "partial0.5", "partial0.85"],
    )
    def test_stages_agree_to_1e_12(self, convention, branch, feed_forward, scenario):
        config = ChannelConfig(
            scenario=scenario, T=self.T, branch=branch, feed_forward=feed_forward, epsilon=0.25
        )
        closed = run_protocol(config)
        oracle = oracle_protocol(config, convention)
        kept = closed[2].kept
        assert np.array_equal(oracle[2].kept, kept)
        for ref, alt in zip(closed, oracle):
            far = self.FAR if ref.kept is None else self.FAR[kept]
            state_dev = np.max(np.abs(ref.state - alt.state), axis=(1, 2))
            assert np.all(state_dev[far] <= 1e-12), ref.stage
            for name in ("probability", "cumulative_probability"):
                dev = np.abs(getattr(ref, name) - getattr(alt, name))
                assert np.all(dev[far] <= 1e-12), (ref.stage, name)
