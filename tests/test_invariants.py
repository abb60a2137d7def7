"""Physical invariants of the closed-form protocol over seeded numpy draws.

The draws cover the three scenario kinds (``p`` from 0 to 1, both ends
included), ``T`` with its edges (0, 1, 1/2 and 1/2 +- 1e-10, 1e-200), both
branches, feed-forward, prescribed pairs from ``epsilon`` down to 1e-300 and
explicit pairs down to subnormal factors.  Each invariant holds on the
physics, not on this code's own output: none compares two paths of ebrsim.
The upper bounds of probabilities, concurrences and the cumulative are
exact: no rounding may push one past 1 or past the stage before.

The prescribed filter pair is judged against :func:`_attainable_bound`,
the supremum of the stage-III concurrence over all diagonal filter pairs,
computed here from the Fock oracle's X entries and checked against a
brute-force maximum of Wootters' concurrence over a grid of pairs.
"""

import functools
import itertools

import numpy as np
import pytest

from ebrsim.core import ZeroTrace
from ebrsim.fock import oracle_protocol
from ebrsim.metrics import XStateParams, breaking_threshold, concurrence, concurrence_x
from ebrsim.protocol import (
    ChannelConfig,
    FilterPair,
    Scenario,
    apply_filters,
    partial,
    run_protocol,
    stage1,
    stage2,
)

_EPS = np.finfo(np.float64).eps
# the stage I-II entries against their line through p = 0 and p = 1, relative
# to |e(0)| + |e(1)|: the largest deviation on the draws is about 1 eps
_AFFINE_TOL = 8 * _EPS
# C_II at its zero T = p / (1 + p), whose xi is -T (T (1 + p) - p): about 0.4 eps at most
_ZERO_TOL = 4 * _EPS
# Wootters' route takes square roots of eigenvalues whose rounding is about 1e-16
_WOOTTERS_TOL = 1e-7
# C_I and C_II are asserted zero or positive only this far from their thresholds
_THRESHOLD_MARGIN = 1e-9
_EDGE_T = [0.0, 1.0, 0.5, 0.5 - 1e-10, 0.5 + 1e-10, 1e-200]
_N = 120


def _scenario(kind, rng, n):
    if kind != "partial":
        return Scenario(kind)
    return partial(np.concatenate([[0.0, 1.0], rng.random(n - 2)]))


def _draws():
    """``(config, outputs)`` for every kind, branch, feed-forward and filter source."""
    rng = np.random.default_rng(15)
    n = len(_EDGE_T) + _N
    draws = []
    for kind, branch, ff, source in itertools.product(
        ("distinguishable", "indistinguishable", "partial"), "HV", (False, True),
        ("epsilon", "pair", "unit"),
    ):
        t = np.concatenate([_EDGE_T, rng.random(_N)])
        fields = {}
        if source == "epsilon":
            fields["epsilon"] = np.concatenate([[1.0, 1e-300], 10.0 ** rng.uniform(-300, 0, n - 2)])
        elif source == "pair":
            # 1 - U[0, 1) lies in (0, 1]
            a_a = np.concatenate([[1.0, 5e-324, 1e-310, 2.3e-308], 1.0 - rng.random(n - 4)])
            a_b = np.concatenate([[1e-320, 1.0, 4e-320, 1e-300], 1.0 - rng.random(n - 4)])
            fields["filters"] = FilterPair(a_a, a_b)
        config = ChannelConfig(_scenario(kind, rng, n), t, branch, ff, **fields)
        draws.append((config, run_protocol(config)))
    # single points on Python floats: the same invariants on the float path
    for i in range(60):
        kind = ("distinguishable", "indistinguishable", "partial")[i % 3]
        scenario = partial(float(rng.choice([0.0, 1.0, rng.random()]))) if kind == "partial" \
            else Scenario(kind)
        t = float(rng.choice(_EDGE_T + [rng.random()] * 6))
        config = ChannelConfig(scenario, t, "HV"[i % 2], bool(i % 4 // 2),
                               epsilon=float(10.0 ** rng.uniform(-300, 0)))
        try:
            draws.append((config, run_protocol(config)))
        except ZeroTrace:  # a point filtered to no trace has no stage III to check
            continue
    return draws


@pytest.fixture(scope="module")
def draws():
    return _draws()


def test_probabilities_and_concurrences_lie_in_their_ranges(draws):
    for _, outs in draws:
        for out in outs:
            prob = np.asarray(out.probability)
            assert (prob > 0.0).all() and (prob <= 1.0).all(), out.stage
            c = concurrence_x(out.params)
            assert (c >= 0.0).all() and (c <= 1.0).all(), out.stage


def test_cumulative_probability_never_rises(draws):
    for _, outs in draws:
        cumulative = [np.asarray(out.cumulative_probability) for out in outs]
        assert (cumulative[1] <= cumulative[0]).all()
        if len(outs) == 3 and outs[2].kept is not None:
            before = np.broadcast_to(cumulative[1], outs[2].kept.shape)[outs[2].kept]
            assert (cumulative[2] <= before).all()
        elif len(outs) == 3:
            assert cumulative[2] <= cumulative[1]


def test_feed_forward_v_branch_is_the_h_branch(draws):
    for config, _ in draws:
        v = stage2(config.scenario, config.T, "V", feed_forward=True)
        h = stage2(config.scenario, config.T, "H")
        for name, value in vars(v.params).items():
            assert np.array_equal(value, getattr(h.params, name)), name
        assert np.array_equal(v.state, h.state)


def test_the_unit_pair_leaves_stage_two_as_it_is(draws):
    for _, outs in draws:
        unit = apply_filters(outs[1], FilterPair(1.0, 1.0))
        assert np.max(np.abs(unit.state - outs[1].state)) <= 1e-15


def test_closed_form_concurrence_is_wootters(draws):
    for _, outs in draws:
        for out in outs:
            wootters = concurrence(out.state).value
            assert np.max(np.abs(concurrence_x(out.params) - wootters)) <= _WOOTTERS_TOL


def test_stage_one_concurrence_vanishes_below_the_breaking_threshold():
    rng = np.random.default_rng(16)
    p = np.concatenate([[0.0, 1.0], rng.random(40)])
    offsets = np.array([-0.1, -1e-6, -2 * _THRESHOLD_MARGIN, 2 * _THRESHOLD_MARGIN, 1e-6, 0.1])
    for p_value in p:
        scenario = partial(float(p_value))
        threshold = breaking_threshold(scenario, "I")
        t = np.concatenate([[0.0, 1e-200, 1.0], np.clip(threshold + offsets, 0.0, 1.0),
                            rng.random(20)])
        t = t[np.abs(t - threshold) > _THRESHOLD_MARGIN]
        c = concurrence_x(run_protocol(ChannelConfig(scenario, t))[0].params)
        assert (c[t < threshold] == 0.0).all(), p_value
        assert (c[t > threshold] > 0.0).all(), p_value


def test_every_door_gives_checked_params(draws):
    # the cores' entries are in range: a door that trusts its core may skip the checks
    for _, outs in draws:
        for out in outs:
            XStateParams(**vars(out.params))


def _entries(out):
    return np.stack(np.broadcast_arrays(*vars(out.params).values()))


def test_stage_one_and_two_entries_are_affine_in_p(draws):
    for config, outs in draws:
        if config.scenario.kind != "partial":
            continue
        p = config.scenario.p
        doors = (stage1, functools.partial(stage2, branch=config.branch,
                                           feed_forward=config.feed_forward))
        for out, door in zip(outs, doors):
            e0, e1 = (_entries(door(partial(end), config.T)) for end in (0.0, 1.0))
            line = e0 + p * (e1 - e0)
            bound = _AFFINE_TOL * (np.abs(e0) + np.abs(e1))
            assert (np.abs(_entries(out) - line) <= bound).all(), out.stage


def test_stage_two_concurrence_vanishes_only_at_p_over_one_plus_p(draws):
    offsets = [0.0, -0.1, -1e-6, -2 * _THRESHOLD_MARGIN, 2 * _THRESHOLD_MARGIN, 1e-6, 0.1]
    for config, _ in draws:
        p = np.ravel(np.broadcast_to(config.scenario.p, np.shape(config.T)))
        zero = p / (1.0 + p)
        t = np.clip(np.concatenate([np.ravel(config.T), *(zero + d for d in offsets)]), 0.0, 1.0)
        p = np.tile(p, 1 + len(offsets))
        c = concurrence_x(stage2(partial(p), t, config.branch, config.feed_forward).params)
        distance = np.abs(t - p / (1.0 + p))
        assert (c[(t > 0.0) & (distance > _THRESHOLD_MARGIN)] > 0.0).all(), config.scenario.kind
        assert (c[(t > 0.0) & (distance == 0.0)] <= _ZERO_TOL).all(), config.scenario.kind


def _attainable_bound(params):
    """The supremum of the filtered concurrence over pairs ``(A_A, A_B)`` in ``(0, 1]^2``.

    A pair maps an X state's diagonal ``(alpha, beta, gamma, delta)`` to
    ``(alpha, A_B beta, A_A gamma, A_A A_B delta)`` and its coherence ``xi``
    to ``sqrt(A_A A_B) xi``, so the filtered concurrence is
    ``2 sqrt(A_A A_B) c / D``, with ``c = max(0, |xi| - sqrt(alpha delta))``
    and ``D`` the filtered diagonal sum.  Its supremum is the largest of:

    - the unit pair;
    - the edge optima ``A_A = 1``, ``A_B = min(1, (alpha + gamma) / (beta + delta))``,
      and the same with the arms swapped;
    - the interior critical point ``A_A A_B = alpha / delta``,
      ``A_A / A_B = beta / gamma``, where it lies in the box, with value
      ``c / (sqrt(alpha delta) + sqrt(beta gamma))``.  For ``alpha = 0``
      it is the corner's unattained limit ``|xi| / sqrt(beta gamma)``.

    Kent, Linden & Massar, PRL 83, 2656 (1999); Verstraete, Dehaene &
    De Moor, PRA 64, 010101(R) (2001).  Not valid where ``beta gamma = 0``
    while ``c > 0``, where the supremum is infinite.
    """
    alpha, beta, gamma, delta, xi = (
        np.asarray(getattr(params, name)) for name in ("alpha", "beta", "gamma", "delta", "xi")
    )
    c = np.maximum(0.0, np.abs(xi) - np.sqrt(alpha * delta))

    def value(a_a, a_b):
        return 2.0 * np.sqrt(a_a * a_b) * c / (alpha + a_b * beta + a_a * gamma + a_a * a_b * delta)

    with np.errstate(divide="ignore", invalid="ignore"):
        # fmin and fmax pass over the NaN of a 0 / 0
        candidates = [
            value(1.0, 1.0),
            value(1.0, np.fmin(1.0, (alpha + gamma) / (beta + delta))),
            value(np.fmin(1.0, (alpha + beta) / (gamma + delta)), 1.0),
        ]
        a_a = np.sqrt(alpha * beta / (delta * gamma))
        a_b = np.sqrt(alpha * gamma / (delta * beta))
        inside = (a_a <= 1.0) & (a_b <= 1.0)
        interior = c / (np.sqrt(alpha * delta) + np.sqrt(beta * gamma))
        candidates.append(np.where(inside, interior, 0.0))
    return np.fmax.reduce(candidates)


# the grid's maximum falls short of the supremum by about 0.4 % on these draws:
# the optimal ratio lies between grid ratios, and for alpha = 0 the supremum is a limit
_GRID_GAP = 1e-2
_GRID = np.logspace(-6.0, 0.0, 41)


def test_attainable_bound_is_the_brute_force_wootters_maximum():
    # stage-I (alpha delta > 0) and stage-II (alpha delta = 0) oracle states on every
    # branch, each filtered by every pair of a 41 x 41 log grid over [1e-6, 1]
    rng = np.random.default_rng(23)
    a_a, a_b = (np.sqrt(a.ravel()) for a in np.meshgrid(_GRID, _GRID, indexing="ij"))
    k = np.stack([np.ones_like(a_a), a_b, a_a, a_a * a_b], axis=1)
    p = np.concatenate([[0.0, 1.0, 0.5, 0.85], rng.random(2)])
    t = np.concatenate([[0.5, 0.5, 1.0 / 3.0, 0.3], rng.uniform(0.02, 0.98, 2)])
    for branch, feed_forward in (("H", False), ("V", False), ("V", True)):
        config = ChannelConfig(partial(p), t, branch, feed_forward)
        for out in oracle_protocol(config)[:2]:
            filtered = k[None, :, :, None] * out.state[:, None] * k[None, :, None, :]
            best = concurrence(filtered).value.reshape(t.size, -1).max(axis=1)
            bound = _attainable_bound(out.params)
            where = (branch, feed_forward, out.stage)
            assert (best <= bound + _WOOTTERS_TOL).all(), where
            assert (best >= bound * (1.0 - _GRID_GAP)).all(), where


_EPSILONS = [1.0, 0.5, 0.25, 0.1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 1e-12]
# relative slack for comparisons that hold in exact arithmetic
_ROUNDING = 8 * _EPS


@pytest.fixture(scope="module")
def prescribed():
    """Per branch (H, and V with feed-forward): the points' stage-II concurrence, the
    bound from the oracle's stage-II entries and, per epsilon, the pair and C_III.

    The points: p = 0, 1 and seeded partial values, each at T = 0, 1/2 and
    p / (1 + p), where stage II's xi vanishes for p = 1, and at seeded T.
    """
    rng = np.random.default_rng(14)
    p = np.concatenate([[0.0, 1.0], rng.random(38)])
    t = np.stack([np.zeros_like(p), np.full_like(p, 0.5), p / (1.0 + p),
                  *rng.uniform(0.0, 1.0, (4, p.size))], axis=1)
    p, t = np.repeat(p, t.shape[1]), t.ravel()
    runs = {}
    for branch, feed_forward in (("H", False), ("V", True)):
        config = ChannelConfig(partial(p), t, branch, feed_forward)
        c_2 = concurrence_x(run_protocol(config)[1].params)
        bound = _attainable_bound(oracle_protocol(config)[1].params)
        stage_3 = []
        for eps in _EPSILONS:
            out = run_protocol(ChannelConfig(partial(p), t, branch, feed_forward, epsilon=eps))[2]
            assert out.kept.all(), eps
            stage_3.append((out.filters, concurrence_x(out.params)))
        runs[branch] = c_2, bound, stage_3
    return runs


def test_prescribed_stage_three_never_lowers_the_concurrence(prescribed):
    for branch, (c_2, _, stage_3) in prescribed.items():
        for eps, (_, c_3) in zip(_EPSILONS, stage_3):
            assert (c_3 >= c_2 * (1.0 - _ROUNDING)).all(), (branch, eps)


def test_stage_three_concurrence_never_falls_as_epsilon_falls(prescribed):
    for branch, (_, _, stage_3) in prescribed.items():
        for eps, (_, before), (_, after) in zip(_EPSILONS[1:], stage_3, stage_3[1:]):
            assert (after >= before * (1.0 - _ROUNDING)).all(), (branch, eps)


def test_stage_three_reaches_the_bound_as_epsilon_falls(prescribed):
    for branch, (_, bound, stage_3) in prescribed.items():
        _, c_3 = stage_3[_EPSILONS.index(1e-6)]
        # the oracle's xi is off by an ulp or so where it vanishes, at T = p / (1 + p)
        assert (np.abs(c_3 - bound) <= 1e-5 * bound + 1e-12).all(), branch


def test_bound_is_exactly_zero_where_the_unit_pair_is_used(prescribed):
    # the unit pair is used where beta gamma = 0: at T = 0, and at T = 1/2 with p = 1.
    # The bound is 0 on the wider set xi = 0, which adds T = p / (1 + p) for 0 < p < 1;
    # there any pair restores nothing, and the prescribed one is not the unit pair
    for branch, (_, bound, stage_3) in prescribed.items():
        for eps, (pair, c_3) in zip(_EPSILONS, stage_3):
            unit = (pair.a_a == 1.0) & (pair.a_b == 1.0)
            assert unit.any() and (bound[unit] == 0.0).all(), (branch, eps)
            assert (c_3[bound == 0.0] <= 1e-12).all(), (branch, eps)
