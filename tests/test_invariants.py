"""Physical invariants of the closed-form protocol over seeded numpy draws.

The draws cover the three scenario kinds (``p`` from 0 to 1, both ends
included), ``T`` with its edges (0, 1, 1/2 and 1/2 +- 1e-10, 1e-200), both
branches, feed-forward, prescribed pairs from ``epsilon`` down to 1e-300 and
explicit pairs down to subnormal factors.  Each invariant holds on the
physics, not on this code's own output: none compares two paths of ebrsim.
The upper bounds of probabilities, concurrences and the cumulative are
exact: no rounding may push one past 1 or past the stage before.
"""

import functools
import itertools

import numpy as np
import pytest

from ebrsim.core import ZeroTrace
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
