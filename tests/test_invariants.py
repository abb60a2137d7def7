"""Physical invariants of the closed-form protocol over seeded numpy draws.

The draws cover the three scenario kinds (``p`` from 0 to 1, both ends
included), ``T`` with its edges (0, 1, 1/2 and 1/2 +- 1e-10, 1e-200), both
branches, feed-forward, prescribed pairs from ``epsilon`` down to 1e-300 and
explicit pairs down to subnormal factors.  Each invariant holds on the
physics, not on this code's own output: none compares two paths of ebrsim.
Float rounding may push a ratio or a concurrence one or two ulps past 1, so
the upper bounds allow ``_ULPS``.
"""

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
    stage2,
)

_ULPS = 4 * np.finfo(np.float64).eps
# Wootters' route takes square roots of eigenvalues whose rounding is about 1e-16
_WOOTTERS_TOL = 1e-7
# C_I is asserted zero or positive only this far from breaking_threshold
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
            assert (prob > 0.0).all() and (prob <= 1.0 + _ULPS).all(), out.stage
            c = concurrence_x(out.params)
            assert (c >= 0.0).all() and (c <= 1.0 + _ULPS).all(), out.stage


def test_cumulative_probability_never_rises(draws):
    for _, outs in draws:
        cumulative = [np.asarray(out.cumulative_probability) for out in outs]
        assert (cumulative[1] <= cumulative[0] * (1.0 + _ULPS)).all()
        if len(outs) == 3 and outs[2].kept is not None:
            before = np.broadcast_to(cumulative[1], outs[2].kept.shape)[outs[2].kept]
            assert (cumulative[2] <= before * (1.0 + _ULPS)).all()
        elif len(outs) == 3:
            assert cumulative[2] <= cumulative[1] * (1.0 + _ULPS)


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
