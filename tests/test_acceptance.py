"""End-to-end acceptance checks for the restoration pipeline.

Each test covers one advertised guarantee and prints a single
``ACCEPTANCE nn <name>: PASS/FAIL`` line (run with ``pytest -s`` to see
them on passing runs).  Tolerances and runtime budgets are part of the
contract, so they are asserted, not just reported.
"""

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from ebrsim.cli import main as cli_main
from ebrsim.fock import hom_coincidence, oracle_check
from ebrsim.metrics import (
    XStateParams,
    breaking_threshold,
    concurrence,
    concurrence_x,
    fidelity,
    normalized_state,
    werner_decompose,
)
from ebrsim.protocol import (
    ChannelConfig,
    FilterPair,
    distinguishable,
    indistinguishable,
    partial,
    run_protocol,
    stage1,
)
from ebrsim.tomography import error_bars, reconstruct, simulate_counts


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def stage_map(config):
    return {s.stage: s for s in run_protocol(config)}


def test_01_breaking_thresholds():
    start = time.perf_counter()
    t_dist = breaking_threshold(distinguishable(), "I")
    t_indist = breaking_threshold(indistinguishable(), "I")
    elapsed = time.perf_counter() - start
    err_d = abs(t_dist - (math.sqrt(2.0) - 1.0))
    err_i = abs(t_indist - 1.0 / math.sqrt(3.0))
    ok = err_d <= 1e-9 and err_i <= 1e-9 and elapsed < 1.0
    report(1, "breaking-thresholds", ok,
           f"dist_err={err_d:.2e} indist_err={err_i:.2e} {elapsed:.3f}s")


def test_02_distinguishable_experiment_point():
    start = time.perf_counter()
    stages = stage_map(
        ChannelConfig(scenario=distinguishable(), T=0.41, filters=FilterPair(0.33, 1.0))
    )
    c2 = concurrence_x(stages["II"].params)
    p2 = stages["II"].cumulative_probability
    c3 = concurrence_x(stages["III"].params)
    p3 = stages["III"].cumulative_probability
    elapsed = time.perf_counter() - start
    ok = (
        0.30 <= c2 <= 0.33
        and 0.25 <= p2 <= 0.27
        and abs(c3 - 0.42) <= 0.01
        and 0.10 <= p3 <= 0.12
        and elapsed < 1.0
    )
    report(2, "distinguishable-point", ok,
           f"C_II={c2:.4f} P_II={p2:.4f} C_III={c3:.4f} P_III={p3:.4f}")


def test_03_general_case_point():
    start = time.perf_counter()
    stages = stage_map(
        ChannelConfig(scenario=partial(0.85), T=0.3, filters=FilterPair(0.12, 0.30))
    )
    c2 = concurrence_x(stages["II"].params)
    p2 = stages["II"].cumulative_probability
    c3 = concurrence_x(stages["III"].params)
    p3 = stages["III"].cumulative_probability
    elapsed = time.perf_counter() - start
    ok = (
        abs(c2 - 0.220) <= 0.005
        and abs(p2 - 0.200) <= 0.005
        and abs(c3 - 0.470) <= 0.005
        and 0.015 <= p3 <= 0.019
        and elapsed < 1.0
    )
    report(3, "general-case-point", ok,
           f"C_II={c2:.4f} P_II={p2:.4f} C_III={c3:.4f} P_III={p3:.5f}")


def test_04_asymptotic_filtration():
    worst_indist = 1.0
    for t in (0.2, 0.3, 0.7, 0.8):
        stages = stage_map(
            ChannelConfig(scenario=indistinguishable(), T=t, epsilon=1e-6)
        )
        worst_indist = min(worst_indist, concurrence_x(stages["III"].params))
    stages = stage_map(ChannelConfig(scenario=distinguishable(), T=0.4, epsilon=1e-6))
    c_dist = concurrence_x(stages["III"].params)
    limit = 0.4 / math.sqrt(0.4**2 + 0.6**2)
    dev = abs(c_dist - limit)
    ok = worst_indist > 0.999 and dev <= 1e-4
    report(4, "asymptotic-filtration", ok,
           f"min_indist_C={worst_indist:.6f} dist_dev={dev:.2e}")


def test_05_fock_oracle_equivalence():
    start = time.perf_counter()
    rep = oracle_check(grid_step=0.05, epsilons=(1.0, 0.25), tol=1e-10)
    elapsed = time.perf_counter() - start
    ok = rep.ok and elapsed < 30.0
    report(5, "fock-oracle-equivalence", ok,
           f"points={rep.points} max_state={rep.max_state_deviation:.2e}"
           f" max_prob={rep.max_probability_deviation:.2e} {elapsed:.2f}s")


def test_06_werner_structure():
    # beta - alpha equals -xi identically; below T=1/2 the Werner weight
    # goes negative, so the magnitude identity is the sign-robust form
    worst = 0.0
    worst_signed = 0.0
    decomposed = 0
    grid = [k / 100.0 for k in range(1, 100)]
    for t in grid:
        params = stage1(indistinguishable(), t).params
        worst = max(worst, abs(abs(params.beta - params.alpha) - abs(params.xi)))
        if t >= 0.5:
            worst_signed = max(
                worst_signed, abs((params.beta - params.alpha) - abs(params.xi))
            )
        if werner_decompose(normalized_state(params)) is not None:
            decomposed += 1
    ok = worst <= 1e-12 and worst_signed <= 1e-12 and decomposed == len(grid)
    report(6, "werner-structure", ok,
           f"grid={len(grid)} max|d|={worst:.2e} decomposed={decomposed}")


def test_07_feed_forward():
    rng = np.random.default_rng(77)
    worst_state = 0.0
    worst_ratio = 0.0
    for _ in range(50):
        kind = rng.choice(["distinguishable", "indistinguishable", "partial"])
        scenario = partial(rng.uniform(0.05, 0.95)) if kind == "partial" else (
            distinguishable() if kind == "distinguishable" else indistinguishable()
        )
        t = float(rng.uniform(0.05, 0.95))
        filters = FilterPair(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
        h = run_protocol(ChannelConfig(scenario=scenario, T=t, filters=filters,
                                       branch="H", feed_forward=False))
        v = run_protocol(ChannelConfig(scenario=scenario, T=t, filters=filters,
                                       branch="V", feed_forward=True))
        for h_out, v_out in zip(h, v):
            worst_state = max(
                worst_state,
                float(np.max(np.abs(h_out.state - v_out.state))),
            )
            expect = h_out.cumulative_probability * (2.0 if h_out.stage != "I" else 1.0)
            worst_ratio = max(worst_ratio, abs(v_out.cumulative_probability - expect))
    ok = worst_state <= 1e-12 and worst_ratio <= 1e-12
    report(7, "feed-forward", ok,
           f"max|dstate|={worst_state:.2e} max|dcum|={worst_ratio:.2e}")


def test_08_hom_calibration():
    worst = 0.0
    for p in (0.0, 0.2, 0.5, 0.85, 1.0):
        c = hom_coincidence(0.5, p)
        visibility = (0.5 - c) / 0.5
        worst = max(worst, abs(visibility - p))
    dev = abs(hom_coincidence(0.5, 0.85) - 0.075)
    ok = worst <= 1e-15 and dev <= 1e-12
    report(8, "hom-calibration", ok, f"max_vis_err={worst:.2e} point_err={dev:.2e}")


def test_09_x_state_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    draws = []
    for _ in range(10**4):
        diag = rng.uniform(0.0, 1.0, size=4)
        draws.append((*diag, rng.uniform(-1.0, 1.0)))
    # the drawn states, in draw order, as one XStateParams column and one stack
    a, b, c, d, u = np.array(draws).T
    xi = u * np.sqrt(b * c)
    total = ((a + b) + c) + d
    params = XStateParams(
        alpha=4.0 * a / total,
        beta=4.0 * b / total,
        gamma=4.0 * c / total,
        delta=4.0 * d / total,
        xi=4.0 * xi / total,
        P=np.ones_like(total),
    )
    full = concurrence(normalized_state(params)).value
    worst = float(np.max(np.abs(concurrence_x(params) - full)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(9, "x-state-closed-form", ok, f"max|dC|={worst:.2e} {elapsed:.2f}s")


def test_10_tomography_pipeline():
    start = time.perf_counter()
    truth = stage_map(ChannelConfig(scenario=distinguishable(), T=0.4))["II"].state
    fids = []
    for seed in range(200):
        result = reconstruct(simulate_counts(truth, 500, seed=seed))
        fids.append(fidelity(result.state, truth))
    median_f = float(np.median(fids))

    poisson_ok = True
    spreads = []
    for total in (10**3, 10**4, 10**5):
        counts = simulate_counts(truth, total, seed=1)
        rep = error_bars(reconstruct(counts), counts, trials=200, seed=1)
        predicted = 1.0 / math.sqrt(total)
        poisson_ok &= abs(rep.probability_std - predicted) <= 0.2 * predicted
        spreads.append((rep.probability_std, rep.concurrence_std, rep.fidelity_std))
    shrinking = all(
        spreads[i][j] > spreads[i + 1][j] for i in range(2) for j in range(3)
    )
    elapsed = time.perf_counter() - start
    ok = median_f >= 0.90 and poisson_ok and shrinking and elapsed < 60.0
    report(10, "tomography-pipeline", ok,
           f"median_F={median_f:.4f} poisson_within_20pct={poisson_ok}"
           f" shrinking={shrinking} {elapsed:.1f}s")


def _capture(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out


def test_11_cli_determinism(tmp_path, capsys):
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(
        "scenario = partial\np = 0.85\nT = 0.3\nA_A = 0.12\nA_B = 0.3\n"
    )
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "scenario = indistinguishable\nepsilon = 0.8\nvariable = T\n"
        "start = 0.05\nstop = 0.95\nsteps = 13\n"
    )
    tomo_cfg = tmp_path / "tomo.cfg"
    tomo_cfg.write_text(
        "state = stage\nstage = II\nscenario = distinguishable\nT = 0.4\n"
        "total_triples = 400\ntrials = 15\nseed = 11\n"
    )
    commands = [
        ["run", "--config", str(run_cfg)],
        ["sweep", "--config", str(sweep_cfg)],
        ["sweep", "--config", str(sweep_cfg), "--format", "json"],
        ["oracle-check", "--grid-step", "0.2"],
        ["tomography", "--config", str(tomo_cfg)],
    ]
    stable = True
    for argv in commands:
        code_a, out_a = _capture(capsys, argv)
        code_b, out_b = _capture(capsys, argv)
        stable &= code_a == 0 and code_b == 0 and out_a == out_b

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for path in (out_a, out_b):
        code, _ = _capture(capsys, ["run", "--config", str(run_cfg), "--out", str(path)])
        stable &= code == 0
    stable &= out_a.read_bytes() == out_b.read_bytes()
    json.loads(out_a.read_text())

    exe = shutil.which("ebrsim")
    base = [exe] if exe else [sys.executable, "-m", "ebrsim.cli"]
    argv = base + ["sweep", "--config", str(sweep_cfg)]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    stable &= first.stdout == second.stdout and len(first.stdout) > 0

    report(11, "cli-determinism", stable, f"commands={len(commands)}+files+subprocess")
