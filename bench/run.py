"""End-to-end and per-layer benchmark of the ebrsim CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls ``ebrsim.cli.main(argv)`` in this process as a closed
loop: each call starts after the previous one returned. Inputs come from
``--seed``; every output is checked, outside the timed region. The last
stdout line is the result object; the line before it is a record with
the provenance, the tail percentile and the bases of every ratio.

Timings are normalised to host speed: a fixed reference kernel runs
after every call and after every set-up probe, and each time is scaled
by REF_NOMINAL_S over the reference time measured next to it. See
bench/README.md for why.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics. See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import (
    LAYERS,
    MIN_MEDIAN_FIDELITY,
    WORKLOADS,
    Call,
    CheckFailed,
    Output,
    make_sweep_T_edge,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
TAIL_BEYOND = 10
# Nominal duration of _reference_s(), a round figure near its time on
# the 2-vCPU 2.0 GHz Xeon VM the benchmark was tuned on. Normalised
# times read as milliseconds on a host where the kernel takes this long.
REF_NOMINAL_S = 0.025
REF_PROBES = 3


def _reference_s() -> float:
    """Seconds one run of a fixed kernel takes: the yardstick of host speed.

    Like ebrsim it mixes interpreted loops with small complex numpy
    operations; it is benchmark code, so no change to ebrsim moves it.
    """
    import numpy as np

    eye = np.eye(4, dtype=complex)
    start = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    m = eye
    for _ in range(600):
        m = (m @ eye + np.kron(eye[:2, :2], eye[:2, :2]) * 0.5) / 1.5
        total += m.trace().real
    return perf_counter() - start


def _invoke(cli_module, call: Call, tracer=None) -> tuple[Output, float]:
    """Run one CLI call; only ``main`` itself is inside the timed region."""
    for path, text in call.configs.items():
        path.write_text(text, encoding="utf-8")
    for path in call.outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli_module.main(call.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            elapsed = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    files = {p: p.read_text(encoding="utf-8") for p in call.outputs if p.exists()}
    return Output(code, out.getvalue(), err.getvalue(), files), elapsed


class Session:
    """Operation counts and output checks of one benchmark run."""

    def __init__(self, cli_module, workload):
        self.cli = cli_module
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, call: Call, tracer=None):
        """One checked call. Returns (output, seconds, check stats) or None if it failed."""
        self.attempted += 1
        try:
            out, elapsed = _invoke(self.cli, call, tracer)
            stats = self.workload.check(call, out)
        except CheckFailed as exc:
            self._fail(call, f"check failed: {exc}")
            return None
        except Exception:
            self._fail(call, traceback.format_exc())
            return None
        return out, elapsed, stats

    def _fail(self, call: Call, why: str) -> None:
        self.failed += 1
        self.problems.append(why.strip().splitlines()[-1])
        print(f"FAILED {call.argv}: {why}", file=sys.stderr)


def _setup_probe(workload: str, seed: int, smoke: bool, work: Path) -> int:
    """Fresh-interpreter set-up time: ``import ebrsim.cli`` through the first call."""
    work.mkdir(parents=True, exist_ok=True)
    call = WORKLOADS[workload].make(random.Random(f"{workload}:{seed}"), 0, work, smoke)
    for path, text in call.configs.items():
        path.write_text(text, encoding="utf-8")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import ebrsim.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ebrsim.cli.main(call.argv)
    setup = perf_counter() - start
    # Measured after the timed import, so numpy's import stays in set-up.
    ref = statistics.median(_reference_s() for _ in range(REF_PROBES))
    print(json.dumps({"setup_s": setup * REF_NOMINAL_S / ref, "raw_setup_s": setup,
                      "code": code}))
    return 0


def _run_probes(args, work: Path, count: int) -> tuple[list[float], list[float]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", str(work / "probe")]
    if args.smoke:
        cmd.append("--smoke")
    values, raw = [], []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=25)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or result["code"] != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip() or lines}")
        values.append(result["setup_s"])
        raw.append(result["raw_setup_s"])
    return values, raw


def _nproc() -> int | None:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _affinity() -> int | None:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _set_sweep_threads() -> None:
    """Run sweeps on one thread.

    At the CLI's default of one thread per CPU the GIL-bound pool's
    timings spread by 20-45 % between runs on a shared 2-vCPU host even
    after normalisation, against about 3 % on one thread.
    """
    os.environ["EBR_SIM_THREADS"] = "1"


def _provenance(seed: int, cli_module) -> dict:
    import ebrsim
    import numpy

    thread_count = getattr(cli_module, "thread_count", None)
    return {
        "seed": seed,
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "affinity_size": _affinity(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ebrsim": getattr(ebrsim, "__version__", None),
        "git_commit": _git_commit(),
        "EBR_SIM_THREADS": os.environ.get("EBR_SIM_THREADS"),
        "sweep_workers": thread_count() if thread_count else None,
    }


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="seconds of timed calls to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, to test the harness")
    parser.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "ebrsim" / "cli.py").is_file():
        print(f"ebrsim sources not found under {SRC}", file=sys.stderr)
        return 2
    _set_sweep_threads()
    if args.probe:
        return _setup_probe(args.workload, args.seed, args.smoke, Path(args.probe))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _bench(args, work: Path) -> int:
    workload = WORKLOADS[args.workload]
    setup, raw_setup = [], []
    if not args.trace:
        setup, raw_setup = _run_probes(args, work, 1 if args.smoke else SETUP_PROBES)

    sys.path.insert(0, str(SRC))
    import ebrsim.cli

    if Path(ebrsim.cli.__file__).resolve().parent != (SRC / "ebrsim").resolve():
        print(f"imported ebrsim from {ebrsim.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer([(name, module, attr) for name, module, attr, _ in LAYERS])

    session = Session(ebrsim.cli, workload)
    rng = random.Random(f"{args.workload}:{args.seed}")
    first = workload.make(rng, 0, work, args.smoke)
    warm = session.op(first)

    # Normalised call times; raw ones and reference times go to the record.
    plain: list[float] = []
    traced: list[float] = []
    raw: list[float] = []
    refs = [_reference_s()]
    totals: dict[str, float] = {}
    fidelities: list[float] = []
    items = 0
    index = 1
    stop = perf_counter() + args.seconds
    while perf_counter() < stop:
        call = workload.make(rng, index, work, args.smoke)
        use_tracer = tracer if tracer is not None and index % 2 == 0 else None
        done = session.op(call, use_tracer)
        if use_tracer is not None:
            tracer.fold()
        index += 1
        # The host's speed drifts by tens of percent within seconds; the
        # reference runs on either side of a call cancel that drift.
        refs.append(_reference_s())
        if done is None:
            continue
        _, elapsed, stats = done
        raw.append(elapsed)
        scale = REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
        (traced if use_tracer is not None else plain).append(elapsed * scale)
        items += call.items
        if "fidelity_to_truth" in stats:
            fidelities.append(stats.pop("fidelity_to_truth"))
        for key, value in stats.items():
            totals[key] = totals.get(key, 0.0) + value

    again = session.op(first)
    if warm is None or again is None or again[0].digest() != warm[0].digest():
        session.problems.append("rerun of the warm-up input did not reproduce its bytes")
    median_fidelity = statistics.median(fidelities) if fidelities else None
    if median_fidelity is not None and median_fidelity < MIN_MEDIAN_FIDELITY:
        session.problems.append(f"median fidelity_to_truth {median_fidelity} < 0.90")

    times = plain or traced
    if not times:
        print("no timed call succeeded", file=sys.stderr)
        return 1
    tail, tail_pct = _tail(times)
    session.attempted += len(setup)

    # The edge operation is counted in failed_ratio only, so that the known
    # T = 0 defect stays visible without failing the workload.
    edge = Session(ebrsim.cli, workload)
    if args.workload == "sweep_T_csv":
        edge.op(make_sweep_T_edge(work))
    ops_attempted = session.attempted + edge.attempted
    ops_failed = session.failed + edge.failed
    busy = sum(plain) + sum(traced)
    record = {
        "workload": args.workload,
        "provenance": _provenance(args.seed, ebrsim.cli),
        "timed_calls": len(plain) + len(traced),
        "traced_calls": len(traced),
        "items_per_call": first.items,
        "call_tail_percentile": tail_pct,
        "call_tail_samples": len(times),
        "setup_probes_s": setup,
        "raw_setup_probes_s": raw_setup,
        "raw_call_p50_ms": statistics.median(raw) * 1e3,
        "reference_p50_ms": statistics.median(refs) * 1e3,
        "reference_nominal_ms": REF_NOMINAL_S * 1e3,
        "failed_ratio": {"failed": ops_failed, "attempted": ops_attempted,
                         "value": ops_failed / ops_attempted},
        "edge_operation_problems": edge.problems,
        "check_totals": totals,
        "median_fidelity_to_truth": median_fidelity,
        "problems": session.problems,
    }

    if not args.trace:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "call_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
            "call_tail_ms": _metric(tail * 1e3, "ms"),
            "items_per_s": _metric(items / busy if busy else 0.0, "1/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        n = max(len(traced), 1)
        metrics = {}
        for name in tracer.names:
            metrics[f"{name}.calls"] = _metric(tracer.calls[name] / n, "count/call")
            metrics[f"{name}.self_s"] = _metric(tracer.self_s[name] / n, "s/call")
            metrics[f"{name}.p50_us"] = _metric(tracer.p50_us(name), "us")
        points = totals.get("points", 0.0)
        tuples = totals.get("tuples", 0.0)
        metrics.update({
            "sweep.stage3_ratio": _metric(
                totals.get("stage3_points", 0.0) / points if points else 0.0, "ratio"),
            "sweep.points": _metric(points, "count"),
            "fock.compared_ratio": _metric(
                (tuples - totals.get("skipped_tuples", 0.0)) / tuples if tuples else 0.0,
                "ratio"),
            "fock.tuples": _metric(tuples, "count"),
            "trace.overhead_ratio": _metric(
                statistics.median(traced) / statistics.median(plain)
                if traced and plain else 0.0, "ratio"),
            "trace.cli_calls": _metric(len(traced), "count"),
            "ops.failed_ratio": _metric(ops_failed / ops_attempted, "ratio"),
            "ops.attempted": _metric(ops_attempted, "count"),
        })

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
