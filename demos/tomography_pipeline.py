"""Simulated tomography of the conditioned state, at increasing budgets.

Mimics the experimental workflow: pick the stage-II state for the
distinguishable scenario at T=0.4 (true concurrence 0.308), draw Poisson
triple-coincidence counts for the 36 polarization settings, reconstruct
by linear inversion with a physicality projection, and bootstrap error
bars.  At the experiment's ~500 triples the reconstruction is faithful
(fidelity ~0.95) but the concurrence estimate is strongly biased by the
projection; the bias dies away as the budget grows.
"""

import numpy as np

from ebrsim.metrics import concurrence, fidelity
from ebrsim.protocol import ChannelConfig, distinguishable, run_protocol
from ebrsim.tomography import error_bars, reconstruct, simulate_counts

TRUTH = {s.stage: s for s in run_protocol(
    ChannelConfig(scenario=distinguishable(), T=0.4)
)}["II"].state
TRUE_C = 0.308
BUDGETS = (500, 2_000, 20_000, 200_000)
SEEDS = 40

print(f"true concurrence: {TRUE_C:.3f}\n")
print(f"{'triples':>8} {'median F':>9} {'median C':>9} {'C in +-0.1':>10}"
      f" {'C std (bootstrap)':>18}")
for total in BUDGETS:
    fids, cons = [], []
    for seed in range(SEEDS):
        result = reconstruct(simulate_counts(TRUTH, total, seed=seed))
        fids.append(fidelity(result.state, TRUTH))
        cons.append(concurrence(result.state).value)
    counts = simulate_counts(TRUTH, total, seed=0)
    report = error_bars(reconstruct(counts), counts, trials=100, seed=0)
    hit = float(np.mean([abs(c - TRUE_C) <= 0.1 for c in cons]))
    print(f"{total:>8} {np.median(fids):>9.4f} {np.median(cons):>9.4f}"
          f" {hit:>9.0%} {report.concurrence_std:>18.4f}")

print("\nrelative count-rate spread vs the Poisson prediction 1/sqrt(N):")
for total in (10**3, 10**4, 10**5):
    counts = simulate_counts(TRUTH, total, seed=1)
    report = error_bars(reconstruct(counts), counts, trials=200, seed=1)
    print(f"  N={total:>7}: measured {report.probability_std:.5f}"
          f"  predicted {1 / np.sqrt(total):.5f}")
