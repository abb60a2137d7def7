"""Concurrence across the three protocol stages as the coupling varies.

Prints the curves behind the headline claim: the beam splitter breaks
the singlet's entanglement below a scenario-dependent transmittivity
threshold, measuring the environment photon restores part of it, and
local filtration restores the rest (all of it when the photons are
indistinguishable).
"""

import math

from ebrsim.metrics import breaking_threshold, concurrence_x
from ebrsim.protocol import (
    ChannelConfig,
    distinguishable,
    indistinguishable,
    partial,
    run_protocol,
)

SCENARIOS = [
    ("distinguishable", distinguishable()),
    ("indistinguishable", indistinguishable()),
    ("partial p=0.85", partial(0.85)),
]
EPSILON = 0.25
GRID = [k / 20.0 for k in range(1, 20)]


def stage_concurrences(scenario, t):
    """C_I, C_II, C_III; C_III is nan where the filter prescription is singular."""
    stages = run_protocol(ChannelConfig(scenario=scenario, T=t, epsilon=EPSILON))
    return [concurrence_x(s.params) for s in stages] + [math.nan] * (3 - len(stages))


for name, scenario in SCENARIOS:
    print(f"=== {name} (filtration epsilon = {EPSILON}) ===")
    print(f"{'T':>5} {'C_I':>8} {'C_II':>8} {'C_III':>8}")
    for t in GRID:
        c1, c2, c3 = stage_concurrences(scenario, t)
        bar = "#" * int(round(40 * c3)) if not math.isnan(c3) else "(singular filter)"
        print(f"{t:5.2f} {c1:8.4f} {c2:8.4f} {c3:8.4f}  {bar}")
    thr = breaking_threshold(scenario, "I")
    print(f"stage-I entanglement-breaking threshold: T = {thr:.6f}")
    print()

print("reference thresholds: sqrt(2)-1 =", f"{math.sqrt(2) - 1:.6f},",
      "1/sqrt(3) =", f"{1 / math.sqrt(3):.6f}")
