"""Concurrence across the three protocol stages as the coupling varies.

Prints the curves behind the headline claim: the beam splitter breaks
the singlet's entanglement below a scenario-dependent transmittivity
threshold, measuring the environment photon restores part of it, and
local filtration restores the rest (all of it when the photons are
indistinguishable).  Filtration never lowers the concurrence: where stage
II has none to restore (indistinguishable photons at T = 1/2) the
prescribed pair is the unit pair and stage III is stage II.  Each
scenario's grid is one column of points, evaluated in one
``run_protocol`` call.
"""

import math

import numpy as np

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


def stage_concurrences(scenario):
    """C_I, C_II, C_III columns over GRID; C_III is nan where filtering left no trace."""
    s1, s2, s3 = run_protocol(ChannelConfig(scenario=scenario, T=np.array(GRID), epsilon=EPSILON))
    c3 = np.full(len(GRID), math.nan)
    c3[s3.kept] = concurrence_x(s3.params)
    return concurrence_x(s1.params), concurrence_x(s2.params), c3


for name, scenario in SCENARIOS:
    print(f"=== {name} (filtration epsilon = {EPSILON}) ===")
    print(f"{'T':>5} {'C_I':>8} {'C_II':>8} {'C_III':>8}")
    for t, c1, c2, c3 in zip(GRID, *stage_concurrences(scenario)):
        bar = "#" * int(round(40 * c3)) if not math.isnan(c3) else "(zero trace)"
        print(f"{t:5.2f} {c1:8.4f} {c2:8.4f} {c3:8.4f}  {bar}")
    thr = breaking_threshold(scenario, "I")
    print(f"stage-I entanglement-breaking threshold: T = {thr:.6f}")
    print()

print("reference thresholds: sqrt(2)-1 =", f"{math.sqrt(2) - 1:.6f},",
      "1/sqrt(3) =", f"{1 / math.sqrt(3):.6f}")
