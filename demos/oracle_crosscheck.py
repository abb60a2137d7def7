"""Cross-check the closed-form stage states against the Fock oracle.

The library computes every stage from closed-form X-state entries.  The
oracle rebuilds the same physics by brute force: three photons in a
truncated Fock space, an explicit beam-splitter unitary, one-per-arm
post-selection, projective environment measurement, feed-forward and
filtering as operators.  The two routes must agree to numerical noise,
for both beam-splitter phase conventions.
"""

import numpy as np

from ebrsim.fock import oracle_check, oracle_protocol
from ebrsim.metrics import concurrence_x
from ebrsim.protocol import ChannelConfig, FilterPair, partial, run_protocol

# one worked point, printed entry by entry
CONFIG = ChannelConfig(
    scenario=partial(0.6), T=0.35, filters=FilterPair(0.4, 0.8),
    branch="V", feed_forward=True,
)

closed = run_protocol(CONFIG)
for convention in ("real", "phase"):
    brute = oracle_protocol(CONFIG, convention=convention)
    print(f"--- convention = {convention} ---")
    for c_out, b_out in zip(closed, brute):
        dev = float(np.max(np.abs(c_out.state - b_out.state)))
        dp = abs(c_out.cumulative_probability - b_out.cumulative_probability)
        print(
            f"stage {c_out.stage:<4} C={concurrence_x(c_out.params):.6f}"
            f"  max|drho|={dev:.2e}  |dP|={dp:.2e}"
        )
    print()

# then the full grid the acceptance gate uses
report = oracle_check(grid_step=0.05, epsilons=(1.0, 0.25), tol=1e-10)
print(f"stages compared: {report.points}")
print(f"max state deviation: {report.max_state_deviation:.3e}")
print(f"max probability deviation: {report.max_probability_deviation:.3e}")
print("ok:", report.ok)
