"""Simulator for entanglement breaking and restoration at a beam splitter.

One photon of a polarization singlet couples to an unpolarized
environment photon on a beam splitter of transmittivity T.  The package
evaluates the resulting two-qubit states stage by stage (coupling,
conditional environment measurement, local filtering), their
concurrence and success probabilities, and cross-checks every closed
form against a brute-force Fock-space oracle.  A simulated tomography
pipeline reconstructs the states from Poissonian coincidence counts.
"""

import importlib.util
import sys

from .core import (
    EbrsimError,
    InvalidParameter,
    ZeroTrace,
    maximally_mixed,
    pure_state,
    singlet_vector,
)
from .metrics import (
    ConcurrenceResult,
    NoThreshold,
    NotTwoQubit,
    XStateParams,
    assemble,
    breaking_threshold,
    concurrence,
    concurrence_x,
    fidelity,
    normalized_state,
    werner_decompose,
)
from .protocol import (
    ChannelConfig,
    FilterPair,
    Scenario,
    StageOutput,
    apply_filters,
    distinguishable,
    indistinguishable,
    partial,
    resolve_filters,
    run_protocol,
    stage1,
    stage2,
    table_filters,
)


def _deferred(name: str):
    """``ebrsim.<name>``, registered in ``sys.modules`` with its body not yet run.

    The body runs on the module's first attribute access, so a process
    that never uses the module does not compile or execute it.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Only oracle-check needs the Fock oracle, only tomography the tomography
# loop and only sweep the number kernel; run and sweep execute neither of
# the first two.
fock = _deferred("fock")
g17 = _deferred("g17")
tomography = _deferred("tomography")

# The package exports of the deferred modules, looked up on each access
_DEFERRED_EXPORTS = {
    **dict.fromkeys(
        [
            "FockState",
            "ModeLabel",
            "OracleCheckReport",
            "ZeroProbability",
            "conditional_state",
            "evolve_bs",
            "feed_forward_correction",
            "hom_coincidence",
            "oracle_check",
            "oracle_protocol",
            "postselect_one_per_arm",
            "prepare_input",
        ],
        fock,
    ),
    **dict.fromkeys(
        [
            "Counts",
            "RankDeficient",
            "TomographyResult",
            "UncertaintyReport",
            "UnusableCounts",
            "counts_from_csv",
            "counts_to_csv",
            "error_bars",
            "reconstruct",
            "simulate_counts",
            "standard_settings",
        ],
        tomography,
    ),
}


def __getattr__(name: str):
    try:
        module = _DEFERRED_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED_EXPORTS})


__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "ConcurrenceResult",
    "Counts",
    "EbrsimError",
    "FilterPair",
    "FockState",
    "InvalidParameter",
    "ModeLabel",
    "NoThreshold",
    "NotTwoQubit",
    "OracleCheckReport",
    "RankDeficient",
    "Scenario",
    "StageOutput",
    "TomographyResult",
    "UncertaintyReport",
    "UnusableCounts",
    "XStateParams",
    "ZeroProbability",
    "ZeroTrace",
    "apply_filters",
    "assemble",
    "breaking_threshold",
    "concurrence",
    "concurrence_x",
    "conditional_state",
    "counts_from_csv",
    "counts_to_csv",
    "distinguishable",
    "error_bars",
    "evolve_bs",
    "feed_forward_correction",
    "fidelity",
    "hom_coincidence",
    "indistinguishable",
    "maximally_mixed",
    "normalized_state",
    "oracle_check",
    "oracle_protocol",
    "partial",
    "postselect_one_per_arm",
    "prepare_input",
    "pure_state",
    "reconstruct",
    "resolve_filters",
    "run_protocol",
    "simulate_counts",
    "singlet_vector",
    "stage1",
    "stage2",
    "standard_settings",
    "table_filters",
    "werner_decompose",
]
