"""Stable-husband enumeration, a randomized proposal model, and the
tail-bound machinery and Monte Carlo harness used to study them."""

from .bounds import (
    BinomialPowerPgf,
    HusbandCountEnvelope,
    RisingProductPgf,
    TailBound,
    eval_log,
    harmonic,
    husband_count_envelope,
    optimize_tail,
    tail_bound,
)
from .harness import ExperimentConfig, TrialResult, run_experiment, summarize
from .instance import (
    InstanceLoadError,
    PreferenceInstance,
    fixture_4x4,
    generate_uniform,
    load,
    save,
    validate,
)
from .matching import (
    BlockingPair,
    HusbandEnumeration,
    Matching,
    TraceEvent,
    find_blocking_pairs,
    gale_shapley_boys_propose,
    stable_husbands,
)
from .oracle import OracleScaleError, StableSet, enumerate_stable
from .random_model import (
    AuditReport,
    RunStats,
    audit_window_stats,
    new_state,
    run,
)
from .rng import Rng, derive_seed

__version__ = "0.1.0"

__all__ = [
    "BinomialPowerPgf",
    "BlockingPair",
    "ExperimentConfig",
    "HusbandCountEnvelope",
    "HusbandEnumeration",
    "InstanceLoadError",
    "Matching",
    "OracleScaleError",
    "PreferenceInstance",
    "RisingProductPgf",
    "Rng",
    "RunStats",
    "StableSet",
    "TailBound",
    "TraceEvent",
    "AuditReport",
    "audit_window_stats",
    "derive_seed",
    "enumerate_stable",
    "eval_log",
    "find_blocking_pairs",
    "fixture_4x4",
    "gale_shapley_boys_propose",
    "generate_uniform",
    "harmonic",
    "husband_count_envelope",
    "load",
    "new_state",
    "optimize_tail",
    "run",
    "run_experiment",
    "save",
    "stable_husbands",
    "summarize",
    "tail_bound",
    "validate",
    "TrialResult",
]
