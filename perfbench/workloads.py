"""The benchmark's workloads: one stablematch campaign each.

A workload is a closed loop: one campaign in one process, trials one after
another, repeated until the run's time is up. Every repetition uses the same
master seed, so the reports of one run must be byte-identical and the exact
counts taken in the traced run hold for every repetition.

`trials` is the size of one campaign. It is fixed here, never derived from
the machine's speed, so that a report depends on the seed alone; it is sized
so that a 40-second run holds several campaigns besides its traced one,
and enough distinct trials to keep seed-to-seed variation of the work small
(chain: trial length; enumeration: proposal count). The tiny scale shrinks
n and trials for the self-test.

enum_n1024 is not in BENCHMARK.json: on a shared host its memory-heavy
trials change speed by up to 1.5x from one minute to the next, more than
any bound allows (see perfbench/design.json, "dropped_workloads"). It
stays runnable by hand, to time generate_uniform at scale.
"""

from __future__ import annotations

import math

DEFAULT_SEED = 20260808

THEOREM_PARAMS = {"c": 0.3, "C": 2.0, "delta": 0.45, "eps": 0.05}

WORKLOADS = {
    "chain_n1024": {
        "config": {
            "kind": "theorem",
            "n": 1024,
            "trials": 12,
            "method": "b",
            "params": THEOREM_PARAMS,
            "workers": 1,
        },
        "tiny": {"n": 64, "trials": 4},
    },
    "enum_n1024": {
        "config": {
            "kind": "theorem",
            "n": 1024,
            "trials": 2,
            "method": "a",
            "params": THEOREM_PARAMS,
            "workers": 1,
        },
        "tiny": {"n": 64, "trials": 2},
        # Blocking-pair search is O(n^2) in pure Python at n = 1024, so only
        # every second trial's first matching is checked.
        "check_every": 2,
    },
    "audit_n1024": {
        "config": {
            "kind": "lemma_audit",
            "n": 1024,
            "trials": 40,
            "params": {"delta": 0.3},
            "workers": 1,
        },
        "tiny": {"n": 64, "trials": 4},
    },
    "equiv_n3": {
        "config": {"kind": "equivalence", "n": 3, "trials": 20000, "workers": 2},
        "tiny": {"trials": 200},
    },
}

SCALES = ("full", "tiny")


def config_doc(name: str, scale: str, seed: int) -> dict:
    """The campaign config of a workload as an ExperimentConfig document."""
    spec = WORKLOADS[name]
    doc = dict(spec["config"], master_seed=seed, girl=0)
    if scale == "tiny":
        doc.update(spec["tiny"])
    return doc


def expected_cap(doc: dict) -> int | None:
    """Proposals every capped audit run must make: floor(n^(1 + delta))."""
    if doc["kind"] != "lemma_audit":
        return None
    return math.floor(doc["n"] ** (1 + doc["params"]["delta"]))
