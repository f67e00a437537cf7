from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import stablematch

from stablematch import harness
from stablematch.bounds import harmonic
from stablematch.harness import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    TrialResult,
    TrialRows,
    _run_range,
    _seed_prefix,
    report_json,
    run_experiment,
    summarize,
    tv_distance,
    write_outputs,
)
from stablematch.instance import generate_uniform
from stablematch.matching import stable_husbands
from stablematch.oracle import enumerate_stable
from stablematch.random_model import run as run_process
from stablematch.rng import Rng, coin_limit, derive_seed

from collections import Counter

from oracles import coupon_cdf


class TestSummarize:
    def test_single_value_inside_envelope(self):
        out = summarize([5], envelope=(2, 10))
        assert out["inside_fraction"] == 1.0
        assert out["mean"] == 5 and out["count"] == 1

    def test_half_inside(self):
        out = summarize([3, 7], envelope=(4, 10))
        assert out["inside_fraction"] == 0.5
        assert out["below_fraction"] == 0.5

    def test_permutation_stable(self):
        a = summarize([3, 1, 4, 1, 5, 9, 2, 6], envelope=(2, 6))
        b = summarize([9, 6, 5, 4, 3, 2, 1, 1], envelope=(2, 6))
        assert a == b

    def test_quantiles_and_histogram(self):
        out = summarize(list(range(1, 101)))
        assert out["p50"] == pytest.approx(50.5)
        assert out["p5"] == pytest.approx(5.95)
        assert out["p95"] == pytest.approx(95.05)
        assert out["histogram"][0] == [1, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


def test_tv_distance():
    a = Counter({1: 50, 2: 50})
    b = Counter({1: 25, 2: 25, 3: 50})
    assert tv_distance(a, b, 100, 100) == pytest.approx(0.5)
    assert tv_distance(a, a, 100, 100) == 0.0


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"kind": "magic", "n": 4, "trials": 1, "master_seed": 0}
            )

    def test_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"kind": "coupon", "n": 4, "trials": 1, "master_seed": 0, "x": 1}
            )

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "coupon", "n": 4, "trials": 1})

    def test_lemma_audit_needs_delta(self):
        with pytest.raises(ConfigError, match="delta"):
            ExperimentConfig.from_dict(
                {"kind": "lemma_audit", "n": 16, "trials": 1, "master_seed": 0}
            )

    def test_acceptance_dist_needs_m(self):
        with pytest.raises(ConfigError, match="m"):
            ExperimentConfig.from_dict(
                {"kind": "acceptance_dist", "n": 1, "trials": 5, "master_seed": 0}
            )

    def test_theorem_infeasible_params_rejected_before_work(self):
        with pytest.raises(ConfigError, match="infeasible"):
            ExperimentConfig.from_dict(
                {
                    "kind": "theorem",
                    "n": 64,
                    "trials": 10**9,
                    "master_seed": 0,
                    "params": {"c": 0.4, "C": 2.0, "delta": 0.45, "eps": 0.2},
                }
            )

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("theorem", {"c": None}),
            ("acceptance_dist", {"m": 5, "eps": None}),
            ("lemma_audit", {"delta": None}),
        ],
    )
    def test_null_param_rejected(self, kind, params):
        # A parameter given as null is not a number, even where the kind
        # has no default for it.
        key = next(k for k, v in params.items() if v is None)
        with pytest.raises(ConfigError, match=f"params.{key} must be a number"):
            ExperimentConfig.from_dict(
                {"kind": kind, "n": 8, "trials": 1, "master_seed": 1, "params": params}
            )

    def test_unknown_param_key_rejected(self):
        with pytest.raises(ConfigError, match=r"params keys \['detla'\].*allowed"):
            ExperimentConfig.from_dict(
                {"kind": "theorem", "n": 8, "trials": 1, "master_seed": 1,
                 "method": "b", "params": {"detla": 0.3}}
            )
        # A key of another kind is unknown too.
        with pytest.raises(ConfigError, match="params keys"):
            ExperimentConfig.from_dict(
                {"kind": "coupon", "n": 8, "trials": 1, "master_seed": 1,
                 "params": {"delta": 0.3}}
            )

    @pytest.mark.parametrize("entry", ["params", "gate"])
    def test_unknown_keys_of_mixed_types_are_named(self, entry):
        # A config built in Python may mix key types, which do not sort.
        with pytest.raises(ConfigError, match=rf"{entry} keys \[1, 'x'\]"):
            ExperimentConfig.from_dict(
                {"kind": "coupon", "n": 4, "trials": 1, "master_seed": 1,
                 entry: {1: 0.1, "x": 0.2}}
            )

    def test_girl_out_of_range(self):
        with pytest.raises(ConfigError, match="girl"):
            ExperimentConfig.from_dict(
                {"kind": "coupon", "n": 4, "trials": 1, "master_seed": 0, "girl": 4}
            )

    def test_uppercase_kind_accepted(self):
        config = ExperimentConfig.from_dict(
            {"kind": "COUPON", "n": 4, "trials": 1, "master_seed": 0}
        )
        assert config.kind == "coupon"

    def test_bad_gate_key_rejected_before_any_trial(self):
        with pytest.raises(ConfigError, match="gate keys"):
            ExperimentConfig.from_dict(
                {"kind": "coupon", "n": 4, "trials": 10**9, "master_seed": 1,
                 "gate": {"max_tv": 0.1}}
            )

    def test_gate_may_name_one_of_its_keys(self):
        for gate in ({"min_inside_fraction": 0.0}, {"median_range": [0, 100]}):
            config = ExperimentConfig.from_dict(
                {"kind": "theorem", "n": 8, "trials": 2, "master_seed": 1,
                 "method": "b", "gate": gate}
            )
            assert run_experiment(config)[0]["gate_failures"] == []

    def test_bad_gate_key(self):
        config = ExperimentConfig(
            kind="coupon", n=4, trials=2, master_seed=1, gate={"max_tv": 0.1}
        )
        with pytest.raises(ConfigError, match="gate"):
            run_experiment(config)


# Every kind whose trials go through the pool, at small sizes.
POOLED_KINDS = [
    {"kind": "theorem", "n": 6, "trials": 40, "master_seed": 77, "method": "a"},
    {"kind": "theorem", "n": 16, "trials": 40, "master_seed": 77, "method": "b"},
    {"kind": "equivalence", "n": 4, "trials": 40, "master_seed": 77},
    {"kind": "lemma_audit", "n": 16, "trials": 10, "master_seed": 77,
     "params": {"delta": 0.3}},
    {"kind": "coupon", "n": 16, "trials": 40, "master_seed": 77},
]


class TestTheoremExperiment:
    def test_counts_match_oracle_at_small_n(self):
        config = ExperimentConfig(
            kind="theorem", n=6, trials=30, master_seed=11, method="a"
        )
        report, rows = run_experiment(config)
        assert len(rows) == 30
        for row in rows:
            inst = generate_uniform(6, row.seed)
            stable = enumerate_stable(inst)
            assert row.husband_count == len(stable.husband_sets[0])
            assert row.first_output_time is not None

    def test_methods_agree_distributionally_via_equivalence_kind(self):
        config = ExperimentConfig(
            kind="equivalence", n=2, trials=3000, master_seed=5
        )
        report, _ = run_experiment(config)
        assert report["blocks"][0]["tv_distance"] < 0.1

    def test_block_structure(self):
        config = ExperimentConfig(
            kind="theorem", n=8, trials=20, master_seed=3, method="b"
        )
        report, rows = run_experiment(config)
        block = report["blocks"][0]
        assert block["envelope"]["lower"] == pytest.approx(0.3 * math.log(8))
        assert block["summary"]["count"] == 20
        # Every natural run emits a husband, so every trial has a first output.
        assert block["first_output"]["count"] == 20
        assert all(row.first_output_time is not None for row in rows)
        assert "inside_fraction" in block["summary"]
        assert report["gate_failures"] == []

    def test_worker_count_invariance(self, monkeypatch):
        # Two usable CPUs, so that workers = 2 starts a real pool anywhere.
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        for doc in POOLED_KINDS:
            report1, rows1 = run_experiment(ExperimentConfig.from_dict(doc))
            report2, rows2 = run_experiment(
                ExperimentConfig.from_dict({**doc, "workers": 2})
            )
            assert report_json(report1) == report_json(report2), doc
            assert [r[:-1] for r in rows1] == [r[:-1] for r in rows2], doc
            for rows in (rows1, rows2):
                assert all(type(r) is TrialResult for r in rows), doc

    def test_size_sweep(self):
        config = ExperimentConfig(
            kind="theorem", n=[8, 16], trials=5, master_seed=9, method="b"
        )
        report, rows = run_experiment(config)
        assert [b["n"] for b in report["blocks"]] == [8, 16]
        assert len(rows) == 10


class TestOtherKinds:
    def test_acceptance_dist_moments(self):
        config = ExperimentConfig(
            kind="acceptance_dist",
            n=1,
            trials=400,
            master_seed=21,
            params={"m": 200, "eps": 0.5},
        )
        report, rows = run_experiment(config)
        block = report["blocks"][0]
        assert abs(block["mean_error_in_stderr"]) < 5
        assert block["expected_mean"] == pytest.approx(harmonic(200))
        assert block["tail_frequency"] <= block["tail_bound"]["value"]
        assert len(rows) == 400

    def test_acceptance_limits_are_the_float_rule(self):
        # Below each coin limit `Rng.random`'s float rule accepts, at it the
        # rule rejects; the rule is monotone in u, so that pins every draw.
        def accepts(u, k):
            return (u >> 11) * 2.0**-53 * k < 1.0

        for k in [*range(1, 3000), 2**20 + 1, 10**6 - 1, 2**53 - 1]:
            limit = coin_limit(k)
            assert limit > 0 and accepts(limit - 1, k)
            assert limit == 2**64 or not accepts(limit, k)

    def test_acceptance_counts_match_scalar_draws(self):
        # Each trial draws offer k's test from draw k - 1 of its seed's stream.
        m, trials = 300, 200
        config = ExperimentConfig(
            kind="acceptance_dist", n=1, trials=trials, master_seed=5,
            params={"m": m},
        )
        _, rows = run_experiment(config)
        for row in rows:
            rng = Rng(row.seed)
            expected = sum(rng.random() * k < 1.0 for k in range(1, m + 1))
            assert row.husband_count == expected

    def test_acceptance_counts_past_one_chunk(self, monkeypatch):
        # Three chunks, the last of 5 limits: in every trial's stream each
        # chunk's draws follow the last chunk's, and the stream ends past
        # offer m's draw, as m scalar `random()` calls leave it.
        m, trials = 2 * 2048 + 5, 20
        streams = []

        def keep(seed):
            streams.append(Rng(seed))
            return streams[-1]

        monkeypatch.setattr(harness, "Rng", keep)
        config = ExperimentConfig(
            kind="acceptance_dist", n=1, trials=trials, master_seed=6,
            params={"m": m},
        )
        _, rows = run_experiment(config)
        assert len(rows) == len(streams) == trials
        for row, stream in zip(rows, streams):
            rng = Rng(row.seed)
            expected = sum(rng.random() * k < 1.0 for k in range(1, m + 1))
            assert row.husband_count == expected
            assert stream._state == rng._state

    def test_acceptance_memory_is_flat_in_m(self):
        # An m-long table of limits at m = 2**18 alone takes about 11 MB.
        config = ExperimentConfig(
            kind="acceptance_dist", n=1, trials=2, master_seed=5,
            params={"m": 2**18},
        )
        tracemalloc.start()
        try:
            run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_campaign_rows_are_compact(self):
        # A campaign holds its rows as typed columns, 48 bytes a row, never
        # as one tuple of Python ints per row (about 190 bytes), and writes
        # each row into them as its trial ends: packing a range's row tuples
        # into the columns afterwards peaked at about 100 bytes a row here,
        # against 77 for the direct write. The equivalence block counts its
        # halves from the column in place: listing and slicing the column
        # first peaked at 77 bytes a row, against 71 in place.
        config = ExperimentConfig(kind="equivalence", n=3, trials=5000, master_seed=3)
        tracemalloc.start()
        try:
            _, rows = run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 10_000
        assert peak <= 74 * len(rows)

    def test_coupon_block(self):
        config = ExperimentConfig(kind="coupon", n=40, trials=60, master_seed=31)
        report, rows = run_experiment(config)
        block = report["blocks"][0]
        expected = 40 * harmonic(40)
        assert block["expected_mean"] == pytest.approx(expected)
        assert block["mean_relative_error"] < 0.35
        # The collector window n*ln(n)*lnln(n) is wide only asymptotically;
        # at n=40 it sits barely above the mean, so some mass exceeds it.
        assert block["within_window_fraction"] >= 0.8
        assert all(r.husband_count == 1 for r in rows)
        # The mean's error is read against the collector time's exact
        # variance, here summed from its cdf: E[T] is the sum of P(T > t),
        # and E[T^2] that of (2t + 1) P(T > t).
        tails = [1 - c for c in coupon_cdf(40, 4000)]
        mean = sum(tails)
        variance = sum((2 * t + 1) * p for t, p in enumerate(tails)) - mean**2
        z = (block["first_output"]["mean"] - mean) / math.sqrt(variance / 60)
        assert block["mean_error_in_stderr"] == pytest.approx(z, rel=1e-6)

    def test_lemma_audit_block(self):
        config = ExperimentConfig(
            kind="lemma_audit",
            n=64,
            trials=2,
            master_seed=41,
            params={"delta": 0.3},
        )
        report, rows = run_experiment(config)
        block = report["blocks"][0]
        assert block["cap"] == math.floor(64**1.3)
        assert set(block["pass_rates"]) == {
            "girl_proposal_window",
            "boy_run_starts",
            "run_fresh_length",
            "run_total_length",
            "boy_total_proposals",
            "pair_repeat_proposals",
            "girl_fresh_floor",
        }
        # The window floor(64**1.3) = 223 can end before the first output
        # (coupon time is near 64*H_64 = 303), so first_output_time may be
        # empty in the rows; only the audit mechanics are asserted here.
        assert len(rows) == 2


class TestGates:
    def test_gate_failure_listed(self):
        # tv_distance is nonnegative, so a negative ceiling always fails.
        config = ExperimentConfig(
            kind="equivalence",
            n=2,
            trials=200,
            master_seed=13,
            gate={"max_tv": -1.0},
        )
        report, _ = run_experiment(config)
        assert report["gate_failures"]

    def test_gate_pass_empty(self):
        config = ExperimentConfig(
            kind="coupon",
            n=30,
            trials=20,
            master_seed=15,
            gate={"max_mean_relative_error": 0.9},
        )
        report, _ = run_experiment(config)
        assert report["gate_failures"] == []

    def test_coupon_without_a_window(self):
        # At n = 2, ln ln n < 0, so the collector window is None: the report
        # writes window and within_window_fraction as null, and a
        # min_window_fraction gate fails with its named message.
        config = ExperimentConfig(
            kind="coupon",
            n=2,
            trials=20,
            master_seed=15,
            gate={"min_window_fraction": 0.5},
        )
        report, _ = run_experiment(config)
        block = json.loads(report_json(report))["blocks"][0]
        assert block["window"] is None
        assert block["within_window_fraction"] is None
        assert report["gate_failures"] == ["n=2: within_window_fraction None < 0.5"]


class TestOutputs:
    def test_written_files(self, tmp_path):
        config = ExperimentConfig(
            kind="theorem",
            n=8,
            trials=10,
            master_seed=1,
            method="b",
            out_dir=str(tmp_path / "exp"),
        )
        report, rows = run_experiment(config)
        paths = write_outputs(config, report, rows)
        names = {p.name for p in paths}
        assert names == {"report.json", "trials.csv", "histogram.tsv"}
        with (tmp_path / "exp" / "trials.csv").open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == [
                "trial",
                "seed",
                "husband_count",
                "first_output_time",
                "pre_output_acceptances",
                "elapsed_us",
            ]
            assert len(list(reader)) == 10
        loaded = json.loads((tmp_path / "exp" / "report.json").read_text())
        assert loaded["kind"] == "theorem"
        hist_rows = (tmp_path / "exp" / "histogram.tsv").read_text().splitlines()
        assert sum(float(line.split("\t")[1]) for line in hist_rows) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kind,params,histograms",
        [("coupon", {}, True), ("lemma_audit", {"delta": 0.3}, False)],
    )
    def test_sweep_files_follow_the_kind(self, tmp_path, kind, params, histograms):
        # Every out_dir gets one trials CSV a size, and one histogram TSV a
        # size unless the kind has no histogram.
        config = ExperimentConfig(
            kind=kind, n=[8, 16], trials=3, master_seed=5, params=params,
            out_dir=str(tmp_path),
        )
        report, rows = run_experiment(config)
        names = {p.name for p in write_outputs(config, report, rows)}
        expected = {"report.json", "trials_n8.csv", "trials_n16.csv"}
        if histograms:
            expected |= {"histogram_n8.tsv", "histogram_n16.tsv"}
        assert names == expected == {p.name for p in tmp_path.iterdir()}
        for n in (8, 16):
            with (tmp_path / f"trials_n{n}.csv").open() as fh:
                assert len(list(csv.reader(fh))) == 1 + 3

    def test_report_excludes_execution_details(self):
        config = ExperimentConfig(
            kind="coupon", n=20, trials=5, master_seed=2, workers=2, out_dir="zzz"
        )
        report, _ = run_experiment(config)
        assert "workers" not in report["config"]
        assert "out_dir" not in report["config"]


def test_trial_seed_derivation_is_arithmetic():
    # Any worker can recompute the seed of any trial from the master seed.
    config = ExperimentConfig(kind="coupon", n=20, trials=3, master_seed=99)
    _, rows = run_experiment(config)
    assert [r.seed for r in rows] == [
        derive_seed(99, 5, 20, 0, i) for i in range(3)
    ]


@given(
    st.sampled_from(KINDS),
    st.integers(-(2**70), 2**70),
    st.integers(1, 2**20),
    st.integers(0, 1),
    st.integers(0, 40),
    st.integers(0, 40),
)
def test_trial_seeds_are_the_full_path(kind, master, n, stream, start, size):
    # The prefix (master, kind, n, stream) is folded once per block; a
    # worker adds each trial's fold with derive_seeds, which must give
    # derive_seed's full path.
    config = ExperimentConfig(kind=kind, n=n, trials=1, master_seed=master)
    kind_id = KINDS.index(kind) + 1
    prefix = _seed_prefix(config, n, stream)
    record = harness._NO_RECORD
    task = (lambda seed: (0, record, None), (), prefix, start, start + size, 0)
    rows, extras = _run_range(task)
    assert extras == []
    assert [r.trial for r in rows] == list(range(start, start + size))
    assert [r.seed for r in rows] == [
        derive_seed(master, kind_id, n, stream, trial)
        for trial in range(start, start + size)
    ]


@pytest.fixture
def stub_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: each pool made records its size
    and the tasks it is sent, and runs them in this process."""
    pools = []

    class StubPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    return pools


@pytest.mark.parametrize(
    "kind, workers, trials, cpus, size",
    [
        ("coupon", 8, 3, 16, 3),  # no more processes than tasks
        ("equivalence", 8, 3, 16, 6),  # two streams of 3 tasks
        ("coupon", 10**6, 40, 2, 2),  # no more than the usable CPUs
        ("coupon", 4, 40, 16, 4),
        ("coupon", 8, 40, 1, None),  # one CPU: no pool, the ranges run here
    ],
)
def test_pool_is_capped(stub_pool, monkeypatch, kind, workers, trials, cpus, size):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    doc = {"kind": kind, "n": 8, "trials": trials, "master_seed": 3}
    report, rows = run_experiment(
        ExperimentConfig.from_dict({**doc, "workers": workers})
    )
    assert [pool.max_workers for pool in stub_pool] == ([size] if size else [])
    report_1, rows_1 = run_experiment(ExperimentConfig.from_dict(doc))
    assert report_json(report) == report_json(report_1)
    assert [r[:-1] for r in rows] == [r[:-1] for r in rows_1]


@pytest.mark.parametrize(
    "kind, params",
    [("coupon", {}), ("lemma_audit", {"delta": 0.3}), ("equivalence", {})],
)
def test_uneven_ranges_equal_one_range(monkeypatch, kind, params):
    # At workers 1 a stream is cut into min(4, trials) ranges, so 7 trials
    # make ranges of 1, 2, 2 and 2 trials; their rows and the report must
    # be those of one range over all 7.
    doc = {"kind": kind, "n": 8, "trials": 7, "master_seed": 12, "workers": 1,
           "params": params}
    spans = []
    run_range = harness._run_range

    def recording(task):
        spans.append(task[3:5])
        return run_range(task)

    monkeypatch.setattr(harness, "_run_range", recording)
    report, rows = run_experiment(ExperimentConfig.from_dict(doc))
    streams = 2 if kind == "equivalence" else 1
    assert spans == [(0, 1), (1, 3), (3, 5), (5, 7)] * streams
    assert [r.trial for r in rows] == list(range(7 * streams))

    def one_range(streams, trials, workers):
        return harness._collect(
            run_range((trial, fixed, prefix, 0, trials, offset))
            for trial, fixed, prefix, offset in streams
        )

    monkeypatch.setattr(harness, "_map_trials", one_range)
    report_1, rows_1 = run_experiment(ExperimentConfig.from_dict(doc))
    assert report_json(report) == report_json(report_1)
    assert [r[:-1] for r in rows] == [r[:-1] for r in rows_1]


def test_usable_cpus():
    cpus = harness._usable_cpus()
    assert cpus >= 1
    if hasattr(os, "sched_getaffinity"):
        assert cpus == len(os.sched_getaffinity(0))


def test_pool_tasks_are_trial_ranges(stub_pool, monkeypatch):
    # A task names a range of trials, never one argument tuple per trial:
    # at most 4 tasks per worker and stream, each the same size at any
    # trial count (at 400 and 4,000 trials every start, stop and offset of
    # the largest task pickles at the same width).
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    largest = []
    for trials in (400, 4000):
        doc = {"kind": "equivalence", "n": 2, "trials": trials, "master_seed": 5}
        _, rows = run_experiment(ExperimentConfig.from_dict({**doc, "workers": 2}))
        assert [r.trial for r in rows] == list(range(2 * trials))
        pool = stub_pool.pop()
        per_stream = Counter(task[2] for task in pool.tasks)
        assert len(per_stream) == 2 and max(per_stream.values()) <= 4 * 2
        for prefix in per_stream:
            spans = [task[3:5] for task in pool.tasks if task[2] == prefix]
            assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
            assert spans[-1][1] == trials
        largest.append(max(len(pickle.dumps(task)) for task in pool.tasks))
    assert largest[0] == largest[1]


def test_equivalence_campaign_starts_one_pool(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    doc = {"kind": "equivalence", "n": 3, "trials": 20, "master_seed": 4}
    report_2, rows = run_experiment(ExperimentConfig.from_dict({**doc, "workers": 2}))
    assert pools == [2]
    assert [r.trial for r in rows] == list(range(40))
    report_1, _ = run_experiment(ExperimentConfig.from_dict(doc))
    assert report_json(report_2) == report_json(report_1)


def test_trial_result_row_shape():
    # A row is written as the tuple itself; csv writes None as an empty field.
    out = io.StringIO()
    csv.writer(out).writerow(TrialResult(0, 7, 3, None, 1, 12))
    assert out.getvalue() == "0,7,3,,1,12\r\n"


def test_trial_rows_give_back_their_rows():
    # Each row comes back as the TrialResult it went in as, a missing first
    # output and the largest u64 seed included, by iteration and pickle (the
    # way a worker sends a range); a column is the field's own array. A
    # TrialResult has every record field, so it serves as its own record.
    given = [
        TrialResult(0, 2**64 - 1, 3, first_output_time=None, pre_output_acceptances=1,
                    elapsed_us=12),
        TrialResult(1, 5, 1, first_output_time=7, pre_output_acceptances=0, elapsed_us=9),
        TrialResult(2, 0, 2, first_output_time=1, pre_output_acceptances=2, elapsed_us=0),
    ]
    rows, first = TrialRows(), TrialRows()
    for row in given:
        rows.add(row.trial, row.seed, row.husband_count, row, row.elapsed_us)
    first.add(0, 2**64 - 1, 3, given[0], 12)
    rows.extend(first)
    expected = given + given[:1]
    assert list(rows) == expected
    assert list(pickle.loads(pickle.dumps(rows))) == expected
    assert rows.column("first_output_time") == [None, 7, 1, None]
    assert rows.column("seed") == array("Q", [2**64 - 1, 5, 0, 2**64 - 1])
    assert rows.column("seed") is rows.column("seed")


@pytest.mark.parametrize(
    "record",
    [
        run_process(6, 2, 9, track=False)[1],
        run_process(64, 0, 9, stop="cap", max_proposals=5)[1],
        stable_husbands(generate_uniform(6, 9), 2),
        harness._NO_RECORD,
    ],
    ids=["run", "run_capped", "stable_husbands", "no_record"],
)
def test_records_carry_every_record_field(record):
    # The row writer reads each TrialResult field between husband_count and
    # elapsed_us from the record by name. Each must be an attribute of the
    # chain's record, capped (no first output) or not, of the search's, and
    # of the acceptance block's record of defaults, and the written row must
    # give its value back: a field added to TrialResult alone fails here.
    assert harness._RECORD_FIELDS == TrialResult._fields[3:-1]
    rows = TrialRows()
    rows.add(0, 1, 2, record, 3)
    (row,) = rows
    assert row[:3] == (0, 1, 2) and row.elapsed_us == 3
    for name in harness._RECORD_FIELDS:
        assert getattr(row, name) == getattr(record, name)
        assert rows.column(name)[0] == getattr(record, name)


NUMPY_PROBE = """
import sys
import stablematch.cli
from stablematch.harness import ExperimentConfig, run_experiment

for doc in [
    {"kind": "theorem", "n": 8, "trials": 3, "master_seed": 1, "method": "a"},
    {"kind": "theorem", "n": 8, "trials": 3, "master_seed": 1, "method": "b"},
    {"kind": "equivalence", "n": 3, "trials": 50, "master_seed": 1},
    {"kind": "lemma_audit", "n": 16, "trials": 2, "master_seed": 1,
     "params": {"delta": 0.3}},
    {"kind": "coupon", "n": 16, "trials": 3, "master_seed": 1},
    {"kind": "acceptance_dist", "n": 1, "trials": 3, "master_seed": 1,
     "params": {"m": 10}},
]:
    run_experiment(ExperimentConfig.from_dict(doc))
print("numpy" in sys.modules)
import numpy
print("numpy" in sys.modules)
"""


def _probe(code: str) -> list[str]:
    """The words a fresh interpreter prints running code with this package."""
    src = str(Path(stablematch.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.split()


def test_chain_campaigns_never_import_numpy():
    # Importing numpy adds 11 to 14 MB of peak resident memory and 55 to
    # 75 ms of start-up, a large share of a chain campaign's peak RSS. No
    # kind uses it; the probe's explicit import at the end shows that it
    # sees the import when one happens.
    assert _probe(NUMPY_PROBE) == ["False", "True"]


def test_import_leaves_multiprocessing_out():
    # The pool's modules are imported only when a pool starts.
    code = (
        "import sys, stablematch, stablematch.cli\n"
        "print('multiprocessing' in sys.modules)\n"
        "import concurrent.futures.process\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    assert _probe(code) == ["False", "True"]
