"""Seeded Monte Carlo experiment engine with deterministic aggregation.

Five experiment kinds are supported:

  theorem          husband counts of one girl on fresh uniform instances
                   (method "a", the enumeration algorithm, is ground truth;
                   method "b", the randomized proposal process, is the fast
                   equivalent), summarized against a [c*ln n, C*ln n]
                   envelope;
  equivalence      total-variation distance between the husband-count
                   distributions of the two methods;
  lemma_audit      per-entity bound audits over capped windows, aggregated
                   across seeds;
  acceptance_dist  acceptances of m offers under the 1/k rule, compared to
                   harmonic-number moments and an optimized tail bound;
  coupon           time of the first output versus the classical collector
                   expectation n*H_n.

Per-trial seeds are derived arithmetically from (master seed, kind, n,
stream, trial), so a report depends only on the logical configuration,
never on worker count or scheduling; trial rows are folded in index order.
Every kind but acceptance_dist cuts its trials into ranges that a process
pool of `workers` may run; acceptance_dist never reads `workers` and runs
in this process, chunk by chunk. Report dictionaries contain no wall-clock
values (per-trial timings go only to the CSV rows).
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import reduce
from itertools import islice
from operator import getitem, gt
from pathlib import Path
from typing import Callable, NamedTuple

from . import bounds as _bounds
from .instance import generate_uniform
from .matching import stable_husbands
from .random_model import audit_window, audit_window_stats
from .random_model import run as run_process
from .rng import Rng, coin_limit, derive_seed, derive_seeds

class ConfigError(ValueError):
    """The experiment configuration is invalid; nothing was run."""


@dataclass
class ExperimentConfig:
    """One experiment: a kind, one size or a size sweep, and seeding.

    params carries the kind-specific constants (c, C, delta, eps, m); gate
    optionally names report fields that must hold for a zero exit status.
    workers and out_dir affect execution only, never results.
    """

    kind: str
    n: int | list[int]
    trials: int
    master_seed: int
    girl: int = 0
    method: str = "a"
    params: dict = field(default_factory=dict)
    gate: dict | None = None
    workers: int = 1
    out_dir: str | None = None

    @property
    def sizes(self) -> list[int]:
        return self.n if isinstance(self.n, list) else [self.n]

    def to_logical_dict(self) -> dict:
        """The result-determining part of the configuration: every field but
        the execution-only workers and out_dir."""
        doc = asdict(self)
        del doc["workers"], doc["out_dir"]
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("experiment config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("kind", "n", "trials", "master_seed"):
            if key not in doc:
                raise ConfigError(f"missing config key {key!r}")
        config = ExperimentConfig(**{**doc, "kind": str(doc["kind"]).lower()})
        validate_config(config)
        return config

    @staticmethod
    def from_json_file(path: str | Path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        return ExperimentConfig.from_dict(doc)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """An int, or a float that is neither NaN nor infinite (JSON documents
    may spell both)."""
    return _is_int(x) or isinstance(x, float) and math.isfinite(x)


def validate_config(config: ExperimentConfig) -> None:
    """Reject an infeasible or mistyped configuration before any work."""
    if config.kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {config.kind!r}; one of {KINDS}")
    spec = _KINDS[config.kind]
    ns = config.sizes
    if not ns or any(not _is_int(n) or n < 1 for n in ns):
        raise ConfigError(f"n must be a positive integer or list of them, got {config.n}")
    if len(set(ns)) != len(ns):
        raise ConfigError(f"n must list each size once, got {config.n}")
    if not _is_int(config.trials) or config.trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {config.trials}")
    if not _is_int(config.master_seed):
        raise ConfigError("master_seed must be an integer")
    if not _is_int(config.girl):
        raise ConfigError(f"girl must be an integer, got {config.girl!r}")
    if config.method not in METHODS:
        names = " or ".join(map(repr, METHODS))
        raise ConfigError(f"method must be {names}, got {config.method!r}")
    if not _is_int(config.workers) or config.workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {config.workers!r}")
    if config.out_dir is not None and not isinstance(config.out_dir, (str, Path)):
        raise ConfigError(f"out_dir must be a path string, got {config.out_dir!r}")
    _validate_gate(config.kind, spec, config.gate)
    _check_keys("params", config.kind, config.params, tuple(spec.params))
    for key, value in config.params.items():
        if not _is_number(value):
            raise ConfigError(f"params.{key} must be a number, got {value!r}")
    p = _params(config)
    if config.kind != "acceptance_dist" and not all(0 <= config.girl < n for n in ns):
        raise ConfigError(f"girl index {config.girl} out of range for n={config.n}")
    if config.kind == "theorem":
        for n in ns:
            try:
                _bounds.husband_count_envelope(n, p["c"], p["C"], p["delta"], p["eps"])
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"theorem parameters infeasible at n={n}: {exc}")
    if config.kind == "lemma_audit":
        if p["delta"] is None:
            raise ConfigError("lemma_audit requires params.delta")
        for n in ns:
            try:
                audit_window(n, p["delta"])
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"lemma_audit at n={n}: {exc}")
    if config.kind == "acceptance_dist":
        if not _is_int(p["m"]) or p["m"] < 1:
            raise ConfigError("acceptance_dist requires integer params.m >= 1")
        if p["eps"] <= 0:
            raise ConfigError("acceptance_dist eps must be positive")


def _check_keys(name: str, kind: str, doc, allowed: tuple) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be an object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{name} keys {sorted(unknown, key=str)} not valid for kind {kind!r}; "
            f"allowed: {allowed}"
        )


def _validate_gate(kind: str, spec: "_Kind", gate) -> None:
    if gate is None:
        return
    _check_keys("gate", kind, gate, tuple(g.key for g in spec.gates))
    for g in spec.gates:
        if g.key not in gate:
            continue
        value = gate[g.key]
        pair = isinstance(value, (list, tuple)) and len(value) == 2
        if g.compare == "range" and not (pair and all(map(_is_number, value))):
            raise ConfigError(f"gate.{g.key} must be [lo, hi], got {value!r}")
        if g.compare == "flag" and not isinstance(value, bool):
            raise ConfigError(f"gate.{g.key} must be true or false, got {value!r}")
        if g.compare not in ("range", "flag") and not _is_number(value):
            raise ConfigError(f"gate.{g.key} must be a number, got {value!r}")


def _params(config: ExperimentConfig) -> dict:
    """The kind's parameters, each default filled in from the kinds table."""
    return {**_KINDS[config.kind].params, **config.params}


class TrialResult(NamedTuple):
    """One trial's row of trials.csv, whose header is these field names:
    the row's own trial, seed, husband_count and elapsed_us and, between
    them, its trial's record's same-named fields, each defaulting to what a
    trial with no record writes. A campaign keeps its rows in a TrialRows."""

    trial: int
    seed: int
    husband_count: int
    first_output_time: int | None = None
    pre_output_acceptances: int = 0
    elapsed_us: int = 0


# The fields a row reads by name from its trial's record.
_RECORD_FIELDS = TrialResult._fields[3:-1]
# The record of a trial whose sampler keeps none: every field's default.
_NO_RECORD = TrialResult(0, 0, 0)
# How a 'q' column stores None, as no real value in one is negative; `add`
# writes it, and `column` and iteration read it back as None.
_NONE = -1
_LOADED = {_NONE: None}


class TrialRows:
    """Trial rows as one typed array per TrialResult field, in field order:
    'Q' for the u64 seed, 'q' for the rest. A campaign holds no Python
    object per row, and a worker sends a range's rows as these arrays. A
    row is written by `add`; rows are read back by iteration, as
    TrialResult, or one field at a time by `column`."""

    __slots__ = ("_columns", "_own", "_recorded")

    def __init__(self) -> None:
        codes = ("Q" if name == "seed" else "q" for name in TrialResult._fields)
        self._columns = tuple(map(array, codes))
        # The row's own columns, and each record field's name and column.
        self._own = self._columns[:3] + self._columns[-1:]
        self._recorded = tuple(zip(_RECORD_FIELDS, self._columns[3:-1]))

    def add(self, trial: int, seed: int, husband_count: int, record, elapsed_us: int):
        """Append one row: its own four fields, and the record's by name."""
        t, s, h, e = self._own
        t.append(trial)
        s.append(seed)
        h.append(husband_count)
        e.append(elapsed_us)
        for name, column in self._recorded:
            value = getattr(record, name)
            column.append(_NONE if value is None else value)

    def extend(self, rows: TrialRows) -> None:
        """Append another TrialRows' rows."""
        for mine, theirs in zip(self._columns, rows._columns):
            mine.extend(theirs)

    def column(self, name: str) -> array | list:
        """One field of every row, in row order: the field's own array, not
        a copy, but for a field whose default is None a list, with None
        where a row has none."""
        values = self._columns[TrialResult._fields.index(name)]
        if TrialResult._field_defaults.get(name, 0) is None:
            return list(map(_LOADED.get, values, values))
        return values

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        for row in zip(*self._columns):
            yield TrialResult._make(map(_LOADED.get, row, row))


def summarize(values: list, envelope: tuple[float, float] | None = None) -> dict:
    """Order-independent summary statistics of numeric trial outcomes.

    Quantiles use linear interpolation on the sorted values; the histogram
    has one bin per distinct value (outcomes here are small integers).
    """
    if not values:
        raise ValueError("summarize requires at least one value")
    xs = sorted(values)
    t = len(xs)
    mean = sum(xs) / t
    variance = sum((x - mean) ** 2 for x in xs) / (t - 1) if t > 1 else 0.0
    out = {
        "count": t,
        "mean": mean,
        "variance": variance,
        "min": xs[0],
        "max": xs[-1],
        "p5": _quantile(xs, 0.05),
        "p50": _quantile(xs, 0.50),
        "p95": _quantile(xs, 0.95),
        "histogram": [[k, v] for k, v in sorted(Counter(xs).items())],
    }
    if envelope is not None:
        lo, hi = envelope
        out["envelope"] = [lo, hi]
        out["inside_fraction"] = sum(1 for x in xs if lo <= x <= hi) / t
        out["below_fraction"] = sum(1 for x in xs if x < lo) / t
        out["above_fraction"] = sum(1 for x in xs if x > hi) / t
    return out


def _quantile(sorted_xs: list, q: float) -> float:
    idx = q * (len(sorted_xs) - 1)
    lo = math.floor(idx)
    hi = min(lo + 1, len(sorted_xs) - 1)
    frac = idx - lo
    return sorted_xs[lo] * (1 - frac) + sorted_xs[hi] * frac


def tv_distance(counts_a: Counter, counts_b: Counter, t_a: int, t_b: int) -> float:
    """Total-variation distance between two empirical count distributions."""
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a[k] / t_a - counts_b[k] / t_b) for k in keys)


# A trial takes (seed, *fixed) and returns (husband count, the sampler's
# record, extra): the record's fields fill the row (TrialRows.add), and extra
# is the audit's report dict, or None. Trials call the samplers through this
# module's globals, where a tracer can swap them.


def _enumeration_trial(seed: int, n: int, girl: int):
    """Method a: the husbands of `stable_husbands` on a fresh instance."""
    enum = stable_husbands(generate_uniform(n, seed), girl)
    return len(enum.husbands), enum, None


def _process_trial(seed: int, n: int, girl: int, stop: str = "natural"):
    """Method b: the randomized proposal process, run to its natural stop;
    the coupon block passes the first-output stop."""
    outputs, stats = run_process(n, girl, seed, stop=stop, track=False)
    return len(outputs), stats, None


# The husband-count samplers by method name.
METHODS: dict[str, Callable] = {"a": _enumeration_trial, "b": _process_trial}


def _audit_trial(seed: int, n: int, girl: int, delta: float, cap: int):
    """A capped run; its extra is the run's audit report."""
    outputs, stats = run_process(n, girl, seed, stop=cap)
    return len(outputs), stats, audit_window_stats(stats, delta).to_dict()


def _seed_prefix(config: ExperimentConfig, n: int, stream: int = 0) -> int:
    """derive_seed(master_seed, kind id, n, stream): the part of every
    trial's seed path that a block of trials shares."""
    return derive_seed(config.master_seed, _KIND_IDS[config.kind], n, stream)


def _run_range(task: tuple) -> tuple[TrialRows, list]:
    """One pool task: trials start..stop-1 of one stream, with their seeds
    folded here from the stream's prefix, and row indices shifted by the
    stream's offset. Each trial is timed here and its row written as it
    ends. The rows come back as columns, and the extras that are not None
    beside them as a list, in row order."""
    trial, fixed, prefix, start, stop, offset = task
    rows = TrialRows()
    add = rows.add
    extras = []
    clock = time.perf_counter_ns
    for i, seed in enumerate(derive_seeds(prefix, start, stop), start + offset):
        begin = clock()
        count, record, extra = trial(seed, *fixed)
        elapsed = (clock() - begin) // 1000
        add(i, seed, count, record, elapsed)
        if extra is not None:
            extras.append(extra)
    return rows, extras


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_trials(streams: list, trials: int, workers: int) -> tuple[TrialRows, list]:
    """Run `trials` trials of each stream; returns (rows, extras), rows in
    the streams' order, then trial order, whatever the worker count, and
    the trials' extras that are not None in the same order.

    A stream is (its trial function, the trial's fixed arguments, its seed
    prefix, its row offset). Each is cut into at most 4 ranges per pool
    process, as even as can be, and a range is one task: it holds no
    per-trial argument, so the pool forks before any per-trial object
    exists. The pool has at most `workers` processes, and no more than
    there are tasks or usable CPUs; with one, the ranges run in this
    process.
    """
    pool = min(workers, _usable_cpus())
    parts = min(4 * pool, trials)
    tasks = [
        (trial, fixed, prefix, k * trials // parts, (k + 1) * trials // parts, offset)
        for trial, fixed, prefix, offset in streams
        for k in range(parts)
    ]
    pool = min(pool, len(tasks))
    if pool <= 1:
        return _collect(map(_run_range, tasks))
    # Imported only when a pool starts: multiprocessing adds about 25 ms to
    # the import of the package.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool) as executor:
        return _collect(executor.map(_run_range, tasks))


def _collect(parts) -> tuple[TrialRows, list]:
    """The ranges' rows in one TrialRows and their extras in one list,
    each extended as a range's result arrives."""
    rows = TrialRows()
    extras: list = []
    for part, part_extras in parts:
        rows.extend(part)
        extras.extend(part_extras)
    return rows, extras


def run_experiment(config: ExperimentConfig) -> tuple[dict, TrialRows]:
    """Execute the experiment; returns (report, trial rows), the rows read
    by `len`, by iteration as TrialResult, or by `column`.

    The report is a plain JSON-ready dictionary determined entirely by the
    logical configuration. Trial rows carry per-trial timings and are only
    written to CSV, never folded into the report.
    """
    validate_config(config)
    blocks = []
    all_rows: TrialRows | None = None
    for n in config.sizes:
        block, rows = _KINDS[config.kind].run_block(config, n)
        blocks.append(block)
        # The first size's rows are extended in place: a copy would double
        # a one-size campaign's peak memory.
        if all_rows is None:
            all_rows = rows
        else:
            all_rows.extend(rows)
    report = {
        "config": config.to_logical_dict(),
        "kind": config.kind,
        "blocks": blocks,
    }
    report["gate_failures"] = check_gate(config, report)
    return report, all_rows


def _run_theorem_block(config: ExperimentConfig, n: int) -> tuple[dict, TrialRows]:
    p = _params(config)
    envelope = _bounds.husband_count_envelope(n, p["c"], p["C"], p["delta"], p["eps"])
    stream = (METHODS[config.method], (n, config.girl), _seed_prefix(config, n), 0)
    results, _ = _map_trials([stream], config.trials, config.workers)
    counts = results.column("husband_count")
    block = {
        "n": n,
        "trials": config.trials,
        "method": config.method,
        "girl": config.girl,
        "envelope": envelope.to_dict(),
        "summary": summarize(counts, (envelope.lower, envelope.upper)),
        "first_output": summarize(results.column("first_output_time")),
        "pre_output_acceptances": summarize(
            results.column("pre_output_acceptances")
        ),
    }
    return block, results


def _run_equivalence_block(config: ExperimentConfig, n: int) -> tuple[dict, TrialRows]:
    # Both samplers share one pool, each cut into ranges as if it had its
    # own: larger tasks raise the workers' peak memory. Method b's rows
    # follow method a's, while its seeds fold trials 0.. on stream 1.
    streams = [
        (METHODS["a"], (n, config.girl), _seed_prefix(config, n, 0), 0),
        (METHODS["b"], (n, config.girl), _seed_prefix(config, n, 1), config.trials),
    ]
    results, _ = _map_trials(streams, config.trials, config.workers)
    counts = results.column("husband_count")
    counts_a = Counter(islice(counts, config.trials))
    counts_b = Counter(islice(counts, config.trials, None))
    block = {
        "n": n,
        "trials_per_sampler": config.trials,
        "girl": config.girl,
        "tv_distance": tv_distance(counts_a, counts_b, config.trials, config.trials),
        "histogram_a": [[k, v] for k, v in sorted(counts_a.items())],
        "histogram_b": [[k, v] for k, v in sorted(counts_b.items())],
    }
    return block, results


def _run_audit_block(config: ExperimentConfig, n: int) -> tuple[dict, TrialRows]:
    delta = config.params["delta"]
    cap = audit_window(n, delta)
    stream = (_audit_trial, (n, config.girl, delta, cap), _seed_prefix(config, n), 0)
    results, reports = _map_trials([stream], config.trials, config.workers)
    check_names = list(reports[0]["checks"])
    pass_rates = {
        name: sum(1 for rep in reports if rep["checks"][name]["passed"])
        / len(reports)
        for name in check_names
    }
    first_failure = None
    for i, rep in enumerate(reports):
        if not rep["passed"]:
            failing = {
                name: check
                for name, check in rep["checks"].items()
                if not check["passed"]
            }
            first_failure = {"trial": i, "failing_checks": failing}
            break
    block = {
        "n": n,
        "delta": delta,
        "cap": cap,
        "trials": config.trials,
        "pass_rates": pass_rates,
        "all_pass_rate": sum(1 for rep in reports if rep["passed"]) / len(reports),
        "first_failure": first_failure,
        "first_report": reports[0],
    }
    return block, results


def _run_acceptance_block(config: ExperimentConfig, n: int) -> tuple[dict, TrialRows]:
    p = _params(config)
    m, eps = p["m"], p["eps"]
    # H_m first: an m too large for a float raises OverflowError here,
    # before any trial.
    h_m = _bounds.harmonic(m)
    trials = config.trials
    seeds = list(derive_seeds(_seed_prefix(config, n), 0, trials))
    rngs = list(map(Rng, seeds))
    counts = [0] * trials
    elapsed_ns = [0] * trials
    # Chunk by chunk, every trial's stream reads one block of draws against
    # the chunk's coin limits and skips it. Chunks of at most 2048 offers,
    # the largest block `Rng.draws` computes, keep memory flat in m.
    for lo in range(1, m + 1, 2048):
        limits = list(map(coin_limit, range(lo, min(lo + 2048, m + 1))))
        for i, rng in enumerate(rngs):
            start = time.perf_counter_ns()
            counts[i] += sum(map(gt, limits, rng.draws(len(limits))))
            rng.skip(len(limits))
            elapsed_ns[i] += time.perf_counter_ns() - start
    results = TrialRows()
    for i, (seed, count, ns) in enumerate(zip(seeds, counts, elapsed_ns)):
        results.add(i, seed, count, _NO_RECORD, ns // 1000)
    expected_var = h_m - _bounds.harmonic_second(m)
    stderr = math.sqrt(expected_var / config.trials)
    mean = sum(counts) / len(counts)
    threshold = (1 + eps) * math.log(m)
    tail_freq = sum(1 for c in counts if c >= threshold) / len(counts)
    bound = _bounds.optimize_tail(_bounds.RisingProductPgf(m), "upper", threshold)
    block = {
        "m": m,
        "trials": config.trials,
        "eps": eps,
        "summary": summarize(counts),
        "expected_mean": h_m,
        "expected_variance": expected_var,
        "stderr": stderr,
        # At m = 1 every count is 1 = H_1, and the variance is 0.
        "mean_error_in_stderr": (mean - h_m) / stderr if stderr else 0.0,
        "tail_threshold": threshold,
        "tail_frequency": tail_freq,
        "tail_bound": bound.to_dict(),
    }
    return block, results


def _run_coupon_block(config: ExperimentConfig, n: int) -> tuple[dict, TrialRows]:
    fixed = (n, config.girl, "first_output")
    stream = (_process_trial, fixed, _seed_prefix(config, n), 0)
    results, _ = _map_trials([stream], config.trials, config.workers)
    times = results.column("first_output_time")
    window = _bounds.first_output_window(n)
    expected = n * _bounds.harmonic(n)
    # The collector time's exact variance, n^2 H2_n - n H_n.
    stderr = math.sqrt((n * n * _bounds.harmonic_second(n) - expected) / config.trials)
    mean = sum(times) / len(times)
    block = {
        "n": n,
        "trials": config.trials,
        "first_output": summarize(times),
        "expected_mean": expected,
        "mean_relative_error": abs(mean - expected) / expected,
        # At n = 1 every time is 1 = 1 * H_1, and the variance is 0.
        "mean_error_in_stderr": (mean - expected) / stderr if stderr else 0.0,
        "window": window,
        "within_window_fraction": (
            sum(1 for t in times if t <= window) / len(times)
            if window is not None
            else None
        ),
    }
    return block, results


@dataclass(frozen=True)
class _Gate:
    """One gate key: the block field it reads and how the value must compare.

    compare is "min" (value >= limit), "max" (value <= limit), "abs_max"
    (|value| <= limit), "range" (lo <= value <= hi) or "flag" (when set,
    the value must not exceed the block's own tail bound). label names the
    value in a failure, "{}" standing for the value.
    """

    key: str
    label: str
    field: tuple[str, ...]
    compare: str

    def failure(self, block: dict, limit) -> str | None:
        got = reduce(getitem, self.field, block)
        if self.compare == "abs_max":
            got = abs(got)
        if self.compare == "min":
            failed, rule = got is None or got < limit, f"< {limit}"
        elif self.compare == "range":
            lo, hi = limit
            failed, rule = not lo <= got <= hi, f"outside [{lo}, {hi}]"
        elif self.compare == "flag":
            bound = block["tail_bound"]["value"]
            failed, rule = limit and got > bound, f"exceeds bound {bound}"
        else:
            failed, rule = got > limit, f"> {limit}"
        return f"{self.label.format(got)} {rule}" if failed else None


@dataclass(frozen=True)
class _Kind:
    """An experiment kind: its block runner, the parameters it reads with
    their defaults (None where the config must give one), its gates, and
    the block's histogram that write_outputs writes (None: the kind has
    none)."""

    run_block: Callable[[ExperimentConfig, int], tuple[dict, TrialRows]]
    params: dict
    gates: tuple[_Gate, ...]
    plot: tuple[str, ...] | None


# The order fixes each kind's id in the per-trial seed path.
_KINDS = {
    "theorem": _Kind(
        _run_theorem_block,
        {"c": 0.3, "C": 2.0, "delta": 0.45, "eps": 0.05},
        (
            _Gate("min_inside_fraction", "inside_fraction {}",
                  ("summary", "inside_fraction"), "min"),
            _Gate("median_range", "median {}", ("summary", "p50"), "range"),
        ),
        ("summary", "histogram"),
    ),
    "equivalence": _Kind(
        _run_equivalence_block,
        {},
        (_Gate("max_tv", "tv_distance {}", ("tv_distance",), "max"),),
        ("histogram_a",),
    ),
    "lemma_audit": _Kind(
        _run_audit_block,
        {"delta": None},
        (_Gate("min_all_pass_rate", "all_pass_rate {}", ("all_pass_rate",), "min"),),
        None,
    ),
    "acceptance_dist": _Kind(
        _run_acceptance_block,
        {"m": None, "eps": 0.5},
        (
            _Gate("max_mean_error_stderr", "|mean error| {} stderr",
                  ("mean_error_in_stderr",), "abs_max"),
            _Gate("tail_within_bound", "tail_frequency {}",
                  ("tail_frequency",), "flag"),
        ),
        ("summary", "histogram"),
    ),
    "coupon": _Kind(
        _run_coupon_block,
        {},
        (
            _Gate("max_mean_relative_error", "mean_relative_error {}",
                  ("mean_relative_error",), "max"),
            _Gate("min_window_fraction", "within_window_fraction {}",
                  ("within_window_fraction",), "min"),
        ),
        ("first_output", "histogram"),
    ),
}
KINDS = tuple(_KINDS)
_KIND_IDS = {kind: i + 1 for i, kind in enumerate(KINDS)}


def check_gate(config: ExperimentConfig, report: dict) -> list[str]:
    """Gate failures for the report, empty when everything demanded holds."""
    gate = config.gate or {}
    failures = []
    for block in report["blocks"]:
        label = f"n={block.get('n', block.get('m'))}"
        for g in _KINDS[config.kind].gates:
            if g.key in gate:
                failure = g.failure(block, gate[g.key])
                if failure is not None:
                    failures.append(f"{label}: {failure}")
    return failures


def report_json(report: dict) -> str:
    """Canonical serialization; byte-identical for identical reports."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_outputs(config: ExperimentConfig, report: dict, rows: TrialRows) -> list[Path]:
    """Write report.json under out_dir, and for each size its trials CSV
    and, unless the kind has no histogram, its histogram TSV of (value,
    frequency)."""
    if config.out_dir is None:
        return []
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.write_text(report_json(report), encoding="utf-8")
    written = [report_path]
    sizes = config.sizes
    plot = _KINDS[config.kind].plot
    per_block = len(rows) // len(sizes)
    remaining = iter(rows)
    for n, block in zip(sizes, report["blocks"]):
        suffix = "" if len(sizes) == 1 else f"_n{n}"
        path = out / f"trials{suffix}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TrialResult._fields)
            writer.writerows(islice(remaining, per_block))
        written.append(path)
        if plot is not None:
            hist = reduce(getitem, plot, block)
            total = sum(v for _, v in hist)
            tsv = out / f"histogram{suffix}.tsv"
            with tsv.open("w", encoding="utf-8") as fh:
                for value, count in hist:
                    fh.write(f"{value}\t{count / total}\n")
            written.append(tsv)
    return written
