"""Benchmark of stablematch campaigns, run from the root of a checkout.

    python3 perfbench/run.py --workload chain_n1024 --seed 20260808 \
        --seconds 40 --trace 0

Each workload (see workloads.py) is one campaign run through the public
`stablematch.harness.run_experiment` with no gate, repeated with the same
seed while another repetition still fits in --seconds, so that a run,
checks and set-up probes included, ends near --seconds (it always makes at
least one repetition of each kind). With --trace 0 the last line printed is a
JSON object with the end-to-end metrics, measured with tracing off; with
--trace 1 it holds the per-layer metrics of a traced run (tracing.py).
Lines before it, starting with "#", record the machine and sample counts.

Every run also makes one traced campaign, which counts proposals exactly and
checks each trial's outputs, and compares report digests: the reports of one
run must be byte-identical, and at the default seed they must equal the
digest pinned in perfbench/design.json. A digest mismatch fails every trial
of the run.

--scale tiny shrinks every workload for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
DESIGN = HERE / "design.json"

SETUP_PROBES = 7
# Room left for the end-to-end run's traced campaign, in untraced campaigns
# (tracing and the checks make it slower), and the wall time guessed for a
# set-up probe before the first one is timed.
TRACED_COST = 1.25
PROBE_GUESS = 0.5
DRAW_LOOP = 100_000
DRAW_REPS = 5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args(argv)

    if not (SRC / "stablematch" / "__init__.py").is_file():
        print(f"error: no stablematch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stablematch

    if Path(stablematch.__file__).resolve().parent != SRC / "stablematch":
        print(f"error: stablematch came from {stablematch.__file__}", file=sys.stderr)
        return 2

    bench = Bench(args)
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    print("# " + json.dumps(bench.info, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


class Bench:
    """One benchmark run: campaigns, their checks, and the metrics."""

    def __init__(self, args) -> None:
        self.name = args.workload
        self.seconds = args.seconds
        self.doc = workloads.config_doc(args.workload, args.scale, args.seed)
        self.cap = workloads.expected_cap(self.doc)
        self.check_every = workloads.WORKLOADS[self.name].get("check_every", 1)
        self.nproc = len(os.sched_getaffinity(0))
        self.workers = min(self.doc["workers"], self.nproc)
        pinned = json.loads(DESIGN.read_text())["digests"][args.scale].get(self.name)
        self.pinned = pinned if args.seed == workloads.DEFAULT_SEED else None
        self.attempted = 0
        self.failed_trials = 0
        self.digests: set[str] = set()
        self.info = {
            "workload": self.name,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "machine": machine(),
            "workers": self.workers,
            "trials_per_campaign": self._trials(),
        }

    # -- campaigns -----------------------------------------------------------

    def _trials(self) -> int:
        per_sampler = self.doc["trials"]
        return 2 * per_sampler if self.doc["kind"] == "equivalence" else per_sampler

    def campaign(self, workers: int) -> dict:
        """One untraced campaign: wall and CPU seconds, and its trial rows."""
        from stablematch.harness import ExperimentConfig, report_json, run_experiment

        config = ExperimentConfig.from_dict(dict(self.doc, workers=workers))
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        report, rows = run_experiment(config)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        self._account(report_json(report), rows)
        elapsed_us = Counter(r.elapsed_us for r in rows)
        return {"wall": wall, "cpu": cpu, "elapsed_us": elapsed_us}

    def traced(self):
        """One traced campaign at workers = 1; returns its tracer."""
        from stablematch.harness import ExperimentConfig, report_json, run_experiment
        from tracing import ROOT_SPAN, Tracer

        config = ExperimentConfig.from_dict(dict(self.doc, workers=1))
        tracer = Tracer(cap=self.cap, check_every=self.check_every)
        with tracer.installed():
            root = tracer.open(ROOT_SPAN)
            report, rows = run_experiment(config)
            tracer.close(root)
        self._account(report_json(report), rows)
        if tracer.trials != len(rows) or any(r.trial != i for i, r in enumerate(rows)):
            tracer.failures.setdefault(None, "traced trials do not match the rows")
        self.failed_trials += len(tracer.failures)
        for trial, message in sorted(tracer.failures.items(), key=str):
            print(f"# check failed: trial {trial}: {message}", file=sys.stderr)
        return tracer

    def _account(self, text: str, rows) -> None:
        self.attempted += self._trials()
        if len(rows) != self._trials():
            self.failed_trials += self._trials()
        self.digests.add(hashlib.sha256(text.encode()).hexdigest())

    @property
    def failed(self) -> int:
        """Failed trials; a report that differs from the others or from the
        pinned digest fails every trial of the run."""
        digest_ok = len(self.digests) == 1 and (
            self.pinned is None or self.digests == {self.pinned}
        )
        return min(self.attempted, self.failed_trials) if digest_ok else self.attempted

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self) -> dict:
        """Throughput over the whole timed loop, as total work over total
        wall time: on a shared machine whose speed shifts for seconds at a
        time, that is steadier between runs than a median of campaigns.

        The traced campaign comes last, so that its spans stay out of the
        peak memory; the loop stops early enough to leave room for it,
        estimated as TRACED_COST untraced campaigns, and for the set-up
        probes still due."""
        runs, setups, probe_walls = [], [], []
        start = time.perf_counter()
        deadline = start + self.seconds
        while True:
            runs.append(self.campaign(self.workers))
            # Set-up is sampled between campaigns, spread across the run.
            due = (time.perf_counter() - start) * SETUP_PROBES / self.seconds
            while len(setups) < min(due, SETUP_PROBES):
                t0 = time.perf_counter()
                setups.append(self.setup_probe())
                probe_walls.append(time.perf_counter() - t0)
            walls = [r["wall"] for r in runs]
            probe_wall = median(probe_walls) if probe_walls else PROBE_GUESS
            reserve = TRACED_COST * median(walls) + probe_wall * (
                SETUP_PROBES - len(setups)
            )
            if time.perf_counter() + max(walls) + reserve > deadline:
                break
        # Peak memory: this process plus, with a pool, its largest worker
        # (the probes, also children, are smaller than any pool worker).
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workers > 1:
            peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        tracer = self.traced()
        while len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())

        wall = sum(r["wall"] for r in runs)
        trials = self._trials() * len(runs)
        counts = tracer.counts
        proposals = counts["matching.proposals"] + counts["random_model.proposals"]
        elapsed_us = sum((r["elapsed_us"] for r in runs), Counter())
        self.info.update(
            campaigns=len(runs),
            campaign_walls=[r["wall"] for r in runs],
            traced_wall=tracer.seconds()["traced_wall"],
            run_wall=time.perf_counter() - start,
            proposals_per_campaign=proposals,
            trial_samples=elapsed_us.total(),
            setup_samples=len(setups),
            digest=sorted(self.digests),
        )
        p90 = tail_ms(elapsed_us, 0.9)
        if p90 is not None:
            self.info["trial_ms_p90"] = p90
        # The p50 of each campaign, averaged over the campaigns: the machine's
        # speed can switch between phases that last seconds, and a median
        # pooled over the whole run snaps to whichever phase held most of it.
        p50_us = sum(grouped_median(r["elapsed_us"]) for r in runs) / len(runs)
        return {
            "trials_per_s": (trials / wall, "1/s"),
            "proposals_per_s": (proposals * len(runs) / wall, "1/s"),
            "trial_ms_p50": (p50_us / 1000, "ms"),
            "cpu_s": (sum(r["cpu"] for r in runs) / len(runs), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "setup_s": (median(setups), "s"),
        }

    def per_layer(self) -> dict:
        """Rounds of an untraced, a traced and a pooled campaign, while
        another round fits in the run's time."""
        from tracing import bookkeeping_ns, per_layer

        start = time.perf_counter()
        deadline = start + self.seconds
        draw_ns = ns_per_draw()
        bookkeeping = bookkeeping_ns()
        pool = min(2, self.nproc)
        walls: dict[int, list[float]] = {1: [], pool: []}
        tracers, rounds = [], []
        while True:
            t0 = time.perf_counter()
            walls[1].append(self.campaign(1)["wall"])
            tracers.append(self.traced())
            if pool > 1:
                walls[pool].append(self.campaign(pool)["wall"])
            rounds.append(time.perf_counter() - t0)
            if time.perf_counter() + max(rounds) > deadline:
                break
        metrics = per_layer(tracers, draw_ns, bookkeeping)
        untraced = median(walls[1])
        traced = median(t.seconds()["traced_wall"] for t in tracers)
        efficiency = untraced / (pool * median(walls[pool]))
        metrics["harness.pool_efficiency"] = (efficiency, "ratio")
        metrics["trace.overhead"] = (traced / untraced - 1, "ratio")
        self.info.update(
            campaigns=len(tracers),
            pool_workers=pool,
            bookkeeping_ns={"per_call": bookkeeping[0], "per_check": bookkeeping[1]},
            run_wall=time.perf_counter() - start,
            digest=sorted(self.digests),
        )
        return metrics

    def setup_probe(self) -> float:
        """One set-up in a fresh process: import plus config build and
        validation, as probe.py times it."""
        out = subprocess.run(
            [sys.executable, str(PROBE), json.dumps(self.doc)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        return float(out.stdout)


def ns_per_draw() -> float:
    """Median cost of one draw over loops of randrange and random calls."""
    from stablematch.rng import Rng

    rng = Rng(1)
    randrange, random = rng.randrange, rng.random
    reps = []
    for _ in range(DRAW_REPS):
        t0 = time.perf_counter_ns()
        for _ in range(DRAW_LOOP):
            randrange(1024)
            random()
        reps.append((time.perf_counter_ns() - t0) / (2 * DRAW_LOOP))
    return median(reps)


def grouped_median(counts: Counter) -> float:
    """Median of integer samples given as value counts, interpolated within
    the unit-wide bin of the middle value, so that microsecond-rounded
    timings of tiny trials still resolve below one microsecond."""
    half = counts.total() / 2
    below = 0
    for value in sorted(counts):
        if below + counts[value] >= half:
            return value - 0.5 + (half - below) / counts[value]
        below += counts[value]
    raise ValueError("no samples")


def tail_ms(counts: Counter, q: float) -> dict | None:
    """The q-quantile in ms, when at least ten samples lie beyond it."""
    total = counts.total()
    if total * (1 - q) < 10:
        return None
    rank = math.ceil(q * total)
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return {"value": value / 1000, "samples": total}


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


if __name__ == "__main__":
    sys.exit(main())
