"""Acceptance gates, one test per criterion, at their stated tolerances.

Each criterion is a separate test so the verbose run prints one pass/fail
line per criterion (conftest adds a summary section as well). Runtime
budgets are asserted inside the tests.

Two criteria measure results that hold only with high probability as
n grows: Knuth, Motwani and Pittel's stable-husbands theorem (counts
between about 0.5*ln n and ln n) and its per-girl proposal lemma. Read as
finite-size gates at n=1024 they are unreachable for a correct program, so
each test asserts the law of the quantity it measures instead:

* criterion 6: about a fifth of the husband-count distribution at n=1024
  lies on counts 1 and 2, below the envelope floor 0.3*ln(1024) = 2.079,
  so the inside fraction is near 0.81, not 0.95. Neither the paper nor
  husband_count_envelope gives a finite-n value for it (the guarantee
  bounds the exception probability only by O(n**-gamma) with
  gamma < (1-2*0.3)**2/2 = 0.08 and an unspecified constant). The test
  keeps the median and runtime gates and compares the inside fraction
  with a reference p_ref measured by stable_husbands on fresh instances
  from a disjoint seed path, pinned below with the function that
  recomputes it. stable_husbands is ground truth at this size because it
  agrees with an independent rotation-elimination oracle
  (tests/test_matching.py, and a tenth of the reference instances).
* criterion 8: proposals per girl over the first floor(1024**1.3) = 8192
  proposals are Binomial(8192, 1/1024): mean 8, standard deviation 2.8.
  The audited window [4, 16] sits 1.4 standard deviations below and 2.8
  above the mean, so about 47 of the 1024 girls land outside on every
  seed, and the probability that none does is about 1e-21. The test
  checks the number outside against that exact law and asserts the other
  six audits outright. Of those, girl_fresh_floor is at this n (its floor
  clamped to 1) the event that no girl received zero proposals, which has
  probability e**-0.342 = 0.71 per seed; it holds at the pinned seed.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter

import pytest

from stablematch.bounds import (
    RisingProductPgf,
    harmonic,
    harmonic_second,
    optimize_tail,
    tail_bound,
)
from stablematch.harness import (
    ExperimentConfig,
    _seed_prefix,
    report_json,
    run_experiment,
)
from stablematch.instance import fixture_4x4, generate_uniform
from stablematch.matching import (
    find_blocking_pairs,
    gale_shapley_boys_propose,
    stable_husbands,
)
from stablematch.oracle import enumerate_stable
from stablematch.random_model import audit_window_stats, entity_totals
from stablematch.random_model import run as run_process
from stablematch.rng import derive_seed, derive_seeds

from oracles import (
    HUSBAND_LAW_N3,
    HUSBAND_LAW_N4,
    acceptance_pmf_convolution,
    acceptance_pmf_cycle_recurrence,
    binomial_pmf,
    boy_optimal_matching,
    chi_square,
    husband_set,
    lower_tail,
    rotation_chain_husbands,
    upper_tail,
    worst_husband,
)

MASTER_SEED = 20260808

A, B, C, D = range(4)
W, X, Y, Z = range(4)

EXPECTED_TRACE = [
    ("propose", W, A, True),
    ("propose", X, C, True),
    ("propose", Y, B, True),
    ("propose", Z, B, False),
    ("propose", Z, A, True),
    ("propose", W, B, True),
    ("propose", Y, D, True),
    ("output", Z, None, None),
    ("propose", Z, C, False),
    ("propose", Z, D, True),
    ("propose", Y, A, True),
    ("output", Y, None, None),
    ("propose", Y, C, True),
    ("propose", X, A, False),
    ("propose", X, D, True),
    ("terminate", None, None, None),
]


def _oracle_sweep_report() -> dict:
    """Criterion 2's computation, packaged as a deterministic report."""
    blocks = {}
    for n in range(2, 8):
        husband_mismatches = 0
        pessimal_mismatches = 0
        optimal_mismatches = 0
        first_matching_mismatches = 0
        histogram: Counter = Counter()
        for i in range(1000):
            seed = derive_seed(MASTER_SEED, 102, n, i)
            inst = generate_uniform(n, seed)
            stable = enumerate_stable(inst)
            gs = gale_shapley_boys_propose(inst)
            if gs != boy_optimal_matching(stable, inst):
                optimal_mismatches += 1
            for g in range(n):
                enum = stable_husbands(inst, g)
                husbands = enum.husbands
                if len(set(husbands)) != len(husbands) or set(husbands) != set(
                    husband_set(stable, g)
                ):
                    husband_mismatches += 1
                if husbands[0] != worst_husband(stable, inst, g):
                    pessimal_mismatches += 1
                if enum.matchings[0] != gs:
                    first_matching_mismatches += 1
                histogram[len(husbands)] += 1
        blocks[str(n)] = {
            "instances": 1000,
            "husband_set_mismatches": husband_mismatches,
            "pessimal_mismatches": pessimal_mismatches,
            "boy_optimal_mismatches": optimal_mismatches,
            "first_matching_mismatches": first_matching_mismatches,
            "husband_count_histogram": [[k, v] for k, v in sorted(histogram.items())],
        }
    return {"master_seed": MASTER_SEED, "blocks": blocks}


@pytest.fixture(scope="session")
def oracle_sweep():
    start = time.perf_counter()
    report = _oracle_sweep_report()
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def equivalence_run():
    config = ExperimentConfig(
        kind="equivalence", n=3, trials=20_000, master_seed=MASTER_SEED, workers=1
    )
    start = time.perf_counter()
    report, _ = run_experiment(config)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def equivalence_run_n4():
    config = ExperimentConfig(
        kind="equivalence", n=4, trials=20_000, master_seed=MASTER_SEED, workers=1
    )
    report, _ = run_experiment(config)
    return report


@pytest.fixture(scope="session")
def theorem_run():
    config = ExperimentConfig(
        kind="theorem",
        n=1024,
        trials=200,
        master_seed=MASTER_SEED,
        method="b",
        params={"c": 0.3, "C": 2.0, "delta": 0.45, "eps": 0.05},
        workers=1,
    )
    start = time.perf_counter()
    report, _ = run_experiment(config)
    return report, time.perf_counter() - start


def test_criterion_1_fixture_exactness():
    """Exact husbands, matchings, and proposal trace on the 4x4 example."""
    inst = fixture_4x4()
    enum = stable_husbands(inst, A, keep_trace=True)
    assert enum.husbands == [Z, Y]
    assert [m.husband_of for m in enum.matchings] == [(Z, W, X, Y), (Y, W, X, Z)]
    rows = [(e.kind, e.boy, e.girl, e.accepted) for e in enum.trace]
    assert rows == EXPECTED_TRACE
    stable_husbands(inst, A, keep_trace=True)  # warm caches before timing
    best = min(
        _timed(lambda: stable_husbands(inst, A, keep_trace=True)) for _ in range(5)
    )
    assert best < 1e-3, f"stable_husbands took {best * 1e3:.3f} ms"
    print(f"criterion 1: trace exact, best runtime {best * 1e6:.0f} us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_oracle_equivalence(oracle_sweep):
    """1000 instances per n in 2..7: enumeration agrees with brute force."""
    report, elapsed = oracle_sweep
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f} s"
    for n, block in report["blocks"].items():
        assert block["husband_set_mismatches"] == 0, (n, block)
        assert block["pessimal_mismatches"] == 0, (n, block)
        assert block["boy_optimal_mismatches"] == 0, (n, block)
        assert block["first_matching_mismatches"] == 0, (n, block)
    print(f"criterion 2: 6000 instances, zero mismatches, {elapsed:.1f} s")


def test_criterion_3_model_equivalence(equivalence_run):
    """TV distance of husband-count distributions at n=3, 20000 each."""
    report, elapsed = equivalence_run
    assert elapsed < 30, f"equivalence run took {elapsed:.1f} s"
    tv = report["blocks"][0]["tv_distance"]
    assert tv <= 0.05, f"total-variation distance {tv}"
    print(f"criterion 3: tv distance {tv:.4f}, {elapsed:.1f} s")


# Each size's exact law and the chi-square quantile at alpha = 0.001 with
# n - 1 degrees of freedom: counts 1..n are the only outcomes, and no bin is
# merged (the least expected count, of 4 husbands at n = 4, is 9.2). Fixed
# before any sample.
EXACT_LAWS = {3: (HUSBAND_LAW_N3, 13.82), 4: (HUSBAND_LAW_N4, 16.27)}


@pytest.mark.parametrize("method", ["a", "b"])
@pytest.mark.parametrize("n", [3, 4])
def test_both_samplers_fit_the_exact_law(request, n, method):
    """Each method's husband-count histogram against the exact law, by a
    chi-square goodness-of-fit test: at n = 3 from the criterion 3
    campaign, at n = 4 from an equivalence campaign of the same size."""
    if n == 3:
        report, _ = request.getfixturevalue("equivalence_run")
    else:
        report = request.getfixturevalue("equivalence_run_n4")
    law, threshold = EXACT_LAWS[n]
    histogram = dict(report["blocks"][0][f"histogram_{method}"])
    assert set(histogram) <= set(law), histogram
    trials = sum(histogram.values())
    assert trials == 20_000
    counts = [histogram.get(k, 0) for k in law]
    expected = [trials * float(p) for p in law.values()]
    stat = chi_square(counts, expected)
    assert stat <= threshold, (n, method, counts, expected, stat)


def test_criterion_4_acceptance_distribution():
    """2000 girls, m=10**4 offers each: mean near H_m, tail under its bound."""
    start = time.perf_counter()
    config = ExperimentConfig(
        kind="acceptance_dist",
        n=1,
        trials=2000,
        master_seed=MASTER_SEED,
        params={"m": 10_000, "eps": 0.5},
    )
    report, _ = run_experiment(config)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"acceptance experiment took {elapsed:.1f} s"
    block = report["blocks"][0]
    h_m = harmonic(10_000)
    assert h_m == pytest.approx(9.7876, abs=5e-4)
    stderr = math.sqrt((h_m - harmonic_second(10_000)) / 2000)
    mean = block["summary"]["mean"]
    assert abs(mean - h_m) <= 3 * stderr, f"mean {mean} vs H_m {h_m}"
    assert block["tail_frequency"] <= block["tail_bound"]["value"], block
    print(
        f"criterion 4: mean {mean:.4f} (H_m {h_m:.4f}), tail "
        f"{block['tail_frequency']:.4f} <= bound {block['tail_bound']['value']:.4f}, "
        f"{elapsed:.1f} s"
    )


def test_criterion_5_tail_bound_soundness():
    """Bounds dominate exact tails on a 50-point grid, all thresholds."""
    start = time.perf_counter()
    lower_grid = [i / 50 for i in range(1, 51)]
    upper_grid = [1.0 + 4.0 * i / 49 for i in range(50)]

    cases = [(_pgf, pmf) for _pgf, pmf in _exact_distributions()]
    violations = 0
    for pgf, pmf in cases:
        support = len(pmf) - 1
        for r in range(support + 1):
            exact_lo = lower_tail(pmf, r)
            exact_up = upper_tail(pmf, r)
            for x in lower_grid:
                if tail_bound(pgf, "lower", r, x).value < exact_lo - 1e-12:
                    violations += 1
            for x in upper_grid:
                if tail_bound(pgf, "upper", r, x).value < exact_up - 1e-12:
                    violations += 1
            if optimize_tail(pgf, "lower", r).value < exact_lo - 1e-12:
                violations += 1
            if optimize_tail(pgf, "upper", r).value < exact_up - 1e-12:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0, f"{violations} unsound bound evaluations"
    assert elapsed < 5, f"soundness sweep took {elapsed:.1f} s"
    print(f"criterion 5: zero violations over {len(cases)} distributions, {elapsed:.1f} s")


def _exact_distributions():
    from stablematch.bounds import BinomialPowerPgf

    yield BinomialPowerPgf(2, 10), binomial_pmf(10, 0.5)
    for m in range(1, 13):
        conv = acceptance_pmf_convolution(m)
        cyc = acceptance_pmf_cycle_recurrence(m)
        assert all(abs(a - b) < 1e-12 for a, b in zip(conv, cyc))
        yield RisingProductPgf(m), conv


# Criterion 6's reference: girl 0's husband count on ENVELOPE_REF_TRIALS
# fresh uniform n=1024 instances, instance i seeded by
# derive_seed(*ENVELOPE_REF_SEED_PATH, i), a path disjoint from the
# campaign's derive_seed(MASTER_SEED, 1, 1024, 0, trial). The histogram is
# envelope_reference_histogram(0, 500) + envelope_reference_histogram(500,
# 1000), run side by side; instances 0, 10, ..., 990 also passed the
# rotation oracle.
ENVELOPE_REF_SEED_PATH = (MASTER_SEED, 106, 1024)
ENVELOPE_REF_TRIALS = 1000
ENVELOPE_REF_HISTOGRAM = {
    1: 51, 2: 171, 3: 234, 4: 202, 5: 171, 6: 96, 7: 41, 8: 25, 9: 5, 10: 3, 13: 1
}


def envelope_reference_histogram(
    start: int = 0, stop: int = ENVELOPE_REF_TRIALS, oracle_every: int = 10
) -> Counter:
    """Husband-count histogram of reference instances start..stop-1.

    Counts come from stable_husbands (method a, ground truth); every
    oracle_every-th instance is also checked against the independent
    rotation-elimination oracle. About 3 s per instance on one core, so a
    full recomputation is best split into ranges run side by side and the
    histograms added.
    """
    histogram: Counter = Counter()
    for i in range(start, stop):
        inst = generate_uniform(1024, derive_seed(*ENVELOPE_REF_SEED_PATH, i))
        husbands = stable_husbands(inst, 0).husbands
        if oracle_every and i % oracle_every == 0:
            oracle = rotation_chain_husbands(inst.girl_prefs, inst.boy_prefs, 0)
            assert husbands == oracle, (i, husbands, oracle)
        histogram[len(husbands)] += 1
    return histogram


def test_criterion_6_husband_count_envelope(theorem_run):
    """200 trials at n=1024: median inside its gate, and the fraction of
    counts inside the envelope [0.3*ln n, 2.0*ln n] = [2.08, 13.86] equal to
    the reference fraction p_ref within sampling noise.

    p_ref is the inside fraction of the pinned ENVELOPE_REF_HISTOGRAM
    (N = ENVELOPE_REF_TRIALS = 1000 instances, recomputed by
    envelope_reference_histogram): 778/1000 = 0.778. The band was fixed
    before looking at the campaign: |inside - p_ref| <= 4*sqrt(p_ref*
    (1-p_ref)*(1/200 + 1/N)) = 0.129, so inside must lie in [0.649, 0.907];
    the pinned campaign gives 0.830. Neither the paper nor husband_count_envelope
    gives a finite-n inside fraction, and the measured one is near 0.81, so
    the literal 95% reading of the envelope is unreachable (see module
    docstring). A chain emitting one husband fewer or one more moves the
    fraction to about 0.58 or 0.97, outside the band.
    """
    report, elapsed = theorem_run
    block = report["blocks"][0]
    summary = block["summary"]
    failures = []
    if not elapsed < 600:
        failures.append(f"runtime {elapsed:.0f} s exceeds 600 s")
    median = summary["p50"]
    if not 1.47 <= median <= 8.93:
        failures.append(f"median {median} outside [1.47, 8.93]")
    assert sum(ENVELOPE_REF_HISTOGRAM.values()) == ENVELOPE_REF_TRIALS
    campaign = ExperimentConfig(
        kind="theorem", n=1024, trials=block["trials"], master_seed=MASTER_SEED
    )
    prefix = _seed_prefix(campaign, 1024)
    campaign_seeds = set(derive_seeds(prefix, 0, block["trials"]))
    assert campaign_seeds.isdisjoint(
        derive_seed(*ENVELOPE_REF_SEED_PATH, i) for i in range(ENVELOPE_REF_TRIALS)
    )
    lo, hi = summary["envelope"]
    p_ref = (
        sum(v for k, v in ENVELOPE_REF_HISTOGRAM.items() if lo <= k <= hi)
        / ENVELOPE_REF_TRIALS
    )
    band = 4 * math.sqrt(
        p_ref * (1 - p_ref) * (1 / block["trials"] + 1 / ENVELOPE_REF_TRIALS)
    )
    fraction = summary["inside_fraction"]
    if not abs(fraction - p_ref) <= band:
        failures.append(
            f"inside fraction {fraction:.3f} differs from p_ref {p_ref:.3f} by "
            f"more than {band:.3f} over envelope {summary['envelope']} "
            f"(histogram {summary['histogram']})"
        )
    print(
        f"criterion 6: median {median}, inside fraction {fraction:.3f} "
        f"(p_ref {p_ref:.3f} +- {band:.3f}), {elapsed:.0f} s"
    )
    assert not failures, "; ".join(failures)


def test_criterion_7_first_output_window():
    """100 trials at n=1000: first output inside the collector window, mean
    within 15% of n*H_n."""
    start = time.perf_counter()
    config = ExperimentConfig(
        kind="coupon", n=1000, trials=100, master_seed=MASTER_SEED
    )
    report, _ = run_experiment(config)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"coupon experiment took {elapsed:.1f} s"
    block = report["blocks"][0]
    assert block["window"] == math.floor(1000 * math.log(1000) * math.log(math.log(1000)))
    assert block["within_window_fraction"] >= 0.99, block
    expected = 1000 * harmonic(1000)
    assert expected == pytest.approx(7485.47, abs=0.01)
    assert block["mean_relative_error"] <= 0.15, block
    print(
        f"criterion 7: mean first output {block['first_output']['mean']:.0f} "
        f"(n*H_n {expected:.0f}, err {block['mean_relative_error']:.3f}), "
        f"window fraction {block['within_window_fraction']}, {elapsed:.1f} s"
    )


def test_criterion_8_window_audits():
    """A single seeded capped run at n=1024, delta=0.3: six window audits
    pass outright, and the number of girls outside the proposal window
    matches its exact law.

    Every proposal of the chain goes to a uniformly random girl, so over
    the first cap = floor(1024**1.3) = 8192 proposals each girl's count is
    Binomial(8192, 1/1024). With q = P(count outside [n**delta/2,
    2*n**delta] = [4, 16]), the expected number of girls outside is
    1024*q = 47.11 (43.33 below, 3.79 above) and its standard deviation is
    at most sqrt(1024*q*(1-q)) = 6.70 (the exact multinomial value is 6.34).
    The count, of the per-girl totals that `entity_totals` derives from
    the tracked run, against the integer bounds, must lie within 4 of
    those standard deviations: [20.3, 73.9]. The pinned seed gives 40 (35 below, 5 above). The girl_proposal_window audit
    itself asks for zero girls outside, which has probability about 1e-21,
    so its verdict is printed but not asserted.
    """
    start = time.perf_counter()
    n, delta = 1024, 0.3
    cap = math.floor(n ** (1 + delta))
    assert cap == 8192
    seed = derive_seed(MASTER_SEED, 108, 1)
    _, stats = run_process(n, 0, seed, stop="cap", max_proposals=cap)
    report = audit_window_stats(stats, delta)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"audit run took {elapsed:.1f} s"
    lines = []
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        lines.append(f"{check.name}: {status} ({len(check.violations)} violations)")
        if not check.passed:
            lines.append(f"  first violations: {list(check.violations[:3])}")

    nd = 8
    assert math.isclose(n**delta, nd)
    lo, hi = nd // 2, 2 * nd
    pmf = binomial_pmf(cap, 1 / n)
    q = sum(pmf[:lo]) + sum(pmf[hi + 1 :])
    expected = n * q
    sd = math.sqrt(n * q * (1 - q))
    assert expected == pytest.approx(47.11, abs=0.01)
    outside = sum(1 for c in entity_totals(stats)[0] if not lo <= c <= hi)
    lines.append(
        f"girls outside [{lo}, {hi}]: {outside}, expected {expected:.2f} "
        f"+- 4 * {sd:.2f}"
    )
    print("criterion 8:\n" + "\n".join(lines))
    assert abs(outside - expected) <= 4 * sd, (
        f"{outside} girls outside [{lo}, {hi}], expected {expected:.2f} "
        f"within 4 * {sd:.2f}"
    )
    others = [c for c in report.checks if c.name != "girl_proposal_window"]
    assert len(others) == 6
    assert all(c.passed for c in others), "; ".join(
        f"{c.name} has {len(c.violations)} violations, e.g. {list(c.violations[:3])}"
        for c in others
        if not c.passed
    )


def test_criterion_9_determinism(oracle_sweep, equivalence_run, theorem_run):
    """Byte-identical reports on repetition, independent of worker count."""
    sweep_report, _ = oracle_sweep
    assert json.dumps(_oracle_sweep_report(), sort_keys=True) == json.dumps(
        sweep_report, sort_keys=True
    )
    equivalence_report, _ = equivalence_run
    config = ExperimentConfig(
        kind="equivalence", n=3, trials=20_000, master_seed=MASTER_SEED, workers=2
    )
    report_w2, _ = run_experiment(config)
    assert report_json(report_w2) == report_json(equivalence_report)
    theorem_report, _ = theorem_run
    config = ExperimentConfig(
        kind="theorem",
        n=1024,
        trials=200,
        master_seed=MASTER_SEED,
        method="b",
        params={"c": 0.3, "C": 2.0, "delta": 0.45, "eps": 0.05},
        workers=2,
    )
    report_w2, _ = run_experiment(config)
    assert report_json(report_w2) == report_json(theorem_report)
    print("criterion 9: byte-identical reports across reruns and worker counts")
