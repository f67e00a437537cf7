"""The randomized proposal process: deferred-decision matching as a chain.

Instead of fixing preference tables up front, preferences unfold as random
draws while the proposal algorithm runs. Boys propose to a girl chosen
uniformly among all n girls (a memoryless boy may repeat himself, and such
redundant proposals are always rejected); a girl accepts her k-th fresh
offer with probability 1/k. This chain has the same transition
probabilities as the stable-husband search on a uniformly random instance,
so its output stream is distributed exactly like that girl's stable
husbands.

The chain itself never halts (a boy who has tried every girl keeps making
redundant proposals forever), so each `run` has one stop rule: "natural"
fires where the deterministic search would terminate, "cap" after a fixed
number of proposals, "first_output" as soon as the first husband is
emitted.

A run's working state (the boys' tried rows, the girls' best offers) lives
only inside the call that runs it; what it yields is its RunStats record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from .rng import Rng, coin_limits, index_limit


@dataclass
class RunStats:
    """Counters accumulated over one run of the process.

    Times are proposal counts, 1-based at each proposal; t is the total.
    nonredundant_per_girl counts fresh proposals, each girl's offer count,
    the k of her next offer's 1/k acceptance. With tracking, run_lengths
    lists every run as (boy, proposals, fresh ones), the one in progress at
    the stop included, and pair_counts maps only the (boy, girl) pairs
    proposed to more than once, each to its full count (at least 2);
    `entity_totals` derives the per-entity totals from them.
    pre_output_acceptances counts the designated girl's acceptances that
    were superseded before the first output (all of them, with no output).
    redundant_proposals, first_output_time and acceptances_by_girl are
    derived from these.
    """

    n: int
    girl: int
    t: int = 0
    nonredundant_per_girl: list[int] = field(default_factory=list)
    run_lengths: list[tuple[int, int, int]] | None = None
    pair_counts: dict[tuple[int, int], int] | None = None
    outputs: list[tuple[int, int]] = field(default_factory=list)
    pre_output_acceptances: int = 0
    stopped: str | None = None

    @property
    def redundant_proposals(self) -> int:
        return self.t - sum(self.nonredundant_per_girl)

    @property
    def first_output_time(self) -> int | None:
        return self.outputs[0][1] if self.outputs else None

    @property
    def acceptances_by_girl(self) -> int:
        """Each output was an offer she accepted, as was each superseded one."""
        return len(self.outputs) + self.pre_output_acceptances


def new_state(n: int, girl: int, track: bool = True) -> RunStats:
    """The empty record of a fresh run, with boy 0 introduced as the first
    proposer; with track, it records run_lengths and pair_counts, which the
    audit reads."""
    if n < 1:
        raise ValueError("process size must be at least 1")
    if not 0 <= girl < n:
        raise ValueError(f"designated girl {girl} out of range for n={n}")
    return RunStats(
        n=n,
        girl=girl,
        nonredundant_per_girl=[0] * n,
        run_lengths=[] if track else None,
        pair_counts={} if track else None,
    )


def _advance(stats: RunStats, rng: Rng, stop: str, cap: int | None) -> None:
    """Run the chain from a fresh state until the stop rule fires and fill
    in `stats`, the empty record of `new_state`: the chain's loop, behind
    `run`.

    stop is a stop rule of `run`; cap is the proposal count where "cap"
    fires, and None under the other rules. Boy 0 proposes first, with one
    boy introduced. The chain's working state is local to the loop:
    proposed[b] is boy b's tried row, a bytearray(n) with proposed[b][j]
    == 1 once he has proposed to girl j; ntried[b] is his count of tried
    girls, written back only when his run ends, so a run's fresh count is
    count - ntried[p]; best_offer[j] is the boy holding girl j's best offer
    (None before her first fresh proposal), no longer kept for the
    designated girl after the first output.
    Draws are read in one pass over `Rng.draws`: a girl index below
    `index_limit(n)` and an offer-k acceptance below `coin_limit(k)`, the
    rules of `randrange` and `random`, so each is the draw those calls
    would take; a fresh proposal takes its acceptance draw from the same
    iterator at once, so no offer is ever pending. At the stop the stream
    skips the draws read: one per proposal, one per fresh proposal and one
    per draw the rejection rule refused.

    The stop rule is tested only where it can newly hold: the cap after a
    redundant proposal; natural or cap after a rejected offer; all three
    after an accepted one, which ends the proposer's run.

    After the first output the designated girl's acceptance emits the
    proposer, who keeps proposing; any other acceptance hands the turn, as
    the search does, to the girl's previous holder, else to the next boy
    not yet introduced, else (every girl now holds an offer) to the
    designated girl's holder, emitted as the first husband.

    A fresh proposal writes only t, the tried byte, the tried count and
    the girl's offer count (her entry in nonredundant_per_girl); a
    redundant one writes t and, with tracking, its pair's count. With
    tracking, a run is recorded when it ends, and the one in progress at
    the stop as observed so far, even when empty.
    """
    n = stats.n
    proposed = [bytearray(n) for _ in range(n)]
    ntried = [0] * n
    best_offer: list[int | None] = [None] * n
    fresh_per_girl = stats.nonredundant_per_girl
    run_lengths = stats.run_lengths
    pair_counts = stats.pair_counts
    outputs = stats.outputs
    accept = coin_limits(n)
    limit = index_limit(n)
    # Past any reachable proposal count, so the cap check needs no None test.
    if cap is None:
        cap = 2**64
    # The first block: a natural run at n = 3 reads about 17 draws, a
    # capped run about 2 a proposal; `Rng.draws` clamps it to 2048.
    draws = rng.draws(8 * n)

    t = 0
    p = 0
    tried = proposed[p]
    count = 0
    introduced = 1
    run_start = 0
    accepts_by_g = 0
    rejected = 0
    g = stats.girl
    natural = stop == "natural"
    first_output = stop == "first_output"

    for u in draws:
        if u >= limit:
            rejected += 1
            continue
        h = u % n
        t += 1
        if tried[h]:
            # A redundant proposal is a proposal too, always rejected.
            if pair_counts is not None:
                # The pair's first proposal was fresh.
                pair_counts[p, h] = pair_counts.get((p, h), 1) + 1
            if t >= cap:
                break
            continue
        tried[h] = 1
        count += 1
        k = fresh_per_girl[h] + 1
        fresh_per_girl[h] = k
        if next(draws) >= accept[k]:
            if natural and count == n or t >= cap:
                break
            continue
        if run_lengths is not None:
            run_lengths.append((p, t - run_start, count - ntried[p]))
            run_start = t
        ntried[p] = count
        if h == g:
            accepts_by_g += 1
            if outputs:
                # He keeps proposing, as after a rejected offer.
                outputs.append((p, t))
                if natural and count == n or t >= cap:
                    break
                continue
        previous = best_offer[h]
        best_offer[h] = p
        if previous is not None:
            p = previous
        elif introduced < n:
            p = introduced
            introduced += 1
        else:
            p = best_offer[g]  # type: ignore[assignment]
            outputs.append((p, t))
        tried = proposed[p]
        count = ntried[p]
        if first_output and outputs or natural and count == n or t >= cap:
            break

    rng.skip(t + sum(fresh_per_girl) + rejected)
    if run_lengths is not None:
        run_lengths.append((p, t - run_start, count - ntried[p]))
    stats.t = t
    stats.pre_output_acceptances = accepts_by_g - len(outputs)


def run(
    n: int,
    girl: int,
    seed: int,
    stop: str = "natural",
    max_proposals: int | None = None,
    track: bool = True,
) -> tuple[list[tuple[int, int]], RunStats]:
    """Run the chain from a fresh state until the stop rule fires.

    stop is one of:
      "natural"      the current proposer has tried every girl, which is
                     where the deterministic search would terminate;
      "cap"          exactly max_proposals proposals have been made;
      "first_output" the first husband has just been emitted.

    max_proposals is required for "cap" and refused for the other rules,
    which fire with probability 1. track records stats.run_lengths and
    stats.pair_counts, which only `entity_totals` and the audit read;
    without it both are None. Returns (outputs, stats); outputs are (boy,
    time) pairs, the record's own list stats.outputs.
    """
    if stop not in ("natural", "cap", "first_output"):
        raise ValueError(f"unknown stop rule {stop!r}")
    if stop == "cap" and (max_proposals is None or max_proposals < 1):
        raise ValueError("stop='cap' requires max_proposals >= 1")
    if stop != "cap" and max_proposals is not None:
        raise ValueError(f"max_proposals applies to stop='cap' only, not {stop!r}")
    stats = new_state(n, girl, track=track)
    _advance(stats, Rng(seed), stop, max_proposals)
    stats.stopped = stop
    return stats.outputs, stats


def entity_totals(stats: RunStats) -> tuple[list[int], list[int], list[int]]:
    """Each girl's proposals, redundant ones included, each boy's
    proposals and each boy's run count, from a tracked record: her fresh
    proposals plus every repeat of a pair with her, the sum of his run
    lengths, and his number of runs."""
    if stats.pair_counts is None or stats.run_lengths is None:
        raise ValueError("entity totals require a run with tracking enabled")
    per_girl = list(stats.nonredundant_per_girl)
    for (_, j), c in stats.pair_counts.items():
        per_girl[j] += c - 1
    per_boy, runs = [0] * stats.n, [0] * stats.n
    for b, total, _ in stats.run_lengths:
        per_boy[b] += total
        runs[b] += 1
    return per_girl, per_boy, runs


@dataclass(frozen=True)
class AuditCheck:
    """Outcome of one empirical bound check over a capped window."""

    name: str
    passed: bool
    lower: float | None
    upper: float | None
    worst: float
    violations: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "violation_count": len(self.violations),
            "violations": list(self.violations[:20]),
        }


@dataclass(frozen=True)
class AuditReport:
    """Seven per-entity bound checks over the first floor(n^(1+delta)) proposals."""

    n: int
    delta: float
    cap: int
    passed: bool
    checks: tuple[AuditCheck, ...]

    def to_dict(self) -> dict:
        return {**vars(self), "checks": {c.name: c.to_dict() for c in self.checks}}


def audit_window(n: int, delta: float) -> int:
    """The audit window, floor(n^(1+delta)) proposals, for delta in (0, 1/2)."""
    if not 0 < delta < 0.5:
        raise ValueError(f"the audit requires delta in (0, 1/2), got {delta}")
    return math.floor(n ** (1 + delta))


def audit_window_stats(stats: RunStats, delta: float) -> AuditReport:
    """Audit a capped run against the asymptotic per-entity bounds.

    The checks, with nd = n**delta and logs natural (log factors and final
    thresholds are floored at 1 so toy sizes stay meaningful):

      girl_proposal_window   every girl received between nd/2 and 2*nd
                             proposals, redundant ones included
      boy_run_starts         every boy began at most 2*nd runs
      run_fresh_length       every run made at most nd*(log n)^2 fresh
                             proposals
      run_total_length       every run made at most nd*(log n)^2 proposals
      boy_total_proposals    every boy made at most 2*n^(2*delta)*(log n)^2
                             proposals
      pair_repeat_proposals  no boy proposed to one girl more than log n
                             times (violations by boy, then girl)
      girl_fresh_floor       every girl received at least nd/(2*log n)
                             fresh proposals

    n is stats.n. Requires stats from a run capped at exactly
    audit_window(n, delta) proposals with tracking enabled. Failures are
    reported with the offending entity, never raised.
    """
    n = stats.n
    cap = audit_window(n, delta)
    if stats.t != cap:
        raise ValueError(
            f"cap mismatch: stats cover t={stats.t} proposals, expected "
            f"floor(n^(1+delta)) = {cap}"
        )
    if stats.pair_counts is None or stats.run_lengths is None:
        raise ValueError("audit requires a run with pair and run tracking enabled")

    log_n = max(math.log(n), 1.0)
    nd = float(n) ** delta
    clamp = lambda x: max(x, 1.0)

    girl_lo = clamp(0.5 * nd)
    girl_hi = clamp(2.0 * nd)
    run_starts_hi = clamp(2.0 * nd)
    run_len_hi = clamp(nd * log_n**2)
    boy_total_hi = clamp(2.0 * nd**2 * log_n**2)
    pair_hi = clamp(log_n)
    fresh_floor = clamp(0.5 * nd / log_n)

    counts, per_boy, starts = entity_totals(stats)
    fresh = stats.nonredundant_per_girl
    runs = stats.run_lengths
    pairs = stats.pair_counts
    # One row per check: its name and bounds, the per-entity values whose
    # extreme it reports, that extreme for an empty list, and its
    # violations in entity order. The pair map holds repeated pairs only;
    # with none, every pair tried was proposed to once, and a capped run
    # has tried at least one.
    table = (
        ("girl_proposal_window", girl_lo, girl_hi, counts, 0, lambda: [
            {"girl": j, "count": c}
            for j, c in enumerate(counts)
            if not girl_lo <= c <= girl_hi
        ]),
        ("boy_run_starts", None, run_starts_hi, starts, 0, lambda: [
            {"boy": b, "runs": r} for b, r in enumerate(starts) if r > run_starts_hi
        ]),
        ("run_fresh_length", None, run_len_hi, map(itemgetter(2), runs), 0, lambda: [
            {"boy": b, "fresh_length": f} for b, _, f in runs if f > run_len_hi
        ]),
        ("run_total_length", None, run_len_hi, map(itemgetter(1), runs), 0, lambda: [
            {"boy": b, "length": total} for b, total, _ in runs if total > run_len_hi
        ]),
        ("boy_total_proposals", None, boy_total_hi, per_boy, 0, lambda: [
            {"boy": b, "proposals": c} for b, c in enumerate(per_boy) if c > boy_total_hi
        ]),
        ("pair_repeat_proposals", None, pair_hi, pairs.values(), 1, lambda: [
            {"boy": b, "girl": j, "count": c}
            for (b, j), c in sorted(pairs.items())
            if c > pair_hi
        ]),
        ("girl_fresh_floor", fresh_floor, None, fresh, 0, lambda: [
            {"girl": j, "fresh_count": c} for j, c in enumerate(fresh) if c < fresh_floor
        ]),
    )

    # Each check takes its extreme with a C-level reduction and builds its
    # violation list only when the extreme crosses a bound. Only the girl
    # window has two bounds (its values are a list, read twice): it reports
    # its maximum when that is too high, and its minimum otherwise.
    checks = []
    for name, lower, upper, values, empty, violations in table:
        if upper is None:
            worst = min(values, default=empty)
            crossed = worst < lower
        else:
            worst = max(values, default=empty)
            crossed = worst > upper
            if lower is not None and not crossed:
                worst = min(values, default=empty)
                crossed = worst < lower
        bad = violations() if crossed else ()
        checks.append(AuditCheck(name, not bad, lower, upper, float(worst), tuple(bad)))

    return AuditReport(
        n=n,
        delta=delta,
        cap=cap,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
    )
