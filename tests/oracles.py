"""Independent oracles the tests check library results against.

Everything here is deliberately naive (convolutions, direct summation,
explicit recurrences, one scalar proposal at a time) and shares no code
with the implementations under test beyond their plain data types and the
empty run record of `new_state`. The chain's working state, which
`random_model.run` keeps private to its loop, is spelled out here as
`ReferenceState`, so that tests can stop a replay after any proposal and
read its tried rows.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from stablematch.instance import PreferenceInstance
from stablematch.matching import Matching
from stablematch.oracle import StableSet
from stablematch.random_model import (
    AuditCheck,
    AuditReport,
    RunStats,
    new_state,
)
from stablematch.rng import Rng

# The exact law of one girl's number of stable husbands in a uniform
# instance at n = 3, {count: probability}: what `stable_husbands` and
# `enumerate_stable` both give over all 6**6 = 46,656 instances.
HUSBAND_LAW_N3 = {
    1: Fraction(1559, 1944),
    2: Fraction(739, 3888),
    3: Fraction(31, 3888),
}
# The same law at n = 4, from `exact_husband_law(4)` over 637,225 states;
# tests/slow_checks.py recomputes it, outside the tier-1 suite.
HUSBAND_LAW_N4 = {
    1: Fraction(143782181, 191102976),
    2: Fraction(10943875, 47775744),
    3: Fraction(3457145, 191102976),
    4: Fraction(44075, 95551488),
}


def bernoulli_sum_pmf(ps: list[float]) -> list[float]:
    """Exact pmf of a sum of independent Bernoulli(p_i), by convolution."""
    pmf = [1.0]
    for p in ps:
        nxt = [0.0] * (len(pmf) + 1)
        for k, mass in enumerate(pmf):
            nxt[k] += mass * (1 - p)
            nxt[k + 1] += mass * p
        pmf = nxt
    return pmf


def acceptance_pmf_convolution(m: int) -> list[float]:
    """Acceptances of m offers under the 1/k rule, as a Bernoulli sum."""
    return bernoulli_sum_pmf([1.0 / k for k in range(1, m + 1)])


def acceptance_pmf_cycle_recurrence(m: int) -> list[float]:
    """Same distribution via the cycle-count recurrence.

    p_m(j) = p_{m-1}(j-1) / m + p_{m-1}(j) * (m-1) / m, the distribution of
    the number of cycles (equivalently records) of a uniform permutation of
    m items. Cross-checks the convolution oracle.
    """
    pmf = [1.0]
    for k in range(1, m + 1):
        nxt = [0.0] * (len(pmf) + 1)
        for j, mass in enumerate(pmf):
            nxt[j + 1] += mass / k
            nxt[j] += mass * (k - 1) / k
        pmf = nxt
    return pmf


def binomial_pmf(n: int, p: float) -> list[float]:
    """Binomial(n, p) pmf, each term evaluated in log space.

    comb(n, k) * p**k overflows a float near n = 1030, so every term is
    exp(log C(n, k) + k log p + (n - k) log(1 - p)), with log C(n, k)
    summed by the ratio C(n, k) / C(n, k - 1) = (n - k + 1) / k; p = 0 and
    p = 1 are exact.
    """
    if p in (0.0, 1.0):
        return [float(k == n * p) for k in range(n + 1)]
    log_p, log_q = math.log(p), math.log1p(-p)
    log_coef = 0.0
    pmf = []
    for k in range(n + 1):
        if k:
            log_coef += math.log((n - k + 1) / k)
        pmf.append(math.exp(log_coef + k * log_p + (n - k) * log_q))
    return pmf


def upper_tail(pmf: list[float], r: float) -> float:
    return sum(mass for k, mass in enumerate(pmf) if k >= r)


def lower_tail(pmf: list[float], r: float) -> float:
    return sum(mass for k, mass in enumerate(pmf) if k <= r)


def chi_square(counts: list[int], expected: list[float]) -> float:
    return sum((c - e) ** 2 / e for c, e in zip(counts, expected))


def tv_distance(counts_a: Counter, counts_b: Counter, t_a: int, t_b: int) -> float:
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a[k] / t_a - counts_b[k] / t_b) for k in keys)


def harmonic_direct(m: int) -> float:
    return sum(1.0 / k for k in range(1, m + 1))


def coupon_cdf(n: int, t_max: int) -> list[float]:
    """P(T <= t) for t = 0..t_max, where T is the number of uniform draws
    from n girls until every girl has been drawn: the chain's first output
    time. It runs the occupancy chain: with j girls drawn, the next draw
    adds one with probability (n - j)/n. Inclusion-exclusion, the sum of
    (-1)^k C(n, k) (1 - k/n)^t, cancels badly in floats at n = 64."""
    occupied = [1.0] + [0.0] * n
    cdf = [occupied[n]]
    for _ in range(t_max):
        nxt = [0.0] * (n + 1)
        for j, p in enumerate(occupied):
            nxt[j] += p * j / n
            if j < n:
                nxt[j + 1] += p * (n - j) / n
        occupied = nxt
        cdf.append(occupied[n])
    return cdf


def serial_dictatorship(
    common_boy_prefs: list[int], girl_prefs: list[list[int]]
) -> list[int]:
    """Expected matching when every boy ranks the girls identically.

    The first-ranked girl picks her favorite boy, the second-ranked picks
    her favorite among the rest, and so on. Returns husband_of.
    """
    n = len(common_boy_prefs)
    husband: list[int | None] = [None] * n
    taken: set[int] = set()
    for g in common_boy_prefs:
        choice = next(b for b in girl_prefs[g] if b not in taken)
        husband[g] = choice
        taken.add(choice)
    return [b for b in husband if b is not None]


def _inverse(rows) -> list[list[int]]:
    """rank[i][x] = position of x in rows[i]."""
    out = []
    for row in rows:
        rank = [0] * len(row)
        for pos, x in enumerate(row):
            rank[x] = pos
        out.append(rank)
    return out


def deferred_acceptance(proposer_prefs, receiver_prefs) -> list[int]:
    """Proposer-optimal stable matching: partner[p] for every proposer p.

    Plain deferred acceptance with a stack of free proposers; works for
    either side, so one call gives the boy-optimal matching and the other
    the girl-optimal one.
    """
    n = len(proposer_prefs)
    receiver_rank = _inverse(receiver_prefs)
    held: list[int | None] = [None] * n
    next_pos = [0] * n
    free = list(range(n))
    while free:
        p = free.pop()
        r = proposer_prefs[p][next_pos[p]]
        next_pos[p] += 1
        current = held[r]
        if current is None:
            held[r] = p
        elif receiver_rank[r][p] < receiver_rank[r][current]:
            held[r] = p
            free.append(current)
        else:
            free.append(p)
    partner = [0] * n
    for r, p in enumerate(held):
        partner[p] = r
    return partner


def rotation_chain_husbands(girl_prefs, boy_prefs, girl: int) -> list[int]:
    """Every stable husband of one girl, worst first, by rotation elimination.

    Starts from the boy-optimal matching and eliminates one exposed rotation
    at a time until the girl-optimal matching, from girl-proposing deferred
    acceptance, is reached (Gusfield, SIAM J. Comput. 1987; Gusfield &
    Irving 1989, sec. 2.5). In a stable matching M, s(b) is the first girl
    on boy b's list who prefers b to her partner in M; following
    b -> partner of s(b) from any boy not yet at his girl-optimal partner
    runs into a cycle, the exposed rotation, and eliminating it moves each
    of its boys to his s(b). Every maximal chain eliminates every rotation,
    and every stable pair outside the girl-optimal matching lies in exactly
    one rotation, so the girl's partners along the chain are all her stable
    husbands, each once and strictly improving for her.
    """
    n = len(girl_prefs)
    girl_rank = _inverse(girl_prefs)
    wife = deferred_acceptance(boy_prefs, girl_prefs)
    final_wife = [0] * n
    for g, b in enumerate(deferred_acceptance(girl_prefs, boy_prefs)):
        final_wife[b] = g
    husband = [0] * n
    for b, g in enumerate(wife):
        husband[g] = b
    # Girls a boy has passed never become available again: their partners
    # only improve along the chain, so each scan position only advances.
    scan = [boy_prefs[b].index(wife[b]) for b in range(n)]

    def s(b: int) -> int:
        row = boy_prefs[b]
        while scan[b] < n:
            g = row[scan[b]]
            if girl_rank[g][b] < girl_rank[g][husband[g]]:
                return g
            scan[b] += 1
        raise AssertionError(f"boy {b} has no next girl; no rotation is exposed")

    partners = [husband[girl]]
    unsettled = [b for b in range(n) if wife[b] != final_wife[b]]
    while unsettled:
        path: dict[int, int] = {}
        b = unsettled[-1]
        while b not in path:
            path[b] = len(path)
            b = husband[s(b)]
        rotation = list(path)[path[b] :]
        moves = [(b, s(b)) for b in rotation]
        for b, g in moves:
            wife[b] = g
            husband[g] = b
        if any(g == girl for _, g in moves):
            partners.append(husband[girl])
        unsettled = [b for b in unsettled if wife[b] != final_wife[b]]
    return partners


def matching_from_pairs(n: int, pairs) -> Matching:
    """The matching of size n with the given (girl, boy) pairs."""
    husband: list[int | None] = [None] * n
    for g, b in pairs:
        if husband[g] is not None:
            raise ValueError(f"girl {g} is married to two boys")
        husband[g] = b
    return Matching(husband)


def husband_set(stable: StableSet, girl: int) -> frozenset[int]:
    """The designated girl's partners across all stable matchings."""
    if not 0 <= girl < len(stable.husband_sets):
        raise ValueError(f"girl index {girl} out of range")
    return stable.husband_sets[girl]


def boy_optimal_matching(stable: StableSet, instance: PreferenceInstance) -> Matching:
    """Each boy's most preferred partner over the stable set.

    For stable matchings these choices are simultaneously achievable, so the
    result is itself one of the matchings in the set.
    """
    best: list[int | None] = [None] * instance.n
    for m in stable.matchings:
        for b, g in enumerate(m.wife_of):
            assert g is not None
            if best[b] is None or instance.boy_rank[b][g] < instance.boy_rank[b][best[b]]:
                best[b] = g
    wives = tuple(best)
    for m in stable.matchings:
        if m.wife_of == wives:
            return m
    raise AssertionError("boy-optimal choices did not form a stable matching")


def worst_husband(stable: StableSet, instance: PreferenceInstance, girl: int) -> int:
    """The girl's least preferred stable husband."""
    return max(husband_set(stable, girl), key=lambda b: instance.girl_rank[girl][b])


@dataclass(frozen=True)
class StepEvent:
    """What one proposal did: who asked whom, and how it was resolved."""

    time: int
    proposer: int
    girl: int
    redundant: bool
    accepted: bool
    output: int | None = None


@dataclass
class ReferenceState:
    """A chain state that can stop and resume after any proposal.

    proposed[b] is boy b's tried row, a bytearray(n) with proposed[b][j]
    == 1 once he has proposed to girl j, and ntried[b] his count of tried
    girls; best_offer[j] is the boy holding girl j's best offer (None
    before her first fresh proposal); stats is the run's record, from
    `new_state`. proposals_per_girl, proposals_per_boy and runs_per_boy
    are counted here one step at a time: each girl's proposals, redundant
    ones included, each boy's proposals, and each boy's runs begun, the
    one in progress included (the chain's record leaves these to
    `entity_totals`). So are the redundant proposals, the designated
    girl's acceptances and the time of the first output (None before it,
    so it also says whether a husband has been emitted), which the chain's
    record derives. The other resume fields are the proposer, the count of
    boys introduced, and the proposals and fresh ones among them of the
    proposer's run in progress.
    """

    proposed: list[bytearray]
    ntried: list[int]
    best_offer: list[int | None]
    stats: RunStats
    proposals_per_girl: list[int]
    proposals_per_boy: list[int]
    runs_per_boy: list[int]
    redundant_proposals: int = 0
    acceptances_by_girl: int = 0
    first_output_time: int | None = None
    proposer: int = 0
    introduced: int = 1
    run_length: int = 0
    run_fresh: int = 0


def reference_state(n: int, girl: int, track: bool = True) -> ReferenceState:
    """A fresh state: the empty record of `new_state`, no girl tried, no
    offer made, and boy 0 proposing his first run."""
    return ReferenceState(
        proposed=[bytearray(n) for _ in range(n)],
        ntried=[0] * n,
        best_offer=[None] * n,
        stats=new_state(n, girl, track),
        proposals_per_girl=[0] * n,
        proposals_per_boy=[0] * n,
        runs_per_boy=[1] + [0] * (n - 1),
    )


def step_totals(state: ReferenceState) -> tuple[list[int], list[int], list[int]]:
    """The per-entity totals `random_model.entity_totals` derives, as
    `state` counted them step by step."""
    return state.proposals_per_girl, state.proposals_per_boy, state.runs_per_boy


def reference_step(
    state: ReferenceState, rng: Rng, amnesia: bool = True
) -> StepEvent:
    """One proposal of the chain, written out scalar, the definition that
    `random_model.run` is held to.

    Draws only through `Rng.randrange` and `Rng.random`: one uniform integer
    for the proposed girl, then (for fresh proposals only) one uniform real
    for the acceptance test against 1/k. A redundant proposal consumes just
    the integer draw, is rejected, and leaves the proposer in place. With
    amnesia off, the memoryful variant, the proposer redraws until he hits
    a girl he has not tried, so every proposal is fresh; it changes no
    output distribution, and it is an error to step an exhausted proposer
    in that mode. It counts every proposal of every (boy, girl) pair in
    `stats.pair_counts`, where the chain keeps only the pairs proposed to
    more than once.
    """
    stats = state.stats
    n, girl = stats.n, stats.girl
    p = state.proposer
    tried = state.proposed[p]
    if amnesia:
        h = rng.randrange(n)
    else:
        if state.ntried[p] == n:
            raise ValueError(f"proposer {p} has already tried every girl")
        while True:
            h = rng.randrange(n)
            if not tried[h]:
                break
    stats.t += 1
    t = stats.t
    state.proposals_per_girl[h] += 1
    state.proposals_per_boy[p] += 1
    state.run_length += 1
    if stats.pair_counts is not None:
        stats.pair_counts[p, h] = stats.pair_counts.get((p, h), 0) + 1
    if tried[h]:
        state.redundant_proposals += 1
        return StepEvent(t, p, h, redundant=True, accepted=False)
    tried[h] = 1
    state.ntried[p] += 1
    k = stats.nonredundant_per_girl[h] + 1
    stats.nonredundant_per_girl[h] = k
    state.run_fresh += 1
    if rng.random() * k >= 1.0:
        return StepEvent(t, p, h, redundant=False, accepted=False)

    # Accepted: the run ends and a new proposer is dispatched.
    if stats.run_lengths is not None:
        stats.run_lengths.append((p, state.run_length, state.run_fresh))
    state.run_length = 0
    state.run_fresh = 0
    if h == girl:
        state.acceptances_by_girl += 1
        if state.first_output_time is None:
            stats.pre_output_acceptances = state.acceptances_by_girl
    previous = state.best_offer[h]
    state.best_offer[h] = p
    output: int | None = None
    if previous is None:
        if state.introduced < n:
            nxt = state.introduced
            state.introduced += 1
        else:
            output = state.best_offer[girl]
            assert output is not None
            nxt = output
    elif h == girl and state.first_output_time is not None:
        output = p
        nxt = p
    else:
        nxt = previous
    if output is not None:
        stats.outputs.append((output, t))
        if state.first_output_time is None:
            state.first_output_time = t
            stats.pre_output_acceptances = state.acceptances_by_girl - 1
    state.proposer = nxt
    state.runs_per_boy[nxt] += 1
    return StepEvent(t, p, h, redundant=False, accepted=True, output=output)


def copy_stats(stats: RunStats) -> RunStats:
    """An independent copy of `stats`: no list or dict is shared."""
    out = RunStats(stats.n, stats.girl)
    out.t = stats.t
    out.nonredundant_per_girl = list(stats.nonredundant_per_girl)
    out.run_lengths = None if stats.run_lengths is None else list(stats.run_lengths)
    out.pair_counts = None if stats.pair_counts is None else dict(stats.pair_counts)
    out.outputs = list(stats.outputs)
    out.pre_output_acceptances = stats.pre_output_acceptances
    return out


def clone_state(state: ReferenceState) -> ReferenceState:
    """An independent copy of `state`, its stats included."""
    return ReferenceState(
        proposed=[bytearray(row) for row in state.proposed],
        ntried=list(state.ntried),
        introduced=state.introduced,
        proposer=state.proposer,
        best_offer=list(state.best_offer),
        run_length=state.run_length,
        run_fresh=state.run_fresh,
        stats=copy_stats(state.stats),
        proposals_per_girl=list(state.proposals_per_girl),
        proposals_per_boy=list(state.proposals_per_boy),
        runs_per_boy=list(state.runs_per_boy),
        redundant_proposals=state.redundant_proposals,
        acceptances_by_girl=state.acceptances_by_girl,
        first_output_time=state.first_output_time,
    )


def repeated_pairs(pair_counts: dict[tuple[int, int], int] | None):
    """Full pair counts restricted to the pairs proposed to more than once,
    the form the chain keeps in `RunStats.pair_counts`."""
    if pair_counts is None:
        return None
    return {pair: c for pair, c in pair_counts.items() if c >= 2}


def full_pair_counts(state: ReferenceState) -> dict[tuple[int, int], int]:
    """Every boy's count for every girl he tried, from the tried rows of
    `state` and its pair counts, where a tried pair with no count was
    proposed to once."""
    pairs = state.stats.pair_counts
    assert pairs is not None
    return {
        (b, j): pairs.get((b, j), 1)
        for b, row in enumerate(state.proposed)
        for j in range(state.stats.n)
        if row[j]
    }


def reference_run(
    state: ReferenceState,
    rng: Rng,
    stop: str,
    cap: int | None = None,
    amnesia: bool = True,
) -> str:
    """Step `state` with `reference_step` until a stop rule of
    `random_model.run` fires, and return the rule that fired.

    Before each proposal, "natural" fires when the proposer has tried every
    girl, and "cap" once `cap` proposals have been made, where `run` takes
    the int `cap` as its stop; with amnesia off, an exhausted proposer also
    stops the run, as "natural". After each accepted proposal that emits a
    husband, "first_output" fires.
    """
    n = state.stats.n
    while True:
        exhausted = state.ntried[state.proposer] == n
        if stop == "natural" and exhausted:
            return "natural"
        if stop == "cap" and state.stats.t >= cap:
            return "cap"
        if not amnesia and exhausted:
            return "natural"
        event = reference_step(state, rng, amnesia=amnesia)
        if stop == "first_output" and event.output is not None:
            return "first_output"


def revealed_instance(n: int, girl: int, seed: int, fill_seed: int) -> PreferenceInstance:
    """The instance that a natural run of the chain at (n, girl, seed)
    reveals, completed at random from a second stream, `Rng(fill_seed)`: on
    it the stable-husband search makes the chain's fresh proposals, in the
    chain's order, with the chain's decisions.

    It replays `reference_step` from a fresh state to the natural stop.
    Each boy's list is his fresh proposals in order, then the girls he
    never tried, in uniform order. Each girl's list grows with her offers:
    a proposer she accepts goes first, above every offer before his, and
    one she rejects at a uniform place below the offer she held; then each
    boy who never proposed to her goes in at a uniform place. Given the
    run, that completion is uniform over the instances on which the search
    makes the run's proposals and decisions, so a chain with the search's
    law reveals a uniform instance.
    """
    state = reference_state(n, girl, track=False)
    rng, fill = Rng(seed), Rng(fill_seed)
    boy_rows: list[list[int]] = [[] for _ in range(n)]
    girl_rows: list[list[int]] = [[] for _ in range(n)]
    while state.ntried[state.proposer] < n:
        event = reference_step(state, rng)
        if event.redundant:
            continue
        boy_rows[event.proposer].append(event.girl)
        row = girl_rows[event.girl]
        # Her first offer is always accepted, so a rejected one finds the
        # offer she holds at place 0 and goes anywhere from place 1 on.
        place = 0 if event.accepted else 1 + fill.randrange(len(row))
        row.insert(place, event.proposer)
    for row in boy_rows:
        untried = [j for j in range(n) if j not in row]
        reference_shuffle(untried, fill)
        row += untried
    for row in girl_rows:
        for b in range(n):
            if b not in row:
                row.insert(fill.randrange(len(row) + 1), b)
    return PreferenceInstance.from_prefs(girl_rows, boy_rows)


def exact_husband_law(n: int) -> tuple[dict[int, Fraction], int]:
    """The exact law of girl 0's number of stable husbands in a uniform
    n x n instance, {count: probability}, and the number of chain states
    the pass visits.

    A forward pass over the reachable states of the memoryful chain
    (`reference_step` with amnesia off), whose husbands have the search's
    law: each proposal goes to a girl uniform among those the proposer has
    not tried, and her k-th offer, k one more than the boys who have tried
    her, is accepted with probability 1/k. Each proposal adds one girl to
    one boy's tried set, so the states fall into layers by the number of
    proposals made, and a layer's probabilities are final once the layer
    before it has been spread. A state holds each boy's tried set as a
    bitmask, each girl's held offer (None before her first), the proposer,
    the number of boys introduced and the husbands emitted so far, whose
    being nonzero is the post-output phase. A state whose proposer has
    tried every girl is the natural stop, and its count is final.
    """
    everyone = (1 << n) - 1
    law: defaultdict[int, Fraction] = defaultdict(Fraction)
    layer = {((0,) * n, (None,) * n, 0, 1, 0): Fraction(1)}
    states = 0
    while layer:
        states += len(layer)
        after: defaultdict[tuple, Fraction] = defaultdict(Fraction)
        for (tried, held, p, introduced, count), mass in layer.items():
            if tried[p] == everyone:
                law[count] += mass
                continue
            untried = [h for h in range(n) if not tried[p] >> h & 1]
            for h in untried:
                k = 1 + sum(row >> h & 1 for row in tried)
                step = mass / len(untried)
                now = (*tried[:p], tried[p] | 1 << h, *tried[p + 1 :])
                if k > 1:
                    after[now, held, p, introduced, count] += step * (k - 1) / k
                previous = held[h]
                held_now = (*held[:h], p, *held[h + 1 :])
                if previous is None and introduced < n:
                    nxt = (introduced, introduced + 1, count)
                elif previous is None:
                    nxt = (held_now[0], introduced, count + 1)
                elif h == 0 and count:
                    nxt = (p, introduced, count + 1)
                else:
                    nxt = (previous, introduced, count)
                after[(now, held_now, *nxt)] += step / k
        layer = after
    return dict(law), states


def reference_shuffle(items: list, rng: Rng) -> None:
    """In-place Fisher-Yates shuffle, every permutation equally likely: one
    `Rng.randrange(i + 1)` for i = len(items) - 1 down to 1."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def reference_generate_uniform(n: int, rng: Rng) -> PreferenceInstance:
    """A uniform instance drawn scalar from `rng`, the definition that
    `instance.generate_uniform` is held to: girls' rows, then boys' rows,
    each `range(n)` put through `reference_shuffle`.
    """
    if n < 1:
        raise ValueError("instance size must be at least 1")
    girl_prefs = []
    boy_prefs = []
    for rows in (girl_prefs, boy_prefs):
        for _ in range(n):
            row = list(range(n))
            reference_shuffle(row, rng)
            rows.append(row)
    return PreferenceInstance.from_prefs(girl_prefs, boy_prefs)


def _unmix64(z: int) -> int:
    """Inverse of the SplitMix64 finalizer: undo each xor-shift and each
    multiplication by an odd constant, mod 2**64, in reverse order."""
    mask = 2**64 - 1
    z ^= z >> 31 ^ z >> 62
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & mask
    z ^= z >> 27 ^ z >> 54
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask
    z ^= z >> 30 ^ z >> 60
    return z


def seed_with_draw(j: int, value: int) -> int:
    """A seed whose draw number j (0-based) is `value`, a 64-bit integer."""
    return (_unmix64(value) - (j + 1) * 0x9E3779B97F4A7C15) % 2**64


def seed_with_top_draw(j: int) -> int:
    """A seed whose draw number j (0-based) is 2**64 - 1, the one value
    `Rng.randrange` rejects for every modulus that is not a power of two."""
    return seed_with_draw(j, 2**64 - 1)


def reference_audit(
    stats: RunStats, n: int, delta: float, totals: tuple[list, list, list]
) -> AuditReport:
    """The capped-window audit written out one entity at a time, the
    definition that `random_model.audit_window_stats` is held to: every
    violation list is built element by element, each pair count, visited
    boy by boy and girl by girl, goes through a Python-level `max`, and
    each check's extreme is taken from
    the full lists. totals are each girl's proposals, each boy's proposals
    and each boy's run count, given directly (as `step_totals` counts
    them) rather than derived from the logs. Checks, bounds and errors are
    those of `audit_window_stats`.
    """
    per_girl, per_boy, runs_per_boy = totals
    if stats.n != n:
        raise ValueError(f"stats cover n={stats.n}, audit requested n={n}")
    cap = math.floor(n ** (1 + delta))
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

    checks: list[AuditCheck] = []

    def add(name, lower, upper, worst, violations):
        checks.append(
            AuditCheck(
                name=name,
                passed=not violations,
                lower=lower,
                upper=upper,
                worst=float(worst),
                violations=tuple(violations),
            )
        )

    bad = [
        {"girl": j, "count": c}
        for j, c in enumerate(per_girl)
        if not girl_lo <= c <= girl_hi
    ]
    worst = max(per_girl) if max(per_girl) > girl_hi else min(per_girl)
    add("girl_proposal_window", girl_lo, girl_hi, worst, bad)

    bad = [
        {"boy": b, "runs": r}
        for b, r in enumerate(runs_per_boy)
        if r > run_starts_hi
    ]
    add("boy_run_starts", None, run_starts_hi, max(runs_per_boy), bad)

    bad = [
        {"boy": b, "fresh_length": fresh}
        for b, total, fresh in stats.run_lengths
        if fresh > run_len_hi
    ]
    worst = max((fresh for _, _, fresh in stats.run_lengths), default=0)
    add("run_fresh_length", None, run_len_hi, worst, bad)

    bad = [
        {"boy": b, "length": total}
        for b, total, fresh in stats.run_lengths
        if total > run_len_hi
    ]
    worst = max((total for _, total, _ in stats.run_lengths), default=0)
    add("run_total_length", None, run_len_hi, worst, bad)

    bad = [
        {"boy": b, "proposals": c}
        for b, c in enumerate(per_boy)
        if c > boy_total_hi
    ]
    add("boy_total_proposals", None, boy_total_hi, max(per_boy), bad)

    bad = []
    worst = 0
    for b in range(n):
        for j in range(n):
            c = stats.pair_counts.get((b, j), 0)
            worst = max(worst, c)
            if c > pair_hi:
                bad.append({"boy": b, "girl": j, "count": c})
    add("pair_repeat_proposals", None, pair_hi, worst, bad)

    fresh = stats.nonredundant_per_girl
    bad = [
        {"girl": j, "fresh_count": c} for j, c in enumerate(fresh) if c < fresh_floor
    ]
    add("girl_fresh_floor", fresh_floor, None, min(fresh), bad)

    return AuditReport(
        n=n,
        delta=delta,
        cap=cap,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
    )
