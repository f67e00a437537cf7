from __future__ import annotations

import dataclasses
import math
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stablematch import random_model
from stablematch.matching import stable_husbands
from stablematch.random_model import (
    RunStats,
    audit_window_stats,
    entity_totals,
    new_state,
    run,
)
from stablematch.rng import Rng, coin_limit, derive_seed

from oracles import (
    chi_square,
    clone_state,
    coupon_cdf,
    full_pair_counts,
    harmonic_direct,
    reference_audit,
    reference_run,
    reference_state,
    reference_step,
    repeated_pairs,
    revealed_instance,
    seed_with_draw,
    seed_with_top_draw,
    step_totals,
    tv_distance,
)

GOLDEN = 0x9E3779B97F4A7C15
GOLDEN_INVERSE = pow(GOLDEN, -1, 2**64)


def mark_tried(state, boy, girls):
    """Record that `boy` has already proposed to each of `girls`."""
    for j in girls:
        state.proposed[boy][j] = 1
    state.ntried[boy] = len(girls)


def run_via_steps(n, girl, seed, steps):
    state = reference_state(n, girl)
    rng = Rng(seed)
    events = [reference_step(state, rng) for _ in range(steps)]
    return state, events


class TestForcedPaths:
    def test_n1_natural(self):
        outputs, stats = run(1, 0, seed=4242)
        assert outputs == [(0, 1)]
        assert stats.t == 1
        assert stats.first_output_time == 1
        assert stats.acceptances_by_girl == 1
        assert stats.pre_output_acceptances == 0

    def test_first_fresh_proposal_always_accepted(self):
        # Accepted, the first offer introduces boy 1 as the next proposer.
        for seed in range(50):
            _, stats = run(5, 0, seed, stop=1)
            assert stats.redundant_proposals == 0
            assert entity_totals(stats)[2] == [1, 1, 0, 0, 0]


class TestTransitionProbabilities:
    def _frozen_state(self):
        # Proposer 0 has already tried girl 2; girls hold 1, 2, 1 fresh
        # offers. One proposal from here lands as:
        #   girl 0 fresh   accept 1/6   reject 1/6
        #   girl 1 fresh   accept 1/9   reject 2/9
        #   girl 2 redundant             reject 1/3
        state = reference_state(3, 0)
        mark_tried(state, 0, [2])
        state.stats.nonredundant_per_girl = [1, 2, 1]
        state.best_offer = [1, 2, 0]
        state.introduced = 3
        return state

    def test_frequencies_match_three_sigma(self):
        base = self._frozen_state()
        rng = Rng(31415)
        trials = 36_000
        counts = Counter()
        for _ in range(trials):
            event = reference_step(clone_state(base), rng)
            counts[(event.girl, event.redundant, event.accepted)] += 1
        expected = {
            (0, False, True): 1 / 6,
            (0, False, False): 1 / 6,
            (1, False, True): 1 / 9,
            (1, False, False): 2 / 9,
            (2, True, False): 1 / 3,
        }
        assert set(counts) == set(expected)
        for key, p in expected.items():
            sigma = (trials * p * (1 - p)) ** 0.5
            assert abs(counts[key] - trials * p) <= 3 * sigma, (key, counts[key])

    def test_acceptance_frequency_one_over_k(self):
        # Every girl already holds 3 fresh offers; a fresh proposal is her
        # 4th and is accepted with probability 1/4.
        trials = 20_000
        rng = Rng(31337)
        accepted = 0
        for _ in range(trials):
            state = reference_state(4, 0)
            state.stats.nonredundant_per_girl = [3, 3, 3, 3]
            state.best_offer = [1, 1, 1, 1]
            state.introduced = 4
            if reference_step(state, rng).accepted:
                accepted += 1
        p = 0.25
        sigma = (trials * p * (1 - p)) ** 0.5
        assert abs(accepted - trials * p) <= 3 * sigma

    def test_redundant_proposals_always_rejected_and_skip_offer_counts(self):
        state = reference_state(2, 0)
        mark_tried(state, 0, [0, 1])  # everything redundant from here
        rng = Rng(5)
        offers_before = list(state.stats.nonredundant_per_girl)
        for _ in range(100):
            event = reference_step(state, rng)
            assert event.redundant and not event.accepted
        assert state.stats.nonredundant_per_girl == offers_before
        assert state.redundant_proposals == 100


def assert_derived_counters(state):
    """A replay's girl and boy totals each sum to its proposals, and its
    fresh and redundant counts agree with the tried rows."""
    stats = state.stats
    fresh = stats.t - state.redundant_proposals
    assert sum(state.proposals_per_girl) == sum(state.proposals_per_boy) == stats.t
    assert fresh == sum(stats.nonredundant_per_girl) == sum(state.ntried)
    assert state.ntried == [sum(row) for row in state.proposed]
    assert stats.nonredundant_per_girl == [sum(col) for col in zip(*state.proposed)]


def assert_run_matches_steps(outputs, fast, state):
    """The fast loop's result agrees field by field with a reference step
    replay, its derived counts and with tracking its per-entity totals with
    the replay's step-by-step counts."""
    slow = state.stats
    assert fast.t == slow.t
    assert fast.nonredundant_per_girl == slow.nonredundant_per_girl
    assert fast.redundant_proposals == state.redundant_proposals
    assert fast.outputs == slow.outputs == outputs
    assert fast.first_output_time == state.first_output_time
    assert fast.acceptances_by_girl == state.acceptances_by_girl
    assert fast.pre_output_acceptances == slow.pre_output_acceptances
    assert fast.pair_counts == repeated_pairs(slow.pair_counts)
    # The final run is always recorded: the run in progress at the stop,
    # even when it has made no proposal.
    if slow.run_lengths is None:
        assert fast.run_lengths is None
    else:
        final = (state.proposer, state.run_length, state.run_fresh)
        assert fast.run_lengths == slow.run_lengths + [final]
        assert entity_totals(fast) == step_totals(state)
    # Each girl's fresh count is her column count in the tried rows.
    assert fast.nonredundant_per_girl == [sum(col) for col in zip(*state.proposed)]


class TestRunStepAgreement:
    @pytest.mark.parametrize(
        "n,cap,seed",
        [(8, 3000, 101), (50, 30, 202), (3, 400, 303), (1, 5, 404)],
    )
    def test_fast_loop_matches_instrumented_steps(self, n, cap, seed):
        outputs, fast = run(n, 0, seed, stop=cap)
        state, _ = run_via_steps(n, 0, seed, cap)
        assert fast.t == cap
        assert_run_matches_steps(outputs, fast, state)


def _keep_streams(monkeypatch) -> list[Rng]:
    """Record every stream `run` creates, in creation order."""
    streams: list[Rng] = []

    def keep(seed: int) -> Rng:
        stream = Rng(seed)
        streams.append(stream)
        return stream

    monkeypatch.setattr(random_model, "Rng", keep)
    return streams


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32), st.integers(1, 120))
def test_conservation_after_every_step(n, seed, steps):
    # `run` capped at each t <= steps equals the first t proposals of one
    # reference replay: stats, draws and stream alike.
    girl = seed % n
    state, rng = reference_state(n, girl), Rng(seed)
    for t in range(1, steps + 1):
        reference_step(state, rng)
        with pytest.MonkeyPatch.context() as monkeypatch:
            streams = _keep_streams(monkeypatch)
            outputs, fast = run(n, girl, seed, stop=t)
        assert fast.t == t
        assert_run_matches_steps(outputs, fast, state)
        assert streams[0]._state == rng._state
        assert sum(entity_totals(fast)[1]) == t
        assert_derived_counters(state)


@pytest.mark.parametrize(
    "n,seed,stop,cap",
    [
        (1, 3, "natural", None),
        (3, 5, "natural", None),
        (3, 6, "first_output", None),
        (64, 7, "cap", 9),
        (64, 8, "natural", None),
        (200, 9, "cap", 5000),
        (1024, 10, "first_output", None),
    ],
)
def test_stream_ends_where_the_scalar_draws_would(monkeypatch, n, seed, stop, cap):
    # One draw per proposal plus one per fresh proposal: the stream skips
    # exactly the draws the kernel read, not the rest of their blocks.
    streams = _keep_streams(monkeypatch)
    _, stats = run(n, 0, seed, stop=cap or stop)
    fresh = stats.t - stats.redundant_proposals
    assert len(streams) == 1
    assert streams[0]._state == (seed + (stats.t + fresh) * GOLDEN) % 2**64


class TestForcedRejection:
    """At n = 3, randrange rejects exactly one value, 2**64 - 1, so these
    seeds force the rejection branch: on the first draw, inside the first
    block (24 draws at n = 3), on its last draw, whose redraw comes from
    the second block (draws 24 to 71), and on the first and the last draw
    of the second block."""

    # Each id ends in "True", the chain's one proposal rule, as it did when
    # the cases also ran a memoryful variant; so each case keeps its id.
    @pytest.mark.parametrize(
        "j,stop,cap",
        [
            pytest.param(0, "natural", None, id="0-natural-None-True"),
            pytest.param(8, "natural", None, id="8-natural-None-True"),
            pytest.param(23, "cap", 60, id="23-cap-60-True"),
            pytest.param(24, "cap", 60, id="24-cap-60-True"),
            pytest.param(71, "cap", 90, id="71-cap-90-True"),
        ],
    )
    def test_run_equals_step_replay(self, monkeypatch, j, stop, cap):
        n = 3
        seed = seed_with_top_draw(j)
        probe = Rng(seed)
        assert [probe.next_u64() for _ in range(j + 1)][-1] == 2**64 - 1
        streams = _keep_streams(monkeypatch)
        outputs, fast = run(n, 0, seed, stop=cap or stop)

        state = reference_state(n, 0)
        rng = Rng(seed)
        assert reference_run(state, rng, stop, cap) == stop
        assert_run_matches_steps(outputs, fast, state)
        assert streams[0]._state == rng._state
        # The rejected draw is one more than proposals plus fresh ones.
        fresh = fast.t - fast.redundant_proposals
        assert rng._state == (seed + (fast.t + fresh + 1) * GOLDEN) % 2**64


def _draws_read(rng: Rng, seed: int) -> int:
    """How many draws `rng`, started at `seed`, has taken."""
    return (rng._state - seed) * GOLDEN_INVERSE % 2**64


def _boundary_seed(stop: str, accepted: bool) -> tuple[int, int | None]:
    """The first seed whose chain at n = 3 (girl 0) makes a
    fresh proposal with its girl draw the last of the first block (8·n = 24
    draws) and its acceptance draw the first of the second; under "natural"
    that proposal exhausts the proposer, under "cap" it is the cap-th. The
    offer is accepted or not as asked. Returns (seed, cap); the cap is None
    under "natural".
    """
    n = 3
    first = 8 * n
    for seed in range(100_000):
        state = reference_state(n, 0)
        rng = Rng(seed)
        while _draws_read(rng, seed) < first:
            if stop == "natural" and state.ntried[state.proposer] == n:
                break
            before = _draws_read(rng, seed)
            event = reference_step(state, rng)
            if before != first - 1:
                continue
            if (
                not event.redundant
                and _draws_read(rng, seed) == first + 1
                and event.accepted == accepted
            ):
                if stop == "cap":
                    return seed, event.time
                if state.ntried[event.proposer] == n:
                    return seed, None
            break
    raise AssertionError(f"no seed below 100000 for {stop!r}, accepted={accepted}")


class TestBlockBoundary:
    """A fresh proposal whose acceptance draw opens a new block: the stop
    rule that its proposal brings into force (an exhausted proposer, or
    the cap) fires only after that draw is read."""

    @pytest.mark.parametrize("stop", ["natural", "cap"])
    @pytest.mark.parametrize("accepted", [False, True])
    def test_acceptance_draw_first_of_a_block(self, monkeypatch, stop, accepted):
        n = 3
        seed, cap = _boundary_seed(stop, accepted)
        streams = _keep_streams(monkeypatch)
        outputs, fast = run(n, 0, seed, stop=cap or stop)

        state = reference_state(n, 0)
        rng = Rng(seed)
        assert reference_run(state, rng, stop, cap) == stop
        assert_run_matches_steps(outputs, fast, state)
        # One draw per proposal plus one per fresh proposal.
        draws = fast.t + (fast.t - fast.redundant_proposals)
        assert draws > 8 * n
        assert streams[0]._state == rng._state == (seed + draws * GOLDEN) % 2**64


@pytest.mark.parametrize("n,k,j", [(3, 2, 5), (8, 2, 7), (8, 3, 53), (64, 2, 42)])
def test_acceptance_draw_on_the_limit_is_a_rejection(monkeypatch, n, k, j):
    # Draw j of the seed is exactly coin_limit(k), and the replay
    # reads it as the acceptance draw of an offer k, which `random`'s
    # float rejects: (u >> 11) * 2**-53 * k is then at least 1.0, and a
    # draw 2**11 lower would be accepted.
    limit = coin_limit(k)
    seed = seed_with_draw(j, limit)
    probe = Rng(seed)
    assert [probe.next_u64() for _ in range(j + 1)][-1] == limit
    streams = _keep_streams(monkeypatch)
    outputs, fast = run(n, 0, seed)

    state = reference_state(n, 0)
    rng = Rng(seed)
    resolved = []
    while state.ntried[state.proposer] < n:
        event = reference_step(state, rng)
        if not event.redundant and _draws_read(rng, seed) == j + 1:
            resolved.append((state.stats.nonredundant_per_girl[event.girl], event.accepted))
    assert resolved == [(k, False)]
    assert_run_matches_steps(outputs, fast, state)
    assert streams[0]._state == rng._state


def _block_ends(n: int) -> list[int]:
    """The draw counts at which the first three blocks of a run from a fresh
    state end, when its cap is at least n: a first block of min(8·n, 2048)
    draws, each next one twice the last, up to 2048 (8·n, 24·n and 56·n
    for n <= 64)."""
    ends, size, total = [], min(8 * n, 2048), 0
    for _ in range(3):
        total += size
        ends.append(total)
        size = min(2 * size, 2048)
    return ends


def _aimed_run(n, start, stop, block, gap):
    """(seed, cap, draws) for the first seed from `start` whose reference
    run at n, girl seed % n, ends `gap` draws past a block end of `run`.

    Under "natural" that is any of the first three block ends, and the cap
    is None; with gap 1 the stopping proposal's girl draw is the last of a
    block and its acceptance draw the first of the next. Under "cap" it is
    block end `block`, and the cap is the proposal count there, so the
    cap-th proposal ends `gap` draws into the next block. None if no seed
    in 5000 is one.
    """
    ends = _block_ends(n)
    for seed in range(start, start + 5000):
        state = reference_state(n, seed % n, track=False)
        rng = Rng(seed)
        if stop == "natural":
            reference_run(state, rng, "natural")
            draws = _draws_read(rng, seed)
            if draws - gap in ends:
                return seed, None, draws
            continue
        target = ends[block] + gap
        while _draws_read(rng, seed) < target:
            reference_step(state, rng)
        if _draws_read(rng, seed) == target:
            return seed, state.stats.t, target
    return None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9),
    start=st.integers(0, 2**63),
    stop=st.sampled_from(["natural", "cap"]),
    block=st.integers(0, 2),
    gap=st.integers(0, 1),
    track=st.booleans(),
)
def test_stops_aimed_at_block_ends(n, start, stop, block, gap, track):
    # The stop falls on a block end of the kernel, or one draw past it, so
    # that an offer's acceptance draw opens the next block; `run` must equal
    # the reference replay and end the stream where the scalar draws would.
    assume(stop == "cap" or n >= 2)
    aimed = _aimed_run(n, start, stop, block, gap)
    assume(aimed is not None)
    seed, cap, draws = aimed
    if cap is not None:
        assert min(8 * n, 8 * cap, 2048) == 8 * n
    girl = seed % n
    state = reference_state(n, girl, track=track)
    rng = Rng(seed)
    assert reference_run(state, rng, stop, cap) == stop
    with pytest.MonkeyPatch.context() as monkeypatch:
        streams = _keep_streams(monkeypatch)
        outputs, fast = run(n, girl, seed, stop=cap or stop, track=track)
    assert_run_matches_steps(outputs, fast, state)
    assert_derived_counters(state)
    assert streams[0]._state == rng._state == (seed + draws * GOLDEN) % 2**64


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    stop=st.sampled_from(["natural", "cap", "first_output"]),
    cap_rule=st.sampled_from(["fixed", "at_exhaustion"]),
    fixed_cap=st.integers(1, 300),
    shift=st.integers(-1, 1),
    track=st.booleans(),
)
def test_run_equals_reference_replay(n, seed, stop, cap_rule, fixed_cap, shift, track):
    # A cap is passed only under "cap". There "at_exhaustion" puts it one
    # proposal before, at or after the first time the proposer has tried
    # every girl, where the kernel leaves its pass for that proposer.
    girl = seed % n
    if stop != "cap":
        cap = None
    elif cap_rule == "at_exhaustion":
        probe = reference_state(n, girl, track=False)
        reference_run(probe, Rng(seed), "natural")
        cap = max(1, probe.stats.t + shift)
    else:
        cap = fixed_cap
    state = reference_state(n, girl, track=track)
    rng = Rng(seed)
    assert reference_run(state, rng, stop, cap) == stop
    with pytest.MonkeyPatch.context() as monkeypatch:
        streams = _keep_streams(monkeypatch)
        outputs, fast = run(n, girl, seed, stop=cap or stop, track=track)
    assert_run_matches_steps(outputs, fast, state)
    assert streams[0]._state == rng._state
    assert_derived_counters(state)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    stop=st.sampled_from(["natural", "cap", "first_output"]),
    cap=st.integers(1, 300),
)
def test_entity_totals_equal_step_counts(n, seed, stop, cap):
    # The totals a tracked record leaves to entity_totals equal the same
    # totals counted one proposal at a time by a reference replay, and the
    # girls' and the boys' totals each sum to the proposals made.
    girl = seed % n
    cap = cap if stop == "cap" else None
    state = reference_state(n, girl)
    reference_run(state, Rng(seed), stop, cap)
    _, stats = run(n, girl, seed, stop=cap or stop)
    per_girl, per_boy, runs = entity_totals(stats)
    assert (per_girl, per_boy, runs) == step_totals(state)
    assert sum(per_girl) == sum(per_boy) == stats.t
    assert sum(runs) == len(stats.run_lengths)


def assert_chain_is_the_search(n: int, girl: int, seed: int, fill_seed: int) -> None:
    """A natural run equals `stable_husbands` on the instance it reveals,
    however that is completed: the same husbands in the same order, one
    search proposal per fresh proposal, and the same superseded
    acceptances."""
    outputs, stats = run(n, girl, seed)
    search = stable_husbands(revealed_instance(n, girl, seed, fill_seed), girl)
    assert [b for b, _ in outputs] == search.husbands
    assert search.proposal_count == stats.t - stats.redundant_proposals
    assert search.pre_output_acceptances == stats.pre_output_acceptances


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 2**64 - 1),
    fill_seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_chain_is_the_search_on_the_revealed_instance(n, seed, fill_seed, data):
    girl = data.draw(st.integers(0, n - 1), label="girl")
    assert_chain_is_the_search(n, girl, seed, fill_seed)


@pytest.mark.parametrize("n,seed", [(64, 1), (64, 2), (64, 3), (256, 4), (256, 5)])
def test_chain_is_the_search_at_large_n(n, seed):
    assert_chain_is_the_search(n, seed % n, seed, seed + 1)


def test_revealed_instance_is_uniform_at_n2():
    # A chain with the search's law, completed uniformly, reveals each of
    # the 16 instances at n = 2 (four rows of two orders each) with
    # probability 1/16. Fixed before sampling: 16,000 runs, chain and fill
    # seeds from master seed 1992, and the chi-square statistic against
    # its 0.1% critical value with 15 degrees of freedom, 37.70.
    runs = 16_000
    counts = Counter(
        dataclasses.astuple(
            revealed_instance(2, 0, derive_seed(1992, i, 0), derive_seed(1992, i, 1))
        )
        for i in range(runs)
    )
    assert len(counts) == 16
    assert chi_square(list(counts.values()), [runs / 16] * 16) <= 37.70


def test_entity_totals_require_tracking():
    _, stats = run(4, 0, 7, stop=5, track=False)
    with pytest.raises(ValueError, match="tracking"):
        entity_totals(stats)


class TestStopRules:
    def test_cap_exact(self):
        _, stats = run(6, 0, 9, stop=57)
        assert stats.t == 57

    def test_first_output_stops_when_every_girl_covered(self):
        outputs, stats = run(30, 0, 77, stop="first_output")
        assert len(outputs) == 1
        assert stats.first_output_time == stats.t
        assert min(entity_totals(stats)[0]) >= 1

    def test_natural_runs_until_some_boy_exhausts(self):
        outputs, stats = run(5, 0, 123, stop="natural")
        state = reference_state(5, 0)
        assert reference_run(state, Rng(123), "natural") == "natural"
        assert_run_matches_steps(outputs, stats, state)
        assert len(outputs) >= 1
        assert 5 in state.ntried

    def test_cap_must_be_a_positive_count(self):
        # A cap is an int proposal count of at least 1; a bool, a float
        # equal to an int and a name that is no rule are refused alike.
        for stop in (0, -1, True, 2.0, "cap"):
            with pytest.raises(ValueError, match="count >= 1"):
                run(3, 0, 1, stop=stop)

    def test_unknown_stop_rule(self):
        with pytest.raises(ValueError):
            run(3, 0, 1, stop="whenever")

    def test_new_state_validation(self):
        with pytest.raises(ValueError):
            new_state(0, 0)
        with pytest.raises(ValueError):
            new_state(3, 3)

    def test_memory_mode_exhausted_proposer_rejected(self):
        state = reference_state(2, 0)
        mark_tried(state, 0, [0, 1])
        with pytest.raises(ValueError):
            reference_step(state, Rng(1), amnesia=False)


def test_first_output_lands_inside_collector_window():
    # A cap of floor(n*ln(n)*lnln(n)) proposals is far beyond the typical
    # collector time n*H_n, so the first output should appear well inside.
    import math

    n = 1000
    cap = math.floor(n * math.log(n) * math.log(math.log(n)))
    assert cap == 13_350
    for seed in (1, 2, 3):
        outputs, stats = run(n, 0, seed, stop=cap, track=False)
        assert stats.first_output_time is not None
        assert stats.first_output_time <= cap


@pytest.mark.parametrize("n, runs", [(8, 20_000), (64, 5_000)])
def test_first_output_time_is_the_collector_time(n, runs):
    # Every proposal goes to a uniform girl, and one who holds no offer
    # accepts, so the first output comes with the proposal that reaches
    # the last girl without one: the coupon-collector time, whose cdf,
    # mean n*H_n and variance n^2*H2_n - n*H_n are exact. Both thresholds
    # were fixed before sampling: the KS distance at alpha = 0.001, and
    # |z| of the mean at 3.29.
    times = [
        run(n, 0, derive_seed(2026, n, i), stop="first_output", track=False)[1]
        .first_output_time
        for i in range(runs)
    ]
    cdf = coupon_cdf(n, max(times))
    seen = Counter(times)
    below, ks = 0, 0.0
    for t, exact in enumerate(cdf):
        below += seen[t]
        ks = max(ks, abs(below / runs - exact))
    assert ks < 1.95 / math.sqrt(runs)
    h, h2 = harmonic_direct(n), sum(1.0 / (k * k) for k in range(1, n + 1))
    z = (sum(times) / runs - n * h) / math.sqrt((n * n * h2 - n * h) / runs)
    assert abs(z) <= 3.29


def assert_identity_matches_replay(n, seed, stop, cap=None):
    """The chain's derived acceptances, its outputs plus its pre-output
    acceptances, equal the designated girl's acceptances that a reference
    replay counts step by step; so do its derived first output time and
    redundant proposals. Returns the run's outputs and record."""
    outputs, stats = run(n, 0, seed, stop=cap or stop)
    state = reference_state(n, 0)
    reference_run(state, Rng(seed), stop, cap)
    assert stats.acceptances_by_girl == state.acceptances_by_girl
    assert stats.first_output_time == state.first_output_time
    assert stats.redundant_proposals == state.redundant_proposals
    return outputs, stats


def test_outputs_distinct_and_acceptance_identity():
    for seed in range(200):
        outputs, stats = assert_identity_matches_replay(5, seed, "natural")
        boys = [b for b, _ in outputs]
        assert len(set(boys)) == len(boys)
        assert sum(entity_totals(stats)[0]) == stats.t


def test_identity_holds_without_any_output():
    # 25 proposals cannot reach all 40 girls, so no output comes.
    for seed in range(50):
        outputs, _ = assert_identity_matches_replay(40, seed, "cap", 25)
        assert outputs == []


def test_memoryful_variant_same_output_distribution():
    # Proposing uniformly over untried girls only (the reference's
    # memoryful variant) must give the same output-count distribution as
    # the chain's uniform proposing with redundant repeats.
    trials = 20_000
    chain = Counter()
    memory = Counter()
    for i in range(trials):
        outs_a, _ = run(3, 0, 600_000 + i, stop="natural")
        chain[len(outs_a)] += 1
        state = reference_state(3, 0)
        reference_run(state, Rng(700_000 + i), "natural", amnesia=False)
        memory[len(state.stats.outputs)] += 1
    assert tv_distance(chain, memory, trials, trials) <= 0.05


class TestAudit:
    def test_degenerate_n1_passes_vacuously(self):
        _, stats = run(1, 0, 8, stop=1)
        report = audit_window_stats(stats, 0.3)
        assert report.passed
        assert len(report.checks) == 7

    def test_small_run_report_structure(self):
        n, delta = 64, 0.3
        cap = int(n ** (1 + delta))
        _, stats = run(n, 0, 99, stop=cap)
        report = audit_window_stats(stats, delta)
        names = {c.name for c in report.checks}
        assert names == {
            "girl_proposal_window",
            "boy_run_starts",
            "run_fresh_length",
            "run_total_length",
            "boy_total_proposals",
            "pair_repeat_proposals",
            "girl_fresh_floor",
        }
        doc = report.to_dict()
        assert doc["cap"] == cap and set(doc["checks"]) == names

    def test_synthetic_pair_violation_names_the_pair(self):
        # Boy 2 proposes to girl 1 three times over two runs, once fresh;
        # girl 1 receives 3 proposals, in her window [1, 3.03], and every
        # other count is inside its bound.
        n, delta = 4, 0.3
        stats = RunStats(n=n, girl=0)
        stats.t = 6  # floor(4 ** 1.3)
        stats.nonredundant_per_girl = [1, 1, 1, 1]
        stats.run_lengths = [(0, 1, 1), (1, 1, 1), (2, 2, 1), (3, 1, 1), (2, 1, 0)]
        stats.pair_counts = {(2, 1): 3}
        assert entity_totals(stats) == ([1, 3, 1, 1], [1, 1, 3, 1], [1, 1, 2, 1])
        report = audit_window_stats(stats, delta)
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert [c.name for c in failing] == ["pair_repeat_proposals"]
        assert failing[0].violations == ({"boy": 2, "girl": 1, "count": 3},)

    def test_cap_mismatch_reported(self):
        _, stats = run(4, 0, 7, stop=5)
        with pytest.raises(ValueError, match="cap mismatch"):
            audit_window_stats(stats, 0.3)

    def test_requires_tracking(self):
        cap = int(4**1.3)
        _, stats = run(4, 0, 7, stop=cap, track=False)
        with pytest.raises(ValueError, match="tracking"):
            audit_window_stats(stats, 0.3)


def _audit_bounds(n: int, delta: float) -> tuple[int, dict]:
    """The audit's cap and each check's bounds, read off a reference audit
    of an all-zero run."""
    cap = math.floor(n ** (1 + delta))
    zero = RunStats(
        n=n,
        girl=0,
        t=cap,
        nonredundant_per_girl=[0] * n,
        run_lengths=[],
        pair_counts={},
    )
    totals = ([0] * n, [0] * n, [0] * n)
    return cap, {c.name: c for c in reference_audit(zero, n, delta, totals).checks}


def _around(bound: float) -> list:
    """The integers either side of the bound (the bound itself if it is
    one), and one further out on each side; every bound is at least 1, so
    none is negative."""
    lo, hi = math.floor(bound), math.ceil(bound)
    return sorted({lo, hi, lo - 1, hi + 1})


@st.composite
def synthetic_audit_stats(draw, violate_all: bool = False):
    """(stats, n, delta, full pair counts, totals) for a RunStats whose
    counts sit on and about each check's bounds.

    totals are each girl's proposals, each boy's proposals and each boy's
    run count, drawn first; the record's logs are then built to give them.
    A girl's proposals beyond her fresh ones are spread over repeats of
    pairs with her, and a boy's proposals are split over his runs, each
    run but his last drawn about the run bound or as an even share of what
    is left. Each check is forced to have a violation with some
    probability, run_lengths may be empty, and no pair may repeat; with
    violate_all, every check has a violation. The full counts map every
    tried (boy, girl) pair to its count, at least one pair in all (as a run
    with t >= 1 has); stats.pair_counts is their restriction to the
    repeated pairs."""
    n = draw(st.integers(1, 12))
    delta = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    cap, checks = _audit_bounds(n, delta)

    def values(bounds, size, exact=False):
        # Counts are integers; with exact, the float bounds themselves are
        # drawn too.
        near = [x for b in bounds for x in _around(b)] + (bounds if exact else [])
        return draw(
            st.lists(
                st.sampled_from(near) | st.integers(0, math.ceil(max(bounds)) + 2),
                min_size=size,
                max_size=size,
            )
        )

    def force(xs, value):
        # Put one value past a bound at a drawn position.
        if xs and (violate_all or draw(st.booleans())):
            xs[draw(st.integers(0, len(xs) - 1))] = value

    window = checks["girl_proposal_window"]
    per_girl = values([window.lower, window.upper], n)
    force(per_girl, math.floor(window.upper) + 1)
    force(per_girl, math.ceil(window.lower) - 1)
    floor = checks["girl_fresh_floor"].lower
    fresh = values([floor], n)
    force(fresh, math.ceil(floor) - 1)

    pair_hi = checks["pair_repeat_proposals"].upper
    pairs = [
        dict.fromkeys(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)), 1)
        for _ in range(n)
    ]
    if not any(pairs):
        pairs[0][0] = 1
    if violate_all or draw(st.booleans()):
        fresh = [min(f, c) for f, c in zip(fresh, per_girl)]
        if violate_all or draw(st.booleans()):
            # One pair past its bound, with the girl who has the most
            # proposals (pushed past her window if she has too few).
            need = math.floor(pair_hi)
            j = per_girl.index(max(per_girl))
            if per_girl[j] < need:
                per_girl[j] = math.floor(window.upper) + 1
            fresh[j] = min(fresh[j], per_girl[j] - need)
            pairs[draw(st.integers(0, n - 1))][j] = need + 1
        for j in range(n):
            extra = per_girl[j] - fresh[j] - sum(pc.get(j, 1) - 1 for pc in pairs)
            while extra:
                repeats = min(max(values([pair_hi], 1)[0], 2), extra + 1) - 1
                pc = pairs[draw(st.integers(0, n - 1))]
                pc[j] = pc.get(j, 1) + repeats
                extra -= repeats
    else:
        # No pair repeats: every proposal is fresh.
        per_girl = list(fresh)
    pairs = {(b, j): c for b, pc in enumerate(pairs) for j, c in pc.items()}

    starts_hi = checks["boy_run_starts"].upper
    runs = values([starts_hi], n)
    force(runs, math.floor(starts_hi) + 1)
    boy_total = checks["boy_total_proposals"].upper
    per_boy = values([boy_total], n)
    force(per_boy, math.floor(boy_total) + 1)
    run_hi = checks["run_total_length"].upper
    long_run = violate_all or draw(st.booleans())
    long_boy = per_boy.index(max(per_boy))
    if long_run:
        # The first run of the boy with the most proposals is past the
        # run bound (boy_total >= run_hi, so a forced boy total is enough).
        per_boy[long_boy] = max(per_boy[long_boy], math.floor(run_hi) + 1)
    if not (violate_all or draw(st.integers(0, 4))):
        # No run recorded.
        runs = per_boy = [0] * n
    # A boy who made proposals began a run.
    runs = [max(r, 1) if total else r for r, total in zip(runs, per_boy)]
    lengths = []
    for b in range(n):
        left = per_boy[b]
        for i in range(runs[b]):
            if i == runs[b] - 1:
                total = left
            elif long_run and b == long_boy and i == 0:
                total = math.floor(run_hi) + 1
            else:
                # At least an even share of what is left, so that the last
                # run is no longer than needed.
                share = -(-left // (runs[b] - i))
                total = min(left, max(share, values([run_hi], 1)[0]))
            lengths.append((b, total))
            left -= total
    fresh_lengths = values([run_hi], len(lengths), exact=True)
    if lengths and (violate_all or draw(st.booleans())):
        fresh_lengths[-1] = math.floor(run_hi) + 1
    order = draw(st.permutations(range(len(lengths))))

    stats = RunStats(
        n=n,
        girl=0,
        t=cap,
        nonredundant_per_girl=fresh,
        run_lengths=[(*lengths[i], fresh_lengths[i]) for i in order],
        pair_counts=repeated_pairs(pairs),
    )
    return stats, n, delta, pairs, (per_girl, per_boy, runs)


def assert_audit_equals_reference(stats, n, delta, full_pairs, totals):
    """The record's logs give `totals`, and its audit equals the reference
    audit of the same record with the full pair counts `full_pairs` and
    those totals."""
    assert entity_totals(stats) == totals
    report = audit_window_stats(stats, delta)
    expected = reference_audit(
        dataclasses.replace(stats, pair_counts=full_pairs), n, delta, totals
    )
    # Equal reports: every violation in order, and each float worst.
    assert report == expected
    assert report.to_dict() == expected.to_dict()
    return report


class TestAuditEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        delta=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**64 - 1),
    )
    # A girl with one proposal on the window's lower bound of 1 while
    # another girl is outside it, and boy 2's pairs with girls 4 and 3
    # past their bound, repeated in that order.
    @example(n=6, delta=0.3, seed=10)
    def test_capped_runs(self, n, delta, seed):
        cap = math.floor(n ** (1 + delta))
        _, stats = run(n, seed % n, seed, stop=cap)
        # The replay counts every pair in full.
        state = reference_state(n, seed % n)
        reference_run(state, Rng(seed), "cap", cap)
        full = full_pair_counts(state)
        assert repeated_pairs(full) == stats.pair_counts
        assert_audit_equals_reference(stats, n, delta, full, step_totals(state))

    @settings(max_examples=200, deadline=None)
    @given(synthetic_audit_stats())
    def test_synthetic_counts_on_the_bounds(self, case):
        assert_audit_equals_reference(*case)

    @settings(max_examples=30, deadline=None)
    @given(synthetic_audit_stats(violate_all=True))
    def test_every_check_violated(self, case):
        report = assert_audit_equals_reference(*case)
        assert not any(c.passed for c in report.checks)

    # The full counts of the pairs tried, each proposed to once: spread
    # over two boys, or one pair for each boy.
    @pytest.mark.parametrize(
        "pair_counts",
        [{(0, 0): 1, (0, 1): 1, (1, 2): 1}, {(0, 2): 1, (1, 0): 1, (2, 1): 1}],
    )
    def test_empty_runs_and_pairs(self, pair_counts):
        # No run recorded and no pair repeated: the record's pair map is
        # empty, every pair tried was proposed to once, and no boy has a run.
        n, delta = 3, 0.3
        full = pair_counts
        stats = RunStats(
            n=n,
            girl=0,
            t=math.floor(n ** (1 + delta)),
            nonredundant_per_girl=[1, 1, 1],
            run_lengths=[],
            pair_counts=repeated_pairs(full),
        )
        assert stats.pair_counts == {}
        totals = ([1, 1, 1], [0] * n, [0] * n)
        report = assert_audit_equals_reference(stats, n, delta, full, totals)
        worst = {c.name: c.worst for c in report.checks}
        assert worst["run_fresh_length"] == 0.0
        assert worst["run_total_length"] == 0.0
        assert worst["pair_repeat_proposals"] == 1.0
