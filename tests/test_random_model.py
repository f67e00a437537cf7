from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stablematch import random_model
from stablematch.random_model import (
    RunStats,
    audit_window_stats,
    new_state,
    run,
    step,
)
from stablematch.rng import Rng

from oracles import reference_run, reference_step, seed_with_top_draw, tv_distance

GOLDEN = 0x9E3779B97F4A7C15


def mark_tried(state, boy, girls):
    """Record that `boy` has already proposed to each of `girls`."""
    for j in girls:
        state.proposed[boy][j] = 1
    state.ntried[boy] = len(girls)


def run_via_steps(n, girl, seed, steps, amnesia=True):
    state = new_state(n, girl)
    rng = Rng(seed)
    events = [reference_step(state, rng, amnesia=amnesia) for _ in range(steps)]
    return state, events


class TestForcedPaths:
    def test_n1_natural(self):
        outputs, stats = run(1, 0, seed=4242)
        assert outputs == [(0, 1)]
        assert stats.stopped == "natural"
        assert stats.t == 1
        assert stats.first_output_time == 1
        assert stats.acceptances_by_girl == 1
        assert stats.pre_output_acceptances == 0

    def test_first_fresh_proposal_always_accepted(self):
        for seed in range(50):
            state = new_state(5, 0)
            event = step(state, Rng(seed))
            assert event.accepted and not event.redundant


class TestTransitionProbabilities:
    def _frozen_state(self):
        # Proposer 0 has already tried girl 2; girls hold 1, 2, 1 fresh
        # offers. One proposal from here lands as:
        #   girl 0 fresh   accept 1/6   reject 1/6
        #   girl 1 fresh   accept 1/9   reject 2/9
        #   girl 2 redundant             reject 1/3
        state = new_state(3, 0)
        mark_tried(state, 0, [2])
        state.offers = [1, 2, 1]
        state.best_offer = [1, 2, 0]
        state.introduced = 3
        return state

    def test_frequencies_match_three_sigma(self):
        base = self._frozen_state()
        rng = Rng(31415)
        trials = 36_000
        counts = Counter()
        for _ in range(trials):
            event = step(base.clone(), rng)
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
            state = new_state(4, 0)
            state.offers = [3, 3, 3, 3]
            state.best_offer = [1, 1, 1, 1]
            state.introduced = 4
            if step(state, rng).accepted:
                accepted += 1
        p = 0.25
        sigma = (trials * p * (1 - p)) ** 0.5
        assert abs(accepted - trials * p) <= 3 * sigma

    def test_redundant_proposals_always_rejected_and_skip_offer_counts(self):
        state = new_state(2, 0)
        mark_tried(state, 0, [0, 1])  # everything redundant from here
        rng = Rng(5)
        offers_before = list(state.offers)
        for _ in range(100):
            event = step(state, rng)
            assert event.redundant and not event.accepted
        assert state.offers == offers_before
        assert state.stats.redundant_proposals == 100


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6), st.integers(0, 2**32), st.integers(1, 120), st.booleans()
)
def test_conservation_after_every_step(n, seed, steps, amnesia):
    # Each step also equals the scalar reference step, event, state and
    # stream alike.
    state, twin = new_state(n, 0), new_state(n, 0)
    rng, twin_rng = Rng(seed), Rng(seed)
    for _ in range(steps):
        if not amnesia and state.ntried[state.proposer] == n:
            break
        event = step(state, rng, amnesia=amnesia)
        assert event == reference_step(twin, twin_rng, amnesia=amnesia)
        assert state == twin and rng._state == twin_rng._state
        assert sum(state.stats.proposals_per_girl) == state.stats.t
        assert sum(state.stats.proposals_per_boy) == state.stats.t
        assert sum(state.ntried) == sum(state.stats.nonredundant_per_girl)
        assert state.ntried == [sum(row) for row in state.proposed]


def assert_run_matches_steps(outputs, fast, state):
    """The fast loop's result agrees field by field with a reference step
    replay."""
    slow = state.stats
    assert fast.t == slow.t
    assert fast.proposals_per_girl == slow.proposals_per_girl
    assert fast.nonredundant_per_girl == slow.nonredundant_per_girl
    assert fast.proposals_per_boy == slow.proposals_per_boy
    assert fast.runs_per_boy == slow.runs_per_boy
    assert fast.redundant_proposals == slow.redundant_proposals
    assert fast.outputs == slow.outputs == outputs
    assert fast.first_output_time == slow.first_output_time
    assert fast.acceptances_by_girl == slow.acceptances_by_girl
    assert fast.pre_output_acceptances == slow.pre_output_acceptances
    assert fast.pair_counts == slow.pair_counts
    # The fast loop flushes the run in progress at the stop.
    tail = (
        [(state.proposer, state.run_length, state.run_fresh)]
        if state.run_length > 0
        else []
    )
    if slow.run_lengths is None:
        assert fast.run_lengths is None
    else:
        assert fast.run_lengths == slow.run_lengths + tail
    # Girls' fresh-offer counts recoverable from either side.
    assert state.offers == fast.nonredundant_per_girl


class TestRunStepAgreement:
    @pytest.mark.parametrize(
        "n,cap,seed",
        [(8, 3000, 101), (50, 30, 202), (3, 400, 303), (1, 5, 404)],
    )
    def test_fast_loop_matches_instrumented_steps(self, n, cap, seed):
        outputs, fast = run(n, 0, seed, stop="cap", max_proposals=cap)
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
    # One draw per proposal plus one per fresh proposal: the block reads
    # hand back every draw they did not use.
    streams = _keep_streams(monkeypatch)
    _, stats = run(n, 0, seed, stop=stop, max_proposals=cap)
    fresh = stats.t - stats.redundant_proposals
    assert len(streams) == 1
    assert streams[0]._state == (seed + (stats.t + fresh) * GOLDEN) % 2**64


class TestForcedRejection:
    """At n = 3, randrange rejects exactly one value, 2**64 - 1, so these
    seeds force the rejection branch: on the first draw, inside the first
    block (24 draws at n = 3), on its last draw, whose redraw comes from
    the second block (draws 24 to 71), and on the first and the last draw
    of the second block."""

    @pytest.mark.parametrize(
        "j,stop,cap,amnesia",
        [
            (0, "natural", None, True),
            (0, "natural", None, False),
            (8, "natural", None, True),
            (23, "cap", 60, True),
            (24, "cap", 60, True),
            (71, "cap", 90, True),
        ],
    )
    def test_run_equals_step_replay(self, monkeypatch, j, stop, cap, amnesia):
        n = 3
        seed = seed_with_top_draw(j)
        probe = Rng(seed)
        assert [probe.next_u64() for _ in range(j + 1)][-1] == 2**64 - 1
        streams = _keep_streams(monkeypatch)
        outputs, fast = run(
            n, 0, seed, stop=stop, max_proposals=cap, amnesia=amnesia
        )

        state = new_state(n, 0)
        rng = Rng(seed)
        assert reference_run(state, rng, stop, cap, amnesia) == fast.stopped
        assert_run_matches_steps(outputs, fast, state)
        assert streams[0]._state == rng._state
        if amnesia:
            # The rejected draw is one more than proposals plus fresh ones.
            fresh = fast.t - fast.redundant_proposals
            assert rng._state == (seed + (fast.t + fresh + 1) * GOLDEN) % 2**64


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    stop=st.sampled_from(["natural", "cap", "first_output"]),
    cap_rule=st.sampled_from(["none", "fixed", "at_exhaustion"]),
    fixed_cap=st.integers(1, 300),
    shift=st.integers(-1, 1),
    amnesia=st.booleans(),
    track_pairs=st.booleans(),
    track_runs=st.booleans(),
)
def test_run_equals_reference_replay(
    n, seed, stop, cap_rule, fixed_cap, shift, amnesia, track_pairs, track_runs
):
    # "at_exhaustion" puts the cap one proposal before, at or after the
    # first time the proposer has tried every girl, where the stop rules
    # meet and their order decides which one fires.
    girl = seed % n
    if cap_rule == "at_exhaustion":
        probe = new_state(n, girl, track_pairs=False, track_runs=False)
        reference_run(probe, Rng(seed), "natural", amnesia=amnesia)
        cap = max(1, probe.stats.t + shift)
    elif cap_rule == "fixed" or stop == "cap":
        cap = fixed_cap
    else:
        cap = None
    state = new_state(n, girl, track_pairs=track_pairs, track_runs=track_runs)
    rng = Rng(seed)
    args = dict(
        stop=stop, max_proposals=cap, amnesia=amnesia,
        track_pairs=track_pairs, track_runs=track_runs,
    )
    try:
        stopped = reference_run(state, rng, stop, cap, amnesia)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="safety limit"):
            run(n, girl, seed, **args)
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        streams = _keep_streams(monkeypatch)
        outputs, fast = run(n, girl, seed, **args)
    assert fast.stopped == stopped
    assert_run_matches_steps(outputs, fast, state)
    assert streams[0]._state == rng._state


class TestStopRules:
    def test_cap_exact(self):
        _, stats = run(6, 0, 9, stop="cap", max_proposals=57)
        assert stats.t == 57 and stats.stopped == "cap"

    def test_first_output_stops_when_every_girl_covered(self):
        outputs, stats = run(30, 0, 77, stop="first_output")
        assert len(outputs) == 1
        assert stats.stopped == "first_output"
        assert stats.first_output_time == stats.t
        assert min(stats.proposals_per_girl) >= 1

    def test_natural_runs_until_some_boy_exhausts(self):
        outputs, stats = run(5, 0, 123, stop="natural")
        assert stats.stopped == "natural"
        assert len(outputs) >= 1
        assert any(c == 5 for c in map(len, _proposed_sets(stats)))

    def test_safety_limit_raises(self):
        with pytest.raises(RuntimeError):
            run(5, 0, 1, stop="natural", max_proposals=3)

    def test_cap_requires_max_proposals(self):
        with pytest.raises(ValueError):
            run(3, 0, 1, stop="cap")

    def test_unknown_stop_rule(self):
        with pytest.raises(ValueError):
            run(3, 0, 1, stop="whenever")

    def test_new_state_validation(self):
        with pytest.raises(ValueError):
            new_state(0, 0)
        with pytest.raises(ValueError):
            new_state(3, 3)

    def test_memory_mode_exhausted_proposer_rejected(self):
        state = new_state(2, 0)
        mark_tried(state, 0, [0, 1])
        with pytest.raises(ValueError):
            step(state, Rng(1), amnesia=False)


def _proposed_sets(stats: RunStats) -> list[set[int]]:
    assert stats.pair_counts is not None
    return [set(pc) for pc in stats.pair_counts]


def test_first_output_lands_inside_collector_window():
    # A cap of floor(n*ln(n)*lnln(n)) proposals is far beyond the typical
    # collector time n*H_n, so the first output should appear well inside.
    import math

    n = 1000
    cap = math.floor(n * math.log(n) * math.log(math.log(n)))
    assert cap == 13_350
    for seed in (1, 2, 3):
        outputs, stats = run(
            n, 0, seed, stop="cap", max_proposals=cap,
            track_pairs=False, track_runs=False,
        )
        assert stats.first_output_time is not None
        assert stats.first_output_time <= cap
        assert outputs[0][1] == stats.first_output_time


def test_outputs_distinct_and_acceptance_identity():
    for seed in range(200):
        outputs, stats = run(5, 0, seed, stop="natural")
        boys = [b for b, _ in outputs]
        assert len(set(boys)) == len(boys)
        assert stats.acceptances_by_girl == len(outputs) + stats.pre_output_acceptances
        assert sum(stats.proposals_per_girl) == stats.t


def test_identity_holds_without_any_output():
    # A cap short enough that the first output may not have happened.
    for seed in range(50):
        outputs, stats = run(40, 0, seed, stop="cap", max_proposals=25)
        assert stats.acceptances_by_girl == len(outputs) + stats.pre_output_acceptances


def test_memoryful_variant_same_output_distribution():
    # Proposing uniformly over untried girls only must give the same
    # output-count distribution as uniform proposing with redundant repeats.
    trials = 20_000
    amnesia = Counter()
    memory = Counter()
    for i in range(trials):
        outs_a, _ = run(3, 0, 600_000 + i, stop="natural", amnesia=True)
        amnesia[len(outs_a)] += 1
        outs_m, _ = run(3, 0, 700_000 + i, stop="natural", amnesia=False)
        memory[len(outs_m)] += 1
    assert tv_distance(amnesia, memory, trials, trials) <= 0.05


class TestAudit:
    def test_degenerate_n1_passes_vacuously(self):
        _, stats = run(1, 0, 8, stop="cap", max_proposals=1)
        report = audit_window_stats(stats, 1, 0.3)
        assert report.passed
        assert len(report.checks) == 7

    def test_small_run_report_structure(self):
        n, delta = 64, 0.3
        cap = int(n ** (1 + delta))
        _, stats = run(n, 0, 99, stop="cap", max_proposals=cap)
        report = audit_window_stats(stats, n, delta)
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
        n, delta = 4, 0.3
        stats = RunStats(n=n, girl=0)
        stats.t = 6  # floor(4 ** 1.3)
        stats.proposals_per_girl = [2, 2, 1, 1]
        stats.nonredundant_per_girl = [2, 2, 1, 1]
        stats.proposals_per_boy = [2, 1, 3, 0]
        stats.runs_per_boy = [1, 1, 1, 0]
        stats.run_lengths = [(0, 2, 2), (1, 2, 2), (2, 2, 2)]
        stats.pair_counts = [{0: 1, 1: 1}, {2: 1}, {1: 3}, {}]
        report = audit_window_stats(stats, n, delta)
        assert not report.passed
        failing = [c for c in report.checks if not c.passed]
        assert [c.name for c in failing] == ["pair_repeat_proposals"]
        assert failing[0].violations == ({"boy": 2, "girl": 1, "count": 3},)

    def test_cap_mismatch_reported(self):
        _, stats = run(4, 0, 7, stop="cap", max_proposals=5)
        with pytest.raises(ValueError, match="cap mismatch"):
            audit_window_stats(stats, 4, 0.3)

    def test_requires_tracking(self):
        cap = int(4**1.3)
        _, stats = run(4, 0, 7, stop="cap", max_proposals=cap, track_pairs=False)
        with pytest.raises(ValueError, match="tracking"):
            audit_window_stats(stats, 4, 0.3)

    def test_wrong_n_rejected(self):
        _, stats = run(4, 0, 7, stop="cap", max_proposals=int(4**1.3))
        with pytest.raises(ValueError):
            audit_window_stats(stats, 5, 0.3)
