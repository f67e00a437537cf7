from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from stablematch.instance import PreferenceInstance, fixture_4x4, generate_uniform
from stablematch.matching import (
    BlockingPair,
    Matching,
    find_blocking_pairs,
    gale_shapley_boys_propose,
    stable_husbands,
)
from stablematch.oracle import enumerate_stable
from stablematch.rng import derive_seed

from oracles import (
    boy_optimal_matching,
    deferred_acceptance,
    husband_set,
    matching_from_pairs,
    rotation_chain_husbands,
    serial_dictatorship,
    worst_husband,
)

# Letter mapping for the 4x4 example: girls ABCD = 0..3, boys WXYZ = 0..3.
A, B, C, D = range(4)
W, X, Y, Z = range(4)


@st.composite
def instances(draw, min_n: int = 1, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    girl = [draw(st.permutations(range(n))) for _ in range(n)]
    boy = [draw(st.permutations(range(n))) for _ in range(n)]
    return PreferenceInstance.from_prefs(girl, boy)


class TestMatchingType:
    def test_from_pairs_and_views(self):
        m = matching_from_pairs(3, [(0, 2), (2, 1)])
        assert m.husband_of == (2, None, 1)
        assert m.wife_of == (None, 2, 0)
        assert not m.complete

    def test_duplicate_boy_rejected(self):
        with pytest.raises(ValueError, match="married to two girls"):
            Matching([1, 1, None])

    @pytest.mark.parametrize(
        "rows", [(0, 2), (0, -1), (None, 5)], ids=["n", "negative", "past-n"]
    )
    def test_out_of_range_boy_rejected(self, rows):
        with pytest.raises(ValueError, match="out of range"):
            Matching(rows)

    def test_only_husbands_are_stored(self):
        init = [f.name for f in dataclasses.fields(Matching) if f.init]
        assert init == ["husband_of"]
        m = Matching([2, None, 1])
        assert m.husband_of == (2, None, 1)
        assert m == Matching((2, None, 1))
        assert hash(m) == hash(Matching((2, None, 1)))
        assert repr(m) == "Matching(husband_of=(2, None, 1))"

    def test_duplicate_girl_rejected(self):
        with pytest.raises(ValueError):
            matching_from_pairs(2, [(0, 0), (0, 1)])


class TestBlockingPairs:
    def test_unstable_example(self):
        # (AW, BX, CY, DZ) is unstable: A and Z prefer each other.
        m = Matching([W, X, Y, Z])
        pairs = find_blocking_pairs(fixture_4x4(), m)
        assert pairs
        assert BlockingPair(girl=A, boy=Z) in pairs

    def test_stable_example(self):
        m = Matching([Z, W, X, Y])  # (AZ, BW, CX, DY)
        assert find_blocking_pairs(fixture_4x4(), m) == []

    def test_second_stable_example(self):
        m = Matching([Y, W, X, Z])  # (AY, BW, CX, DZ)
        assert find_blocking_pairs(fixture_4x4(), m) == []

    def test_lexicographic_order_and_unmatched_semantics(self):
        # In the empty matching everyone is unmatched, so every pair blocks.
        empty = Matching([None] * 4)
        pairs = find_blocking_pairs(fixture_4x4(), empty)
        assert pairs == [BlockingPair(g, b) for g in range(4) for b in range(4)]

    def test_partial_matching(self):
        inst = fixture_4x4()
        m = matching_from_pairs(4, [(A, W)])
        pairs = find_blocking_pairs(inst, m)
        # A prefers Y, X, Z to W and all three are unmatched.
        for b in (X, Y, Z):
            assert BlockingPair(A, b) in pairs

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            find_blocking_pairs(fixture_4x4(), Matching([0, 1]))


class TestGaleShapley:
    def test_fixture_boy_optimal(self):
        m = gale_shapley_boys_propose(fixture_4x4())
        assert m.husband_of == (Z, W, X, Y)

    def test_n1(self):
        inst = PreferenceInstance.from_prefs([[0]], [[0]])
        assert gale_shapley_boys_propose(inst).husband_of == (0,)

    @settings(max_examples=40, deadline=None)
    @given(instances(max_n=6), st.permutations(range(6)))
    def test_identical_boy_lists_give_serial_dictatorship(self, inst, order):
        n = inst.n
        common = [g for g in order if g < n]
        boys = [common] * n
        full = PreferenceInstance.from_prefs(inst.girl_prefs, boys)
        expected = serial_dictatorship(common, [list(r) for r in full.girl_prefs])
        result = gale_shapley_boys_propose(full)
        assert list(result.husband_of) == expected
        stable = enumerate_stable(full)
        assert result == boy_optimal_matching(stable, full)


class TestStableHusbandsFixture:
    def test_alice_outputs(self):
        enum = stable_husbands(fixture_4x4(), A)
        assert enum.husbands == [Z, Y]
        assert [m.husband_of for m in enum.matchings] == [
            (Z, W, X, Y),
            (Y, W, X, Z),
        ]

    def test_brigitte_single_husband(self):
        assert stable_husbands(fixture_4x4(), B).husbands == [W]

    def test_trace_reproduces_event_table(self):
        enum = stable_husbands(fixture_4x4(), A, keep_trace=True)
        rows = [
            (e.kind, e.boy, e.girl, e.accepted) for e in enum.trace  # type: ignore
        ]
        assert rows == [
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

    def test_no_trace_by_default(self):
        assert stable_husbands(fixture_4x4(), A).trace is None

    def test_girl_out_of_range(self):
        with pytest.raises(ValueError):
            stable_husbands(fixture_4x4(), 4)


def _fact_star_audit(inst, girl, enum, stable):
    """Replay the trace: once a girl turns a boy down, that pair appears in
    no stable matching still compatible with the outputs seen so far."""
    husband: dict[int, int] = {}
    emitted: set[int] = set()
    post = False
    rejections: list[tuple[int, int, frozenset[int]]] = []
    for event in enum.trace:
        if event.kind == "terminate":
            continue
        if event.kind == "output":
            emitted.add(event.boy)
            if not post:
                husband.pop(girl, None)
                post = True
            continue
        h, p = event.girl, event.boy
        if not event.accepted:
            rejections.append((h, p, frozenset(emitted)))
            continue
        if post and h == girl:
            continue
        previous = husband.get(h)
        if previous is not None:
            rejections.append((h, previous, frozenset(emitted)))
        husband[h] = p
    for h, r, seen in rejections:
        for m in stable.matchings:
            if m.husband_of[h] == r:
                assert m.husband_of[girl] in seen, (
                    f"girl {h} turned down boy {r} but the pair is in a stable "
                    f"matching compatible with outputs {sorted(seen)}"
                )


@settings(max_examples=60, deadline=None)
@given(instances())
def test_agreement_with_oracle(inst):
    n = inst.n
    stable = enumerate_stable(inst)
    gs = gale_shapley_boys_propose(inst)
    assert gs == boy_optimal_matching(stable, inst)
    for g in range(n):
        enum = stable_husbands(inst, g, keep_trace=True)
        # Exact husband-set agreement, no duplicates.
        assert len(set(enum.husbands)) == len(enum.husbands)
        assert set(enum.husbands) == set(husband_set(stable, g))
        # First output is her least preferred stable husband; the sequence
        # strictly improves for her.
        assert enum.husbands[0] == worst_husband(stable, inst, g)
        ranks = [inst.girl_rank[g][b] for b in enum.husbands]
        assert all(r2 < r1 for r1, r2 in zip(ranks, ranks[1:]))
        # Every emitted matching is stable, pairs her with the emitted boy,
        # and the first one is the boy-optimal matching.
        for b, m in zip(enum.husbands, enum.matchings):
            assert m.complete
            assert m.husband_of[g] == b
            assert find_blocking_pairs(inst, m) == []
        assert enum.matchings[0] == gs
        # The rotation-elimination oracle gives the same sequence, which
        # checks that oracle against brute force for the larger sizes below.
        assert enum.husbands == rotation_chain_husbands(
            inst.girl_prefs, inst.boy_prefs, g
        )
        # Each boy proposes to each girl at most once.
        assert enum.proposal_count <= n * n
        # Her acceptances, counted from the trace, are her husbands and the
        # offers she gave up before the first output.
        accepted = [
            e for e in enum.trace if e.kind == "propose" and e.girl == g and e.accepted
        ]
        assert enum.acceptances_by_girl == len(accepted)
        _fact_star_audit(inst, g, enum, stable)


@settings(max_examples=25, deadline=None)
@given(instances(min_n=2, max_n=6))
def test_each_output_is_boy_best_given_the_designated_pair(inst):
    # At the moment a husband is emitted, every boy holds his favorite wife
    # among the stable matchings that pair the designated girl with that
    # husband.
    stable = enumerate_stable(inst)
    for g in range(inst.n):
        enum = stable_husbands(inst, g)
        for b, emitted in zip(enum.husbands, enum.matchings):
            compatible = [m for m in stable.matchings if m.husband_of[g] == b]
            for boy in range(inst.n):
                wives = [m.wife_of[boy] for m in compatible]
                best = min(wives, key=lambda w: inst.boy_rank[boy][w])
                assert emitted.wife_of[boy] == best


def test_proposal_counts_on_random_instances():
    for seed in range(50):
        inst = generate_uniform(7, seed)
        enum = stable_husbands(inst, 0, keep_trace=True)
        proposals = [e for e in enum.trace if e.kind == "propose"]
        assert len(proposals) == enum.proposal_count <= 49


@pytest.mark.parametrize("n, instances_per_n", [(64, 20), (256, 6)])
def test_agreement_with_rotation_oracle_past_brute_force(n, instances_per_n):
    # Beyond the n <= 8 reach of enumerate_stable: the full husband sequence,
    # in order, for the first and last girl of each seeded instance.
    for i in range(instances_per_n):
        inst = generate_uniform(n, derive_seed(20260808, 205, n, i))
        for g in (0, n - 1):
            expected = rotation_chain_husbands(inst.girl_prefs, inst.boy_prefs, g)
            assert stable_husbands(inst, g).husbands == expected, (n, i, g)


@pytest.mark.parametrize("n, instances_per_n", [(64, 20), (256, 6)])
def test_exact_checks_past_brute_force(n, instances_per_n):
    # Checks that hold at any size: every emitted matching is perfect and
    # stable, the first is the boy-optimal matching, and the girl's last
    # husband is her partner in the girl-optimal matching, found by
    # girl-proposing deferred acceptance.
    for i in range(instances_per_n):
        inst = generate_uniform(n, derive_seed(20260808, 206, n, i))
        girl_optimal = deferred_acceptance(inst.girl_prefs, inst.boy_prefs)
        for g in (0, n // 2, n - 1):
            enum = stable_husbands(inst, g)
            assert enum.matchings[0] == gale_shapley_boys_propose(inst)
            assert enum.husbands[0] == enum.matchings[0].husband_of[g]
            assert enum.husbands[-1] == girl_optimal[g], (n, i, g)
            for m in enum.matchings:
                assert m.complete
                assert find_blocking_pairs(inst, m) == [], (n, i, g)
