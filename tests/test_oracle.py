from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stablematch.instance import PreferenceInstance, fixture_4x4
from stablematch.matching import find_blocking_pairs
from stablematch.oracle import OracleScaleError, enumerate_stable

from oracles import (
    HUSBAND_LAW_N3,
    coupon_cdf,
    exact_husband_law,
    husband_set,
    worst_husband,
)

A, B, C, D = range(4)
W, X, Y, Z = range(4)


@st.composite
def instances(draw, max_n: int = 6):
    n = draw(st.integers(1, max_n))
    girl = [draw(st.permutations(range(n))) for _ in range(n)]
    boy = [draw(st.permutations(range(n))) for _ in range(n)]
    return PreferenceInstance.from_prefs(girl, boy)


class TestFixture:
    def test_exactly_two_stable_matchings(self):
        stable = enumerate_stable(fixture_4x4())
        found = {m.husband_of for m in stable.matchings}
        assert found == {(Z, W, X, Y), (Y, W, X, Z)}

    def test_husband_sets(self):
        stable = enumerate_stable(fixture_4x4())
        assert husband_set(stable, A) == {Y, Z}
        assert husband_set(stable, B) == {W}
        assert husband_set(stable, C) == {X}  # Cindy marries Xavier in both
        assert husband_set(stable, D) == {Y, Z}

    def test_worst_husband(self):
        stable = enumerate_stable(fixture_4x4())
        assert worst_husband(stable, fixture_4x4(), A) == Z  # she prefers Y


def test_n1_single_matching():
    inst = PreferenceInstance.from_prefs([[0]], [[0]])
    stable = enumerate_stable(inst)
    assert len(stable.matchings) == 1
    assert husband_set(stable, 0) == {0}


def test_n2_contested_boy():
    # Both girls want boy 0 and both boys want girl 0. Of the two complete
    # matchings, swapping gives girl 0 boy 1, and (girl 0, boy 0) blocks it;
    # only the aligned matching is stable.
    inst = PreferenceInstance.from_prefs([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    stable = enumerate_stable(inst)
    assert [m.husband_of for m in stable.matchings] == [(0, 1)]


def test_scale_cap():
    inst = PreferenceInstance.from_prefs(
        [[(i + j) % 9 for j in range(9)] for i in range(9)],
        [[(i + j) % 9 for j in range(9)] for i in range(9)],
    )
    with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
        enumerate_stable(inst)


def test_husband_set_range_check():
    stable = enumerate_stable(fixture_4x4())
    with pytest.raises(ValueError):
        husband_set(stable, 4)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_all_results_stable_distinct_and_nonempty(inst):
    stable = enumerate_stable(inst)
    assert len(stable.matchings) >= 1  # a stable matching always exists
    seen = set()
    for m in stable.matchings:
        assert m.complete
        assert find_blocking_pairs(inst, m) == []
        assert m.husband_of not in seen
        seen.add(m.husband_of)
    for g in range(inst.n):
        assert stable.husband_sets[g] == {m.husband_of[g] for m in stable.matchings}


def test_exact_husband_law_n3():
    # Relabelling the boys maps every instance to one where girl 0 ranks
    # them 0, 1, 2 and keeps her husband count, and it maps the same number
    # of instances onto each of those. So the 6**5 instances with her row
    # fixed give the law over all 6**6 exactly.
    rows = list(itertools.permutations(range(3)))
    counts: Counter = Counter()
    for girls in itertools.product(rows, repeat=2):
        for boys in itertools.product(rows, repeat=3):
            inst = PreferenceInstance.from_prefs([(0, 1, 2), *girls], boys)
            counts[len(enumerate_stable(inst).husband_sets[0])] += 1
    total = sum(counts.values())
    assert total == 6**5
    assert {k: Fraction(v, total) for k, v in counts.items()} == HUSBAND_LAW_N3


@pytest.mark.parametrize("n,states", [(1, 2), (2, 21), (3, 1462)])
def test_forward_pass_gives_the_exact_law(n, states):
    # Below n = 3 every instance is enumerated; at n = 3 the law is
    # HUSBAND_LAW_N3, which the test above recomputes. The pass's state
    # count is pinned too: a change to the chain's definition moves it.
    if n == 3:
        expected = HUSBAND_LAW_N3
    else:
        rows = list(itertools.permutations(range(n)))
        tables = list(itertools.product(rows, repeat=n))
        counts = Counter(
            len(enumerate_stable(PreferenceInstance.from_prefs(g, b)).husband_sets[0])
            for g in tables
            for b in tables
        )
        expected = {k: Fraction(v, len(tables) ** 2) for k, v in counts.items()}
    assert exact_husband_law(n) == (expected, states)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_coupon_cdf_is_inclusion_exclusion(n):
    # At small n the inclusion-exclusion sum is exact in fractions.
    cdf = coupon_cdf(n, 60)
    for t, value in enumerate(cdf):
        exact = sum(
            (-1) ** k * math.comb(n, k) * Fraction(n - k, n) ** t
            for k in range(n + 1)
        )
        assert value == pytest.approx(float(exact), abs=1e-14)
