from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stablematch.rng import Rng, derive_seed, mix64

from oracles import reference_shuffle

# First five outputs of the reference SplitMix64 implementation for seed 0,
# as published with the original C code.
REFERENCE_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_matches_reference_stream():
    rng = Rng(0)
    assert [rng.next_u64() for _ in range(5)] == REFERENCE_SEED0
    assert list(Rng(0).block(5)) == REFERENCE_SEED0


def test_same_seed_same_stream():
    a, b = Rng(987654321), Rng(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(42, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert derive_seed(42, 3, 7) != derive_seed(42, 7, 3)


def test_mix64_nonzero_on_zero():
    assert mix64(0) != 0


def test_random_unit_interval():
    rng = Rng(11)
    xs = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(1).randrange(0)


def test_randrange_uniformity_chi_square():
    # 60000 draws over 6 cells; 0.999 quantile of chi-square with 5 degrees
    # of freedom is 20.515.
    rng = Rng(2024)
    counts = Counter(rng.randrange(6) for _ in range(60_000))
    expected = 10_000.0
    chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(6))
    assert chi2 < 20.515, f"chi-square {chi2}"


@given(st.lists(st.integers(), max_size=40), st.integers(0, 2**64 - 1))
def test_shuffle_preserves_multiset(items, seed):
    shuffled = list(items)
    reference_shuffle(shuffled, Rng(seed))
    assert sorted(shuffled) == sorted(items)


@given(st.integers(1, 1000), st.integers(0, 2**64 - 1))
def test_randrange_in_bounds(n, seed):
    rng = Rng(seed)
    assert all(0 <= rng.randrange(n) < n for _ in range(20))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 320), st.integers(0, 2**64 - 1))
def test_block_equals_scalar_draws(k, seed):
    a, b = Rng(seed), Rng(seed)
    assert list(a.block(k)) == [b.next_u64() for _ in range(k)]
    assert a._state == b._state


@pytest.mark.parametrize("k", [0, 1, 8, 2048, 2049])
def test_block_at_run_sizes(k):
    # The chain reads blocks of 8 doubling to 2048; its first buffer is empty.
    a, b = Rng(2**64 - 1), Rng(2**64 - 1)
    assert list(a.block(k)) == [b.next_u64() for _ in range(k)]
    assert a._state == b._state


def test_unread_round_trip():
    rng = Rng(99)
    first = list(rng.block(40))
    rng.unread(15)
    assert [rng.next_u64() for _ in range(15)] == first[25:]
    rng.unread(40)
    assert list(rng.block(40)) == first
