from __future__ import annotations

from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from stablematch import rng as rng_mod
from stablematch.rng import Rng, derive_seed, derive_seeds, index_limit, mix64

from oracles import reference_shuffle, seed_with_draw

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
    assert list(islice(Rng(0).draws(5), 5)) == REFERENCE_SEED0


def test_same_seed_same_stream():
    a, b = Rng(987654321), Rng(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(42, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert derive_seed(42, 3, 7) != derive_seed(42, 7, 3)


@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**64 - 1), max_size=3),
    st.integers(0, 2**20),
    st.integers(0, 20),
)
def test_derive_seeds_complete_the_path(master, path, start, size):
    prefix = derive_seed(master, *path)
    assert list(derive_seeds(prefix, start, start + size)) == [
        derive_seed(master, *path, i) for i in range(start, start + size)
    ]


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


@pytest.mark.parametrize("m", [1, 2, 3, 5, 1000, 1024, 2**32 + 1, 2**63 + 1])
def test_index_limit_is_the_randrange_rule(m):
    # A first draw of index_limit(m) - 1 is kept as randrange(m)'s index;
    # one of index_limit(m), where that is below 2**64, is redrawn, so the
    # call returns what the stream's next draw gives it.
    limit = index_limit(m)
    seed = seed_with_draw(0, limit - 1)
    rng, next_draw = Rng(seed), Rng(seed)
    next_draw.skip(1)
    assert rng.randrange(m) == (limit - 1) % m
    assert rng._state == next_draw._state
    if limit < 2**64:
        seed = seed_with_draw(0, limit)
        rng, next_draw = Rng(seed), Rng(seed)
        next_draw.skip(1)
        assert rng.randrange(m) == next_draw.randrange(m)
        assert rng._state == next_draw._state


@given(st.lists(st.integers(), max_size=40), st.integers(0, 2**64 - 1))
def test_shuffle_preserves_multiset(items, seed):
    shuffled = list(items)
    reference_shuffle(shuffled, Rng(seed))
    assert sorted(shuffled) == sorted(items)


@given(st.integers(1, 1000), st.integers(0, 2**64 - 1))
def test_randrange_in_bounds(n, seed):
    rng = Rng(seed)
    assert all(0 <= rng.randrange(n) < n for _ in range(20))


def _through_a_full_block(first: int) -> int:
    """How many draws `Rng.draws(first)` yields up to the end of its first
    2048-draw block, blocks of first (at least 1) doubling up to 2048."""
    total, k = 0, max(first, 1)
    while k < 2048:
        total += k
        k = min(2 * k, 2048)
    return total + k


def _assert_draws_equal_scalar(rng: Rng, first: int, count: int) -> list[int]:
    """The first `count` of `rng.draws(first)` are the next `count` calls of
    `next_u64`, and reading them leaves `rng` where it was; returns them."""
    state = rng._state
    scalar = Rng(state)
    drawn = list(islice(rng.draws(first), count))
    assert drawn == [scalar.next_u64() for _ in range(count)]
    assert rng._state == state
    return drawn


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 320), st.integers(0, 2**64 - 1), st.data())
def test_block_equals_scalar_draws(first, seed, data):
    # Past the doubling, through the first whole 2048-draw block and one
    # draw into the next; then skip(j) leaves draw j next.
    count = _through_a_full_block(first) + 1
    rng = Rng(seed)
    drawn = _assert_draws_equal_scalar(rng, first, count)
    j = data.draw(st.integers(0, count - 1), label="j")
    rng.skip(j)
    assert rng.next_u64() == drawn[j]


@pytest.mark.parametrize("k", [0, 1, 8, 2048, 2049, 5000])
def test_block_at_run_sizes(monkeypatch, k):
    # The chain's first block holds 8·n draws; `draws` clamps a first block
    # to 1..2048 and caps the blocks after it at 2048. From the top seed the
    # first draw's counter wraps around to 0.
    sizes = []
    lanes = rng_mod._lanes
    monkeypatch.setattr(rng_mod, "_lanes", lambda k: sizes.append(k) or lanes(k))
    first = min(max(k, 1), 2048)
    rng = Rng(2**64 - 1)
    _assert_draws_equal_scalar(rng, k, first + min(2 * first, 2048) + 1)
    assert sizes == [first, min(2 * first, 2048), min(4 * first, 2048)]


def test_skip_round_trip():
    rng = Rng(99)
    first = list(islice(rng.draws(40), 40))
    assert rng.next_u64() == first[0]
    rng.skip(24)
    assert [rng.next_u64() for _ in range(15)] == first[25:]
    # The stream's period is 2**64 draws, so skipping all but 40 of them
    # comes back to the start.
    rng.skip(2**64 - 40)
    assert list(islice(rng.draws(40), 40)) == first
