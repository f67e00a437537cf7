from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stablematch import instance as instance_mod
from stablematch.instance import (
    InstanceLoadError,
    PreferenceInstance,
    fixture_4x4,
    from_dict,
    generate_uniform,
    load,
    save,
    validate,
)
from stablematch.matching import stable_husbands
from stablematch.rng import Rng

from oracles import reference_generate_uniform, seed_with_top_draw


@st.composite
def instances(draw, max_n: int = 7):
    n = draw(st.integers(1, max_n))
    girl = [draw(st.permutations(range(n))) for _ in range(n)]
    boy = [draw(st.permutations(range(n))) for _ in range(n)]
    return PreferenceInstance.from_prefs(girl, boy)


class TestFixture:
    def test_girl_rows(self):
        inst = fixture_4x4()
        assert inst.girl_prefs[0] == (2, 1, 3, 0)  # A likes Y > X > Z > W
        assert inst.girl_prefs[1] == (1, 0, 2, 3)
        assert inst.girl_prefs[2] == (0, 2, 1, 3)
        assert inst.girl_prefs[3] == (1, 0, 3, 2)

    def test_boy_rows(self):
        inst = fixture_4x4()
        assert inst.boy_prefs[0] == (0, 1, 3, 2)
        assert inst.boy_prefs[3] == (1, 0, 2, 3)  # Z likes B > A > C > D

    def test_rank_inverse_of_favorite(self):
        assert fixture_4x4().girl_rank[0][2] == 0

    def test_fixture_is_valid(self):
        assert validate(fixture_4x4()) == []


class TestStoredTables:
    def test_only_preference_tables_are_fields(self):
        names = [f.name for f in dataclasses.fields(PreferenceInstance)]
        assert names == ["girl_prefs", "boy_prefs"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_search_builds_only_the_girl_rank_table(self, seed):
        inst = generate_uniform(64, seed)
        assert "girl_rank" not in vars(inst) and "boy_rank" not in vars(inst)
        stable_husbands(inst, 0)
        assert "girl_rank" in vars(inst)
        assert "boy_rank" not in vars(inst)

    @given(instances())
    def test_rank_tables_invert_the_rows(self, inst):
        assert inst.n == len(inst.girl_prefs) == len(inst.boy_prefs)
        sides = ((inst.girl_prefs, inst.girl_rank), (inst.boy_prefs, inst.boy_rank))
        for prefs, ranks in sides:
            for row, rank in zip(prefs, ranks):
                assert [rank[who] for who in row] == list(range(inst.n))

    def test_equality_ignores_cached_tables(self):
        read = fixture_4x4()
        read.boy_rank
        assert read == fixture_4x4() and hash(read) == hash(fixture_4x4())


class TestGenerate:
    def test_n1_forced(self):
        inst = generate_uniform(1, 12345)
        assert inst.girl_prefs == ((0,),)
        assert inst.boy_prefs == ((0,),)

    def test_deterministic(self):
        assert generate_uniform(4, 99) == generate_uniform(4, 99)

    def test_seed_changes_instance(self):
        assert generate_uniform(6, 1) != generate_uniform(6, 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_uniform(0, 1)

    @given(instances())
    def test_generated_and_built_instances_validate(self, inst):
        assert validate(inst) == []

    @settings(max_examples=30)
    @given(st.integers(1, 8), st.integers(0, 2**64 - 1))
    def test_generate_validates(self, n, seed):
        assert validate(generate_uniform(n, seed)) == []

    def test_row_shuffle_unbiased_chi_square(self):
        # Frequencies of the 120 possible first girl rows at n=5 across
        # 10000 seeds. 0.999 quantile of chi-square with 119 degrees of
        # freedom is 172.418; per-cell deviations stay within 5 binomial
        # standard deviations.
        trials = 10_000
        counts = Counter(
            generate_uniform(5, seed).girl_prefs[0] for seed in range(trials)
        )
        assert sum(counts.values()) == trials
        assert len(counts) == 120
        p = 1.0 / 120.0
        expected = trials * p
        sigma = (trials * p * (1 - p)) ** 0.5
        worst = max(abs(c - expected) for c in counts.values())
        assert worst <= 5 * sigma, f"worst cell deviation {worst}"
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 172.418, f"chi-square {chi2}"


def _generate_keeping_stream(n: int, seed: int):
    """generate_uniform(n, seed) and the one stream it created."""
    streams: list[Rng] = []

    def keep(s: int) -> Rng:
        streams.append(Rng(s))
        return streams[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instance_mod, "Rng", keep)
        inst = generate_uniform(n, seed)
    assert len(streams) == 1
    return inst, streams[0]


def _assert_matches_reference(n: int, seed: int) -> Rng:
    """Check rows and final stream state against the scalar reference;
    returns generate_uniform's stream."""
    inst, stream = _generate_keeping_stream(n, seed)
    rng = Rng(seed)
    assert inst == reference_generate_uniform(n, rng)
    assert stream._state == rng._state
    return stream


class TestBlockDraws:
    """generate_uniform reads its draws in blocks; rows and the stream's
    final state must equal the scalar reference's, rejections included."""

    @settings(max_examples=40)
    @given(st.integers(1, 40), st.integers(0, 2**64 - 1))
    def test_equals_scalar_reference(self, n, seed):
        _assert_matches_reference(n, seed)

    @pytest.mark.parametrize(
        "n,j",
        [
            # At n = 3 each row takes randrange(3) then randrange(2), and
            # randrange(3) rejects only 2**64 - 1: draw 0 is the first draw,
            # draw 4 the first of the third row, and draw 10 the first of
            # the last row, whose redraw lies past the 12 draws an instance
            # takes without rejection.
            (3, 0),
            (3, 4),
            (3, 10),
            # At n = 34 draw 2047, the last of the first 2048-draw block, is
            # a randrange(33), so its redraw comes from the next block.
            (34, 2047),
        ],
    )
    def test_forced_rejection(self, n, j):
        seed = seed_with_top_draw(j)
        probe = Rng(seed)
        assert [probe.next_u64() for _ in range(j + 1)][-1] == 2**64 - 1
        stream = _assert_matches_reference(n, seed)
        # One draw more than 2n(n - 1): the rejected one.
        draws = 2 * n * (n - 1) + 1
        assert stream._state == (seed + draws * 0x9E3779B97F4A7C15) % 2**64


class TestValidate:
    def test_duplicate_entry_names_row(self):
        inst = fixture_4x4()
        bad = dataclasses.replace(
            inst, girl_prefs=inst.girl_prefs[:1] + ((0, 0, 2, 3),) + inst.girl_prefs[2:]
        )
        problems = validate(bad)
        assert any("girl 1" in p and "duplicate 0" in p for p in problems)

    def test_wrong_row_count_names_table(self):
        inst = fixture_4x4()
        problems = validate(dataclasses.replace(inst, boy_prefs=inst.boy_prefs[:3]))
        assert problems == ["boy_prefs must have exactly 4 rows, got 3"]

    def test_out_of_range_entry(self):
        inst = fixture_4x4()
        bad = dataclasses.replace(
            inst, boy_prefs=inst.boy_prefs[:3] + ((1, 0, 2, 9),)
        )
        problems = validate(bad)
        assert any("boy 3" in p and "out of range" in p for p in problems)

    def test_no_rows(self):
        assert validate(PreferenceInstance((), ())) == ["n must be >= 1, got 0"]

    def test_every_short_row_reported_and_later_rows_checked(self):
        # A short row is reported and skipped, and the rows after it are
        # still checked: two short rows and a duplicate in a later row give
        # three messages, in row order.
        inst = fixture_4x4()
        girls = ((2, 1, 3), inst.girl_prefs[1], (0, 2), (1, 0, 1, 2))
        problems = validate(dataclasses.replace(inst, girl_prefs=girls))
        assert problems == [
            "girl 0: row has length 3, expected 4",
            "girl 2: row has length 2, expected 4",
            "girl 3: duplicate 1 in preference row",
        ]


class TestSaveLoad:
    def test_round_trip_fixture(self, tmp_path):
        path = tmp_path / "inst.json"
        save(fixture_4x4(), path)
        assert load(path) == fixture_4x4()

    @settings(max_examples=25)
    @given(inst=instances(max_n=6))
    def test_round_trip_random(self, inst, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "inst.json"
        save(inst, path)
        assert load(path) == inst

    def test_document_shape(self, tmp_path):
        path = tmp_path / "inst.json"
        save(fixture_4x4(), path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"n", "girl_prefs", "boy_prefs"}
        assert doc["n"] == 4

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InstanceLoadError) as err:
            load(path)
        assert err.value.kind == "malformed"

    def test_deeply_nested_document(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(InstanceLoadError) as err:
            load(path)
        assert err.value.kind == "malformed"

    def test_missing_key(self):
        with pytest.raises(InstanceLoadError) as err:
            from_dict({"n": 2, "girl_prefs": [[0, 1], [1, 0]]})
        assert err.value.kind == "malformed"

    def test_size_mismatch_three_rows(self):
        doc = {
            "n": 4,
            "girl_prefs": [[0, 1, 2, 3]] * 3,
            "boy_prefs": [[0, 1, 2, 3]] * 4,
        }
        with pytest.raises(InstanceLoadError) as err:
            from_dict(doc)
        assert err.value.kind == "size-mismatch"

    def test_out_of_range_row(self):
        doc = {
            "n": 4,
            "girl_prefs": [[1, 2, 3, 5], [0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]],
            "boy_prefs": [[0, 1, 2, 3]] * 4,
        }
        with pytest.raises(InstanceLoadError) as err:
            from_dict(doc)
        assert err.value.kind == "out-of-range"

    def test_entry_equal_to_n_is_out_of_range(self):
        doc = {"n": 2, "girl_prefs": [[0, 1], [0, 1]], "boy_prefs": [[0, 1], [2, 0]]}
        with pytest.raises(InstanceLoadError, match=r"boy 1: entry 2 out of range"):
            from_dict(doc)

    def test_duplicate_row_entry(self):
        doc = {
            "n": 2,
            "girl_prefs": [[0, 0], [0, 1]],
            "boy_prefs": [[0, 1], [0, 1]],
        }
        with pytest.raises(InstanceLoadError) as err:
            from_dict(doc)
        assert err.value.kind == "duplicate"

    @pytest.mark.parametrize(
        "girl_prefs,kind",
        [([[0, 1], [0]], "size-mismatch"), ([[0, 1], [1, 0.0]], "malformed")],
        ids=["short-row", "float-entry"],
    )
    def test_row_fault_kind(self, girl_prefs, kind):
        doc = {"n": 2, "girl_prefs": girl_prefs, "boy_prefs": [[0, 1], [1, 0]]}
        with pytest.raises(InstanceLoadError) as err:
            from_dict(doc)
        assert err.value.kind == kind

    def test_bad_n(self):
        with pytest.raises(InstanceLoadError) as err:
            from_dict({"n": 0, "girl_prefs": [], "boy_prefs": []})
        assert err.value.kind == "malformed"
