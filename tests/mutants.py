"""Mutation checks: small deliberate faults that named tests must catch.

Each mutant gives a file, an exact text that occurs in it once, the text
that replaces it, and the tests expected to fail once it is applied; a
mutant that spans files lists its further (file, text, replacement) edits
in `also`. For each mutant the script copies src/, tests/ and
pyproject.toml to a temporary directory, applies the mutant there, runs
the named tests with pytest, and reports the mutant killed if they fail.
It writes nothing in the checkout. Run it as:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 3 5      # mutants 3 and 5 only (1-based)

Before any mutant, the named tests run once on an unmutated copy, so a
test that fails on its own cannot pass for a kill. A pytest run that
outlasts TIMEOUT is stopped and counts as failing, so a mutant that makes
a loop endless is killed, not hung on. The exit status is 0
when every mutant is killed, 1 when one survives or no longer applies,
and 2 when the unmutated run fails or an argument names no mutant.
Pytest does not collect this file.

Two boundary mutants are left out because no test can kill them:
`find_blocking_pairs`' `boy_rank[b][g] < b_bar` read as `<=` differs only
when g is b's wife, and then the girl side has already skipped the pair;
`stable_husbands`' `rank < best_rank[h]` read as `<=` differs only when the
rank equals her best offer's, which the sentinel n, above every rank, never
does, and a real rank does only when a boy offers to the same girl twice,
which his advancing list rules out.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Seconds one pytest run may take; the unmutated run of every named test
# together takes about 7 s on a 2-CPU host.
TIMEOUT = 60


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    also: tuple[tuple[str, str, str], ...] = ()


INSTANCE = "src/stablematch/instance.py"
MATCHING = "src/stablematch/matching.py"
HARNESS = "src/stablematch/harness.py"
RANDOM_MODEL = "src/stablematch/random_model.py"
RNG = "src/stablematch/rng.py"
BOUNDS = "src/stablematch/bounds.py"
# After the first output the designated girl's acceptance emits the
# proposer, who keeps the turn.
_POST_OUTPUT_TURN = (
    "                # He keeps proposing, as after a rejected offer.\n"
    "                outputs.append((p, t))\n"
    "                if count == full or t >= cap:\n"
    "                    break\n"
    "                continue\n"
)

MUTANTS = [
    Mutant(
        "rank table stores the row instead of its inverse",
        INSTANCE,
        "            rank[who] = pos\n",
        "            rank[pos] = who\n",
        ("tests/test_instance.py::TestStoredTables::test_rank_tables_invert_the_rows",),
    ),
    Mutant(
        "girl rank table built from the boys' rows",
        INSTANCE,
        "        return _ranks(self.girl_prefs)\n",
        "        return _ranks(self.boy_prefs)\n",
        ("tests/test_acceptance.py::test_criterion_1_fixture_exactness",),
    ),
    Mutant(
        "out-of-range preference entry accepted",
        INSTANCE,
        "                elif not 0 <= v < n:\n",
        "                elif not 0 <= v <= n:\n",
        ("tests/test_instance.py::TestSaveLoad::test_entry_equal_to_n_is_out_of_range",),
    ),
    Mutant(
        "duplicate preference entry accepted",
        INSTANCE,
        "                elif v in seen:\n",
        "                elif False:\n",
        (
            "tests/test_instance.py::TestValidate::test_duplicate_entry_names_row",
            "tests/test_instance.py::TestSaveLoad::test_duplicate_row_entry",
        ),
    ),
    Mutant(
        "instance document nested too deep ends in RecursionError",
        INSTANCE,
        "    except (OSError, json.JSONDecodeError, RecursionError) as exc:\n",
        "    except (OSError, json.JSONDecodeError) as exc:\n",
        ("tests/test_instance.py::TestSaveLoad::test_deeply_nested_document",),
    ),
    Mutant(
        "generated row keeps a draw its modulus rejects",
        INSTANCE,
        "                if u < limit:\n",
        "                if u <= limit:\n",
        ("tests/test_instance.py::TestBlockDraws::test_forced_rejection",),
    ),
    Mutant(
        "a uniform index's rejection bound one less",
        RNG,
        "    return 2**64 - 2**64 % m\n",
        "    return 2**64 - 2**64 % m - 1\n",
        ("tests/test_rng.py::test_index_limit_is_the_randrange_rule",),
    ),
    Mutant(
        "a 1/k coin's bound rounded down instead of up",
        RNG,
        "    return -(-(2**53) // k) << 11\n",
        "    return 2**53 // k << 11\n",
        (
            "tests/test_harness.py::TestOtherKinds"
            "::test_acceptance_limits_are_the_float_rule",
        ),
    ),
    Mutant(
        "blocks of draws grow past 2048",
        RNG,
        "        k = k if 0 < k <= 2048 else 1 if k < 1 else 2048\n",
        "        k = k if 0 < k else 1\n",
        ("tests/test_rng.py::test_block_at_run_sizes",),
    ),
    Mutant(
        "skip moves the stream one draw short",
        RNG,
        "        self._state = (self._state + k * _GOLDEN) & _MASK64\n",
        "        self._state = (self._state + (k - 1) * _GOLDEN) & _MASK64\n",
        ("tests/test_rng.py::test_skip_round_trip",),
    ),
    Mutant(
        "draws start their next block one draw early",
        RNG,
        "        state = (state + k * _GOLDEN) & _MASK64\n",
        "        state = (state + (k - 1) * _GOLDEN) & _MASK64\n",
        ("tests/test_rng.py::test_block_at_run_sizes",),
    ),
    Mutant(
        "a generated instance's stream skips no rejected draw",
        INSTANCE,
        "    rng.skip(due + rejected)\n",
        "    rng.skip(due)\n",
        ("tests/test_instance.py::TestBlockDraws::test_forced_rejection",),
    ),
    Mutant(
        "harmonic number summed one term short",
        BOUNDS,
        "        return math.fsum(1.0 / k for k in range(1, m + 1))\n",
        "        return math.fsum(1.0 / k for k in range(1, m))\n",
        ("tests/test_bounds.py::TestMoments::test_harmonic_small_values",),
    ),
    Mutant(
        "rising product past z = m sums one log1p factor too many",
        BOUNDS,
        "_log1p_sum(m - 1, z)",
        "_log1p_sum(m, z)",
        ("tests/test_bounds.py::TestEvalLogBeyondM::test_matches_summed_form",),
    ),
    Mutant(
        "golden-section search keeps the worse side",
        BOUNDS,
        "        if fc <= fd:\n",
        "        if fc > fd:\n",
        ("tests/test_bounds.py::TestOptimizeTail",),
    ),
    Mutant(
        "boy married to two girls accepted",
        MATCHING,
        "            if wife[b] is not None:\n",
        "            if False:\n",
        ("tests/test_matching.py::TestMatchingType::test_duplicate_boy_rejected",),
    ),
    Mutant(
        "husband index n accepted",
        MATCHING,
        "            if not 0 <= b < n:\n",
        "            if not 0 <= b <= n:\n",
        ("tests/test_matching.py::TestMatchingType::test_out_of_range_boy_rejected[n]",),
    ),
    Mutant(
        "blocking pair test reads the boy's preference backwards",
        MATCHING,
        "            if boy_rank[b][g] < b_bar:\n",
        "            if boy_rank[b][g] > b_bar:\n",
        ("tests/test_matching.py::TestBlockingPairs::test_unstable_example",),
    ),
    Mutant(
        "search girl accepts a worse offer",
        MATCHING,
        "        accepted = rank < best_rank[h]\n",
        "        accepted = rank > best_rank[h]\n",
        ("tests/test_acceptance.py::test_criterion_1_fixture_exactness",),
    ),
    Mutant(
        "search girl's no-offer sentinel is her worst rank",
        MATCHING,
        "    best_rank = [n] * n",
        "    best_rank = [n - 1] * n",
        ("tests/test_golden.py::test_stable_husbands_digest",),
    ),
    Mutant(
        "search drops the displaced husband",
        MATCHING,
        "        proposer, husband[h] = husband[h], p\n",
        "        proposer, husband[h] = None, p\n",
        ("tests/test_acceptance.py::test_criterion_1_fixture_exactness",),
    ),
    Mutant(
        "matching document nested too deep ends in RecursionError",
        "src/stablematch/cli.py",
        "    except RecursionError:\n",
        "    except ArithmeticError:\n",
        ("tests/test_cli.py::test_deeply_nested_json_is_a_named_error[matching]",),
    ),
    Mutant(
        "--param value nested too deep ends in RecursionError",
        "src/stablematch/cli.py",
        "            except (json.JSONDecodeError, RecursionError):\n",
        "            except json.JSONDecodeError:\n",
        ("tests/test_cli.py::test_deeply_nested_json_is_a_named_error[param]",),
    ),
    Mutant(
        "config file nested too deep ends in RecursionError",
        HARNESS,
        "        except (OSError, json.JSONDecodeError, RecursionError) as exc:\n",
        "        except (OSError, json.JSONDecodeError) as exc:\n",
        ("tests/test_cli.py::test_deeply_nested_json_is_a_named_error[config]",),
    ),
    Mutant(
        "a row with no first output stored as time 0",
        HARNESS,
        "column.append(_NONE if value is None else value)",
        "column.append(0 if value is None else value)",
        ("tests/test_golden.py::test_trials_csv_digest[lemma_audit]",),
    ),
    Mutant(
        "a row with no first output read back as -1",
        HARNESS,
        "_LOADED = {_NONE: None}\n",
        "_LOADED = {}\n",
        ("tests/test_golden.py::test_trials_csv_digest[acceptance_dist]",),
    ),
    Mutant(
        "husband_count and elapsed_us columns swapped",
        HARNESS,
        "        t, s, h, e = self._own\n",
        "        t, s, e, h = self._own\n",
        (
            "tests/test_harness.py::TestTheoremExperiment::test_counts_match_oracle_at_small_n",
            "tests/test_golden.py::test_report_digest[theorem_a]",
        ),
    ),
    Mutant(
        "the row writer reads the two record fields in swapped order",
        HARNESS,
        "zip(_RECORD_FIELDS, ",
        "zip(_RECORD_FIELDS[::-1], ",
        (
            "tests/test_harness.py::test_records_carry_every_record_field",
            "tests/test_golden.py::test_report_digest[theorem_a]",
        ),
    ),
    Mutant(
        "seed column signed",
        HARNESS,
        '("Q" if name == "seed" else "q" for name',
        '("q" for name',
        ("tests/test_harness.py::test_trial_seeds_are_the_full_path",),
    ),
    Mutant(
        "each size's trials CSV takes one row of the next size",
        HARNESS,
        "islice(remaining, per_block)",
        "islice(remaining, per_block + 1)",
        ("tests/test_golden.py::test_trials_csv_digest[theorem_sweep]",),
    ),
    Mutant(
        "a kind with no histogram still writes one",
        HARNESS,
        "        if plot is not None:\n",
        "        if True:\n",
        ("tests/test_harness.py::TestOutputs::test_sweep_files_follow_the_kind",),
    ),
    Mutant(
        "the chain trial ignores its stop rule",
        HARNESS,
        "stop=stop, track=False",
        'stop="natural", track=False',
        ("tests/test_harness.py::TestOtherKinds::test_coupon_block",),
    ),
    Mutant(
        "the equivalence block's two halves swapped",
        HARNESS,
        "    counts_a = Counter(islice(counts, config.trials))\n"
        "    counts_b = Counter(islice(counts, config.trials, None))\n",
        "    counts_b = Counter(islice(counts, config.trials))\n"
        "    counts_a = Counter(islice(counts, config.trials, None))\n",
        ("tests/test_golden.py::test_report_digest[equivalence_w1]",),
    ),
    Mutant(
        "an acceptance chunk moves each stream one draw short",
        HARNESS,
        "            rng.skip(len(limits))\n",
        "            rng.skip(len(limits) - 1)\n",
        ("tests/test_harness.py::TestOtherKinds::test_acceptance_counts_past_one_chunk",),
    ),
    Mutant(
        "each range's extras put before the earlier ranges'",
        HARNESS,
        "        extras.extend(part_extras)\n",
        "        extras[:0] = part_extras\n",
        ("tests/test_golden.py::test_report_digest[lemma_audit]",),
    ),
    Mutant(
        "a range's start rounded down to a multiple of the even share",
        HARNESS,
        "k * trials // parts, ",
        "k * (trials // parts), ",
        ("tests/test_harness.py::test_uneven_ranges_equal_one_range",),
    ),
    Mutant(
        "trial index folded into the seed without its own mix",
        RNG,
        "mix64(prefix ^ mix64(i))",
        "mix64(prefix ^ i)",
        (
            "tests/test_rng.py::test_derive_seeds_complete_the_path",
            "tests/test_harness.py::test_trial_seeds_are_the_full_path",
            "tests/test_harness.py::test_trial_seed_derivation_is_arithmetic",
        ),
    ),
    Mutant(
        "chain keeps a proposal draw its modulus rejects",
        RANDOM_MODEL,
        "        if u >= limit:\n",
        "        if u > limit:\n",
        (
            "tests/test_random_model.py::TestForcedRejection"
            "::test_run_equals_step_replay",
        ),
    ),
    Mutant(
        "chain keeps only the proposal draws its modulus rejects",
        RANDOM_MODEL,
        "        if u >= limit:\n",
        "        if u < limit:\n",
        ("tests/test_random_model.py::TestForcedPaths::test_n1_natural",),
    ),
    Mutant(
        "chain's acceptance test reversed",
        RANDOM_MODEL,
        "        if next(draws) >= accept[k]:\n",
        "        if next(draws) < accept[k]:\n",
        ("tests/test_golden.py::test_run_digest",),
    ),
    Mutant(
        "chain accepts an offer whose draw equals its acceptance limit",
        RANDOM_MODEL,
        "        if next(draws) >= accept[k]:\n",
        "        if next(draws) > accept[k]:\n",
        ("tests/test_random_model.py::test_acceptance_draw_on_the_limit_is_a_rejection",),
    ),
    Mutant(
        "the chain's stream skips no rejected draw",
        RANDOM_MODEL,
        "    rng.skip(t + sum(fresh_per_girl) + rejected)\n",
        "    rng.skip(t + sum(fresh_per_girl))\n",
        (
            "tests/test_random_model.py::TestForcedRejection"
            "::test_run_equals_step_replay",
        ),
    ),
    Mutant(
        "a rejected offer that reaches the cap does not stop the run",
        RANDOM_MODEL,
        "        if next(draws) >= accept[k]:\n"
        "            if count == full or t >= cap:\n",
        "        if next(draws) >= accept[k]:\n"
        "            if count == full:\n",
        ("tests/test_random_model.py::test_conservation_after_every_step",),
    ),
    Mutant(
        "a redundant proposal that reaches the cap does not stop the run",
        RANDOM_MODEL,
        "            if t >= cap:\n                break\n",
        "",
        ("tests/test_random_model.py::test_conservation_after_every_step",),
    ),
    Mutant(
        "every stop rule also stops where the proposer has tried every girl",
        RANDOM_MODEL,
        '    full = n if stop == "natural" else n + 1\n',
        "    full = n\n",
        (
            "tests/test_random_model.py::test_run_equals_reference_replay",
            "tests/test_random_model.py::test_stops_aimed_at_block_ends",
        ),
    ),
    Mutant(
        "a cap of 0 proposals accepted",
        RANDOM_MODEL,
        "type(stop) is int and stop >= 1",
        "type(stop) is int and stop >= 0",
        ("tests/test_random_model.py::TestStopRules::test_cap_must_be_a_positive_count",),
    ),
    Mutant(
        "a bool accepted as a cap",
        RANDOM_MODEL,
        "type(stop) is int and stop >= 1",
        "isinstance(stop, int) and stop >= 1",
        ("tests/test_random_model.py::TestStopRules::test_cap_must_be_a_positive_count",),
    ),
    Mutant(
        "a repeated pair counted in full in the girl's total",
        RANDOM_MODEL,
        "        per_girl[j] += c - 1\n",
        "        per_girl[j] += c\n",
        ("tests/test_random_model.py::test_entity_totals_equal_step_counts",),
    ),
    Mutant(
        "the first output's own acceptance counted as superseded",
        RANDOM_MODEL,
        "stats.pre_output_acceptances = accepts_by_g - len(outputs)\n",
        "stats.pre_output_acceptances = accepts_by_g - len(outputs[1:])\n",
        ("tests/test_random_model.py::test_outputs_distinct_and_acceptance_identity",),
    ),
    Mutant(
        "acceptances after the first output counted as superseded at the stop",
        RANDOM_MODEL,
        "stats.pre_output_acceptances = accepts_by_g - len(outputs)\n",
        "stats.pre_output_acceptances = accepts_by_g - len(outputs[:1])\n",
        ("tests/test_random_model.py::test_outputs_distinct_and_acceptance_identity",),
    ),
    Mutant(
        "a husband after the first output hands the turn to her previous offer",
        RANDOM_MODEL,
        _POST_OUTPUT_TURN,
        "                outputs.append((p, t))\n",
        ("tests/test_golden.py::test_run_digest",),
    ),
    Mutant(
        "the chain and its reference both hand the post-output turn to her "
        "previous offer",
        RANDOM_MODEL,
        _POST_OUTPUT_TURN,
        "                outputs.append((p, t))\n",
        (
            "tests/test_random_model.py"
            "::test_chain_is_the_search_on_the_revealed_instance",
        ),
        also=(("tests/oracles.py", "        output = p\n        nxt = p\n",
               "        output = p\n        nxt = previous\n"),),
    ),
    Mutant(
        "the chain and its reference both give a girl's k-th offer the coin "
        "of offer (k + 1) // 2",
        RANDOM_MODEL,
        "        if next(draws) >= accept[k]:\n",
        "        if next(draws) >= accept[(k + 1) // 2]:\n",
        ("tests/test_random_model.py::test_revealed_instance_is_uniform_at_n2",),
        also=(("tests/oracles.py", "    if rng.random() * k >= 1.0:\n",
               "    if rng.random() * ((k + 1) // 2) >= 1.0:\n"),),
    ),
    Mutant(
        "the chain and its reference both keep the turn with the accepted "
        "proposer, not the displaced husband",
        RANDOM_MODEL,
        "            p = previous\n",
        "            pass\n",
        (
            "tests/test_random_model.py"
            "::test_chain_is_the_search_on_the_revealed_instance",
        ),
        also=(("tests/oracles.py", "        nxt = previous\n", "        nxt = p\n"),),
    ),
    Mutant(
        "the chain and its reference both count a redundant proposal as no "
        "proposal",
        RANDOM_MODEL,
        "            # A redundant proposal is a proposal too, always rejected.\n",
        "            t -= 1\n",
        ("tests/test_random_model.py::test_first_output_time_is_the_collector_time",),
        also=(("tests/oracles.py", "        state.redundant_proposals += 1\n",
               "        state.redundant_proposals += 1\n        stats.t -= 1\n"),),
    ),
    Mutant(
        "the chain and its reference both keep the turn with the accepted "
        "proposer at the first output, not hand it to her husband",
        RANDOM_MODEL,
        "            p = best_offer[g]  # type: ignore[assignment]\n"
        "            outputs.append((p, t))\n",
        "            outputs.append((best_offer[g], t))\n",
        (
            "tests/test_random_model.py"
            "::test_chain_is_the_search_on_the_revealed_instance",
        ),
        also=(("tests/oracles.py", "            nxt = output\n", "            nxt = p\n"),),
    ),
    Mutant(
        "chain drops the displaced husband",
        RANDOM_MODEL,
        "        if previous is not None:\n",
        "        if False:\n",
        ("tests/test_golden.py::test_run_digest",),
    ),
    Mutant(
        "first output time read from the last output",
        RANDOM_MODEL,
        "        return self.outputs[0][1] if self.outputs else None\n",
        "        return self.outputs[-1][1] if self.outputs else None\n",
        ("tests/test_random_model.py::test_outputs_distinct_and_acceptance_identity",),
    ),
    Mutant(
        "a repeated pair's count started from 0, not from its fresh proposal",
        RANDOM_MODEL,
        "pair_counts.get((p, h), 1) + 1\n",
        "pair_counts.get((p, h), 0) + 1\n",
        ("tests/test_random_model.py::TestRunStepAgreement",),
    ),
    Mutant(
        "an ended run's fresh length counted from the proposer's first try",
        RANDOM_MODEL,
        "            run_lengths.append((p, t - run_start, count - ntried[p]))\n",
        "            run_lengths.append((p, t - run_start, count))\n",
        ("tests/test_random_model.py::TestRunStepAgreement",),
    ),
    Mutant(
        "the run at the stop has its fresh length counted from the proposer's first try",
        RANDOM_MODEL,
        "    if run_lengths is not None:\n"
        "        run_lengths.append((p, t - run_start, count - ntried[p]))\n",
        "    if run_lengths is not None:\n"
        "        run_lengths.append((p, t - run_start, count))\n",
        ("tests/test_random_model.py::TestRunStepAgreement",),
    ),
    Mutant(
        "an entity on its check's lower bound flagged",
        RANDOM_MODEL,
        "[dict(zip(labels, e)) for e in entities if not lo <= e[-1] <= hi]",
        "[dict(zip(labels, e)) for e in entities if not lo < e[-1] <= hi]",
        ("tests/test_random_model.py::TestAuditEqualsReference::test_capped_runs",),
    ),
    Mutant(
        "an entity on its check's upper bound flagged",
        RANDOM_MODEL,
        "[dict(zip(labels, e)) for e in entities if not lo <= e[-1] <= hi]",
        "[dict(zip(labels, e)) for e in entities if not lo <= e[-1] < hi]",
        ("tests/test_random_model.py::TestAuditEqualsReference::test_capped_runs",),
    ),
    Mutant(
        "pair violations listed in the order the pairs first repeated",
        RANDOM_MODEL,
        "        for (b, j), c in sorted(pairs.items()):\n",
        "        for (b, j), c in pairs.items():\n",
        ("tests/test_random_model.py::TestAuditEqualsReference::test_capped_runs",),
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(tree: Path, edits) -> bool:
    """Make each (file, old, new) edit in the tree, unless some old text
    is not in its file exactly once; returns whether they were made."""
    texts = {path: (tree / path).read_text(encoding="utf-8") for path, _, _ in edits}
    for path, old, new in edits:
        if texts[path].count(old) != 1:
            return False
        texts[path] = texts[path].replace(old, new)
    for path, text in texts.items():
        (tree / path).write_text(text, encoding="utf-8")
    return True


def _tests_pass(tree: Path, tests) -> bool:
    """Whether every named test passes in the tree within TIMEOUT seconds."""
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree,
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main(argv: list[str]) -> int:
    valid = range(1, len(MUTANTS) + 1)
    chosen = [int(a) if a.isdigit() else 0 for a in argv] or valid
    bad = [a for a, i in zip(argv, chosen) if i not in valid]
    if bad:
        print(f"no mutant {', '.join(bad)}; mutants are numbered 1 to {len(MUTANTS)}")
        return 2
    mutants = [(i, MUTANTS[i - 1]) for i in chosen]
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        named = sorted({t for _, m in mutants for t in m.tests})
        if not _tests_pass(clean, named):
            print("the named tests fail on the unmutated tree; nothing checked")
            return 2
        survivors = []
        for i, mutant in mutants:
            tree = Path(tmp) / f"mutant{i}"
            _copy_tree(tree)
            if _apply(tree, ((mutant.path, mutant.old, mutant.new), *mutant.also)):
                verdict = "SURVIVED" if _tests_pass(tree, mutant.tests) else "killed"
            else:
                verdict = "not applied: an old text is not there exactly once"
            if verdict != "killed":
                survivors.append(i)
            print(f"{i:2d} {mutant.name} ({mutant.path}): {verdict}", flush=True)
            shutil.rmtree(tree)
    print(
        f"{len(mutants) - len(survivors)} of {len(mutants)} killed; "
        f"survivors: {', '.join(map(str, survivors)) or 'none'}"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
