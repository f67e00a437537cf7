"""Checks too slow for the tier-1 suite, run by hand:

    python tests/slow_checks.py

- the exact husband law at n = 4: `oracles.exact_husband_law(4)` equals
  the pinned `oracles.HUSBAND_LAW_N4` and visits 637,225 chain states
  (about 14 s and 126 MB on a 2-CPU host);
- the chain is the search on the instance it reveals, on one fixed seed at
  n = 1024: a natural `random_model.run` and `stable_husbands` on
  `oracles.revealed_instance` give the same husbands in the same order,
  one search proposal per fresh chain proposal (`proposal_count == t -
  redundant_proposals`), and the same `pre_output_acceptances` (about
  10 s, most of it the scalar replay that reveals the instance). The
  tier-1 suite checks the same identity at n <= 256.

Each check prints pass or FAIL with its time. The exit status is 0 when
every check passes and 1 when one fails. Pytest does not collect this
file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import HUSBAND_LAW_N4, exact_husband_law, revealed_instance  # noqa: E402

from stablematch.matching import stable_husbands  # noqa: E402
from stablematch.random_model import run  # noqa: E402

# (n, girl, seed, fill seed) of the one chain run checked at n = 1024.
IDENTITY_CASE = (1024, 7, 20260808, 1992)


def check_exact_law_n4() -> list[str]:
    law, states = exact_husband_law(4)
    problems = []
    if law != HUSBAND_LAW_N4:
        problems.append(f"law {law} is not HUSBAND_LAW_N4 {HUSBAND_LAW_N4}")
    if states != 637_225:
        problems.append(f"{states} states, not 637,225")
    return problems


def check_chain_is_the_search() -> list[str]:
    n, girl, seed, fill_seed = IDENTITY_CASE
    outputs, stats = run(n, girl, seed)
    search = stable_husbands(revealed_instance(n, girl, seed, fill_seed), girl)
    problems = []
    husbands = [b for b, _ in outputs]
    if husbands != search.husbands:
        problems.append(f"chain husbands {husbands}, search {search.husbands}")
    fresh = stats.t - stats.redundant_proposals
    if search.proposal_count != fresh:
        problems.append(f"{search.proposal_count} search proposals, {fresh} fresh")
    if search.pre_output_acceptances != stats.pre_output_acceptances:
        problems.append(
            f"pre-output acceptances: search {search.pre_output_acceptances}, "
            f"chain {stats.pre_output_acceptances}"
        )
    return problems


CHECKS = [
    ("exact husband law at n = 4", check_exact_law_n4),
    ("chain is the search at n = 1024", check_chain_is_the_search),
]


def main() -> int:
    failed = False
    for name, check in CHECKS:
        start = time.perf_counter()
        problems = check()
        verdict = "FAIL" if problems else "pass"
        print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
