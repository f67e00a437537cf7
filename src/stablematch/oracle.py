"""Brute-force ground truth: every stable matching of a small instance.

The oracle enumerates complete matchings by assigning girls in index order
and pruning a partial assignment as soon as two already-assigned people form
a blocking pair. Pruning never speculates about unassigned people, so the
search is provably exhaustive. It is meant for n up to 8; anything larger
is rejected outright rather than silently crawling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import PreferenceInstance
from .matching import Matching


# The largest n enumerated; the search grows like n!.
MAX_N = 8


class OracleScaleError(ValueError):
    """The instance is too large for factorial enumeration."""


@dataclass(frozen=True)
class StableSet:
    """All stable matchings of an instance, with per-girl husband sets."""

    matchings: tuple[Matching, ...]
    husband_sets: tuple[frozenset[int], ...]


def enumerate_stable(instance: PreferenceInstance) -> StableSet:
    """Every stable matching, found by pruned exhaustive search.

    Raises OracleScaleError when n exceeds MAX_N.
    """
    n = instance.n
    if n > MAX_N:
        raise OracleScaleError(
            f"oracle scale exceeded: n={n} is over the enumeration limit {MAX_N}"
        )
    girl_rank = instance.girl_rank
    boy_rank = instance.boy_rank
    husband = [0] * n
    used = [False] * n
    found: list[Matching] = []

    def extend(g: int) -> None:
        if g == n:
            found.append(Matching(husband))
            return
        for b in range(n):
            if used[b]:
                continue
            ok = True
            for i in range(g):
                mi = husband[i]
                # (girl i, boy b) and (girl g, boy mi) are the only pairs
                # newly determined by assigning b to g.
                if girl_rank[i][b] < girl_rank[i][mi] and boy_rank[b][i] < boy_rank[b][g]:
                    ok = False
                    break
                if girl_rank[g][mi] < girl_rank[g][b] and boy_rank[mi][g] < boy_rank[mi][i]:
                    ok = False
                    break
            if ok:
                used[b] = True
                husband[g] = b
                extend(g + 1)
                used[b] = False

    extend(0)
    sets = tuple(
        frozenset(m.husband_of[g] for m in found) for g in range(n)  # type: ignore[misc]
    )
    return StableSet(matchings=tuple(found), husband_sets=sets)
