"""Preference instances: two n-by-n preference tables plus derived ranks.

An instance holds, for each of n girls, a permutation of the n boys ordered
favorite-first, and symmetrically for the boys. Girls and boys live in
separate index spaces 0..n-1. Rank tables are precomputed inverses so
"does girl g prefer boy a to boy b" is a single comparison, which the
proposal algorithms rely on in their inner loops.

Instances are immutable and safe to share across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .rng import Rng

Prefs = tuple[tuple[int, ...], ...]


class InstanceLoadError(ValueError):
    """Raised when an instance document cannot be loaded.

    ``kind`` is one of "malformed", "size-mismatch", "out-of-range",
    "duplicate" so callers can distinguish failure modes.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class PreferenceInstance:
    """Immutable preference tables for n girls and n boys.

    girl_prefs[g] lists boy indices favorite-first; girl_rank[g][b] is the
    position of boy b in that list (0 = favorite). Boys symmetric.
    """

    n: int
    girl_prefs: Prefs
    boy_prefs: Prefs
    girl_rank: Prefs
    boy_rank: Prefs

    @staticmethod
    def from_prefs(
        girl_prefs: Sequence[Sequence[int]], boy_prefs: Sequence[Sequence[int]]
    ) -> "PreferenceInstance":
        """Build an instance from preference rows, deriving the rank tables."""
        gp = tuple(map(tuple, girl_prefs))
        bp = tuple(map(tuple, boy_prefs))
        n = len(gp)
        return PreferenceInstance(
            n=n, girl_prefs=gp, boy_prefs=bp, girl_rank=_ranks(gp), boy_rank=_ranks(bp)
        )


def _ranks(prefs: Prefs) -> Prefs:
    n = len(prefs)
    out = []
    for row in prefs:
        rank = [0] * n
        for pos, who in enumerate(row):
            rank[who] = pos
        out.append(tuple(rank))
    return tuple(out)


def generate_uniform(n: int, seed: int) -> PreferenceInstance:
    """A uniformly random instance: 2n independent random permutation rows.

    Deterministic in (n, seed); rows come from one seeded stream via an
    unbiased Fisher-Yates shuffle, girls' rows first. Each swap takes the
    draw `Rng.randrange(i + 1)` would, rejection rule included, but the
    draws are read from `Rng.block` in blocks of at most 2048, each no
    larger than the number of draws still due, so the stream is never read
    past the last draw it would give.
    """
    if n < 1:
        raise ValueError("instance size must be at least 1")
    rng = Rng(seed)
    # (slot i, modulus i + 1, randrange's rejection limit) of each swap.
    swaps = [(i, i + 1, 2**64 - 2**64 % (i + 1)) for i in range(n - 1, 0, -1)]
    due = 2 * n * (n - 1)
    buf = ()
    pos = end = 0
    rows = []
    for _ in range(2 * n):
        row = list(range(n))
        for i, m, limit in swaps:
            while True:
                if pos == end:
                    end = min(due, 2048)
                    buf = rng.block(end)
                    pos = 0
                u = buf[pos]
                pos += 1
                if u < limit:
                    break
            due -= 1
            j = u % m
            row[i], row[j] = row[j], row[i]
        rows.append(row)
    return PreferenceInstance.from_prefs(rows[:n], rows[n:])


def fixture_4x4() -> PreferenceInstance:
    """The canonical 4x4 worked example used throughout the tests.

    Girls 0..3 are displayed as A..D and boys 0..3 as W..Z. Girl 0 ranks the
    boys Y > X > Z > W, and so on; see the CLI display layer for letters.
    """
    girl_prefs = [
        [2, 1, 3, 0],  # A: Y X Z W
        [1, 0, 2, 3],  # B: X W Y Z
        [0, 2, 1, 3],  # C: W Y X Z
        [1, 0, 3, 2],  # D: X W Z Y
    ]
    boy_prefs = [
        [0, 1, 3, 2],  # W: A B D C
        [2, 0, 3, 1],  # X: C A D B
        [1, 3, 0, 2],  # Y: B D A C
        [1, 0, 2, 3],  # Z: B A C D
    ]
    return PreferenceInstance.from_prefs(girl_prefs, boy_prefs)


def _row_problems(side: str, i: int, row: object, n: int):
    """Yield (kind, message) for each fault of one preference row: a wrong
    length, then every entry that is not an integer, out of range, or a
    repeat. Kinds are those of InstanceLoadError."""
    if not isinstance(row, (list, tuple)) or len(row) != n:
        size = len(row) if isinstance(row, (list, tuple)) else type(row).__name__
        yield "size-mismatch", f"{side} {i}: row has length {size}, expected {n}"
        return
    seen: set[int] = set()
    for v in row:
        if not isinstance(v, int) or isinstance(v, bool):
            yield "malformed", f"{side} {i}: non-integer entry {v!r}"
        elif not 0 <= v < n:
            yield "out-of-range", f"{side} {i}: entry {v} out of range [0, {n})"
        elif v in seen:
            yield "duplicate", f"{side} {i}: duplicate {v} in preference row"
        else:
            seen.add(v)


def validate(instance: PreferenceInstance) -> list[str]:
    """All invariant violations in the instance, empty if it is well formed.

    Never raises; each entry names the offending row or table cell.
    """
    n = instance.n
    if n < 1:
        return [f"n must be >= 1, got {n}"]
    problems: list[str] = []
    for side, prefs, ranks in (
        ("girl", instance.girl_prefs, instance.girl_rank),
        ("boy", instance.boy_prefs, instance.boy_rank),
    ):
        if len(prefs) != n:
            problems.append(f"{side}_prefs has {len(prefs)} rows, expected {n}")
            continue
        if len(ranks) != n:
            problems.append(f"{side}_rank has {len(ranks)} rows, expected {n}")
            continue
        for i, row in enumerate(prefs):
            row_problems = [message for _, message in _row_problems(side, i, row, n)]
            problems.extend(row_problems)
            if row_problems:
                continue
            for pos, who in enumerate(row):
                if ranks[i][who] != pos:
                    problems.append(
                        f"{side}_rank[{i}][{who}] = {ranks[i][who]}, "
                        f"expected {pos} (inverse of preference row)"
                    )
    return problems


def save(instance: PreferenceInstance, destination: str | Path) -> None:
    """Write the instance as JSON; rank tables are derived, never stored."""
    doc = {
        "n": instance.n,
        "girl_prefs": [list(r) for r in instance.girl_prefs],
        "boy_prefs": [list(r) for r in instance.boy_prefs],
    }
    Path(destination).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load(source: str | Path) -> PreferenceInstance:
    """Read an instance document, rebuilding rank tables.

    Raises InstanceLoadError with kind "malformed", "size-mismatch",
    "out-of-range" or "duplicate".
    """
    try:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceLoadError("malformed", f"cannot parse instance document: {exc}")
    return from_dict(doc)


def from_dict(doc: object) -> PreferenceInstance:
    """Build and check an instance from an already-parsed JSON document.

    Raises the first fault found, with its kind; the rank tables are then
    derived from rows already checked, so the result always validates.
    """
    if not isinstance(doc, dict):
        raise InstanceLoadError("malformed", "instance document must be an object")
    try:
        n = doc["n"]
        girl_prefs = doc["girl_prefs"]
        boy_prefs = doc["boy_prefs"]
    except KeyError as exc:
        raise InstanceLoadError("malformed", f"missing key {exc} in instance document")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceLoadError("malformed", f"n must be a positive integer, got {n!r}")
    for side, rows in (("girl", girl_prefs), ("boy", boy_prefs)):
        if not isinstance(rows, list) or len(rows) != n:
            raise InstanceLoadError(
                "size-mismatch",
                f"{side}_prefs must have exactly {n} rows, got "
                f"{len(rows) if isinstance(rows, list) else type(rows).__name__}",
            )
        for i, row in enumerate(rows):
            for kind, message in _row_problems(side, i, row, n):
                raise InstanceLoadError(kind, message)
    return PreferenceInstance.from_prefs(girl_prefs, boy_prefs)
