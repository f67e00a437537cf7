"""Preference instances: two n-by-n preference tables.

An instance holds, for each of n girls, a permutation of the n boys ordered
favorite-first, and symmetrically for the boys. Girls and boys live in
separate index spaces 0..n-1. Rank tables, the inverses of the rows, are
derived on first read and cached, so "does girl g prefer boy a to boy b"
is a single comparison in the proposal algorithms' inner loops; a side
nobody ranks by is never built.

Instances are immutable and safe to share across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

from .rng import Rng, index_limit

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
    position of boy b in that list (0 = favorite). Boys symmetric. The
    rank tables are cached on first read; `cached_property` writes the
    instance __dict__ directly, which a frozen dataclass allows.
    """

    girl_prefs: Prefs
    boy_prefs: Prefs

    @property
    def n(self) -> int:
        return len(self.girl_prefs)

    @cached_property
    def girl_rank(self) -> Prefs:
        return _ranks(self.girl_prefs)

    @cached_property
    def boy_rank(self) -> Prefs:
        return _ranks(self.boy_prefs)

    @staticmethod
    def from_prefs(
        girl_prefs: Sequence[Sequence[int]], boy_prefs: Sequence[Sequence[int]]
    ) -> "PreferenceInstance":
        """Build an instance from preference rows of any sequence type."""
        return PreferenceInstance(
            tuple(map(tuple, girl_prefs)), tuple(map(tuple, boy_prefs))
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
    draw `Rng.randrange(i + 1)` would, redrawing at or above
    `index_limit(i + 1)`, read from one pass over `Rng.draws`, sized for
    the 2n(n - 1) draws due without rejection; the stream then skips the
    draws read, so it ends where the scalar shuffle leaves it.
    """
    if n < 1:
        raise ValueError("instance size must be at least 1")
    rng = Rng(seed)
    # (slot i, modulus i + 1, its rejection limit) of each swap.
    swaps = [(i, i + 1, index_limit(i + 1)) for i in range(n - 1, 0, -1)]
    due = 2 * n * (n - 1)
    draws = rng.draws(due)
    rejected = 0
    rows = []
    for _ in range(2 * n):
        row = list(range(n))
        for i, m, limit in swaps:
            for u in draws:
                if u < limit:
                    break
                rejected += 1
            j = u % m
            row[i], row[j] = row[j], row[i]
        rows.append(row)
    rng.skip(due + rejected)
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


def _size(rows: object) -> int | str:
    """The length of a list or tuple, else the name of its type."""
    return len(rows) if isinstance(rows, (list, tuple)) else type(rows).__name__


def _problems(
    n: int, girl_prefs: object, boy_prefs: object
) -> Iterator[tuple[str, str]]:
    """Yield (kind, message) for each fault of the two tables against size
    n: a side with the wrong number of rows, or a row of the wrong length,
    then every entry that is not an integer, out of range, or a repeat.
    Kinds are those of InstanceLoadError."""
    for side, rows in (("girl", girl_prefs), ("boy", boy_prefs)):
        if (size := _size(rows)) != n:
            yield "size-mismatch", f"{side}_prefs must have exactly {n} rows, got {size}"
            continue
        for i, row in enumerate(rows):
            if (size := _size(row)) != n:
                yield "size-mismatch", f"{side} {i}: row has length {size}, expected {n}"
                continue
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

    Never raises; each entry names the offending table or row.
    """
    n = instance.n
    if n < 1:
        return [f"n must be >= 1, got {n}"]
    problems = _problems(n, instance.girl_prefs, instance.boy_prefs)
    return [message for _, message in problems]


def save(instance: PreferenceInstance, destination: str | Path) -> None:
    """Write the instance as JSON; rank tables are derived, never stored."""
    doc = {
        "n": instance.n,
        "girl_prefs": [list(r) for r in instance.girl_prefs],
        "boy_prefs": [list(r) for r in instance.boy_prefs],
    }
    Path(destination).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load(source: str | Path) -> PreferenceInstance:
    """Read an instance document.

    Raises InstanceLoadError with kind "malformed", "size-mismatch",
    "out-of-range" or "duplicate"; a document nested too deep to parse is
    "malformed".
    """
    try:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InstanceLoadError("malformed", f"cannot parse instance document: {exc}")
    return from_dict(doc)


def from_dict(doc: object) -> PreferenceInstance:
    """Build and check an instance from an already-parsed JSON document.

    Raises the first fault found, with its kind, so the result always
    validates.
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
    for kind, message in _problems(n, girl_prefs, boy_prefs):
        raise InstanceLoadError(kind, message)
    return PreferenceInstance.from_prefs(girl_prefs, boy_prefs)
