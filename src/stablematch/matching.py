"""Stability checking, proposal matching, and per-girl stable-husband search.

Everything here is a pure function of an immutable PreferenceInstance, so
concurrent calls on shared instances are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .instance import PreferenceInstance


@dataclass(frozen=True, order=True)
class BlockingPair:
    """A girl and boy who each prefer the other to their current situation."""

    girl: int
    boy: int


@dataclass(frozen=True)
class Matching:
    """A possibly partial girl-boy pairing.

    husband_of[g] is the boy married to girl g (None if unmatched). Its
    mirror image wife_of[b] is derived at construction, which rejects a
    boy index out of range and a boy married to two girls, so every
    Matching is consistent.
    """

    husband_of: tuple[int | None, ...]
    wife_of: tuple[int | None, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        husband_of = tuple(self.husband_of)
        n = len(husband_of)
        wife: list[int | None] = [None] * n
        for g, b in enumerate(husband_of):
            if b is None:
                continue
            if not 0 <= b < n:
                raise ValueError(f"boy index {b} out of range for n={n}")
            if wife[b] is not None:
                raise ValueError(f"boy {b} is married to two girls")
            wife[b] = g
        object.__setattr__(self, "husband_of", husband_of)
        object.__setattr__(self, "wife_of", tuple(wife))

    @property
    def n(self) -> int:
        return len(self.husband_of)

    @property
    def complete(self) -> bool:
        return all(b is not None for b in self.husband_of)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for g, b in enumerate(self.husband_of):
            if b is not None:
                yield g, b


@dataclass(frozen=True)
class TraceEvent:
    """One row of an enumeration trace.

    kind is "propose" (boy proposed to girl, accepted or not), "output"
    (a stable husband of the designated girl was emitted), or "terminate".
    time is the number of proposals made so far, 1-based at each proposal.
    """

    kind: str
    time: int
    boy: int | None = None
    girl: int | None = None
    accepted: bool | None = None


@dataclass
class HusbandEnumeration:
    """Everything the stable-husband search produced for one girl.

    husbands lists her stable husbands in output order (worst first, then
    strictly improving); matchings[i] is the complete stable matching in
    force when husbands[i] was emitted. pre_output_acceptances counts her
    acceptances that were superseded before the first output; the standing
    offer at the first output becomes that output.
    """

    girl: int
    husbands: list[int]
    matchings: list[Matching]
    trace: list[TraceEvent] | None
    proposal_count: int
    first_output_time: int | None
    pre_output_acceptances: int

    @property
    def acceptances_by_girl(self) -> int:
        """Each husband was an offer she accepted, as was each superseded one."""
        return len(self.husbands) + self.pre_output_acceptances


def find_blocking_pairs(
    instance: PreferenceInstance, matching: Matching
) -> list[BlockingPair]:
    """All blocking pairs of the matching, in lexicographic (girl, boy) order.

    A pair blocks when the girl prefers the boy to her partner (an unmatched
    girl prefers anyone) and the boy symmetrically prefers the girl. The
    matching may be partial but must have the instance's size. Empty result
    means the matching is stable.
    """
    n = instance.n
    if matching.n != n:
        raise ValueError(f"matching has size {matching.n}, instance has n={n}")
    girl_rank = instance.girl_rank
    boy_rank = instance.boy_rank
    out: list[BlockingPair] = []
    for g in range(n):
        husband = matching.husband_of[g]
        g_bar = n if husband is None else girl_rank[g][husband]
        for b in range(n):
            if girl_rank[g][b] >= g_bar:
                continue
            wife = matching.wife_of[b]
            b_bar = n if wife is None else boy_rank[b][wife]
            if boy_rank[b][g] < b_bar:
                out.append(BlockingPair(g, b))
    return out


def gale_shapley_boys_propose(instance: PreferenceInstance) -> Matching:
    """The boy-optimal stable matching via boy-proposing deferred acceptance.

    Each free boy proposes down his list; a girl keeps the best offer seen so
    far. The result is complete, stable, and independent of the order in
    which free boys are scheduled.
    """
    n = instance.n
    girl_rank = instance.girl_rank
    boy_prefs = instance.boy_prefs
    husband: list[int | None] = [None] * n
    next_choice = [0] * n
    free = list(range(n - 1, -1, -1))
    while free:
        b = free.pop()
        h = boy_prefs[b][next_choice[b]]
        next_choice[b] += 1
        current = husband[h]
        if current is None:
            husband[h] = b
        elif girl_rank[h][b] < girl_rank[h][current]:
            husband[h] = b
            free.append(current)
        else:
            free.append(b)
    return Matching(husband)


def stable_husbands(
    instance: PreferenceInstance, girl: int, keep_trace: bool = False
) -> HusbandEnumeration:
    """Every stable husband of one designated girl, each exactly once.

    The search maintains a partial matching in which every married boy holds
    his best possible partner among the stable matchings still under
    consideration. While some boy is free, the lowest-index free boy
    proposes to the best girl he has not yet approached; a girl accepts
    exactly when the proposal beats the best offer she has ever received.
    When nobody is free the current matching is complete and stable: the
    designated girl's partner is emitted, their pair is dissolved, and the
    emitted boy resumes proposing. From then on the designated girl keeps
    raising her recorded standard but never holds a partner; each proposal
    she accepts is emitted immediately as her next stable husband. The
    search stops when some boy has been turned down by all n girls, at
    which point every stable husband has been emitted, worst first and
    strictly improving.

    The first emitted matching equals gale_shapley_boys_propose(instance).
    """
    n = instance.n
    if not 0 <= girl < n:
        raise ValueError(f"girl index {girl} out of range for n={n}")
    girl_rank = instance.girl_rank
    boy_prefs = instance.boy_prefs

    husband: list[int | None] = [None] * n
    best_rank = [n] * n  # best offer ever, per girl; n, above every rank, if none
    next_choice = [0] * n
    t = 0
    first_output_time: int | None = None
    acceptances_by_girl = 0
    husbands: list[int] = []
    matchings: list[Matching] = []
    trace: list[TraceEvent] | None = [] if keep_trace else None

    # Free-boy selection happens only before the first output: a displaced
    # boy proposes at once, and afterwards every girl but the designated one
    # stays married. So the free boys there are exactly those not yet
    # introduced, and the lowest-index one is `introduced`.
    introduced = 0
    proposer: int | None = None
    while True:
        if proposer is None:
            # Select a free boy; if none, the matching is complete and stable.
            if introduced == n:
                s = husband[girl]
                assert s is not None
                husbands.append(s)
                matchings.append(Matching(husband))
                if trace is not None:
                    trace.append(TraceEvent("output", t, boy=s))
                first_output_time = t
                husband[girl] = None
                proposer = s
                continue
            proposer = introduced
            introduced += 1
        p = proposer
        if next_choice[p] == n:
            if trace is not None:
                trace.append(TraceEvent("terminate", t))
            break
        h = boy_prefs[p][next_choice[p]]
        next_choice[p] += 1
        t += 1
        rank = girl_rank[h][p]
        accepted = rank < best_rank[h]
        if trace is not None:
            trace.append(TraceEvent("propose", t, boy=p, girl=h, accepted=accepted))
        if not accepted:
            continue
        best_rank[h] = rank
        if h == girl:
            acceptances_by_girl += 1
            if first_output_time is not None:
                # Emitted immediately; she stays single at her new standard.
                husbands.append(p)
                matchings.append(Matching(husband[:girl] + [p] + husband[girl + 1 :]))
                if trace is not None:
                    trace.append(TraceEvent("output", t, boy=p))
                continue
        # The displaced husband proposes next; after her first offer there is
        # none, and None sends the turn back to free-boy selection.
        proposer, husband[h] = husband[h], p

    return HusbandEnumeration(
        girl=girl,
        husbands=husbands,
        matchings=matchings,
        trace=trace,
        proposal_count=t,
        first_output_time=first_output_time,
        pre_output_acceptances=acceptances_by_girl - len(husbands),
    )
