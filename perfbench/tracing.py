"""Spans around the stablematch calls a campaign makes, recorded from outside.

`Tracer.installed()` replaces each traced public function, wherever a
stablematch module holds it, with a wrapper that records a span (name,
start, end, parent span, trial) in memory, and restores the originals on
exit. Nothing under src/ changes. Traced campaigns run at workers = 1,
because spans live in this process's memory.

The wrappers also take the exact counts the layers report (proposals,
redundant proposals, husbands, audit violations) and check each trial's
outputs. That work runs inside "bench.check" spans, which are subtracted
from the harness's self time and from the traced wall time. The wrappers'
own bookkeeping around a call the harness makes directly would otherwise
count as harness self time; `bookkeeping_ns` measures it on a no-op, and
`Tracer.seconds` takes it out again.

Random draws are counted without a wrapper per draw: every stream the
package creates is kept, and its draw count is recovered from its final
state, since SplitMix64 adds one fixed odd increment per draw.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from statistics import median

from stablematch import instance as _instance
from stablematch import rng as _rng
from stablematch.matching import find_blocking_pairs, gale_shapley_boys_propose

_Rng = _rng.Rng
_MASK64 = (1 << 64) - 1
_INV_GOLDEN = pow(0x9E3779B97F4A7C15, -1, 1 << 64)

ROOT_SPAN = "harness.run_experiment"
CHECK = "bench.check"

# Traced functions: span name, defining module, attribute, trial role.
# "start" opens a new trial when called directly by the harness, "continue"
# belongs to the trial in progress, None inherits the parent span's trial.
TRACED = (
    ("instance.generate_uniform", "stablematch.instance", "generate_uniform", "start"),
    ("matching.stable_husbands", "stablematch.matching", "stable_husbands", "continue"),
    ("random_model.run", "stablematch.random_model", "run", "start"),
    ("random_model.new_state", "stablematch.random_model", "new_state", None),
    (
        "random_model.audit_window_stats",
        "stablematch.random_model",
        "audit_window_stats",
        "continue",
    ),
    ("harness.summarize", "stablematch.harness", "summarize", None),
)


class Tracer:
    """Spans, exact counts and per-trial check failures of one campaign."""

    def __init__(self, cap: int | None = None, check_every: int = 1) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, trial]
        self.trials = 0
        self.counts = {
            "matching.proposals": 0,
            "matching.husbands": 0,
            "random_model.proposals": 0,
            "random_model.redundant": 0,
            "random_model.audit_violations": 0,
        }
        self.failures: dict[int | None, str] = {}
        self._stack: list[int] = []
        self._streams: list = []
        self._cap = cap
        self._check_every = check_every

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, role: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        at_root = parent is not None and self.spans[parent][0] == ROOT_SPAN
        if role == "start" and at_root:
            self.trials += 1
        if role is not None:
            trial = self.trials - 1 if self.trials else None
        else:
            trial = self.spans[parent][4] if parent is not None else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, trial])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn, role, after):
        def traced(*args, **kwargs):
            idx = self.open(name, role)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                check = self.open(CHECK)
                try:
                    after(self.spans[idx][4], args, result)
                finally:
                    self.close(check)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    @contextmanager
    def installed(self):
        """Trace every call the package makes to the traced functions."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "stablematch" or key.startswith("stablematch.")
        ]
        saved: list[tuple] = []

        def replace_everywhere(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, value))
                        setattr(module, attr, replacement)

        hooks = {
            "matching.stable_husbands": self._after_enumeration,
            "random_model.run": self._after_run,
            "random_model.audit_window_stats": self._after_audit,
        }
        try:
            for name, module, attr, role in TRACED:
                original = getattr(sys.modules[module], attr)
                wrapped = self._wrap(name, original, role, hooks.get(name))
                replace_everywhere(original, wrapped)
            cls = _instance.PreferenceInstance
            saved.append((cls, "from_prefs", cls.__dict__["from_prefs"]))
            cls.from_prefs = staticmethod(
                self._wrap("instance.from_prefs", cls.from_prefs, None, None)
            )
            replace_everywhere(_Rng, self._stream)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def _stream(self, seed: int):
        stream = _Rng(seed)
        self._streams.append((seed & _MASK64, stream))
        return stream

    # -- counts and checks ---------------------------------------------------

    def _fail(self, trial, message: str) -> None:
        self.failures.setdefault(trial, message)

    def _after_enumeration(self, trial, args, enum) -> None:
        self.counts["matching.proposals"] += enum.proposal_count
        self.counts["matching.husbands"] += len(enum.husbands)
        # Holds by construction in stable_husbands; kept as the identity the
        # harness reports, while the two checks after it can fail.
        if enum.acceptances_by_girl != len(enum.husbands) + enum.pre_output_acceptances:
            self._fail(trial, "girl's acceptances != husbands + pre-output acceptances")
        inst = args[0]
        girl = enum.girl
        if [m.husband_of[girl] for m in enum.matchings] != enum.husbands:
            self._fail(trial, "a matching does not give the girl the husband emitted")
        ranks = [inst.girl_rank[girl][b] for b in enum.husbands]
        if any(later >= earlier for earlier, later in zip(ranks, ranks[1:])):
            self._fail(trial, "the girl's husbands do not strictly improve")
        if trial is None or trial % self._check_every:
            return
        first = enum.matchings[0] if enum.matchings else None
        if first is None or first != gale_shapley_boys_propose(inst):
            self._fail(trial, "first matching is not the boy-optimal matching")
        elif find_blocking_pairs(inst, first):
            self._fail(trial, "first matching has a blocking pair")

    def _after_run(self, trial, args, result) -> None:
        outputs, stats = result
        self.counts["random_model.proposals"] += stats.t
        self.counts["random_model.redundant"] += stats.redundant_proposals
        if stats.acceptances_by_girl != len(outputs) + stats.pre_output_acceptances:
            self._fail(trial, "girl's acceptances != outputs + pre-output acceptances")
        times = [t for _, t in outputs]
        if times and (times[0] != stats.first_output_time or times[-1] > stats.t):
            self._fail(trial, "output times disagree with the run's statistics")
        elif any(later <= earlier for earlier, later in zip(times, times[1:])):
            self._fail(trial, "output times do not strictly increase")
        if self._cap is not None and stats.t != self._cap:
            self._fail(trial, f"capped run made {stats.t} proposals, cap {self._cap}")

    def _after_audit(self, trial, args, report) -> None:
        self.counts["random_model.audit_violations"] += sum(
            len(check.violations) for check in report.checks
        )

    # -- results -------------------------------------------------------------

    def draws(self) -> int:
        """Exact number of 64-bit draws taken from every stream created."""
        return sum(
            ((stream._state - seed) * _INV_GOLDEN) & _MASK64
            for seed, stream in self._streams
        )

    def seconds(self, bookkeeping: tuple[float, float] = (0.0, 0.0)) -> dict:
        """Busy seconds per span name, plus derived self times.

        "harness.self" is the root span minus its direct children of other
        layers (the harness's own summarize spans stay in it), minus the
        wrappers' bookkeeping around those direct children: `bookkeeping`
        gives it in ns per call and per check, as `bookkeeping_ns` measures
        it. "instance.shuffle" is generate_uniform minus its rank-table
        child. "traced_wall" is the root span minus the benchmark's check
        spans.
        """
        per_call, per_check = bookkeeping
        busy: dict[str, int] = {}
        outside_harness = 0
        ranks_in_generate = 0
        for name, start, end, parent, _ in self.spans:
            busy[name] = busy.get(name, 0) + (end - start)
            if parent == 0:
                outside_harness += per_check if name == CHECK else per_call
                if not name.startswith("harness."):
                    outside_harness += end - start
            if name == "instance.from_prefs" and parent is not None:
                if self.spans[parent][0] == "instance.generate_uniform":
                    ranks_in_generate += end - start
        out = {name: ns / 1e9 for name, ns in busy.items()}
        root = busy.get(ROOT_SPAN, 0)
        out["harness.self"] = (root - outside_harness) / 1e9
        out["instance.shuffle"] = (
            busy.get("instance.generate_uniform", 0) - ranks_in_generate
        ) / 1e9
        out["traced_wall"] = (root - busy.get(CHECK, 0)) / 1e9
        return out

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def bookkeeping_ns(calls: int = 10_000, reps: int = 5) -> tuple[float, float]:
    """The wrappers' own cost that lands in the caller's span, in ns: per
    traced call without a check, and the extra per call with one. Medians
    over `reps` loops of `calls` calls of a traced no-op, less the cost of
    calling the no-op directly, which an untraced caller pays too."""

    def direct() -> float:
        noop = lambda: None  # noqa: E731
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        return (time.perf_counter_ns() - start) / calls

    def cost(after) -> float:
        tracer = Tracer()
        call = tracer._wrap("noop", lambda: None, None, after)
        root = tracer.open(ROOT_SPAN)
        for _ in range(calls):
            call()
        tracer.close(root)
        _, start, end, _, _ = tracer.spans[root]
        inside = sum(span[2] - span[1] for span in tracer.spans[root + 1 :])
        return (end - start - inside) / calls

    def noop_check(trial, args, result) -> None:
        pass

    plain = median(direct() for _ in range(reps))
    per_call = median(cost(None) for _ in range(reps))
    per_checked_call = median(cost(noop_check) for _ in range(reps))
    return max(per_call - plain, 0.0), max(per_checked_call - per_call, 0.0)


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 for a layer the workload leaves idle."""
    return part / whole if whole else 0.0


def per_layer(
    tracers: list[Tracer], ns_per_draw: float, bookkeeping: tuple[float, float]
) -> dict:
    """Per-layer metrics of traced repetitions of one campaign.

    Times are medians over the repetitions; counts are exact and the same
    in every repetition, since all repetitions share one seed.
    """
    secs = [t.seconds(bookkeeping) for t in tracers]

    def s(name: str) -> float:
        return median(x.get(name, 0.0) for x in secs)

    first = tracers[0]
    c = first.counts
    draws = first.draws()
    run_s = s("random_model.run")
    husbands_s = s("matching.stable_husbands")
    generate_s = s("instance.generate_uniform")
    rm_props = c["random_model.proposals"]
    m_props = c["matching.proposals"]
    drawing_s = run_s + generate_s
    return {
        "rng.draws": (draws, "count"),
        "rng.ns_per_draw": (ns_per_draw, "ns"),
        "rng.share": (ratio(draws * ns_per_draw / 1e9, drawing_s), "ratio"),
        "instance.generate_s": (generate_s, "s"),
        "instance.shuffle_s": (s("instance.shuffle"), "s"),
        "instance.rank_tables_s": (s("instance.from_prefs"), "s"),
        "instance.calls": (first.calls("instance.generate_uniform"), "count"),
        "matching.stable_husbands_s": (husbands_s, "s"),
        "matching.proposals": (m_props, "count"),
        "matching.proposals_per_s": (ratio(m_props, husbands_s), "1/s"),
        "matching.husbands": (c["matching.husbands"], "count"),
        "random_model.run_s": (run_s, "s"),
        "random_model.proposals": (rm_props, "count"),
        "random_model.proposals_per_s": (ratio(rm_props, run_s), "1/s"),
        "random_model.fresh_ratio": (
            ratio(rm_props - c["random_model.redundant"], rm_props),
            "ratio",
        ),
        "random_model.new_state_s": (s("random_model.new_state"), "s"),
        "random_model.audit_s": (s("random_model.audit_window_stats"), "s"),
        "random_model.audit_violations": (c["random_model.audit_violations"], "count"),
        "harness.self_s": (s("harness.self"), "s"),
    }
