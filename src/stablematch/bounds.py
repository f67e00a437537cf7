"""Probability generating functions and the tail inequalities built on them.

Two pgf families cover everything the experiments need:

  BinomialPowerPgf(n, trials)   P(z) = ((n - 1 + z) / n) ** trials,
      the count of draws landing on one fixed cell out of n across
      `trials` uniform draws;

  RisingProductPgf(m)           P(z) = prod_{k=1..m} (k - 1 + z) / k,
      the number of offers accepted by someone who takes her k-th of
      m offers with probability 1/k.

For a nonnegative integer variable X with pgf P,

    Pr(X <= r) <= x**(-r) * P(x)   for 0 < x <= 1,
    Pr(X >= r) <= x**(-r) * P(x)   for x >= 1,

and choosing x well makes these bounds strong. All evaluation happens in
log space so sizes up to 1e9 never overflow. Everything here is a pure
function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class BinomialPowerPgf:
    """pgf ((n - 1 + z) / n) ** trials: hits on one cell of n in `trials` draws."""

    n: int
    trials: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.trials < 0:
            raise ValueError("BinomialPowerPgf requires n >= 1 and trials >= 0")


@dataclass(frozen=True)
class RisingProductPgf:
    """pgf prod_{k=1..m} (k - 1 + z) / k: acceptances under the 1/k rule."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("RisingProductPgf requires m >= 1")


Pgf = BinomialPowerPgf | RisingProductPgf


def eval_log(pgf: Pgf, z: float) -> float:
    """Natural log of P(z) for z >= 0; -inf where P(z) = 0.

    The rising product is evaluated as a log-gamma difference, which keeps
    the relative error near 1e-12 even at m = 1e6 where the literal product
    would need a million factors.
    """
    if z < 0:
        raise ValueError(f"pgf argument must be nonnegative, got {z}")
    if isinstance(pgf, BinomialPowerPgf):
        base = pgf.n - 1 + z
        if base == 0.0:  # n = 1 and z = 0: P(z) = z ** trials
            return 0.0 if pgf.trials == 0 else float("-inf")
        return pgf.trials * (math.log(base) - math.log(pgf.n))
    if z == 0.0:
        return float("-inf")  # she always accepts a first offer, so Pr(X=0)=0
    if z == 1.0:
        return 0.0
    m = pgf.m
    if z > m:
        # The log-gamma difference is ~m*log(z) hiding under values of size
        # z*log(z); past z = m the cancellation would eat it, so evaluate
        # P(z) = z**m / m! * prod_{j<m} (1 + j/z) in a form that never cancels.
        return m * math.log(z) + _log1p_sum(m - 1, z) - math.lgamma(m + 1)
    return math.lgamma(m + z) - math.lgamma(z) - math.lgamma(m + 1)


# Euler-Maclaurin corrections B_2k / (2k)! * (2k - 2)!, with the power
# 2k - 1 of 1 / (z + x) they multiply.
_EM_TERMS = ((1 / 12, 1), (-1 / 360, 3), (1 / 1260, 5))


def _log1p_sum(top: int, z: float) -> float:
    """sum_{j=1..top} log1p(j / z) for z > top, in O(1) time.

    Up to top = 64 the terms are summed. Past it, Euler-Maclaurin on
    f(x) = log1p(x / z) over [0, top] gives the closed-form integral
    (z + top) * log1p(top / z) - top, the end term f(top) / 2 and the
    corrections B_2k / (2k)! * (f'(top) - f'(0)) and so on, where the
    (2k - 1)-th derivative is (2k - 2)! / (z + x)**(2k - 1). Since z > 64
    there, the first omitted correction is below 1e-16.
    """
    if top <= 64:
        return sum(math.log1p(j / z) for j in range(1, top + 1))
    edge = math.log1p(top / z)
    total = (z + top) * edge - top + 0.5 * edge
    for coef, power in _EM_TERMS:
        total += coef * ((z + top) ** -power - z**-power)
    return total


@dataclass(frozen=True)
class TailBound:
    """One evaluated tail inequality: Pr(X <=/>= r) <= value, via point x."""

    direction: str  # "lower" bounds Pr(X <= r); "upper" bounds Pr(X >= r)
    r: float
    x: float
    value: float
    log_value: float

    def to_dict(self) -> dict:
        return asdict(self)


def tail_bound(pgf: Pgf, direction: str, r: float, x: float) -> TailBound:
    """Evaluate x**(-r) * P(x), clamped to 1, at one legal point x.

    "lower" requires 0 < x <= 1 and bounds Pr(X <= r); "upper" requires
    x >= 1 and bounds Pr(X >= r).
    """
    if not math.isfinite(r):
        raise ValueError(f"threshold r must be finite, got {r}")
    if direction == "lower":
        if not 0.0 < x <= 1.0:
            raise ValueError(f"lower tail requires 0 < x <= 1, got {x}")
    elif direction == "upper":
        if not 1.0 <= x < math.inf:
            raise ValueError(f"upper tail requires finite x >= 1, got {x}")
    else:
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    log_value = eval_log(pgf, x) - r * math.log(x)
    value = 1.0 if log_value >= 0.0 else math.exp(log_value)
    return TailBound(direction, r, x, value, min(log_value, 0.0))


def optimize_tail(pgf: Pgf, direction: str, r: float) -> TailBound:
    """The best tail bound over all legal x, by golden-section search.

    The objective log P(e^s) - r*s is convex in s = log x, so a bracketed
    golden-section search finds its minimum; the search works on any pgf
    family without derivatives. The returned bound is the best point
    actually probed, so it never exceeds the bound at any probed x.
    """
    if not 0 <= r < math.inf:
        raise ValueError(f"threshold r must be nonnegative and finite, got {r}")

    def objective(s: float) -> float:
        return eval_log(pgf, math.exp(s)) - r * s

    # Bracket the minimum on the legal half-line in s = log x. The +-600
    # limits keep x = exp(s) a positive finite float.
    if direction == "upper":
        lo, hi = 0.0, 1.0
        while hi < 600.0 and objective(hi) < objective(hi / 2):
            hi = min(hi * 2, 600.0)
    elif direction == "lower":
        lo, hi = -1.0, 0.0
        while lo > -600.0 and objective(lo) < objective(lo / 2):
            lo = max(lo * 2, -600.0)
    else:
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    best_s, best_f = (c, fc) if fc <= fd else (d, fd)
    while b - a > 1e-12 + 1e-9 * max(abs(a), abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
            if fc < best_f:
                best_s, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
            if fd < best_f:
                best_s, best_f = d, fd
    for s in (lo, hi):  # endpoints are legal probes too
        fs = objective(s)
        if fs < best_f:
            best_s, best_f = s, fs
    if best_f >= 0.0:  # nothing beat the trivial bound at x = 1
        return TailBound(direction, r, 1.0, 1.0, 0.0)
    return TailBound(direction, r, math.exp(best_s), math.exp(best_f), best_f)


def harmonic(m: int) -> float:
    """H_m, summed directly (correctly rounded, by math.fsum) up to 1e6 and
    by asymptotic expansion beyond, so that the two branches meet within
    an ulp."""
    if m < 0:
        raise ValueError("harmonic number index must be nonnegative")
    if m <= 10**6:
        return math.fsum(1.0 / k for k in range(1, m + 1))
    return math.log(m) + _EULER_GAMMA + 1.0 / (2.0 * m) - 1.0 / (12.0 * m * m)


def harmonic_second(m: int) -> float:
    """Second-order harmonic number sum_{k<=m} 1/k^2, summed directly (by
    math.fsum) up to 1e6 and by asymptotic expansion beyond."""
    if m <= 10**6:
        return math.fsum(1.0 / (k * k) for k in range(1, m + 1))
    return math.pi**2 / 6 - 1.0 / m + 1.0 / (2.0 * m * m) - 1.0 / (6.0 * m**3)


_EULER_GAMMA = 0.5772156649015329


def first_output_window(n: float) -> int | None:
    """floor(n ln n ln ln n), the proposal window of the first output (a
    coupon-collector time); None where ln ln n <= 0, that is for n <= e."""
    ln_n = math.log(n)
    return math.floor(n * ln_n * math.log(ln_n)) if ln_n > 1 else None


@dataclass(frozen=True)
class HusbandCountEnvelope:
    """Derived quantities framing the expected stable-husband count.

    lower/upper bracket the count as [c*ln n, C*ln n]; limit_lower and
    limit_upper are the asymptotic rates those constants approach (ln n / 2
    and ln n). fresh_proposal_floor is the guaranteed fresh-proposal count
    per girl in a floor(n^(1+delta)) window; first_output_window bounds the
    proposal count before the first output; pre_output_proposal_ceiling
    bounds proposals to one girl within that window, and
    pre_output_acceptance_ceiling the acceptances among them. The
    acceptance ceiling is a leading-order rate whose additive constant is
    unspecified.
    """

    n: float
    c: float
    C: float
    delta: float
    epsilon: float
    lower: float
    upper: float
    limit_lower: float
    limit_upper: float
    fresh_proposal_floor: float
    first_output_window: int | None
    pre_output_proposal_ceiling: float | None
    pre_output_acceptance_ceiling: float | None

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "note": "pre_output_acceptance_ceiling is a leading-order rate; "
            "its additive constant is unspecified",
        }


def husband_count_envelope(
    n: float, c: float, C: float, delta: float, epsilon: float
) -> HusbandCountEnvelope:
    """Feasibility-check the constants and compute the count envelope.

    Requires 0 < c < 1/2 < 1 < C, 0 < delta < 1/2, epsilon > 0, and the
    combination to be achievable: (1 - epsilon) * delta > c and
    1 + epsilon < C. Each violated condition is named explicitly.
    """
    if not 1 < n < math.inf:
        raise ValueError(f"n must be finite and exceed 1 so ln n is positive, got {n}")
    if not 0 < c < 0.5:
        raise ValueError(f"c must lie in (0, 1/2), got {c}")
    if not 1 < C < math.inf:
        raise ValueError(f"C must be finite and exceed 1, got {C}")
    if not 0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (1 - epsilon) * delta > c:
        raise ValueError(
            f"infeasible: (1 - epsilon) * delta = {(1 - epsilon) * delta} "
            f"must exceed c = {c}"
        )
    if not 1 + epsilon < C:
        raise ValueError(
            f"infeasible: 1 + epsilon = {1 + epsilon} must be below C = {C}"
        )
    ln_n = math.log(n)
    window = first_output_window(n)
    proposal_ceiling: float | None = None
    acceptance_ceiling: float | None = None
    if window is not None:
        m = ln_n * math.log(ln_n) ** 2
        proposal_ceiling = m
        if m > 1:
            acceptance_ceiling = m / math.log(m) ** 3
    return HusbandCountEnvelope(
        n=n,
        c=c,
        C=C,
        delta=delta,
        epsilon=epsilon,
        lower=c * ln_n,
        upper=C * ln_n,
        limit_lower=0.5 * ln_n,
        limit_upper=ln_n,
        fresh_proposal_floor=0.5 * n**delta / ln_n,
        first_output_window=window,
        pre_output_proposal_ceiling=proposal_ceiling,
        pre_output_acceptance_ceiling=acceptance_ceiling,
    )
