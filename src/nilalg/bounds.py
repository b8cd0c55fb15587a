"""Closed-form and recursive bounds on the nilpotency degree C(n, d, p).

Every bound carries its applicability condition on the characteristic, the
direction, a log10 value that is always present, and its exact integer when
it has one of fewer than _EXACT_DIGIT_LIMIT digits (the comparator bounds
grow like n^(n^3) and are only ever needed in log space).
"""

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

from .formal import check_characteristic

UPPER = "upper"
LOWER = "lower"

# coefficients a_n of the linear-in-d bound for 4 <= n <= 9, n/2 < p <= n
LINEAR_COEFF = {4: 8, 5: 12, 6: 24, 7: 30, 8: 50, 9: 64}

_EXACT_DIGIT_LIMIT = 40  # an exact value is kept only when its log10 is below this

# the largest n recursive_bound takes: its cost grows like n^0.75 and its
# cache like sqrt(n) (d = 2, p = 0, on a 2-core machine: 0.3 s and 6 322
# entries at 10^7, 1.6 s at 10^8, about a minute at 10^10)
RECURSIVE_N_LIMIT = 10**7


@dataclass
class BoundResult:
    formula_id: str
    direction: str
    value_exact: int | None
    value_log10: float
    applicability: str
    citation: str
    conditional: bool = False

    def sort_log10(self):
        if self.value_exact is not None and self.value_exact > 0:
            return math.log10(self.value_exact)
        return self.value_log10


@dataclass
class BoundSummary:
    n: int
    d: int
    p: int
    all: list
    best_upper: BoundResult
    best_lower: BoundResult
    assume_conjecture_n2: bool = False

    def to_json(self):
        return asdict(self)


def _validate(n, d, p):
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    check_characteristic(p)


def _strict_int_bound(value):
    """Integer upper bound from a strict inequality C < value (a Fraction)."""
    return (value.numerator - 1) // value.denominator


def exact_known(n, d, p):
    """The exact nilpotency degree where it is known, else None."""
    _validate(n, d, p)
    if n == 1:
        return 1
    if d == 1:
        return n
    if n == 2:
        return d + 1 if p == 2 else 3
    if n == 3:
        if p == 0 or p > 3:
            return 6
        if p == 2:
            return 6 if d == 2 else d + 3
        return 3 * d + 1  # p == 3
    if n == 4 and p == 0:
        return 10
    if (n, d, p) == (4, 3, 3):
        # [DERIVED] nilalg exact --n 4 --d 3 --p 3 --max-deg 13, the C(4,3,3)
        # step of the tier-1 workflow and acceptance criterion 14
        return 12
    if n == 5 and d == 2 and p == 0:
        return 15  # nilpotency_degree(5, 2, 0, 16); Shestakov-Zhukavets 2004
    return None


@lru_cache(maxsize=None)
def _best_upper_value(n, d, p):
    """Best available integer upper bound on C(n, d, p), for use inside the
    recursion.  The recursion's right-hand side is monotone in these values,
    so any valid upper bound may stand in for the true degree."""
    v = exact_known(n, d, p)
    candidates = [] if v is None else [v]
    if p == 0 or 2 * p > n:
        candidates.append(recursive_bound(n, d, p))
    for b in closed_form_bounds(n, d, p):
        if b.value_exact is not None:
            candidates.append(b.value_exact)
    return min(candidates)


def recursive_bound(n, d, p):
    """The recursive upper bound d * sum_{i=2..n} (i-1) C(floor(n/i), d) + 1.

    Valid for p = 0 or p > n/2.  Inner degrees are replaced by their best
    available upper bounds, which is sound by monotonicity of the sum.  The
    sum runs over the O(sqrt n) blocks a..b of i with one value of n // i,
    where sum_{i=a..b} (i-1) = (a+b-2)(b-a+1)/2.
    """
    _validate(n, d, p)
    if p != 0 and 2 * p <= n:
        raise ValueError("recursive bound needs p = 0 or p > n/2, got p=%d" % p)
    if n > RECURSIVE_N_LIMIT:
        raise ValueError("recursive bound takes n <= %d, got n=%d" % (RECURSIVE_N_LIMIT, n))
    total = 0
    a = 2
    while a <= n:
        q = n // a
        b = n // q
        total += (a + b - 2) * (b - a + 1) // 2 * _best_upper_value(q, d, p)
        a = b + 1
    return d * total + 1


def _belov_kharitonov_log10(n, d):
    """log10 of the two Belov-Kharitonov bounds (Cor. 1.16, Thm. 1.17)."""
    log3 = math.log(3)
    log_n = math.log10(n)
    bk1 = (math.log(64) / log3 + 5) * math.log10(4) + 12 * (
        math.log(4 * n) / log3 + 1
    ) * log_n + math.log10(d)
    bk2 = math.log10(256) + (8 * math.log2(n) + 22) * log_n + math.log10(d)
    return bk1, bk2


def _exp_half(n, d):
    """The half-exponential bound C < factor * 2^(n/2) * d, factor 2 once
    n >= 30 (else 4): the factor and the bound's log10."""
    factor = 2 if n >= 30 else 4
    return factor, math.log10(factor) + n / 2 * math.log10(2) + math.log10(d)


def closed_form_bounds(n, d, p, assume_conjecture_n2=False):
    """All applicable closed-form upper bounds at (n, d, p).

    Each formula is written once, as its log10 value and, when it has an
    exact integer form, a thunk for that integer.  The thunk is evaluated
    only when the log10 value is below _EXACT_DIGIT_LIMIT, so value_exact
    is None above that many digits and value_log10 is always present.
    """
    _validate(n, d, p)
    if n < 2 or d < 2:
        return []
    out = []
    log_n = math.log10(n)
    log_d = math.log10(d)

    def emit(formula_id, log10_value, exact, cond, citation, conditional=False):
        value = exact() if exact is not None and log10_value < _EXACT_DIGIT_LIMIT else None
        out.append(BoundResult(formula_id, UPPER, value, log10_value, cond, citation,
                               conditional))

    if p == 0 or p > n:
        emit("nagata_higman", n * math.log10(2), lambda: 2**n - 1, "p = 0 or p > n",
             "Nagata-Higman theorem (Dubnov-Ivanov 1943)")
    if p == 0:
        emit("razmyslov", 2 * log_n, lambda: n * n, "p = 0", "Razmyslov 1974")
    if p > n and n >= 3:
        emit("doubling_sharpened", math.log10(7) + (n - 3) * math.log10(2),
             lambda: 7 * 2 ** (n - 3) - 1, "p > n, n >= 3",
             "doubling recursion C(n) <= 2 C(n-1) + 1 seeded with C(3) = 6")

    # polynomial-in-n bound C < n^(log2(3d+2)+1), a power of n when 3d+2 is a
    # power of two
    poly_log10 = (math.log2(3 * d + 2) + 1) * log_n
    power = (3 * d + 2).bit_length()
    poly_exact = (lambda: n**power - 1) if (3 * d + 2) & (3 * d + 1) == 0 else None
    if p == 0:
        emit("poly_in_n_char0_extension", poly_log10, poly_exact,
             "p = 0 (stated for p > n/2; the derivation also covers p = 0)",
             "polynomial growth in n for fixed d, characteristic-0 extension")
    elif 2 * p > n:
        emit("poly_in_n", poly_log10, poly_exact, "p > n/2",
             "polynomial growth in n for fixed d")
        factor, half_log10 = _exp_half(n, d)
        emit("exp_half", half_log10,
             (lambda: factor * 2 ** (n // 2) * d - 1) if n % 2 == 0 else None,
             "p > n/2", "half-exponential bound, linear in d")
        if n in LINEAR_COEFF and p <= n:
            a = LINEAR_COEFF[n]
            emit("small_n_linear", math.log10(a * d + 1), lambda: a * d + 1,
                 "4 <= n <= 9, n/2 < p <= n", "linear-in-d table for small n")

    # comparator bounds, any characteristic
    emit("klein_small", 6 * log_n + n * log_d - math.log10(6),
         lambda: _strict_int_bound(Fraction(n**6 * d**n, 6)), "any p", "Klein 2000")
    m = n // 2
    emit("klein_large", n**3 * log_n + m * log_d - math.lgamma(m) / math.log(10),
         lambda: _strict_int_bound(Fraction(n ** (n**3) * d**m, math.factorial(m - 1))),
         "any p", "Klein 2000")
    bk1, bk2 = _belov_kharitonov_log10(n, d)
    emit("belov_kharitonov_1", bk1, None, "any p", "Belov-Kharitonov 2012, Cor. 1.16")
    emit("belov_kharitonov_2", bk2, None, "any p", "Belov-Kharitonov 2012, Thm. 1.17")

    if n == 4 and p >= 3:
        top = 3 * d + 4 if p == 3 else 13
        emit("n4_interval_upper", math.log10(top), lambda: top,
             "n = 4, p = 3" if p == 3 else "n = 4, p > 3",
             "canonical-form analysis for n = 4")

    if assume_conjecture_n2:
        if 2 * p > n and p <= n:
            emit("modulo_conjecture_n2", math.log10(n * n * math.log(n) * d), None,
                 "n/2 < p <= n, conditional on C <= n^2 for p > n",
                 "harmonic-sum refinement, conditional", conditional=True)
        if p > n:
            emit("conjecture_n2", 2 * log_n, lambda: n * n, "p > n, conjectural",
                 "conjectured extension of the characteristic-0 n^2 bound",
                 conditional=True)
    return out


def lower_bounds(n, d, p):
    """All applicable lower bounds at (n, d, p)."""
    _validate(n, d, p)
    out = []

    def emit(formula_id, value, cond, citation):
        out.append(
            BoundResult(formula_id, LOWER, value, math.log10(value), cond, citation)
        )

    if p == 0 or p > n:
        emit("kuzmin", n * (n + 1) // 2, "p = 0 or p > n", "Kuzmin 1975")
    if 0 < p <= n:
        emit("generator_count", d, "0 < p <= n", "DKZ 2002")
    emit("single_letter", n, "any p", "C(n,1) = n and monotonicity in d")
    # exact_known knows nothing above n = 5 unless d = 1
    for n_prev in range(n - 1 if d == 1 else min(n - 1, 5), 1, -1):
        v = exact_known(n_prev, d, p)
        if v is not None:
            emit(
                "monotone_from_n%d" % n_prev,
                v,
                "any p (monotonicity in n)",
                "exact value at n = %d" % n_prev,
            )
            break
    if n == 4:
        if p == 2:
            emit("n4_interval_lower", 3 * d + 1, "n = 4, p = 2",
                 "x1^3...xd^3 survives at p = 2")
        elif p == 3:
            emit("n4_interval_lower", 3 * d + 1, "n = 4, p = 3",
                 "monotonicity from n = 3 at p = 3")
        elif d >= 2:
            emit("n4_interval_lower", 10, "n = 4, p = 0 or p > 3",
                 "Kuzmin value holds at n = 4 (Vaughan-Lee 1993)")
    return out


def best_bounds(n, d, p, assume_conjecture_n2=False):
    """Best applicable upper and lower bounds, with the full list attached."""
    _validate(n, d, p)
    entries = []
    exact = exact_known(n, d, p)
    if exact is not None:
        entries += [BoundResult("exact", direction, exact, math.log10(exact),
                                "exact value known", "known-values table")
                    for direction in (UPPER, LOWER)]
    entries.extend(closed_form_bounds(n, d, p, assume_conjecture_n2))
    if n >= 2 and (p == 0 or 2 * p > n):
        v = recursive_bound(n, d, p)
        entries.append(
            BoundResult("recursive", UPPER, v, math.log10(v),
                        "p = 0 or p > n/2", "recursive degree bound")
        )
    entries.extend(lower_bounds(n, d, p))
    # conditional (conjecture-dependent) entries are listed but never chosen
    uppers = [b for b in entries if b.direction == UPPER and not b.conditional]
    lowers = [b for b in entries if b.direction == LOWER and not b.conditional]
    best_upper = min(uppers, key=lambda b: (b.sort_log10(), b.value_exact is None))
    best_lower = max(lowers, key=lambda b: (b.sort_log10(), b.value_exact is not None))
    return BoundSummary(n, d, p, entries, best_upper, best_lower,
                        assume_conjecture_n2)


def comparator_ratio_log10(n, d=2):
    """log10 of (best Belov-Kharitonov bound) / (half-exponential bound).

    Both sides are linear in d, so the ratio does not depend on d.
    """
    _, half_log10 = _exp_half(n, d)
    return min(_belov_kharitonov_log10(n, d)) - half_log10


def comparator_rows(n_start, n_stop, d):
    """The rows (n, log10 ratio) of the comparator sweep, made one at a time."""
    return ((n, comparator_ratio_log10(n, d)) for n in range(n_start, n_stop + 1))


def comparator_table(n_start=4, n_stop=2000, d=2):
    """Rows (n, log10 ratio) for the comparator sweep, plus the minimum."""
    rows = list(comparator_rows(n_start, n_stop, d))
    return {"rows": rows, "min_log10_ratio": min(r for _, r in rows)}
