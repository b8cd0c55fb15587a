"""Acceptance gate: one test per acceptance criterion, one verdict line each.

All arithmetic is exact, so every comparison is strict equality; the only
numeric tolerance in the file is the log10 threshold of criterion 7, which
has a margin of about 4 over float64 noise of ~1e-9.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
"""

import time

import pytest

import test_properties as props
from nilalg import bounds as B
from nilalg import ideal as I
from nilalg import invariants as V
from nilalg import rewrite4 as R
from nilalg.formal import FormalSum, parse_sum

# [DERIVED] golden value: first computation of the p = 3 engine run gave 10,
# inside the proven interval [3d+1, 3d+4] = [7, 10] for d = 2.
GOLDEN_C_4_2_3 = 10
# [DERIVED] golden value: the p = 3 engine run of C(5,2,p) gave 15, the
# value over Q, with the same witness of degree 14.
GOLDEN_C_5_2_3 = 15
# [DERIVED] golden value: the p = 3 engine run of C(4,3,p) gave 12, with the
# witness x3^2.x2^2.x3.x1^3.x2.x1^2 of degree 11 (10 over Q and at p = 5).
GOLDEN_C_4_3_3 = 12


def verdict(num, ok, text):
    print("criterion %2d: %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_01_known_degree_table():
    table = {
        (2, 2, 0): 3, (2, 2, 3): 3, (2, 2, 2): 3, (2, 3, 2): 4,
        (2, 4, 2): 5, (3, 2, 0): 6, (3, 2, 2): 6, (3, 3, 2): 6,
        (3, 2, 3): 7,
    }
    failures = []
    for (n, d, p), expected in table.items():
        start = time.monotonic()
        got = I.nilpotency_degree(n, d, p, max_deg=expected + 1).degree
        elapsed = time.monotonic() - start
        if got != expected or elapsed > 120:
            failures.append((n, d, p, got, elapsed))
    verdict(1, not failures,
            "known nilpotency degrees reproduced exactly; failures=%r" % failures)


def test_criterion_02_exact_4_2_0():
    start = time.monotonic()
    r = I.nilpotency_degree(4, 2, 0, max_deg=11)
    elapsed = time.monotonic() - start
    verdict(2, r.degree == 10 and elapsed <= 1800,
            "C(4,2,0) = %s in %.1fs (need 10, <= 30 min)" % (r.degree, elapsed))


def test_criterion_03_exact_4_2_3_golden():
    start = time.monotonic()
    r = I.nilpotency_degree(4, 2, 3, max_deg=11)
    elapsed = time.monotonic() - start
    ok = r.degree == GOLDEN_C_4_2_3 and 7 <= r.degree <= 10 and elapsed <= 1800
    verdict(3, ok, "C(4,2,3) = %s in %.1fs (golden %d, interval [7,10])"
            % (r.degree, elapsed, GOLDEN_C_4_2_3))


def test_criterion_04_witness_4_2_2():
    start = time.monotonic()
    nonzero = not I.contains(4, 2, parse_sum("x1^3.x2^3", 2, 2))
    elapsed = time.monotonic() - start
    verdict(4, nonzero and elapsed <= 60,
            "x1^3.x2^3 nonzero at (n,p) = (4,2), certifying C > 6 (%.1fs)" % elapsed)


def test_criterion_05_identity_suite():
    checks = []

    def member(n, p, expr, d):
        start = time.monotonic()
        ok = I.contains(n, p, parse_sum(expr, d, p))
        checks.append((expr, ok, time.monotonic() - start))

    def equiv(n, p, expr, d, order):
        start = time.monotonic()
        ok = I.equiv_zero(n, p, parse_sum(expr, d, p), order)
        checks.append((expr, ok, time.monotonic() - start))

    # membership identities in the n = 4 quotient
    member(4, 0, "x1^2.x2.x1^2 + x1^3.x2.x1 + x1.x2.x1^3", 2)
    member(4, 0, "x1^3.x2.x1^2 + x1^2.x2.x1^3", 2)
    member(4, 0, "x1^3.x2.x1^3", 2)
    member(4, 0, "x1^3.x2.x1.x3.x1^2 + x1^3.x2.x1^2.x3.x1", 3)
    member(4, 0, "x1.x2.x1^3.x3.x1^2 - x1^3.x2.x1^2.x3.x1", 3)
    # n x^{n-1} a y^{n-1} = 0 for n = 3, 4
    member(3, 0, "x1^2.x2.x3^2", 3)
    member(4, 0, "x1^3.x2.x3^3", 3)
    # equivalences modulo run-count order at n = 4
    equiv(4, 0, "x1.x2.x1^2 + x1^2.x2.x1", 2, "succ")
    for i in (2, 3):
        equiv(4, 0, "x1^%d.x2.x1.x3.x1" % i, 3, "succ")
        equiv(4, 0, "x1.x2.x1^%d.x3.x1" % i, 3, "succ")
        equiv(4, 0, "x1.x2.x1.x3.x1^%d" % i, 3, "succ")
    equiv(4, 0, "x1^3.x2.x1.x3.x1 - x1.x2.x1^3.x3.x1", 3, "succ")
    equiv(4, 0, "x1.x2.x1^3.x3.x1 - x1.x2.x1.x3.x1^3", 3, "succ")
    equiv(4, 0, "x1.x2.x1.x3.x1.x4.x1", 4, "succ")
    # equivalences modulo run-profile order at n = 5
    equiv(5, 0, "x1.x2.x1.x3.x1 + x1.x3.x1.x2.x1", 3, "gtr")
    equiv(5, 0, "x1.x2.x1.x3.x1.x4.x1", 4, "gtr")

    bad = [(e, t) for e, ok, t in checks if not ok]
    slow = [(e, t) for e, ok, t in checks if t > 10]
    verdict(5, not bad and not slow,
            "identity suite: %d verdicts true, all <= 10 s; bad=%r slow=%r"
            % (len(checks), bad, slow))


def test_criterion_06_bounds_engine():
    ok_n5 = all(
        B.recursive_bound(5, d, p) == 12 * d + 1
        for d in (2, 3, 5, 9)
        for p in (0, 3, 5, 11)
    )
    ok_table = all(
        B.recursive_bound(n, d, 7) == a * d + 1
        for n, a in B.LINEAR_COEFF.items()
        for d in (2, 3, 5)
    )
    s = B.best_bounds(2, 3, 2)
    ok_n2 = s.best_upper.value_exact == 4 and s.best_lower.value_exact == 4
    s2 = B.best_bounds(2, 7, 2)
    ok_n2 = ok_n2 and s2.best_upper.value_exact == 8 == s2.best_lower.value_exact
    verdict(6, ok_n5 and ok_table and ok_n2,
            "recursion gives 12d+1 at n=5, the linear table a_4..a_9 = "
            "8,12,24,30,50,64, and d+1 pinched at n=2, p=2")


def test_criterion_07_comparator_ratio():
    start = time.monotonic()
    table = B.comparator_table(4, 2000, d=2)
    elapsed = time.monotonic() - start
    m = table["min_log10_ratio"]
    verdict(7, m >= 20 and elapsed <= 10,
            "min log10 ratio over n in [4,2000] = %.3f >= 20 (%.2fs)" % (m, elapsed))


def test_criterion_08_consistency():
    engine = {
        (2, 2, 0): 3, (2, 2, 3): 3, (2, 2, 2): 3, (2, 3, 2): 4,
        (2, 4, 2): 5, (3, 2, 0): 6, (3, 2, 2): 6, (3, 3, 2): 6,
        (3, 2, 3): 7, (4, 2, 0): 10, (4, 2, 3): GOLDEN_C_4_2_3,
    }
    bad = []
    for (n, d, p), c in engine.items():
        s = B.best_bounds(n, d, p)
        lo, hi = s.best_lower.value_exact, s.best_upper.value_exact
        if not (lo <= c <= hi):
            bad.append((n, d, p, lo, c, hi))
    verdict(8, not bad, "best_lower <= engine <= best_upper everywhere; bad=%r" % bad)


def test_criterion_09_property_suites():
    props.test_monotone_vanishing()
    props.test_letter_permutation_symmetry()
    props.test_mirror_membership_equivalence()
    for p in (0, 3, 5):
        props.test_canonicalize_random_sums(p)
    props.test_canonical_profile_completeness()
    props.test_unit_substitution_preserves_membership_p2()
    props.test_char0_agrees_with_random_large_prime()
    verdict(9, True, "randomized property suites (fixed seeds) all hold")


def test_criterion_10_invariants():
    timings = {}

    def timed(name, fn):
        start = time.monotonic()
        out = fn()
        timings[name] = time.monotonic() - start
        return out

    gen_ok = all(
        timed("gen p=%d" % p,
              lambda p=p: V.generation_check(2, 2, p, extra_deg=2))["summary"][
            "all_pass"]
        for p in (0, 2, 3)
    )
    newton_ok = timed("newton", lambda: V.newton_sigma_check(2, 2, 0)
                      and V.newton_sigma_check(3, 2, 5))
    import random
    from fractions import Fraction

    def conj():
        rng = random.Random(424242)
        gens = V.generator_set(2, 2, 0).all()
        done = 0
        while done < 100:
            A = [[[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
                 for _ in range(2)]
            g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
                continue
            conj_A = V.conjugate_tuple(
                [[[Fraction(x) for x in row] for row in M] for M in A],
                [[Fraction(x) for x in row] for row in g],
            )
            inv = gens[done % len(gens)]
            if inv.poly.evaluate(V.matrix_values(2, 2, A)) != inv.poly.evaluate(
                V.matrix_values(2, 2, conj_A)
            ):
                return False
            done += 1
        return True

    conj_ok = timed("conjugation", conj)
    slow = {k: t for k, t in timings.items() if t > 120}
    verdict(10, gen_ok and newton_ok and conj_ok and not slow,
            "generation_check p in {0,2,3}, Newton checks, 100 conjugation "
            "samples; slow=%r" % slow)


def test_criterion_11_profile_degree_cap():
    start = time.monotonic()
    ok = True
    for d in range(2, 7):
        profiles = R.canonical_profiles(d)
        best = max(sum(sum(v) for v in c) for c in profiles)
        two = R.max_profile_degree(d, three_letters=2)
        ok = ok and best == 3 * d + 3 == two
    elapsed = time.monotonic() - start
    verdict(11, ok and elapsed <= 5,
            "canonical-profile degree cap = 3d+3, attained with two "
            "(3)-letters, for d <= 6 (%.2fs)" % elapsed)


def test_criterion_12_exact_5_2_0():
    # C(5,2,0) = 15 = n(n+1)/2, Kuzmin's lower bound, as Shestakov-Zhukavets
    # (2004) found; degree 14 is the last with a nonzero component
    start = time.monotonic()
    try:
        r = I.nilpotency_degree(5, 2, 0, max_deg=16)
    finally:
        I.clear_cache()
    elapsed = time.monotonic() - start
    qdims = {tuple(row["delta"]): row["qdim"] for row in r.per_degree
             if sum(row["delta"]) >= 13}
    nonzero = {delta: qdim for delta, qdim in qdims.items() if qdim}
    expected = {(10, 3): 1, (9, 4): 6, (8, 5): 13, (7, 6): 18,
                (10, 4): 1, (9, 5): 3, (8, 6): 4, (7, 7): 5}
    ok = (r.degree == 15 and r.to_json()["witness"] == "x1^4.x2^2.x1^3.x2.x1^2.x2.x1"
          and nonzero == expected
          and [delta for delta in qdims if sum(delta) == 15] == I._sorted_multidegrees(15, 2))
    verdict(12, ok, "C(5,2,0) = %s in %.1fs (need 15; nonzero qdims at degrees 13-14 %r)"
            % (r.degree, elapsed, nonzero))


def test_criterion_13_exact_5_2_3_golden():
    start = time.monotonic()
    try:
        r = I.nilpotency_degree(5, 2, 3, max_deg=16)
        witness = r.to_json()["witness"]
        nonzero = not I.contains(5, 3, parse_sum(witness, 2, 3))
    finally:
        I.clear_cache()
    elapsed = time.monotonic() - start
    verdict(13, r.degree == GOLDEN_C_5_2_3 and nonzero,
            "C(5,2,3) = %s in %.1fs (golden %d), witness %s nonzero: %s"
            % (r.degree, elapsed, GOLDEN_C_5_2_3, witness, nonzero))


def test_criterion_14_exact_4_3_3_golden():
    # every component fits the default column guard, (4,4,4) with 34 650
    # words the widest; degree 11 is nonzero only at (4,4,3) and (5,3,3)
    start = time.monotonic()
    try:
        r = I.nilpotency_degree(4, 3, 3, max_deg=13)
        witness = r.to_json()["witness"]
        nonzero = not I.contains(4, 3, parse_sum(witness, 3, 3))
    finally:
        I.clear_cache()
    elapsed = time.monotonic() - start
    qdims = {tuple(row["delta"]): row["qdim"] for row in r.per_degree}
    top = {delta: qdim for delta, qdim in qdims.items() if sum(delta) == 11 and qdim}
    last = [delta for delta in qdims if sum(delta) == 12]
    ok = (r.degree == GOLDEN_C_4_3_3 and witness == "x3^2.x2^2.x3.x1^3.x2.x1^2" and nonzero
          and top == {(4, 4, 3): 4, (5, 3, 3): 2}
          and last == I._sorted_multidegrees(12, 3) and len(last) == 19
          and not any(qdims[delta] for delta in last))
    verdict(14, ok, "C(4,3,3) = %s in %.1fs (golden %d), witness %s nonzero: %s; "
            "nonzero qdims at degree 11 %r" % (r.degree, elapsed, GOLDEN_C_4_3_3, witness,
                                               nonzero, top))
