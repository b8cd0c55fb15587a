"""Randomized invariant suites with fixed seeds."""

import itertools
import random

import pytest

from nilalg import ideal as I
from nilalg import rewrite4 as R
from nilalg import words as W
from nilalg.formal import FormalSum


def random_sum(rng, delta, p, nterms=3):
    ws = W.enumerate_words(delta)
    d = len(delta)
    terms = {}
    for w in rng.sample(ws, min(nterms, len(ws))):
        c = rng.randint(1, p - 1) if p else rng.randint(-3, 3) or 1
        terms[w] = c
    return FormalSum(terms, d, p)


def small_multidegrees(d, max_total, min_total=1):
    out = []
    for total in range(min_total, max_total + 1):
        for delta in itertools.product(range(total + 1), repeat=d):
            if sum(delta) == total:
                out.append(delta)
    return out


def test_monotone_vanishing():
    # once every component of one total degree vanishes, every component of
    # each higher degree vanishes too (the quotient is generated in degree 1)
    for n, d, p, top in [(2, 2, 0, 6), (2, 2, 2, 6), (3, 2, 3, 8)]:
        by_total = {}
        for total in range(1, top + 1):
            deltas = [x for x in small_multidegrees(d, total, total)]
            by_total[total] = all(
                I.quotient_dimension(n, d, p, delta) == 0 for delta in deltas
            )
        vanished = False
        for total in range(1, top + 1):
            if vanished:
                assert by_total[total], (n, d, p, total)
            vanished = vanished or by_total[total]
        assert vanished  # the top degree is past the nilpotency degree


def test_letter_permutation_symmetry():
    for n, p in [(3, 0), (4, 3), (3, 2)]:
        for d in (2, 3):
            for delta in small_multidegrees(d, 7 if d == 2 else 6):
                q = I.quotient_dimension(n, d, p, delta)
                for perm in itertools.permutations(delta):
                    assert I.quotient_dimension(n, d, p, perm) == q, (delta, perm)


def test_mirror_membership_equivalence():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.choice([3, 4])
        p = rng.choice([0, 2, 5])
        delta = rng.choice([(3, 1), (2, 2), (3, 2), (2, 2, 1)])
        f = random_sum(rng, delta, p)
        if f.is_zero():
            continue
        assert I.contains(n, p, f) == I.contains(n, p, I.mirror(f))
    # and on genuine members the mirror stays a member
    basis = I.component_basis(4, 2, 0, (3, 2))
    for cols, vals in basis.echelon.rows[:10]:
        f = FormalSum({basis.words[c]: v for c, v in zip(cols, vals)}, 2, 0)
        assert I.contains(4, 0, I.mirror(f))


@pytest.mark.parametrize("p", [0, 3, 5])
def test_canonicalize_random_sums(p):
    rng = random.Random(100 + p)
    deltas = [delta for delta in small_multidegrees(3, 8, 2) if max(delta) <= 6]
    for _ in range(25):
        delta = rng.choice(deltas)
        f = random_sum(rng, delta, p, nterms=4)
        g = R.canonicalize(len(delta), p, f)  # raises on any defect
        assert I.contains(4, p, f - g)
        assert R.canonicalize(len(delta), p, g) == g
        for w in g.terms:
            assert R.is_canonical_word(w, len(delta))


def test_canonical_profile_completeness():
    # every nonzero word in the p = 0 quotient at d = 2 has a canonical
    # profile: non-pivot words of nonvanishing components are canonical
    for delta in small_multidegrees(2, 8, 2):
        basis = I.component_basis(4, 2, 0, delta)
        for w in basis.nonpivot_words():
            assert R.is_canonical_word(w, 2), w


def test_unit_substitution_preserves_membership_p2():
    # n = 4, p = 2: deleting a letter of degree <= 3 keeps ideal membership
    rng = random.Random(7)
    checked = 0
    deltas = [(2, 2), (3, 2), (3, 3), (2, 2, 1), (3, 1, 1), (1, 3, 2)]
    while checked < 100:
        delta = rng.choice(deltas)
        d = len(delta)
        basis = I.component_basis(4, d, 2, delta)
        rows = [FormalSum({basis.words[c]: v for c, v in zip(*row)}, d, 2)
                for row in basis.echelon.rows]
        if not rows:
            continue
        f = rng.choice(rows)
        g = rng.choice(rows)
        h = f if rng.random() < 0.5 else f + g
        if h.is_zero():
            continue
        k = rng.randint(1, d)
        if delta[k - 1] > 3 or sum(delta) == delta[k - 1]:
            continue
        assert I.contains(4, 2, h)
        assert I.contains(4, 2, I.substitute_unit(h, k))
        checked += 1
    assert checked == 100


def test_char0_agrees_with_random_large_prime():
    rng = random.Random(2024)
    primes = [1_000_003, 999_999_937, 2_147_483_647, 32_452_843]
    for n in (2, 3, 4):
        for delta in small_multidegrees(2, 7):
            q0 = I.quotient_dimension(n, 2, 0, delta)
            qp = I.quotient_dimension(n, 2, rng.choice(primes), delta)
            assert q0 == qp, (n, delta)


def test_reduce_idempotent_random():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.choice([3, 4])
        p = rng.choice([0, 3])
        delta = rng.choice([(3, 1), (2, 2), (3, 2), (2, 2, 2)])
        f = random_sum(rng, delta, p)
        g = I.reduce(n, p, f)
        assert I.reduce(n, p, g) == g
        assert I.contains(n, p, f - g)
