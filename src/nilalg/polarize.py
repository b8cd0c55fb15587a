"""Multihomogeneous polarizations of x^n and their substitution instances.

t_theta(n, theta, (a_1..a_r)) is the sum over all ways to arrange theta_1
copies of a_1, ..., theta_r copies of a_r into a product of n factors.  The
bordered instances u * t_theta(...) * v of fixed multidegree span the
corresponding graded component of the relation ideal of the nil algebra.

bare_instances enumerates the unbordered instances at exact multidegree:
a branch of the (theta_i, a_i) search is cut as soon as the letters left
cannot give every later slot a letter, and the last pair's argument
multidegree is budget/theta_i.  The arrangements of each theta and the
candidate arguments of each (budget, theta_i, spare slots) are computed once
per process.  The component builder borders these instances by letters
recursively; the tests check its span against the plain enumeration of all
bordered instances.
"""

from functools import lru_cache

from . import words as W
from .formal import FormalSum, accumulate


@lru_cache(maxsize=None)
def _arrangements(counts):
    """Distinct sequences using counts[i] copies of symbol i, as a tuple."""
    total = sum(counts)
    seq = []
    counts = list(counts)
    out = []

    def rec():
        if len(seq) == total:
            out.append(tuple(seq))
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                seq.append(i)
                rec()
                seq.pop()
                counts[i] += 1

    rec()
    return tuple(out)


def t_theta(n, theta, args, p=0, d=None):
    """The polarization T_theta(a_1,...,a_r) as a FormalSum.

    Sum over all arrangements s of the multiset {i with multiplicity
    theta_i} of the concatenation a_{s(1)} ... a_{s(n)}.  Total coefficient
    mass is n!/prod(theta_i!) before reduction mod p.
    """
    theta = tuple(theta)
    if sum(theta) != n:
        raise ValueError("|theta| = %d != n = %d" % (sum(theta), n))
    if any(t <= 0 for t in theta):
        raise ValueError("theta entries must be positive: %r" % (theta,))
    if len(args) != len(theta):
        raise ValueError("need %d argument words, got %d" % (len(theta), len(args)))
    args = [tuple(a) for a in args]
    if d is None:
        d = max(max(a) for a in args)
    for a in args:
        W.validate_word(a, d)
    terms = accumulate(
        ((tuple(letter for i in s for letter in args[i]), 1) for s in _arrangements(theta)),
        p,
    )
    return FormalSum(terms, d, p, _normalized=True)


def _sub_multidegrees(budget, scale):
    """All nonzero mu with scale*mu <= budget componentwise, ascending."""
    ranges = [range(0, b // scale + 1) for b in budget]
    out = []

    def rec(i, acc):
        if i == len(ranges):
            if any(acc):
                out.append(tuple(acc))
            return
        for e in ranges[i]:
            rec(i + 1, acc + [e])

    rec(0, [])
    out.sort()
    return out


@lru_cache(maxsize=None)
def _arguments(budget, theta_i, spare):
    """(mu, words of multidegree mu) for the a_i that can still finish a multiset.

    mu runs ascending over the nonzero multidegrees with theta_i * mu <=
    budget.  With spare == 0 slots left, only mu = budget / theta_i closes
    the budget exactly; otherwise the budget left must hold at least one
    letter per spare slot.
    """
    if spare == 0:
        if any(b % theta_i for b in budget) or not any(budget):
            return ()
        mu = tuple(b // theta_i for b in budget)
        return ((mu, tuple(W.enumerate_words(mu))),)
    total = sum(budget)
    return tuple(
        (mu, tuple(W.enumerate_words(mu)))
        for mu in _sub_multidegrees(budget, theta_i)
        if total - theta_i * sum(mu) >= spare
    )


def _pair_multisets(n, budget):
    """The multisets of (theta_i, a_i) pairs, sorted and so deduplicated up
    to permutation, with sum(theta) = n and sum theta_i * mdeg(a_i) = budget.

    The search does not visit the branches that cannot close the budget:
    later pairs have theta_j >= theta_i, and every later slot needs at least
    one letter.
    """

    def rec(n_left, budget_left, min_pair, acc):
        if n_left == 0:
            yield acc
            return
        for theta_i in range(max(min_pair[0], 1), n_left + 1):
            spare = n_left - theta_i
            if 0 < spare < theta_i:
                continue
            for mu, words in _arguments(budget_left, theta_i, spare):
                new_budget = tuple(b - theta_i * m for b, m in zip(budget_left, mu))
                for a in words:
                    pair = (theta_i, a)
                    if pair < min_pair:
                        continue
                    yield from rec(spare, new_budget, pair, acc + [pair])

    yield from rec(n, tuple(budget), (0, ()), [])


def bare_instances(n, delta, p=0):
    """Unbordered polarization instances of multidegree exactly delta.

    Yields every nonzero t_theta(n, theta, args) with sum of theta_i *
    mdeg(a_i) equal to delta, deduplicated up to pair permutation.
    """
    d = len(delta)
    for pairs in _pair_multisets(n, delta):
        f = t_theta(n, [t for t, _ in pairs], [a for _, a in pairs], p=p, d=d)
        if not f.is_zero():
            yield f
