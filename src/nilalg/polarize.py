"""Multihomogeneous polarizations of x^n and their substitution instances.

t_theta(n, theta, (a_1..a_r)) is the sum over all ways to arrange theta_1
copies of a_1, ..., theta_r copies of a_r into a product of n factors.  The
arrangements are the words of multidegree theta (words.multiset_words),
letter i standing for a_i.  The bordered instances u * t_theta(...) * v of
fixed multidegree span the corresponding graded component of the relation
ideal of the nil algebra.

bare_instances enumerates the unbordered instances at exact multidegree by
a search over cached lists of candidate pairs (theta_i, a_i) that cuts a
branch once the letters left cannot give every later slot a letter.
Argument words are pairwise distinct: over Z, pairs (theta_i, a), (theta_j,
a) give binom(theta_i + theta_j, theta_i) times the instance with the one
pair (theta_i + theta_j, a), so merging ends in a generated multiset and no
span changes at any p.  Rows {column: coefficient} are emitted directly:
an argument word is an integer of (d-1).bit_length() bits per letter, an
arrangement's word is shifts and ors of these, and one dict gives its
column.  An instance is skipped when its
largest argument word w = b z (z a letter, b nonempty) has theta 1 and b is
at least every other argument (by length, then letters), or mirrored with
w = z b: with b in place of w, the identity over Z sum_j T(..., a_j z, ...)
= sum_i a_i T_{theta-e_i+(1)}(a, z) has the skipped instance as its unique
largest term, with coefficient 1, and its right side in the left multiples
of lower components, so by induction the kept instances span the rest at
every p.  The component builder (ideal) borders the instances by letters
recursively, right multiples only of each child's complement: the child's
left multiples times a letter are left multiples one degree up.  The tests
check its span against the plain enumeration of all bordered instances.
"""

from functools import lru_cache
from itertools import product

from . import words as W
from .formal import FormalSum, accumulate


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
    args = [()] + args  # letter i of an arrangement stands for args[i]
    terms = accumulate(
        ((tuple(letter for i in s for letter in args[i]), 1) for s in W.multiset_words(theta)),
        p,
    )
    return FormalSum(terms, d, p, _normalized=True)


def _sub_multidegrees(budget, scale):
    """All nonzero mu with scale*mu <= budget componentwise, ascending."""
    ranges = [range(0, b // scale + 1) for b in budget]
    return [mu for mu in product(*ranges) if any(mu)]


@lru_cache(maxsize=None)
def _candidates(budget, theta_lo, n_left):
    """((theta, a), slots left, budget left) for each next pair with theta >=
    theta_lo that can still finish a multiset: theta ascending, then mdeg(a)
    = mu ascending over the nonzero mu with theta * mu <= budget, then a.
    With no slot left, only mu = budget / theta closes the budget exactly;
    otherwise the budget left must hold one letter per slot left."""
    out = []
    for theta in range(max(theta_lo, 1), n_left + 1):
        spare = n_left - theta
        for mu in [] if 0 < spare < theta else _sub_multidegrees(budget, theta):
            left = tuple(b - theta * m for b, m in zip(budget, mu))
            if sum(left) >= spare and (spare or not any(left)):
                out += [((theta, a), spare, left) for a in W.multiset_words(mu)]
    return tuple(out)


def _pair_multisets(n, budget):
    """The multisets of (theta_i, a_i) pairs with pairwise distinct a_i,
    sorted and so deduplicated up to permutation, with sum(theta) = n and
    sum theta_i * mdeg(a_i) = budget, as tuples.

    The search does not visit the branches that cannot close the budget:
    later pairs have theta_j >= theta_i, and every later slot needs at least
    one letter.  It runs depth first over the cached candidate lists, on one
    explicit stack of (candidates, next index).
    """
    acc, used = [(0, ())], set()  # the pairs and words of the branch
    stack = [(_candidates(tuple(budget), 1, n), 0)]
    while stack:
        candidates, i = stack.pop()
        last = acc[-1]
        for j in range(i, len(candidates)):
            pair, spare, left = candidates[j]
            if pair > last and pair[1] not in used:
                if not spare:
                    yield (*acc[1:], pair)
                    continue
                stack += [(candidates, j + 1), (_candidates(left, pair[0], spare), 0)]
                acc.append(pair)
                used.add(pair[1])
                break
        else:
            used.discard(acc.pop()[1])


def _code(w, bits):
    """The word w as an integer: letter k as k - 1 in bits bits, first
    letter highest, so that a concatenation is a shift and an or."""
    c = 0
    for letter in w:
        c = c << bits | letter - 1
    return c


def _leads_relation(pairs):
    """Does the instance lead a letter-moving relation: its largest argument
    word w, by length and then letters, has theta 1, two or more letters,
    and w[:-1] or w[1:] at least every other argument word?"""
    (size, w, theta), *rest = sorted(((len(a), a, t) for t, a in pairs), reverse=True)
    top = rest[0][:2] if rest else ()
    return theta == 1 and size > 1 and max((size - 1, w[:-1]), (size - 1, w[1:])) >= top


def bare_instances(n, delta, p, words):
    """The nonzero t_theta(n, theta, args) with distinct args and sum of
    theta_i * mdeg(a_i) equal to delta, up to pair permutation, as rows
    {column: coefficient} over words; columns in order of first arising.
    Instances that lead a letter-moving relation are skipped: it puts them
    in the span of the rest and the letter multiples one degree down."""
    bits = (len(delta) - 1).bit_length()
    column = {_code(w, bits): i for i, w in enumerate(words)}
    for pairs in _pair_multisets(n, delta):
        if _leads_relation(pairs):
            continue
        codes = [0] + [_code(a, bits) for _, a in pairs]  # by arrangement letter
        shifts = [0] + [bits * len(a) for _, a in pairs]
        row = {}
        for s in W.multiset_words(tuple(t for t, _ in pairs)):
            c = 0
            for i in s:
                c = c << shifts[i] | codes[i]
            j = column[c]
            row[j] = row.get(j, 0) + 1
        if p:
            row = {j: v % p for j, v in row.items() if v % p}
        if row:
            yield row
