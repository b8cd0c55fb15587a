import math
import random
from itertools import permutations, product

import pytest

from nilalg import ideal as I
from nilalg import polarize as P
from nilalg import words as W
from nilalg.formal import FormalSum
from test_ideal import _rref_reference


def _pairs_within(n, budget):
    """Multisets of (theta_i, a_i) pairs with sum(theta)=n, sum theta_i*mdeg(a_i) <= budget.

    Pairs are emitted as sorted tuples, which deduplicates instances up to
    simultaneous permutation of the pairs.
    """
    d = len(budget)

    def rec(n_left, budget_left, min_pair, acc):
        if n_left == 0:
            yield list(acc)
            return
        for theta_i in range(1, n_left + 1):
            for mu in P._sub_multidegrees(budget_left, theta_i):
                for a in W.enumerate_words(mu):
                    pair = (theta_i, a)
                    if pair < min_pair:
                        continue
                    new_budget = tuple(
                        b - theta_i * m for b, m in zip(budget_left, W.multidegree(a, d))
                    )
                    yield from rec(n_left - theta_i, new_budget, pair, acc + [pair])

    yield from rec(n, tuple(budget), (0, ()), [])


def ideal_instances(n, delta, p=0):
    """All bordered instances u * t_theta(...) * v of multidegree delta: the
    oracle for the recursive component builder.

    u, v may be empty; the a_i are nonempty words.  The stream is finite,
    deterministic, deduplicated up to simultaneous permutation of the
    (theta_i, a_i) pairs, and omits instances that vanish over the field.
    """
    d = len(delta)
    if sum(delta) < n:
        return
    for pairs in _pairs_within(n, delta):
        used = [0] * d
        for theta_i, a in pairs:
            for k, e in enumerate(W.multidegree(a, d)):
                used[k] += theta_i * e
        rem = tuple(b - u for b, u in zip(delta, used))
        core = P.t_theta(n, [t for t, _ in pairs], [a for _, a in pairs], p=p, d=d)
        if core.is_zero():
            continue
        for mu_u in sorted(
            set(P._sub_multidegrees(rem, 1)) | {tuple([0] * d)}
        ):
            mu_v = tuple(r - u for r, u in zip(rem, mu_u))
            us = [()] if not any(mu_u) else W.enumerate_words(mu_u)
            vs = [()] if not any(mu_v) else W.enumerate_words(mu_v)
            for u in us:
                for v in vs:
                    g = core.map_words(lambda w: u + w + v)
                    if not g.is_zero():
                        yield g


def total_mass(f):
    return sum(f.terms.values())


def test_mass_is_multinomial():
    # number of arrangements of the multiset is n!/prod theta_i!
    cases = [
        (4, (3, 1), [(1,), (2,)]),
        (4, (2, 2), [(1,), (2,)]),
        (4, (2, 1, 1), [(1,), (2,), (3,)]),
        (4, (1, 1, 1, 1), [(1,), (2,), (3,), (4,)]),
        (3, (2, 1), [(1,), (2,)]),
    ]
    for n, theta, args in cases:
        f = P.t_theta(n, theta, args, p=0, d=max(max(a) for a in args))
        expected = math.factorial(n) // math.prod(math.factorial(t) for t in theta)
        assert total_mass(f) == expected, (theta, f.terms)


def test_full_power_specializes():
    # all slots filled by one argument: t_theta(n,(n,),[w]) = w^n
    f = P.t_theta(3, (3,), [(1, 2)], p=0, d=2)
    assert f.terms == {(1, 2, 1, 2, 1, 2): 1}


def test_symmetry_in_equal_multiplicities():
    # swapping arguments with equal multiplicity fixes the polarization
    f = P.t_theta(4, (2, 2), [(1,), (2,)], p=0, d=2)
    g = P.t_theta(4, (2, 2), [(2,), (1,)], p=0, d=2)
    assert f == g


def test_t211_distinct_linear_slots():
    # theta=(2,1,1): 12 arrangements of {a,a,b,c}
    f = P.t_theta(4, (2, 1, 1), [(1,), (2,), (3,)], p=0, d=3)
    assert total_mass(f) == 12
    assert len(f.terms) == 12
    # every word is an arrangement of x1 x1 x2 x3
    for w in f.terms:
        assert sorted(w) == [1, 1, 2, 3]


def test_t31_expansion():
    f = P.t_theta(4, (3, 1), [(1,), (2,)], p=0, d=2)
    assert f.terms == {
        (1, 1, 1, 2): 1,
        (1, 1, 2, 1): 1,
        (1, 2, 1, 1): 1,
        (2, 1, 1, 1): 1,
    }


def test_theta_validation():
    with pytest.raises(ValueError):
        P.t_theta(4, (3, 2), [(1,), (2,)], p=0, d=2)  # sums to 5, not 4
    with pytest.raises(ValueError):
        P.t_theta(4, (4, 0), [(1,), (2,)], p=0, d=2)  # zero multiplicity


def test_bare_instances_multidegree():
    # rows index the given word list, in its order, whatever that order is
    words = W.enumerate_words((2, 1))[::-1]
    rows = list(P.bare_instances(2, (2, 1), 0, words))
    assert rows
    for row in rows:
        assert row and all(row.values())
        f = FormalSum({words[c]: v for c, v in row.items()}, 2, 0)
        assert list(f.split_multihomogeneous()) == [(2, 1)]


def test_ideal_instances_census_n2():
    # n=2, delta=(2,1): bordered instances u T_theta(args) v.
    # T-ideal generated by T_2 and T_11; every instance is a sum of
    # words of multidegree (2,1)
    instances = list(ideal_instances(2, (2, 1), p=0))
    assert instances
    for f in instances:
        assert list(f.split_multihomogeneous()) == [(2, 1)]
    # their span kills the whole component: C(2,d,0)=3 and |delta|=3
    basis = I.component_basis(2, 2, 0, (2, 1))
    assert basis.quotient_dimension == 0


def span_rank(sums, words):
    """Rank of the sums' coefficient rows, by Gauss-Jordan elimination
    outside the kernel under test."""
    p = sums[0].p if sums else 0
    return len(_rref_reference([[f.terms.get(w, 0) for w in words] for f in sums], p))


@pytest.mark.parametrize("n,delta,p", [
    (2, (2, 1), 0),
    (2, (2, 2), 0),
    (3, (2, 2), 0),
    (3, (3, 1), 5),
    (2, (1, 1, 1), 2),
    (3, (2, 1, 1), 0),
    # binomials vanish mod p: some instances with a repeated argument word
    # are zero here, and skipping them all must not lose the span
    (4, (3, 2), 2),
    (4, (4, 2), 2),
    (4, (3, 3), 3),
    (3, (2, 2, 1), 2),
    (4, (2, 2, 1), 3),
    # instances leading a letter-moving relation are skipped, and only the
    # right multiples of each child's complement are offered, with p <= n
    (4, (4, 3), 0),
    (4, (5, 2), 3),
    (4, (3, 2, 1), 2),
    (5, (4, 3), 5),
    # here the last letter's child supplies right multiples the first lacks
    (3, (1, 1, 2), 0),
    (4, (1, 2, 2), 2),
    # not weakly decreasing: read from the sorted twin, letters permuted
    (4, (3, 4), 0),
    (4, (2, 3, 2), 3),
    (4, (1, 3, 2), 0),
])
def test_recursive_span_equals_bordered_span(n, delta, p):
    # the component basis built by the letter-border recursion spans exactly
    # the same space as the full set of bordered polarization instances
    d = len(delta)
    basis = I.component_basis(n, d, p, delta)
    words = basis.words
    assert span_rank(list(ideal_instances(n, delta, p)), words) == basis.rank
    # and every direct instance reduces to zero against the recursive basis
    for f in ideal_instances(n, delta, p):
        assert basis.echelon.contains(basis.vector_of(f))


def _dense(rows, column, ncols):
    """(columns, coefficients) rows as lists, column c taken to column(c)."""
    out = []
    for cols, vals in rows:
        out.append([0] * ncols)
        for c, v in zip(cols, vals):
            out[-1][column(c)] = v
    return out


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("n", [3, 4])
def test_components_and_complements_equal_bordered_span(monkeypatch, n, p):
    # every component's RREF rows must be those of all its bordered
    # instances in its own word order (a multidegree that is not weakly
    # decreasing is read from its sorted twin, letters permuted), and its
    # complement with the left multiples of its children must span it.  A
    # weakly decreasing component's complement is its own reduced rows whose
    # pivot is no seeded row's own; where the seed moved a pivot (at p = 0
    # too) it has more rows than the seed left the rank short
    seeded = {}  # echelon -> the pivots of the rows seeded into it
    seed = I.Echelon.seed

    def recording(self, rows):
        seeded[self] = {cols[0] for cols, _ in rows}
        return seed(self, rows)

    monkeypatch.setattr(I.Echelon, "seed", recording)
    I.clear_cache()
    moved = 0
    for d, top in [(2, 7), (3, 6)]:
        for delta in product(range(top + 1), repeat=d):
            if not 1 <= sum(delta) <= top:
                continue
            basis = I.component_basis(n, d, p, delta)
            words, ncols = basis.words, len(basis.words)
            want = _rref_reference([[f.terms.get(w, 0) for w in words]
                                    for f in ideal_instances(n, delta, p)], p)
            assert _dense(basis.echelon.rows, int, ncols) == want, (n, delta, p)
            rows = _dense(basis.complement, int, ncols)
            for k in range(d if sum(delta) > 1 else 0):
                if delta[k]:
                    child = I.component_basis(n, d, p, delta[:k] + (delta[k] - 1,) + delta[k + 1:])
                    rows += _dense(child.echelon.rows,
                                   lambda c: basis.index[(k + 1,) + child.words[c]], ncols)
            assert _rref_reference(rows, p) == want, (n, delta, p)
            if list(delta) == sorted(delta, reverse=True):
                by_pivot = {row[0][0]: row for row in basis.echelon.rows}
                assert all(by_pivot[row[0][0]] is row for row in basis.complement)
                own = seeded[basis.echelon]
                assert {row[0][0] for row in basis.complement} == set(by_pivot) - own
                moved += bool(own - set(by_pivot))
    assert moved or p
def _leads_letter_moving_relation(pairs):
    """Does the instance lead a letter-moving relation: its largest argument
    word w (by length, then letters) has multiplicity 1 and two or more
    letters, and w without its last or without its first letter is at least
    every other argument word?"""
    def rank(a):
        return (len(a), a)

    w = max((a for _, a in pairs), key=rank)
    others = [a for _, a in pairs if a != w]
    theta_w = next(t for t, a in pairs if a == w)
    return theta_w == 1 and len(w) >= 2 and any(
        all(rank(b) >= rank(a) for a in others) for b in (w[:-1], w[1:]))


def _exact_subset_of_within(n, delta, p):
    """The nonzero instances of the <=-budget pair multisets with distinct
    argument words that use delta exactly and do not lead a letter-moving
    relation, as (word, coefficient) lists: the polarization over Z, in its
    word order, reduced mod p."""
    d = len(delta)
    for pairs in _pairs_within(n, delta):
        used = tuple(sum(t * W.multidegree(a, d)[k] for t, a in pairs) for k in range(d))
        if (used == tuple(delta) and len({a for _, a in pairs}) == len(pairs)
                and not _leads_letter_moving_relation(pairs)):
            args = ([t for t, _ in pairs], [a for _, a in pairs])
            terms = [(w, c % p if p else c)
                     for w, c in P.t_theta(n, *args, p=0, d=d).terms.items()]
            terms = [(w, c) for w, c in terms if c]
            assert dict(terms) == P.t_theta(n, *args, p=p, d=d).terms
            if terms:
                yield terms


@pytest.mark.parametrize("p", [0, 2, 3, 5])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bare_instances_equal_exact_subset_in_order(n, d, p):
    # the pruned exact-budget search yields the same instances, in the same
    # order and with the same terms, as filtering the <=-budget search
    top = n + (3 if d == 2 else 1)
    for total in range(1, top + 1):
        for delta in I._sorted_multidegrees(total, d):
            words = W.enumerate_words(delta)
            got = [[(words[c], v) for c, v in row.items()]
                   for row in P.bare_instances(n, delta, p, words)]
            want = list(_exact_subset_of_within(n, delta, p))
            assert got == want, (n, delta, p)


def _letter_moving_sides(n, theta, args, z, d, prepend):
    """Both sides of sum_j T(..., a_j z, ...) = sum_i a_i T_{theta-e_i+(1)}(a, z)
    over Z, or of its mirror sum_j T(..., z a_j, ...) = sum_i T(a, z) a_i."""
    lhs = rhs = FormalSum.zero(d, 0)
    for i, a in enumerate(args):
        kept = [(t - (j == i), b) for j, (t, b) in enumerate(zip(theta, args))]
        kept = [(t, b) for t, b in kept if t]
        moved = z + a if prepend else a + z
        lhs = lhs + P.t_theta(n, *zip(*kept, (1, moved)), p=0, d=d)
        core = P.t_theta(n, *zip(*kept, (1, z)), p=0, d=d)
        rhs = rhs + core.map_words(lambda w: w + a if prepend else a + w)
    return lhs, rhs


@pytest.mark.parametrize("prepend", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_letter_moving_identity(n, d, prepend):
    # the identity behind skipping instances that lead a relation: moving a
    # letter z onto each argument in turn sums to the left (right) multiples
    # of the instances with z as an extra argument, exactly over Z
    rng = random.Random(1000 * n + 10 * d + prepend)
    for _ in range(12):
        r = rng.randint(1, n)
        cuts = sorted(rng.sample(range(1, n), r - 1))
        theta = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        args = [tuple(rng.randint(1, d) for _ in range(rng.randint(1, 3)))
                for _ in range(r)]
        z = (rng.randint(1, d),)
        lhs, rhs = _letter_moving_sides(n, theta, args, z, d, prepend)
        assert not lhs.is_zero() and lhs == rhs, (theta, args, z)


def _merge_first_repeat(pairs):
    """(merged pairs, binomial) for the first argument word held by two
    pairs (theta_i, a), (theta_j, a), or None if the words are distinct."""
    for i, (ti, a) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            tj, b = pairs[j]
            if a == b:
                rest = pairs[:i] + pairs[i + 1:j] + pairs[j + 1:]
                return tuple(sorted(rest + ((ti + tj, a),))), math.comb(ti + tj, ti)
    return None


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_repeated_argument_is_binomial_multiple_of_merged(n, d):
    # over Z, T_theta with one word in pairs (theta_i, a) and (theta_j, a) is
    # binom(theta_i + theta_j, theta_i) times the instance with the merged
    # pair (theta_i + theta_j, a); merging until the words are distinct ends
    # in a multiset the pruned search yields, so pruning keeps every span
    top = n + (2 if d == 2 else 1)
    repeats = 0
    for total in range(n, top + 1):
        for delta in I._sorted_multidegrees(total, d):
            stream = set(P._pair_multisets(n, delta))
            for pairs in _pairs_within(n, delta):
                used = tuple(sum(t * W.multidegree(a, d)[k] for t, a in pairs)
                             for k in range(d))
                pairs = tuple(pairs)
                if used != delta or len({a for _, a in pairs}) == len(pairs):
                    continue
                repeats += 1
                while (step := _merge_first_repeat(pairs)) is not None:
                    merged, binom = step
                    f = P.t_theta(n, *zip(*pairs), p=0, d=d)
                    g = P.t_theta(n, *zip(*merged), p=0, d=d)
                    assert f == g.scale(binom), (pairs, merged)
                    pairs = merged
                assert pairs in stream, (n, delta, pairs)
    assert repeats


def _recursive_pair_multisets(n, budget):
    """The pair-multiset search as a recursion over generators: the
    reference stream for the flat search of polarize._pair_multisets."""
    def arguments(budget, theta, spare):
        if spare == 0:
            if any(b % theta for b in budget) or not any(budget):
                return []
            return [((0,) * len(budget), W.enumerate_words(tuple(b // theta for b in budget)))]
        return [(left, W.enumerate_words(mu)) for mu in P._sub_multidegrees(budget, theta)
                if sum(left := tuple(b - theta * m for b, m in zip(budget, mu))) >= spare]

    def rec(n_left, budget_left, last, acc):
        used = {a for _, a in acc}
        for theta in range(max(last[0], 1), n_left + 1):
            spare = n_left - theta
            if 0 < spare < theta:
                continue
            for left, words in arguments(budget_left, theta, spare):
                for a in words:
                    pair = (theta, a)
                    if pair > last and a not in used:
                        if spare:
                            yield from rec(spare, left, pair, acc + (pair,))
                        else:
                            yield acc + (pair,)

    yield from rec(n, tuple(budget), (0, ()), ())


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_flat_search_yields_the_recursive_stream(n, d):
    # the explicit-stack search over cached candidate lists yields the same
    # pair multisets in the same order as the recursion, on every
    # multidegree of total at most n + 3
    for total in range(1, n + 4):
        for delta in product(range(total + 1), repeat=d):
            if sum(delta) == total:
                want = list(_recursive_pair_multisets(n, delta))
                assert list(P._pair_multisets(n, delta)) == want, (n, delta)


def test_arrangement_count_distinct_args():
    f = P.t_theta(4, (1, 1, 1, 1), [(1,), (2,), (1, 2), (2, 1)], p=0, d=2)
    # 24 arrangements, possibly with coinciding products
    assert total_mass(f) == 24
