import math
from itertools import permutations

import pytest

from nilalg import ideal as I
from nilalg import polarize as P
from nilalg import words as W
from nilalg.formal import FormalSum


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
    fs = list(P.bare_instances(2, (2, 1), p=0))
    assert fs
    for f in fs:
        assert not f.is_zero()
        assert f.multidegrees() == {(2, 1)}


def test_ideal_instances_census_n2():
    # n=2, delta=(2,1): bordered instances u T_theta(args) v.
    # T-ideal generated by T_2 and T_11; every instance is a sum of
    # words of multidegree (2,1)
    instances = list(P.ideal_instances(2, (2, 1), p=0))
    assert instances
    for f in instances:
        assert f.multidegrees() == {(2, 1)}
    # their span kills the whole component: C(2,d,0)=3 and |delta|=3
    basis = I.component_basis(2, 2, 0, (2, 1))
    assert basis.quotient_dimension == 0


def span_rows(sums, words):
    index = {w: i for i, w in enumerate(words)}
    ech = I.Echelon(len(words), sums[0].p if sums else 0)
    for f in sums:
        ech.add({index[w]: c for w, c in f.terms.items()})
    return ech


@pytest.mark.parametrize("n,delta,p", [
    (2, (2, 1), 0),
    (2, (2, 2), 0),
    (3, (2, 2), 0),
    (3, (3, 1), 5),
    (2, (1, 1, 1), 2),
    (3, (2, 1, 1), 0),
])
def test_recursive_span_equals_bordered_span(n, delta, p):
    # the component basis built by the letter-border recursion spans exactly
    # the same space as the full set of bordered polarization instances
    d = len(delta)
    basis = I.component_basis(n, d, p, delta)
    words = basis.words
    direct = span_rows(list(P.ideal_instances(n, delta, p)), words)
    assert direct.rank == basis.rank
    # and every direct instance reduces to zero against the recursive basis
    for f in P.ideal_instances(n, delta, p):
        assert basis.echelon.contains(basis.vector_of(f))


def _exact_subset_of_within(n, delta, p):
    """The nonzero instances of the <=-budget pair multisets that use delta exactly."""
    d = len(delta)
    for pairs in P._pairs_within(n, delta):
        used = tuple(sum(t * W.multidegree(a, d)[k] for t, a in pairs) for k in range(d))
        if used == tuple(delta):
            f = P.t_theta(n, [t for t, _ in pairs], [a for _, a in pairs], p=p, d=d)
            if not f.is_zero():
                yield f


@pytest.mark.parametrize("p", [0, 2, 3, 5])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bare_instances_equal_exact_subset_in_order(n, d, p):
    # the pruned exact-budget search yields the same instances, in the same
    # order and with the same terms, as filtering the <=-budget search
    top = n + (3 if d == 2 else 1)
    for total in range(1, top + 1):
        for delta in I._sorted_multidegrees(total, d):
            got = [list(f.terms.items()) for f in P.bare_instances(n, delta, p)]
            want = [list(f.terms.items()) for f in _exact_subset_of_within(n, delta, p)]
            assert got == want, (n, delta, p)


def test_arrangement_count_distinct_args():
    f = P.t_theta(4, (1, 1, 1, 1), [(1,), (2,), (1, 2), (2, 1)], p=0, d=2)
    # 24 arrangements, possibly with coinciding products
    assert total_mass(f) == 24
