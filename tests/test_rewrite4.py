import pytest

from nilalg import ideal as I
from nilalg import rewrite4 as R
from nilalg import words as W
from nilalg.formal import parse_sum
from test_ideal import clean_cache  # noqa: F401 (a fixture)


def S(text, d, p=0):
    return parse_sum(text, d, p)


def test_allowed_vectors():
    for v in [(), (1,), (1, 1), (1, 1, 1), (2,), (2, 1), (3,), (3, 1),
              (1, 3), (3, 2), (3, 2, 1)]:
        assert R.allowed_power_vector(v)
    for v in [(4,), (2, 2), (1, 2), (3, 3), (2, 1, 1), (1, 1, 1, 1),
              (1, 2, 3), (2, 3)]:
        assert not R.allowed_power_vector(v)


def test_cross_letter_exclusions():
    # (3,2,1) together with a (3)-carrying second letter
    w = W.parse_word("x1^3.x2^3.x1^2.x2.x1")  # hypothetical pattern
    # construct words directly to control run vectors
    a = (1, 1, 1, 2, 2, 2, 1, 1, 2, 1)  # x1: (3,2,1), x2: (3,1)
    assert not R.cross_letter_ok(a, 2)
    b = (1, 1, 1, 2, 2, 2, 3, 3, 3)  # three letters with (3)
    assert not R.cross_letter_ok(b, 3)
    c = (1, 1, 1, 2, 1, 1, 2, 2, 2, 3, 2, 2)  # x1: (3,2), x2: (3,2)
    assert not R.cross_letter_ok(c, 3)
    ok = (1, 1, 1, 2, 2, 2)  # x1: (3), x2: (3)
    assert R.cross_letter_ok(ok, 2)


def test_is_canonical_word():
    assert R.is_canonical_word(W.parse_word("x1^3.x2.x1"), 2)
    assert not R.is_canonical_word(W.parse_word("x1^2.x2.x1^2"), 2)  # (2,2)
    assert not R.is_canonical_word(W.parse_word("x1^4"), 1)


def test_canonicalize_matches_reduce():
    f = S("x1^2.x2.x1^2", 2)
    g = R.canonicalize(2, 0, f)
    assert g == S("-x1^3.x2.x1 - x1.x2.x1^3", 2)
    for w in g.terms:
        assert R.is_canonical_word(w, 2)


def test_canonicalize_idempotent():
    f = S("x1^2.x2.x1^2 + x2.x1.x2.x1^2.x2 - 2*x1.x2^2.x1", 2)
    g = R.canonicalize(2, 0, f)
    assert R.canonicalize(2, 0, g) == g
    assert I.contains(4, 0, f - g)


def test_canonicalize_rejects_p2():
    with pytest.raises(ValueError):
        R.canonicalize(2, 2, S("x1.x2", 2, 2))


def test_witness_search_p0():
    # C(4,2,0) = 10: maximal nonzero degree is 9
    w = R.witness_search(2, 0, range(8, 11))
    assert w is not None and len(w) == 9
    from nilalg.formal import FormalSum

    assert not I.contains(4, 0, FormalSum({w: 1}, 2, 0))


def test_witness_search_empty_range_above_degree():
    # all degree-10 components vanish at p = 0
    assert R.witness_search(2, 0, [10, 11]) is None


def _witness_top_down(d, p, degree_range):
    """The witness by a scan from the top of the range down, component by
    component: the first nonzero one, its canonical non-pivot words first."""
    for total in sorted(degree_range, reverse=True):
        for delta in I._sorted_multidegrees(total, d):
            basis = I.component_basis(4, d, p, delta)
            if basis.quotient_dimension:
                words = basis.nonpivot_words()
                words.sort(key=lambda w: not R.is_canonical_word(w, d))
                return words[0]
    return None


@pytest.mark.parametrize("p", [0, 3, 5])
@pytest.mark.parametrize("d, ranges", [
    (1, [range(1, 7), range(8, 11), [10, 11]]),
    (2, [range(1, 12), range(8, 11), [10, 11]]),
    # at d = 3 the degree-10 components take seconds to build
    (3, [range(1, 7), range(4, 6)]),
])
def test_witness_search_matches_top_down_scan(clean_cache, d, ranges, p):
    # the witness read off the degree scan is the word the top-down scan finds
    for degrees in ranges:
        assert R.witness_search(d, p, degrees) == _witness_top_down(d, p, degrees)


def test_canonical_profiles_degree_cap():
    # max over profiles is 3d + 3, attained with exactly two (3)-letters
    for d in range(1, 7):
        profiles = R.canonical_profiles(d)
        assert profiles
        best = max(sum(sum(v) for v in combo) for combo in profiles)
        assert best == 3 * d + 3 if d >= 2 else best == 6
        assert R.max_profile_degree(d) == best
        if d >= 2:
            assert R.max_profile_degree(d, three_letters=2) == 3 * d + 3
            # one (3)-letter also reaches 3d+3 (via (3,2,1)); none stays at 3d
            assert R.max_profile_degree(d, three_letters=1) == 3 * d + 3
            assert R.max_profile_degree(d, three_letters=0) <= 3 * d
            # three (3)-letters are excluded outright
            assert R.max_profile_degree(d, three_letters=3) == -1


def test_degree_cap_consistent_with_engine():
    # the profile cap at d = 2 is 9, and indeed C(4,2,0) - 1 = 9
    assert R.max_profile_degree(2) == 9
