"""Canonical supports for the nil algebra with x^4 = 0.

Every element is congruent to a combination of words whose per-letter run
vectors come from a short list, subject to three cross-letter exclusions.
The reducer is the generic echelon reduction of the degree component; the
displayed rewrite relations serve as test vectors, not as the engine.  A
word of maximal nonzero degree is read off the nilpotency-degree scan of
the ideal module, not found by a scan of its own.
"""

from itertools import combinations_with_replacement

from . import ideal as I
from . import words as W

N4 = 4

ALLOWED_VECTORS = frozenset(
    [
        (),
        (1,),
        (1, 1),
        (1, 1, 1),
        (2,),
        (2, 1),
        (3,),
        (3, 1),
        (1, 3),
        (3, 2),
        (3, 2, 1),
    ]
)


class CanonicalFormDefect(RuntimeError):
    """Reduction left a non-canonical word; would falsify the support lemma."""


def allowed_power_vector(v):
    """Membership of a raw (unsorted) run vector in the canonical list."""
    return tuple(v) in ALLOWED_VECTORS


def _has_three(v):
    return W.is_subvector((3,), v)


def _has_three_two(v):
    return W.is_subvector((3, 2), v)


def _exclusions_ok(vectors):
    """The cross-letter exclusions on one run vector per letter.

    False when some letter has run vector (3,2,1) while another carries a
    (3), when three letters carry a (3), or when two letters carry a (3,2).
    """
    threes = sum(1 for v in vectors if _has_three(v))
    if threes >= 3:
        return False
    if sum(1 for v in vectors if _has_three_two(v)) >= 2:
        return False
    return not (threes >= 2 and (3, 2, 1) in vectors)


def cross_letter_ok(w, d):
    """Check the cross-letter exclusions on a word's run vectors."""
    return _exclusions_ok([W.x_power(w, k) for k in range(1, d + 1)])


def is_canonical_word(w, d):
    vectors = [W.x_power(w, k) for k in range(1, d + 1)]
    return all(map(allowed_power_vector, vectors)) and _exclusions_ok(vectors)


def canonicalize(d, p, f, limits=None):
    """Reduce f to a combination of canonical words, modulo the ideal.

    Requires p != 2 (the run-vector list is specific to odd or zero
    characteristic).  The difference f - result lies in the ideal; if any
    residual term is non-canonical that is a defect signal and raises
    CanonicalFormDefect rather than being silenced.
    """
    if p == 2:
        raise ValueError("canonical supports require p != 2")
    g = I.reduce(N4, p, f, limits)
    bad = [w for w in g.terms if not is_canonical_word(w, d)]
    if bad:
        raise CanonicalFormDefect(
            "non-canonical words survived reduction: %s"
            % ", ".join(W.format_word(w) for w in bad)
        )
    return g


def witness_search(d, p, degree_range, limits=None):
    """A word of maximal degree in the range that is nonzero in the quotient.

    Read off the nilpotency-degree scan up to the top of the range: the
    largest degree in the range below the degree C found (every degree below
    C has a nonzero component, none from C on), or the top of the range if
    the scan found no C.  At that degree the first nonzero component is
    taken, its non-pivot words tried canonical-profiles-first.  Returns None
    when no degree in the range lies below C.
    """
    top = max(degree_range, default=0)
    found = I.nilpotency_degree(N4, d, p, top, limits).degree
    below = [c for c in degree_range if c < (found or top + 1)]
    if not below:
        return None
    for delta in I._sorted_multidegrees(max(below), d):
        basis = I.component_basis(N4, d, p, delta, limits)
        if basis.quotient_dimension:
            return min(basis.nonpivot_words(), key=lambda w: not is_canonical_word(w, d))


def canonical_profiles(d):
    """All multisets of allowed run vectors for d letters that pass the
    cross-letter exclusions.  Degrees and exclusions are symmetric in the
    letters, so multisets suffice for counting arguments."""
    return [
        combo
        for combo in combinations_with_replacement(sorted(ALLOWED_VECTORS), d)
        if _exclusions_ok(combo)
    ]


def max_profile_degree(d, three_letters=None):
    """Max total degree over canonical profiles for d letters.

    With three_letters given, restrict to profiles where exactly that many
    letters carry a (3) in their run vector.
    """
    best = -1
    for combo in canonical_profiles(d):
        if three_letters is not None:
            if sum(1 for v in combo if _has_three(v)) != three_letters:
                continue
        best = max(best, sum(sum(v) for v in combo))
    return best
