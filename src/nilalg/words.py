"""Words of the free semigroup on d letters, multidegrees and power vectors.

A word is a nonempty tuple of letter indices in 1..d.  The empty tuple ()
is no word: validate_word, enumerate_words and format_word refuse it.
Words are compared in two partial orders, the run-profile order "gtr" and
the coarser run-count order "succ", through one key: order_key(w, d, order)
is per letter the power_sort_key of w's sorted run vector (gtr) or minus
its run count (succ), and compare_keys(a, b) compares two keys letter by
letter: GREATER, LESS, EQUAL (equivalent words) or INCOMPARABLE.

multiset_words is the one enumerator of multiset permutations: the words of
a multidegree component, and the arrangements of a polarization (polarize),
whose letters index its argument words.
"""

from functools import lru_cache
from math import comb

GREATER = "greater"
LESS = "less"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


class WordError(ValueError):
    pass


def validate_word(w, d):
    """Check that w is a nonempty tuple of letter indices in 1..d."""
    if not isinstance(w, tuple):
        raise WordError("word must be a tuple of letter indices, got %r" % (w,))
    if len(w) == 0:
        raise WordError("empty word not allowed here")
    for k in w:
        if not isinstance(k, int) or not (1 <= k <= d):
            raise WordError("letter %r out of range 1..%d" % (k, d))
    return w


def multidegree(w, d):
    """Per-letter occurrence counts of w as a length-d tuple."""
    deg = [0] * d
    for k in w:
        deg[k - 1] += 1
    return tuple(deg)


def x_power(w, k):
    """Lengths of the maximal runs of letter k in w, in order of occurrence."""
    runs = []
    count = 0
    for letter in w:
        if letter == k:
            count += 1
        elif count:
            runs.append(count)
            count = 0
    if count:
        runs.append(count)
    return tuple(runs)


def sorted_power(w, k):
    """x_power sorted descending (the shape used by the partial orders)."""
    return tuple(sorted(x_power(w, k), reverse=True))


def power_sort_key(v):
    """Sort key realizing the order on sorted run vectors, ascending.

    Shorter vectors are greater, the empty vector is the unique maximum;
    among equal lengths the lexicographically greater vector is greater.
    """
    return (-len(v), v)


def order_key(w, d, order):
    """The per-letter key that order compares, for letters 1..d: the
    power_sort_key of each sorted run vector for "gtr", minus each run count
    for "succ" (fewer runs is greater)."""
    if order == "gtr":
        return tuple(power_sort_key(sorted_power(w, k)) for k in range(1, d + 1))
    if order == "succ":
        return tuple(-len(x_power(w, k)) for k in range(1, d + 1))
    raise ValueError("order must be 'gtr' or 'succ', got %r" % (order,))


def compare_keys(a, b):
    """Product comparison of two order_key values, letter by letter.

    Returns GREATER/LESS if one key dominates the other with at least one
    strict inequality, EQUAL when all letters tie, INCOMPARABLE otherwise.
    """
    up = down = False
    for ca, cb in zip(a, b):
        if ca > cb:
            up = True
        elif ca < cb:
            down = True
        if up and down:
            return INCOMPARABLE
    if up:
        return GREATER
    if down:
        return LESS
    return EQUAL


def is_subvector(a, b):
    """True when a appears in b as an order-preserving subsequence."""
    it = iter(b)
    return all(any(x == y for y in it) for x in a)


def word_count(delta):
    """Number of words with multidegree delta (a multinomial coefficient),
    a product of binomials."""
    count, total = 1, 0
    for e in delta:
        total += e
        count *= comb(total, e)
    return count


def enumerate_words(delta):
    """All words of multidegree delta in lexicographic order on letters.

    The caller bounds the count: ideal checks word_count against its
    Limits before it enumerates a component.
    """
    if sum(delta) < 1:
        raise WordError("multidegree must have total degree >= 1")
    if any(e < 0 for e in delta):
        raise WordError("multidegree entries must be nonnegative")
    return list(multiset_words(tuple(delta)))


@lru_cache(maxsize=None)
def multiset_words(counts):
    """The words with counts[k-1] copies of letter k, as a tuple in
    lexicographic order: each is the next permutation of the one before."""
    seq = [k for k, c in enumerate(counts, 1) for _ in range(c)]
    out = [tuple(seq)]
    while True:
        k = len(seq) - 2
        while k >= 0 and seq[k] >= seq[k + 1]:
            k -= 1
        if k < 0:
            return tuple(out)
        j = len(seq) - 1
        while seq[j] <= seq[k]:
            j -= 1
        seq[k], seq[j] = seq[j], seq[k]
        seq[k + 1:] = reversed(seq[k + 1:])
        out.append(tuple(seq))


def word_sort_key(w, d):
    """Total order used to pick elimination pivots.

    Primary: per letter, the sorted run vector in the run-profile order
    (lower profile sorts first), then the raw run vector lexicographically
    so that e.g. a (2,3)-word sorts below its (3,2) companion.  Final
    tie-break: the letter sequence itself.  Words that sort first get
    eliminated first, so reduction rewrites toward profile-greater words.
    """
    keys = []
    for k in range(1, d + 1):
        runs = x_power(w, k)
        keys.append(power_sort_key(tuple(sorted(runs, reverse=True))))
        keys.append(runs)
    keys.append(w)
    return tuple(keys)


def parse_word(text, d=None):
    """Parse the factor syntax ``x1^2.x2.x1`` into a word tuple."""
    text = text.strip()
    if not text:
        raise WordError("empty word text")
    letters = []
    for factor in text.split("."):
        factor = factor.strip()
        if not factor.startswith("x"):
            raise WordError("bad factor %r" % factor)
        body = factor[1:]
        if "^" in body:
            idx_s, exp_s = body.split("^", 1)
        else:
            idx_s, exp_s = body, "1"
        try:
            idx, exp = int(idx_s), int(exp_s)
        except ValueError:
            raise WordError("bad factor %r" % factor) from None
        if idx < 1 or exp < 1:
            raise WordError("bad factor %r" % factor)
        letters.extend([idx] * exp)
    w = tuple(letters)
    if d is not None:
        validate_word(w, d)
    return w


def format_word(w):
    """Inverse of parse_word: run-compressed ``x1^2.x2.x1`` syntax."""
    if not w:
        raise WordError("cannot format the empty word")
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        parts.append("x%d" % w[i] if j - i == 1 else "x%d^%d" % (w[i], j - i))
        i = j
    return ".".join(parts)
