"""Sparse sums over an exact coefficient field, and formal sums of words.

The field is Q (p = 0: an integral coefficient stored as int, any other as
Fraction) or F_p (ints in 1..p-1); zero coefficients are never stored.  A
prime must be at most MAX_PRIME = 3 037 000 499, so that a product of two
residues fits the int64 elimination kernel; check_characteristic decides
primality by Miller-Rabin and remembers every accepted p.

SparseSum is the one sparse sum over a field.  It owns the stored form, the
field check, zero, the linear operations, the bilinear product (the product
of two keys is their sum) and the universe check; accumulate is the one loop
that adds coefficients and drops zeros.  FormalSum (words over d letters,
universe (d, p)) and invariants.Poly (packed exponents, universe (nvars, p))
add only their universe, their key and their own operations.
clear_denominators is the one place that clears denominators.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from numbers import Rational

from . import words as W


class FieldError(ValueError):
    pass


# (p - 1)**2 <= 2**63 - 1: a product of two residues mod p fits an int64
MAX_PRIME = isqrt(2**63 - 1)


@lru_cache(maxsize=None)
def check_characteristic(p):
    """p must be 0 or a prime <= MAX_PRIME.

    Accepted values are cached; a refused p raises FieldError on every call.
    """
    if p == 0:
        return p
    if p > MAX_PRIME:
        raise FieldError(
            "prime characteristic must be <= %d (int64 elimination), got %r"
            % (MAX_PRIME, p)
        )
    if not _is_prime(p):
        raise FieldError("characteristic must be 0 or prime, got %r" % (p,))
    return p


def _is_prime(p):
    """Miller-Rabin to the bases 2, 3, 5 and 7, exact below 3 215 031 751 >
    MAX_PRIME (G. Jaeschke, Math. Comp. 61, 1993)."""
    if p % 2 == 0 or p < 3:
        return p == 2
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * odd
    return all(p == a or pow(a, (p - 1) >> s, p) == 1
               or p - 1 in (pow(a, (p - 1) >> s << i, p) for i in range(s))
               for a in (2, 3, 5, 7))


def coerce_coeff(c, p):
    """Bring a rational scalar into canonical stored form for characteristic
    p: over Q an int for an integral value, else a Fraction; mod p an int.
    ValueError for any other value, such as a float."""
    if type(c) is int:
        return c % p if p else c
    if type(c) is not Fraction:
        if not isinstance(c, Rational):
            raise ValueError("coefficient %r is not rational" % (c,))
        c = Fraction(c)
    if not p:
        return c.numerator if c.denominator == 1 else c
    if c.denominator % p == 0:
        raise FieldError("denominator of %s not invertible mod %d" % (c, p))
    return c.numerator * pow(c.denominator, -1, p) % p


def clear_denominators(values):
    """(numerators, den): ints and Fractions as integers over their lcm den.
    ValueError for a value with no denominator, such as a float."""
    try:
        den = lcm(*(v.denominator for v in values))
    except AttributeError:
        bad = next(v for v in values if not hasattr(v, "denominator"))
        raise ValueError("need ints or Fractions, got %r" % (bad,)) from None
    return [v.numerator * (den // v.denominator) for v in values], den


def accumulate(items, p, terms=None):
    """Add (key, coefficient) pairs into terms, a new dict by default.

    Sums are reduced mod p when p > 0, and a key whose coefficient becomes
    zero is dropped.  Returns terms.
    """
    if terms is None:
        terms = {}
    get = terms.get
    for key, c in items:
        c += get(key, 0)
        if p:
            c %= p
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
    return terms


class SparseSum:
    """A finite sum of keys with nonzero coefficients in Q or F_p.

    terms maps keys to stored coefficients (see coerce_coeff).  A subclass
    names its universe (_universe(): the constructor arguments after terms,
    ending with p) and its _key.  Built from (terms, *universe), the terms
    go through _stored; with _normalized=True they are terms of a checked
    sum, already in stored form, and are kept as they are.  Sums are
    combined only within one universe.
    """

    __slots__ = ("terms", "p")

    @classmethod
    def zero(cls, *universe):
        return cls({}, *universe)

    def _stored(self, terms):
        """terms in stored form, after check_characteristic: keys through
        _key, coefficients through coerce_coeff, zeros dropped."""
        p = self.p
        check_characteristic(p)
        key = self._key
        terms = {key(k): coerce_coeff(c, p) for k, c in terms.items()}
        return {k: c for k, c in terms.items() if c}

    def _like(self, terms):
        """A sum in this universe with the given normalized terms."""
        return type(self)(terms, *self._universe(), _normalized=True)

    def _check_same_universe(self, other):
        if type(other) is not type(self) or self._universe() != other._universe():
            raise FieldError(
                "mixed universes: %s%r vs %s%r"
                % (type(self).__name__, self._universe(),
                   type(other).__name__, other._universe())
            )

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check_same_universe(other)
        return self._like(accumulate(other.terms.items(), self.p, dict(self.terms)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        p = self.p
        c = coerce_coeff(c, p)
        if not c:
            return self._like({})
        # a product of nonzero field elements is nonzero: nothing to drop
        if p:
            return self._like({k: v * c % p for k, v in self.terms.items()})
        return self._like({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        """The bilinear product: the product of two keys is their sum, the
        concatenation of words or the sum of packed exponents."""
        self._check_same_universe(other)
        return self._times(other)

    def _times(self, other):
        """The bilinear product, for a factor of this universe."""
        return self._like(accumulate(
            ((u + v, cu * cv) for u, cu in self.terms.items() for v, cv in other.terms.items()),
            self.p))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._universe() == other._universe()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self._universe(), frozenset(self.terms.items())))


class FormalSum(SparseSum):
    """A finite F-linear combination of words over d letters.

    terms maps word tuples to nonzero stored coefficients; the universe is
    (d, p), and the product is concatenation.  Every FormalSum refuses a p
    that is no field, however it is made.
    """

    __slots__ = ("d",)

    def __init__(self, terms, d, p, _normalized=False):
        self.d = d
        self.p = p
        if _normalized:
            check_characteristic(p)
            self.terms = terms
        else:
            self.terms = self._stored(terms)

    def _universe(self):
        return self.d, self.p

    def _key(self, w):
        return W.validate_word(w, self.d)

    def map_words(self, fn):
        """Apply a word-to-word map, collecting coefficients."""
        return self._like(
            accumulate(((fn(w), c) for w, c in self.terms.items()), self.p)
        )

    def split_multihomogeneous(self):
        """Split into multihomogeneous parts, keyed by multidegree."""
        parts = {}
        for w, c in self.terms.items():
            delta = W.multidegree(w, self.d)
            parts.setdefault(delta, {})[w] = c
        return {delta: self._like(t) for delta, t in parts.items()}

    def __repr__(self):
        return "FormalSum(%s, d=%d, p=%d)" % (format_sum(self), self.d, self.p)

    def __str__(self):
        return format_sum(self)


# one term: an optional sign, an optional coefficient INT or INT/INT and '*',
# and a word; parse_sum requires the sign on every term after the first
_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?(x[0-9^.x]*)\s*")


def parse_sum(text, d, p):
    """Parse ``expr := ['+'|'-'] term (('+'|'-') term)*``.

    A term is ``[coeff '*'] word`` where coeff is INT or INT/INT and word
    uses the x1^2.x2 syntax.
    """
    if not text.strip():
        raise W.WordError("empty formal-sum text")
    items = []
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or (pos and not m.group(1)):
            raise W.WordError("parse error at %r" % text[pos:])
        sign, coeff, word = m.groups()
        try:
            c = Fraction(coeff or 1)
        except ZeroDivisionError:
            raise W.WordError("zero denominator in %r" % coeff) from None
        items.append((W.parse_word(word, d), coerce_coeff(-c if sign == "-" else c, p)))
        pos = m.end()
    return FormalSum(accumulate(items, p), d, p, _normalized=True)


def format_sum(f):
    """Render a FormalSum in the grammar accepted by parse_sum."""
    if f.is_zero():
        return "0"
    items = sorted(f.terms.items(), key=lambda wc: (len(wc[0]), wc[0]))
    out = []
    for w, c in items:
        if f.p:
            neg = False
            mag = c
        else:
            neg = c < 0
            mag = -c if neg else c
        body = W.format_word(w) if mag == 1 else "%s*%s" % (mag, W.format_word(w))
        if not out:
            out.append("-" + body if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)
