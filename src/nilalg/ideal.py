"""Exact graded computation in the relatively free algebra with x^n = 0.

Each multidegree component of the relation ideal is the row space of the
bordered polarization instances of that multidegree.  Components are built
recursively: the component at delta is spanned by letter-multiples of the
components one degree down plus the unbordered instances of multidegree
exactly delta.  Row reduction is exact: numpy vectors mod p for prime p,
arbitrary-precision integer rows for the rationals.

For p = 0 a quotient dimension of 0 can be certified cheaply: the rank of an
integer matrix mod any prime is at most its rank over Q, so a vanishing
quotient mod the screening prime forces a vanishing quotient over Q.  The
expensive exact elimination runs only where the screen leaves doubt.
"""

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

import numpy as np

from . import words as W
from .formal import FormalSum, accumulate, check_characteristic
from .polarize import bare_instances

SCREEN_PRIME = 2_147_483_647


class GuardError(RuntimeError):
    """A size or time guard was breached; .partial may hold partial output."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass
class Limits:
    max_component_words: int = 20_000
    timeout_sec: float | None = None
    # time.monotonic() value by which the computation must end; fixed from
    # timeout_sec when a computation starts (see started)
    deadline: float | None = None

    def started(self):
        """These limits with the deadline fixed, unless it already is."""
        if self.timeout_sec is None or self.deadline is not None:
            return self
        return replace(self, deadline=time.monotonic() + self.timeout_sec)

    def check_deadline(self, delta):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise GuardError("timeout reached while building component %r" % (delta,))


DEFAULT_LIMITS = Limits()


class Echelon:
    """Streaming row echelon over F_p (numpy) or Q (integer rows).

    Rows are kept forward-reduced: each stored row leads at its pivot column
    and has zeros before it.  reduce() of any vector is the unique residual
    supported on non-pivot columns.
    """

    def __init__(self, ncols, p):
        self.ncols = ncols
        self.p = p
        self.rows = []
        self.pivots = {}  # column -> index into rows

    @property
    def rank(self):
        return len(self.rows)

    # -- prime field ----------------------------------------------------

    def _add_mod(self, row):
        p = self.p
        pos = 0
        n = self.ncols
        while pos < n:
            if row[pos] == 0:
                pos += 1
                continue
            piv = self.pivots.get(pos)
            if piv is None:
                inv = pow(int(row[pos]), -1, p)
                row = (row * inv) % p
                self.pivots[pos] = len(self.rows)
                self.rows.append(row)
                return True
            row = (row - int(row[pos]) * self.rows[piv]) % p
        return False

    def _reduce_mod(self, row):
        p = self.p
        pos = 0
        n = self.ncols
        while pos < n:
            if row[pos] == 0:
                pos += 1
                continue
            piv = self.pivots.get(pos)
            if piv is None:
                pos += 1
                continue
            row = (row - int(row[pos]) * self.rows[piv]) % p
        return row

    # -- rationals (integer rows, scale-free) ----------------------------

    @staticmethod
    def _normalize_int(row):
        g = 0
        for e in row:
            if e:
                g = gcd(g, e if e > 0 else -e)
                if g == 1:
                    break
        if g > 1:
            row = [e // g for e in row]
        for e in row:
            if e:
                if e < 0:
                    row = [-x for x in row]
                break
        return row

    def _add_int(self, row):
        n = self.ncols
        pos = 0
        big = False
        while pos < n:
            if row[pos] == 0:
                pos += 1
                continue
            piv = self.pivots.get(pos)
            if piv is None:
                row = self._normalize_int(row)
                self.pivots[pos] = len(self.rows)
                self.rows.append(row)
                return True
            prow = self.rows[piv]
            a, b = prow[pos], row[pos]
            g = gcd(a, b if b > 0 else -b)
            a //= g
            b //= g
            row = [a * x - b * y for x, y in zip(row, prow)]
            big = big or abs(a) > 1 << 32
            if big:
                row = self._normalize_int(row)
                big = False
        return False

    def _reduce_int(self, row):
        """Returns (integer residual row, positive scalar s); the exact
        residual of the input is residual/s."""
        n = self.ncols
        scale = 1
        pos = 0
        while pos < n:
            if row[pos] == 0:
                pos += 1
                continue
            piv = self.pivots.get(pos)
            if piv is None:
                pos += 1
                continue
            prow = self.rows[piv]
            a, b = prow[pos], row[pos]
            g = gcd(a, b if b > 0 else -b)
            a //= g
            b //= g
            if a < 0:
                a, b = -a, -b
            row = [a * x - b * y for x, y in zip(row, prow)]
            scale *= a
            g2 = 0
            for e in row:
                if e:
                    g2 = gcd(g2, e if e > 0 else -e)
                    if g2 == 1:
                        break
            if g2 > 1:
                gg = gcd(g2, scale)
                if gg > 1:
                    row = [e // gg for e in row]
                    scale //= gg
        return row, scale

    # -- generic interface -----------------------------------------------

    def coerce(self, coeffs):
        """Dense row from {column index: coefficient}."""
        if self.p:
            row = np.zeros(self.ncols, dtype=np.int64)
            for c, v in coeffs.items():
                row[c] = v % self.p
            return row
        row = [0] * self.ncols
        denom = 1
        for v in coeffs.values():
            if isinstance(v, Fraction) and v.denominator != 1:
                denom = denom * v.denominator // gcd(denom, v.denominator)
        for c, v in coeffs.items():
            row[c] = int(v * denom) if isinstance(v, Fraction) else v * denom
        return row

    def add(self, coeffs):
        """Insert a row given as {column: coefficient}; True if rank grew."""
        row = self.coerce(coeffs)
        if self.p:
            return self._add_mod(row)
        return self._add_int(row)

    def row_terms(self, row):
        """A dense row (stored or residual) as {column: coefficient}."""
        if self.p:
            return {int(c): int(row[c]) for c in np.nonzero(row)[0]}
        return {c: v for c, v in enumerate(row) if v}

    def residual(self, coeffs):
        """Exact residual of a vector as {column: field coefficient}."""
        row = self.coerce(coeffs)
        if self.p:
            return self.row_terms(self._reduce_mod(row))
        denom = 1
        for v in coeffs.values():
            if isinstance(v, Fraction) and v.denominator != 1:
                denom = denom * v.denominator // gcd(denom, v.denominator)
        red, scale = self._reduce_int(row)
        s = Fraction(1, scale * denom)
        return {c: v * s for c, v in self.row_terms(red).items()}

    def contains(self, coeffs):
        return not self.residual(coeffs)

    def rref_rows(self):
        """Rows in reduced echelon form with pivot coefficient 1.

        Returned as a list of {column: field coefficient} dicts, ordered by
        pivot column.
        """
        order = sorted(self.pivots)
        out = []
        for c in order:
            row = self.row_terms(self.rows[self.pivots[c]])
            if not self.p:
                lead = row[c]
                row = {j: Fraction(v, lead) for j, v in row.items()}
            out.append(row)
        # back-eliminate later pivots out of earlier rows
        for i in range(len(out) - 1, -1, -1):
            ci = order[i]
            for row in out[:i]:
                c = row.get(ci)
                if c:
                    accumulate(((k, -c * v) for k, v in out[i].items()), self.p, row)
        return out


class ComponentBasis:
    """Row-reduced span of the relation ideal's component at one multidegree."""

    def __init__(self, n, d, p, delta, words, echelon):
        self.n = n
        self.d = d
        self.p = p
        self.delta = delta
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.echelon = echelon

    @property
    def rank(self):
        return self.echelon.rank

    @property
    def quotient_dimension(self):
        return len(self.words) - self.rank

    def pivot_words(self):
        return [self.words[c] for c in sorted(self.echelon.pivots)]

    def nonpivot_words(self):
        return [
            w for i, w in enumerate(self.words) if i not in self.echelon.pivots
        ]

    def vector_of(self, f):
        return {self.index[w]: c for w, c in f.terms.items()}

    def sum_of(self, coeffs):
        return FormalSum(
            {self.words[c]: v for c, v in coeffs.items()}, self.d, self.p
        )

    def rows_as_sums(self):
        return [self.sum_of(row) for row in self.echelon.rref_rows()]


_cache = {}


def clear_cache():
    _cache.clear()


def _component_words(delta, limits):
    count = W.word_count(delta)
    if count > limits.max_component_words:
        raise GuardError(
            "component %r has %d words, over the limit of %d"
            % (delta, count, limits.max_component_words)
        )
    ws = W.enumerate_words(delta, limit=None)
    d = len(delta)
    ws.sort(key=lambda w: W.word_sort_key(w, d))
    return ws


def component_basis(n, d, p, delta, limits=None):
    """Row-reduced basis of the ideal component of multidegree delta."""
    check_characteristic(p)
    delta = tuple(delta)
    if len(delta) != d:
        raise ValueError("delta %r does not match d=%d" % (delta, d))
    if sum(delta) < 1:
        raise ValueError("need total degree >= 1")
    key = (n, p, delta)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    limits = (limits or DEFAULT_LIMITS).started()

    ws = _component_words(delta, limits)
    index = {w: i for i, w in enumerate(ws)}
    ech = Echelon(len(ws), p)
    ncols = len(ws)

    def full():
        return ech.rank == ncols

    if sum(delta) >= n:
        # letter-multiples of the components one degree down
        for k in range(d):
            if full():
                break
            if delta[k] == 0:
                continue
            child_delta = delta[:k] + (delta[k] - 1,) + delta[k + 1 :]
            if sum(child_delta) < n:
                continue
            child = component_basis(n, d, p, child_delta, limits)
            letter = (k + 1,)
            for row in child.echelon.rows:
                if full():
                    break
                limits.check_deadline(delta)
                terms = child.echelon.row_terms(row)
                left = {index[letter + child.words[c]]: v for c, v in terms.items()}
                right = {index[child.words[c] + letter]: v for c, v in terms.items()}
                ech.add(left)
                if not full():
                    ech.add(right)
        # unbordered polarization instances at exactly delta
        if not full():
            for f in bare_instances(n, delta, p):
                limits.check_deadline(delta)
                ech.add({index[w]: c for w, c in f.terms.items()})
                if full():
                    break

    basis = ComponentBasis(n, d, p, delta, ws, ech)
    _cache[key] = basis
    return basis


def quotient_dimension(n, d, p, delta, limits=None):
    """Dimension of the multidegree-delta component of the quotient algebra.

    For p = 0, a zero quotient mod the screening prime certifies a zero
    quotient over Q and skips the exact elimination.
    """
    delta = tuple(delta)
    limits = (limits or DEFAULT_LIMITS).started()
    if p == 0:
        screen = component_basis(n, d, SCREEN_PRIME, delta, limits)
        if screen.quotient_dimension == 0:
            return 0
    return component_basis(n, d, p, delta, limits).quotient_dimension


def contains(n, p, f, limits=None):
    """Ideal membership: does f vanish in the quotient algebra?"""
    if f.is_zero():
        return True
    limits = (limits or DEFAULT_LIMITS).started()
    for delta, part in f.split_multihomogeneous().items():
        basis = component_basis(n, f.d, p, delta, limits)
        if not basis.echelon.contains(basis.vector_of(part)):
            return False
    return True


def reduce(n, p, f, limits=None):
    """Normal form of f modulo the component bases.

    The residual keeps only words that are not elimination pivots, i.e. the
    profile-greater words under the module's word order.  Linear and
    idempotent.
    """
    if f.is_zero():
        return f
    limits = (limits or DEFAULT_LIMITS).started()
    out = FormalSum.zero(f.d, f.p)
    for delta, part in f.split_multihomogeneous().items():
        basis = component_basis(n, f.d, p, delta, limits)
        out = out + basis.sum_of(basis.echelon.residual(basis.vector_of(part)))
    return out


def mirror(f):
    """Reverse every word; an involutive algebra anti-automorphism."""
    return f.map_words(lambda w: w[::-1])


def substitute_unit(f, k, require_hypothesis=True):
    """Delete every occurrence of letter k (the substitution x_k -> 1).

    With require_hypothesis, every term must have degree <= 3 in letter k
    and positive degree in some other letter.
    """
    for w in f.terms:
        deg_k = sum(1 for letter in w if letter == k)
        if len(w) == deg_k:
            raise W.WordError(
                "term %s would collapse to the empty word" % W.format_word(w)
            )
        if require_hypothesis and deg_k > 3:
            raise ValueError(
                "term %s has degree %d > 3 in letter %d" % (W.format_word(w), deg_k, k)
            )
    return f.map_words(lambda w: tuple(x for x in w if x != k))


def _sorted_multidegrees(total, d):
    """Weakly decreasing multidegree vectors of the given total degree."""
    out = []

    def rec(left, maxpart, acc):
        if len(acc) == d:
            if left == 0:
                out.append(tuple(acc))
            return
        for e in range(min(left, maxpart), -1, -1):
            rec(left - e, e, acc + [e])

    rec(total, total, [])
    return out


@dataclass
class NilpotencyResult:
    n: int
    d: int
    p: int
    degree: int | None  # None when the search exceeded max_deg or stopped
    max_deg: int
    witness: tuple | None
    per_degree: list = field(default_factory=list)
    # why a partial result stopped early (a guard's message), and the last
    # degree whose components were all computed before it did
    stopped: str | None = None
    completed_degree: int | None = None

    @property
    def exceeded(self):
        return self.degree is None and self.stopped is None

    def to_json(self):
        if self.degree is not None:
            degree = self.degree
        elif self.stopped is not None:
            degree = "stopped after degree %d: %s" % (self.completed_degree, self.stopped)
        else:
            degree = "exceeds max_deg %d" % self.max_deg
        out = {
            "n": self.n,
            "d": self.d,
            "p": self.p,
            "degree": degree,
            "witness": W.format_word(self.witness) if self.witness else None,
            "per_degree": self.per_degree,
        }
        if self.stopped is not None:
            out["stopped"] = self.stopped
            out["completed_degree"] = self.completed_degree
        return out


def nilpotency_degree(n, d, p, max_deg, limits=None):
    """Smallest c <= max_deg with every degree-c component vanishing.

    Only weakly decreasing multidegrees are scanned; permuting the letters
    is an automorphism, so the other components have the same dimensions
    (this symmetry is property-tested, not just assumed).
    """
    limits = (limits or DEFAULT_LIMITS).started()
    log = []
    witness = None
    for c in range(1, max_deg + 1):
        all_zero = True
        witness_at_c = None
        for delta in _sorted_multidegrees(c, d):
            try:
                limits.check_deadline(delta)
                qdim = quotient_dimension(n, d, p, delta, limits)
            except GuardError as exc:
                exc.partial = NilpotencyResult(
                    n, d, p, None, max_deg, witness, log,
                    stopped=str(exc), completed_degree=c - 1,
                )
                raise
            basis = None
            if qdim:
                all_zero = False
                basis = component_basis(n, d, p, delta, limits)
                if witness_at_c is None:
                    witness_at_c = basis.nonpivot_words()[-1]
            nwords = W.word_count(delta)
            log.append(
                {
                    "delta": list(delta),
                    "words": nwords,
                    "rank": nwords - qdim,
                    "qdim": qdim,
                }
            )
        if all_zero:
            return NilpotencyResult(n, d, p, c, max_deg, witness, log)
        witness = witness_at_c
    return NilpotencyResult(n, d, p, None, max_deg, witness, log)


_EQUIV_ORDERS = {"gtr", "succ"}


def _class_key(w, d, order):
    if order == "gtr":
        return tuple(W.sorted_power(w, k) for k in range(1, d + 1))
    return tuple(len(W.x_power(w, k)) for k in range(1, d + 1))


def _strictly_greater(w, rep, d, order):
    cmp = W.gtr_compare(w, rep, d) if order == "gtr" else W.succ_compare(w, rep, d)
    return cmp == W.GREATER


def equiv_zero(n, p, f, order, limits=None):
    """Is f equivalent to zero modulo words strictly greater in the order?

    The verdict of equiv_zero_certificate.
    """
    return equiv_zero_certificate(n, p, f, order, limits)[0]


def equiv_zero_certificate(n, p, f, order, limits=None):
    """(verdict, g): is f equivalent to zero modulo strictly greater words?

    f is split into groups of mutually equivalent terms (same sorted run
    vectors for order='gtr', same run counts for order='succ'); each group
    must lie in the span of the ideal component together with the unit
    vectors of all strictly greater words.  If all do, g is a combination
    of strictly greater words with contains(f - g); otherwise g is None.

    Each group is reduced by the component's rows and one row e_i + t_j per
    strictly greater word i, with a tag column t_j after the word columns.
    It lies in the span exactly when its residual has no word column, and
    then its part of g is -sum resid[t_j] e_i.
    """
    if order not in _EQUIV_ORDERS:
        raise ValueError("order must be 'gtr' or 'succ', got %r" % (order,))
    limits = (limits or DEFAULT_LIMITS).started()
    d = f.d
    groups = {}
    for w, c in f.terms.items():
        key = (W.multidegree(w, d), _class_key(w, d, order))
        groups.setdefault(key, {})[w] = c
    g = {}
    for (delta, _), terms in groups.items():
        rep = next(iter(terms))
        basis = component_basis(n, d, p, delta, limits)
        ncols = len(basis.words)
        greater = [
            i
            for i, w in enumerate(basis.words)
            if _strictly_greater(w, rep, d, order)
        ]
        ech = Echelon(ncols + len(greater), p)
        for row in basis.echelon.rows:
            ech.add(basis.echelon.row_terms(row))
        for j, i in enumerate(greater):
            ech.add({i: 1, ncols + j: 1})
        resid = ech.residual({basis.index[w]: c for w, c in terms.items()})
        if any(c < ncols for c in resid):
            return False, None
        accumulate(
            ((basis.words[greater[c - ncols]], -v) for c, v in resid.items()), f.p, g
        )
    return True, FormalSum(g, d, f.p)
