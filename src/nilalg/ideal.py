"""Exact graded computation in the relatively free algebra with x^n = 0.

Each multidegree component of the relation ideal is the row space of the
bordered polarization instances of that multidegree.  Components are built
recursively: the component at delta is spanned by letter-multiples of the
components one degree down plus the unbordered instances of multidegree
exactly delta.  Two rules skip rows that cannot raise the rank.  The left
multiples x_k r of every child row come first, then the right multiples of
each child's complement only, its reduced rows at pivots not of its own left
multiples: the rest, L_{delta-e_k} x_k, lies in sum_j x_j I_{delta-e_j}.
The unbordered instances that lead a letter-moving relation are skipped
(polarize): the relation puts each in the span of the kept instances and
the letter multiples.  A build gathers every child's rows first; the left
multiples, each reduced at its own pivot, then enter the table in one step
(Echelon.seed), and the right multiples and the instances one at a time, in
one loop that stops at full rank.
Only weakly decreasing multidegrees are built from children: any other is
its sorted twin with the letters permuted, an automorphism, and a child
that is not weakly decreasing is read from its twin the same way.
Membership, normal forms and equivalence read a sum through one walk over
its multidegree parts (_parts).

Rows are reduced by one kernel (Echelon): the RREF mod p, kept live as an
int64 table of rank x free columns that takes rows in blocks, each reduced
by one product; for p = 0 it runs mod LIFT_PRIME and is lifted to Q by
rational reconstruction, certified by an exact check (multimodular echelon
form, W. Stein, Modular Forms: A Computational Approach, AMS 2007, ch. 7; the
table follows Faugere-Lachartre, PASCO 2010).  In both fields a component
caches one reduced form, the sparse RREF, and refuses rows added after it;
parents, residuals and normal forms all read it.
"""

import re
import time
from contextlib import suppress
from dataclasses import InitVar, dataclass, field
from functools import cache
from itertools import chain, islice
from fractions import Fraction
from math import isqrt

import numpy as np

from . import words as W
from .formal import (FieldError, FormalSum, accumulate, check_characteristic,
                     clear_denominators, coerce_coeff)
from .polarize import bare_instances

LIFT_PRIME = 2_147_483_647
# Echelon.extend takes rows in chunks of _CHUNK rows, eliminated among
# themselves one row at a time
_CHUNK = 16


class GuardError(RuntimeError):
    """A size or time guard was breached; .partial may hold partial output."""

    partial = None


@dataclass
class Limits:
    """The guards of a computation: at most max_component_words columns per
    component, and a deadline, the time.monotonic() value timeout_sec after
    the limits are made (None without a timeout).  Every call given the same
    limits shares that one deadline."""

    max_component_words: int = 20_000
    timeout_sec: InitVar[float | None] = None
    deadline: float | None = field(init=False)

    def __post_init__(self, timeout_sec):
        self.deadline = None if timeout_sec is None else time.monotonic() + timeout_sec

    def check_deadline(self, delta):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise GuardError("timeout reached while building component %r" % (delta,))

    def check_columns(self, what, count):
        if count > self.max_component_words:
            raise GuardError("%s has %d columns, over the limit of %d"
                             % (what, count, self.max_component_words))


DEFAULT_LIMITS = Limits()


def _lift_primes():
    """LIFT_PRIME, then the primes below it in decreasing order."""
    for q in range(LIFT_PRIME, 2, -2):
        with suppress(FieldError):
            yield check_characteristic(q)


def _rational(a, m):
    """The fraction u/v = a mod m with |u|, v <= sqrt(m/2) (unique), or None;
    in stored form (coerce_coeff): an int when v divides u."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if not t1 or abs(t1) > bound:
        return None
    return r1 // t1 if r1 % t1 == 0 else Fraction(r1, t1)


def _rref_rows(pivots, free, table):
    """RREF rows as (columns, coefficients): 1 at pivots[i], and table[i][j]
    at free[j] where it is nonzero."""
    return [tuple(zip((c, 1), *((j, x) for j, x in zip(free, row.tolist()) if x)))
            for c, row in zip(pivots, table)]


class Echelon:
    """Row echelon over F_p or Q, kept as the live RREF mod q, read through
    one reduced form.

    q is the prime p or, for p = 0, LIFT_PRIME.  The RREF mod q of the rows
    added so far is held as an int64 table of rank x free columns: row i has
    1 at _pivots[i] and table[i] at the ascending _free columns, and is zero
    on the free columns before its pivot (column order).  Rows go in through
    one kernel, extend(), a chunk of _CHUNK rows at a time; add() is its
    one-row case.  seed() takes rows already reduced at pivots of their own,
    and alone restores the column order they break.  raised records, for
    every row, whether it raised the rank mod q (what add() returns), as if
    the rows went in one at a time, and rank is the rank mod q until the
    reduced form is taken.  check() is called before each chunk and between
    the steps of the lift, and may raise.
    Over Q the offered rows are also kept, scaled to integers.  The first read of
    rows, pivots or residual takes the reduced form, the sparse RREF rows
    ((pivot, free columns...), (1, entries...)), in both fields.
    Mod p it is the table; over Q it is certified:
    1. take the RREF mod LIFT_PRIME;
    2. rationally reconstruct its entries, giving rows R;
    3. check exactly, in integers, that every offered row a equals the sum
       over pivot columns c of a[c] R_c.  R is independent and rank_Q >=
       rank mod q = len(R), so R is then the unique RREF over Q;
    4. if 2 or 3 fails, reduce the offered rows mod further primes, combine
       by CRT the RREFs of the primes with the best pivot set so far (largest
       rank, then earliest pivots) and retry 2 and 3 whenever the number of
       primes combined is a power of two: the lift then uses at most twice
       the primes it needs, and tries 2 and 3 about log2 of that many times.
    A full rank mod LIFT_PRIME forces a full rank over Q: the RREF is the
    identity and nothing is reconstructed.  Where the rank over Q exceeds the
    rank mod LIFT_PRIME, the lift marks every row in raised; else the marked
    rows, independent mod LIFT_PRIME and so over Q, span the offered rows.
    Taking the reduced form drops the table and the offered rows, and add()
    is refused after it.
    """

    def __init__(self, ncols, p, check=None):
        self.ncols = ncols
        self.p = p
        self._check = check or (lambda: None)
        self.q = q = p or LIFT_PRIME
        self._pivots = np.arange(0)  # pivot columns, in the order of the table rows
        self._free = np.arange(ncols)
        self._table = np.zeros((0, ncols), dtype=np.int64)
        # a @ t is exact in int64 while sum_i a_i t_i < 2**63, a_i, t_i < q:
        # for sums of at most _plain terms (1 at MAX_PRIME, 2 at LIFT_PRIME).
        # Longer sums split t into 16-bit limbs (for q above 2**16) and take
        # at most _terms terms at a time (46 341 at MAX_PRIME, 65 537 at
        # LIFT_PRIME)
        self._plain = (2**63 - 1) // (q - 1) ** 2
        self._terms = (2**63 - 1) // ((q - 1) * (min(q, 1 << 16) - 1))
        self._offered = []  # p = 0: the offered (columns, integers) rows
        self._reduced = None  # (rows, pivots) once taken
        self.raised = []  # per added row: did it raise the rank mod q

    @property
    def rank(self):
        return len(self._pivots if self._reduced is None else self._reduced[1])

    @property
    def rows(self):
        return self.lift()[0]

    @property
    def pivots(self):
        """{pivot column: index into rows}."""
        return self.lift()[1]

    def independent(self):
        """raised, exact over the field: mod p, and over Q where every row
        raised the rank mod LIFT_PRIME (rows independent mod a prime are
        independent over Q), it is already; else after the lift."""
        if not (self.p or all(self.raised)):
            self.lift()
        return self.raised

    def lift(self):
        """The reduced form (rows, pivots), taken on the first call."""
        if self._reduced is None:
            pivots, free, table = self._certified_rref()
            if len(pivots) > len(self._pivots):
                self.raised = [True] * len(self.raised)
            self._reduced = (_rref_rows(pivots, free, table),
                             {c: i for i, c in enumerate(pivots)})
            self._pivots = self._free = self._table = self._offered = None
        return self._reduced

    def _minus(self, a, x, t):
        """(a - x @ t) mod q, exact in int64, for entries in [0, q); a new
        array, with at most two more of a's size alive at once."""
        q = self.q
        if x.shape[1] <= self._plain:
            # numpy's integer matmul is slower than a broadcast for one term
            out = x * t if x.shape[1] == 1 else x @ t
            np.subtract(a, out, out=out)
            return np.remainder(out, q, out=out)
        for s in range(0, x.shape[1], self._terms):
            u, v = x[:, s:s + self._terms], t[s:s + self._terms]
            low = u @ (v & 0xFFFF)
            low %= q
            out = u @ (v >> 16)
            out %= q
            out <<= 16
            out += low
            del low
            a = np.subtract(a, out, out=out)
            a %= q
        return a

    def _rref_mod(self):
        """(pivots, free columns, table): the RREF mod q has 1 at pivots[i]
        and table[i] in the free columns."""
        order = np.argsort(self._pivots)
        return self._pivots[order].tolist(), self._free.tolist(), self._table[order]

    def _certified_rref(self):
        """(pivots, free columns, table) of the RREF over the field: the RREF
        mod q where it is exact (mod p, or at full rank), else steps 1-4."""
        self._check()
        if self.p or len(self._pivots) == self.ncols:
            return self._rref_mod()
        n = self.ncols
        # [(-rank, pivots), modulus, RREF table mod the modulus, primes in it]
        best = None
        for q in _lift_primes():
            self._check()
            ech = self
            if q != self.q:
                ech = Echelon(n, q, self._check)
                ech.extend(dict(zip(*row)) for row in self._offered)
            pivots, free, table = ech._rref_mod()
            key = (-len(pivots), pivots)
            if best is None or key < best[0]:
                best = [key, q, table, 1]
            elif key == best[0]:
                m, old = best[1], best[2].astype(object)
                best[1:] = m * q, old + m * ((table - old) * pow(m, -1, q) % q), best[3] + 1
            else:
                continue  # q lost rank or moved a pivot: it divides a minor
            if best[3] & (best[3] - 1):
                continue  # steps 2 and 3 only at 1, 2, 4, 8, ... primes
            # reconstruct each distinct residue once; where indexes them
            residues, where = np.unique(best[2], return_inverse=True)
            fracs = [_rational(int(t), best[1]) for t in residues]
            if any(x is None for x in fracs):
                continue
            where = where.reshape(best[2].shape)
            if self._spans(pivots, free, fracs, where):
                return pivots, free, np.array(fracs, dtype=object)[where]

    def _spans(self, pivots, free, fracs, where):
        """Is every offered row a the sum over pivots c of a[c] R_c?  Exact:
        den a[free] == a[pivots] @ (den table) on integer blocks of rows, den
        the common denominator, in int64 only if no sum can reach 2**63."""
        scaled, den = clear_denominators(fracs)
        top = max((abs(v) for _, vals in self._offered for v in vals), default=0)
        bound = top * max(den, len(pivots) * max(map(abs, scaled), default=0))
        dtype = np.int64 if bound < 2**63 else object
        scaled = np.array(scaled, dtype=dtype)[where]
        step = max(1, 2**14 // max(1, self.ncols))
        for start in range(0, len(self._offered), step):
            self._check()
            block = np.zeros((min(step, len(self._offered) - start), self.ncols), dtype)
            for i, (cols, vals) in enumerate(self._offered[start:start + step]):
                block[i, list(cols)] = vals
            if not np.array_equal(block[:, free] * den, block[:, pivots] @ scaled):
                return False
        return True

    def add(self, coeffs):
        """Insert a row {column: coefficient}; True if the rank mod q grew.
        The one-row case of extend()."""
        self.extend([coeffs])
        return self.raised[-1]

    def extend(self, rows):
        """Insert rows {column: coefficient} in their order, recording in
        raised whether each raised the rank mod q, as one add() per row
        would.  The rows go in chunks of _CHUNK rows, check() before each.
        FieldError if a denominator is divisible by q, before any row of its
        chunk goes in; ValueError once the reduced form is taken."""
        if self._reduced is not None:
            raise ValueError("cannot add a row after the reduced form is taken")
        rows = iter(rows)
        while chunk := list(islice(rows, _CHUNK)):
            self._check()
            self._insert_chunk(chunk)

    def _insert_chunk(self, rows):
        """Insert a chunk of rows {column: coefficient} as one block."""
        q = self.q
        block = np.zeros((len(rows), self.ncols), dtype=np.int64)
        for i, row in enumerate(rows):
            vals = self._offer(row, row.values()) if not self.p else row.values()
            block[i, list(row)] = [x % q if type(x) is int else coerce_coeff(x, q) for x in vals]
        self._reduce(block)

    def _reduce(self, block):
        """Insert a block of rows over all columns, entries in [0, q):
        1. reduce them by the table rows they touch in one product;
        2. eliminate among them in row order: a row that does not vanish
           becomes a pivot at its first nonzero free column, scaled to 1
           there and cleared from the other rows;
        3. clear the new pivot columns out of the table in one product;
        4. insert the new pivot rows with one copy of the table."""
        q = self.q
        block, a = block[:, self._free], block[:, self._pivots]
        used = np.flatnonzero(a.any(axis=0))
        if len(used):  # the table rows the chunk touches: all, without a copy
            touched = self._table if len(used) == len(self._table) else self._table[used]
            block = self._minus(block, a[:, used], touched)
        new, at = [], []
        for i, row in enumerate(block):
            nonzero = np.flatnonzero(row)
            self.raised.append(bool(len(nonzero)))
            if len(nonzero):
                j = nonzero[0]
                row *= pow(int(row[j]), -1, q)
                row %= q
                hit = np.flatnonzero(block[:, j])
                hit = hit[hit != i]
                if len(hit):
                    block[hit] = (block[hit] - block[hit, j, None] * row) % q
                new.append(i)
                at.append(j)
        if new:
            block = block[new]
            hit = np.flatnonzero(self._table[:, at].any(axis=1))
            if len(hit) == len(self._table):  # every row: no gather and scatter
                self._table = self._minus(self._table, self._table[:, at], block)
            elif len(hit):
                part = self._table[hit]
                self._table[hit] = self._minus(part, part[:, at], block)
            self._insert(np.array(at), block)

    def seed(self, rows):
        """Insert rows (columns, coefficients) already reduced, at once: each
        has 1 at its first column, its pivot, where no other row, held or
        seeded, has an entry, and none at a held pivot.  They are scattered
        into the table as they are; if one has an entry before its pivot,
        the table is then put back into column order.  As in extend(), each
        is recorded in raised, with FieldError and ValueError."""
        if self._reduced is not None:
            raise ValueError("cannot add a row after the reduced form is taken")
        i, cols, vals = [], [], []
        for r, (c, v) in enumerate(rows):
            i += [r] * (len(c) - 1)
            cols += c[1:]
            vals += [coerce_coeff(x, self.q) for x in v[1:]]
            if not self.p:
                self._offer(c, v)
        block = self._insert(np.searchsorted(self._free, [c[0] for c, _ in rows]))
        block[i, np.searchsorted(self._free, cols)] = vals
        self.raised += [True] * len(rows)
        if all(min(c) == c[0] for c, _ in rows):
            return
        # Modulo the rows a free column f is e_f and a pivot column c_i is
        # -table[i].  These images, one row per free column, are eliminated
        # with the columns reversed: the pivots u of that, each independent
        # of the images of the later columns, are the new free columns, and
        # its table R gives image(w) = sum_u R[u, w] image(u) for each other
        # column w.  The RREF row of w is e_w - sum_u R[u, w] e_u, so the new
        # table is -R transposed.
        n, q, free = self.ncols, self.q, self._free
        images = np.zeros((len(free), n), dtype=np.int64)
        images[np.arange(len(free)), free] = 1
        images[:, self._pivots] = -self._table.T % q
        quotient = Echelon(n, q)
        quotient._reduce(images[:, ::-1])
        normal = n - 1 - quotient._pivots
        order = np.argsort(normal)
        self._pivots, self._free = n - 1 - quotient._free, normal[order]
        self._table = np.negative(quotient._table[order].T, order="C")
        self._table %= q

    def _offer(self, cols, vals):
        """Keep a row over Q as integers, times its common denominator."""
        self._offered.append((tuple(cols), clear_denominators(vals)[0]))
        return self._offered[-1][1]

    def _insert(self, at, rows=None):
        """Make pivots of the free columns at positions at, in one allocation:
        the table without those columns, and one new row each, rows (given
        on the old free columns) cut to the new ones, or zero."""
        rank = len(self._pivots)
        self._pivots = np.concatenate((self._pivots, self._free[at]))
        keep = np.ones(len(self._free), dtype=bool)
        keep[at] = False
        kept = np.flatnonzero(keep)
        table = np.empty((rank + len(at), len(kept)), dtype=np.int64)
        # mode="clip" copies straight into out, where "raise" copies through a buffer
        np.take(self._table, kept, axis=1, out=table[:rank], mode="clip")
        if rows is None:
            table[rank:] = 0
        else:
            np.take(rows, kept, axis=1, out=table[rank:], mode="clip")
        self._table, self._free = table, self._free[kept]
        return table[rank:]

    def residual(self, coeffs):
        """Exact residual of a vector as {column: field coefficient}, read
        from the reduced form (taken first if need be)."""
        rows, pivots = self.lift()
        p = self.p
        out = {c: x for c, v in coeffs.items() if (x := coerce_coeff(v, p))}
        # the rows are reduced: one pass over the vector's pivot columns
        for c in [c for c in out if c in pivots]:
            v = out[c]
            cols, vals = rows[pivots[c]]
            accumulate(zip(cols, [-v * x for x in vals]), p, out)
        return out

    def contains(self, coeffs):
        return not self.residual(coeffs)


class ComponentBasis:
    """Row-reduced span of the relation ideal's component at one multidegree."""

    def __init__(self, d, p, words, index, echelon, complement):
        self.d = d
        self.p = p
        self.words = words
        self.index = index  # word -> column
        self.echelon = echelon
        # (columns, coefficients) rows that with the left multiples of the
        # components one degree down span this one: the reduced rows whose
        # pivot is no left multiple's own (mapped from the twin's when delta
        # is not weakly decreasing)
        self.complement = complement

    @property
    def rank(self):
        return self.echelon.rank

    @property
    def quotient_dimension(self):
        return len(self.words) - self.rank

    def nonpivot_words(self):
        pivots = self.echelon.pivots
        return [w for c, w in enumerate(self.words) if c not in pivots]

    def vector_of(self, f):
        return {self.index[w]: c for w, c in f.terms.items()}


_cache = {}


def clear_cache():
    _cache.clear()


def _component_words(delta, limits):
    limits.check_columns("component %r" % (delta,), W.word_count(delta))
    ws = W.enumerate_words(delta)
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
    limits = limits or DEFAULT_LIMITS
    limits.check_deadline(delta)

    ws = _component_words(delta, limits)
    index = {w: i for i, w in enumerate(ws)}
    ech = Echelon(len(ws), p, lambda: limits.check_deadline(delta))

    # Every child's rows are gathered first.  The RREF rows of a component
    # are read from the component of its weakly decreasing permutation (its
    # twin), letters permuted back: permuting letters is an automorphism,
    # mapping L_T onto L_{sigma T} and I_T onto I_{sigma T}.  A delta not
    # weakly decreasing is its twin mapped, rows and complement, with prefix
    # (); otherwise the children are the components one degree down, giving
    # the left multiples x_k * (RREF rows) and the right multiples of their
    # complements only (the child's left multiples times x_k are left
    # multiples here).
    unsorted = any(a < b for a, b in zip(delta, delta[1:]))
    parts = [((), delta)] if unsorted else [
        ((k + 1,), delta[:k] + (delta[k] - 1,) + delta[k + 1:])
        for k in range(d) if delta[k] and sum(delta) > n]
    left, right = [], []
    for prefix, part in parts:
        order = sorted(range(d), key=lambda k: -part[k])
        try:
            twin = component_basis(n, d, p, tuple(part[k] for k in order), limits)
        except RecursionError:
            raise GuardError("component %r rests on a chain of lower components "
                             "too deep to build" % (delta,)) from None
        words = twin.words if order == sorted(order) else [
            tuple(order[x - 1] + 1 for x in w) for w in twin.words]
        # A mapped row keeps its pivot, a column where no other row has an
        # entry, and the blocks of different k share no column: every left
        # multiple is seeded, reduced at its own pivot
        column = [index[prefix + w] for w in words]
        left += [([column[c] for c in cols], vals) for cols, vals in twin.echelon.rows]
        column = [index[w + prefix] for w in words]
        right += [([column[c] for c in cols], vals) for cols, vals in twin.complement]
    ech.seed(left)
    if not unsorted and sum(delta) >= n and ech.rank < len(ws):
        # then, one at a time, the right multiples and the unbordered
        # polarization instances at exactly delta
        for row in chain((dict(zip(*r)) for r in right), bare_instances(n, delta, p, ws)):
            ech.add(row)
            if ech.rank == len(ws):
                break

    # The complement is read off the reduced rows R_c, c in the pivots P:
    # those whose pivot is no seeded row's own.  A seeded row l_s has 1 at s
    # and 0 at every other seeded pivot, so for s in P, l_s = R_s + the sum
    # of (l_s)_c R_c over the pivots c in P not seeded: every R_c lies in the
    # span of the left multiples and the complement, in every field.
    rows = ech.lift()[0]
    seeded = {cols[0] for cols, _ in left}
    complement = right if unsorted else [row for row in rows if row[0][0] not in seeded]
    basis = ComponentBasis(d, p, ws, index, ech, complement)
    _cache[key] = basis
    return basis


def quotient_dimension(n, d, p, delta, limits=None):
    """Dimension of the multidegree-delta component of the quotient algebra."""
    return component_basis(n, d, p, delta, limits).quotient_dimension


def _outside_powers(n, f):
    """f without its terms u x_k^n v, whose word has a run of n equal
    letters: they lie in the ideal, and need no component."""
    run = re.compile(r"(.)\1{%d}" % (n - 1), re.DOTALL)
    return f._like({w: c for w, c in f.terms.items() if not run.search("".join(map(chr, w)))})


def _parts(n, p, f, limits):
    """(component, column vector) for each multidegree part of f outside the
    n-th powers; FieldError, before any component is built, if p is not the
    characteristic of f."""
    if p != f.p:
        raise FieldError("the sum is over p = %d, not p = %d" % (f.p, p))
    for delta, part in _outside_powers(n, f).split_multihomogeneous().items():
        basis = component_basis(n, f.d, p, delta, limits)
        yield basis, basis.vector_of(part)


def contains(n, p, f, limits=None):
    """Ideal membership: does f vanish in the quotient algebra?"""
    return all(basis.echelon.contains(v) for basis, v in _parts(n, p, f, limits))


def reduce(n, p, f, limits=None):
    """Normal form of f modulo the component bases.

    The residual keeps only words that are not elimination pivots, i.e. the
    profile-greater words under the module's word order.  Linear and
    idempotent.
    """
    out = {}
    for basis, v in _parts(n, p, f, limits):
        out.update((basis.words[c], x) for c, x in basis.echelon.residual(v).items())
    return FormalSum(out, f.d, p)


def mirror(f):
    """Reverse every word; an involutive algebra anti-automorphism."""
    return f.map_words(lambda w: w[::-1])


def substitute_unit(f, k):
    """Delete every occurrence of letter k (the substitution x_k -> 1).

    Every term must have degree <= 3 in letter k and positive degree in some
    other letter.
    """
    for w in f.terms:
        deg_k = sum(1 for letter in w if letter == k)
        if len(w) == deg_k:
            raise W.WordError(
                "term %s would collapse to the empty word" % W.format_word(w)
            )
        if deg_k > 3:
            raise ValueError(
                "term %s has degree %d > 3 in letter %d" % (W.format_word(w), deg_k, k)
            )
    return f.map_words(lambda w: tuple(x for x in w if x != k))


def _sorted_multidegrees(total, d):
    """Weakly decreasing multidegree vectors of the given total degree,
    largest first part first, found depth first on an explicit stack."""
    out = []
    stack = [(total, total, ())]  # (degree left, largest part allowed, parts)
    while stack:
        left, maxpart, acc = stack.pop()
        if len(acc) == d:
            if left == 0:
                out.append(acc)
            continue
        # pushed ascending, so popped with the largest next part first
        stack.extend((left - e, e, acc + (e,)) for e in range(min(left, maxpart) + 1))
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

    def to_json(self):
        if self.degree is not None:
            degree = self.degree
        elif self.stopped is not None:
            degree = "stopped after degree %d: %s" % (self.completed_degree, self.stopped)
        else:
            degree = "exceeds max_deg %d" % self.max_deg
        out = {"n": self.n, "d": self.d, "p": self.p, "degree": degree,
               "witness": W.format_word(self.witness) if self.witness else None,
               "per_degree": self.per_degree}
        if self.stopped is not None:
            out["stopped"] = self.stopped
            out["completed_degree"] = self.completed_degree
        return out


def nilpotency_degree(n, d, p, max_deg, limits=None):
    """Smallest c <= max_deg with every degree-c component vanishing.

    Only weakly decreasing multidegrees are scanned; permuting the letters
    is an automorphism, so the other components have the same dimensions
    (this symmetry is used, and tested against the bordered-instance
    oracle).
    """
    limits = limits or DEFAULT_LIMITS
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
            if qdim:
                all_zero = False
                basis = component_basis(n, d, p, delta, limits)
                if witness_at_c is None:
                    witness_at_c = basis.nonpivot_words()[-1]
            nwords = W.word_count(delta)
            log.append({"delta": list(delta), "words": nwords, "rank": nwords - qdim,
                        "qdim": qdim})
        if all_zero:
            return NilpotencyResult(n, d, p, c, max_deg, witness, log)
        witness = witness_at_c
    return NilpotencyResult(n, d, p, None, max_deg, witness, log)


def equiv_zero(n, p, f, order, limits=None):
    """Is f equivalent to zero modulo words strictly greater in the order?

    The verdict of equiv_zero_certificate.
    """
    return equiv_zero_certificate(n, p, f, order, limits)[0]


def equiv_zero_certificate(n, p, f, order, limits=None):
    """(verdict, g): is f equivalent to zero modulo strictly greater words?

    f is split into groups of mutually equivalent terms (same multidegree
    and words.order_key); each group must lie in the span of the ideal
    component together with the unit vectors of all strictly greater words.
    If all do, g is a combination of strictly greater words with
    contains(f - g); otherwise g is None.  One component is looked up per
    multidegree.

    Each group is decided on the component's RREF rows R_i (1 at pivot i,
    the rest on free columns).  Modulo the ideal a free word c is itself and
    a pivot word i is -R_i without its pivot, so the group's residual splits
    into its greater words, which go to g as they are, and the rest, low.
    An empty low is the verdict True.  Otherwise low must be a combination
    of the "touching" rows: the rows of greater pivot words with an entry
    on a free column that is not greater.  It is found by a small
    elimination on those rows, cut to the non-greater columns, with one tag
    column t_i each; a residual v on the tags alone gives g the terms
    v_i (e_i + the greater part of R_i).  Strictly greater is decided only
    for the columns these steps read.
    """
    W.order_key((), 0, order)  # refuses an unknown order, even for f = 0
    g = {}
    for basis, v in _parts(n, p, f, limits):
        groups = {}
        for c, x in v.items():
            groups.setdefault(W.order_key(basis.words[c], f.d, order), {})[c] = x
        for key, terms in groups.items():
            part = _equiv_group(basis, terms, key, order)
            if part is None:
                return False, None
            accumulate(part, p, g)
    return True, FormalSum(g, f.d, p)


def _equiv_group(basis, terms, key, order):
    """(word, coefficient) pairs of strictly greater words that one group of
    equivalent terms, {column: coefficient} all with order key key, is
    congruent to, or None if it is not equivalent to zero."""
    words, d = basis.words, basis.d

    @cache
    def greater(c):
        return W.compare_keys(W.order_key(words[c], d, order), key) == W.GREATER

    part = basis.echelon.residual(terms)
    out = [(words[c], v) for c, v in part.items() if greater(c)]
    low = {c: v for c, v in part.items() if not greater(c)}
    if not low:
        return out
    touching = [(cols, vals) for cols, vals in basis.echelon.rows
                if not all(map(greater, cols[1:])) and greater(cols[0])]
    if not touching:
        return None
    # the non-greater columns, low's first, then one tag column per row
    column = {c: j for j, c in enumerate(low)}
    cut = [{column.setdefault(c, len(column)): v for c, v in zip(cols, vals) if not greater(c)}
           for cols, vals in touching]
    tag = len(column)
    ech = Echelon(tag + len(touching), basis.p)
    for j, row in enumerate(cut):
        row[tag + j] = 1
    ech.extend(cut)
    resid = ech.residual({column[c]: v for c, v in low.items()})
    if any(c < tag for c in resid):
        return None
    for j, v in resid.items():
        cols, vals = touching[j - tag]
        out.extend((words[c], v * x) for c, x in zip(cols, vals) if greater(c))
    return out
