"""Invariants of tuples of generic matrices under simultaneous conjugation.

Entries of the d generic n x n matrices are independent commuting variables;
polynomials are sparse dicts over Q or F_p.  A monomial is its exponent
vector packed into one int, one byte per variable and the first variable in
the highest byte, so keys sort as the exponent tuples do and a product of
monomials is a sum of keys.  Over Q, Poly keeps an integral coefficient as
int and a Fraction only for a real denominator, so generic matrices, their
products and minors are computed in integer arithmetic.  sigma_t is the
coefficient of lambda^(n-t) in det(X + lambda E), computed as the sum of
principal t x t minors, which is valid in every characteristic.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, compress, product, repeat
from operator import add, itemgetter, le, mul, or_, sub

from . import bounds as B
from . import words as W
from .formal import SparseSum, check_characteristic, clear_denominators, coerce_coeff
from .ideal import DEFAULT_LIMITS, Echelon


def var_index(n, i, j, k):
    """Variable number of the (i, j) entry of the k-th generic matrix."""
    return ((k - 1) * n + i) * n + j


class Poly(SparseSum):
    """Sparse multivariate polynomial, a SparseSum of universe (nvars, p).

    Keys are exponent tuples of length nvars with entries in 0..255
    (ValueError otherwise), packed by _key, so the product of two monomials
    is the sum of their keys; a product refuses a factor with an exponent
    above 127 (ValueError), so nothing carries.  Every constructor refuses a
    p that is no field (FieldError).  Over Q an integral coefficient is
    stored as int, so integer polynomials stay in int arithmetic.
    """

    __slots__ = ("nvars",)

    def __init__(self, terms, nvars, p, _normalized=False):
        self.nvars = nvars
        self.p = p
        self.terms = terms if _normalized else self._stored(terms)

    def _universe(self):
        return self.nvars, self.p

    def _key(self, e):
        if len(e) != self.nvars:
            raise ValueError("need %d exponents, got %r" % (self.nvars, e))
        return int.from_bytes(bytes(e), "big")

    @classmethod
    def const(cls, c, nvars, p):
        return cls({(0,) * nvars: c}, nvars, p)

    @classmethod
    def variable(cls, idx, nvars, p):
        e = [0] * nvars
        e[idx] = 1
        return cls({tuple(e): 1}, nvars, p)

    def __mul__(self, other):
        self._check_same_universe(other)
        high = int.from_bytes(b"\x80" * self.nvars, "big")  # bit 7 of every exponent
        if (reduce(or_, self.terms, 0) | reduce(or_, other.terms, 0)) & high:
            raise ValueError("a factor has an exponent above 127")
        return self._times(other)

    def evaluate(self, values):
        """Evaluate at a full vector of ints or Fractions (ValueError
        otherwise), in integers: with D the lcm of the values' denominators,
        a term of degree k is scaled by D^(top - k), top the largest degree,
        and one Fraction, the sum over D^top, is brought into the field."""
        if len(values) != self.nvars:
            raise ValueError("need %d values, got %d" % (self.nvars, len(values)))
        nums, den = clear_denominators(values)
        terms = [(c, key.to_bytes(self.nvars, "big")) for key, c in self.terms.items()]
        top = max((sum(e) for _, e in terms), default=0)
        total = 0
        for c, e in terms:
            c *= den ** (top - sum(e))
            for v, x in zip(nums, e):
                if x:
                    c *= v ** x
            total += c
        return coerce_coeff(Fraction(total, den ** top), self.p)


def generic_matrix(n, d, p, k):
    nvars = n * n * d
    return [
        [Poly.variable(var_index(n, i, j, k), nvars, p) for j in range(n)]
        for i in range(n)
    ]


def mat_mul(a, b):
    """The matrix product a b, with entries Polys or scalars."""
    return [[reduce(add, map(mul, row, col)) for col in zip(*b)] for row in a]


def eval_word(n, d, a, p=0):
    """Product of generic matrices along the word a."""
    return _prefix_products(n, d, p)(W.validate_word(tuple(a), d))


def _prefix_products(n, d, p):
    """A function a -> eval_word(n, d, a, p) that keeps the prefix products
    of the last word and multiplies on from its longest common prefix with
    the next: words in lexicographic order make each prefix product once."""
    letters = [generic_matrix(n, d, p, k) for k in range(1, d + 1)]
    stack = []  # (letter, product of the last word up to that letter)

    def product_of(a):
        keep = next((i for i, (k, (top, _)) in enumerate(zip(a, stack)) if k != top), len(a))
        del stack[keep:]
        for k in a[len(stack):]:
            m = letters[k - 1]
            stack.append((k, mat_mul(stack[-1][1], m) if stack else m))
        return stack[-1][1]

    return product_of


def _minor(m, i, j):
    """The square matrix m without its row i and its column j."""
    return [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]


def _det(m):
    """Determinant of a square matrix of Polys or ints (1 if empty), expanded
    along the first row, each sign a negation: about n! products, for generic
    matrices at n <= 3 and conjugate_tuple at n = 2 (benchmark), n <= 4 (tests)."""
    if len(m) <= 1:
        return m[0][0] if m else 1
    terms = (a * _det(_minor(m, 0, j)) for j, a in enumerate(m[0]))
    return reduce(add, (-x if j % 2 else x for j, x in enumerate(terms)))


def sigma_poly(t, M):
    """Sum of the principal t x t minors of M (sigma_0 = 1), in the universe
    of M's entries."""
    n = len(M)
    if not (0 <= t <= n):
        raise ValueError("need 0 <= t <= %d, got %d" % (n, t))
    if t == 0:
        return Poly.const(1, *M[0][0]._universe())
    return reduce(add, (_det([[M[i][j] for j in rows] for i in rows])
                        for rows in combinations(range(n), t)))


@dataclass(frozen=True)
class InvariantPoly:
    poly: Poly
    xdeg: tuple  # total degree in the entries of each generic matrix
    t: int
    word: tuple  # the word a of sigma_t(X_a)


@dataclass
class GeneratorSet:
    n: int
    d: int
    p: int
    entries: list  # InvariantPoly for sigma_t(X_a), t = 1 or p <= t <= n/2
    tail: list  # InvariantPoly for sigma_t(X_i), n/2 < t <= n, p <= t
    degree_sources: dict  # t -> the degree cap used for C(floor(n/t), d)

    def all(self):
        return self.entries + self.tail


def cyclic_min(w):
    return min(w[i:] + w[:i] for i in range(len(w)))


def _sigmas(n, d, p, pairs, limits):
    """InvariantPoly(sigma_t(X_a)) for each (t, a) in pairs, in their order.
    They are made in word order, along one stack of prefix products, with
    the deadline checked before each."""
    word_product = _prefix_products(n, d, p)
    out = [None] * len(pairs)
    for i in sorted(range(len(pairs)), key=lambda i: pairs[i][1]):
        t, a = pairs[i]
        xdeg = tuple(t * e for e in W.multidegree(a, d))
        limits.check_deadline(xdeg)
        out[i] = InvariantPoly(sigma_poly(t, word_product(a)), xdeg, t, a)
    return out


def sigma_of_word(n, d, t, a, p=0):
    return _sigmas(n, d, p, [(t, W.validate_word(tuple(a), d))], DEFAULT_LIMITS)[0]


def generator_set(n, d, p, limits=None):
    """The finite generating set of the conjugation-invariant ring.

    sigma_t(X_a) for t = 1 or p <= t <= n/2 with deg a bounded by the
    nilpotency degree for power floor(n/t), plus sigma_t of the single
    matrices for n/2 < t <= n with p <= t.  Words are deduplicated up to
    cyclic rotation.  The degree caps are bounds.exact_known.  All are made
    by one _sigmas call, under limits, so words share their prefix products.
    """
    limits = limits or DEFAULT_LIMITS
    check_characteristic(p)
    if n not in (2, 3):
        raise ValueError("generic-matrix computations support n in {2, 3}")
    entries = []
    caps = {}
    for t in range(1, n // 2 + 1):
        if t != 1 and not (p <= t):
            continue
        caps[t] = cap = B.exact_known(n // t, d, p)
        entries += [(t, rep) for deg in range(1, cap + 1) for rep in _cyclic_reps(deg, d)]
    tail = [(t, (i,)) for t in range(n // 2 + 1, n + 1) if p <= t for i in range(1, d + 1)]
    sigmas = _sigmas(n, d, p, entries + tail, limits)
    return GeneratorSet(n, d, p, sigmas[:len(entries)], sigmas[len(entries):], caps)


def _cyclic_reps(deg, d):
    """The cyclic_min of every word of degree deg, once each, in word order."""
    return dict.fromkeys(cyclic_min(a) for a in product(range(1, d + 1), repeat=deg))


def subalgebra_reduce(gens, targets, limits=None, spans=None):
    """Which targets lie in the span of products of the given generators?

    The targets share one X-multidegree delta (ValueError otherwise); this is
    the degreewise membership test in the graded ring (Derksen-Kemper,
    Computational Invariant Theory, sec. 3).  The field is the targets':
    every target and generator is a Poly of one universe (nvars, p),
    FieldError otherwise.  The span at delta is built recursively by _span
    from products of multipliers: the generators that raise the rank at their
    own X-multidegree after all products there, the indecomposable ones.
    spans, X-multidegree -> (basis, multipliers, tags), may be shared by
    calls with the same generators.  Each span has at most
    limits.max_component_words monomials.  A target is tested against the
    reduced form of the span's echelon, taken here, under the deadline: a
    span that no target asks about is never lifted.  Returns one bool per
    target, in order.
    """
    xdegs = {target.xdeg for target in targets}
    if len(xdegs) != 1:
        raise ValueError("targets must share one X-multidegree, got %r" % sorted(xdegs))
    (xdeg,) = xdegs
    for h in chain(targets, gens):
        targets[0].poly._check_same_universe(h.poly)
    p = targets[0].poly.p
    limits = limits or DEFAULT_LIMITS
    spans = {} if spans is None else spans
    built = _span(gens, xdeg, p, limits, spans)
    ech, index = built or _echelon(spans[xdeg][0], xdeg, p, limits)
    ech.lift()
    return [
        index.keys() >= target.poly.terms.keys()
        and ech.contains({index[m]: c for m, c in target.poly.terms.items()})
        for target in targets
    ]


def _span(gens, xdeg, p, limits, spans):
    """Build spans[xdeg] = (basis, multipliers, tags) and the spans it needs
    below; this build's (echelon, monomial index), or None if xdeg was built.

    With generators ordered by (total X-degree, position in gens), tags[i]
    is the key of the smallest factor of basis[i], a generator at xdeg its
    own.  A product of multipliers is h * m, h its smallest factor, so xdeg
    is offered h * b for each multiplier h below and each b tagged >= h at
    xdeg - h.xdeg, largest h first, then the generators at xdeg.  The basis
    keeps the rows that raise the rank; in this order those tagged >= h span
    the offered rows tagged >= h.  A kept generator is independent of all
    products at xdeg, and one not kept is no multiplier, so no product needs
    it.  The rows kept are those Echelon.independent marks, lifting only
    over Q where a row did not raise the rank mod LIFT_PRIME; where the
    certified rank exceeds it, every row is kept, with its tag.  The
    multipliers end the basis."""
    if xdeg in spans:
        return None
    limits.check_deadline(xdeg)
    groups = []  # (tag of h, multiplier h, xdeg - h.xdeg)
    for e in dict.fromkeys(g.xdeg for g in gens):
        if e != xdeg and all(map(le, e, xdeg)):
            _span(gens, e, p, limits, spans)
            _, multipliers, tags = spans[e]
            if multipliers:
                rest = tuple(map(sub, xdeg, e))
                _span(gens, rest, p, limits, spans)
                groups.extend(zip(tags[-len(multipliers):], multipliers, repeat(rest)))
    rows, tags = [], []
    for tag, h, rest in sorted(groups, key=itemgetter(0), reverse=True):
        basis, _, rest_tags = spans[rest]
        products = [h.poly * b for b, b_tag in zip(basis, rest_tags) if b_tag >= tag]
        rows.extend(products)
        tags.extend(repeat(tag, len(products)))
    own = [(i, g) for i, g in enumerate(gens) if g.xdeg == xdeg]
    rows.extend(g.poly for _, g in own)
    tags.extend((sum(xdeg), i) for i, _ in own)
    ech, index = _echelon(rows, xdeg, p, limits)
    kept = ech.independent()
    spans[xdeg] = (list(compress(rows, kept)),
                   [g for (_, g), ok in zip(own, kept[len(rows) - len(own):]) if ok],
                   list(compress(tags, kept)))
    return ech, index


def _echelon(rows, xdeg, p, limits):
    """(echelon of the rows, monomial index); the rows go in as one block,
    and the echelon checks the deadline between its chunks and in its lift."""
    monomials = set().union(*(poly.terms for poly in rows))
    limits.check_columns("invariant component %r" % (xdeg,), len(monomials))
    index = {m: i for i, m in enumerate(sorted(monomials))}
    ech = Echelon(len(index), p, lambda: limits.check_deadline(xdeg))
    ech.extend({index[m]: c for m, c in poly.terms.items()} for poly in rows)
    return ech, index


def generation_check(n, d, p, extra_deg, limits=None):
    """Degreewise evidence that the generator set generates.

    For every t and every word a of degree in (cap, cap + extra_deg], the
    invariant sigma_t(X_a) must reduce into products of the generators.
    Cases of one X-multidegree are decided together by one subalgebra_reduce
    call; the calls share their product spans, so each is built once.  The
    targets are made by _sigmas, as the generators are.  Returns a report
    with one entry per case, in the order of t, degree and word.  limits
    bounds the width of every span, and its deadline, fixed when the limits
    were made and checked at each generator, target and span built, the
    whole check.
    """
    limits = limits or DEFAULT_LIMITS
    allgens = generator_set(n, d, p, limits).all()
    cases, pairs = [], []
    for t in range(1, n + 1):
        cap = B.exact_known(n // t, d, p)
        for deg in range(cap + 1, cap + extra_deg + 1):
            for rep in _cyclic_reps(deg, d):
                pairs.append((t, rep))
                cases.append({"t": t, "word": W.format_word(rep), "deg": deg, "pass": None})
    targets = _sigmas(n, d, p, pairs, limits)
    groups = {}  # X-multidegree -> [(target, case)], in the order of the cases
    for target, case in zip(targets, cases):
        groups.setdefault(target.xdeg, []).append((target, case))
    spans = {}
    for members in groups.values():
        group = [target for target, _ in members]
        verdicts = subalgebra_reduce(allgens, group, limits, spans)
        for (_, case), ok in zip(members, verdicts):
            case["pass"] = bool(ok)
    return {
        "n": n,
        "d": d,
        "p": p,
        "extra_deg": extra_deg,
        "cases": cases,
        "summary": {
            "total": len(cases),
            "passed": sum(1 for c in cases if c["pass"]),
            "all_pass": all(c["pass"] for c in cases),
        },
    }


def newton_sigma_check(n, t, p=0):
    """Verify sigma_t(X_1) against the Newton-identity polynomial in the
    power traces tr(X_1^i).  Requires t < p or p = 0."""
    if p and t >= p:
        raise ValueError("Newton identities need t < p (got t=%d, p=%d)" % (t, p))
    power = _prefix_products(n, 1, p)
    ptr = {i: sigma_poly(1, power((1,) * i)) for i in range(1, t + 1)}
    e = {0: Poly.const(1, n * n, p)}
    for j in range(1, t + 1):
        acc = Poly.zero(n * n, p)
        for i in range(1, j + 1):
            term = e[j - i] * ptr[i]
            if i % 2 == 0:
                term = -term
            acc = acc + term
        e[j] = acc.scale(Fraction(1, j))  # 1/j mod p when p > t >= j
    return sigma_poly(t, generic_matrix(n, 1, p, 1)) == e[t]


# ----- numeric specialization helpers (conjugation invariance checks) -----


def matrix_values(n, d, matrices):
    """Flatten a d-tuple of n x n scalar matrices into the variable vector."""
    values = [0] * (n * n * d)
    for k in range(1, d + 1):
        A = matrices[k - 1]
        for i in range(n):
            for j in range(n):
                values[var_index(n, i, j, k)] = A[i][j]
    return values


def _integral(m):
    """(integer matrix, den) with m = integer matrix / den."""
    nums, den = clear_denominators([x for row in m for x in row])
    nums = iter(nums)
    return [[next(nums) for _ in row] for row in m], den


def _adjugate(g):
    """(adj g, det g) of a square integer matrix, each cofactor the _det of
    an (n-1) x (n-1) minor.  ValueError if g is singular."""
    n = len(g)
    adj = [[(-1) ** (i + j) * _det(_minor(g, i, j)) for i in range(n)] for j in range(n)]
    det = sum(a * row[0] for a, row in zip(g[0], adj))
    if not det:
        raise ValueError("matrix is singular")
    return adj, det


def conjugate_tuple(matrices, g):
    """g * A_k * g^-1 for every matrix in the tuple, over the rationals: for
    g = G / e and A = M / a with G, M integral, G M adj(G) / (a det G), one
    Fraction made per entry.  Entries are ints or Fractions (ValueError
    otherwise)."""
    g = _integral(g)[0]
    adj, det = _adjugate(g)
    return [[[Fraction(x, den * det) for x in row] for row in mat_mul(mat_mul(g, M), adj)]
            for M, den in map(_integral, matrices)]
