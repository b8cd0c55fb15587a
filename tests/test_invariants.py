import gc
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from operator import mul

import pytest

from nilalg import bounds as B
from nilalg import invariants as V
from nilalg import words as W
from nilalg.formal import FieldError, clear_denominators
from nilalg.ideal import LIFT_PRIME, Echelon, GuardError, Limits
from test_ideal import _residual_reference, _rref_reference


def test_sigma_trace_and_det_n2():
    X = V.generic_matrix(2, 1, 0, 1)
    s1 = V.sigma_poly(1, X)
    s2 = V.sigma_poly(2, X)
    assert s1 == X[0][0] + X[1][1]
    # det of [[a,b],[c,d]] = ad - bc: evaluate at numbers
    vals = V.matrix_values(2, 1, [[[3, 5], [7, 11]]])
    assert s2.evaluate(vals) == 3 * 11 - 5 * 7
    assert V.sigma_poly(0, X).evaluate(vals) == 1


def test_sigma_poly_keeps_the_entries_universe():
    # over F_3, sigma_0 is 1 in F_3 and sigma_1 is the trace, with no p passed
    X = V.generic_matrix(2, 1, 3, 1)
    assert V.sigma_poly(0, X).p == 3
    assert V.sigma_poly(1, X) == X[0][0] + X[1][1]


def test_sigma_char_poly_coefficients():
    # det(tI - A) = t^3 - s1 t^2 + s2 t - s3 for a numeric 3x3 matrix
    A = [[1, 2, 0], [3, -1, 4], [0, 2, 2]]
    X = V.generic_matrix(3, 1, 0, 1)
    vals = V.matrix_values(3, 1, [A])
    s = [V.sigma_poly(t, X).evaluate(vals) for t in range(4)]

    def det3(M):
        return (
            M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
        )

    for t_val in (2, 5, -3):
        lhs = det3([[t_val * (i == j) - A[i][j] for j in range(3)] for i in range(3)])
        rhs = t_val**3 - s[1] * t_val**2 + s[2] * t_val - s[3]
        assert lhs == rhs


def test_eval_word_is_matrix_product():
    M = V.eval_word(2, 2, (1, 2), p=0)
    A = [[1, 2], [3, 4]]
    Bm = [[0, 1], [1, 1]]
    vals = V.matrix_values(2, 2, [A, Bm])
    prod = [
        [sum(A[i][k] * Bm[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    for i in range(2):
        for j in range(2):
            assert M[i][j].evaluate(vals) == prod[i][j]


def test_cyclic_invariance_of_sigma():
    # sigma_t(X_ab) = sigma_t(X_ba) as polynomials
    pairs = [((1, 2), (2, 1)), ((1, 1, 2), (1, 2, 1)), ((1, 2, 2), (2, 2, 1))]
    for a, b in pairs:
        for t in (1, 2):
            fa = V.sigma_poly(t, V.eval_word(2, 2, a))
            fb = V.sigma_poly(t, V.eval_word(2, 2, b))
            assert fa == fb, (a, b, t)


def _random_poly(rng, nvars, p):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        if p:
            terms[e] = rng.randint(1, p - 1)
        elif rng.random() < 0.5:
            terms[e] = rng.randint(-5, 5)
        else:
            terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return V.Poly(terms, nvars, p)


@pytest.mark.parametrize("p", [0, 3, 7])
def test_poly_ring_laws(p):
    rng = random.Random(p)
    nvars = 3
    zero = V.Poly.zero(nvars, p)
    one = V.Poly.const(1, nvars, p)
    for _ in range(40):
        a, b, c = (_random_poly(rng, nvars, p) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and (a * zero).is_zero()
        assert (a - a).is_zero() and -(-a) == a
        assert a.scale(2) == a + a and a.scale(p).is_zero()
        assert all(v for v in (a * b + c).terms.values())
        if p:
            assert all(0 < v < p for v in (a * b - c).terms.values())
        else:
            # integral coefficients are stored as int, others as Fraction
            assert all(type(v) is int or v.denominator > 1
                       for x in (a, b, c) for v in x.terms.values())


def test_poly_integer_storage():
    poly = V.sigma_of_word(2, 2, 2, (1, 2, 1)).poly
    assert poly.terms and all(type(c) is int for c in poly.terms.values())
    e = (1, 0, 2)
    a, b = V.Poly({e: 3}, 3, 0), V.Poly({e: Fraction(3)}, 3, 0)
    assert a == b and hash(a) == hash(b)
    (key,) = b.terms  # the packed monomial
    assert type(b.terms[key]) is int
    half = V.Poly({e: Fraction(3, 2)}, 3, 0)
    assert type(half.terms[key]) is Fraction
    # negation, subtraction and an int scalar keep int coefficients
    x, y = V.Poly.variable(0, 2, 0), V.Poly.variable(1, 2, 0)
    for poly in (-x, x - y, x.scale(3), poly - poly.scale(2)):
        assert poly.terms and all(type(c) is int for c in poly.terms.values())
    rng = random.Random(5)
    for _ in range(20):
        a = _random_poly(rng, 3, 0)
        assert a.scale(Fraction(1, 2)).scale(2) == a


def _exponent_terms(poly):
    """The terms of a Poly keyed by exponent tuples."""
    return {tuple(key.to_bytes(poly.nvars, "big")): c for key, c in poly.terms.items()}


@pytest.mark.parametrize("p", [0, 3])
def test_packed_products_match_exponent_tuples(p):
    rng = random.Random(31 + p)
    for _ in range(60):
        nvars = rng.randint(1, 5)
        a, b = (_random_poly(rng, nvars, p) for _ in range(2))
        expected = {}
        for e1, c1 in _exponent_terms(a).items():
            for e2, c2 in _exponent_terms(b).items():
                e = tuple(x + y for x, y in zip(e1, e2))
                expected[e] = expected.get(e, 0) + c1 * c2
        expected = {e: c % p if p else c for e, c in expected.items()}
        ab = a * b
        assert _exponent_terms(ab) == {e: c for e, c in expected.items() if c}
        # packed keys sort as the exponent tuples do
        assert [tuple(k.to_bytes(nvars, "big")) for k in sorted(ab.terms)] == sorted(
            _exponent_terms(ab))


def test_packed_exponents_never_carry():
    x = V.Poly.variable(0, 2, 0)
    big = V.Poly({(127, 3): 2}, 2, 0)
    assert _exponent_terms(big * big) == {(254, 6): 4}
    for factor in (V.Poly({(128, 0): 1}, 2, 0), big * big):
        with pytest.raises(ValueError):
            factor * x
        with pytest.raises(ValueError):
            x * factor
    for e in ((256, 0), (0, -1)):
        with pytest.raises(ValueError):
            V.Poly({e: 1}, 2, 0)


def test_evaluate_at_fractions_matches_term_by_term():
    rng = random.Random(41)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        poly = _random_poly(rng, nvars, 0)
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(nvars)]
        expected = sum((c * reduce(mul, (v ** x for v, x in zip(values, e)), Fraction(1))
                        for e, c in _exponent_terms(poly).items()), Fraction(0))
        assert poly.evaluate(values) == expected
        with pytest.raises(ValueError):
            poly.evaluate(values[1:])
        assert poly.evaluate([int(v) for v in values]) == sum(
            c * reduce(mul, (int(v) ** x for v, x in zip(values, e)), 1)
            for e, c in _exponent_terms(poly).items())


def test_poly_mixed_universes():
    a = V.Poly.variable(0, 2, 0)
    for other in (V.Poly.variable(0, 2, 3), V.Poly.variable(0, 3, 0)):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(FieldError):
                op(a, other)
    assert a != V.Poly.variable(0, 2, 3)


@pytest.mark.parametrize("p", [4, 2**61 - 1])
@pytest.mark.parametrize("make", [
    lambda p: V.Poly({(1, 0): 1}, 2, p),
    lambda p: V.Poly.zero(2, p),
    lambda p: V.Poly.const(1, 2, p),
    lambda p: V.Poly.variable(0, 2, p),
    lambda p: V.generic_matrix(2, 2, p, 1),
    lambda p: V.eval_word(2, 2, (1, 2), p),
    lambda p: V.sigma_of_word(2, 2, 1, (1, 2), p),
    lambda p: V.newton_sigma_check(2, 1, p),
], ids=["Poly", "zero", "const", "variable", "generic_matrix", "eval_word",
        "sigma_of_word", "newton_sigma_check"])
def test_poly_refuses_a_ring_that_is_not_a_field(p, make):
    # Z/4 is no field and 2**61 - 1 is a prime above MAX_PRIME: every way
    # to build a Poly refuses both, so no span is ever built over them
    with pytest.raises(FieldError):
        make(p)


def test_generator_set_n2():
    gs = V.generator_set(2, 2, 0)
    labels = {(g.t, g.word) for g in gs.all()}
    # t=1 words up to degree C(2,2)=3, cyclic reps; t=2 single letters
    assert (1, (1,)) in labels and (1, (2,)) in labels
    assert (1, (1, 2)) in labels and (1, (2, 1)) not in labels
    assert (2, (1,)) in labels and (2, (2,)) in labels
    # no t=2 words of higher degree: n/2 = 1 so t=2 is tail-only
    assert not any(t == 2 and len(w) > 1 for t, w in labels)
    # degree cap came from the known value 3
    assert gs.degree_sources == {1: 3}


def test_generator_set_n3_tail():
    gs = V.generator_set(3, 2, 3)
    tail = {(g.t, g.word) for g in gs.tail}
    # n/2 < t <= n with p <= t: only t = 3 at p = 3
    assert tail == {(3, (1,)), (3, (2,))}


@pytest.mark.parametrize("p", [0, 3])
def test_generator_set_matches_sigma_of_word(p):
    # generator_set makes all its invariants along one stack of prefix
    # products; sigma_of_word makes each on its own
    gs = V.generator_set(3, 2, p)
    assert gs.tail and len(gs.entries) > 10
    for g in gs.all():
        assert g == V.sigma_of_word(3, 2, g.t, g.word, p)


def test_generator_set_rejects_big_n():
    with pytest.raises(ValueError):
        V.generator_set(4, 2, 0)


def test_generation_check_n2_d1():
    rep = V.generation_check(2, 1, 0, extra_deg=2)
    assert rep["summary"]["all_pass"]
    assert rep["summary"]["total"] > 0


@pytest.mark.parametrize("p", [0, 2, 3])
def test_generation_check_n2_d2(p):
    rep = V.generation_check(2, 2, p, extra_deg=1)
    assert rep["summary"]["all_pass"], rep


def test_generation_check_leaves_no_cyclic_garbage():
    for p in (0, 2, 3):
        V.generation_check(2, 2, p, 2)  # warm the caches
    gc.collect()
    gc.disable()
    try:
        for p in (0, 2, 3):
            V.generation_check(2, 2, p, 2)
            assert gc.collect() == 0, p
    finally:
        gc.enable()


def _generation_check_oracle(n, d, p, extra_deg):
    """[(t, word, pass)] in report order, one case at a time: the products
    of generators are built by brute force over multisets, and membership
    is decided by plain Gauss-Jordan elimination."""
    gens = V.generator_set(n, d, p).all()
    out = []
    for t in range(1, n + 1):
        cap = V.B.exact_known(n // t, d, p)
        for deg in range(cap + 1, cap + extra_deg + 1):
            reps = dict.fromkeys(V.cyclic_min(a) for a in product(range(1, d + 1), repeat=deg))
            for rep in reps:
                target = V.sigma_of_word(n, d, t, rep, p)
                products = _multiset_products(gens, target.xdeg)
                columns = sorted(set(target.poly.terms).union(
                    *(poly.terms for poly in products)))
                rows = [[poly.terms.get(m, 0) for m in columns] for poly in products]
                vector = [target.poly.terms.get(m, 0) for m in columns]
                ref = _rref_reference(rows, p)
                ok = not any(_residual_reference(ref, vector, p))
                out.append((t, W.format_word(rep), ok))
    return out


@pytest.mark.parametrize("p, failures", [(0, 7), (2, 7), (3, 24)])
def test_generation_check_failing_cases(monkeypatch, p, failures):
    # degree caps of 1 are too small: some cases must fail
    monkeypatch.setattr(V.B, "exact_known", lambda m, d, p: 1)
    rep = V.generation_check(2, 2, p, 3)
    got = [(c["t"], c["word"], c["pass"]) for c in rep["cases"]]
    assert got == _generation_check_oracle(2, 2, p, 3)
    assert len(got) == 26 and sum(not ok for _, _, ok in got) == failures
    assert rep["summary"] == {"total": 26, "passed": 26 - failures, "all_pass": False}


def test_subalgebra_reduce_one_xdeg():
    gens = V.generator_set(2, 2, 0).all()
    a, b = V.sigma_of_word(2, 2, 1, (1, 1, 2, 2)), V.sigma_of_word(2, 2, 1, (1, 2, 1, 2))
    assert V.subalgebra_reduce(gens, [a, b]) == [True, True]
    assert V.subalgebra_reduce([g for g in gens if len(g.word) == 1], [a, b]) == [False, False]
    with pytest.raises(ValueError):
        V.subalgebra_reduce(gens, [a, V.sigma_of_word(2, 2, 1, (1, 2, 2))])
    with pytest.raises(ValueError):
        V.subalgebra_reduce(gens, [])


def test_subalgebra_reduce_refuses_q_generators_for_f3_targets():
    # the field is the targets'; a generator over another field is refused
    # before any span is built
    gens = V.generator_set(2, 2, 0).all()
    target = V.sigma_of_word(2, 2, 1, (1, 1, 2, 2), 3)
    spans = {}
    with pytest.raises(FieldError):
        V.subalgebra_reduce(gens, [target], spans=spans)
    assert spans == {}


def test_subalgebra_reduce_refuses_f3_generators_for_q_targets():
    gens = V.generator_set(2, 2, 3).all()
    with pytest.raises(FieldError):
        V.subalgebra_reduce(gens, [V.sigma_of_word(2, 2, 1, (1, 1, 2, 2))])
    # and so does a target over F_3 next to one over Q
    with pytest.raises(FieldError):
        V.subalgebra_reduce(gens, [V.sigma_of_word(2, 2, 1, (1, 1, 2, 2), 3),
                                   V.sigma_of_word(2, 2, 1, (1, 2, 1, 2))])


def _spans_at(gens, p, xdegs):
    """The shared product spans after one subalgebra_reduce call per xdeg."""
    spans = {}
    for xdeg in xdegs:
        zero = V.InvariantPoly(V.Poly.zero(gens[0].poly.nvars, p), xdeg, 1, ())
        assert V.subalgebra_reduce(gens, [zero], spans=spans) == [True]
    return spans


def test_multipliers_are_the_indecomposables_n2():
    # tr X, tr Y, tr X^2, tr XY, tr Y^2 minimally generate the invariants of
    # two 2 x 2 matrices in characteristic 0 (Sibirskii 1968, Procesi 1976)
    gens = V.generator_set(2, 2, 0).all()
    assert len(gens) == 11
    spans = _spans_at(gens, 0, [(3, 3)])
    multipliers = [(g.t, g.word) for _, kept, _ in spans.values() for g in kept]
    assert sorted(multipliers) == [(1, (1,)), (1, (1, 1)), (1, (1, 2)), (1, (2,)), (1, (2, 2))]


def _indecomposables(n, d, p):
    """The multipliers of the spans that the targets of degree cap + 1 need."""
    gens = V.generator_set(n, d, p).all()
    xdegs = {tuple(t * e for e in W.multidegree(a, d))
             for t in range(1, n + 1)
             for a in V._cyclic_reps(B.exact_known(n // t, d, p) + 1, d)}
    spans = _spans_at(gens, p, sorted(xdegs))
    return sorted(((g.t, g.word) for _, kept, _ in spans.values() for g in kept),
                  key=lambda tw: (len(tw[1]) * tw[0], tw))


@pytest.mark.parametrize("p", [0, 2, 3])
def test_indecomposables_n2_d2(p):
    # tr X, tr Y, tr X^2, tr XY, tr Y^2 minimally generate the invariants of
    # two 2 x 2 matrices at p = 0 (Sibirskii 1968, Procesi 1976), and here at
    # p = 3 too; at p = 2, tr X^2 = (tr X)^2 and det X takes its place
    got = _indecomposables(2, 2, p)
    if p == 2:
        assert got == [(1, (1,)), (1, (2,)), (1, (1, 2)), (2, (1,)), (2, (2,))]
    else:
        assert got == [(1, (1,)), (1, (2,)), (1, (1, 1)), (1, (1, 2)), (1, (2, 2))]


def test_indecomposables_n3_d2_teranishi():
    # two 3 x 3 matrices in characteristic 0: 11 minimal generators, of
    # degrees (1,0) (0,1) (2,0) (1,1) (0,2) (3,0) (2,1) (1,2) (0,3) (2,2) and
    # (3,3) (Teranishi, Nagoya Math. J. 1986).  There is one of degree (3,3)
    # modulo products: Teranishi lists tr X^2 Y^2 X Y, and the first trace of
    # that degree in word order, tr X^2 Y X Y^2, serves here
    got = _indecomposables(3, 2, 0)
    xdegs = sorted(tuple(t * e for e in W.multidegree(a, 2)) for t, a in got)
    assert xdegs == sorted([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1),
                            (1, 2), (0, 3), (2, 2), (3, 3)])
    assert got[-1] == (1, (1, 1, 2, 1, 2, 2))


def _rank(polys, p):
    monomials = sorted(set().union(*(poly.terms for poly in polys)))
    index = {m: i for i, m in enumerate(monomials)}
    ech = Echelon(len(index), p)
    for poly in polys:
        ech.add({index[m]: c for m, c in poly.terms.items()})
    return len(ech.lift()[0])


def _multiset_products(gens, xdeg):
    """Every product of generators, repetition allowed and order ignored,
    whose X-multidegrees add up to xdeg."""
    out = []
    for k in range(1, sum(xdeg) + 1):
        for combo in combinations_with_replacement(gens, k):
            if tuple(map(sum, zip(*(g.xdeg for g in combo)))) == xdeg:
                poly = combo[0].poly
                for g in combo[1:]:
                    poly = poly * g.poly
                out.append(poly)
    return out


@pytest.mark.parametrize("p", [0, 2, 3])
def test_recursive_span_rank_matches_multiset_products(p):
    gens = V.generator_set(2, 2, p).all()
    rep = V.generation_check(2, 2, p, 3)
    targets = {V.sigma_of_word(2, 2, c["t"], W.parse_word(c["word"]), p).xdeg
               for c in rep["cases"]}
    spans = _spans_at(gens, p, sorted(targets))
    assert targets <= spans.keys()
    for xdeg, (basis, _, _) in spans.items():
        assert _rank(basis, p) == _rank(_multiset_products(gens, xdeg), p), xdeg


def test_q_span_keeps_rows_rejected_mod_lift_prime():
    # g2 = LIFT_PRIME * y vanishes mod LIFT_PRIME, so only x raises the rank
    # there; over Q both are independent and both must stay multipliers, or
    # g1 * g2 would be missing from the span at twice their X-multidegree
    x, y = V.Poly.variable(0, 2, 0), V.Poly.variable(1, 2, 0)
    g1 = V.InvariantPoly(x, (1,), 1, (1,))
    g2 = V.InvariantPoly(y.scale(LIFT_PRIME), (1,), 1, (2,))
    target = V.InvariantPoly(g1.poly * g2.poly, (2,), 1, (1, 2))
    spans = {}
    assert V.subalgebra_reduce([g1, g2], [target], spans=spans) == [True]
    assert spans[(1,)][1] == [g1, g2]


def _span_builds(monkeypatch, n, d, p, extra_deg):
    """X-multidegree -> (rows offered, whether each was kept) for each span
    that one generation_check builds: the first elimination there, and its
    Echelon.raised after the lift."""
    builds = {}
    real = V._echelon

    def spy(rows, xdeg, p, limits):
        out = real(rows, xdeg, p, limits)
        builds.setdefault(xdeg, (rows, out[0]))
        return out

    monkeypatch.setattr(V, "_echelon", spy)
    V.generation_check(n, d, p, extra_deg)
    return {xdeg: (rows, ech.raised) for xdeg, (rows, ech) in builds.items()}


def test_span_offers_each_product_of_multipliers_once(monkeypatch):
    # tr X, tr Y, tr X^2, tr XY, tr Y^2 are algebraically independent
    # (Sibirskii 1968, Procesi 1976), so products offered once each are
    # independent: only the decomposable generators can be rejected
    gens = V.generator_set(2, 2, 0).all()
    rejected = []
    for xdeg, (rows, kept) in _span_builds(monkeypatch, 2, 2, 0, 4).items():
        own = [g for g in gens if g.xdeg == xdeg]
        assert all(kept[:len(rows) - len(own)]), xdeg
        rejected += [(g.t, g.word) for g, ok in zip(own, kept[len(rows) - len(own):])
                     if not ok]
    assert sorted(rejected) == [(1, (1, 1, 1)), (1, (1, 1, 2)), (1, (1, 2, 2)),
                                (1, (2, 2, 2)), (2, (1,)), (2, (2,))]


@pytest.mark.parametrize("p, offered", [(0, 543), (2, 543), (3, 541)])
def test_span_rows_offered_n2(monkeypatch, p, offered):
    builds = _span_builds(monkeypatch, 2, 2, p, 4).values()
    assert sum(len(rows) for rows, _ in builds) == offered
    assert sum(sum(kept) for _, kept in builds) == 537


def _word_product_reference(n, d, a, p):
    """The generic matrices along a, multiplied one at a time from the left."""
    out = V.generic_matrix(n, d, p, a[0])
    for k in a[1:]:
        out = V.mat_mul(out, V.generic_matrix(n, d, p, k))
    return out


def test_prefix_products_match_eval_word():
    # prefixes of the previous word, a repeated word, changes of first letter
    words = [(1, 2, 1), (1, 2), (1,), (1, 2, 1, 1), (1, 2, 1, 1), (2, 1), (2,), (3, 3, 1)]
    rng = random.Random(7)
    words += [tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5))) for _ in range(40)]
    for p in (0, 3):
        product_of = V._prefix_products(2, 3, p)
        for a in words:
            expected = _word_product_reference(2, 3, a, p)
            assert product_of(a) == expected == V.eval_word(2, 3, a, p), (a, p)


def test_newton_sigma_check():
    assert V.newton_sigma_check(2, 2, 0)
    assert V.newton_sigma_check(3, 2, 0)
    assert V.newton_sigma_check(3, 3, 0)
    assert V.newton_sigma_check(3, 2, 5)
    with pytest.raises(ValueError):
        V.newton_sigma_check(2, 2, 2)  # needs t < p


def test_mat_mul_fractions_schoolbook():
    rng = random.Random(11)
    for n in (1, 2, 3):
        a, b = ([[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                 for _ in range(n)] for _ in range(2))
        expected = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]
        assert V.mat_mul(a, b) == expected


def test_adjugate():
    # adj(g) g = g adj(g) = det(g) I, all in integers
    g = [[1, 2], [3, 5]]
    adj, det = V._adjugate(g)
    assert (adj, det) == ([[5, -2], [-3, 1]], -1)
    rng = random.Random(59)
    for n in range(1, 5):
        g = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        adj, det = V._adjugate(g)
        scalar = [[det * int(i == j) for j in range(n)] for i in range(n)]
        assert V.mat_mul(adj, g) == V.mat_mul(g, adj) == scalar
    with pytest.raises(ValueError):
        V._adjugate([[1, 2], [2, 4]])


def _gauss_jordan_inverse(g):
    """The inverse of a nonsingular matrix by Gauss-Jordan over Fractions."""
    n = len(g)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(g)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _random_rational_matrix(rng, n):
    return [[Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 6))
             for _ in range(n)] for _ in range(n)]


def test_fraction_free_inverse_and_conjugation():
    rng = random.Random(53)
    checked = singular = 0
    while checked < 150:
        n = rng.randint(1, 4)
        g = _random_rational_matrix(rng, n)
        try:
            ginv = _gauss_jordan_inverse(g)
        except StopIteration:
            singular += 1
            with pytest.raises(ValueError):
                V.conjugate_tuple([g], g)
            continue
        tup = [_random_rational_matrix(rng, n) for _ in range(rng.randint(1, 3))]
        assert V.conjugate_tuple(tup, g) == [V.mat_mul(V.mat_mul(g, A), ginv) for A in tup]
        checked += 1
    assert singular


def test_conjugation_invariance_numeric():
    rng = random.Random(20240817)
    n, d = 2, 2
    gens = V.generator_set(n, d, 0)
    polys = [g for g in gens.all()]
    checked = 0
    while checked < 100:
        A = [[[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
             for _ in range(d)]
        g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
            continue
        conj = V.conjugate_tuple([[[Fraction(x) for x in row] for row in M]
                                  for M in A], [[Fraction(x) for x in row] for row in g])
        v1 = V.matrix_values(n, d, A)
        v2 = V.matrix_values(n, d, conj)
        inv = polys[checked % len(polys)]
        assert inv.poly.evaluate(v1) == inv.poly.evaluate(v2)
        checked += 1


def test_conjugate_tuple_refuses_floats():
    # a float has no exact value in Q: refused, in a matrix or in g
    with pytest.raises(ValueError, match="need ints or Fractions, got 0.5"):
        V.conjugate_tuple([[[0.5, 1], [2, 3]]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="got 1.0"):
        V.conjugate_tuple([[[1, 1], [2, 3]]], [[1.0, 0], [0, 1]])


def test_evaluate_refuses_floats():
    x = V.Poly.variable(0, 2, 0)
    with pytest.raises(ValueError, match="need ints or Fractions, got 0.5"):
        x.evaluate([0.5, 1])
    assert x.evaluate([Fraction(1, 2), 1]) == Fraction(1, 2)
    # the refusal is clear_denominators' own
    with pytest.raises(ValueError, match="need ints or Fractions, got 0.5"):
        clear_denominators([1, 0.5])


@pytest.mark.parametrize("p", [2, 3])
def test_span_lifts_only_spans_that_a_target_asks_about(monkeypatch, p):
    # mod p the rows kept are those that raised the rank: a span that no
    # target asks about takes no reduced form, and each span asked about
    # takes it once
    built, lifted, asked = {}, [], set()
    echelon, lift, reduce_ = V._echelon, Echelon.lift, V.subalgebra_reduce

    def recording_echelon(rows, xdeg, p, limits):
        out = echelon(rows, xdeg, p, limits)
        built[id(out[0])] = out[0], xdeg  # kept alive, so no id is reused
        return out

    def recording_lift(self):
        if self._reduced is None:
            lifted.append(id(self))
        return lift(self)

    def recording_reduce(gens, targets, limits=None, spans=None):
        asked.add(targets[0].xdeg)
        return reduce_(gens, targets, limits, spans)

    monkeypatch.setattr(V, "_echelon", recording_echelon)
    monkeypatch.setattr(Echelon, "lift", recording_lift)
    monkeypatch.setattr(V, "subalgebra_reduce", recording_reduce)
    assert V.generation_check(2, 2, p, 4)["summary"]["all_pass"]
    assert sorted(built[e][1] for e in lifted) == sorted(asked)
    assert {xdeg for _, xdeg in built.values()} - asked


def test_generation_check_builds_its_generators_under_its_limits(monkeypatch):
    # an expired deadline stops the check before any generator is made,
    # instead of after every generator is made under the default limits;
    # generator_set takes the same limits
    made = []
    sigma = V.sigma_poly

    def counted(t, M):
        made.append(t)
        return sigma(t, M)

    monkeypatch.setattr(V, "sigma_poly", counted)
    with pytest.raises(GuardError):
        V.generation_check(3, 3, 0, 1, limits=Limits(timeout_sec=0))
    with pytest.raises(GuardError):
        V.generator_set(3, 3, 0, limits=Limits(timeout_sec=0))
    assert made == []
