import gc
import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nilalg import ideal as I
from nilalg import rewrite4 as R
from nilalg import words as W
from nilalg.formal import FieldError, FormalSum, format_sum, parse_sum


def S(text, d, p=0):
    return parse_sum(text, d, p)


# ---- known nilpotency degrees (small, fast cases) ----


@pytest.mark.parametrize("n,d,p,expected", [
    (1, 3, 0, 1),
    (2, 2, 0, 3),
    (2, 2, 3, 3),
    (2, 2, 2, 3),
    (2, 3, 2, 4),
    (2, 4, 2, 5),
    (3, 2, 2, 6),
    (3, 2, 3, 7),
])
def test_known_degrees(n, d, p, expected):
    r = I.nilpotency_degree(n, d, p, max_deg=expected + 1)
    assert r.degree == expected


def test_single_letter_degree_is_n():
    # with one letter the algebra is F[x]/(x^n): degree n exactly
    for n in (2, 3, 4, 5):
        r = I.nilpotency_degree(n, 1, 0, max_deg=n + 1)
        assert r.degree == n


def test_result_json_schema():
    r = I.nilpotency_degree(2, 2, 0, max_deg=4)
    payload = r.to_json()
    assert set(payload) >= {"n", "d", "p", "degree", "witness", "per_degree"}
    for row in payload["per_degree"]:
        assert set(row) == {"delta", "words", "rank", "qdim"}
    json.dumps(payload)  # serializable


def test_exceeded_max_deg():
    r = I.nilpotency_degree(3, 2, 0, max_deg=4)
    assert r.degree is None
    assert r.witness is not None


# ---- reduce / contains ----


def test_reduce_rewrites_square_pattern():
    g = I.reduce(4, 0, S("x1^2.x2.x1^2", 2))
    assert g == S("-x1^3.x2.x1 - x1.x2.x1^3", 2)


def test_reduce_linear_and_idempotent():
    f = S("x1^2.x2.x1^2 + 2*x1.x2.x1^3", 2)
    g = I.reduce(4, 0, f)
    assert I.reduce(4, 0, g) == g
    h = S("x1^3.x2.x1", 2)
    assert I.reduce(4, 0, f + h) == g + I.reduce(4, 0, h)


def test_reduce_difference_in_ideal():
    f = S("x1^2.x2.x1^2 + x2.x1.x2.x1^2.x2", 2)
    g = I.reduce(4, 0, f)
    assert I.contains(4, 0, f - g)


@pytest.mark.parametrize("expr,d", [
    ("x1^2.x2.x1^2 + x1^3.x2.x1 + x1.x2.x1^3", 2),  # a^2 b a^2 + a^3 b a + a b a^3
    ("x1^3.x2.x1^2 + x1^2.x2.x1^3", 2),  # a^3 b a^2 + a^2 b a^3
    ("x1^3.x2.x1^3", 2),  # a^3 b a^3
    ("x1^3.x2.x1.x3.x1^2 + x1^3.x2.x1^2.x3.x1", 3),  # x^3axbx^2 = -x^3ax^2bx
    ("x1.x2.x1^3.x3.x1^2 - x1^3.x2.x1^2.x3.x1", 3),  # xax^3bx^2 = x^3ax^2bx
])
def test_membership_identities_n4(expr, d):
    assert I.contains(4, 0, S(expr, d))
    assert I.contains(4, 5, S(expr, d, 5))


def test_wellknown_word_identity():
    # n x^{n-1} a y^{n-1} = 0, so for invertible n the bare word vanishes
    assert I.contains(3, 0, S("x1^2.x2.x3^2", 3))
    assert I.contains(4, 0, S("x1^3.x2.x3^3", 3))


def test_power_word_vanishes():
    assert I.contains(3, 0, S("x1^3", 1))
    assert I.contains(4, 2, S("x2^4", 2, 2))


def test_nonmembers():
    assert not I.contains(4, 0, S("x1^3.x2.x1", 2))
    assert not I.contains(4, 2, S("x1^3.x2^3", 2, 2))
    assert not I.contains(3, 0, S("x1^2.x2^2.x1", 2))


# ---- equivalences ----


def test_equiv_zero_gtr_n5_pair():
    # xaxbx + xbxax drops to zero modulo greater words at n = 5
    f = S("x1.x2.x1.x3.x1 + x1.x3.x1.x2.x1", 3)
    assert I.equiv_zero(5, 0, f, "gtr")
    assert not I.contains(5, 0, f)


def test_equiv_zero_gtr_n5_chain_end():
    f = S("x1.x2.x1.x3.x1.x4.x1", 4)
    assert I.equiv_zero(5, 0, f, "gtr")


def test_equiv_zero_succ_relations_n4():
    # xax^2 ~ -x^2ax
    assert I.equiv_zero(4, 0, S("x1.x2.x1^2 + x1^2.x2.x1", 2), "succ")
    # x^iaxbx, xax^ibx, xaxbx^i ~ 0 for i = 2, 3
    for i in (2, 3):
        for pat in ("x1^%d.x2.x1.x3.x1", "x1.x2.x1^%d.x3.x1", "x1.x2.x1.x3.x1^%d"):
            assert I.equiv_zero(4, 0, S(pat % i, 3), "succ"), pat % i
    # x^3axbx ~ xax^3bx ~ xaxbx^3
    assert I.equiv_zero(
        4, 0, S("x1^3.x2.x1.x3.x1 - x1.x2.x1^3.x3.x1", 3), "succ"
    )
    assert I.equiv_zero(
        4, 0, S("x1.x2.x1^3.x3.x1 - x1.x2.x1.x3.x1^3", 3), "succ"
    )
    # xaxbxcx ~ 0
    assert I.equiv_zero(4, 0, S("x1.x2.x1.x3.x1.x4.x1", 4), "succ")


def test_equiv_rejects_bad_order():
    with pytest.raises(ValueError):
        I.equiv_zero(4, 0, S("x1.x2", 2), "lex")


def test_equiv_certificate_sound():
    f = S("x1.x2.x1^2 + x1^2.x2.x1", 2)
    ok, cert = I.equiv_zero_certificate(4, 0, f, "succ")
    assert ok and cert is not None
    # f - cert lies in the ideal and the certificate uses greater words only
    assert I.contains(4, 0, f - cert)
    for w in cert.terms:
        assert any(_greater(w, a, 2, "succ") for a in f.terms)


def test_equiv_false_case():
    # a single nonzero canonical word is not equivalent to zero
    assert not I.equiv_zero(4, 0, S("x1^3.x2.x1", 2), "gtr")
    ok, cert = I.equiv_zero_certificate(4, 0, S("x1^3.x2.x1", 2), "gtr")
    assert not ok and cert is None


@pytest.fixture
def clean_cache():
    """Leave no component behind: later tests expect some to be unbuilt."""
    yield
    I.clear_cache()


def _rref_reference(rows, p):
    """Plain Gauss-Jordan elimination over Q (Fraction entries) or F_p
    (Python ints): the nonzero rows of the reduced echelon form, as lists.
    Rows are held as {column: nonzero entry} while they are eliminated."""
    field = (lambda x: x % p) if p else Fraction
    ncols = len(rows[0]) if rows else 0
    rows = [{j: y for j, x in enumerate(r) if (y := field(x))} for r in rows]
    out = []
    for col in range(ncols):
        at = next((i for i, r in enumerate(rows) if col in r), None)
        if at is None:
            continue
        piv = rows.pop(at)
        inv = pow(piv[col], -1, p) if p else 1 / piv[col]
        piv = {j: field(x * inv) for j, x in piv.items()}
        for r in rows + out:
            a = r.get(col)
            if a:
                for j, y in piv.items():
                    if x := field(r.get(j, 0) - a * y):
                        r[j] = x
                    else:
                        del r[j]
        out.append(piv)
    return [[r.get(j, field(0)) for j in range(ncols)] for r in out]


def _residual_reference(ref, v, p):
    """v minus the combination of the reduced rows ref at their pivots."""
    for r in ref:
        a = v[next(j for j, x in enumerate(r) if x)]
        if a:
            v = [(x - a * y) % p if p else x - a * y for x, y in zip(v, r)]
    return v


def _greater(u, w, d, order):
    """Is word u strictly greater than word w in the order?"""
    return W.compare_keys(W.order_key(u, d, order), W.order_key(w, d, order)) == W.GREATER


def _equiv_zero_oracle(n, p, f, order):
    """Reference verdict: each group of equivalent terms must lie in the span
    of the component's rows plus the unit vectors of its greater words, by
    Gauss-Jordan elimination outside the kernel under test."""
    groups = {}
    for w, c in f.terms.items():
        key = (W.multidegree(w, f.d), W.order_key(w, f.d, order))
        groups.setdefault(key, {})[w] = c
    for (delta, _), terms in groups.items():
        rep = next(iter(terms))
        basis = I.component_basis(n, f.d, p, delta)
        ncols = len(basis.words)
        rows = [[entries.get(j, 0) for j in range(ncols)]
                for entries in (dict(zip(*row)) for row in basis.echelon.rows)]
        rows += [[int(j == i) for j in range(ncols)]
                 for i, w in enumerate(basis.words)
                 if _greater(w, rep, f.d, order)]
        target = [terms.get(w, 0) for w in basis.words]
        if any(_residual_reference(_rref_reference(rows, p), target, p)):
            return False
    return True


# components of at most 90 words
_EQUIV_CASES = [
    (n, delta)
    for n in (3, 4)
    for delta in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3),
                  (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 2, 2)]
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_EQUIV_CASES), st.sampled_from([0, 3]),
       st.sampled_from(["gtr", "succ"]), st.data())
def test_equiv_certificate_matches_oracle(clean_cache, case, p, order, data):
    n, delta = case
    d = len(delta)
    basis = I.component_basis(n, d, p, delta)
    coeff = st.integers(1, p - 1) if p else st.integers(-3, 3).filter(bool)
    words = data.draw(st.lists(st.sampled_from(basis.words), min_size=1,
                               max_size=3, unique=True))
    f = FormalSum({w: data.draw(coeff) for w in words}, d, p)
    # an ideal element added on top often makes the group equivalent to zero
    rows = [FormalSum({basis.words[c]: v for c, v in zip(*row)}, d, p)
            for row in basis.echelon.rows]
    if rows and data.draw(st.booleans()):
        f = f + data.draw(st.sampled_from(rows)).scale(data.draw(coeff))
    ok, g = I.equiv_zero_certificate(n, p, f, order)
    assert ok == _equiv_zero_oracle(n, p, f, order)
    assert I.equiv_zero(n, p, f, order) == ok
    if not ok:
        assert g is None
        return
    assert I.contains(n, p, f - g)
    for u in g.terms:
        assert any(
            W.multidegree(w, d) == W.multidegree(u, d)
            and _greater(u, w, d, order)
            for w in f.terms
        ), (format_sum(f), format_sum(g))


def _equiv_tagged_reference(n, p, f, order):
    """The verdict by the construction equiv_zero_certificate used before it
    read the RREF rows: each group's residual reduced by one row
    residual(e_i) + t_j per strictly greater word i, in the component's
    non-pivot columns plus one tag column each."""
    groups = {}
    for w, c in f.terms.items():
        key = (W.multidegree(w, f.d), W.order_key(w, f.d, order))
        groups.setdefault(key, {})[w] = c
    for (delta, _), terms in groups.items():
        rep = next(iter(terms))
        basis = I.component_basis(n, f.d, p, delta)
        component = basis.echelon
        pivots = component.pivots
        free = {c: k for k, c in enumerate(c for c in range(len(basis.words))
                                           if c not in pivots)}
        greater = [i for i, w in enumerate(basis.words)
                   if _greater(w, rep, f.d, order)]
        ech = I.Echelon(len(free) + len(greater), p)
        for j, i in enumerate(greater):
            row = {free[c]: v for c, v in component.residual({i: 1}).items()}
            row[len(free) + j] = 1
            ech.add(row)
        part = component.residual({basis.index[w]: c for w, c in terms.items()})
        resid = ech.residual({free[c]: v for c, v in part.items()})
        if any(c < len(free) for c in resid):
            return False
    return True


# the smallest n = 4 components found whose groups can need touching rows
# (no component of at most 200 words at n <= 4 does, at p = 0 or 3), with
# the verdicts that the inputs below reach them with
@pytest.mark.parametrize("delta,p,verdicts", [
    ((4, 2, 2), 0, {True, False}), ((4, 2, 2), 3, {True, False}),
    ((3, 3, 2), 0, {True, False}), ((3, 3, 2), 3, {False}),
])
@pytest.mark.parametrize("order", ["gtr", "succ"])
def test_touching_rows_match_tagged_reference(clean_cache, monkeypatch, delta, p,
                                              verdicts, order):
    n, d = 4, len(delta)
    basis = I.component_basis(n, d, p, delta)
    built = []

    class Counting(I.Echelon):
        def __init__(self, ncols, p):
            built.append(ncols)
            super().__init__(ncols, p)

    monkeypatch.setattr(I, "Echelon", Counting)

    def certificate(f):
        built.clear()
        return I.equiv_zero_certificate(n, p, f, order), bool(built)

    rng = random.Random(11)
    singles = [FormalSum({w: 1}, d, p) for w in basis.words]
    # the first two words whose group needs the touching rows, their sum,
    # each plus another word of its group, and one word pinned for (4, 2, 2)
    reached = list(islice((f for f in singles if certificate(f)[1]), 2))
    cases = reached + [reached[0] + reached[1].scale(2)]
    for f in reached:
        key = W.order_key(next(iter(f.terms)), d, order)
        group = [w for w in basis.words if W.order_key(w, d, order) == key]
        cases.append(f + FormalSum({rng.choice(group): 1}, d, p))
    if delta == (4, 2, 2):
        cases.append(S("x1.x2.x1^3.x3.x2.x3", d, p))
    seen = set()
    for f in cases:
        (ok, g), hit = certificate(f)
        if hit:
            seen.add(ok)
        assert ok == _equiv_tagged_reference(n, p, f, order), format_sum(f)
        if not ok:
            assert g is None
            continue
        assert I.contains(n, p, f - g)
        assert all(any(_greater(u, w, d, order) for w in f.terms)
                   for u in g.terms)
    assert seen == verdicts


def test_readme_equiv_example_builds_no_echelon(clean_cache, monkeypatch):
    # the group's residual lies on greater words only: the verdict and the
    # certificate are read off it, with no elimination of their own
    f = S("x1.x2.x1^2 + x1^2.x2.x1", 2)
    I.component_basis(4, 2, 0, (3, 2))

    def refuse(*args):
        raise AssertionError("equiv_zero_certificate built an Echelon")

    monkeypatch.setattr(I, "Echelon", refuse)
    ok, g = I.equiv_zero_certificate(4, 0, f, "succ")
    assert ok and format_sum(g) == "-x1^3.x2 - x2.x1^3"


# ---- mirror / substitution ----


def test_mirror_involution():
    f = S("x1^2.x2 - 2*x2.x1.x2", 2)
    assert I.mirror(I.mirror(f)) == f
    assert I.mirror(S("x1.x2", 2)) == S("x2.x1", 2)


def test_mirror_preserves_membership():
    f = S("x1^2.x2.x1^2 + x1^3.x2.x1 + x1.x2.x1^3", 2)
    assert I.contains(4, 0, f)
    assert I.contains(4, 0, I.mirror(f))


def test_substitute_unit():
    f = S("x1.x2.x1 + x1^2.x2", 2, 2)
    g = I.substitute_unit(f, 1)
    assert g == S("2*x2", 2, 2)  # = 0 mod 2
    g2 = I.substitute_unit(S("x1.x2.x1 + x2.x1^2", 2, 2), 1)
    assert g2 == S("2*x2", 2, 2)


def test_substitute_unit_guards():
    with pytest.raises(ValueError):
        I.substitute_unit(S("x1^4.x2", 2, 2), 1)  # degree 4 in x1
    with pytest.raises(ValueError):
        I.substitute_unit(S("x1^2", 2, 2), 1)  # no other letter


# ---- guards, caching, component internals ----


def test_component_guard():
    limits = I.Limits(max_component_words=5)
    with pytest.raises(I.GuardError):
        I.component_basis(3, 2, 0, (4, 4), limits)


def test_limits_fix_their_deadline_when_made():
    before = time.monotonic()
    limits = I.Limits(timeout_sec=5)
    assert before + 5 <= limits.deadline <= time.monotonic() + 5
    assert I.Limits().deadline is None


def test_deep_component_chains(clean_cache):
    # x1^k is built on x1^(k-1), one stack frame each: 700 letters build (the
    # word enumeration used to recurse once per letter), and a chain too deep
    # for the stack ends in a GuardError, with nothing half built cached
    assert I.quotient_dimension(4, 2, 0, (700, 0)) == 0
    with pytest.raises(I.GuardError, match="too deep"):
        I.component_basis(4, 2, 0, (3000, 0))
    assert (4, 0, (3000, 0)) not in I._cache


@pytest.mark.parametrize("p", [0, 3])
def test_terms_with_an_nth_power_change_no_verdict(monkeypatch, clean_cache, p):
    # a term u x_k^n v lies in the ideal: dropping it before the components
    # are looked up leaves every verdict, normal form and certificate as the
    # components give them
    n, d = 3, 2
    rng = random.Random(19 + p)
    cases = [FormalSum({tuple(rng.randint(1, d) for _ in range(rng.randint(3, 7))):
                        rng.randint(1, 4) for _ in range(rng.randint(1, 5))}, d, p)
             for _ in range(40)]
    assert 0 < sum(I._outside_powers(n, f) != f for f in cases) < len(cases)

    def answers():
        return [(I.contains(n, p, f), I.reduce(n, p, f),
                 [I.equiv_zero_certificate(n, p, f, order) for order in ("gtr", "succ")])
                for f in cases]

    got = answers()
    assert any(ok for ok, _, _ in got) and not all(ok for ok, _, _ in got)
    monkeypatch.setattr(I, "_outside_powers", lambda n, f: f)
    assert answers() == got


def test_timeout_guard_partial():
    limits = I.Limits(timeout_sec=0.0)
    with pytest.raises(I.GuardError) as err:
        I.nilpotency_degree(3, 3, 0, max_deg=8, limits=limits)
    assert err.value.partial is not None
    assert err.value.partial.completed_degree == 0


def test_one_deadline_per_call(monkeypatch, capsys, clean_cache):
    # every component a command builds shares the deadline fixed when the
    # command started, instead of starting its own
    seen = []
    build = I.component_basis

    def recording(n, d, p, delta, limits=None):
        seen.append(limits.deadline if limits else None)
        return build(n, d, p, delta, limits)

    monkeypatch.setattr(I, "component_basis", recording)
    # a member, so that no call stops at the first component, with no term
    # x_k^4, so that every call builds components
    f = S("x1^2.x2.x1^2 + x1^3.x2.x1 + x1.x2.x1^3", 2)
    calls = [
        lambda lim: I.reduce(4, 0, f, lim),
        lambda lim: I.contains(4, 0, f, lim),
        lambda lim: I.equiv_zero_certificate(4, 0, f, "gtr", lim),
        lambda lim: I.equiv_zero(4, 0, f, "succ", lim),
        lambda lim: R.witness_search(2, 3, range(1, 8), lim),
    ]
    for call in calls:
        I.clear_cache()
        seen.clear()
        call(I.Limits(timeout_sec=600))
        assert len(seen) >= 3
        assert None not in seen and len(set(seen)) == 1
    # reduce4 runs canonicalize and then contains under one deadline
    from nilalg import cli

    I.clear_cache()
    seen.clear()
    assert cli.main(["reduce4", "--d", "2", "--expr", "x1^2.x2^2 + x1^3.x2.x1",
                     "--timeout-sec", "600"]) == 0
    capsys.readouterr()
    assert len(seen) >= 3
    assert None not in seen and len(set(seen)) == 1


def test_timeout_inside_component_leaves_cache_clean():
    # the deadline is checked while a component is built, and the
    # half-built component is not cached
    I.clear_cache()
    with pytest.raises(I.GuardError):
        I.quotient_dimension(5, 2, 5, (5, 5), I.Limits(timeout_sec=0.0))
    assert (5, 5, (5, 5)) not in I._cache


def test_echelon_exact_at_largest_prime():
    # products of two residues below MAX_PRIME fit the int64 rows: the
    # kernel agrees with Python-integer elimination at the largest prime
    p = 3_037_000_493
    rng = random.Random(7)
    rows = [[rng.randrange(p - 1000, p) for _ in range(6)] for _ in range(5)]
    ech = I.Echelon(6, p)
    for r in rows:
        ech.add(dict(enumerate(r)))
    target = [(3 * a + 5 * b) % p for a, b in zip(rows[0], rows[1])]
    assert ech.contains(dict(enumerate(target)))
    ref = _rref_reference(rows, p)
    assert ech.rank == len(ref)
    assert [dict(zip(*row)) for row in ech.rows] == [
        {j: v for j, v in enumerate(r) if v} for r in ref]


# the largest prime the kernel accepts (formal.MAX_PRIME is 3 037 000 499)
_LARGEST_PRIME = 3_037_000_493


def test_echelon_limb_bound():
    # _terms is the longest sum of residue-times-limb products that fits an
    # int64: one more term could leave it
    for q in (2, 7, 65_537, I.LIFT_PRIME, _LARGEST_PRIME):
        terms = I.Echelon(1, q)._terms
        limb = min(q, 2**16) - 1
        assert terms * (q - 1) * limb < 2**63 <= (terms + 1) * (q - 1) * limb
    assert I.Echelon(1, _LARGEST_PRIME)._terms == 46_341


@pytest.mark.parametrize("terms", [None, 7])
def test_echelon_limb_product_exact_at_largest_prime(terms):
    # hundreds of pivot entries, all p - 1, against table entries close to p:
    # one such product is near 2**63, so the gather must split the table into
    # limbs (and, with _terms lowered, sum in chunks) to stay exact
    p, m, f = _LARGEST_PRIME, 300, 4
    rng = random.Random(11)
    table = [[rng.randrange(p - 1000, p) for _ in range(f)] for _ in range(m)]
    ech = I.Echelon(m + f, p)
    if terms:
        ech._terms = terms
    for i, t in enumerate(table):
        assert ech.add({i: 1, **{m + j: x for j, x in enumerate(t)}})
    # the member sum (p - 1) * row_i, its free entries in Python integers
    row = {i: p - 1 for i in range(m)}
    row.update({m + j: sum((p - 1) * t[j] for t in table) % p for j in range(f)})
    assert not ech.add(row)
    row[m + 2] += 1
    assert ech.add(row)
    assert [dict(zip(*row)) for row in ech.rows] == [
        {i: 1, **{m + j: x for j, x in enumerate(t) if j != 2}} for i, t in enumerate(table)
    ] + [{m + 2: 1}]


def test_echelon_fraction_coefficients_mod_p():
    # 1/2 is 4 mod 7; a denominator divisible by p has no residue
    ech = I.Echelon(2, 7)
    assert ech.add({0: Fraction(1, 2), 1: 1})
    with pytest.raises(FieldError):
        ech.add({0: Fraction(1, 7), 1: 1})
    assert ech.contains({0: 4, 1: 1})
    assert not ech.contains({0: 1, 1: 1})


@pytest.mark.parametrize("p", [0, 7])
def test_echelon_refuses_add_after_reduced_form(p):
    ech = I.Echelon(2, p)
    assert ech.add({0: 1, 1: 2})
    rows = ech.rows
    with pytest.raises(ValueError):
        ech.add({1: 1})
    assert ech.rows == rows == [((0, 1), (1, 2))]
    assert ech.rank == 1


_Q_ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(-3, 3, max_denominator=4),
    # entries that vanish or equal 1 mod the lift prime make it a bad prime
    st.sampled_from([I.LIFT_PRIME, I.LIFT_PRIME + 1]),
    # residues close to the largest prime: the limb product's worst case
    st.integers(_LARGEST_PRIME - 3, _LARGEST_PRIME - 1),
)


def _residue(x, p):
    """x in F_p (for a rational x, its numerator over its denominator), or
    x as a Fraction for p = 0."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p if p else x


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 7, _LARGEST_PRIME]), st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_Q_ENTRIES, min_size=n, max_size=n), max_size=7),
    st.lists(_Q_ENTRIES, min_size=n, max_size=n),
)), st.randoms(use_true_random=False))
def test_q_echelon_matches_reference(p, case, rng):
    # the same checks over Q (the certified lift) and over F_p (the live
    # table, and its sparse residual, in int entries); the rows fed again in
    # shuffled order, each with its columns shuffled, give the same reduced
    # form
    rows, target = case
    ech = I.Echelon(len(target), p)
    grew = sum(ech.add(dict(enumerate(r))) for r in rows)
    ref = _rref_reference([[_residue(x, p) for x in r] for r in rows], p)
    expected = [{j: x for j, x in enumerate(r) if x} for r in ref]
    assert [dict(zip(*row)) for row in ech.rows] == expected
    assert ech.rank == len(ref)
    assert sorted(ech.pivots) == [min(r) for r in expected]
    resid = _residual_reference(ref, [_residue(x, p) for x in target], p)
    got = ech.residual(dict(enumerate(target)))
    assert got == {j: x for j, x in enumerate(resid) if x}
    if p:
        assert all(type(c) is int and type(v) is int for c, v in got.items())
    assert ech.contains(dict(enumerate(target))) == (not any(resid))
    shuffled = I.Echelon(len(target), p)
    rows = [list(enumerate(r)) for r in rows]
    rng.shuffle(rows)
    for r in rows:
        rng.shuffle(r)
    assert sum(shuffled.add(dict(r)) for r in rows) == grew
    assert [dict(zip(*row)) for row in shuffled.rows] == expected


def _record_lift_primes(monkeypatch):
    # at most eight primes, so that a lift that never succeeds fails the
    # test instead of running through every prime below P
    used = []
    primes = I._lift_primes

    def recording():
        for q, _ in zip(primes(), range(8)):
            used.append(q)
            yield q

    monkeypatch.setattr(I, "_lift_primes", recording)
    return used


def test_q_echelon_rank_drop_mod_lift_prime(monkeypatch):
    # mod P both rows are (0, 1): rank 1 there, rank 2 over Q
    used = _record_lift_primes(monkeypatch)
    ech = I.Echelon(2, 0)
    assert ech.add({0: I.LIFT_PRIME, 1: 1})
    assert not ech.add({1: 1})
    assert ech.rank == 1
    assert ech.rows == [((0,), (1,)), ((1,), (1,))]
    assert ech.rank == 2
    assert ech.residual({0: 3, 1: Fraction(5, 2)}) == {}
    assert len(used) >= 2 and used[0] == I.LIFT_PRIME


@pytest.mark.parametrize("p", [0, 7])
def test_echelon_records_rows_that_raised_the_rank(p):
    # the rank-drop case: mod LIFT_PRIME the rows are (0, 1) twice, so over Q
    # the lift marks both rows; mod 7 they are (1, 1) and (0, 1), and the
    # record is what add returned, before and after the reduced form
    ech = I.Echelon(2, p)
    grew = [ech.add({0: I.LIFT_PRIME, 1: 1}), ech.add({1: 1})]
    assert ech.raised == grew == ([True, False] if p == 0 else [True, True])
    ech.lift()
    assert ech.raised == [True, True]


def _seed_case(rng, p, ncols):
    """(held, draw, rest): rows off a set of seed pivots; a function of the
    held rows' pivots drawing RREF rows (columns, coefficients), with 1 at
    each seed pivot, their first column, and entries on columns that are no
    pivot, before or after it; and rows anywhere."""
    dens = [d for d in (1, 2, 3, 4) if p == 0 or d % p]

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice(dens))

    pivots = rng.sample(range(ncols), rng.randint(1, ncols))
    others = [c for c in range(ncols) if c not in pivots]
    held = [{c: entry() for c in rng.sample(others, rng.randint(0, len(others)))}
            for _ in range(rng.randint(0, 3))]

    def draw(held_pivots):
        rows = []
        for c in pivots:
            cols = [c] + [j for j in others if j not in held_pivots and rng.random() < 0.6]
            rows.append((cols, [1] + [entry() for _ in cols[1:]]))
        return rows

    rest = [{c: entry() for c in rng.sample(range(ncols), rng.randint(1, ncols))}
            for _ in range(rng.randint(0, 4))]
    return held, draw, rest


@pytest.mark.parametrize("p", [2, 3, 7, _LARGEST_PRIME, 0])
def test_echelon_seed_matches_add(p):
    # seeding rows in reduced form, at pivots that need not be their first
    # column, after held rows and before others, leaves the echelon as
    # adding each row would
    rng = random.Random(p)
    reordered = 0
    for _ in range(200):
        ncols = rng.randint(1, 9)
        held, draw, rest = _seed_case(rng, p, ncols)
        added, seeded = I.Echelon(ncols, p), I.Echelon(ncols, p)
        for row in held:
            added.add(row)
            seeded.add(row)
        reduced = draw(set(added._pivots.tolist()))
        reordered += any(min(cols) < cols[0] for cols, _ in reduced)
        for cols, vals in reduced:
            added.add(dict(zip(cols, vals)))
        seeded.seed(reduced)
        assert (seeded.rank, seeded.raised) == (added.rank, added.raised)
        mod_q, want = seeded._rref_mod(), added._rref_mod()
        assert (mod_q[0], mod_q[1], mod_q[2].tolist()) == (want[0], want[1], want[2].tolist())
        for row in rest:
            added.add(row)
            seeded.add(row)
        assert (seeded.rank, seeded.raised) == (added.rank, added.raised)
        # over Q the lift certifies the seeded rows too
        assert seeded._offered == added._offered
        assert (seeded.rows, seeded.pivots) == (added.rows, added.pivots)
        assert (seeded.rank, seeded.raised) == (added.rank, added.raised)
    assert reordered > 50


def test_echelon_seed_allocates_only_the_free_columns():
    # 3 900 rows with one free entry each leave 100 free columns: the table
    # is 3 900 x 100 int64 (3.1 MB), where a block over all 4 000 columns
    # would take 125 MB
    rows = [((c, 3900 + c % 100), (1, c % 5 + 1)) for c in range(3900)]
    ech = I.Echelon(4000, 7)
    tracemalloc.start()
    try:
        ech.seed(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert ech.rank == 3900 and ech.raised == [True] * 3900
    # row 5 is x5 + x3905, so x5 = -x3905 = 6 x3905 mod 7
    assert ech.residual({5: 1}) == {3905: 6}
    assert ech.rows[:2] == [((0, 3900), (1, 1)), ((1, 3901), (1, 2))]


def test_echelon_seed_refusals():
    ech = I.Echelon(3, 0)
    ech.seed([((0, 2), (1, Fraction(1, 2)))])
    ech.lift()
    with pytest.raises(ValueError):
        ech.seed([((1,), (1,))])
    # 1/7 has no residue mod 7
    with pytest.raises(FieldError):
        I.Echelon(3, 7).seed([((0, 2), (1, Fraction(1, 7)))])


def _kernel_rows(rng, p, ncols, count, earlier=()):
    """count rows {column: entry} on ncols columns: zero rows, repeats and
    combinations of earlier rows, which raise no rank, Fraction entries
    with denominators prime to p, and sparse or dense random rows."""
    dens = [d for d in (1, 2, 3, 5, 7) if p == 0 or d % p]
    big = [I.LIFT_PRIME, I.LIFT_PRIME + 1] if p == 0 else [p - 1, p + 1]

    def entry():
        if rng.random() < 0.1:
            return rng.choice(big)
        return Fraction(rng.randint(-4, 4), rng.choice(dens))

    rows = list(earlier)
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            row = {c: 0 for c in rng.sample(range(ncols), rng.randint(0, min(2, ncols)))}
        elif kind < 0.2 and rows:
            row = dict(rng.choice(rows))
        elif kind < 0.3 and len(rows) > 1:
            a, b = rng.sample(rows, 2)
            row = {c: 2 * a.get(c, 0) - b.get(c, 0) for c in {**a, **b}}
        else:
            row = {c: entry() for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        rows.append(row)
    return rows[len(earlier):]


@pytest.mark.parametrize("p", [2, 3, _LARGEST_PRIME, 0])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_echelon_extend_matches_add(monkeypatch, p, seed):
    # one extend call after rows added one at a time leaves the echelon as
    # adding every row would: the same raised, rank and RREF mod q, and the
    # same rows, pivots and raised after the reduced form; the blocks cross
    # chunk boundaries
    rng = random.Random(seed)
    chunks = []
    insert_chunk = I.Echelon._insert_chunk

    def recording(self, rows):
        chunks.append(len(rows))
        return insert_chunk(self, rows)

    monkeypatch.setattr(I.Echelon, "_insert_chunk", recording)
    for ncols, before, count in [(1, 0, 3), (6, 0, 5), (9, 3, 20), (30, 10, 40), (120, 60, 80)]:
        # independent rows first, 1 at their own column below before
        held = [{i: 1, **{c + before: v for c, v in row.items()}}
                for i, row in enumerate(_kernel_rows(rng, p, ncols - before, before))]
        block = _kernel_rows(rng, p, ncols, count, held)
        one, many = I.Echelon(ncols, p), I.Echelon(ncols, p)
        for row in held:
            one.add(row)
            many.add(row)
        chunks.clear()
        many.extend(block)
        assert chunks == [min(I._CHUNK, count - k) for k in range(0, count, I._CHUNK)]
        for row in block:
            one.add(row)
        assert (many.raised, many.rank) == (one.raised, one.rank)
        assert many._offered == one._offered
        (pivots, free, table), mod_q = many._rref_mod(), one._rref_mod()
        assert (pivots, free, table.tolist()) == (mod_q[0], mod_q[1], mod_q[2].tolist())
        if p or ncols < 100:  # one widest lift over Q is the next test's
            assert (many.rows, many.pivots) == (one.rows, one.pivots)
            assert (many.raised, many.rank) == (one.raised, one.rank)


def test_echelon_extend_matches_add_widest_q():
    # the widest case of the last test over Q, lifted: 60 independent rows,
    # then 80 more, over 120 columns, with RREF denominators of 959 digits;
    # the lift tries reconstruction only at 1, 2, 4, ... primes
    rng = random.Random(3)
    held = [{i: 1, **{c + 60: v for c, v in row.items()}}
            for i, row in enumerate(_kernel_rows(rng, 0, 60, 60))]
    block = _kernel_rows(rng, 0, 120, 80, held)
    one, many = I.Echelon(120, 0), I.Echelon(120, 0)
    for row in held:
        one.add(row)
        many.add(row)
    many.extend(block)
    for row in block:
        one.add(row)
    assert (many.rows, many.pivots) == (one.rows, one.pivots)
    assert (many.raised, many.rank) == (one.raised, one.rank)
    assert max(len(str(x.denominator)) for _, vals in many.rows for x in vals
               if type(x) is Fraction) == 959
    assert not any(many.residual(row) for row in held + block)


def test_echelon_extend_refuses_a_chunk_whole():
    # 1/7 has no residue mod 7: the chunk is refused before any row goes in
    ech = I.Echelon(3, 7)
    ech.add({0: 1, 1: 2})
    with pytest.raises(FieldError):
        ech.extend([{1: 1}, {2: 3}, {0: Fraction(1, 7)}])
    assert (ech.raised, ech.rank) == ([True], 1)
    ech.extend([])
    assert ech.rows == [((0, 1), (1, 2))]
    with pytest.raises(ValueError):
        ech.extend([])


def test_echelon_extend_rows_lost_mod_lift_prime():
    # every row of the block times LIFT_PRIME: none raises the rank mod
    # LIFT_PRIME, so the lift must mark every row, as after one add per row
    rng = random.Random(5)
    rows = [{c: rng.randint(-3, 3) for c in range(1, 7)} for _ in range(5)]
    scaled = [{c: v * I.LIFT_PRIME for c, v in row.items()} for row in rows]
    one, many = I.Echelon(7, 0), I.Echelon(7, 0)
    for ech in (one, many):
        ech.add({0: 1, 3: Fraction(1, 2)})
    many.extend(scaled)
    for row in scaled:
        one.add(row)
    assert many.raised == one.raised == [True] + [False] * 5
    assert many.rank == one.rank == 1
    assert many.rows == one.rows
    assert many.rank == one.rank == 6
    assert many.raised == one.raised == [True] * 6


def test_q_echelon_crt_beyond_one_prime(monkeypatch):
    # 100019/100003 has numerator and denominator above sqrt(P/2), so no
    # single prime reconstructs it: the lift combines primes by CRT
    used = _record_lift_primes(monkeypatch)
    ech = I.Echelon(3, 0)
    ech.add({0: 100003, 1: 100019})
    ech.add({0: 1, 2: 1})
    assert ech.rows == [
        ((0, 2), (1, 1)),
        ((1, 2), (1, Fraction(-100003, 100019))),
    ]
    assert len(used) >= 2
    assert ech.residual({0: 2, 1: 1}) == {2: Fraction(-2 * 100019 + 100003, 100019)}


def test_q_build_timeout_leaves_cache_clean(monkeypatch, clean_cache):
    I.clear_cache()
    with pytest.raises(I.GuardError):
        I.quotient_dimension(4, 2, 0, (4, 3), I.Limits(timeout_sec=0.0))
    assert (4, 0, (4, 3)) not in I._cache
    # the deadline passes just as the lift of (3, 2) starts: the lift checks
    # it, and the component is not cached
    I.component_basis(3, 2, 0, (2, 2))
    I.component_basis(3, 2, 0, (3, 1))
    limits = I.Limits(timeout_sec=600)
    lift = I.Echelon._certified_rref

    def expiring(self):
        limits.deadline = time.monotonic()
        return lift(self)

    monkeypatch.setattr(I.Echelon, "_certified_rref", expiring)
    with pytest.raises(I.GuardError):
        I.component_basis(3, 2, 0, (3, 2), limits)
    assert (3, 0, (3, 2)) not in I._cache
    assert (3, 0, (3, 1)) in I._cache


def test_component_basis_counts():
    basis = I.component_basis(2, 2, 0, (2, 1))
    assert len(basis.words) == 3
    assert basis.rank == 3
    assert basis.quotient_dimension == 0
    b2 = I.component_basis(2, 2, 0, (1, 1))
    assert b2.quotient_dimension == 1
    assert b2.nonpivot_words() and b2.echelon.pivots


def test_rref_rows_are_members():
    basis = I.component_basis(3, 2, 0, (2, 2))
    for cols, vals in basis.echelon.rows:
        assert I.contains(3, 0, FormalSum({basis.words[c]: v for c, v in zip(cols, vals)}, 2, 0))


@pytest.mark.parametrize("p", [0, 3])
def test_cached_component_keeps_only_reduced_rows(clean_cache, p):
    basis = I.component_basis(3, 2, p, (3, 2))
    ech = basis.echelon
    assert ech._table is None and ech._offered is None
    assert 0 < len(ech.rows) == basis.rank


def _rref_digest():
    """sha256 over the RREF rows of every cached component, by key.  Over Q
    each entry after the pivot is printed as a Fraction, so the digest pins
    the values and not whether an integral one is stored as int."""
    h = hashlib.sha256()
    for key in sorted(I._cache):
        rows = I._cache[key].echelon.rows
        if key[1] == 0:
            rows = [(cols, vals[:1] + tuple(map(Fraction, vals[1:]))) for cols, vals in rows]
        h.update(repr((key, rows)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("build,p,digest", [
    ("c42", 0, "d21544e58dfab04f7f0c759f1704821f13abe1e9c9ec8c0695e740644f425c48"),
    ("c42", 3, "e75d7c493138914432f2d325221cdf317b1384a469e121297dc5b8e8cf2a82c8"),
    ("n5", 0, "f2d4726bd78a985ccc5a07df39d32441d1bf4e165e622a1402b41b6bed50b53b"),
    ("n5", 3, "a07d8b24a6a85ccfc68bf2e7843b56003c22921e099e5739b9350f86c0711397"),
], ids=["c42-0", "c42-3", "n5-0", "n5-3"])
def test_component_rrefs_pinned(clean_cache, build, p, digest):
    # the RREF of a component depends only on its span: pruning the offered
    # rows must leave every row of every component built by C(4,2,p) or by
    # n = 5 at (5,5) as it was when every row was offered
    I.clear_cache()
    if build == "c42":
        assert I.nilpotency_degree(4, 2, p, 11).degree == 10
    else:
        I.component_basis(5, 2, p, (5, 5))
    # children that are not weakly decreasing are read from their sorted
    # twins and not cached: build the downward closure of the children of
    # every cached component, of total degree at least n, as built before
    todo = list(I._cache)
    while todo:
        n, q, delta = todo.pop()
        for k in range(len(delta)):
            child = delta[:k] + (delta[k] - 1,) + delta[k + 1:]
            if delta[k] and sum(child) >= n and (n, q, child) not in I._cache:
                I.component_basis(n, len(delta), q, child)
                todo.append((n, q, child))
    assert _rref_digest() == digest


def test_left_multiples_seeded_or_added(monkeypatch, clean_cache):
    # C(4,2,0) seeds every left multiple, 1 076 rows in one seed call per
    # built component, and adds the other rows one call per row, 474 in
    # all; no build calls extend (the children that are not weakly
    # decreasing are read from their twins, not built).  The adds include
    # the right multiples of complement rows that are redundant, which a
    # child has where its seed moved a pivot
    events = []  # (echelon, "add", "extend" or "seed", number of rows)
    add, extend, seed = I.Echelon.add, I.Echelon.extend, I.Echelon.seed
    adding = []  # nonempty inside add, whose one-row extend is not counted

    def counted_add(self, row):
        events.append((self, "add", 1))
        adding.append(row)
        try:
            return add(self, row)
        finally:
            adding.pop()

    def counted_extend(self, rows):
        rows = list(rows)
        if not adding:
            events.append((self, "extend", len(rows)))
        return extend(self, rows)

    def counted_seed(self, rows):
        events.append((self, "seed", len(rows)))
        return seed(self, rows)

    monkeypatch.setattr(I.Echelon, "add", counted_add)
    monkeypatch.setattr(I.Echelon, "extend", counted_extend)
    monkeypatch.setattr(I.Echelon, "seed", counted_seed)
    I.clear_cache()
    assert I.nilpotency_degree(4, 2, 0, 11).degree == 10
    built = sorted(id(basis.echelon) for basis in I._cache.values())
    ways = {way: [(id(ech), k) for ech, w, k in events if w == way]
            for way in ("add", "extend", "seed")}
    assert len(ways["add"]) == 474
    assert not ways["extend"]
    assert sum(k for _, k in ways["seed"]) == 1076
    assert len(built) == 35 and sorted(ech for ech, _ in ways["seed"]) == built


@pytest.mark.parametrize("call", [
    lambda p, f: I.contains(4, p, f),
    lambda p, f: I.reduce(4, p, f),
    lambda p, f: I.equiv_zero_certificate(4, p, f, "gtr"),
    lambda p, f: R.canonicalize(2, p, f),
], ids=["contains", "reduce", "equiv_zero_certificate", "canonicalize"])
@pytest.mark.parametrize("given, over", [(5, 0), (0, 5)])
def test_characteristic_of_the_sum_is_required(clean_cache, call, given, over):
    # a p that is not the sum's own is refused before any component is
    # built, instead of an answer in the other field
    I.clear_cache()
    with pytest.raises(FieldError, match="not p = %d" % given):
        call(given, S("x1^2.x2.x1^2 + x1^3.x2", 2, over))
    assert not I._cache


def test_q_complement_keeps_rows_lost_mod_lift_prime(monkeypatch, clean_cache):
    # every unbordered instance times LIFT_PRIME: the same span over Q, but
    # each vanishes mod LIFT_PRIME, so the rank there falls short; the
    # complement, read off the certified rows, must still hand the parents
    # what those instances add
    I.clear_cache()
    I.nilpotency_degree(3, 2, 0, 8)
    want = {key: basis.echelon.rows for key, basis in I._cache.items()}
    bare = I.bare_instances

    def scaled(n, delta, p, words):
        for row in bare(n, delta, p, words):
            yield {c: v * I.LIFT_PRIME for c, v in row.items()}

    short = []
    lift = I.Echelon.lift

    def recording(self):
        if self._reduced is not None:
            return lift(self)
        rank_mod_q = len(self._pivots)
        out = lift(self)
        short.append(rank_mod_q < self.rank)
        return out

    monkeypatch.setattr(I, "bare_instances", scaled)
    monkeypatch.setattr(I.Echelon, "lift", recording)
    I.clear_cache()
    I.nilpotency_degree(3, 2, 0, 8)
    assert sum(short) > 3
    assert {key: basis.echelon.rows for key, basis in I._cache.items()} == want


def test_component_builds_leave_no_cyclic_garbage(clean_cache):
    for p in (0, 3):  # warm the enumeration caches
        I.clear_cache()
        I.nilpotency_degree(4, 2, p, 11)
    gc.collect()
    gc.disable()
    try:
        for p in (0, 3):
            I.clear_cache()
            I.nilpotency_degree(4, 2, p, 11)
            assert gc.collect() == 0, p
    finally:
        gc.enable()


def test_cache_reuse():
    I.clear_cache()
    a = I.component_basis(2, 2, 0, (2, 1))
    b = I.component_basis(2, 2, 0, (2, 1))
    assert a is b
    I.clear_cache()
    c = I.component_basis(2, 2, 0, (2, 1))
    assert c is not a
