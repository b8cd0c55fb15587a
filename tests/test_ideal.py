import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nilalg import ideal as I
from nilalg import rewrite4 as R
from nilalg import words as W
from nilalg.formal import FormalSum, format_sum, parse_sum


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
    from nilalg import words as W

    for w in cert.terms:
        assert any(
            W.succ_compare(w, a, 2) == W.GREATER for a in f.terms
        )


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


def _equiv_zero_oracle(n, p, f, order):
    """Reference verdict: each group of equivalent terms must lie in the span
    of the component's rows plus the unit vectors of its greater words."""
    groups = {}
    for w, c in f.terms.items():
        key = (W.multidegree(w, f.d), I._class_key(w, f.d, order))
        groups.setdefault(key, {})[w] = c
    for (delta, _), terms in groups.items():
        rep = next(iter(terms))
        basis = I.component_basis(n, f.d, p, delta)
        ech = I.Echelon(len(basis.words), p)
        for row in basis.echelon.rref_rows():
            ech.add(row)
        for i, w in enumerate(basis.words):
            if I._strictly_greater(w, rep, f.d, order):
                ech.add({i: 1})
        if not ech.contains({basis.index[w]: c for w, c in terms.items()}):
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
    rows = basis.rows_as_sums()
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
            and I._strictly_greater(u, w, d, order)
            for w in f.terms
        ), (format_sum(f), format_sum(g))


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
    # escape hatch
    g = I.substitute_unit(S("x1^4.x2", 2, 2), 1, require_hypothesis=False)
    assert g == S("x2", 2, 2)


# ---- guards, caching, component internals ----


def test_component_guard():
    limits = I.Limits(max_component_words=5)
    with pytest.raises(I.GuardError):
        I.component_basis(3, 2, 0, (4, 4), limits)


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
    # a member, so that no call stops at the first component
    f = S("x1^4.x2 + 2*x2^4.x1 - x1^4.x2^2", 2)
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
    assert cli.main(["reduce4", "--d", "2", "--expr", "x1^2.x2^2 + x1^4.x2",
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
    ref = _rref_mod(rows, p)
    assert ech.rank == len(ref)
    assert ech.rref_rows() == [{j: v for j, v in enumerate(r) if v} for r in ref]


def _rref_mod(rows, p):
    rows = [list(r) for r in rows]
    out, col = [], 0
    while rows and col < len(rows[0]):
        piv = next((r for r in rows if r[col] % p), None)
        if piv is None:
            col += 1
            continue
        rows.remove(piv)
        inv = pow(piv[col], -1, p)
        piv = [v * inv % p for v in piv]
        rows = [[(a - r[col] * b) % p for a, b in zip(r, piv)] for r in rows]
        out = [[(a - r[col] * b) % p for a, b in zip(r, piv)] for r in out]
        out.append(piv)
        col += 1
    return out


def test_component_basis_counts():
    basis = I.component_basis(2, 2, 0, (2, 1))
    assert len(basis.words) == 3
    assert basis.rank == 3
    assert basis.quotient_dimension == 0
    b2 = I.component_basis(2, 2, 0, (1, 1))
    assert b2.quotient_dimension == 1
    assert b2.nonpivot_words() and b2.pivot_words()


def test_rows_as_sums_are_members():
    basis = I.component_basis(3, 2, 0, (2, 2))
    for row in basis.rows_as_sums():
        assert I.contains(3, 0, row)


def test_cache_reuse():
    I.clear_cache()
    a = I.component_basis(2, 2, 0, (2, 1))
    b = I.component_basis(2, 2, 0, (2, 1))
    assert a is b
    I.clear_cache()
    c = I.component_basis(2, 2, 0, (2, 1))
    assert c is not a
