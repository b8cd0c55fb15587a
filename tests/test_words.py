import itertools
import math
import timeit

import pytest
from hypothesis import given, strategies as st

from nilalg import words as W


def test_parse_format_roundtrip():
    for text in ["x1", "x1^2.x2.x1", "x3^3.x1.x3", "x2^4"]:
        w = W.parse_word(text)
        assert W.format_word(w) == text


def test_parse_word_errors():
    with pytest.raises(W.WordError):
        W.parse_word("")
    with pytest.raises(W.WordError):
        W.parse_word("x0")
    with pytest.raises(W.WordError):
        W.parse_word("x1^0")
    with pytest.raises(W.WordError):
        W.parse_word("x1..x2")
    with pytest.raises(W.WordError):
        W.parse_word("x3", d=2)


def test_multidegree_and_runs():
    w = W.parse_word("x1^2.x2.x1.x2^3")
    assert W.multidegree(w, 2) == (3, 4)
    assert W.x_power(w, 1) == (2, 1)
    assert W.x_power(w, 2) == (1, 3)
    assert W.sorted_power(w, 2) == (3, 1)
    assert W.x_power(w, 3) == ()


def test_compare_power_example_chain():
    # (2,2,2) < (3,2,1) < (4,1,1) < (3,3) < (4,2) < (5,1) < (6) < empty,
    # all sorted vectors of total 6
    chain = [(2, 2, 2), (3, 2, 1), (4, 1, 1), (3, 3), (4, 2), (5, 1), (6,), ()]
    keys = [W.power_sort_key(v) for v in chain]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_compare_power_total_on_fixed_sum():
    vecs = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,), ()]
    assert len({W.power_sort_key(v) for v in vecs}) == len(vecs)


def test_gtr_compare_basic():
    # same x2-power, x1-power (3) vs (2,1); then two words with the same
    # sorted run vectors, equal in the order
    a, b, c, d_ = (W.order_key(W.parse_word(t), 2, "gtr")
                   for t in ("x1^3.x2", "x1^2.x2.x1", "x1.x2.x1^2", "x1^2.x2.x1"))
    assert W.compare_keys(a, b) == W.GREATER
    assert W.compare_keys(b, a) == W.LESS
    assert W.compare_keys(c, d_) == W.EQUAL


def test_gtr_incomparable():
    a = W.parse_word("x1^3.x2.x1.x2^2")  # x1: (3,1) x2: (1,2)
    b = W.parse_word("x1^2.x2^3.x1^2.x2")  # x1: (2,2) x2: (3,1)
    # x1 powers: (3,1) > (2,2); x2 powers: (2,1) vs (3,1): less
    assert W.compare_keys(W.order_key(a, 2, "gtr"), W.order_key(b, 2, "gtr")) == W.INCOMPARABLE


def test_succ_compare_counts_only():
    # one x1-run against two; then equal run counts but different run
    # lengths: equal in succ, greater in gtr
    a, b, c, d_ = (W.parse_word(t) for t in ("x1^3.x2", "x1^2.x2.x1", "x1^3.x2.x1", "x1^2.x2.x1^2"))
    assert W.compare_keys(W.order_key(a, 2, "succ"), W.order_key(b, 2, "succ")) == W.GREATER
    assert W.compare_keys(W.order_key(c, 2, "succ"), W.order_key(d_, 2, "succ")) == W.EQUAL
    assert W.compare_keys(W.order_key(c, 2, "gtr"), W.order_key(d_, 2, "gtr")) == W.GREATER


def test_succ_greater_implies_gtr_greater():
    # exhaustive over a small component
    for delta in [(3, 1), (2, 2), (3, 2), (2, 2, 1)]:
        d = len(delta)
        ws = W.enumerate_words(delta)
        succ = {w: W.order_key(w, d, "succ") for w in ws}
        gtr = {w: W.order_key(w, d, "gtr") for w in ws}
        for a, b in itertools.permutations(ws, 2):
            if W.compare_keys(succ[a], succ[b]) == W.GREATER:
                assert W.compare_keys(gtr[a], gtr[b]) == W.GREATER


def test_gtr_acyclic_within_degree():
    # no infinite ascending chain within one multidegree: the strict
    # greater-relation on a finite component must be acyclic, i.e. it has
    # a topological order. Check via ranking by repeated source removal.
    for delta in [(2, 2), (3, 2), (2, 2, 1), (3, 1, 1)]:
        d = len(delta)
        ws = W.enumerate_words(delta)
        edges = {
            (a, b)
            for a, b in itertools.permutations(ws, 2)
            if W.compare_keys(W.order_key(a, d, "gtr"), W.order_key(b, d, "gtr")) == W.GREATER
        }
        remaining = set(ws)
        while remaining:
            sources = [
                w for w in remaining
                if not any((v, w) in edges for v in remaining)
            ]
            assert sources, "cycle in the greater-relation at %r" % (delta,)
            remaining -= set(sources)


def test_is_subvector():
    assert W.is_subvector((3,), (1, 3, 2))
    assert W.is_subvector((3, 2), (3, 1, 2))
    assert not W.is_subvector((2, 3), (3, 1, 2))
    assert W.is_subvector((), (1,))


def test_word_count_and_enumeration():
    assert W.word_count((2, 1)) == 3
    assert W.word_count((2, 2, 1)) == 30
    ws = W.enumerate_words((2, 1))
    assert sorted(ws) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    for delta in [(3, 2), (1, 1, 1, 1)]:
        assert len(W.enumerate_words(delta)) == W.word_count(delta)


def test_word_count_is_the_multinomial():
    # a product of binomials, equal to the factorial formula
    for d in (1, 2, 3):
        for delta in itertools.product(range(9), repeat=d):
            want = math.factorial(sum(delta))
            for e in delta:
                want //= math.factorial(e)
            assert W.word_count(delta) == want, delta


def test_word_count_of_a_long_power_is_cheap():
    # no factorial of the total degree: x1^50000 is one word, counted at once
    assert W.word_count((50000, 0)) == 1
    assert min(timeit.repeat(lambda: W.word_count((50000, 0)), number=1, repeat=5)) < 1e-3


def test_enumerate_words_are_the_sorted_permutations():
    # every delta of at most 3 letters with entries <= 3, and a few of 4
    deltas = [delta for d in (1, 2, 3) for delta in itertools.product(range(4), repeat=d)
              if any(delta)]
    deltas += [(1, 1, 1, 1), (2, 1, 0, 1), (0, 2, 1, 2)]
    for delta in deltas:
        letters = [k for k, e in enumerate(delta, 1) for _ in range(e)]
        assert W.enumerate_words(delta) == sorted(set(itertools.permutations(letters)))


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=8))
def test_roundtrip_words_property(letters):
    w = tuple(letters)
    assert W.parse_word(W.format_word(w)) == w


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=8))
def test_runs_sum_to_degree(letters):
    w = tuple(letters)
    d = 3
    md = W.multidegree(w, d)
    for k in range(1, d + 1):
        assert sum(W.x_power(w, k)) == md[k - 1]
