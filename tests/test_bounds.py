import math

import pytest

from nilalg import bounds as B
from nilalg import ideal as I


def ids(results):
    return {b.formula_id for b in results}


def test_exact_known_table():
    assert B.exact_known(1, 5, 0) == 1
    assert B.exact_known(5, 1, 7) == 5
    assert B.exact_known(2, 3, 0) == 3
    assert B.exact_known(2, 3, 2) == 4
    assert B.exact_known(2, 7, 2) == 8
    assert B.exact_known(3, 2, 0) == 6
    assert B.exact_known(3, 2, 2) == 6
    assert B.exact_known(3, 5, 2) == 8   # d + 3 for p = 2, d > 2
    assert B.exact_known(3, 4, 3) == 13  # 3d + 1 for p = 3
    assert B.exact_known(4, 2, 0) == 10
    assert B.exact_known(4, 2, 3) is None
    assert B.exact_known(4, 3, 3) == 12  # the degree scan mod 3
    assert B.exact_known(5, 2, 0) == 15  # the degree scan over Q
    # no computation or cited proof gives C(5,2) at any p > 0, nor C(5,3,0)
    for p in (2, 3, 5, 7):
        assert B.exact_known(5, 2, p) is None
    assert B.exact_known(5, 3, 0) is None
    assert B.exact_known(6, 2, 0) is None


def test_c520_tightens_the_recursion_and_lower_bounds():
    # C(5,2,0) = 15 replaces the recursive 12d + 1 = 25 wherever n // i = 5
    assert B.recursive_bound(10, 2, 0) == 167
    assert B.recursive_bound(30, 2, 0) == 3011
    low = {b.formula_id: b.value_exact for b in B.lower_bounds(6, 2, 0)}
    assert low["monotone_from_n5"] == 15
    assert "monotone_from_n4" not in low


def test_c433_feeds_the_lower_bounds():
    # C(4,3,3) = 12 replaces C(3,3,3) = 10 as the monotone lower bound
    low = {b.formula_id: b.value_exact for b in B.lower_bounds(5, 3, 3)}
    assert low["monotone_from_n4"] == 12 and "monotone_from_n3" not in low
    summary = B.best_bounds(4, 3, 3)
    assert summary.best_lower.value_exact == summary.best_upper.value_exact == 12


def test_exact_known_n4_d3_p0_matches_the_degree_scan():
    assert I.nilpotency_degree(4, 3, 0, 11).degree == B.exact_known(4, 3, 0) == 10


def test_recursive_bound_n5_is_12d_plus_1():
    for d in (2, 3, 5, 10):
        for p in (0, 3, 7, 11):
            assert B.recursive_bound(5, d, p) == 12 * d + 1


def test_recursive_bound_linear_table():
    # a_n d + 1 for n = 4..9 at p = 7 (> n/2 throughout); here the inner
    # value for power 4 is the doubling bound 13, matching the cited table
    for n, a in B.LINEAR_COEFF.items():
        for d in (2, 3, 7):
            assert B.recursive_bound(n, d, 7) == a * d + 1, (n, d)


def test_recursive_bound_char0_at_least_as_good():
    # at p = 0 the exact inner value C(4) = 10 < 13 can only improve things
    for n, a in B.LINEAR_COEFF.items():
        for d in (2, 3):
            assert B.recursive_bound(n, d, 0) <= a * d + 1, (n, d)


def test_recursive_bound_validates_characteristic_window():
    with pytest.raises(ValueError):
        B.recursive_bound(5, 2, 2)  # needs p = 0 or p > n/2
    assert B.recursive_bound(5, 2, 3) == 25  # 3 > 5/2


def test_nagata_higman_and_razmyslov():
    res = B.closed_form_bounds(6, 3, 0)
    by_id = {b.formula_id: b for b in res}
    assert by_id["nagata_higman"].value_exact == 2**6 - 1
    assert by_id["razmyslov"].value_exact == 36
    # p > n: NH applies, Razmyslov does not
    res7 = B.closed_form_bounds(6, 3, 7)
    assert "nagata_higman" in ids(res7)
    assert "razmyslov" not in ids(res7)
    # the doubling bound needs p > n, so it is absent at p = 0
    assert "doubling_sharpened" not in by_id
    assert {b.formula_id: b for b in res7}["doubling_sharpened"].value_exact == 7 * 2**3 - 1


def test_doubling_sharpened():
    res = {b.formula_id: b for b in B.closed_form_bounds(5, 2, 7)}
    assert res["doubling_sharpened"].value_exact == 7 * 2**2 - 1  # 27


def test_poly_bound_exact_when_power_of_two():
    # 3d + 2 = 8 at d = 2: bound is n^4, strict, so value n^4 - 1
    res = {b.formula_id: b for b in B.closed_form_bounds(4, 2, 3)}
    assert res["poly_in_n"].value_exact == 4**4 - 1 == 255
    res0 = {b.formula_id: b for b in B.closed_form_bounds(4, 2, 0)}
    assert res0["poly_in_n_char0_extension"].value_exact == 255


def test_n4_interval():
    up = {b.formula_id: b for b in B.closed_form_bounds(4, 2, 3)}
    assert up["n4_interval_upper"].value_exact == 10  # 3d + 4
    low = {b.formula_id: b for b in B.lower_bounds(4, 2, 3)}
    assert low["n4_interval_lower"].value_exact == 7  # 3d + 1
    low2 = {b.formula_id: b for b in B.lower_bounds(4, 3, 2)}
    assert low2["n4_interval_lower"].value_exact == 10  # 3d + 1 at p = 2


def test_lower_bounds_kuzmin_and_d():
    low = {b.formula_id: b for b in B.lower_bounds(6, 4, 0)}
    assert low["kuzmin"].value_exact == 21  # n(n+1)/2
    low2 = {b.formula_id: b for b in B.lower_bounds(6, 4, 5)}
    assert "kuzmin" not in low2
    assert low2["generator_count"].value_exact == 4


def test_best_bounds_n2_p2_pinched():
    s = B.best_bounds(2, 5, 2)
    assert s.best_upper.value_exact == 6
    assert s.best_lower.value_exact == 6


def test_best_bounds_sandwich_small_cases():
    engine = {
        (2, 2, 0): 3, (2, 2, 3): 3, (2, 2, 2): 3, (2, 3, 2): 4,
        (2, 4, 2): 5, (3, 2, 0): 6, (3, 2, 2): 6, (3, 3, 2): 6,
        (3, 2, 3): 7, (4, 2, 0): 10, (4, 2, 3): 10,
    }
    for (n, d, p), c in engine.items():
        s = B.best_bounds(n, d, p)
        lo = s.best_lower.value_exact
        hi = s.best_upper.value_exact
        assert lo is not None and lo <= c, (n, d, p)
        assert hi is not None and c <= hi, (n, d, p)


def test_conjecture_flag_adds_conditional_entries():
    plain = ids(B.closed_form_bounds(10, 2, 11))
    flagged = B.closed_form_bounds(10, 2, 11, assume_conjecture_n2=True)
    assert "conjecture_n2" not in plain
    extra = [b for b in flagged if b.formula_id == "conjecture_n2"]
    assert extra and extra[0].conditional
    cond = B.closed_form_bounds(10, 2, 7, assume_conjecture_n2=True)
    assert any(b.formula_id == "modulo_conjecture_n2" and b.conditional for b in cond)


def test_best_bounds_never_selects_conditional():
    s = B.best_bounds(40, 2, 41, assume_conjecture_n2=True)
    assert not s.best_upper.conditional


def test_strict_int_bound():
    from fractions import Fraction

    assert B._strict_int_bound(Fraction(10)) == 9
    assert B._strict_int_bound(Fraction(21, 2)) == 10


def test_comparator_ratio():
    # minimum of the log10 ratio over n in [4, 2000] is at least 20
    table = B.comparator_table(4, 2000, d=2)
    assert table["min_log10_ratio"] >= 20
    # d cancels in the ratio
    assert math.isclose(
        B.comparator_ratio_log10(100, 2), B.comparator_ratio_log10(100, 9)
    )


def test_bound_validation():
    with pytest.raises(ValueError):
        B.best_bounds(0, 2, 0)
    with pytest.raises(ValueError):
        B.best_bounds(3, 2, 4)  # 4 is not prime


# formula ids whose bound is an integer expression at every (n, d)
ALWAYS_EXACT = {"nagata_higman", "razmyslov", "doubling_sharpened", "small_n_linear",
                "klein_small", "klein_large", "n4_interval_upper", "conjecture_n2"}


def has_exact_form(formula_id, n, d):
    if formula_id.startswith("poly_in_n"):
        return (3 * d + 2) & (3 * d + 1) == 0  # n^(log2(3d+2)+1) is a power of n
    if formula_id == "exp_half":
        return n % 2 == 0  # 2^(n/2) is an integer
    return formula_id in ALWAYS_EXACT


def test_exact_value_kept_only_below_digit_limit():
    seen = set()
    for n in list(range(2, 40)) + [128, 132, 133, 134, 138, 256, 258, 260, 1000]:
        for d in (2, 3, 5):
            for p in (0, 2, 3, 5, 131, 1009):
                for b in B.closed_form_bounds(n, d, p, assume_conjecture_n2=True):
                    below = b.value_log10 < B._EXACT_DIGIT_LIMIT
                    expected = has_exact_form(b.formula_id, n, d) and below
                    assert (b.value_exact is not None) == expected, (n, d, p, b)
                    if b.value_exact is not None:
                        # the integer is the largest one at or below 10^value_log10
                        v, lg = b.value_exact, b.value_log10
                        assert math.log10(v) <= lg + 1e-9 < math.log10(v + 1) + 2e-9, b
                    seen.add((b.formula_id, b.value_exact is not None))
    # every formula is met both with and without its integer, except those
    # with no exact form and those that never reach 40 digits on this grid
    for fid in ("nagata_higman", "doubling_sharpened", "poly_in_n", "exp_half",
                "klein_small", "klein_large"):
        assert {(fid, True), (fid, False)} <= seen, fid


def plain_recursive_bound(n, d, p):
    """The recursion summed term by term, i = 2..n."""
    upper = {m: B._best_upper_value(m, d, p) for m in range(1, n // 2 + 1)}
    return d * sum((i - 1) * upper[n // i] for i in range(2, n + 1)) + 1


def test_recursive_bound_blocks_match_plain_sum():
    for d in (1, 2, 3):
        for p in (0, 307):
            for n in range(1, 301):
                assert B.recursive_bound(n, d, p) == plain_recursive_bound(n, d, p), (n, d, p)
    for n in range(1, 6):
        assert B.recursive_bound(n, 2, 3) == plain_recursive_bound(n, 2, 3)


def test_comparator_ratio_reads_the_closed_form_entries():
    for n, p in [(n, 101) for n in range(4, 101)] + [(500, 503), (2000, 2003)]:
        for d in (2, 5):
            by_id = {b.formula_id: b.value_log10 for b in B.closed_form_bounds(n, d, p)}
            ratio = min(by_id["belov_kharitonov_1"], by_id["belov_kharitonov_2"]) \
                - by_id["exp_half"]
            assert B.comparator_ratio_log10(n, d) == ratio, (n, d)
