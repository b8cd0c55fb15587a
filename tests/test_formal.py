import random
from fractions import Fraction
from itertools import chain
from math import isqrt

import numpy as np
import pytest

from nilalg.formal import (
    MAX_PRIME,
    FieldError,
    FormalSum,
    check_characteristic,
    format_sum,
    parse_sum,
)
from nilalg.invariants import Poly


def test_check_characteristic():
    # 3_037_000_493 and 3_037_000_507 are the primes next to MAX_PRIME;
    # 25_326_001 is a strong pseudoprime to the bases 2, 3 and 5, and
    # 2**61 - 1 a prime above MAX_PRIME.  Every sparse sum, however it is
    # made, refuses what check_characteristic refuses
    for p in (0, 2, 3, 5, 2_147_483_647, 3_037_000_493):
        check_characteristic(p)
    for p in (1, 4, 6, -3, 9, 25_326_001, 3_037_000_507, 8_589_934_609, 2**61 - 1):
        for make in (check_characteristic, lambda p: FormalSum({(1,): 1}, 1, p),
                     lambda p: FormalSum.zero(1, p), lambda p: parse_sum("x1", 1, p),
                     lambda p: Poly({(1,): 1}, 1, p), lambda p: Poly.zero(1, p)):
            with pytest.raises(FieldError):
                make(p)


def test_check_characteristic_agrees_with_trial_division():
    # the Miller-Rabin test against trial division by the primes up to
    # isqrt(MAX_PRIME): every p below 20 000, and 3 000 random p below MAX_PRIME
    top = isqrt(MAX_PRIME)
    sieve = bytearray([1]) * (top + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(top) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, top + 1, i)))
    primes = [i for i in range(top + 1) if sieve[i]]

    def is_prime(p):
        return p > 1 and all(p % q for q in primes if q * q <= p and q < p)

    rng = random.Random(17)
    for p in chain(range(1, 20_000), (rng.randrange(2, MAX_PRIME + 1) for _ in range(3_000))):
        try:
            check_characteristic(p)
        except FieldError:
            assert not is_prime(p), p
        else:
            assert is_prime(p), p


def test_refused_characteristic_is_not_remembered():
    # accepted characteristics are cached; a refusal must repeat every time
    for _ in range(2):
        with pytest.raises(FieldError):
            check_characteristic(4)


def test_parse_simple():
    f = parse_sum("x1^2.x2.x1", 2, 0)
    assert f.terms == {(1, 1, 2, 1): Fraction(1)}


def test_parse_signs_and_coeffs():
    f = parse_sum("2*x1.x2 - 3*x2.x1 + x1^2", 2, 0)
    assert f.terms[(1, 2)] == 2
    assert f.terms[(2, 1)] == -3
    assert f.terms[(1, 1)] == 1


def test_parse_fractions():
    f = parse_sum("1/2*x1 + 1/3*x1", 1, 0)
    assert f.terms[(1,)] == Fraction(5, 6)


def test_parse_mod_p():
    f = parse_sum("5*x1 + x2", 2, 3)
    assert f.terms == {(1,): 2, (2,): 1}
    g = parse_sum("3*x1", 1, 3)
    assert g.is_zero()


def test_parse_errors():
    for bad in ["", "x1 +", "* x1", "x1 x2", "2*", "x1^", "1/0*x1"]:
        with pytest.raises(ValueError):
            parse_sum(bad, 2, 0)


def test_format_roundtrip():
    for text in ["x1^2.x2.x1", "2*x1.x2 - 3*x2.x1", "-x1 + x2"]:
        f = parse_sum(text, 2, 0)
        assert parse_sum(format_sum(f), 2, 0) == f


def test_zero_formats_as_zero():
    f = parse_sum("x1 - x1", 1, 0)
    assert f.is_zero()
    assert format_sum(f) == "0"


def test_arithmetic():
    f = parse_sum("x1", 2, 0)
    g = parse_sum("x2", 2, 0)
    assert (f + g) - f == g
    assert (f - f).is_zero()
    assert f.scale(0).is_zero()
    # concatenation product
    assert (f * g).terms == {(1, 2): Fraction(1)}
    h = parse_sum("x1 + x2", 2, 0)
    assert (h * h).terms == {
        (1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1,
    }


def test_split_multihomogeneous():
    f = parse_sum("x1.x2 + x2.x1 + x1^2", 2, 0)
    parts = f.split_multihomogeneous()
    assert set(parts) == {(1, 1), (2, 0)}
    assert parts[(1, 1)].terms == {(1, 2): 1, (2, 1): 1}
    assert list(parts[(1, 1)].split_multihomogeneous()) == [(1, 1)]


def test_characteristic_mismatch():
    f = parse_sum("x1", 1, 0)
    g = parse_sum("x1", 1, 3)
    with pytest.raises(ValueError):
        f + g


def test_word_constructor():
    f = FormalSum({(1, 2, 1): 1}, 2, 0)
    assert format_sum(f) == "x1.x2.x1"


def test_integral_rational_coefficients_are_ints():
    # over Q every sparse sum stores an integral coefficient as int and a
    # Fraction only for a real denominator, as invariants.Poly does
    f = parse_sum("2*x1 + 1/2*x2 - 4/2*x1.x2", 2, 0)
    assert f.terms == {(1,): 2, (2,): Fraction(1, 2), (1, 2): -2}
    assert [type(f.terms[w]) for w in [(1,), (2,), (1, 2)]] == [int, Fraction, int]
    g = FormalSum({(1,): Fraction(6, 3), (2,): 3}, 2, 0)
    assert [type(c) for c in g.terms.values()] == [int, int]


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("make", [
    lambda p, c: FormalSum({(1, 1, 2, 2, 1): c, (1, 2, 1, 2, 1): 1}, 2, p),
    lambda p, c: Poly({(1, 0): c, (0, 1): 1}, 2, p),
    lambda p, c: FormalSum({(1,): 1}, 2, p).scale(c),
    lambda p, c: Poly({(1, 0): 1}, 2, p).scale(c),
], ids=["FormalSum", "Poly", "FormalSum.scale", "Poly.scale"])
def test_coefficients_must_be_rational(p, make):
    # a float is neither kept as it is mod p nor turned into its binary
    # Fraction over Q; integers, Fractions and numpy integers are rational
    for c in (0.5, 0.1, 2.0, complex(1, 0)):
        with pytest.raises(ValueError, match="not rational"):
            make(p, c)
    assert make(p, Fraction(1, 2)) == make(p, Fraction(2, 4))
    assert make(p, np.int64(5)) == make(p, 5)
