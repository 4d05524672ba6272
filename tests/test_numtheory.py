import pytest
from hypothesis import given, settings, strategies as st

from selfdual.config import GuardConfig
from selfdual.errors import (
    EvenN,
    FactorizationGuardExceeded,
    NotDivisor,
    NotPrime,
    SizeGuardExceeded,
)
from selfdual.numtheory import (
    Factorization,
    factorize,
    gamma_solvability,
    is_prime,
)


def brute_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def brute_factor(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_is_prime_agrees_with_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == brute_prime(n), n
    # a few larger known values
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)      # 641 * 6700417
    assert is_prime(1_000_000_007)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)      # 193707721 * 761838257287
    # psi_12, a strong pseudoprime to the first 12 prime bases, and the
    # least n to which the test gives no verdict, psi_13
    assert not is_prime(318665857834031151167461)
    for n in (3317044064679887385961981, 2 ** 4423 - 1):
        with pytest.raises(SizeGuardExceeded):
            is_prime(n)
    # gamma_solvability tests p before any guard is read
    with pytest.raises(SizeGuardExceeded):
        gamma_solvability(2 ** 4423 - 1, 1, 3)


@settings(deadline=None, max_examples=500)
@given(st.integers(0, 10**7 - 1))
def test_is_prime_agrees_with_trial_division_below_ten_million(n):
    assert is_prime(n) == brute_prime(n)


def test_factorize_roundtrip():
    for n in [2, 12, 97, 360, 1024, 40353606, 43046720, 2 ** 31 - 2]:
        fac = factorize(n)
        assert isinstance(fac, Factorization)
        assert fac.value == n
        value = 1
        for p, e in fac.factors:
            assert is_prime(p)
            value *= p ** e
        assert value == n
        assert [p for p, _ in fac.factors] == sorted(set(brute_factor(n)))


def test_factorize_refuses_nonpositive_and_guarded_input():
    for n in (0, -12):
        with pytest.raises(FactorizationGuardExceeded):
            factorize(n)
    guards = GuardConfig(factor_limit=1000)
    assert factorize(1000, guards).value == 1000
    with pytest.raises(FactorizationGuardExceeded):
        factorize(1001, guards)


@pytest.mark.parametrize("n", [
    10007 * 10009,                  # both primes above 10**4
    46337 * 46349,                  # a semiprime near 2**31
    10007 ** 2 * 10009,             # a repeated factor above 10**4
    1099511627689,                  # the largest prime below 2**40
])
def test_factorize_large_prime_factors(n):
    fac = factorize(n)
    assert fac.value == n
    assert all(is_prime(p) for p, _ in fac)
    want = brute_factor(n)
    assert fac.factors == tuple((p, want.count(p)) for p in sorted(set(want)))


# --- solvability of 1 + g^2 n = 0 ---

def brute_solvable(field, n):
    nbar = field.scalar(n)
    return any(field.one + g * g * nbar == field.zero
               for g in field.elements())


def test_solvability_even_characteristic_always_works():
    v = gamma_solvability(2, 4, 5)
    assert v.solvable and v.case == "Char2"
    v = gamma_solvability(2, 12, 13)
    assert v.solvable and v.case == "Char2"


def test_solvability_error_contract():
    with pytest.raises(NotPrime):
        gamma_solvability(9, 1, 3)
    with pytest.raises(EvenN):
        gamma_solvability(5, 2, 4)
    with pytest.raises(NotDivisor):
        gamma_solvability(5, 1, 3)


def test_solvability_known_verdicts():
    v = gamma_solvability(7, 1, 3)
    assert v.solvable and v.case == "QEquiv3Mod4-OddSum" and v.odd_sum == 1

    v = gamma_solvability(11, 1, 5)
    assert not v.solvable and v.case == "QEquiv3Mod4-EvenSum" and v.odd_sum == 0

    v = gamma_solvability(59, 1, 29)
    assert not v.solvable and v.case == "QEquiv3Mod4-EvenSum"

    v = gamma_solvability(13, 1, 3)  # 13 = 1 (mod 4): always solvable
    assert v.solvable and v.case == "QEquiv1Mod4"

    v = gamma_solvability(5, 2, 3)  # 25 = 1 (mod 4)
    assert v.solvable and v.case == "QEquiv1Mod4"


def test_solvability_json_shape():
    v = gamma_solvability(7, 1, 3)
    obj = v.to_json()
    assert obj == {"solvable": True, "case": "QEquiv3Mod4-OddSum",
                   "odd_sum": 1}


def test_solvability_brute_force_spot_checks():
    from selfdual.fields import make_field

    for p, t, n in [(7, 1, 3), (11, 1, 5), (13, 1, 3), (3, 2, 4 + 1),
                    (19, 1, 9), (23, 1, 11), (2, 4, 5), (2, 4, 15),
                    (31, 1, 15), (5, 2, 3)]:
        q = p ** t
        if n % 2 == 0 or (q - 1) % n:
            continue
        field = make_field(p, t)
        assert gamma_solvability(p, t, n).solvable == brute_solvable(field, n)
