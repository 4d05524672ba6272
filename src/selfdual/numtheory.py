"""Elementary number theory: primality, factorization, solvability.

The solvability classifier decides, from q = p**t and n alone, whether
1 + g**2 * n = 0 has a solution g in GF(q).  For q = 3 (mod 4) the answer
is read off the factorization of n: it is solvable exactly when the
primes of n that are 3 (mod 4) carry an odd total exponent.
"""
from __future__ import annotations

from .config import GuardConfig, current_guards
from .errors import (
    EvenN,
    FactorizationGuardExceeded,
    NotDivisor,
    NotPrime,
    SizeGuardExceeded,
)
from .frozen import Frozen

# the first 13 primes, and psi_13, the least strong pseudoprime to all of
# them; psi_12 = 318665857834031151167461 passes the first 12
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime: Miller-Rabin to the bases ``_MR_BASES``.

    The test is deterministic for n below psi_13 = 3317044064679887385961981
    (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
    Math. Comp. 2017).  An n at or above it gets no verdict: it is refused
    with ``SizeGuardExceeded`` before any arithmetic on it.
    """
    if n >= _MR_LIMIT:
        # n is not named: it may be huge
        raise SizeGuardExceeded("n at or above %d is beyond the deterministic"
                                " primality test" % _MR_LIMIT)
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Factorization(Frozen):
    """Prime factorization as ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""

    _fields = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        self._assign(factors)

    def __iter__(self):
        return iter(self.factors)

    @property
    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out


def check_factor_size(n: int, guards: GuardConfig) -> None:
    """Refuse to factor an n above the ``factor_limit`` of ``guards``."""
    if n > guards.factor_limit:
        raise FactorizationGuardExceeded("%d exceeds the factorization guard"
                                         % n)


def factorize(n: int, guards: GuardConfig | None = None) -> Factorization:
    """``trial_factorize(n)`` for an n that ``check_factor_size`` admits."""
    check_factor_size(n, current_guards(guards))
    return trial_factorize(n)


def trial_factorize(n: int) -> Factorization:
    """Full factorization by trial division on the 2*3*5 wheel.

    Division stops once d*d exceeds what is left, so at most about
    sqrt(n) * 8/30 candidates are tried: about 2.8e5 for n up to the
    default ``factor_limit`` of 2**40, and under 1.3e4 for any q - 1
    below the default ``field_size_limit`` of 2**31.  It reads no
    guard: ``factorize`` checks its n, and a field's q - 1 is checked
    where the field is admitted, by ``fields.check_field_size``.
    """
    if n < 1:
        raise FactorizationGuardExceeded("factorize needs a positive integer")
    counts: dict[int, int] = {}
    for small in (2, 3, 5):
        while n % small == 0:
            counts[small] = counts.get(small, 0) + 1
            n //= small
    d = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += steps[i]
        i = (i + 1) % 8
    if n > 1:
        counts[n] = 1  # a prime above every divisor tried
    return Factorization(tuple(sorted(counts.items())))


class SolvabilityVerdict(Frozen):
    """Outcome of the quadratic extension-coefficient solvability test.

    ``odd_sum`` is the total exponent, in n, of primes that are 3 (mod 4);
    it decides the q = 3 (mod 4) case.
    """

    _fields = ("solvable", "case", "odd_sum")

    def __init__(self, solvable: bool, case: str, odd_sum: int):
        self._assign(solvable, case, odd_sum)

    def to_json(self):
        return {"solvable": self.solvable, "case": self.case,
                "odd_sum": self.odd_sum}


def gamma_solvability(p: int, t: int, n: int,
                      guards: GuardConfig | None = None) -> SolvabilityVerdict:
    """Classify whether 1 + g**2 * n = 0 is solvable in GF(p**t).

    Requires odd n dividing p**t - 1.  Characteristic 2 and q = 1 (mod 4)
    are always solvable; q = 3 (mod 4) is solvable iff ``odd_sum`` is odd.
    """
    if not is_prime(p):
        raise NotPrime("p = %d is not prime" % p)
    if n < 1 or n % 2 == 0:
        raise EvenN("n = %d must be odd" % n)
    q = p ** t
    if (q - 1) % n != 0:
        raise NotDivisor("n = %d does not divide q - 1 = %d" % (n, q - 1))
    odd_sum = sum(e for f, e in factorize(n, guards) if f % 4 == 3)
    if p == 2:
        return SolvabilityVerdict(True, "Char2", odd_sum)
    if q % 4 == 1:
        return SolvabilityVerdict(True, "QEquiv1Mod4", odd_sum)
    if odd_sum % 2 == 1:
        return SolvabilityVerdict(True, "QEquiv3Mod4-OddSum", odd_sum)
    return SolvabilityVerdict(False, "QEquiv3Mod4-EvenSum", odd_sum)
