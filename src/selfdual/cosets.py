"""Cyclotomic cosets, multipliers, splittings, and root-run certificates.

Defining sets live in Z_modulus.  Cyclic codes use step 1 and modulus n;
constacyclic codes use modulus r*n with the members confined to the
residue class 1 (mod r), and runs are measured inside that class.
"""
from __future__ import annotations

from math import gcd

from .errors import NotCoprime, ZeroInSet, json_int
from .frozen import Frozen


class DefiningSet(Frozen):
    """A set of root exponents modulo ``modulus``.

    ``step`` is 1 for cyclic codes; for constacyclic codes it is r and
    every member is then congruent to 1 (mod r).  ``elements`` is kept
    sorted and reduced modulo ``modulus``.
    """

    _fields = ("modulus", "elements", "step")

    def __init__(self, modulus: int, elements: tuple[int, ...],
                 step: int = 1):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if step < 1:
            raise ValueError("step must be positive")
        norm = tuple(sorted({x % modulus for x in elements}))
        self._assign(modulus, norm, step)
        if step > 1:
            if modulus % step != 0:
                raise ValueError("step must divide the modulus")
            for x in norm:
                if x % step != 1 % step:
                    raise ValueError(
                        "element %d is outside the residue class 1 mod %d"
                        % (x, step)
                    )

    def as_set(self) -> frozenset:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self):
        return {"modulus": self.modulus, "step": self.step,
                "elements": list(self.elements)}

    @staticmethod
    def from_json(obj) -> "DefiningSet":
        return DefiningSet(json_int(obj["modulus"]),
                           tuple(map(json_int, obj["elements"])),
                           json_int(obj.get("step", 1)))


def cyclotomic_coset(i: int, n: int, q: int) -> tuple[int, ...]:
    """The orbit of i under multiplication by q modulo n, sorted."""
    if gcd(n, q) != 1:
        raise NotCoprime("base %d shares a factor with modulus %d" % (q, n))
    i %= n
    orbit = {i}
    x = (i * q) % n
    while x != i:
        orbit.add(x)
        x = (x * q) % n
    return tuple(sorted(orbit))


class SplittingReport(Frozen):
    """Result of checking one multiplier-candidate pair for a splitting."""

    _fields = ("n", "multiplier", "s1", "s2", "is_splitting", "witness")

    def __init__(self, n: int, multiplier: int, s1: tuple[int, ...],
                 s2: tuple[int, ...], is_splitting: bool,
                 witness: int | None):
        self._assign(n, multiplier, s1, s2, is_splitting, witness)

    def to_json(self):
        return {
            "n": self.n,
            "multiplier": self.multiplier,
            "s1": list(self.s1),
            "s2": list(self.s2),
            "is_splitting": self.is_splitting,
            "witness": self.witness,
        }


def check_duadic_splitting(T: DefiningSet, a: int, n: int,
                           q: int) -> SplittingReport:
    """Does (x -> a*x, T, complement) split Z_n minus {0} into q-cosets?

    The conditions are: the multiplier maps T onto its complement S2,
    and T is a union of q-cosets.  They suffice: a unit multiplier
    permutes {1..n-1}, so it then maps S2 back onto T, and the q-cosets
    partition {1..n-1}, so S2 is a union of them too.  When the
    multiplier maps part of T back into T, the reported witness is the
    image a*i of the least i in T whose image stays inside T; when the
    image misses part of S2, the least member it misses.  When a coset
    leaks out of T, the witness is the least escaped coset member.
    """
    if T.modulus != n:
        raise ValueError("defining set modulus %d differs from n %d"
                         % (T.modulus, n))
    if gcd(n, q) != 1:
        raise NotCoprime("coset base %d shares a factor with n %d" % (q, n))
    if gcd(a, n) != 1:
        raise NotCoprime("multiplier %d shares a factor with n %d" % (a, n))
    s1 = set(T.elements)
    if 0 in s1:
        raise ZeroInSet("0 cannot appear in a splitting half")
    a_norm = a % n
    s2 = set(range(1, n)) - s1
    image = {(a_norm * x) % n for x in s1}
    witness = None
    if image & s1:
        witness = next((a_norm * i) % n for i in sorted(s1)
                       if (a_norm * i) % n in s1)
    elif image != s2:
        witness = min(s2 - image)
    else:
        for x in sorted(s1):
            leak = set(cyclotomic_coset(x, n, q)) - s1
            if leak:
                witness = min(leak)
                break
    return SplittingReport(n, a_norm, tuple(sorted(s1)), tuple(sorted(s2)),
                           witness is None, witness)


def consecutive_run(T: DefiningSet) -> int:
    """Longest circular run with difference ``step`` inside the set.

    Members are mapped to positions j = (x - base)/step modulo the class
    size, and the longest circular block of consecutive positions is
    returned.  A run of length L certifies minimum distance >= L + 1 for
    the code whose roots carry these exponents.
    """
    if not T.elements:
        return 0
    size = T.modulus // T.step
    base = 1 % T.step if T.step > 1 else 0
    positions = sorted(((x - base) // T.step) % size for x in T.elements)
    if len(positions) == size:
        return size
    present = set(positions)
    best = 0
    for j in positions:
        if (j - 1) % size in present:
            continue
        length = 1
        while (j + length) % size in present:
            length += 1
        best = max(best, length)
    return best
