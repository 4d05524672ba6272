"""Exact arithmetic in GF(p^t) and in quadratic extension towers.

Elements of GF(p^t) are residue classes of GF(p)[x] modulo a monic
irreducible polynomial of degree t.  Coefficient vectors are stored
constant term first, so ``(1, 0, 1)`` is ``1 + x**2``.  The canonical
modulus for a given (p, t) is the lexicographically least monic
irreducible polynomial under constant-term-first comparison; elements are
ordered by the integer encoding ``sum(c[i] * p**i)`` and "least" always
refers to that encoding.

GF(q^2) is represented on top of any field object as pairs (a, b)
standing for ``a + b*y`` where y is a root of a fixed monic irreducible
quadratic over the base.  Towers nest, which gives GF(q^4) when needed.

Everything is immutable; field and element values hash and compare by
value, so they are safe to share across threads and use as cache keys.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .config import GuardConfig, current_guards
from .errors import (
    DegreeZero,
    DiscreteLogGuardExceeded,
    NotPrime,
    OrderDoesNotDivide,
    SizeGuardExceeded,
    ZeroElement,
)
from .numtheory import factorize, is_prime

# Bounds of the module caches.  A long-lived process that visits many
# fields evicts the least recently used entry instead of growing; every
# benchmark workload and the test suite stay well inside them.
FIELD_CACHE_SIZE = 256   # make_field, find_primitive_element
TOWER_CACHE_SIZE = 128   # quadratic_extension


# ---------------------------------------------------------------------------
# integer-coefficient polynomial helpers (mod p), constant term first
# ---------------------------------------------------------------------------

def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    # m must be monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return _ptrim(r)


def _pmulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), m, p)


def _ppowmod(base: Sequence[int], e: int, m: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmulmod(result, acc, m, p)
        acc = _pmulmod(acc, acc, m, p)
        e >>= 1
    return result


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    x, y = _ptrim(list(a)), _ptrim(list(b))
    while y:
        # reduce x mod y after making y monic
        inv_lead = pow(y[-1], p - 2, p)
        y_monic = [(c * inv_lead) % p for c in y]
        x, y = y, _pmod(x, y_monic, p)
    if x:
        inv_lead = pow(x[-1], p - 2, p)
        x = [(c * inv_lead) % p for c in x]
    return x


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    size = max(len(a), len(b))
    out = [0] * size
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _ptrim(out)


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p).

    Degree <= 3 reduces to a root scan; in general f of degree t is
    irreducible iff x**(p**t) == x (mod f) and gcd(x**(p**(t/l)) - x, f)
    is 1 for every prime l dividing t.
    """
    c = _ptrim(list(coeffs))
    t = len(c) - 1
    if t < 1 or c[-1] != 1:
        return False
    if t == 1:
        return True
    if c[0] == 0:
        return False
    if t <= 3:
        for a in range(p):
            acc = 0
            for coef in reversed(c):
                acc = (acc * a + coef) % p
            if acc == 0:
                return False
        return True
    x = [0, 1]
    frob = list(x)
    images = {}
    for i in range(1, t + 1):
        frob = _ppowmod(frob, p, c, p)
        images[i] = frob
    if _psub(images[t], x, p):
        return False
    for ell in {f for f, _ in factorize(t)}:
        g = _pgcd(_psub(images[t // ell], x, p), c, p)
        if len(g) - 1 >= 1:
            return False
    return True


# ---------------------------------------------------------------------------
# base fields GF(p^t)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """GF(p^t) presented as GF(p)[x] modulo a monic irreducible polynomial.

    ``modulus`` has length t+1, constant term first, leading coefficient 1.
    """

    p: int
    t: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p ** self.t

    @property
    def char(self) -> int:
        return self.p

    @functools.cached_property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.t)

    @functools.cached_property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.t - 1))

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        c = [v % self.p for v in coeffs]
        if len(c) > self.t:
            c = _pmod(c, self.modulus, self.p) if _ptrim(list(c)) else []
        c = c + [0] * (self.t - len(c))
        return FieldElement(self, tuple(c[: self.t]))

    def scalar(self, value: int) -> "FieldElement":
        """Image of an integer under the canonical map Z -> GF(p^t)."""
        return self.element([value % self.p])

    def from_int(self, index: int) -> "FieldElement":
        coeffs = []
        for _ in range(self.t):
            coeffs.append(index % self.p)
            index //= self.p
        return FieldElement(self, tuple(coeffs))

    def index(self, x: "FieldElement") -> int:
        acc = 0
        for c in reversed(x.coeffs):
            acc = acc * self.p + c
        return acc

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.order):
            yield self.from_int(i)

    # coefficient-level arithmetic used by FieldElement

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        p, t = self.p, self.t
        if t == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * t - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        m = self.modulus
        for d in range(2 * t - 2, t - 1, -1):
            lead = prod[d] % p
            if lead:
                base = d - t
                for i in range(t):
                    prod[base + i] -= lead * m[i]
            prod[d] = 0
        return tuple(v % p for v in prod[:t])

    def _inv(self, a):
        if not any(a):
            raise ZeroElement("division by zero in GF(%d^%d)" % (self.p, self.t))
        # Fermat: a**(q-2); exact and branch-free for every t >= 1
        e = self.order - 2
        result = self.one.coeffs
        acc = a
        while e:
            if e & 1:
                result = self._mul(result, acc)
            acc = self._mul(acc, acc)
            e >>= 1
        return result


@dataclass(frozen=True, slots=True)
class FieldElement:
    field: FieldSpec
    coeffs: tuple[int, ...]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, self.field._add(self.coeffs, other.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, self.field._sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(
            self.field, self.field._mul(self.coeffs, self.field._inv(other.coeffs))
        )

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.coeffs))

    def __pow__(self, e: int) -> "FieldElement":
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        result = self.field.one
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self) -> str:
        return "GF(%d^%d)%r" % (self.field.p, self.field.t, list(self.coeffs))


def check_field_size(order: int, guards: GuardConfig | None = None) -> None:
    """Refuse a field with more than ``field_size_limit`` elements."""
    if order > current_guards(guards).field_size_limit:
        raise SizeGuardExceeded("field order %d exceeds the size guard"
                                % order)


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def make_field(p: int, t: int) -> FieldSpec:
    """Canonical GF(p^t): least monic irreducible modulus.

    Candidates x**t + sum c_i x**i are ordered by the integer encoding
    sum c_i p**i (the same order used for elements), so GF(16) gets
    x**4 + x + 1, not x**4 + x**3 + 1.  For t = 1 this yields the
    modulus x, i.e. the prime field itself.  The size guard is read
    when a field is first built; callers holding a ``GuardConfig``
    check every field they work in with ``check_field_size``.
    """
    if not is_prime(p):
        raise NotPrime("p = %d is not prime" % p)
    if t < 1:
        raise DegreeZero("extension degree must be >= 1")
    check_field_size(p ** t)
    if t == 1:
        return FieldSpec(p, 1, (0, 1))
    for j in range(1, p ** t):
        if j % p == 0:
            continue  # c0 = 0 has the root 0
        coeffs = [(j // p ** i) % p for i in range(t)]
        candidate = coeffs + [1]
        if poly_is_irreducible(candidate, p):
            return FieldSpec(p, t, tuple(candidate))
    raise SizeGuardExceeded("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# quadratic extension towers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TowerSpec:
    """GF(q^2) over a base field, elements (a, b) meaning a + b*y.

    ``ext_modulus`` is the monic quadratic (c0, c1, 1) with y**2 = -c1*y - c0.
    The base may itself be a tower, giving GF(q^4) and so on.
    """

    base: "Field"
    ext_modulus: tuple

    @property
    def order(self) -> int:
        return self.base.order ** 2

    @property
    def char(self) -> int:
        return self.base.char

    @functools.cached_property
    def zero(self) -> "ExtElement":
        z = self.base.zero
        return ExtElement(self, z, z)

    @functools.cached_property
    def one(self) -> "ExtElement":
        return ExtElement(self, self.base.one, self.base.zero)

    @functools.cached_property
    def y(self) -> "ExtElement":
        return ExtElement(self, self.base.zero, self.base.one)

    def embed(self, x) -> "ExtElement":
        return ExtElement(self, x, self.base.zero)

    def scalar(self, value: int) -> "ExtElement":
        return self.embed(self.base.scalar(value))

    def from_int(self, index: int) -> "ExtElement":
        q = self.base.order
        return ExtElement(self, self.base.from_int(index % q),
                          self.base.from_int(index // q))

    def index(self, x: "ExtElement") -> int:
        q = self.base.order
        return self.base.index(x.a) + q * self.base.index(x.b)

    def elements(self) -> Iterator["ExtElement"]:
        for i in range(self.order):
            yield self.from_int(i)


@dataclass(frozen=True, slots=True)
class ExtElement:
    tower: TowerSpec
    a: "Element"
    b: "Element"

    @property
    def field(self) -> TowerSpec:
        return self.tower

    def in_base(self) -> bool:
        return not self.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __add__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.tower, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.tower, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "ExtElement":
        return ExtElement(self.tower, -self.a, -self.b)

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        # (a + b y)(c + d y) with y**2 = -c1 y - c0
        a, b = self.a, self.b
        c, d = other.a, other.b
        c0, c1, _ = self.tower.ext_modulus
        bd = b * d
        return ExtElement(
            self.tower,
            a * c - bd * c0,
            a * d + b * c - bd * c1,
        )

    def inverse(self) -> "ExtElement":
        if not self:
            raise ZeroElement("division by zero in the extension")
        a, b = self.a, self.b
        c0, c1, _ = self.tower.ext_modulus
        # (a + b y) * ((a - b c1) - b y) = a**2 - a b c1 + b**2 c0
        norm = a * a - a * b * c1 + b * b * c0
        ninv = norm.inverse()
        return ExtElement(self.tower, (a - b * c1) * ninv, (-b) * ninv)

    def __truediv__(self, other: "ExtElement") -> "ExtElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "ExtElement":
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        result = self.tower.one
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self) -> str:
        return "Ext(%r + %r*y)" % (self.a, self.b)


Field = Union[FieldSpec, TowerSpec]
Element = Union[FieldElement, ExtElement]


def _quadratic_is_irreducible(field: Field, c0, c1) -> bool:
    """Whether y**2 + c1*y + c0 has no root in ``field``.

    For odd q that means the discriminant c1**2 - 4*c0 is not a square
    (a zero discriminant gives a double root); for even q the roots are
    scanned.
    """
    q = field.order
    if q % 2 == 1:
        disc = c1 * c1 - field.scalar(4) * c0
        return bool(disc) and disc ** ((q - 1) // 2) != field.one
    zero = field.zero
    return all(x * x + c1 * x + c0 != zero for x in field.elements())


@functools.lru_cache(maxsize=TOWER_CACHE_SIZE)
def quadratic_extension(field: Field) -> TowerSpec:
    """Deterministic GF(q^2) on top of ``field``.

    For odd q the modulus is y**2 - d with d the least non-square of the
    base; for even q it is the lexicographically least monic irreducible
    quadratic found by scanning coefficient pairs in canonical order.
    """
    q = field.order
    if q % 2 == 1:
        half = (q - 1) // 2
        for i in range(2, q):
            d = field.from_int(i)
            if d ** half != field.one:
                c0 = -d
                return TowerSpec(field, (c0, field.zero, field.one))
        raise ZeroElement("no non-square found")  # unreachable for odd q
    for i in range(q * q):
        c0 = field.from_int(i % q)
        c1 = field.from_int(i // q)
        if c0 and _quadratic_is_irreducible(field, c0, c1):
            return TowerSpec(field, (c0, c1, field.one))
    raise ZeroElement("no irreducible quadratic found")  # unreachable


def frobenius(tower: TowerSpec, x: ExtElement) -> ExtElement:
    """The conjugation x -> x**q of GF(q^2) over its base.

    x -> x**q fixes the base and the coefficients of y**2 + c1*y + c0,
    so it sends y to the other root of that irreducible quadratic, which
    is -c1 - y by Vieta.  Hence (a + b*y)**q = (a - b*c1) - b*y, in
    every characteristic.
    """
    c1 = tower.ext_modulus[1]
    return ExtElement(tower, x.a - x.b * c1 if c1 else x.a, -x.b)


# ---------------------------------------------------------------------------
# multiplicative structure
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def find_primitive_element(field: Field) -> Element:
    """Canonically least generator of the multiplicative group.

    The scan skips a prefix of indices that holds only subfield
    elements.  In a tower over a base of order Q, every index below Q
    has b = 0, so it is an embedded base element; its order divides
    Q - 1 < Q**2 - 1.  In GF(p^t) with t > 1, the indices below p are
    the constants of GF(p), whose orders divide p - 1 < p**t - 1.  No
    skipped element is primitive, so the first generator after the
    prefix is the least one overall.
    """
    q = field.order
    prime_factors = [f for f, _ in factorize(q - 1)]
    if isinstance(field, TowerSpec):
        start = field.base.order
    else:
        start = field.p if field.t > 1 else 1
    for i in range(start, q):
        g = field.from_int(i)
        if all(g ** ((q - 1) // ell) != field.one for ell in prime_factors):
            return g
    raise ZeroElement("no primitive element found")  # unreachable


def element_order(x: Element) -> int:
    """Multiplicative order of a nonzero element."""
    if not x:
        raise ZeroElement("the zero element has no multiplicative order")
    field = x.field
    m = field.order - 1
    for f, e in factorize(m):
        for _ in range(e):
            if x ** (m // f) == field.one:
                m //= f
            else:
                break
    return m


def nth_root_of_unity(field: Field, n: int) -> Element:
    """g**((q-1)/n) for the canonical primitive g; requires n | q-1."""
    q = field.order
    if n < 1 or (q - 1) % n != 0:
        raise OrderDoesNotDivide("n = %d does not divide %d" % (n, q - 1))
    g = find_primitive_element(field)
    return g ** ((q - 1) // n)


def sqrt_in_field(x: Element):
    """Canonically least square root, or None when x is not a square.

    Even characteristic uses x**(q/2) (squaring is an automorphism);
    q = 3 (mod 4) uses x**((q+1)/4); otherwise Tonelli-Shanks runs
    inside the field with a scanned non-residue.
    """
    field = x.field
    q = field.order
    if not x:
        return field.zero
    if q % 2 == 0:
        return x ** (q // 2)
    if x ** ((q - 1) // 2) != field.one:
        return None
    if q % 4 == 3:
        r = x ** ((q + 1) // 4)
    else:
        m = q - 1
        s = 0
        while m % 2 == 0:
            m //= 2
            s += 1
        z = None
        for i in range(2, q):
            cand = field.from_int(i)
            if cand ** ((q - 1) // 2) != field.one:
                z = cand
                break
        c = z ** m
        r = x ** ((m + 1) // 2)
        u = x ** m
        while u != field.one:
            d = u
            k = 0
            while d != field.one:
                d = d * d
                k += 1
            b = c ** (2 ** (s - k - 1))
            r = r * b
            c = b * b
            u = u * c
            s = k
        # r**2 == x here
    other = -r
    return r if field.index(r) <= field.index(other) else other


def solve_norm(tower: TowerSpec, u, guards: GuardConfig | None = None) -> ExtElement:
    """Least-exponent v in GF(q^2) with v**(q+1) == u, for nonzero base u.

    The relative norm maps the canonical primitive g onto a generator of
    the base group, so the least exponent is the discrete log of u with
    respect to that generator, found by a walk of at most q - 1 steps.
    A base field beyond the dlog guard is refused with
    ``DiscreteLogGuardExceeded``.
    """
    guards = current_guards(guards)
    if not u:
        raise ZeroElement("norm equation needs a nonzero right-hand side")
    q = tower.base.order
    if q > guards.dlog_limit:
        raise DiscreteLogGuardExceeded(
            "base field order %d exceeds the discrete-log guard %d"
            % (q, guards.dlog_limit))
    target = tower.embed(u)
    g = find_primitive_element(tower)
    gen = g ** (q + 1)  # generates the embedded base group
    w = tower.one
    for m in range(q - 1):
        if w == target:
            return g ** m
        w = w * gen
    raise ZeroElement("norm walk failed")  # unreachable: the norm is onto


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def field_to_json(field: Field):
    if isinstance(field, FieldSpec):
        return {"p": field.p, "t": field.t, "modulus": list(field.modulus)}
    return {
        "base": field_to_json(field.base),
        "ext_modulus": [element_to_json(c) for c in field.ext_modulus],
    }


def field_from_json(obj) -> Field:
    if "p" in obj:
        field = make_field(int(obj["p"]), int(obj["t"]))
        modulus = tuple(int(v) for v in obj["modulus"])
        if modulus != field.modulus:
            if not poly_is_irreducible(modulus, field.p) or len(modulus) != field.t + 1:
                raise ZeroElement("modulus in input is not monic irreducible")
            field = FieldSpec(field.p, field.t, modulus)
    else:
        base = field_from_json(obj["base"])
        coeffs = tuple(element_from_json(base, c) for c in obj["ext_modulus"])
        field = TowerSpec(base, coeffs)
    check_field_size(field.order)
    # log tables and every verdict over a tower assume it is a field
    if isinstance(field, TowerSpec) and (
            len(coeffs) != 3 or coeffs[2] != base.one
            or not _quadratic_is_irreducible(base, coeffs[0], coeffs[1])):
        raise ZeroElement("ext_modulus in input is not monic irreducible")
    return field


def element_to_json(x: Element):
    if isinstance(x, FieldElement):
        return list(x.coeffs)
    return [element_to_json(x.a), element_to_json(x.b)]


def element_from_json(field: Field, obj) -> Element:
    if isinstance(field, FieldSpec):
        return field.element([int(v) for v in obj])
    a = element_from_json(field.base, obj[0])
    b = element_from_json(field.base, obj[1])
    return ExtElement(field, a, b)
