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

Each field owns the encoding of its element values: a GF(p^t) value is
its coefficient tuple, a tower value the pair of its base values.  Field
methods do the arithmetic on values; ``Element`` pairs a value with its
field for everything outside this module, which never reads a value's
layout.

Every Kronecker-packed product in the package runs on
``Field._layout(terms)``, the layout of ``_packing`` for exact sums of
up to ``terms`` products, built once per field and ``terms``.  A single
product of two values, ``Field._mul``, is one of them: it packs both on
``_layout(1)``, multiplies the two ints and reduces once, in GF(p),
GF(p^t) and towers alike, so the rules x**t -> residue and
y**2 -> -c1*y - c0 are written only in ``_packing``.

Powers square and multiply ints, not values.  GF(p) uses the built-in
``pow``.  GF(p^t) squares and multiplies the value packed on
``_layout(1)``, packed once and unpacked once.  A tower over a base of
order Q descends by the norm
N(x) = x**(Q + 1) = x * conj(x), which lies in the base: with
e = a*(Q + 1) + b, x**e = N(x)**a * x**b, so only x**b, b <= Q, is packed
in the tower, and N(x)**a recurses, GF(q^4) -> GF(q^2) -> GF(q).

Everything is immutable; fields and elements hash and compare by value,
so they are safe to share across threads and use as cache keys.
"""
from __future__ import annotations

import functools
import operator
import sys
from collections.abc import Iterator, Sequence

from .config import GuardConfig, current_guards
from .errors import (
    DegreeZero,
    DiscreteLogGuardExceeded,
    NotPrime,
    OrderDoesNotDivide,
    SizeGuardExceeded,
    ZeroElement,
    json_int,
)
from .frozen import Frozen
from .numtheory import factorize, is_prime

# Bounds of the module caches.  A long-lived process that visits many
# fields evicts the least recently used entry instead of growing; every
# benchmark workload and the test suite stay well inside them.
FIELD_CACHE_SIZE = 256   # make_field, find_primitive_element
TOWER_CACHE_SIZE = 128   # quadratic_extension

# make_field tries the roots a = 1, 2, ... up to this bound, all of GF(p)*
# for p <= 257; beyond it a block of p - 1 candidates still costs one
# evaluation per a, about one Rabin test in GF(p^2) at p = 10^4 (0.3 ms
# on a 2-vCPU VM)
ROOT_SCAN_LIMIT = 256


# ---------------------------------------------------------------------------
# fields and their elements
# ---------------------------------------------------------------------------

class Field:
    """What GF(p^t) and a quadratic tower share.

    A subclass fixes how its element values are encoded and does the
    rest of their arithmetic: ``_add``, ``_sub``, ``_neg``, ``_inv``,
    ``_from_int``, ``_index`` and the JSON codec ``_to_json`` and
    ``_from_json``.  It also sets ``_zero`` and ``_one`` to the values of
    0 and 1.  Products and powers are written here, once, on the packed
    layout of ``_packing``; ``Element`` pairs a value with its field, and
    everything below is written once on top of those methods.
    """

    @functools.cached_property
    def zero(self) -> "Element":
        return Element(self, self._zero)

    @functools.cached_property
    def one(self) -> "Element":
        return Element(self, self._one)

    def from_int(self, index: int) -> "Element":
        return Element(self, self._from_int(index))

    def index(self, x: "Element") -> int:
        return self._index(x.value)

    def scalar(self, value: int) -> "Element":
        """Image of an integer under the canonical map Z -> field."""
        # the indices below p are the prime subfield, in order
        return self.from_int(value % self.char)

    def elements(self) -> Iterator["Element"]:
        for i in range(self.order):
            yield self.from_int(i)

    @functools.cached_property
    def _layouts(self) -> dict:
        return {}

    def _layout(self, terms: int):
        """(pack, reduce, unpack) of ``_packing`` for an exact sum of up
        to ``terms`` products plus one canonical value, built once per
        field and ``terms``: ``reduce`` maps the packed sum to the packed
        canonical value of the field sum, 0 exactly when that sum is 0.

        The sum is exact.  Its products have their digits at fixed
        positions, so it adds digit by digit, each digit at most
        B = ``_product_bound(self, terms)`` plus p - 1 from the value.
        In GF(p^t), t > 1, ``reduce`` folds the t - 1 high digits into
        the t low ones by adding them times residue coordinates, which
        are not negative, so a folded digit is largest when every digit
        is at that bound; ``_packing`` computes that largest digit X.
        Its lane width holds X times the multiplier M of its lane
        division, so no digit carries into the next before all are
        taken mod p at once, and each quotient is exact up to X (see
        ``_packing``).  A tower reduces its
        three blocks at the same bound, then folds y**2 by adding a value
        with coordinates below p to one product of the level below, at
        most t*(p - 1)**2 * 2**(L - 1) + p - 1 <= B, so no digit inside
        ``reduce`` exceeds the bound either.
        """
        layout = self._layouts.get(terms)
        if layout is None:
            layout = self._layouts[terms] = _packing(
                self, _product_bound(self, terms) + self.char - 1)[:3]
        return layout

    def _mul(self, a, b):
        """a*b: one product of the two packed values, reduced once."""
        pack, reduce, unpack = self._layout(1)
        return unpack(reduce(pack(a) * pack(b)))

    def _pow(self, v, e: int):
        """v**e by square and multiply on the packed value, which is
        packed once and unpacked once; a negative e inverts first."""
        if e < 0:
            v, e = self._inv(v), -e
        if not e:
            return self._one
        pack, reduce, unpack = self._layout(1)
        x = r = pack(v)
        for bit in bin(e)[3:]:
            r = reduce(r * r)
            if bit == "1":
                r = reduce(r * x)
        return unpack(r)


class FieldSpec(Field, Frozen):
    """GF(p^t) presented as GF(p)[x] modulo a monic irreducible polynomial.

    ``modulus`` has length t+1, constant term first, leading coefficient 1.
    A value is the tuple of the t coefficients of x**i, constant term
    first.
    """

    _fields = ("p", "t", "modulus")

    def __init__(self, p: int, t: int, modulus: tuple[int, ...]):
        self._assign(p, t, modulus)
        object.__setattr__(self, "_zero", (0,) * t)
        object.__setattr__(self, "_one", (1,) + (0,) * (t - 1))
        object.__setattr__(self, "_hash", hash((p, t, modulus)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return self.p ** self.t

    @property
    def char(self) -> int:
        return self.p

    def _from_int(self, index: int) -> tuple:
        coeffs = []
        for _ in range(self.t):
            coeffs.append(index % self.p)
            index //= self.p
        return tuple(coeffs)

    def _index(self, v) -> int:
        acc = 0
        for c in reversed(v):
            acc = acc * self.p + c
        return acc

    def _reduce(self, coeffs: Sequence[int]) -> tuple:
        """The value of the integer polynomial ``coeffs`` in x; longer
        input is folded by Horner over blocks of t coefficients, in
        powers of x**t = -(c_0 + ... + c_(t-1) x**(t-1))."""
        p, t = self.p, self.t
        c = [v % p for v in coeffs]
        if len(c) <= t:
            return tuple(c + [0] * (t - len(c)))
        xt = tuple(-v % p for v in self.modulus[:t])
        c += [0] * (-len(c) % t)
        acc = tuple(c[-t:])
        for i in range(len(c) - 2 * t, -1, -t):
            acc = self._add(self._mul(acc, xt), tuple(c[i:i + t]))
        return acc

    def _to_json(self, v) -> list:
        return list(v)

    def _from_json(self, obj) -> tuple:
        # bool is a subclass of int, and a string iterates as digits
        if type(obj) is not list or any(type(v) is not int for v in obj):
            raise ValueError("an element of GF(p^t) must be an array of "
                             "integers, got %r" % (obj,))
        return self._reduce(obj)

    def _add(self, a, b):
        p = self.p
        if self.t == 1:
            return ((a[0] + b[0]) % p,)
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        if self.t == 1:
            return ((a[0] - b[0]) % p,)
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        if self.t == 1:
            return (-a[0] % p,)
        return tuple((-x) % p for x in a)

    def _inv(self, a):
        if not any(a):
            raise ZeroElement("division by zero in GF(%d^%d)" % (self.p, self.t))
        # Fermat: a**(q-2); exact and branch-free for every t >= 1
        return self._pow(a, self.order - 2)

    def _pow(self, v, e: int):
        # GF(p): the built-in pow; 0 to a negative power is left to
        # ``_inv``, which raises
        if self.t == 1 and (e >= 0 or v[0]):
            return (pow(v[0], e, self.p),)
        return Field._pow(self, v, e)


class TowerSpec(Field, Frozen):
    """GF(q^2) over a base field, elements a + b*y.

    ``ext_modulus`` is the monic quadratic (c0, c1, 1), as base
    elements, with y**2 = -c1*y - c0.  A value is the pair (a, b) of base
    values.  The base may itself be a tower, giving GF(q^4) and so on.
    """

    _fields = ("base", "ext_modulus")

    def __init__(self, base: Field, ext_modulus: tuple):
        self._assign(base, ext_modulus)
        c1 = ext_modulus[1]
        object.__setattr__(self, "_zero", (base._zero, base._zero))
        object.__setattr__(self, "_one", (base._one, base._zero))
        # None when c1 = 0, as in every canonical tower of odd q: the c1
        # term of the conjugate drops out
        object.__setattr__(self, "_c1", c1.value if c1 else None)
        object.__setattr__(self, "_hash", hash((base, ext_modulus)))

    def __hash__(self) -> int:
        # a tower's hash walks its base and modulus elements, so it is
        # computed once; every cache keyed by a field looks it up
        return self._hash

    @property
    def order(self) -> int:
        return self.base.order ** 2

    @property
    def char(self) -> int:
        return self.base.char

    @functools.cached_property
    def y(self) -> "Element":
        return Element(self, (self.base._zero, self.base._one))

    def embed(self, x: "Element") -> "Element":
        return Element(self, (x.value, self.base._zero))

    def parts(self, x: "Element") -> tuple:
        """(a, b) with x = a + b*y, as elements of the base."""
        a, b = x.value
        return Element(self.base, a), Element(self.base, b)

    def _from_int(self, index: int) -> tuple:
        base = self.base
        q = base.order
        return base._from_int(index % q), base._from_int(index // q)

    def _index(self, v) -> int:
        base = self.base
        return base._index(v[0]) + base.order * base._index(v[1])

    def _to_json(self, v) -> list:
        return [self.base._to_json(v[0]), self.base._to_json(v[1])]

    def _from_json(self, obj) -> tuple:
        if type(obj) is not list or len(obj) != 2:
            raise ValueError("a tower element must be an array of two base "
                             "elements, got %r" % (obj,))
        return self.base._from_json(obj[0]), self.base._from_json(obj[1])

    def _add(self, x, y):
        add = self.base._add
        return add(x[0], y[0]), add(x[1], y[1])

    def _sub(self, x, y):
        sub = self.base._sub
        return sub(x[0], y[0]), sub(x[1], y[1])

    def _neg(self, x):
        neg = self.base._neg
        return neg(x[0]), neg(x[1])

    def _conj(self, x):
        """x**q on values (see ``frobenius``)."""
        base = self.base
        a, b = x
        if self._c1 is not None:
            a = base._sub(a, base._mul(b, self._c1))
        return a, base._neg(b)

    def _norm(self, x):
        """x * conj(x) = x**(Q + 1), a base value: the base block of
        that product."""
        return self._mul(x, self._conj(x))[0]

    def _inv(self, x):
        if x == self._zero:
            raise ZeroElement("division by zero in the extension")
        mul = self.base._mul
        ca, cb = self._conj(x)
        ninv = self.base._inv(self._norm(x))
        return mul(ca, ninv), mul(cb, ninv)

    def _pow(self, x, e: int):
        """x**e by norm descent: with e = a*(Q + 1) + b, x**e is
        N(x)**a * x**b, so only b <= Q is done in the tower and the
        power of the norm N(x) = x**(Q + 1) recurses into the base.  A
        negative e inverts first; x = 0 gives N(x) = 0, so 0**e is 0 for
        e > 0 and 1 for e = 0."""
        if e < 0:
            x, e = self._inv(x), -e
        base = self.base
        a, b = divmod(e, base.order + 1)
        low = Field._pow(self, x, b)
        if not a:
            return low
        n = base._pow(self._norm(x), a)
        return base._mul(n, low[0]), base._mul(n, low[1])


_set = object.__setattr__  # bound once: Element() is the hot constructor


class Element(Frozen):
    """An element of ``field``, held as its value in the field's encoding.

    The operators delegate to the field's arithmetic on values.  Elements
    hash and compare by (field, value).
    """

    __slots__ = _fields = ("field", "value")

    def __init__(self, field: Field, value: tuple):
        _set(self, "field", field)
        _set(self, "value", value)

    # written out, not the generic Frozen ones: elements compare and hash
    # in inner loops
    def __eq__(self, other):
        if other.__class__ is Element:
            return (self.field, self.value) == (other.field, other.value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __bool__(self) -> bool:
        return self.value != self.field._zero

    def __add__(self, other: "Element") -> "Element":
        return Element(self.field, self.field._add(self.value, other.value))

    def __sub__(self, other: "Element") -> "Element":
        return Element(self.field, self.field._sub(self.value, other.value))

    def __neg__(self) -> "Element":
        return Element(self.field, self.field._neg(self.value))

    def __mul__(self, other: "Element") -> "Element":
        return Element(self.field, self.field._mul(self.value, other.value))

    def __truediv__(self, other: "Element") -> "Element":
        field = self.field
        return Element(field, field._mul(self.value, field._inv(other.value)))

    def inverse(self) -> "Element":
        return Element(self.field, self.field._inv(self.value))

    def __pow__(self, e: int) -> "Element":
        return Element(self.field, self.field._pow(self.value, e))

    def __repr__(self) -> str:
        return "GF(%d)%r" % (self.field.order, self.value)


def check_field_size(order: int, guards: GuardConfig | None = None) -> None:
    """Refuse a field with more than ``field_size_limit`` elements."""
    if order > current_guards(guards).field_size_limit:
        raise SizeGuardExceeded("field order %d exceeds the size guard"
                                % order)


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) of c, monic of degree t >= 1 once its
    trailing zeros are dropped (Rabin, SIAM J. Comput. 1980).

    In the ring R = GF(p)[x]/(c) of ``FieldSpec``, c is irreducible iff
    x**(p**t) = x and, for each prime l | t, x**(p**(t/l)) - x is a unit
    (Rabin's gcd with c is 1).  The first condition makes c divide
    x**(p**t) - x, so R is a product of fields GF(p**d) with d | t.  As
    p**d - 1 divides p**t - 1, u is a unit (no component is 0) iff
    u**(p**t - 1) = 1.
    """
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    t = len(c) - 1
    if t < 1 or c[-1] != 1:
        return False
    ring = FieldSpec(p, t, tuple(c))
    x = ring._reduce([0, 1])
    return ring._pow(x, p ** t) == x and all(
        ring._pow(ring._sub(ring._pow(x, p ** (t // ell)), x), p ** t - 1)
        == ring._one for ell, _ in factorize(t))


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def make_field(p: int, t: int) -> FieldSpec:
    """Canonical GF(p^t): least monic irreducible modulus.

    Candidates x**t + sum c_i x**i are ordered by the integer encoding
    sum c_i p**i (the same order used for elements), so GF(16) gets
    x**4 + x + 1, not x**4 + x**3 + 1.  For t = 1 this yields the
    modulus x, i.e. the prime field itself.  A candidate with a root in
    GF(p) has a linear factor and is skipped before Rabin's test, which
    changes no modulus.  The size guard is read when a field is first
    built; callers holding a ``GuardConfig`` check every field they work
    in with ``check_field_size``.
    """
    if not is_prime(p):
        raise NotPrime("p = %d is not prime" % p)
    if t < 1:
        raise DegreeZero("extension degree must be >= 1")
    check_field_size(p ** t)
    if t == 1:
        return FieldSpec(p, 1, (0, 1))
    # a root means a linear factor: c0 = 0 has the root 0, and c has a
    # root a in GF(p)* exactly when -c0 = c1*a + ... + a**t, one value
    # per a for the p - 1 candidates that share c1..c(t-1)
    powers = [[pow(a, i, p) for i in range(1, t + 1)]
              for a in range(1, min(p, ROOT_SCAN_LIMIT + 1))]
    for high in range(p ** (t - 1)):
        upper = [(high // p ** i) % p for i in range(t - 1)] + [1]
        rooted = {-sum(map(operator.mul, upper, row)) % p for row in powers}
        for c0 in range(1, p):
            candidate = [c0] + upper
            if c0 not in rooted and poly_is_irreducible(candidate, p):
                return FieldSpec(p, t, tuple(candidate))
    raise SizeGuardExceeded("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# quadratic extension towers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _least_nonsquare(field: Field) -> Element:
    """The least-index non-square of a field of odd order, by Euler's
    criterion; indices 0 and 1 are 0 and 1."""
    q = field.order
    half = (q - 1) // 2
    for i in range(2, q):
        if field._pow(field._from_int(i), half) != field._one:
            return field.from_int(i)
    raise ZeroElement("no non-square found")  # unreachable for odd q


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
        return TowerSpec(field, (-_least_nonsquare(field), field.zero,
                                 field.one))
    for i in range(q * q):
        c0 = field.from_int(i % q)
        c1 = field.from_int(i // q)
        if c0 and _quadratic_is_irreducible(field, c0, c1):
            return TowerSpec(field, (c0, c1, field.one))
    raise ZeroElement("no irreducible quadratic found")  # unreachable


def frobenius(tower: TowerSpec, x: Element) -> Element:
    """The conjugation x -> x**q of GF(q^2) over its base.

    x -> x**q fixes the base and the coefficients of y**2 + c1*y + c0,
    so it sends y to the other root of that irreducible quadratic, which
    is -c1 - y by Vieta.  Hence (a + b*y)**q = (a - b*c1) - b*y, in
    every characteristic.
    """
    return Element(tower, tower._conj(x.value))


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
    exponents = [(q - 1) // ell for ell, _ in factorize(q - 1)]
    if isinstance(field, TowerSpec):
        start = field.base.order
    else:
        start = field.p if field.t > 1 else 1
    for i in range(start, q):
        g = field._from_int(i)
        if all(field._pow(g, e) != field._one for e in exponents):
            return Element(field, g)
    raise ZeroElement("no primitive element found")  # unreachable


def element_order(x: Element) -> int:
    """Multiplicative order of a nonzero element."""
    if not x:
        raise ZeroElement("the zero element has no multiplicative order")
    field = x.field
    m = field.order - 1
    for f, e in factorize(m):
        for _ in range(e):
            if field._pow(x.value, m // f) == field._one:
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
    inside the field with its least non-square.
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
        c = _least_nonsquare(field) ** m
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


def solve_norm(tower: TowerSpec, u, guards: GuardConfig | None = None) -> Element:
    """Least-exponent v in GF(q^2) with v**(q+1) == u, for nonzero base u.

    The relative norm maps the canonical primitive g onto a generator of
    the base group, so the least exponent is the discrete log of u with
    respect to that generator, found by a walk of at most q - 1 steps in
    the base field, one packed product per step.
    A base field beyond the dlog guard is refused with
    ``DiscreteLogGuardExceeded``.
    """
    guards = current_guards(guards)
    if not u:
        raise ZeroElement("norm equation needs a nonzero right-hand side")
    base = tower.base
    q = base.order
    if q > guards.dlog_limit:
        raise DiscreteLogGuardExceeded(
            "base field order %d exceeds the discrete-log guard %d"
            % (q, guards.dlog_limit))
    pack, reduce, _ = base._layout(1)
    g = find_primitive_element(tower)
    # g**(q + 1), a generator of the base group; the walk runs on packed
    # canonical values, which compare as ints
    gen = pack(tower._norm(g.value))
    want = pack(u.value)
    w = pack(base._one)
    for m in range(q - 1):
        if w == want:
            return g ** m
        w = reduce(w * gen)
    raise ZeroElement("norm walk failed")  # unreachable: the norm is onto


# ---------------------------------------------------------------------------
# Kronecker packing
# ---------------------------------------------------------------------------

def _lanes(s: int, count: int):
    """A map from an int below 2**(s*count) to its ``count`` digits of s
    bits, lowest first: a cast of its bytes for 16-, 32- and 64-bit
    lanes, shifts for any other s."""
    fmt = {16: "H", 32: "I", 64: "Q"}.get(s)
    if fmt is None:
        mask = (1 << s) - 1
        shifts = range(0, s * count, s)
        return lambda v: [v >> sh & mask for sh in shifts]
    size, order = s // 8 * count, sys.byteorder
    return lambda v: memoryview(v.to_bytes(size, order)).cast(fmt)


def _packing(field: Field, bound: int):
    """(pack, reduce, unpack, bits) of the Kronecker layout of ``field``
    for product digits up to ``bound``.

    ``pack`` maps a value to one int whose digits, s bits apart, are its
    GF(p) coordinates: in GF(p^t) digit i is the coefficient of x**i;
    ``unpack`` maps a packed canonical value back.  ``bits`` is the
    length of a product of two packed values: 2t - 1 digits in GF(p^t).
    A tower value (a, b) packs as pack(a) + pack(b) shifted up by the
    base product's bits, so the product of two packed tower values holds
    ac, ad + bc and bd, the coefficients of 1, y and y**2, in three
    blocks of that length side by side.

    ``reduce`` maps a product, a sum of products, or in GF(p^t) any
    packed int of 2t - 1 digits, with every digit at most ``bound``, to
    the packed canonical value in a few big-int operations.  In GF(p) a
    digit is just taken mod p.  In GF(p^t), t > 1, let x**t = r(x) mod
    the modulus, r of degree d, and m = t - d.  The t - 1 high digits
    fold in blocks of m: block b, the digits of x**(t + b*m + i), i < m,
    read as a polynomial H_b in x, is replaced by H_b times the packed
    residue R_b of x**(t + b*m).  R_0 = r, so block 0 lands below x**t;
    a later block lands below x**(t + m - 1), and the at most m - 1
    digits it spills above x**t fold once more by r, below x**(t - 1).
    The canonical moduli of the
    table fields need one block (d <= 1), or two for GF(3^16), GF(2^12),
    GF(5^9) and GF(3^11) (d = 3, 3, 2, 2); a dense modulus, d = t - 1,
    folds its high digits one by one.  The folds only add digits times
    residue coordinates, which are not negative, so every lane, the
    spilled ones included, is largest when every digit is at ``bound``:
    X, the largest lane of the folds on that input, computed once here,
    bounds every folded digit x.

    Then every digit is taken mod p at once, as v - p*(v*M >> k & mask).
    With 2**k >= X*p and M = ceil(2**k / p) = (2**k + f)/p, 0 <= f < p,
    x*M / 2**k = x/p + x*f/(p*2**k); the second term is below
    x/2**k <= 1/p, and x/p is at most 1 - 1/p past its floor, so
    x*M >> k = floor(x/p).  The lane width s holds X*M, so the digits of
    v*M do not overlap; after the shift by k, each lane's quotient,
    below 2**(s - k), sits in its low s - k bits under the k bits the
    lane above leaves there, which the mask clears, and v - p*q takes
    each digit mod p with no borrow.  s is the least of 16, 32 and 64
    bits that holds X*M, read by a cast of the bytes, or else that bit
    length, read by shifts.  A tower reduces its three blocks, then
    y**2 -> -c1*y - c0; those constants are packed canonical values, so
    no digit inside ``reduce`` exceeds ``bound`` (see ``Field._layout``).
    """
    if isinstance(field, TowerSpec):
        base_pack, base_reduce, base_unpack, bits = _packing(field.base, bound)
        block = (1 << bits) - 1
        c0, c1, _ = field.ext_modulus
        neg_c0, neg_c1 = base_pack((-c0).value), base_pack((-c1).value)

        def pack(v):
            return base_pack(v[0]) + (base_pack(v[1]) << bits)

        def reduce(v):
            u0 = base_reduce(v & block)
            u1 = base_reduce(v >> bits & block)
            u2 = base_reduce(v >> 2 * bits)
            if neg_c1:  # 0 in every canonical tower of odd q
                u1 = base_reduce(u1 + neg_c1 * u2)
            return base_reduce(u0 + neg_c0 * u2) + (u1 << bits)

        def unpack(v):
            return base_unpack(v & block), base_unpack(v >> bits)

        return pack, reduce, unpack, 3 * bits
    p, t = field.p, field.t
    if t == 1:  # no polynomial to reduce: one digit, one coefficient
        return (operator.itemgetter(0), p.__rmod__, (lambda v: (v,)),
                bound.bit_length())
    # x**t = r(x) = -(c_0 + ... + c_(t-1) x**(t-1)), of degree d; each
    # further x shifts the coefficients up one and folds the one that
    # leaves by that rule; coords[b] is x**(t + b*m)
    xt = [-c % p for c in field.modulus[:t]]
    d = max((i for i, c in enumerate(xt) if c), default=0)
    m = t - d
    blocks = -(-(t - 1) // m)
    coords, r = [], xt
    for j in range((blocks - 1) * m + 1):
        if j % m == 0:
            coords.append(r)
        r = [(lo + r[-1] * c) % p for lo, c in zip([0] + r[:-1], xt)]
    # the folds on every digit at the bound, spill lanes included
    lanes = [bound] * t + [0] * (m - 1)
    for j in range(t - 1):
        b, i = divmod(j, m)
        for h, c in enumerate(coords[b], i):
            lanes[h] += bound * c
    if blocks > 1:
        for j in range(t, t + m - 1):
            for h, c in enumerate(xt, j - t):
                lanes[h] += lanes[j] * c
    most = max(lanes)
    k = (most * p - 1).bit_length()
    M = -(-(1 << k) // p)
    need = (most * M).bit_length()
    s = next((w for w in (16, 32, 64) if need <= w), need)
    shifts = [s * i for i in range(t)]

    def pack(v):
        return sum(map(operator.lshift, v, shifts))

    residues = list(map(pack, coords))
    low, top = (1 << s * t) - 1, s * t
    block, width = (1 << s * m) - 1, s * m
    quotients = pack([(1 << s - k) - 1] * t)
    r0 = residues[0]

    if blocks == 1:
        def reduce(v):
            v = (v & low) + (v >> top) * r0
            return v - p * (v * M >> k & quotients)
    elif blocks == 2:
        r1 = residues[1]

        def reduce(v):
            h = v >> top
            v = (v & low) + (h & block) * r0 + (h >> width) * r1
            v = (v & low) + (v >> top) * r0
            return v - p * (v * M >> k & quotients)
    else:
        high_blocks = _lanes(width, blocks)

        def reduce(v):
            v = (v & low) + sum(map(operator.mul, high_blocks(v >> top),
                                    residues))
            v = (v & low) + (v >> top) * r0
            return v - p * (v * M >> k & quotients)

    digits = _lanes(s, t)

    def unpack(v):
        return tuple(digits(v))

    return pack, reduce, unpack, s * (2 * t - 1)


def _product_bound(field: Field, terms: int) -> int:
    """The largest digit of a sum of ``terms`` packed products.

    In GF(p^t) a digit of a packed product is a sum of at most t
    products of coordinates, each at most (p - 1)**2; a tower level
    adds two such products in its middle block (ad + bc), so with L
    levels above GF(p^t) a product digit is at most
    t*(p - 1)**2 * 2**L.  A product has its digits at fixed positions,
    so a sum of ``terms`` of them adds digit by digit.
    """
    base, levels = field, 0
    while isinstance(base, TowerSpec):
        base, levels = base.base, levels + 1
    return terms * base.t * (base.p - 1) ** 2 << levels


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
        field = make_field(json_int(obj["p"]), json_int(obj["t"]))
        modulus = tuple(map(json_int, obj["modulus"]))
        if modulus != field.modulus:
            # the shape first: the ring test costs about len(modulus)**3
            if (len(modulus) != field.t + 1 or modulus[-1] != 1
                    or not all(0 <= v < field.p for v in modulus)
                    or not poly_is_irreducible(modulus, field.p)):
                raise ZeroElement("modulus in input is not monic irreducible")
            field = FieldSpec(field.p, field.t, modulus)
        check_field_size(field.order)
        return field
    base = field_from_json(obj["base"])
    coeffs = tuple(element_from_json(base, c) for c in obj["ext_modulus"])
    check_field_size(base.order ** 2)
    # log tables and every verdict over a tower assume it is a field
    if (len(coeffs) != 3 or coeffs[2] != base.one
            or not _quadratic_is_irreducible(base, coeffs[0], coeffs[1])):
        raise ZeroElement("ext_modulus in input is not monic irreducible")
    return TowerSpec(base, coeffs)


def element_to_json(x: Element):
    return x.field._to_json(x.value)


def element_from_json(field: Field, obj) -> Element:
    return Element(field, field._from_json(obj))
