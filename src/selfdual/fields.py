"""Exact arithmetic in GF(p^t) and in quadratic extension towers.

Elements of GF(p^t) are residue classes of GF(p)[x] modulo a monic
irreducible polynomial of degree t.  Coefficient vectors are stored
constant term first, so ``(1, 0, 1)`` is ``1 + x**2``.  The canonical
modulus for a given (p, t) is the lexicographically least monic
irreducible polynomial under constant-term-first comparison; elements are
ordered by the integer encoding ``sum(c[i] * p**i)`` and "least" always
refers to that encoding.

GF(q^2) is represented on top of any field object as a + b*y, where y
is a root of a fixed monic irreducible quadratic over the base.  Towers
nest, which gives GF(q^4) when needed.

Every field encodes a value the same way: as the tuple of its
D = log_p(q) coordinates over GF(p), in the digit order of the
canonical index ``sum(c[i] * p**i)``.  In GF(p^t) they are the
coefficients of x**i; in a tower they are a's coordinates, then b's, so
the tower's index base.index(a) + Q*base.index(b) reads the same
digits.  Field methods do the arithmetic on values; ``Element`` pairs a
value with its field for everything outside this module.  A JSON
element is the same coordinates, nested as two halves per tower level,
so ``values_from_json`` reads canonical rows as their values.

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
import itertools
import operator
import sys
from collections.abc import Callable, Iterator, Sequence

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
from .numtheory import check_factor_size, is_prime, trial_factorize

# Bounds of the module caches.  A long-lived process that visits many
# fields evicts the least recently used entry instead of growing; every
# benchmark workload and the test suite stay well inside them.
FIELD_CACHE_SIZE = 256   # make_field, find_primitive_element and helpers
TOWER_CACHE_SIZE = 128   # quadratic_extension

# make_field tries the roots a = 1, 2, ... up to this bound, all of GF(p)*
# for p <= 257; beyond it a block of p - 1 candidates still costs one
# evaluation per a, about one Rabin test in GF(p^2) at p = 10^4 (0.3 ms
# on a 2-vCPU VM)
ROOT_SCAN_LIMIT = 256


# ---------------------------------------------------------------------------
# fields and their elements
# ---------------------------------------------------------------------------

_set = object.__setattr__  # bound once: Element() is the hot constructor


class Field:
    """What GF(p^t) and a quadratic tower share.

    ``char`` = p, ``degree`` = D and ``order`` = p**D are set once, in
    ``__init__``, with the hash of ``key``, the subclass's fields.  A
    value is the tuple of the D coordinates over GF(p) described in the
    module docstring, the same for every field, so the index, its
    inverse ``_from_int`` and ``_add``, ``_sub`` and ``_neg`` are written
    here, once, and so are products and powers, on the packed layout of
    ``_packing``.  A subclass adds ``_inv`` and the JSON codec
    ``_to_json`` and ``_from_json``; ``Element`` pairs a value with its
    field, and everything below is written once on top of these methods.
    """

    def __init__(self, char: int, degree: int, key: tuple):
        _set(self, "char", char)
        _set(self, "degree", degree)
        _set(self, "order", char ** degree)
        _set(self, "_zero", (0,) * degree)
        _set(self, "_one", (1,) + (0,) * (degree - 1))
        _set(self, "_hash", hash(key))

    def __hash__(self) -> int:
        # a tower's key walks its base and modulus elements, so the hash
        # is computed once; every cache keyed by a field looks it up
        return self._hash

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

    def _from_int(self, index: int) -> tuple:
        p, coords = self.char, []
        for _ in range(self.degree):
            index, c = divmod(index, p)
            coords.append(c)
        return tuple(coords)

    def _index(self, v) -> int:
        acc, p = 0, self.char
        for c in reversed(v):
            acc = acc * p + c
        return acc

    def _add(self, a, b):
        p = self.char
        if self.degree == 1:
            return ((a[0] + b[0]) % p,)
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def _sub(self, a, b):
        p = self.char
        if self.degree == 1:
            return ((a[0] - b[0]) % p,)
        return tuple([(x - y) % p for x, y in zip(a, b)])

    def _neg(self, a):
        p = self.char
        if self.degree == 1:
            return (-a[0] % p,)
        return tuple([-x % p for x in a])

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
        Field.__init__(self, p, t, (p, t, modulus))
        # the array lengths of a canonical JSON element, outermost first
        _set(self, "_json_widths", (t,))

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
    elements, with y**2 = -c1*y - c0.  A value is a's coordinates
    followed by b's, so a and b are its two halves.  The base may itself
    be a tower, giving GF(q^4) and so on.
    """

    _fields = ("base", "ext_modulus")

    def __init__(self, base: Field, ext_modulus: tuple):
        self._assign(base, ext_modulus)
        Field.__init__(self, base.char, 2 * base.degree, (base, ext_modulus))
        _set(self, "_json_widths", (2, *base._json_widths))
        c1 = ext_modulus[1]
        # None when c1 = 0, as in every canonical tower of odd q: the c1
        # term of the conjugate drops out
        _set(self, "_c1", c1.value if c1 else None)

    @functools.cached_property
    def y(self) -> "Element":
        return Element(self, self.base._zero + self.base._one)

    def embed(self, x: "Element") -> "Element":
        return Element(self, x.value + self.base._zero)

    def parts(self, x: "Element") -> tuple:
        """(a, b) with x = a + b*y, as elements of the base."""
        half = self.base.degree
        return (Element(self.base, x.value[:half]),
                Element(self.base, x.value[half:]))

    def _to_json(self, v) -> list:
        half = self.base.degree
        return [self.base._to_json(v[:half]), self.base._to_json(v[half:])]

    def _from_json(self, obj) -> tuple:
        if type(obj) is not list or len(obj) != 2:
            raise ValueError("a tower element must be an array of two base "
                             "elements, got %r" % (obj,))
        return self.base._from_json(obj[0]) + self.base._from_json(obj[1])

    def _scale(self, v, s):
        """s*v for a base value s, on the two halves of v: one scalar
        multiply per coordinate over GF(p), else two base products."""
        base = self.base
        if base.degree == 1:
            p, s = self.char, s[0]
            return tuple([c * s % p for c in v])
        half = base.degree
        return base._mul(v[:half], s) + base._mul(v[half:], s)

    def _conj(self, x):
        """x**q on values (see ``frobenius``)."""
        base = self.base
        half = base.degree
        b = x[half:]
        if self._c1 is None:
            return x[:half] + base._neg(b)
        return base._sub(x[:half], base._mul(b, self._c1)) + base._neg(b)

    def _norm(self, x):
        """x * conj(x) = x**(Q + 1), a base value: the base half of
        that product."""
        return self._mul(x, self._conj(x))[:self.base.degree]

    def _inv(self, x):
        """conj(x) / N(x), with the conjugate taken once."""
        if not any(x):
            raise ZeroElement("division by zero in the extension")
        conj = self._conj(x)
        norm = self._mul(x, conj)[:self.base.degree]
        return self._scale(conj, self.base._inv(norm))

    def _pow(self, x, e: int):
        """x**e by norm descent: with e = a*(Q + 1) + b, x**e is
        N(x)**a * x**b, so only b <= Q is done in the tower and the
        power of the norm N(x) = x**(Q + 1) recurses into the base.  A
        negative e inverts first; x = 0 gives N(x) = 0, so 0**e is 0 for
        e > 0 and 1 for e = 0."""
        if e < 0:
            x, e = self._inv(x), -e
        a, b = divmod(e, self.base.order + 1)
        low = Field._pow(self, x, b)
        if not a:
            return low
        return self._scale(low, self.base._pow(self._norm(x), a))


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
    """The admission check of a field of ``order`` elements: refuse more
    than ``field_size_limit`` elements, or an order - 1 that
    ``check_factor_size`` refuses.  The cached searches of an admitted
    field, and of its subfields, factor their q - 1 with no guard."""
    guards = current_guards(guards)
    if order > guards.field_size_limit:
        raise SizeGuardExceeded("field order %d exceeds the size guard"
                                % order)
    check_factor_size(order - 1, guards)


def poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p) of c, monic of degree t >= 1 once its
    trailing zeros are dropped (Rabin, SIAM J. Comput. 1980).

    In the ring R = GF(p)[x]/(c) of ``FieldSpec``, c is irreducible iff
    x**(p**t) = x and, for each prime l | t, x**(p**(t/l)) - x is a unit
    (Rabin's gcd with c is 1).  The first condition makes c divide
    x**(p**t) - x, which is squarefree, so R is a product of fields
    GF(p**d), one per irreducible factor of c, with d | t; in each, x is
    a root of that factor.  Then the units need no power: the product
    u of x**(p**(t/l)) - x over the primes l | t is 0 exactly when c
    is reducible.  If c is irreducible, R is one field in which x has
    degree t, so no x**(p**(t/l)) - x is 0, nor is their product.  If
    not, every factor has a degree d < t dividing t, so d | t/l for
    some prime l, and x**(p**(t/l)) = x in that component; every
    component of u is 0, and u = 0.
    """
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    t = len(c) - 1
    if t < 1 or c[-1] != 1:
        return False
    ring = FieldSpec(p, t, tuple(c))
    x = ring._reduce([0, 1])
    if ring._pow(x, p ** t) != x:
        return False
    u = ring._one
    for ell, _ in trial_factorize(t):
        u = ring._mul(u, ring._sub(ring._pow(x, p ** (t // ell)), x))
    return any(u)


def admit_field(p: int, t: int, guards: GuardConfig | None = None) -> int:
    """The order q = p**t of GF(p^t), once the field is admitted under
    ``guards``; no field is built.

    The size guard is read on p and t before any arithmetic on them:
    p**t >= 2**t, so a p or a t beyond the bounds below gives an order
    beyond the guard.  Then p must be prime, t at least 1, and the
    field pass ``check_field_size``.
    """
    guards = current_guards(guards)
    limit = guards.field_size_limit
    if p > limit or t > limit.bit_length():
        # neither p nor t goes into the message: either may be huge
        raise SizeGuardExceeded("p**t exceeds the field size guard %d" % limit)
    if not is_prime(p):
        raise NotPrime("p = %d is not prime" % p)
    if t < 1:
        raise DegreeZero("extension degree must be >= 1")
    q = p ** t
    check_field_size(q, guards)
    return q


def make_field(p: int, t: int, *,
               guards: GuardConfig | None = None) -> FieldSpec:
    """Canonical GF(p^t), the one object per (p, t) of
    ``_canonical_field``, once ``admit_field`` admits it under
    ``guards``."""
    admit_field(p, t, guards)
    return _canonical_field(p, t)


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _canonical_field(p: int, t: int) -> FieldSpec:
    """GF(p^t) on its least monic irreducible modulus.

    Candidates x**t + sum c_i x**i are ordered by the integer encoding
    sum c_i p**i (the same order used for elements), so GF(16) gets
    x**4 + x + 1, not x**4 + x**3 + 1.  For t = 1 this yields the
    modulus x, i.e. the prime field itself.  A candidate with a root in
    GF(p) has a linear factor and is skipped before Rabin's test, which
    changes no modulus.  It reads no guard: ``make_field`` admits p and
    t first.
    """
    if t == 1:
        return _prime_field(p)
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


# the benchmark reads the cache through the front
make_field.cache_info = _canonical_field.cache_info


# ---------------------------------------------------------------------------
# quadratic extension towers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _least_nonsquare(field: Field) -> Element:
    """The least-index non-square of a field of odd order q, by Euler's
    criterion v**((q - 1)/2) != 1, decided on the norm (``_passes``).

    The scan starts past a prefix of squares.  Indices 0 and 1 are 0
    and 1.  The indices below Q are the subfield GF(Q) when it has even
    degree D under the field: a tower's base (D = 2), or GF(p) under
    GF(p^t) with t even.  Each x of GF(Q)* is then a square, as
    x**((q - 1)/2) = (x**(Q - 1))**((q - 1)/(2(Q - 1))), where
    (q - 1)/(Q - 1) = 1 + Q + ... + Q**(D - 1), a sum of D odd terms,
    is even.
    """
    if isinstance(field, TowerSpec):
        start = field.base.order
    else:
        start = field.char if field.degree % 2 == 0 else 2
    return _least_passing(field, (2,), start)


def _is_nonsquare(field: Field, v) -> bool:
    """Euler's criterion v**((q - 1)/2) != 1 for odd q, on the norm."""
    return _passes(_order_plan(field, (2,)), v)


def _trace(field: Field, v) -> int:
    """The absolute trace v + v**2 + ... + v**(2**(D - 1)) of a value of
    GF(2**D), an element of GF(2): its first coordinate."""
    acc = square = v
    for _ in range(field.degree - 1):
        square = field._mul(square, square)
        acc = field._add(acc, square)
    return acc[0]


def _quadratic_is_irreducible(field: Field, c0, c1) -> bool:
    """Whether y**2 + c1*y + c0 has no root in ``field``.

    For odd q that means the discriminant c1**2 - 4*c0 is not a square
    (a zero discriminant gives a double root).  For even q, c1 = 0
    gives (y + sqrt(c0))**2, as squaring is onto; otherwise y = c1*z
    turns it into c1**2 (z**2 + z + c0/c1**2), and z**2 + z + a has a
    root in GF(2**D) exactly when the trace of a is 0 (Artin-Schreier:
    z -> z**2 + z is additive with kernel GF(2), so its image has half
    the field; the trace is 0 on it, as Tr(z**2) = Tr(z), and is onto
    GF(2), so its kernel, also half the field, is that image).
    """
    if field.order % 2 == 1:
        disc = c1 * c1 - field.scalar(4) * c0
        return bool(disc) and _is_nonsquare(field, disc.value)
    return bool(c1) and _trace(field, (c0 / (c1 * c1)).value) == 1


@functools.lru_cache(maxsize=TOWER_CACHE_SIZE)
def quadratic_extension(field: Field) -> TowerSpec:
    """Deterministic GF(q^2) on top of ``field``.

    For odd q the modulus is y**2 - d with d the least non-square of the
    base.  For even q it is the lexicographically least monic irreducible
    quadratic y**2 + c1*y + c0, in the order of c0 + q*c1: no c1 = 0 is
    irreducible (see ``_quadratic_is_irreducible``), so c1 = 1 and c0 is
    the least element of trace 1.  The trace is additive and the
    coordinates of index i are its bits, so the trace of index i is the
    sum of the traces of the basis elements 2**j at its set bits; the
    least index of trace 1 is 2**j for the least j whose basis element
    has trace 1, which exists as the trace is onto.
    """
    if field.order % 2 == 1:
        return TowerSpec(field, (-_least_nonsquare(field), field.zero,
                                 field.one))
    for j in range(field.degree):
        c0 = field._from_int(1 << j)
        if _trace(field, c0):
            return TowerSpec(field, (Element(field, c0), field.one,
                                     field.one))
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
    prefix is the least one overall.  Each candidate g passes when
    g**((q - 1)/l) != 1 for every prime l | q - 1, decided on its norms
    (``_passes``).
    """
    if isinstance(field, TowerSpec):
        start = field.base.order
    else:
        start = field.p if field.t > 1 else 1
    primes = tuple(ell for ell, _ in trial_factorize(field.order - 1))
    return _least_passing(field, primes, start)


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _prime_field(p: int) -> FieldSpec:
    return FieldSpec(p, 1, (0, 1))


def _subfield(field: Field) -> Field | None:
    """The subfield the norm ``_norm_into`` maps onto: a tower's base,
    GF(p) under GF(p^t) with t > 1, None under GF(p)."""
    if isinstance(field, TowerSpec):
        return field.base
    return _prime_field(field.char) if field.degree > 1 else None


def _norm_into(field: Field, v) -> tuple:
    """N(v) = v**((q - 1)/(Q - 1)), the value of the norm of v in
    ``_subfield(field)``, of order Q.

    In a tower, q = Q**2 and N(v) = v*conj(v).  In GF(p^t) with modulus
    c, N(v) is the product of the t conjugates v**(p**i).  For
    v = a + b*x they are a + b*x_i over the t roots x_i of c, as
    Frobenius fixes a and b, so
    N(v) = prod(a + b*x_i) = (-b)**t * prod(r - x_i) = (-b)**t * c(r)
    with r = -a/b, and N(a) = a**t.  Any other v is raised to the power.
    """
    if isinstance(field, TowerSpec):
        return field._norm(v)
    p, t = field.char, field.degree
    if any(v[2:]):
        return field._pow(v, (field.order - 1) // (p - 1))[:1]
    a, b = v[0], v[1]
    if not b:
        return (pow(a, t, p),)
    r, acc = -a * pow(b, -1, p) % p, 0
    for c in reversed(field.modulus):
        acc = (acc * r + c) % p
    return (pow(-b, t, p) * acc % p,)


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _order_plan(field: Field, primes: tuple) -> tuple:
    """The (field, exponents) levels on which ``_passes`` decides the
    primes l | q - 1 in ``primes``, top field first: each l goes to the
    last field of the chain field, _subfield(field), ... whose order
    less one it divides, with the exponent (order - 1)/l there."""
    levels, f = [], field
    while primes:
        sub = _subfield(f)
        low = tuple(ell for ell in primes
                    if sub is not None and (sub.order - 1) % ell == 0)
        levels.append((f, [(f.order - 1) // ell
                           for ell in primes if ell not in low]))
        f, primes = sub, low
    return tuple(levels)


def _passes(levels, v) -> bool:
    """Whether v**((q - 1)/l) != 1 in its field, of order q, for every
    prime l of the plan ``levels`` of ``_order_plan``.

    For l | Q - 1, Q the order of the subfield below,
    (q - 1)/l = (q - 1)/(Q - 1) * (Q - 1)/l, so
    v**((q - 1)/l) = N(v)**((Q - 1)/l) for the norm
    N(v) = v**((q - 1)/(Q - 1)) into GF(Q): the same equation, raised
    in GF(Q), and so on down the chain.  The norms are taken top down,
    then the tests run in the smallest field first.
    """
    values = [v]
    for f, _ in levels[:-1]:
        values.append(_norm_into(f, values[-1]))
    for (f, exponents), w in zip(reversed(levels), reversed(values)):
        for e in exponents:
            if f._pow(w, e) == f._one:
                return False
    return True


def _least_passing(field: Field, primes: tuple, start: int) -> Element:
    """The least element of index >= ``start`` that ``_passes`` the
    primes ``primes`` of q - 1."""
    levels = _order_plan(field, primes)
    for i in range(start, field.order):
        v = field._from_int(i)
        if _passes(levels, v):
            return Element(field, v)
    raise ZeroElement("no such element found")  # unreachable


def element_order(x: Element) -> int:
    """Multiplicative order of a nonzero element."""
    if not x:
        raise ZeroElement("the zero element has no multiplicative order")
    field = x.field
    m = field.order - 1
    for f, e in trial_factorize(m):
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

    Even characteristic uses x**(q/2) (squaring is an automorphism).
    For odd q, an x of GF(p) inside a larger field GF(p**D) is rooted
    in GF(p): if r**2 = x there, r and -r are the two roots of
    y**2 - x in every field holding GF(p), and the index of an element
    of GF(p) is its value, so the least root is min(r, p - r).  If x is
    not a square in GF(p) and D is odd, it has no root at all, as
    GF(p**2) is a subfield of GF(p**D) exactly when D is even.  Other
    elements pass Euler's criterion on their norm (``_passes``); then
    q = 3 (mod 4) uses x**((q+1)/4), and any other q Tonelli-Shanks
    inside the field with its least non-square.
    """
    root = _sqrt(x.field, x.value)
    return None if root is None else Element(x.field, root)


def _sqrt(field: Field, v):
    """The value of ``sqrt_in_field`` of the value v, or None."""
    q = field.order
    if not any(v):
        return v
    if q % 2 == 0:
        return field._pow(v, q // 2)
    p, one = field.char, field._one
    if field.degree > 1 and not any(v[1:]):
        r = _sqrt(_prime_field(p), v[:1])
        if r is not None:
            return (min(r[0], p - r[0]),) + field._zero[1:]
        if field.degree % 2:
            return None
    if _is_nonsquare(field, v):
        return None
    if q % 4 == 3:
        r = field._pow(v, (q + 1) // 4)
    else:
        m = q - 1
        s = 0
        while m % 2 == 0:
            m //= 2
            s += 1
        c = field._pow(_least_nonsquare(field).value, m)
        r = field._pow(v, (m + 1) // 2)
        u = field._pow(v, m)
        while u != one:
            d = u
            k = 0
            while d != one:
                d = field._mul(d, d)
                k += 1
            b = field._pow(c, 2 ** (s - k - 1))
            r = field._mul(r, b)
            c = field._mul(b, b)
            u = field._mul(u, c)
            s = k
        # r**2 == v here
    return min(r, field._neg(r), key=field._index)


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

@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def _lanes(s: int, lanes) -> tuple[Callable, Callable]:
    """(pack, read) for values whose coordinates sit in ``lanes`` of s
    bits of one int, lowest first: ``pack`` maps a tuple of coordinates
    below 2**s to that int, and ``read`` maps an int below
    2**(s*(lanes[-1] + 1)) to the tuple of its digits in ``lanes``, at
    least two: by a cast of its bytes for 16-, 32- and 64-bit lanes, by
    shifts for any other s.  ``lanes`` is a tuple or a range, and each
    pair is built once: the candidate rings of one ``make_field`` and
    the fields of one lane width share it."""
    shifts = [s * i for i in lanes]

    def pack(v):
        return sum(map(operator.lshift, v, shifts))

    fmt = {16: "H", 32: "I", 64: "Q"}.get(s)
    if fmt is None:
        mask = (1 << s) - 1
        return pack, lambda v: tuple([v >> sh & mask for sh in shifts])
    pick = operator.itemgetter(*lanes)
    size, order = s // 8 * (lanes[-1] + 1), sys.byteorder
    return pack, lambda v: pick(memoryview(v.to_bytes(size, order)).cast(fmt))


def _packing(field: Field, bound: int):
    """(pack, reduce, unpack, bits) of the Kronecker layout of ``field``
    for product digits up to ``bound``.

    ``pack`` puts each GF(p) coordinate of a value in a lane of s bits
    of one int, and ``unpack`` reads the lanes of a packed canonical
    value back; both are written once, over the tuple of lanes that
    ``_folding`` gives each field, with a shift each way for the two
    lanes of GF(p^2), the hot case.  In GF(p^t) coordinate i, the
    coefficient of x**i, is lane i.  ``bits`` is the length of a product
    of two packed values: 2t - 1 lanes in GF(p^t).  In a tower a's
    coordinates sit in the base's lanes and b's as many bits higher as
    a base product is long, so the product of two packed tower values
    holds ac, ad + bc and bd, the coefficients of 1, y and y**2, in
    three blocks of that length side by side.

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
    # a value of more than two coordinates is read by a cast of its
    # bytes, so GF(p) lanes below it widen to a cast width; a GF(p^2)
    # value keeps the narrowest lanes, the smallest ints for its
    # products (one 30-bit int digit per value for p < 2**7)
    reduce, s, lanes, bits = _folding(field, bound, field.degree > 2)
    if len(lanes) == 1:  # GF(p): the value's one coordinate is the int
        return operator.itemgetter(0), reduce, (lambda v: (v,)), bits
    if lanes == (0, 1):  # every GF(p^2): a shift each way
        mask = (1 << s) - 1
        return ((lambda v: v[0] + (v[1] << s)), reduce,
                (lambda v: (v & mask, v >> s)), bits)
    pack, unpack = _lanes(s, lanes)
    return pack, reduce, unpack, bits


def _folding(field: Field, bound: int, wide: bool):
    """(reduce, s, lanes, bits) of ``_packing``: ``reduce``, the lane
    width s, the lanes of a value's coordinates, lowest first, and the
    bit length of a product of two packed values.  With ``wide`` a
    GF(p) digit, too, gets the least of 16, 32 and 64 bits that holds
    it, so that a value is read by a cast of its bytes."""
    if isinstance(field, TowerSpec):
        base_reduce, s, lanes, bits = _folding(field.base, bound, wide)
        base_pack = _lanes(s, lanes)[0]
        block = (1 << bits) - 1
        c0, c1, _ = field.ext_modulus
        neg_c0, neg_c1 = base_pack((-c0).value), base_pack((-c1).value)

        def reduce(v):
            u0 = base_reduce(v & block)
            u1 = base_reduce(v >> bits & block)
            u2 = base_reduce(v >> 2 * bits)
            if neg_c1:  # 0 in every canonical tower of odd q
                u1 = base_reduce(u1 + neg_c1 * u2)
            return base_reduce(u0 + neg_c0 * u2) + (u1 << bits)

        high = tuple(bits // s + i for i in lanes)
        return reduce, s, lanes + high, 3 * bits
    p, t = field.p, field.t
    if t == 1:  # no polynomial to reduce: one digit, one coefficient
        s = _cast_width(bound.bit_length()) if wide else bound.bit_length()
        return p.__rmod__, s, (0,), s
    # x**t = r(x) = -(c_0 + ... + c_(t-1) x**(t-1)), of degree d
    xt = [-c % p for c in field.modulus[:t]]
    d = max((i for i, c in enumerate(xt) if c), default=0)
    m = t - d
    blocks = -(-(t - 1) // m)
    # polynomials with a coefficient in each lane of w bits: a lane
    # below is at most bound*(1 + (t - 1)(p - 1))*(1 + (m - 1)(p - 1)),
    # under bound*(t*p)**2, so no sum carries from lane to lane
    w = _cast_width((bound * (t * p) ** 2).bit_length())
    wpack, wread = _lanes(w, range(2 * t))
    r, wtop = wpack(xt), w * t
    # R_b = x**(t + b*m) is x**m times R_(b-1), whose m digits past
    # x**(t - 1) fold once by r, of degree d = t - m, below x**t
    coords = [xt]
    for _ in range(blocks - 1):
        v = wpack(coords[-1]) << w * m
        coords.append([c % p for c in wread(v + (v >> wtop) * r)[:t]])
    # the folds on every digit at the bound, as polynomial products:
    # block b adds R_b times its run of digits, and the lanes it spills
    # past x**(t - 1) add their fold by r, the spill lanes kept
    v = bound * sum(wpack(c) * wpack([1] * min(m, t - 1 - b * m))
                    for b, c in enumerate(coords))
    v += wpack([bound] * t)
    most = max(wread(v + (v >> wtop) * r))
    k = (most * p - 1).bit_length()
    M = -(-(1 << k) // p)
    s = _cast_width((most * M).bit_length())
    pack = _lanes(s, range(t))[0]
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
        high_blocks = _lanes(width, range(blocks))[1]

        def reduce(v):
            v = (v & low) + sum(map(operator.mul, high_blocks(v >> top),
                                    residues))
            v = (v & low) + (v >> top) * r0
            return v - p * (v * M >> k & quotients)

    return reduce, s, tuple(range(t)), s * (2 * t - 1)


def _cast_width(need: int) -> int:
    """The least lane width that ``_lanes`` reads by a cast, or else
    ``need``."""
    return next((w for w in (16, 32, 64) if need <= w), need)


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


def field_from_json(obj, guards: GuardConfig | None = None) -> Field:
    """The field of a record, admitted under ``guards``; the canonical
    field object, with its cached layouts and tables, when the record
    names the canonical modulus or the canonical ``ext_modulus``."""
    guards = current_guards(guards)
    if "p" in obj:
        field = make_field(json_int(obj["p"]), json_int(obj["t"]),
                           guards=guards)
        modulus = tuple(map(json_int, obj["modulus"]))
        if modulus != field.modulus:
            # the shape first: the ring test costs about len(modulus)**3
            if (len(modulus) != field.t + 1 or modulus[-1] != 1
                    or not all(0 <= v < field.p for v in modulus)
                    or not poly_is_irreducible(modulus, field.p)):
                raise ZeroElement("modulus in input is not monic irreducible")
            field = FieldSpec(field.p, field.t, modulus)
        return field
    base = field_from_json(obj["base"], guards)
    coeffs = tuple(element_from_json(base, c) for c in obj["ext_modulus"])
    check_field_size(base.order ** 2, guards)
    canonical = quadratic_extension(base)
    if coeffs == canonical.ext_modulus:
        return canonical
    # log tables and every verdict over a tower assume it is a field
    if (len(coeffs) != 3 or coeffs[2] != base.one
            or not _quadratic_is_irreducible(base, coeffs[0], coeffs[1])):
        raise ZeroElement("ext_modulus in input is not monic irreducible")
    return TowerSpec(base, coeffs)


def element_to_json(x: Element):
    return x.field._to_json(x.value)


def element_from_json(field: Field, obj) -> Element:
    return Element(field, field._from_json(obj))


def values_from_json(field: Field, rows) -> tuple:
    """The rows of values of ``rows``, a JSON array of rows of elements
    of ``field``, such as a generator matrix.

    When every entry is canonical, the nested arrays of its coordinates
    (two halves per tower level, then t integers in [0, p)), the whole
    matrix is checked and flattened in a few bulk passes per nesting
    level and read as it is: its values are its coordinates.  Otherwise
    every entry goes through ``_from_json``, row by row and in order, so
    each is reduced or refused, with the same exception, as
    ``element_from_json`` does.
    """
    if type(rows) is list and rows and type(rows[0]) is list and rows[0]:
        n, flat = len(rows[0]), rows
        for width in (n, *field._json_widths):
            if not ({*map(type, flat)} <= {list}
                    and {*map(len, flat)} <= {width}):
                break
            flat = [*itertools.chain.from_iterable(flat)]
        else:
            if {*map(type, flat)} <= {int} and (
                    0 <= min(flat) and max(flat) < field.char):
                values = zip(*[iter(flat)] * field.degree)
                return tuple(zip(*[values] * n))
    return tuple(tuple(map(field._from_json, row)) for row in rows)
