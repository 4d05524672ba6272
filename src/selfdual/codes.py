"""Linear codes over exact fields: cyclic structure, duals, verification.

A code is its generator matrix.  Cyclic and constacyclic codes come from
a generator polynomial built out of a defining set of root exponents;
the matrix rows are the shifts x**i * g(x) modulo x**n - lambda.

The generator product, its division check, the extension, the Gram
checks and the root check of a length-n code run on the n-term layout
``packed_field(field, n)``, which the term counts of the same lane width
share, and the roots on one cached walk per layout.  A code
holds its generator once and packs it there once; every packed check
reads that copy.  A generator whose k >= 2 rows are the shifts of one
vector g, then a tail the same in every row, is a *shift form*
(``LinearCode._shift``).  Every cyclic, constacyclic and duadic
builder's code and its extension holds only that form, g and the tail
packed (``LinearCode._from_shift``), and its rows of field values are
a view of it; ``code_from_json`` finds the form in a record's flat
coordinates and holds it the same way, and ``_shift_of`` finds it there
and in any code's rows of values alike.  A shift form's packed copy is
the shifts of g and the tail, and it is checked through g alone:
G G^T is Toeplitz, so the Gram checks test min(k, d + 1) lag sums of g
plus the tail's inner product (``_lag_gram_is_zero``), and the root
check evaluates g alone, since row i at alpha**e is alpha**(e*i) *
g(alpha**e) (``_roots_mismatch``).  An evaluation form whose points
the pairing fixes, every GRS builder's code, has a Hankel Gram matrix,
checked through its 2k - 1 values (``_hankel_gram_is_zero``).  Any
other generator is checked row by row.

Verification never approximates: self-duality is an exact matrix
product, distances are exhaustive scans under a guard, and MDS checks
are exhaustive column tests, seeded Monte-Carlo sampling, or a
consecutive-root-run certificate.  In automatic mode the column tests,
the sampler and the exhaustive rung first read the one proof
``prove_mds`` names.  It reads what the code's structure proves, with
no reduction: rows that are an evaluation form v * a**i on distinct
points (``LinearCode._points``, every GRS code), or a shift form with
the roots a route or a record proposes (``_roots_prove_mds``), one
that vanishes on a run of n - k roots, or an extended one whose
n - k - 1 roots and exponent 0 form a progression with a unit step,
the roots in GF(q) or GF(q^2).  Otherwise it reduces the code's packed
copy once to R = [I | A] and reads a Cauchy certificate on it, which
decides every GRS code of length at most q without a search.  Each
proof leaves the verdicts unchanged.  The column tests and the sampler
then search R's packed values, never element objects.  Every reduction,
walk, minor and certificate runs on ``PackedField``; the Zech-log
table of ``DlogTable`` serves only the codeword scan, and only that
scan builds one.
``certify_mds`` is the one ladder that chooses among them, and
``verify_code`` the one place that turns its certificate and the Gram
checks into a report, for the builders and the CLI alike.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from math import comb, gcd

from .config import GuardConfig, current_guards
from .cosets import DefiningSet, circular_run, consecutive_run
from .errors import (
    DiscreteLogGuardExceeded,
    FactorizationGuardExceeded,
    GuardExceeded,
    MalformedInput,
    NoCyclicStructure,
    NotDividing,
    NotOverTower,
    RootsNotInField,
    SizeGuardExceeded,
    ZeroElement,
    json_int,
)
from .fields import (
    Element,
    Field,
    TowerSpec,
    check_field_size,
    coordinates_from_json,
    element_order,
    field_from_json,
    field_to_json,
    nth_root_of_unity,
    quadratic_extension,
    values_from_json,
    values_to_json,
)
from .frozen import Frozen
from .linalg import (
    PackedField,
    dlog_table,
    first_dependent_subset,
    packed_field,
)


# ---------------------------------------------------------------------------
# linear codes
# ---------------------------------------------------------------------------

class ReducedForm(Frozen):
    """A generator's reduced echelon form R = M G on packed values.

    ``rows`` are R's rows packed on ``arith``, the n-term layout of
    ``packed_field(field, n)`` that holds the code's packed copy;
    ``pivots`` are its pivot columns.  ``prove_mds`` reads the Cauchy
    certificate on R = [I | A].
    """

    _fields = ("arith", "rows", "pivots")

    def __init__(self, arith: PackedField, rows: list, pivots: tuple):
        self._assign(arith, rows, pivots)


def _staircase(rows, zero) -> bool:
    """Whether each row's first entry other than ``zero`` lies right of
    the one above: such rows are independent."""
    n = len(rows[0]) if rows else 0
    leads = [next((j for j, x in enumerate(row) if x != zero), n)
             for row in rows]
    return all(map(operator.lt, leads, leads[1:] + [n]))


def _shift_rows(g, tail, k: int, zero):
    """The k rows of the shift form (g, tail), one at a time: row i is i
    copies of ``zero`` (a 1-tuple of a value, [0] on packed ints, or D
    zeros on D coordinates per entry), then g, then k - 1 - i more, then
    ``tail``."""
    return (zero * i + g + zero * (k - 1 - i) + tail for i in range(k))


def _shift_of(flat: list, k: int, n: int, zero: list) -> tuple | None:
    """(g, tail), slices of ``flat``, when ``flat`` is k >= 2 rows of n
    entries, one after another, that are a shift form: for w = n or
    n - 1, row i is i entries ``zero``, then g of w - k + 1 entries,
    then zeros through entry w - 1, then ``tail``, the same in every
    row; None otherwise.  An entry is len(zero) items of ``flat``: a
    value, or the coordinates of one.  g may be zero; a nonzero one
    makes independent rows.

    The rows of such a form without their tails, one after another,
    repeat g and k zero entries, a period of w + 1 entries; row i is
    then that period turned right by i entries, which moves only zeros
    to its front.  So the last n - w columns are compared with k copies
    of the tail and taken out, and what is left is compared once with
    itself a period on."""
    width = len(zero)
    size = n * width
    if not 2 <= k <= n or len(flat) != k * size:
        return None
    for w in (n, n - 1):
        span, period = (w - k + 1) * width, (w + 1) * width
        tail, window = flat[w * width:size], flat
        if tail:
            if any(flat[w * width + i::size] != tail[i:i + 1] * k
                   for i in range(width)):
                continue
            window = flat[:]
            for i in range(width):
                del window[size - 1 - i::size - i]
        if (window[span:period] == zero * k
                and window[period:] == window[:-period]):
            return window[:span], tail
    return None


def _check_field(field: Field, elements) -> None:
    """Refuse with ``MalformedInput`` an element of a field other than
    ``field``; the identity test passes a field's own elements at once."""
    for x in elements:
        if x.field is not field and x.field != field:
            raise MalformedInput("an element of GF(%d) given where GF(%d) "
                                 "is needed" % (x.field.order, field.order))


class LinearCode(Frozen):
    """An [n, k] code given by a full-rank k x n generator matrix.

    The generator is held once, in one of two forms.  A builder's
    cyclic code or extension, and a record whose coordinates show that
    form (``code_from_json``), hold its shift form (``_shift``, made by
    ``_from_shift``): g and its tail packed on the n-term layout of
    ``packed_field(field, n)``.  Any other code holds its rows of field
    values, ``_value_rows``, and finds a shift form in them if they
    have one.  The constructor takes element rows, of ``field`` alone,
    and keeps their values; the GRS builder and any other record hand
    over values (``_from_values``).  The packed copy (``_packed``) is
    the shifts of a shift form's g and tail, or the value rows packed
    once: both self-duality checks, the root check, the evaluation
    form, the reduction and the extension read that one copy, so no
    check needs an element object.  A shift form's ``_value_rows`` and
    ``generator``, the rows as elements, are views built only when
    something asks for them.

    A shift form is of rank k, as shifts of a nonzero g are.  The rank
    check of value rows needs no reduction when each row starts right
    of the one above, or when the rows are an evaluation form
    (``_points``), as the GRS builder's are; otherwise it counts the
    pivots of the reduced form, computed once, on first use
    (``_reduced``).
    """

    _fields = ("field", "n", "k", "generator")

    def __init__(self, field: Field, n: int, k: int, generator: tuple):
        _check_field(field, itertools.chain.from_iterable(generator))
        self._hold(field, n, k, tuple(tuple([x.value for x in row])
                                      for row in generator))

    @classmethod
    def _from_values(cls, field: Field, n: int, k: int, rows: tuple,
                     packed: list | None = None) -> "LinearCode":
        """The code whose generator rows hold the field values ``rows``;
        ``packed``, when given, is those rows already packed on the
        n-term layout, held as the packed copy."""
        code = cls.__new__(cls)
        if packed is not None:
            code.__dict__["_packed"] = packed
        code._hold(field, n, k, rows)
        return code

    @classmethod
    def _from_shift(cls, field: Field, n: int, k: int, g: list,
                    tail: list) -> "LinearCode":
        """The code whose k >= 2 rows are the shift form (g, tail), both
        packed on the n-term layout, as ``_shift`` would find it in
        them: g nonzero, the tail empty or one nonzero value.  Shifts of
        a nonzero g are independent, so the rank needs no check."""
        if (k < 2 or len(g) + k - 1 + len(tail) != n or not any(g)
                or len(tail) > 1 or not all(tail)):
            raise ValueError("not the shift form of an [%d, %d] code"
                             % (n, k))
        code = cls.__new__(cls)
        code._assign(field, n, k)
        code.__dict__["_shift"] = (g, tail)
        return code

    def _hold(self, field: Field, n: int, k: int, rows: tuple) -> None:
        self._assign(field, n, k)
        self.__dict__["_value_rows"] = rows
        if k != len(rows):
            raise ValueError("k does not match the number of rows")
        if any(len(row) != n for row in rows):
            raise ValueError("row length does not match n")
        if not (_staircase(rows, field._zero) or self._points is not None
                or len(self._reduced().pivots) == k):
            raise ValueError("generator rows are dependent")

    @functools.cached_property
    def _value_rows(self) -> tuple:
        """The rows of the shift form as field values: only a code made
        by ``_from_shift`` gets here, as any other holds its rows."""
        unpack = packed_field(self.field, self.n).unpack
        g, tail = (tuple(map(unpack, part)) for part in self._shift)
        return tuple(_shift_rows(g, tail, self.k, (self.field._zero,)))

    @functools.cached_property
    def generator(self) -> tuple:
        field = self.field
        return tuple(tuple([Element(field, v) for v in row])
                     for row in self._value_rows)

    @functools.cached_property
    def _packed(self) -> list:
        """The rows packed on the n-term layout: a shift form's are the
        shifts of its packed g, then its packed tail."""
        if self._shift is not None:
            return list(_shift_rows(*self._shift, self.k, [0]))
        pack = packed_field(self.field, self.n).pack
        return [list(map(pack, row)) for row in self._value_rows]

    @functools.cached_property
    def _shift(self) -> tuple | None:
        """(g, tail), packed on the n-term layout, when k >= 2 and, for
        w = n or n - 1, row i is i zeros, then g of length w - k + 1,
        then zeros through column w - 1, then ``tail``, the same in
        every row; None otherwise.  A code made by ``_from_shift`` holds
        it; rows of values are read by ``_shift_of``, as a record's
        coordinates are.  Every cyclic, constacyclic and duadic code has
        this form with w = n, and its extension with w = n - 1.  g is
        not zero, since the k >= 2 rows are independent."""
        rows, zero = self._value_rows, self.field._zero
        # k >= 2 rows of the form hold a zero first in the last row and
        # in the last two entries of the first, which an evaluation
        # form's rows never both do: those are not flattened
        if self.k < 2 or rows[-1][0] != zero or zero not in rows[0][-2:]:
            return None
        shift = _shift_of([*itertools.chain.from_iterable(rows)], self.k,
                          self.n, [zero])
        if shift is None:
            return None
        pack = packed_field(self.field, self.n).pack
        return list(map(pack, shift[0])), list(map(pack, shift[1]))

    @functools.cached_property
    def _points(self) -> list | None:
        """The points a, packed on the n-term layout, when the rows alone
        show the evaluation form r_i = v * a**i (entrywise, i < k) with
        2 <= k <= n, every v_j nonzero and the a_j distinct; None
        otherwise.  a = r_1 / r_0 comes from one batch inverse of row 0,
        then r_(i+1) = r_i * a is checked for every i: k*n packed
        products.  Rows in the reverse order are the same form, with v
        times a**(k - 1) and the points 1/a, when no point is 0; when
        one is, row 0 holds a zero, and the rows are read upward from
        the last, which is v.  Every GRS builder's code has this form; a
        shift form never does, as its first and last rows hold k - 1
        zeros.

        The form proves the code MDS, and so of rank k: the columns of
        a set S of k coordinates are v_j times (1, a_j, ..., a_j**(k-1)),
        a Vandermonde matrix on distinct points scaled by nonzero
        columns, so their determinant prod(v_j) * prod(a_j - a_i), over
        i < j in S, is not zero.  Every MDS rung prints the same verdict
        on an MDS code, so the rungs read this proof first
        (``prove_mds``)."""
        k, n = self.k, self.n
        if not 2 <= k <= n or self._shift is not None:
            return None
        arith, rows = packed_field(self.field, n), self._packed
        if 0 in rows[0]:
            rows = rows[::-1]
            if 0 in rows[0]:
                return None
        points = arith.products(rows[1], arith.inverses(rows[0]))
        if len(set(points)) == n and all(
                arith.products(row, points) == after
                for row, after in zip(rows[1:], rows[2:])):
            return points
        return None

    def _reduced(self) -> ReducedForm:
        """The reduced form of the packed copy, computed once."""
        form = self.__dict__.get("_form")
        if form is None:
            arith = packed_field(self.field, self.n)
            form = self.__dict__["_form"] = ReducedForm(
                arith, *arith.row_reduce(self._packed))
        return form

    # computed once per code: a builder, verify and mds_check all ask
    @functools.cached_property
    def _euclidean_self_dual(self) -> bool:
        return 2 * self.k == self.n and self._gram_zero(False)

    @functools.cached_property
    def _hermitian_self_dual(self) -> bool:
        return 2 * self.k == self.n and self._gram_zero(True)

    def _gram_zero(self, conjugate: bool) -> bool:
        """The Gram check of the shift form's lag sums, of the Hankel
        sums of an evaluation form whose points the pairing fixes, or of
        the rows."""
        arith = packed_field(self.field, self.n)
        if self._shift is not None:
            return _lag_gram_is_zero(*self._shift, self.k, arith,
                                     conjugate=conjugate)
        points = self._points
        if points is not None and (not conjugate or all(
                arith.conj(a) == a for a in points)):
            return _hankel_gram_is_zero(self._packed, arith,
                                        conjugate=conjugate)
        return _gram_is_zero(self._packed, arith, conjugate=conjugate)


class CyclicSpec(Frozen):
    """Constacyclic structure: length, shift constant, roots, generator.

    ``g`` is monic, divides x**n - lam, and vanishes exactly at
    alpha**i for i in the defining set.  Its coefficients are held once,
    packed on the n-term layout of ``packed_field(field, n)`` (``_g``),
    as ``generator_from_defining_set`` computes them and as the shift
    form of ``cyclic_generator_matrix`` holds them; ``g``, the tuple of
    elements, is a view built when something asks for it.
    """

    _fields = ("field", "n", "lam", "defining", "g", "alpha")

    def __init__(self, field: Field, n: int, lam: Element,
                 defining: DefiningSet, g: tuple, alpha: Element | None):
        pack = packed_field(field, n).pack
        self._hold(field, n, lam, defining, [pack(c.value) for c in g],
                   alpha)

    @classmethod
    def _from_packed(cls, field: Field, n: int, lam: Element,
                     defining: DefiningSet, g: list,
                     alpha: Element | None) -> "CyclicSpec":
        """The spec whose g is the list ``g`` of packed coefficients."""
        spec = cls.__new__(cls)
        spec._hold(field, n, lam, defining, g, alpha)
        return spec

    def _hold(self, field, n, lam, defining, g, alpha) -> None:
        self.__dict__.update(field=field, n=n, lam=lam, defining=defining,
                             alpha=alpha, _g=g)

    @functools.cached_property
    def g(self) -> tuple:
        unpack = packed_field(self.field, self.n).unpack
        return tuple([Element(self.field, unpack(v)) for v in self._g])

    @property
    def k(self) -> int:
        return self.n - len(self.defining)


# root walks kept at once, each of at most dlog_limit packed values
ROOT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=ROOT_CACHE_SIZE)
def _root_powers(arith: PackedField, n: int, lam: Element,
                 modulus: int) -> tuple:
    """alpha**e for e < m = r*n, as packed values of ``arith``: alpha is
    the first power of the canonical m-th root of unity with order m and
    alpha**n = lam, r the order of lam; ``modulus`` must be m.  The walk
    is canonical data of the layout, like the field's primitive element,
    so it is taken once: a generator and the root check of its code,
    whose term counts share a layout, read the same tuple."""
    field = arith.field
    if not lam:
        raise ZeroElement("shift constant must be nonzero")
    q = field.order
    m = n * (1 if lam == field.one else element_order(lam))
    if (q - 1) % m != 0:
        raise RootsNotInField("r*n = %d does not divide q - 1 = %d"
                              % (m, q - 1))
    if modulus != m:
        raise ValueError("defining set modulus %d, expected %d"
                         % (modulus, m))
    # one walk of root**j, j < m: root**i has order m / gcd(i, m) and
    # n-th power root**(i*n mod m); packed canonical values compare as ints
    walk = list(itertools.accumulate(
        [arith.encode(nth_root_of_unity(field, m))] * (m - 1),
        arith.mul, initial=arith.one))
    want = arith.encode(lam)
    i = next((i for i in range(m)
              if walk[i * n % m] == want and gcd(i, m) == 1), None)
    if i is None:
        raise RootsNotInField("no root of order %d with alpha**n = lam" % m)
    return tuple([walk[i * e % m] for e in range(m)])


def generator_from_defining_set(field: Field, n: int, lam: Element,
                                T: DefiningSet,
                                guards: GuardConfig | None = None
                                ) -> CyclicSpec:
    """Build the monic generator with roots alpha**i, i in T.

    ``alpha`` is the canonical root of unity of order n (cyclic case,
    lam = 1) or of order m = r*n with alpha**n = lam (constacyclic case,
    lam of order r).  Requires r*n | q - 1 so that all roots lie in
    the coefficient field.

    Whether g divides x**n - lam is exponent arithmetic, settled before
    any product: alpha**i is a root of x**n - lam exactly when
    alpha**(i*n) = alpha**n, that is m | (i - 1)*n, or r | i - 1.  Those
    n roots are distinct, so x**n - lam is their product, and the
    distinct roots alpha**i, i in T (residues mod m), divide it exactly
    when r | i - 1 for every i in T; otherwise ``NotDividing``.

    The root walk holds all m = ``T.modulus`` powers of alpha, so an m
    above ``dlog_limit`` is refused with ``DiscreteLogGuardExceeded``
    before the field is packed, and a lam of another field with
    ``MalformedInput``.
    """
    guards = current_guards(guards)
    _check_field(field, (lam,))
    if T.modulus > guards.dlog_limit:
        raise DiscreteLogGuardExceeded(
            "defining set modulus %d exceeds the discrete-log guard %d"
            % (T.modulus, guards.dlog_limit))
    arith = packed_field(field, n)
    powers = _root_powers(arith, n, lam, T.modulus)
    r = T.modulus // n
    if any((i - 1) % r for i in T.elements):
        raise NotDividing("generator does not divide x**n - lam")
    reduce = arith.reduce
    # g <- x*g - alpha**i * g, constant term first, one reduce per
    # coefficient; g stays monic
    g = [arith.one]
    for i in T.elements:
        minus_root = arith.neg(powers[i])
        g = [reduce(lo + minus_root * hi)
             for lo, hi in zip([0] + g, g)] + [arith.one]
    return CyclicSpec._from_packed(field, n, lam, T, g,
                                   arith.decode(powers[1 % T.modulus]))


def cyclic_generator_matrix(spec: CyclicSpec) -> LinearCode:
    """Rows are x**i * g(x), i = 0..k-1: g has degree n - k, so no row
    reaches x**n and none is reduced modulo x**n - lam.  For k >= 2 the
    rows are the shift form (g, []), and the code is that form, on the
    packed g the spec holds; k = 1 is the one row g."""
    field, n, k = spec.field, spec.n, spec.k
    if k < 0:
        raise ValueError("defining set larger than the length")
    if k < 2:
        unpack = packed_field(field, n).unpack
        return LinearCode._from_values(
            field, n, k, (tuple(map(unpack, spec._g)),) * k)
    return LinearCode._from_shift(field, n, k, spec._g, [])


# ---------------------------------------------------------------------------
# self-duality
# ---------------------------------------------------------------------------

def _gram_is_zero(rows: list, arith: PackedField,
                  conjugate: bool = False) -> bool:
    """Whether every inner product of two rows is 0, or of a row with
    the conjugate of a row (``conjugate``, over a tower).

    ``rows`` are packed on ``arith``, the n-term layout of
    ``packed_field(field, n)``: a code's shared packed copy.  Each entry
    is one integer dot product of two packed rows, reduced once, and a
    nonzero entry stops the check.  Entry (j, i) is entry (i, j) or its
    conjugate, so the two are zero together: only the entries j <= i
    are computed, and each row's conjugate is taken once.

    The conjugate is taken on the packed int, by ``PackedField.conj``.
    Conjugation fixes the base, so conj(a + b*y) = a + b*conj(y), with
    conj(y) = -c1 - y a canonical value.  The int of b's lanes, shifted
    down, is the packed embedding of b, so (packed a) + (packed b) *
    (packed conj(y)) is one product of two canonical values plus a
    canonical value: every digit is at most the one-product bound plus
    p - 1, within the bound of every layout (``Field._layout``), and its
    ``reduce`` returns the canonical packed conjugate, which the dot
    products then take like any other canonical value.
    """
    reduce = arith.reduce
    seen = []
    for packed in rows:
        seen.append(list(map(arith.conj, packed)) if conjugate else packed)
        if any(reduce(sum(map(operator.mul, packed, other)))
               for other in seen):
            return False
    return True


def _hankel_gram_is_zero(rows: list, arith: PackedField,
                         conjugate: bool = False) -> bool:
    """``_gram_is_zero`` of k >= 2 rows of an evaluation form
    r_i = v * a**i (``LinearCode._points``), packed on ``arith``, whose
    pairing s, the identity or the conjugate, fixes every point a_c,
    from the 2k - 1 entries (i, 0) and (i, k - 1).

    s is a field automorphism, so s(r_j) = s(v) * s(a)**j = s(v) * a**j
    entrywise, and entry (i, j) is sum_c v_c * s(v_c) * a_c**(i + j) =
    h(i + j): the Gram matrix is a Hankel matrix, constant along each
    antidiagonal.  Its 2k - 1 values h(0), ..., h(2k - 2) are the
    entries (m, 0) for m < k and (m - k + 1, k - 1) for m >= k - 1, so
    the matrix is zero exactly when those entries are.  Each is one dot
    product of n packed values, exact on the n-term layout, reduced
    once; rows 0 and k - 1 are conjugated once each.
    """
    reduce = arith.reduce
    ends = [rows[0], rows[-1]]
    if conjugate:
        ends = [list(map(arith.conj, row)) for row in ends]
    return not any(reduce(sum(map(operator.mul, row, end)))
                   for end, part in zip(ends, (rows, rows[1:]))
                   for row in part)


def _lag_gram_is_zero(g: list, tail: list, k: int, arith: PackedField,
                      conjugate: bool = False) -> bool:
    """``_gram_is_zero`` of the k rows of a shift form (g, tail), packed
    on ``arith``, from its lag sums.

    Row i holds g at columns i..i + d, d + 1 = len(g), and then the
    tail.  For j >= i and delta = j - i, entry (i, j) is
    sum_c r_i[c] * s(r_j[c]), s the identity or the conjugate: the
    columns where both rows meet g are c = j + m, m <= d - delta, where
    r_i[c] = g[m + delta] and r_j[c] = g[m], and the tail adds its own
    inner product, so the entry is c(delta) + tau with
    c(delta) = sum_m g[m + delta] * s(g[m]) and tau = sum_l t_l * s(t_l).
    c(delta) = 0 for delta > d, so the entries with j >= i are zero
    exactly when c(delta) + tau = 0 for delta < min(k, d + 1) and, when
    k > d + 1, tau = 0.  Entry (j, i) is entry (i, j) or its conjugate,
    so the two are zero together.  Each tested sum has at most
    d + 1 + len(tail) <= n products, exact on the n-term layout.
    """
    reduce = arith.reduce
    other = list(map(arith.conj, g + tail)) if conjugate else g + tail
    span = len(g)
    tau = sum(map(operator.mul, tail, other[span:]))
    if any(reduce(sum(map(operator.mul, g[delta:], other)) + tau)
           for delta in range(min(k, span))):
        return False
    return k <= span or not reduce(tau)


def is_euclidean_self_dual(code: LinearCode) -> bool:
    """2k == n and G @ G^T == 0 by the exact matrix product, once."""
    return code._euclidean_self_dual


def is_hermitian_self_dual(code: LinearCode) -> bool:
    """2k == n and G @ conj(G)^T == 0 over a quadratic extension, once."""
    if not isinstance(code.field, TowerSpec):
        raise NotOverTower("Hermitian duality needs a quadratic extension")
    return code._hermitian_self_dual


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def extend_code(code: LinearCode, gamma: Element) -> LinearCode:
    """Append to every row the coordinate -gamma * (sum of the row): on
    packed ints a sum of n products, exact at one reduction on the
    n-term layout of ``packed_field(field, n)``.  Every row of a shift
    form sums to sum(g) + sum(tail), so its column is one value, from
    one sum, and its k packed rows are never built; any other code's
    row sums come from its packed copy.  A gamma of another field is
    refused with ``MalformedInput``.

    The extension of a shift form (g, []) is the shift form (g, [c]),
    c the column's one value, or (g + [0], []) when c = 0, as ``_shift``
    would find it in the rows; g and c are packed again only when the
    (n + 1)-term layout is not the n-term one.  Any other code's
    extension holds its rows of values, each with its column value."""
    field, n = code.field, code.n
    _check_field(field, (gamma,))
    arith = packed_field(field, n)
    minus_gamma = arith.encode(-gamma)
    shift = code._shift
    sums = (map(sum, code._packed) if shift is None
            else [sum(shift[0]) + sum(shift[1])])
    column = [arith.reduce(minus_gamma * s) for s in sums]
    if shift is None or shift[1]:
        rows = tuple((*row, arith.unpack(c)) for row, c
                     in zip(code._value_rows, itertools.cycle(column)))
        return LinearCode._from_values(field, n + 1, code.k, rows)
    g, tail = (shift[0], column[:1]) if column[0] else (shift[0] + [0], [])
    wide = packed_field(field, n + 1)
    if wide is not arith:
        g, tail = ([wide.pack(arith.unpack(v)) for v in part]
                   for part in (g, tail))
    return LinearCode._from_shift(field, n + 1, code.k, g, tail)


# ---------------------------------------------------------------------------
# distance and MDS verification
# ---------------------------------------------------------------------------

def _check_scan(field: Field, k: int, guards: GuardConfig) -> None:
    """Refuse a scan of the zero code or of q**k above the codeword
    guard."""
    if k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if field.order ** k > guards.codeword_limit:
        raise GuardExceeded(
            "q**k = %d exceeds the codeword guard" % field.order ** k)


def _projective_scan(field: Field, rows, guards: GuardConfig) -> int:
    """``DlogTable.min_weight`` of ``rows`` of field values, which must
    be independent, or for k = 1 the weight of the lone row, after
    ``_check_scan``.  The scan counts the last coefficient, so it
    visits only the (q**(k - 1) - 1)/(q - 1) prefixes, but the codeword
    guard still holds q**k, with k >= 2, so the table's q entries are at
    most the square root of that guard.  Under a raised codeword guard
    the table's own walk is held to ``dlog_limit``, and a q - 1 above it
    is refused with ``DiscreteLogGuardExceeded``.
    """
    k = len(rows)
    _check_scan(field, k, guards)
    if k == 1:
        return len(rows[0]) - rows[0].count(field._zero)
    table = dlog_table(field, guards)
    return table.min_weight(list(map(table.encode_row, rows)))


def min_distance_exhaustive(code: LinearCode,
                            guards: GuardConfig | None = None) -> int:
    """Exact minimum distance over all q**k codewords.

    One representative per scalar class is enough, and the weights of
    the q that differ in the last coefficient come from one tally, so
    the scan builds (q**(k - 1) - 1)/(q - 1) words; the guard is still
    stated on q**k.
    """
    return _projective_scan(code.field, code._value_rows,
                            current_guards(guards))


class MdsVerdict(Frozen):
    """How (and whether) the MDS property was established.

    ``status`` is one of certified-exact, certified-bch,
    certified-structural, monte-carlo, refuted, inconclusive, guarded.
    """

    _fields = ("status", "trials", "passes", "witness")

    def __init__(self, status: str, trials: int | None = None,
                 passes: int | None = None, witness: tuple | None = None):
        self._assign(status, trials, passes, witness)

    def to_json(self):
        out = {"status": self.status}
        if self.trials is not None:
            out["trials"] = self.trials
            out["passes"] = self.passes
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def _check_trials(trials: int) -> None:
    # zero sampled minors would pass a Monte-Carlo verdict vacuously
    if trials < 1:
        raise MalformedInput("trials must be at least 1, got %d" % trials)


def _cauchy_certified(arith, reduced, pivots) -> bool:
    """Whether reduced rows R = [I | A], packed on the ``PackedField``
    ``arith``, have a Cauchy-like A, so that no square block of A is
    singular and every k-subset of columns of R is independent.  With
    one row or one column of A, nonzero entries suffice.  False means
    only that this certificate does not apply."""
    k = len(reduced)
    if pivots != tuple(range(k)):
        return False
    a_rows = [row[k:] for row in reduced]
    if k <= 1 or len(a_rows[0]) <= 1:
        return all(x != arith.zero for row in a_rows for x in row)
    return arith.cauchy_points(a_rows) is not None


def prove_mds(code: LinearCode, roots: tuple | None,
              guards: GuardConfig) -> str | None:
    """The name of the first proof that ``code`` is MDS, or None when
    none holds; None only means no proof.

    - ``"points"``: the rows are an evaluation form on distinct points
      (``LinearCode._points``), with no reduction;
    - ``"roots"``: ``roots``, the (defining set, lam) pair a route or a
      record proposes, prove the shift form MDS (``_roots_prove_mds``),
      with no reduction;
    - ``"cauchy"``: the code's reduced form R = [I | A]
      (``LinearCode._reduced``) has a Cauchy-like A
      (``_cauchy_certified``), as for every GRS code of length at most
      q, so every k-subset of columns is independent.
    """
    if code._points is not None:
        return "points"
    if roots is not None and _roots_prove_mds(code, *roots, guards):
        return "roots"
    if _cauchy_certified(*code._reduced()._values()):
        return "cauchy"
    return None


def mds_check(code: LinearCode, mode: str, trials: int = 1000,
              guards: GuardConfig | None = None,
              roots: tuple | None = None) -> MdsVerdict:
    """MDS verification in one of two modes.

    Both first read the one proof ``prove_mds`` finds: the code's
    points, ``roots``, the (defining set, lam) a caller proposes, or the
    Cauchy certificate of its cached reduced form R = [I | A].  A proof
    makes each mode return what its search below would on an MDS code:
    ``certified-exact``, or every trial passing.  Otherwise
    ``exhaustive-columns`` tests that every k-subset of generator
    columns is independent (necessary and sufficient) with one
    elimination shared by all subsets, and refutes with the lex-first
    dependent subset; ``monte-carlo`` samples subsets with a seed
    derived from (n, k, q) and tests each minor.  Both run on R's packed
    values.  The root-run certificate is a rung of ``certify_mds``.
    Fewer than one trial is refused with ``MalformedInput``.
    """
    _check_trials(trials)
    guards = current_guards(guards)
    n, k = code.n, code.k
    if mode not in ("exhaustive-columns", "monte-carlo"):
        raise ValueError("unknown mds mode %r" % mode)
    if mode == "exhaustive-columns" and comb(n, k) > guards.column_limit:
        raise GuardExceeded("C(n, k) = %d exceeds the column guard"
                            % comb(n, k))
    if prove_mds(code, roots, guards) is not None:
        return (MdsVerdict("certified-exact")
                if mode == "exhaustive-columns" else
                MdsVerdict("monte-carlo", trials=trials, passes=trials))
    # R = M G with M invertible, so a set of R's columns is dependent
    # exactly when the same set of G's columns is: both searches run on R
    form = code._reduced()
    arith, reduced, pivots = form.arith, form.rows, form.pivots
    if mode == "exhaustive-columns":
        witness = first_dependent_subset(list(zip(*reduced)), k,
                                         arith.eliminate)
        return MdsVerdict("certified-exact" if witness is None
                          else "refuted", witness=witness)
    # R's pivot columns are the unit vectors: G_S is singular exactly
    # when R restricted to the rows of the pivots outside S and the
    # columns of S that are not pivots is singular
    pivot_set = set(pivots)
    rng = random.Random("%d:%d:%d" % (n, k, code.field.order))
    passes = 0
    for _ in range(trials):
        subset = sorted(rng.sample(range(n), k))
        chosen = set(subset)
        free = [i for i, c in enumerate(pivots) if c not in chosen]
        # a minor and its transpose are singular together
        minor = [[reduced[i][j] for i in free]
                 for j in subset if j not in pivot_set]
        if not arith.det_nonzero(minor):
            return MdsVerdict("refuted", trials=trials, passes=passes,
                              witness=tuple(subset))
        passes += 1
    return MdsVerdict("monte-carlo", trials=trials, passes=passes)


def _roots_mismatch(code: LinearCode, T: DefiningSet, lam: Element | None,
                    punctured: bool, guards: GuardConfig) -> str | None:
    """Why not every row vanishes at alpha**e, e in T, or None.  alpha is
    the root ``generator_from_defining_set`` picks from lam; with
    ``punctured`` the rows lose their last coordinate but no dimension.
    Vanishing on a run of delta - 1 such points proves d >= delta even
    for a dishonest lam: alpha**step has order modulus/step >= n, so any
    delta - 1 check columns form a scaled Vandermonde matrix.

    The roots lie in GF(q), the code's field, when m = T.modulus
    divides q - 1.  When m divides q**2 - 1 instead, and
    ``check_field_size`` admits GF(q^2), they are placed in
    ``quadratic_extension(field)`` and the rows are evaluated there,
    embedded: the same matrix spans C (x) GF(q^2), of which C is a
    subcode, and a set of its columns independent over GF(q^2) is
    independent over GF(q), so a bound on the larger code's distance
    holds for C.  A guard that refuses GF(q^2) leaves the roots out of
    the field, as before.

    When the n checked coordinates are a shift form with no tail, row i
    is x**i * g(x), so r_i(alpha**e) = sum_j g_j alpha**(e*(i + j)) =
    alpha**(e*i) * g(alpha**e).  alpha is a root of unity, a unit, so
    every row vanishes at alpha**e exactly when g does, and g alone is
    evaluated.  Shifts of a nonzero g start at increasing columns, so
    they are independent and the punctured rows lose no dimension."""
    field, m = code.field, T.modulus
    n = code.n - 1 if punctured else code.n
    # packed g or the code's packed copy; punctured rows are exact on
    # its layout too
    arith, shift = packed_field(field, code.n), code._shift
    if shift is not None and code.n - len(shift[1]) == n:
        rows = shift[:1]
    else:
        rows = code._packed
        if punctured:
            rows = [row[:-1] for row in rows]
            if (not _staircase(rows, arith.zero)
                    and len(arith.row_reduce(rows)[1]) < code.k):
                return "the first n - 1 coordinates lose a dimension"
    if lam is None:
        return "no lambda to place the roots of the defining set"
    if m // T.step < n:
        return "defining set modulus %d does not fit n = %d" % (m, n)
    q = field.order
    if (q - 1) % m and not (q * q - 1) % m:
        try:
            check_field_size(q * q, guards)
        except (SizeGuardExceeded, FactorizationGuardExceeded):
            pass
        else:
            # a value embeds as its coordinates, then b = 0
            wide = packed_field(quadratic_extension(field), code.n)
            rows = [[wide.pack(arith.unpack(v) + field._zero) for v in row]
                    for row in rows]
            arith, lam = wide, wide.field.embed(lam)
    try:
        powers = _root_powers(arith, n, lam, m)
    except (ZeroElement, RootsNotInField, ValueError) as exc:
        return "roots do not fit n = %d: %s" % (n, exc)
    # a row at alpha**e is its dot product with alpha**(e*j), j < width:
    # a read of stride e (m for e = 0) along the walk, repeated so that
    # e*j needs no reduction mod m; each sum is exact on the n-term layout
    width, strides = len(rows[0]), [e or m for e in T.elements]
    walk = powers * -(-max(strides, default=0) * width // m)
    if any(arith.reduce(sum(map(operator.mul, row, walk[:s * width:s])))
           for s in strides for row in rows):
        return "generator rows do not vanish at the defining set's roots"
    return None


def _roots_prove_mds(code: LinearCode, T: DefiningSet, lam: Element | None,
                     guards: GuardConfig) -> bool:
    """Whether the roots alpha**e, e in T, that lam places
    (``_roots_mismatch``, in GF(q) or GF(q^2)) prove the shift form
    ``code`` MDS, with d = n - k + 1, without a reduction.  False only
    means no proof: T.modulus above ``dlog_limit`` (the root walk) or
    any condition below failing leaves the verdict to the reduced form.

    With no tail this is the BCH bound: the rows vanish on a run of
    n - k roots, so d >= n - k + 1, which is the Singleton bound.

    With a one-entry tail t the code is the shifts of g, of length
    r = n - k, on n' = n - 1 coordinates, each extended by t, so row i
    sums to g(1) over the first n' coordinates.  t != 0, since
    ``_shift`` reads a zero tail as a last coefficient of g, and
    ``_from_shift`` refuses one.  Let T be
    a run of r - 1 exponents with step 1 such that T with 0 is an
    arithmetic progression c, c + s, ..., c + (r - 1)*s of r residues
    mod m = T.modulus with a unit step s, gcd(s, m) = 1 (so 0 is not in
    T), and let the punctured rows vanish on T.  Then g, nonzero with
    r - 1 distinct roots alpha**e, is c' * prod(x - alpha**e), c' != 0,
    and g(1) != 0 as alpha**e = 1 only for e = 0.  The r rows
    (alpha**(e*j))_{j<n'} | 0, e in T, and (1, ..., 1, -g(1)/t)
    annihilate G: the first since g(alpha**e) = 0, the last since
    g(1) + t*(-g(1)/t) = 0.  Every r of their columns are independent.
    Without the last column, the row of exponent c + i*s is
    alpha**(c*j) * (alpha**(s*j))**i at column j: a Vandermonde matrix
    on the points (alpha**s)**j, scaled by nonzero columns, and the
    points are distinct since alpha**s, like alpha, has order m >= n'
    (``_roots_mismatch`` checks m >= n').  With it, expanding along the
    last column, whose one nonzero entry -g(1)/t sits in the row of
    exponent 0, leaves the rows of T, a run with step 1: nonzero too.
    So the r rows span an MDS code of dimension r, its dual is MDS of
    dimension k, and it holds C, of dimension k: it is C.

    T with 0 is a progression with step 1/u exactly when u times it,
    as plain residues mod m, is a run with step 1 (``circular_run``);
    u = 1 is tried, then u = 2, each in O(|T|), and
    any other step leaves the verdict to the reduced form.  u = 2 finds
    a run of r >= 2 residues only for odd m, as twice any residue is
    even mod an even m, so the step 1/u is a unit whenever a run is
    found.  The length-6
    codes of ``build_hermitian_n5`` need u = 2: T = {2, 3} mod 5, and T
    with 0 is 2, 0, 3 with step 3 = 1/2 (or 3, 0, 2 with step 2), with
    the roots in GF(q^4)."""
    shift = code._shift
    if shift is None or T.modulus > guards.dlog_limit:
        return False
    tail, r, m = shift[1], code.n - code.k, T.modulus
    if not tail:
        return (consecutive_run(T) >= r
                and _roots_mismatch(code, T, lam, False, guards) is None)
    with_zero = (0, *T.elements)
    return (len(tail) == 1 and T.step == 1
            and len(T) == consecutive_run(T) == r - 1
            and any(circular_run({u * e % m for e in with_zero}, m) == r
                    for u in (1, 2))
            and _roots_mismatch(code, T, lam, True, guards) is None)


class MdsCertificate(Frozen):
    """The rung of the MDS ladder that ran and what it established.

    ``tier`` is exhaustive, columns, bch, extended-bch or monte-carlo.
    ``reason`` explains any verdict short of a certificate: the guard
    that stopped the rung, the measured distance, the singular subset
    or the short root run.  ``warning`` is what a report shows for a
    guarded rung.
    """

    _fields = ("tier", "verdict", "distance_exact", "distance_lower_bound",
               "reason", "warning")

    def __init__(self, tier: str, verdict: MdsVerdict,
                 distance_exact: int | None = None,
                 distance_lower_bound: int | None = None,
                 reason: str | None = None, warning: str | None = None):
        self._assign(tier, verdict, distance_exact, distance_lower_bound,
                     reason, warning)


# The rung choice of ``certify_mds`` in automatic mode.  These are not
# guards, since they refuse no work: the ladder scans the codewords when
# q**k is at most EXHAUSTIVE_TIER, and walks the column subsets when
# C(n, k) fits the column guard and the estimate C(n, k) * k**3 is at
# most COLUMN_TIER_WORK.  A caller who wants another rung names it with
# ``mode``.
EXHAUSTIVE_TIER = 10**6
COLUMN_TIER_WORK = 8 * 10**6


def certify_mds(code: LinearCode, *, defining: DefiningSet | None = None,
                extended_defining: DefiningSet | None = None,
                lam: Element | None = None,
                structural: bool = False, mode: str = "auto",
                trials: int = 1000,
                guards: GuardConfig | None = None) -> MdsCertificate:
    """Establish the MDS property on one rung of the tier ladder.

    The rungs, strongest first: exhaustive distance; every k-subset of
    generator columns; the root-run certificate of ``defining``; the
    root-run certificate of ``extended_defining``, the defining set of
    the code before its last coordinate was appended (both check that
    the rows vanish at the roots the shift constant ``lam`` places, in
    GF(q) or, when the field size guard admits it, in GF(q^2), a walk
    over all modulus powers of a root, which ``dlog_limit`` bounds);
    seeded Monte-Carlo, reported as ``certified-structural`` with
    d = n - k + 1 when ``structural`` vouches that the code is an
    evaluation (GRS) code.  ``mode="auto"`` takes the first rung the
    constants above choose, the guards afford and the facts allow; any
    other mode names the rung.  The column and Monte-Carlo rungs, and
    in auto mode the exhaustive one, first read the one proof
    ``prove_mds`` finds: the code's points (``LinearCode._points``); in
    auto mode the roots of ``defining``, else ``extended_defining``,
    with ``lam`` (``_roots_prove_mds``); then the Cauchy certificate of
    its reduced form.  Each proof yields the verdict the rung's own
    search returns on an MDS code, and the facts never decide a
    verdict.  A guard that
    stops the rung is a ``guarded`` verdict and a refutation is a
    verdict, never an exception; fewer than one trial is refused with
    ``MalformedInput``.
    """
    _check_trials(trials)
    guards = current_guards(guards)
    n, k, q = code.n, code.k, code.field.order
    target = n - k + 1
    # the roots a route or a record proposes, which auto mode may read as
    # a proof before any reduction
    proposed = defining if defining is not None else extended_defining
    roots = ((proposed, lam) if mode == "auto" and proposed is not None
             else None)
    tier = mode
    if mode == "auto":
        subsets = comb(n, k)
        if q ** k <= EXHAUSTIVE_TIER:
            tier = "exhaustive"
        elif (subsets <= guards.column_limit
                and subsets * k ** 3 <= COLUMN_TIER_WORK):
            tier = "columns"
        elif defining is not None:
            tier = "bch"
        elif extended_defining is not None:
            tier = "extended-bch"
        else:
            tier = "monte-carlo"

    try:
        if tier == "exhaustive":
            _check_scan(code.field, k, guards)
            # in auto mode a proof (the points, the proposed roots or a
            # Cauchy-like reduced form) gives d = n - k + 1 without the scan
            if mode == "auto" and prove_mds(code, roots, guards) is not None:
                d = target
            else:
                d = min_distance_exhaustive(code, guards)
            if d != target:
                return MdsCertificate(
                    tier, MdsVerdict("refuted"), distance_exact=d,
                    reason="measured distance %d, expected %d" % (d, target))
            return MdsCertificate(tier, MdsVerdict("certified-exact"),
                                  distance_exact=d)
        if tier in ("columns", "monte-carlo"):
            verdict = mds_check(code, "exhaustive-columns"
                                if tier == "columns" else tier,
                                trials=trials, guards=guards, roots=roots)
            if verdict.status == "refuted":
                return MdsCertificate(
                    tier, verdict,
                    reason="singular column subset %r" % (verdict.witness,))
            if verdict.status == "certified-exact":
                return MdsCertificate(tier, verdict, distance_exact=target)
            if structural:
                return MdsCertificate(
                    tier, MdsVerdict("certified-structural",
                                     trials=verdict.trials,
                                     passes=verdict.passes),
                    distance_exact=target)
            return MdsCertificate(tier, verdict)
        if tier in ("bch", "extended-bch"):
            facts = defining if tier == "bch" else extended_defining
            if facts is None:
                raise NoCyclicStructure("no defining set in the code metadata")
            # an extended code's run certifies the [n-1, k] code before
            # the extension; appending a coordinate never lowers weights
            bound = consecutive_run(facts) + 1
            if bound < (target if tier == "bch" else target - 1):
                reason = "root run too short"
            elif facts.modulus > guards.dlog_limit:
                # the root check walks all modulus powers of its root
                raise GuardExceeded(
                    "defining set modulus %d exceeds the discrete-log "
                    "guard %d" % (facts.modulus, guards.dlog_limit))
            else:
                reason = _roots_mismatch(code, facts, lam,
                                         tier == "extended-bch", guards)
            if reason is not None:
                return MdsCertificate(tier, MdsVerdict("inconclusive"),
                                      reason=reason)
            return MdsCertificate(tier, MdsVerdict("certified-bch"),
                                  distance_lower_bound=bound)
    except GuardExceeded as exc:
        return MdsCertificate(
            tier, MdsVerdict("guarded"), reason=exc.message,
            warning=exc.message + ("; no distance computed"
                                   if tier == "exhaustive" else ""))
    raise ValueError("unknown mds mode %r" % mode)


class VerificationReport(Frozen):
    """Everything the verifier established about one code."""

    _fields = ("euclidean_self_dual", "hermitian_self_dual",
               "distance_exact", "distance_lower_bound", "mds", "warning")

    def __init__(self, euclidean_self_dual: bool,
                 hermitian_self_dual: bool | None,
                 distance_exact: int | None,
                 distance_lower_bound: int | None, mds: MdsVerdict,
                 warning: str | None = None):
        self._assign(euclidean_self_dual, hermitian_self_dual,
                     distance_exact, distance_lower_bound, mds, warning)

    def to_json(self):
        if self.distance_exact is not None:
            distance = {"exact": self.distance_exact}
        elif self.distance_lower_bound is not None:
            distance = {"lower_bound": self.distance_lower_bound}
        else:
            distance = None
        out = {
            "euclidean_self_dual": self.euclidean_self_dual,
            "hermitian_self_dual": self.hermitian_self_dual,
            "distance": distance,
            "mds": self.mds.to_json(),
        }
        if self.warning:
            out["warning"] = self.warning
        return out


def verify_code(code: LinearCode, *, mode: str = "auto", trials: int = 1000,
                guards: GuardConfig | None = None,
                **facts) -> tuple[VerificationReport, MdsCertificate]:
    """(report, certificate) of one code: the exact Euclidean Gram check,
    the Hermitian one over a quadratic extension, and ``certify_mds``
    with the ``facts`` a route or a record proposes (``defining``,
    ``extended_defining``, ``lam``, ``structural``).  The report states
    the verdict as it is, a refutation or a guard stop included; the
    builders and ``selfdual verify`` both take their report from here.
    """
    euclid = is_euclidean_self_dual(code)
    herm = (is_hermitian_self_dual(code)
            if isinstance(code.field, TowerSpec) else None)
    cert = certify_mds(code, mode=mode, trials=trials, guards=guards, **facts)
    return VerificationReport(euclid, herm, cert.distance_exact,
                              cert.distance_lower_bound, cert.verdict,
                              cert.warning), cert


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def code_to_json(code: LinearCode, metadata: dict | None = None):
    return {
        "field": field_to_json(code.field),
        "n": code.n,
        "k": code.k,
        "generator": values_to_json(code.field, code._value_rows),
        "metadata": metadata or {},
    }


def code_from_json(obj, guards: GuardConfig | None = None):
    """(code, metadata) of a JSON code record, its field admitted and its
    rank checked under ``guards``.  A canonical generator is read in
    bulk as its flat coordinates (``coordinates_from_json``).  When
    ``_shift_of`` finds a shift form with a nonzero g in them, the code
    holds that form alone, g and the tail packed once, as a cyclic
    builder's code does (``LinearCode._from_shift``); otherwise it holds
    the rows of values they make.  Any other generator is reduced or
    refused entry by entry (``values_from_json``) and held as its rows
    of values.  Either way ``generator``, the rows as elements, is
    built only if something asks for it."""
    guards = current_guards(guards)
    field = field_from_json(obj["field"], guards)
    n = json_int(obj["n"])
    k = json_int(obj["k"])
    if k < 1:
        # the zero code has no codeword, distance or column subset to
        # verify; LinearCode still allows it as the dual of a k = n code
        raise MalformedInput("a code record needs k >= 1, got k = %d" % k)
    rows = obj["generator"]
    flat = coordinates_from_json(field, rows)
    degree = field.degree
    shift = (_shift_of(flat, k, n, [0] * degree)
             if flat is not None and len(rows[0]) == n else None)
    if shift is not None and any(shift[0]):
        pack = packed_field(field, n).pack
        g, tail = ([*map(pack, zip(*[iter(part)] * degree))]
                   for part in shift)
        code = LinearCode._from_shift(field, n, k, g, tail)
    elif flat is not None:
        # any other rows, of a wrong shape or dependent ones included,
        # are held or refused by their rank check
        values = zip(*[iter(flat)] * degree)
        code = LinearCode._from_values(field, n, k,
                                       tuple(zip(*[values] * len(rows[0]))))
    else:
        code = LinearCode._from_values(field, n, k,
                                       values_from_json(field, rows))
    return code, obj.get("metadata", {})
