"""Linear codes over exact fields: cyclic structure, duals, verification.

A code is its generator matrix.  Cyclic and constacyclic codes come from
a generator polynomial built out of a defining set of root exponents;
the matrix rows are the shifts x**i * g(x) modulo x**n - lambda.

The generator product, its division check, the extension, the Gram
checks and the root check of a length-n code run on the one cached
n-term layout ``packed_field(field, n)``, the roots on one walk.  A code
holds its generator once, as rows of field values, and packs them there
once; every packed check reads that copy.  A generator whose k >= 2
rows are the shifts of one vector g, then a tail the same in every row
(the *shift form*, ``LinearCode._shift``: every cyclic, constacyclic
and duadic builder's code and its extension, as built or as read from
a record), packs only g and the tail, and its packed copy is their
shifts; it is checked through g alone:
G G^T is Toeplitz, so the Gram checks test min(k, d + 1) lag sums of g
plus the tail's inner product (``_lag_gram_is_zero``), and the root
check evaluates g alone, since row i at alpha**e is alpha**(e*i) *
g(alpha**e) (``_roots_mismatch``).  Any other generator is checked row
by row.

Verification never approximates: self-duality is an exact matrix
product, distances are exhaustive scans under a guard, and MDS checks
are exhaustive column tests, seeded Monte-Carlo sampling, or a
consecutive-root-run certificate.  Each code reduces its generator once
to R = [I | A], on log-table ints or packed values as a cost rule picks,
and the column tests, the sampler and the automatic exhaustive rung
first read a Cauchy certificate on it, which decides every GRS code of
length at most q without a search and leaves their verdicts unchanged.
The column tests and the sampler then search R, in its own encoding,
never element objects.
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
from .cosets import DefiningSet, consecutive_run
from .errors import (
    DiscreteLogGuardExceeded,
    GuardExceeded,
    MalformedInput,
    NoCyclicStructure,
    NotDividing,
    NotOverTower,
    RootsNotInField,
    ZeroElement,
    json_int,
)
from .fields import (
    Element,
    Field,
    TowerSpec,
    element_order,
    field_from_json,
    field_to_json,
    nth_root_of_unity,
    values_from_json,
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

# The cost rule of a reduction.  A Zech table costs about q steps, one
# per entry, once per process, and then serves every reduction, column
# walk and codeword scan over its field; a packed reduction costs about
# k*k*n entry updates, each time it runs.  Measured on a 2-vCPU VM in
# GF(31^3), GF(5^6), GF(2^12), GF(7^4) and GF(3^6), a table built by
# giant steps costs 0.3-0.6 us an entry (the linalg.dlog_build_ms.gf31_3
# probe times one build) and a packed update reduce(u + f*v) 0.5-0.9 us.
# The factor below was set when a step of the old one-power-at-a-time
# walk cost 1.4-2.5 us, more than twice an update, and a builder and
# every later verify reduce the code again, so a table is built when q
# is at most this many times k*k*n.  That sends GF(2^12) with the
# [14, 7] table code (q = 6.0 k*k*n) and GF(3^6) with [8, 4] (5.7) to
# packed values, as GF(31^3) with [16, 8] and GF(5^6) with [10, 5] (29
# and 62 times), and keeps GF(3^6) with [14, 7] (1.06) and GF(31^2)
# with [16, 8] (0.94) on their tables; with cheaper steps a larger
# factor would pay, and it is left as it is here so that every code
# keeps its encoding.
TABLE_STEPS_PER_UPDATE = 2


def _reduction_table(field: Field, k: int, n: int, dlog_limit: int):
    """The Zech table that reduces a k x n generator over ``field``, or
    None for packed values.  Within ``dlog_limit``: the cached table, or
    one built for a tower (packed tower products reduce three base
    blocks each) or when the cost rule above says the table pays."""
    table = dlog_table(field, dlog_limit, build=False)
    steps = TABLE_STEPS_PER_UPDATE * k * k * n
    if table is None and (isinstance(field, TowerSpec)
                          or field.order <= steps):
        table = dlog_table(field, dlog_limit)
    return table


class ReducedForm(Frozen):
    """A generator's reduced echelon form R = M G on one representation.

    ``rows`` are R's rows as packed values on the n-term layout of
    ``packed_field(field, terms)``, the layout of the code's packed copy,
    or, for ``terms`` = 0, as the log ints of the field's Zech table;
    ``pivots`` are its pivot columns.  The form names its arithmetic by
    the field, not by a table, so it keeps no table alive past
    ``DLOG_CACHE_SIZE``: log ints are the same in every table of a
    field, and ``arith`` looks the table up again.  ``cauchy`` is the
    Cauchy certificate's verdict on R = [I | A]: when it holds, every
    k-subset of columns is independent, so the code is MDS.
    """

    _fields = ("field", "terms", "rows", "pivots")

    def __init__(self, field: Field, terms: int, rows: list, pivots: tuple):
        self._assign(field, terms, rows, pivots)

    @property
    def packed(self) -> bool:
        return self.terms > 0

    @property
    def arith(self):
        """The ``PackedField`` or the ``DlogTable`` that encodes ``rows``
        (built again if the cache dropped it)."""
        if self.terms:
            return packed_field(self.field, self.terms)
        return dlog_table(self.field, self.field.order)

    @functools.cached_property
    def cauchy(self) -> bool:
        return _cauchy_certified(self.arith, self.rows, self.pivots)


def _staircase(rows, zero) -> bool:
    """Whether each row's first entry other than ``zero`` lies right of
    the one above: such rows are independent."""
    n = len(rows[0]) if rows else 0
    leads = [next((j for j, x in enumerate(row) if x != zero), n)
             for row in rows]
    return all(map(operator.lt, leads, leads[1:] + [n]))


class LinearCode(Frozen):
    """An [n, k] code given by a full-rank k x n generator matrix.

    The generator is held once, as its rows of field values,
    ``_value_rows``, and packed once on the n-term layout of
    ``packed_field(field, n)`` (``_packed``): both self-duality checks,
    the root check, a packed reduction and the extension read that one
    copy, and a log-table reduction reads the values, so no check needs
    an element object.  A shift form (``_shift``) packs only g and its
    tail, and its packed rows are their shifts.  The constructor takes
    element rows and keeps their values; the builders and
    ``code_from_json`` hand over values (``_from_values``).
    ``generator``, the rows as elements, is a view built only when
    something asks for it.

    Its reduced form is computed once, on first use (``_reduced``).  The
    rank check needs no arithmetic when each row starts right of the one
    above, as the shifted rows of the cyclic builders do; otherwise it
    counts the reduced form's pivots.
    """

    _fields = ("field", "n", "k", "generator")

    def __init__(self, field: Field, n: int, k: int, generator: tuple):
        self._hold(field, n, k, tuple(tuple([x.value for x in row])
                                      for row in generator))

    @classmethod
    def _from_values(cls, field: Field, n: int, k: int, rows: tuple,
                     guards: GuardConfig | None = None) -> "LinearCode":
        """The code whose generator rows hold the field values ``rows``;
        a rank check that reduces them does so under ``guards``."""
        code = cls.__new__(cls)
        code._hold(field, n, k, rows, guards)
        return code

    def _hold(self, field: Field, n: int, k: int, rows: tuple,
              guards: GuardConfig | None = None) -> None:
        self._assign(field, n, k)
        self.__dict__["_value_rows"] = rows
        if k != len(rows):
            raise ValueError("k does not match the number of rows")
        if any(len(row) != n for row in rows):
            raise ValueError("row length does not match n")
        if (not _staircase(rows, field._zero)
                and len(self._reduced(guards).pivots) < k):
            raise ValueError("generator rows are dependent")

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
            (g, tail), k = self._shift, self.k
            return [[0] * i + g + [0] * (k - 1 - i) + tail for i in range(k)]
        pack = packed_field(self.field, self.n).pack
        return [list(map(pack, row)) for row in self._value_rows]

    @functools.cached_property
    def _shift(self) -> tuple | None:
        """(g, tail), packed on the n-term layout, when k >= 2 and, for
        w = n or n - 1, row i is i zeros, then g of length w - k + 1,
        then zeros through column w - 1, then ``tail``, the same in
        every row; None otherwise.  The rows of every cyclic,
        constacyclic and duadic builder have this form with w = n, and
        their extensions with w = n - 1.  g is not zero, since the
        k >= 2 rows are independent."""
        k, n, rows = self.k, self.n, self._value_rows
        if k < 2:
            return None
        pad = (self.field._zero,)
        for w in (n, n - 1):
            g, tail = rows[0][:w - k + 1], rows[0][w:]
            if all(row == pad * i + g + pad * (k - 1 - i) + tail
                   for i, row in enumerate(rows)):
                pack = packed_field(self.field, n).pack
                return list(map(pack, g)), list(map(pack, tail))
        return None

    def _reduced(self, guards: GuardConfig | None = None) -> ReducedForm:
        """The reduced form, on the representation ``_reduction_table``
        picks under the guards of the first call, and cached; a field
        beyond this call's ``dlog_limit`` gets an uncached packed one."""
        form = self.__dict__.get("_form")
        if form is None:
            form = self.__dict__["_form"] = self._reduce_on(_reduction_table(
                self.field, self.k, self.n, current_guards(guards).dlog_limit))
        elif (not form.packed
              and self.field.order > current_guards(guards).dlog_limit):
            form = self._reduce_on(None)
        return form

    def _reduce_on(self, table) -> ReducedForm:
        """The reduced form on the log ints of ``table``, or on the
        packed copy for None."""
        if table is None:
            return ReducedForm(self.field, self.n, *packed_field(
                self.field, self.n).row_reduce(self._packed))
        return ReducedForm(self.field, 0, *table.row_reduce(
            list(map(table.encode_row, self._value_rows))))

    # computed once per code: a builder, verify and mds_check all ask
    @functools.cached_property
    def _euclidean_self_dual(self) -> bool:
        return 2 * self.k == self.n and self._gram_zero(False)

    @functools.cached_property
    def _hermitian_self_dual(self) -> bool:
        return 2 * self.k == self.n and self._gram_zero(True)

    def _gram_zero(self, conjugate: bool) -> bool:
        """The Gram check of the shift form's lag sums, or of the rows."""
        arith = packed_field(self.field, self.n)
        if self._shift is None:
            return _gram_is_zero(self._packed, arith, conjugate=conjugate)
        return _lag_gram_is_zero(*self._shift, self.k, arith,
                                 conjugate=conjugate)


class CyclicSpec(Frozen):
    """Constacyclic structure: length, shift constant, roots, generator.

    ``g`` is monic, divides x**n - lam, and vanishes exactly at
    alpha**i for i in the defining set.
    """

    _fields = ("field", "n", "lam", "defining", "g", "alpha")

    def __init__(self, field: Field, n: int, lam: Element,
                 defining: DefiningSet, g: tuple, alpha: Element | None):
        self._assign(field, n, lam, defining, g, alpha)

    @property
    def k(self) -> int:
        return self.n - len(self.defining)


def _root_powers(arith: PackedField, n: int, lam: Element,
                 modulus: int) -> list:
    """alpha**e for e < m = r*n, as packed values of ``arith``: alpha is
    the first power of the canonical m-th root of unity with order m and
    alpha**n = lam, r the order of lam; ``modulus`` must be m."""
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
    return [walk[i * e % m] for e in range(m)]


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
    before the field is packed.
    """
    guards = current_guards(guards)
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
    return CyclicSpec(field, n, lam, T, tuple(map(arith.decode, g)),
                      arith.decode(powers[1 % T.modulus]))


def cyclic_generator_matrix(spec: CyclicSpec) -> LinearCode:
    """Rows are x**i * g(x), i = 0..k-1: g has degree n - k, so no row
    reaches x**n and none is reduced modulo x**n - lam.  For k >= 2 the
    rows are a shift form, so the code packs only g."""
    field, n, k = spec.field, spec.n, spec.k
    if k < 0:
        raise ValueError("defining set larger than the length")
    g = tuple([c.value for c in spec.g])
    zero = (field._zero,)
    return LinearCode._from_values(
        field, n, k,
        tuple(zero * i + g + zero * (k - 1 - i) for i in range(k)))


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
    n-term layout of ``packed_field(field, n)``, read back as a value.
    The extension packs its own rows on its (n + 1)-term layout; the
    extension of a shift form with no tail is one, with the column as
    its tail."""
    field, n = code.field, code.n
    arith = packed_field(field, n)
    minus_gamma = arith.encode(-gamma)
    column = [arith.reduce(minus_gamma * sum(row)) for row in code._packed]
    rows = tuple((*row, arith.unpack(c))
                 for row, c in zip(code._value_rows, column))
    return LinearCode._from_values(field, n + 1, code.k, rows)


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
    ``_check_scan``.  The table needs no guard of its own: the scan
    counts the last coefficient, so it visits only the
    (q**(k - 1) - 1)/(q - 1) prefixes, but the codeword guard still
    holds q**k, with k >= 2, so the table's q entries are at most the
    square root of that guard.
    """
    k = len(rows)
    _check_scan(field, k, guards)
    if k == 1:
        return len(rows[0]) - rows[0].count(field._zero)
    table = dlog_table(field, field.order)
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
    """Whether reduced rows R = [I | A], encoded by ``arith`` (a
    ``DlogTable`` or a ``PackedField``), have a Cauchy-like A, so that no
    square block of A is singular and every k-subset of columns of R is
    independent.  With one row or one column of A, nonzero entries
    suffice.  False means only that this certificate does not apply."""
    k = len(reduced)
    if pivots != tuple(range(k)):
        return False
    a_rows = [row[k:] for row in reduced]
    if k <= 1 or len(a_rows[0]) <= 1:
        return all(x != arith.zero for row in a_rows for x in row)
    return arith.cauchy_points(a_rows) is not None


def mds_check(code: LinearCode, mode: str, trials: int = 1000,
              guards: GuardConfig | None = None) -> MdsVerdict:
    """MDS verification in one of two modes.

    Both first read the code's cached reduced form R = [I | A]
    (``LinearCode._reduced``): when A is Cauchy-like, as for every GRS
    code of length at most q, every k-subset of columns is independent,
    and each mode returns what its search below would:
    ``certified-exact``, or every trial passing.  Otherwise
    ``exhaustive-columns`` tests that every k-subset of generator
    columns is independent (necessary and sufficient) with one
    elimination shared by all subsets, and refutes with the lex-first
    dependent subset; ``monte-carlo`` samples subsets with a seed
    derived from (n, k, q) and tests each minor.  Both run on R, in
    R's own encoding, so ``_reduction_table`` alone picks it.  The
    root-run certificate is a rung of ``certify_mds``.
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
    form = code._reduced(guards)
    if form.cauchy:
        return (MdsVerdict("certified-exact")
                if mode == "exhaustive-columns" else
                MdsVerdict("monte-carlo", trials=trials, passes=trials))
    # R = M G with M invertible, so a set of R's columns is dependent
    # exactly when the same set of G's columns is: both searches run on
    # R, in its own encoding
    arith, reduced, pivots = form.arith, form.rows, form.pivots
    if mode == "exhaustive-columns":
        witness = first_dependent_subset(list(zip(*reduced)), k, arith.zero,
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
                    punctured: bool) -> str | None:
    """Why not every row vanishes at alpha**e, e in T, or None.  alpha is
    the root ``generator_from_defining_set`` picks from lam; with
    ``punctured`` the rows lose their last coordinate but no dimension.
    Vanishing on a run of delta - 1 such points proves d >= delta even
    for a dishonest lam: alpha**step has order modulus/step >= n, so any
    delta - 1 check columns form a scaled Vandermonde matrix.

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
    try:
        powers = _root_powers(arith, n, lam, m)
    except (ZeroElement, RootsNotInField, ValueError) as exc:
        return "roots do not fit n = %d: %s" % (n, exc)
    # V has |T| * n entries alpha**(e*j) but only the m packed powers;
    # a row times a column of V is exact on the n-term layout
    checks = [[powers[e * j % m] for j in range(len(rows[0]))]
              for e in T.elements]
    if any(arith.reduce(sum(map(operator.mul, pa, pb)))
           for pa in rows for pb in checks):
        return "generator rows do not vanish at the defining set's roots"
    return None


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
    the rows vanish at the roots the shift constant ``lam`` places, a
    walk over all modulus powers of a root, which ``dlog_limit``
    bounds); seeded Monte-Carlo, reported as ``certified-structural``
    with d = n - k + 1 when ``structural`` vouches that the code is an
    evaluation (GRS) code.  ``mode="auto"`` takes the first rung the
    constants above choose, the guards afford and the facts allow; any
    other mode names the rung.  A guard that stops the rung is a
    ``guarded`` verdict and a refutation is a verdict, never an
    exception; fewer than one trial is refused with ``MalformedInput``.
    """
    _check_trials(trials)
    guards = current_guards(guards)
    n, k, q = code.n, code.k, code.field.order
    target = n - k + 1
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
            # in auto mode a Cauchy-like reduced form proves
            # d = n - k + 1 without the scan
            if mode == "auto" and code._reduced(guards).cauchy:
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
                                trials=trials, guards=guards)
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
                                         tier == "extended-bch")
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
        "generator": [list(map(code.field._to_json, row))
                      for row in code._value_rows],
        "metadata": metadata or {},
    }


def code_from_json(obj, guards: GuardConfig | None = None):
    """(code, metadata) of a JSON code record, its field admitted and its
    rank checked under ``guards``.  The generator is read by
    ``values_from_json``, in bulk when it is canonical, and the code
    holds those values as they are (``LinearCode._from_values``): its
    checks read them and its packed copy, and ``generator``, the rows
    as elements, is built only if something asks for it."""
    guards = current_guards(guards)
    field = field_from_json(obj["field"], guards)
    n = json_int(obj["n"])
    k = json_int(obj["k"])
    if k < 1:
        # the zero code has no codeword, distance or column subset to
        # verify; LinearCode still allows it as the dual of a k = n code
        raise MalformedInput("a code record needs k >= 1, got k = %d" % k)
    rows = values_from_json(field, obj["generator"])
    return (LinearCode._from_values(field, n, k, rows, guards),
            obj.get("metadata", {}))
