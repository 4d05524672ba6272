"""Linear codes over exact fields: cyclic structure, duals, verification.

A code is its generator matrix.  Cyclic and constacyclic codes come from
a generator polynomial built out of a defining set of root exponents;
the matrix rows are the shifts x**i * g(x) modulo x**n - lambda.

The generator product, its division check, the extension, the Gram
check and the root check of a length-n code run on the one cached
n-term layout ``packed_field(field, n)``, the roots on one walk.

Verification never approximates: self-duality is an exact matrix
product, distances are exhaustive scans under a guard, and MDS checks
are exhaustive column tests, seeded Monte-Carlo sampling, or a
consecutive-root-run certificate.  Each code reduces its generator once
to [I | A], on log-table ints or packed values as a cost rule picks,
and the column tests, the sampler and the automatic exhaustive rung
first read a Cauchy certificate on it, which decides every GRS code of
length at most q without a search and leaves their verdicts unchanged.
The searches run on the same two integer encodings, never on element
objects.
``certify_mds`` is the one ladder that chooses among them, for the
builders and the CLI alike.
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
    element_from_json,
    element_order,
    element_to_json,
    field_from_json,
    field_to_json,
    nth_root_of_unity,
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

# The cost rule of a reduction.  A Zech table costs about q walk steps,
# once per process, and then serves every reduction, column walk and
# codeword scan over its field; a packed reduction costs about k*k*n
# entry updates, each time it runs.  Measured on a 2-vCPU VM in GF(31^3),
# GF(5^6), GF(2^12) and GF(7^4), a table step costs 1.4-2.5 us (the
# linalg.dlog_build_ms.gf31_3 probe times one build) and a packed update
# reduce(u + f*v) 0.6-1.1 us, less than half a step, and a builder and
# every later verify reduce the code again, so a table is built when q
# is at most this many times k*k*n: when it costs about what four or
# five packed reductions do.  That sends GF(2^12) with the [14, 7] table
# code (q = 6.0 k*k*n) and GF(3^6) with [8, 4] (5.7) to packed values,
# as GF(31^3) with [16, 8] and GF(5^6) with [10, 5] (29 and 62 times),
# and keeps GF(3^6) with [14, 7] (1.06) and GF(31^2) with [16, 8] (0.94)
# on their tables.
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

    ``rows`` are R's rows as packed values (``packed``) or as the log
    ints of the field's Zech table, and ``pivots`` its pivot columns.
    The form names its arithmetic by the field, not by a table, so it
    keeps no table alive past ``DLOG_CACHE_SIZE``: log ints are the same
    in every table of a field, and ``arith`` looks the table up again.
    ``cauchy`` is the Cauchy certificate's verdict on R = [I | A]: when
    it holds, every k-subset of columns is independent, so the code is
    MDS.
    """

    _fields = ("field", "packed", "rows", "pivots")

    def __init__(self, field: Field, packed: bool, rows: list,
                 pivots: tuple):
        self._assign(field, packed, rows, pivots)

    @property
    def arith(self):
        """The ``PackedField`` or the ``DlogTable`` that encodes ``rows``
        (built again if the cache dropped it)."""
        if self.packed:
            return packed_field(self.field)
        return dlog_table(self.field, self.field.order)

    @functools.cached_property
    def cauchy(self) -> bool:
        return _cauchy_certified(self.arith, self.rows, self.pivots)

    def rows_on(self, arith) -> list:
        """R's rows on ``arith``'s encoding (a ``DlogTable`` or a
        ``PackedField``), or as element objects when ``arith`` is None."""
        if arith is not None and isinstance(arith, PackedField) == self.packed:
            return self.rows
        rows = [list(map(self.arith.decode, row)) for row in self.rows]
        return rows if arith is None else [list(map(arith.encode, row))
                                           for row in rows]


class LinearCode(Frozen):
    """An [n, k] code given by a full-rank k x n generator matrix.

    Its reduced form is computed once, on first use (``_reduced``).  The
    rank check needs no arithmetic when each row starts right of the one
    above, as the shifted rows of the cyclic builders do; otherwise it
    counts the reduced form's pivots.
    """

    _fields = ("field", "n", "k", "generator")

    def __init__(self, field: Field, n: int, k: int, generator: tuple):
        self._assign(field, n, k, generator)
        if k != len(generator):
            raise ValueError("k does not match the number of rows")
        for row in generator:
            if len(row) != n:
                raise ValueError("row length does not match n")
        # rows in echelon form are independent
        leads = [next((j for j, x in enumerate(row) if x), n)
                 for row in generator]
        if all(map(operator.lt, leads, leads[1:] + [n])):
            return
        if len(self._reduced().pivots) < k:
            raise ValueError("generator rows are dependent")

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
        """The reduced form on ``table``, or on packed values for None."""
        arith = table or packed_field(self.field)
        return ReducedForm(self.field, table is None, *arith.row_reduce(
            [list(map(arith.encode, row)) for row in self.generator]))

    # computed once per code: a builder, verify and mds_check all ask
    @functools.cached_property
    def _euclidean_self_dual(self) -> bool:
        return 2 * self.k == self.n and _gram_is_zero(self.generator,
                                                      self.field)

    @functools.cached_property
    def _hermitian_self_dual(self) -> bool:
        return 2 * self.k == self.n and _gram_is_zero(
            self.generator, self.field, conjugate=True)

    def codeword(self, message) -> tuple:
        word = [self.field.zero] * self.n
        for m, row in zip(message, self.generator):
            if m:
                word = [w + m * r for w, r in zip(word, row)]
        return tuple(word)


def same_code(a: LinearCode, b: LinearCode) -> bool:
    """Row-space equality via the canonical reduced echelon form."""
    if a.n != b.n or a.k != b.k or a.field != b.field:
        return False
    return a._reduced().rows_on(None) == b._reduced().rows_on(None)


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
                                T: DefiningSet) -> CyclicSpec:
    """Build the monic generator with roots alpha**i, i in T.

    ``alpha`` is the canonical root of unity of order n (cyclic case,
    lam = 1) or of order r*n with alpha**n = lam (constacyclic case,
    lam of order r).  Requires r*n | q - 1 so that all roots lie in
    the coefficient field.
    """
    arith = packed_field(field, n)
    powers = _root_powers(arith, n, lam, T.modulus)
    reduce = arith.reduce
    # g <- x*g - alpha**i * g, constant term first, one reduce per
    # coefficient; g stays monic
    g = [arith.one]
    for i in T.elements:
        minus_root = arith.neg(powers[i])
        g = [reduce(lo + minus_root * hi)
             for lo, hi in zip([0] + g, g)] + [arith.one]
    if any(binomial_remainder(arith, g, n, arith.encode(lam))):
        raise NotDividing("generator does not divide x**n - lam")
    return CyclicSpec(field, n, lam, T, tuple(map(arith.decode, g)),
                      arith.decode(powers[1 % T.modulus]))


def binomial_remainder(arith: PackedField, g: list, n: int,
                       lam: int) -> list:
    """The remainder of x**n - lam modulo the monic g of degree d, as its
    d low coefficients (x**n - lam itself when d > n), constant term
    first, by long division on the packed values of ``arith``, which
    must hold sums of d products: the n-term layout of a generator.

    Coefficient j collects its updates -r*g[i] unreduced; it gets one
    from each of the d leading coefficients above it, so it holds at
    most d products plus its one starting value, which the layout
    holds.  Each coefficient is reduced once: when it leads, before its
    zero test, or at the end when it is one of the d low ones."""
    reduce = arith.reduce
    d = len(g) - 1
    minus_g = [arith.neg(c) for c in g[:d]]
    rem = [arith.neg(lam)] + [0] * (n - 1) + [arith.one]
    for top in range(n, d - 1, -1):
        r = reduce(rem[top])
        if r:
            base = top - d
            for i, c in enumerate(minus_g):
                rem[base + i] += r * c
    return list(map(reduce, rem[:d]))


def cyclic_generator_matrix(spec: CyclicSpec) -> LinearCode:
    """Rows are x**i * g(x), i = 0..k-1: g has degree n - k, so no row
    reaches x**n and none is reduced modulo x**n - lam."""
    k = spec.k
    if k < 0:
        raise ValueError("defining set larger than the length")
    zero = (spec.field.zero,)
    return LinearCode(spec.field, spec.n, k, tuple(
        zero * i + spec.g + zero * (k - 1 - i) for i in range(k)))


# ---------------------------------------------------------------------------
# self-duality
# ---------------------------------------------------------------------------

def _gram_is_zero(rows, field: Field, conjugate: bool = False) -> bool:
    """Whether every inner product of two rows is 0, or of a row with
    the conjugate of a row (``conjugate``, over a tower).

    Each entry is one integer dot product of packed rows, reduced once
    on the n-term layout of ``packed_field(field, n)``, and a nonzero
    entry stops the packing.  Entry (j, i) is entry (i, j) or its
    conjugate, so the two are zero together: only the entries j <= i
    are computed, each row packed once and its conjugate, taken on the
    values, once.
    """
    if not rows:
        return True
    arith = packed_field(field, len(rows[0]))
    pack, reduce = arith.pack, arith.reduce
    seen = []
    for row in rows:
        values = [x.value for x in row]
        packed = list(map(pack, values))
        seen.append(list(map(pack, map(field._conj, values))) if conjugate
                    else packed)
        if any(reduce(sum(map(operator.mul, packed, other)))
               for other in seen):
            return False
    return True


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
    n-term layout of ``packed_field(field, n)``."""
    arith = packed_field(code.field, code.n)
    minus_gamma = arith.encode(-gamma)
    rows = tuple((*row, arith.decode(arith.reduce(
        minus_gamma * sum(map(arith.encode, row)))))
        for row in code.generator)
    return LinearCode(code.field, code.n + 1, code.k, rows)


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
    """``DlogTable.min_weight`` of ``rows``, which must be independent,
    or for k = 1 the weight of the lone row, after ``_check_scan``.  The
    table needs no guard of its own: its q entries cost less than the
    (q**k - 1)/(q - 1) >= q + 1 words the scan visits, which the
    codeword guard bounds.
    """
    k = len(rows)
    _check_scan(field, k, guards)
    if k == 1:
        return len(rows[0]) - rows[0].count(field.zero)
    table = dlog_table(field, field.order)
    return table.min_weight([[table.encode(x) for x in row] for row in rows])


def min_distance_exhaustive(code: LinearCode,
                            guards: GuardConfig | None = None) -> int:
    """Exact minimum distance by scanning all q**k codewords.

    One representative per scalar class is enough, so the walk visits
    (q**k - 1)/(q - 1) words; the guard is still stated on q**k.
    """
    return _projective_scan(code.field, code.generator,
                            current_guards(guards))


def extension_weight_audit(code: LinearCode,
                           guards: GuardConfig | None = None):
    """(min distance, all-minimum-weight-words-have-nonzero-sum).

    Appending the coordinate sum (its sign changes no weight) raises the
    weight of exactly the words with a nonzero sum, so the extended rows
    span a code of distance d + 1 iff every word of weight d has one.
    """
    guards = current_guards(guards)
    field, rows = code.field, code.generator
    d = _projective_scan(field, rows, guards)
    extended = [(*row, functools.reduce(operator.add, row)) for row in rows]
    return d, _projective_scan(field, extended, guards) == d + 1


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
    derived from (n, k, q) and tests each minor on R.  The searches run
    on log-table ints within ``dlog_limit`` and on packed values beyond
    that guard.  The root-run certificate is a rung of ``certify_mds``.
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
    # one encoding for both searches, chosen once
    arith = (dlog_table(code.field, guards.dlog_limit)
             or packed_field(code.field))
    if mode == "exhaustive-columns":
        columns = [list(map(arith.encode, col))
                   for col in zip(*code.generator)]
        witness = first_dependent_subset(columns, k, arith.zero,
                                         arith.eliminate)
        return MdsVerdict("certified-exact" if witness is None
                          else "refuted", witness=witness)
    # R = M G with M invertible and R's pivot columns the unit vectors:
    # G_S is singular exactly when R restricted to the rows of the pivots
    # outside S and the columns of S that are not pivots is singular
    reduced, pivots = form.rows_on(arith), form.pivots
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
    delta - 1 check columns form a scaled Vandermonde matrix."""
    if punctured:
        try:
            code = LinearCode(code.field, code.n - 1, code.k,
                              tuple(row[:-1] for row in code.generator))
        except ValueError:
            return "the first n - 1 coordinates lose a dimension"
    field, n, m = code.field, code.n, T.modulus
    if lam is None:
        return "no lambda to place the roots of the defining set"
    if m // T.step < n:
        return "defining set modulus %d does not fit n = %d" % (m, n)
    arith = packed_field(field, n)
    try:
        powers = _root_powers(arith, n, lam, m)
    except (ZeroElement, RootsNotInField, ValueError) as exc:
        return "roots do not fit n = %d: %s" % (n, exc)
    # V has |T| * n entries alpha**(e*j) but only the m packed powers;
    # a row times a column of V is exact on the n-term layout
    checks = [[powers[e * j % m] for j in range(n)] for e in T.elements]
    rows = (list(map(arith.encode, row)) for row in code.generator)
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
    the rows vanish at the roots the shift constant ``lam`` places); seeded
    Monte-Carlo, reported as ``certified-structural`` with d = n - k + 1
    when ``structural`` vouches that the code is an evaluation (GRS)
    code.  ``mode="auto"`` takes the first rung the guards afford and
    the facts allow; any other mode names the rung.  Refutations and
    guard stops come back as verdicts, never as exceptions; fewer than
    one trial is refused with ``MalformedInput``.
    """
    _check_trials(trials)
    guards = current_guards(guards)
    n, k, q = code.n, code.k, code.field.order
    target = n - k + 1
    tier = mode
    if mode == "auto":
        subsets = comb(n, k)
        if q ** k <= guards.exhaustive_tier_limit:
            tier = "exhaustive"
        elif (subsets <= guards.column_limit
                and subsets * k ** 3 <= guards.column_work_limit
                and q <= guards.dlog_limit):
            tier = "columns"
        elif defining is not None:
            tier = "bch"
        elif extended_defining is not None:
            tier = "extended-bch"
        else:
            tier = "monte-carlo"

    if tier == "exhaustive":
        try:
            _check_scan(code.field, k, guards)
            # in auto mode a Cauchy-like reduced form proves
            # d = n - k + 1 without the scan
            if mode == "auto" and code._reduced(guards).cauchy:
                d = target
            else:
                d = min_distance_exhaustive(code, guards)
        except GuardExceeded as exc:
            return MdsCertificate(
                tier, MdsVerdict("guarded"), reason=exc.message,
                warning=exc.message + "; no distance computed")
        if d != target:
            return MdsCertificate(
                tier, MdsVerdict("refuted"), distance_exact=d,
                reason="measured distance %d, expected %d" % (d, target))
        return MdsCertificate(tier, MdsVerdict("certified-exact"),
                              distance_exact=d)
    if tier in ("columns", "monte-carlo"):
        try:
            verdict = mds_check(code, "exhaustive-columns"
                                if tier == "columns" else tier,
                                trials=trials, guards=guards)
        except GuardExceeded as exc:
            return MdsCertificate(tier, MdsVerdict("guarded"),
                                  reason=exc.message, warning=exc.message)
        if verdict.status == "refuted":
            return MdsCertificate(
                tier, verdict,
                reason="singular column subset %r" % (verdict.witness,))
        if verdict.status == "certified-exact":
            return MdsCertificate(tier, verdict, distance_exact=target)
        if structural:
            return MdsCertificate(
                tier, MdsVerdict("certified-structural", trials=verdict.trials,
                                 passes=verdict.passes),
                distance_exact=target)
        return MdsCertificate(tier, verdict)
    if tier in ("bch", "extended-bch"):
        facts = defining if tier == "bch" else extended_defining
        if facts is None:
            raise NoCyclicStructure("no defining set in the code metadata")
        # an extended code's run certifies the [n-1, k] code before the
        # extension; appending a coordinate never lowers weights
        bound = consecutive_run(facts) + 1
        if bound < (target if tier == "bch" else target - 1):
            reason = "root run too short"
        else:
            reason = _roots_mismatch(code, facts, lam, tier == "extended-bch")
        if reason is not None:
            return MdsCertificate(tier, MdsVerdict("inconclusive"),
                                  reason=reason)
        return MdsCertificate(tier, MdsVerdict("certified-bch"),
                              distance_lower_bound=bound)
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def code_to_json(code: LinearCode, metadata: dict | None = None):
    return {
        "field": field_to_json(code.field),
        "n": code.n,
        "k": code.k,
        "generator": [[element_to_json(x) for x in row]
                      for row in code.generator],
        "metadata": metadata or {},
    }


def code_from_json(obj):
    field = field_from_json(obj["field"])
    n = json_int(obj["n"])
    k = json_int(obj["k"])
    if k < 1:
        # the zero code has no codeword, distance or column subset to
        # verify; LinearCode still allows it as the dual of a k = n code
        raise MalformedInput("a code record needs k >= 1, got k = %d" % k)
    rows = tuple(
        tuple(element_from_json(field, x) for x in row)
        for row in obj["generator"]
    )
    code = LinearCode(field, n, k, rows)
    return code, obj.get("metadata", {})
