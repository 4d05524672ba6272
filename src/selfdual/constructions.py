"""MDS self-dual code builders.  Every result is verified before return.

Three families are covered: extended duadic cyclic codes with a
Euclidean pairing over GF(q); generalized Reed-Solomon and constacyclic
codes with a Hermitian pairing over GF(q^2); and the odd-length
Hermitian extended duadic family, including the special length-5 code
whose generator coefficients descend from GF(q^4).

A builder raises a domain error when its preconditions fail and
``VerificationFailed`` when a constructed code does not check out; it
never returns an unverified code.
"""
from __future__ import annotations

from math import gcd

from .codes import (
    CyclicSpec,
    LinearCode,
    VerificationReport,
    code_to_json,
    cyclic_generator_matrix,
    extend_code,
    generator_from_defining_set,
    verify_code,
)
from .config import GuardConfig, current_guards
from .cosets import DefiningSet, SplittingReport, check_duadic_splitting
from .errors import (
    CharDividesN,
    DiscreteLogGuardExceeded,
    DuplicatePoints,
    GuardExceeded,
    MalformedInput,
    NoGamma,
    NoSolution,
    OddLength,
    PreconditionFailed,
    TooLong,
    VerificationFailed,
)
from .fields import (
    Element,
    Field,
    TowerSpec,
    admit_field,
    check_field_size,
    element_to_json,
    find_primitive_element,
    make_field,
    nth_root_of_unity,
    quadratic_extension,
    solve_norm,
    sqrt_in_field,
)
from .frozen import Frozen
from .numtheory import gamma_solvability


def _v2(x: int) -> int:
    """The 2-adic valuation of x; -1 for x = 0, which every caller refuses."""
    return (x & -x).bit_length() - 1


def _route_field(p: int, t: int, guards: GuardConfig,
                 degree: int = 1) -> Field:
    """Canonical GF(p^t) for a route that computes in GF(p^(t*degree)),
    refused unless ``check_field_size`` admits that largest field."""
    field = make_field(p, t, guards=guards)
    check_field_size(field.order ** degree, guards)
    return field


# ---------------------------------------------------------------------------
# gamma solvers
# ---------------------------------------------------------------------------

def solve_gamma_euclidean(field: Field, n: int) -> Element:
    """Canonically least g with 1 + g**2 * n = 0 in the field."""
    nbar = field.scalar(n)
    if not nbar:
        raise CharDividesN("n = %d vanishes in characteristic %d"
                           % (n, field.char))
    root = sqrt_in_field(-(nbar.inverse()))
    if root is None:
        raise NoSolution("1 + g**2 * %d = 0 has no solution in GF(%d)"
                         % (n, field.order))
    return root


def solve_gamma_hermitian(tower: TowerSpec, n: int,
                          guards: GuardConfig | None = None) -> Element:
    """Canonically least g in GF(q^2) with 1 + g**(q+1) * n = 0.

    The norm onto the base field is surjective, so a solution always
    exists once n is a unit; the canonical representative is the least
    element of the solution coset of the norm kernel, the q + 1
    products of one solution with the powers of g**(q - 1).  They are
    scanned as packed canonical values, whose coordinates sit in lanes
    in the digit order of the index, so their int order is the index
    order.
    """
    base = tower.base
    nbar = base.scalar(n)
    if not nbar:
        raise CharDividesN("n = %d vanishes in characteristic %d"
                           % (n, tower.char))
    v = solve_norm(tower, -(nbar.inverse()), guards)
    q = base.order
    pack, reduce, unpack = tower._layout(1)
    step = pack((find_primitive_element(tower) ** (q - 1)).value)
    best = cur = pack(v.value)
    for _ in range(q):
        cur = reduce(cur * step)
        if cur < best:
            best = cur
    return Element(tower, unpack(best))


# ---------------------------------------------------------------------------
# verification tiers
# ---------------------------------------------------------------------------

# the VerificationFailed predicate for a rung that certified nothing
_UNCERTIFIED_PREDICATE = {
    "exhaustive": "mds_distance",
    "columns": "mds_columns",
    "bch": "bch_bound",
    "extended-bch": "bch_bound",
    "monte-carlo": "mds_monte_carlo",
}


def _verified_report(code: LinearCode, guards: GuardConfig,
                     **facts) -> VerificationReport:
    """``verify_code``'s report on a built code, or a refusal.

    Every route promises the self-duality its field names, as
    ``verify --inner auto`` reads it: Hermitian over a quadratic tower,
    Euclidean otherwise.  ``facts`` are the ``certify_mds`` keywords the
    route can vouch for.  A code that is not self-dual raises
    ``VerificationFailed``, a guarded rung ``GuardExceeded``, and any
    other verdict short of a certificate ``VerificationFailed``.  A
    lower bound that meets the Singleton bound n - k + 1 is reported as
    the exact distance.
    """
    report, cert = verify_code(code, guards=guards, **facts)
    inner = ("hermitian" if isinstance(code.field, TowerSpec)
             else "euclidean")
    if not getattr(report, inner + "_self_dual"):
        raise VerificationFailed(inner + "_self_dual")
    if cert.verdict.status == "guarded":
        raise GuardExceeded(cert.reason)
    if not cert.verdict.status.startswith("certified-"):
        raise VerificationFailed(_UNCERTIFIED_PREDICATE[cert.tier],
                                 cert.reason or "")
    if report.distance_lower_bound == code.n - code.k + 1:
        return VerificationReport(report.euclidean_self_dual,
                                  report.hermitian_self_dual,
                                  report.distance_lower_bound, None,
                                  report.mds)
    return report


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

class ConstructionResult(Frozen):
    """A verified code plus the route that produced it.

    Two results are equal only when they are the same object.
    """

    _fields = ("code", "theorem", "construction", "report", "gamma",
               "cyclic", "extras")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, code: LinearCode, theorem: str, construction: str,
                 report: VerificationReport, gamma: Element | None = None,
                 cyclic: CyclicSpec | None = None,
                 extras: dict | None = None):
        self._assign(code, theorem, construction, report, gamma, cyclic,
                     extras)

    def renamed(self, theorem: str,
                construction: str | None = None) -> "ConstructionResult":
        """This result under another theorem, and construction if given."""
        return ConstructionResult(self.code, theorem,
                                  construction or self.construction,
                                  self.report, self.gamma, self.cyclic,
                                  self.extras)

    def to_json(self):
        meta: dict = {"construction": self.construction}
        if self.gamma is not None:
            meta["gamma"] = element_to_json(self.gamma)
        if self.cyclic is not None:
            meta["defining_set"] = self.cyclic.defining.to_json()
            meta["lambda"] = element_to_json(self.cyclic.lam)
        if self.extras:
            meta.update(self.extras)
        out = code_to_json(self.code, meta)
        out["theorem"] = self.theorem
        out["verification"] = self.report.to_json()
        return out


def _extended(spec: CyclicSpec, gamma: Element, construction: str,
              theorem: str, guards: GuardConfig) -> ConstructionResult:
    """The cyclic code of ``spec`` extended through ``gamma``, verified
    with its defining set before extension and its shift constant."""
    code = extend_code(cyclic_generator_matrix(spec), gamma)
    report = _verified_report(code, guards, extended_defining=spec.defining,
                              lam=spec.lam)
    return ConstructionResult(code, theorem, construction, report,
                              gamma=gamma, cyclic=spec)


# ---------------------------------------------------------------------------
# Euclidean extended duadic codes
# ---------------------------------------------------------------------------

def build_euclidean_duadic_extended(p: int, t: int, n: int,
                                    guards: GuardConfig | None = None
                                    ) -> ConstructionResult:
    """[n+1, (n+1)/2, (n+3)/2] Euclidean self-dual code over GF(p**t).

    The duadic half with root exponents 1..(n-1)/2 is extended by the
    column -g * (row sum) where 1 + g**2 * n = 0.  Requires odd n >= 3
    coprime to p with n | q - 1; ``NoGamma`` signals the solvability
    obstruction.
    """
    guards = current_guards(guards)
    field = _route_field(p, t, guards)
    q = field.order
    if n % 2 == 0 or n < 3:
        raise PreconditionFailed("EvenN", "length n = %d must be odd, >= 3" % n)
    if n % p == 0:
        raise PreconditionFailed(
            "NotCoprime", "n = %d shares the characteristic %d" % (n, p)
        )
    if (q - 1) % n != 0:
        raise PreconditionFailed(
            "NotDivisor", "n = %d does not divide q - 1 = %d" % (n, q - 1)
        )
    T = DefiningSet(n, tuple(range(1, (n + 1) // 2)))
    spec = generator_from_defining_set(field, n, field.one, T, guards)
    try:
        gamma = solve_gamma_euclidean(field, n)
    except NoSolution as exc:
        verdict = gamma_solvability(p, t, n, guards)
        raise NoGamma("%s [case %s]" % (exc, verdict.case)) from exc
    return _extended(spec, gamma, "euclidean-duadic", "Thm2", guards)


# ---------------------------------------------------------------------------
# Hermitian GRS codes
# ---------------------------------------------------------------------------

def build_grs_hermitian(p: int, t: int, n: int, points=None,
                        guards: GuardConfig | None = None
                        ) -> ConstructionResult:
    """[n, n/2, n/2+1] Hermitian self-dual GRS code over GF(q^2).

    Rows are (v_i * a_i**l) for l < n/2 over n distinct evaluation
    points a_i of GF(q), where each v_i solves v**(q+1) = u_i for the
    interpolation weight u_i (Jin-Xing, IEEE TIT 2017).  The moments
    sum u_i * a_i**m and the norms v_i**(q+1) are not checked on their
    own: they are the ingredients of Hermitian self-duality, which the
    Gram check of the returned rows decides exactly.
    """
    guards = current_guards(guards)
    field = _route_field(p, t, guards, 2)
    q = field.order
    if n % 2 != 0 or n < 2:
        raise OddLength("length n = %d must be even and >= 2" % n)
    if n > q:
        raise TooLong("length n = %d exceeds q = %d" % (n, q))
    if points is None:
        indices = list(range(n))
    else:
        indices = [int(i) for i in points]
        if len(indices) != n:
            raise MalformedInput("expected %d evaluation points" % n)
        if any(i < 0 or i >= q for i in indices):
            raise MalformedInput("point index out of range for GF(%d)" % q)
        if len(set(indices)) != n:
            raise DuplicatePoints("evaluation points must be distinct")
    pts = [field.from_int(i) for i in indices]
    tower = quadratic_extension(field)

    u = []
    for i, a in enumerate(pts):
        prod = field.one
        for j, b in enumerate(pts):
            if j != i:
                prod = prod * (a - b)
        u.append(prod.inverse())
    v = [solve_norm(tower, ui, guards) for ui in u]

    # row l is (v_i * a_i**l): each row is the one before times the
    # points, on values
    emb = [tower.embed(a).value for a in pts]
    k = n // 2
    rows = [tuple([x.value for x in v])]
    for _ in range(k - 1):
        rows.append(tuple(map(tower._mul, rows[-1], emb)))
    code = LinearCode._from_values(tower, n, k, tuple(rows), guards)
    report = _verified_report(code, guards, structural=True)
    return ConstructionResult(
        code, "Thm3", "grs-hermitian", report,
        # the record names the one choice of v there is, as it always has
        extras={"points": indices, "v_choice": "norm"},
    )


# ---------------------------------------------------------------------------
# Hermitian constacyclic codes
# ---------------------------------------------------------------------------

def build_constacyclic_hermitian(p: int, t: int, n: int, r: int,
                                 guards: GuardConfig | None = None
                                 ) -> ConstructionResult:
    """[n, n/2, n/2+1] Hermitian self-dual constacyclic code over GF(q^2).

    The shift constant has order r; the defining set is the run
    {1 + r*j : j < n/2} inside the class 1 (mod r) taken modulo r*n.
    Preconditions: odd q; even n and r; r*n | q**2 - 1;
    r*n | 2(q+1); and writing n = 2**a n', r = 2**b r', the excluded
    congruence q = -1 (mod 2**(a+b)) must not hold.

    They prove that x -> -q*x maps T onto the rest of the class, so no
    splitting is checked.  2**(a+b) exactly divides rn, and rn | 2(q+1)
    while q + 1 is not a multiple of 2**(a+b), so (q + 1)/(rn/2) is odd
    and -q = 1 - (q + 1) = 1 + rn/2 (mod rn).  As r is even, r*rn/2 = 0
    (mod rn), so -q*(1 + rj) = 1 + r(j + n/2) and
    -q*T = {1 + rj : n/2 <= j < n}.
    """
    guards = current_guards(guards)
    field = _route_field(p, t, guards, 2)
    q = field.order
    if q % 2 == 0:
        raise PreconditionFailed("EvenQ", "q must be odd")
    a = _v2(n)
    if n < 2 or a == 0:
        raise PreconditionFailed("OddLength", "n = %d must be even > 0" % n)
    b = _v2(r)
    if r < 2 or b == 0:
        raise PreconditionFailed("OddShiftOrder", "r = %d must be even > 0" % r)
    if (q * q - 1) % (r * n) != 0:
        raise PreconditionFailed(
            "OrderNotInField", "r*n = %d does not divide q^2 - 1" % (r * n)
        )
    if (2 * (q + 1)) % (r * n) != 0:
        raise PreconditionFailed(
            "NotDividingTwoQPlus1", "r*n = %d does not divide 2(q+1)" % (r * n)
        )
    if q % (2 ** (a + b)) == 2 ** (a + b) - 1:
        raise PreconditionFailed(
            "BadTwoAdicCongruence", "q = -1 (mod 2^%d)" % (a + b)
        )
    tower = quadratic_extension(field)
    lam = nth_root_of_unity(tower, r)
    T = DefiningSet(r * n, tuple(1 + r * j for j in range(n // 2)), step=r)
    spec = generator_from_defining_set(tower, n, lam, T, guards)
    code = cyclic_generator_matrix(spec)
    report = _verified_report(code, guards, defining=T, lam=lam)
    return ConstructionResult(code, "Thm4", "constacyclic", report,
                              cyclic=spec, extras={"r": r})


def build_negacyclic_hermitian(p: int, t: int, n: int,
                               guards: GuardConfig | None = None
                               ) -> ConstructionResult:
    """Shift constant -1: the r = 2 instance with its own preconditions.

    Writing n = 2**a n', requires q = 2**a - 1 (mod 2**(a+1)) and
    2**a n'' | q + 1 for some odd multiple n'' of n' (equivalently
    2**a n' | q + 1).
    """
    guards = current_guards(guards)
    field = _route_field(p, t, guards, 2)
    q = field.order
    a = _v2(n)
    if n < 2 or a == 0:
        raise PreconditionFailed("OddLength", "n = %d must be even > 0" % n)
    n_odd = n >> a
    if (q + 1) % (2 ** a * n_odd) != 0:
        raise PreconditionFailed(
            "NoOddWitness", "2^%d * %d does not divide q + 1" % (a, n_odd)
        )
    if q % (2 ** (a + 1)) != 2 ** a - 1:
        raise PreconditionFailed(
            "BadTwoAdicCongruence",
            "q is not 2^%d - 1 modulo 2^%d" % (a, a + 1),
        )
    result = build_constacyclic_hermitian(p, t, n, 2, guards)
    return result.renamed("Cor2", "negacyclic")


# ---------------------------------------------------------------------------
# Hermitian extended duadic codes (odd length over GF(q^2))
# ---------------------------------------------------------------------------

def build_hermitian_extended_duadic(p: int, t: int, n: int,
                                    guards: GuardConfig | None = None
                                    ) -> ConstructionResult:
    """[n+1, (n+1)/2, (n+3)/2] Hermitian self-dual code over GF(q^2).

    The length n cyclic code over GF(q^2) with root exponents
    1..(n-1)/2 is extended through 1 + g**(q+1) * n = 0.  Requires odd
    q, n >= 3, n | q - 1 and gcd(n, q+1) = 1.

    The x -> -q*x splitting follows, so it is not checked: q + 1 is
    even and prime to n, so n is odd, and n | q - 1 gives -q = -1 and
    q**2 = 1 (mod n).  Every q**2-coset is a single residue, and
    x -> -x maps 1..(n-1)/2 onto (n+1)/2..n-1, the rest of Z_n minus
    {0}.
    """
    guards = current_guards(guards)
    field = _route_field(p, t, guards, 2)
    q = field.order
    if q % 2 == 0:
        raise PreconditionFailed("EvenQ", "q must be odd")
    if n < 3:
        raise PreconditionFailed("LengthTooSmall", "n = %d must be >= 3" % n)
    if (q - 1) % n != 0:
        raise PreconditionFailed(
            "NotDivisor", "n = %d does not divide q - 1 = %d" % (n, q - 1)
        )
    if gcd(n, q + 1) != 1:
        raise PreconditionFailed(
            "NotCoprimeQPlus1", "gcd(n, q+1) = %d" % gcd(n, q + 1)
        )
    tower = quadratic_extension(field)
    T = DefiningSet(n, tuple(range(1, (n + 1) // 2)))
    spec = generator_from_defining_set(tower, n, tower.one, T, guards)
    return _extended(spec, solve_gamma_hermitian(tower, n, guards),
                     "hermitian-duadic", "Thm8", guards)


def build_hermitian_n5(p: int, t: int,
                       guards: GuardConfig | None = None
                       ) -> ConstructionResult:
    """[6, 3, 4] Hermitian self-dual code over GF(q^2) when 5 | q^2 + 1.

    The length-5 cyclic code has root exponents {2, 3}, one coset under
    multiplication by q^2 (which is -1 mod 5).  Its quadratic generator
    (x - b**2)(x - b**3) = x**2 - s*x + 1, for b a 5th root of unity in
    GF(q^4), has s = b**2 + b**3 in GF(q^2).

    None of this is checked, for q**2 = -1 (mod 5) proves it: the
    Frobenius x -> x**(q**2), which fixes exactly GF(q^2), swaps b**2
    and b**3, so it fixes s; the constant term is b**5 = 1; and b**2
    and b**3 are distinct roots of x**5 - 1.  As q = 2 or 3 (mod 5),
    -q*{2, 3} = {1, 4}, the other q**2-coset: the x -> -q*x splitting
    holds.
    """
    guards = current_guards(guards)
    field = _route_field(p, t, guards, 4)
    q = field.order
    if q % 2 == 0:
        raise PreconditionFailed("EvenQ", "q must be odd")
    if (q * q + 1) % 5 != 0:
        raise PreconditionFailed(
            "NotDividingQSquaredPlus1", "5 does not divide q^2 + 1 = %d" % (q * q + 1)
        )
    tower = quadratic_extension(field)
    quartic = quadratic_extension(tower)
    beta = nth_root_of_unity(quartic, 5)
    s, _ = quartic.parts(beta ** 2 + beta ** 3)
    spec = CyclicSpec(tower, 5, tower.one, DefiningSet(5, (2, 3)),
                      (tower.one, -s, tower.one), None)
    return _extended(spec, solve_gamma_hermitian(tower, 5, guards),
                     "hermitian-n5", "Thm7", guards)


def check_centered_duadic_splitting(p: int, t: int, n: int,
                                    guards: GuardConfig | None = None
                                    ) -> SplittingReport:
    """Check the x -> -q*x splitting for the centered defining set
    {(n+3)/4, ..., (3n-3)/4} modulo n, for odd n | q^2 + 1 with
    n = 1 (mod 4).  Reports the witness when the splitting fails.

    GF(p^t) is admitted as ``make_field`` admits it, before any
    arithmetic on p and t, and no field is built.  The coset walks run
    over the powers of q^2 mod n and the two halves hold up to n
    residues, so an n above ``dlog_limit`` is refused, as by
    ``selfdual splitting``.
    """
    guards = current_guards(guards)
    q = admit_field(p, t, guards)
    if n > guards.dlog_limit:
        raise DiscreteLogGuardExceeded(
            "modulus n = %d exceeds the discrete-log guard %d"
            % (n, guards.dlog_limit))
    if n < 1:
        raise PreconditionFailed("LengthTooSmall",
                                 "n = %d must be >= 1" % n)
    if (q * q + 1) % n != 0:
        raise PreconditionFailed(
            "NotDividingQSquaredPlus1", "n = %d does not divide q^2 + 1" % n
        )
    if n % 4 != 1:
        raise PreconditionFailed("NotOneMod4", "n = %d must be 1 (mod 4)" % n)
    T = DefiningSet(n, tuple(range((n + 3) // 4, (3 * n - 3) // 4 + 1)))
    return check_duadic_splitting(T, -q, n, q * q)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def exists_hermitian_dispatch(p: int, t: int, n: int,
                              guards: GuardConfig | None = None
                              ) -> ConstructionResult:
    """Even lengths up to q + 1: GRS for n <= q, constacyclic r = 2 at
    n = q + 1."""
    guards = current_guards(guards)
    field = _route_field(p, t, guards, 2)
    q = field.order
    if n % 2 != 0 or n < 2:
        raise OddLength("length n = %d must be even and >= 2" % n)
    if n > q + 1:
        raise TooLong("length n = %d exceeds q + 1 = %d" % (n, q + 1))
    if n <= q:
        result = build_grs_hermitian(p, t, n, guards=guards)
    else:
        result = build_constacyclic_hermitian(p, t, n, 2, guards)
    return result.renamed("Thm5-dispatch")
