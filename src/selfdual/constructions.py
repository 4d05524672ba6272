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
    binomial_remainder,
    certify_mds,
    code_to_json,
    cyclic_generator_matrix,
    extend_code,
    generator_from_defining_set,
    is_euclidean_self_dual,
    is_hermitian_self_dual,
)
from .config import GuardConfig, current_guards
from .cosets import DefiningSet, SplittingReport, check_duadic_splitting
from .errors import (
    CharDividesN,
    DuplicatePoints,
    GuardExceeded,
    MalformedInput,
    NoGamma,
    NoSolution,
    NotDividing,
    NotPrime,
    OddLength,
    PreconditionFailed,
    SplittingFailed,
    TooLong,
    VerificationFailed,
)
from .fields import (
    Element,
    Field,
    TowerSpec,
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
from .linalg import packed_field
from .numtheory import gamma_solvability, is_prime


def _v2(x: int) -> int:
    """The 2-adic valuation of x; -1 for x = 0, which every caller refuses."""
    return (x & -x).bit_length() - 1


def _route_field(p: int, t: int, guards: GuardConfig | None,
                 degree: int = 1) -> Field:
    """Canonical GF(p^t) for a route that computes in GF(p^(t*degree)),
    refused when that largest field exceeds the size guard."""
    field = make_field(p, t)
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
    element of the solution coset of the norm kernel.
    """
    base = tower.base
    nbar = base.scalar(n)
    if not nbar:
        raise CharDividesN("n = %d vanishes in characteristic %d"
                           % (n, tower.char))
    v = solve_norm(tower, -(nbar.inverse()), guards)
    q = base.order
    kernel_gen = find_primitive_element(tower) ** (q - 1)
    best = v
    cur = v
    for _ in range(q):
        cur = cur * kernel_gen
        if tower.index(cur) < tower.index(best):
            best = cur
    return best


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


def _verified_report(code: LinearCode, euclidean: bool,
                     hermitian: bool | None, guards: GuardConfig,
                     **facts) -> VerificationReport:
    """Certify MDS through the tier ladder or refuse the code.

    ``facts`` are the ``certify_mds`` keywords the route can vouch for.
    A guarded rung raises ``GuardExceeded``, any other verdict short of
    a certificate raises ``VerificationFailed``.  A lower bound that
    meets the Singleton bound n - k + 1 is reported as the exact
    distance.
    """
    cert = certify_mds(code, guards=guards, **facts)
    if cert.verdict.status == "guarded":
        raise GuardExceeded(cert.reason)
    if not cert.verdict.status.startswith("certified-"):
        raise VerificationFailed(_UNCERTIFIED_PREDICATE[cert.tier],
                                 cert.reason or "")
    d_exact, d_lower = cert.distance_exact, cert.distance_lower_bound
    if d_lower == code.n - code.k + 1:
        d_exact, d_lower = d_lower, None
    return VerificationReport(euclidean, hermitian, d_exact, d_lower,
                              cert.verdict)


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
    spec = generator_from_defining_set(field, n, field.one, T)
    duadic = cyclic_generator_matrix(spec)
    try:
        gamma = solve_gamma_euclidean(field, n)
    except NoSolution as exc:
        verdict = gamma_solvability(p, t, n, guards)
        raise NoGamma("%s [case %s]" % (exc, verdict.case)) from exc
    code = extend_code(duadic, gamma)
    if not is_euclidean_self_dual(code):
        raise VerificationFailed("euclidean_self_dual")
    report = _verified_report(code, True, None, guards, extended_defining=T,
                              lam=field.one)
    return ConstructionResult(code, "Thm2", "euclidean-duadic", report,
                              gamma=gamma, cyclic=spec)


# ---------------------------------------------------------------------------
# Hermitian GRS codes
# ---------------------------------------------------------------------------

def build_grs_hermitian(p: int, t: int, n: int, points=None,
                        guards: GuardConfig | None = None
                        ) -> ConstructionResult:
    """[n, n/2, n/2+1] Hermitian self-dual GRS code over GF(q^2).

    Rows are (v_i * a_i**l) for l < n/2 over n distinct evaluation
    points a_i of GF(q), where each v_i solves v**(q+1) = u_i for the
    interpolation weight u_i.
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

    # row l is (v_i * a_i**l): each row is the one before times the points
    emb = [tower.embed(a) for a in pts]
    k = n // 2
    rows = [tuple(v)]
    for _ in range(k - 1):
        rows.append(tuple(x * ai for x, ai in zip(rows[-1], emb)))
    code = LinearCode(tower, n, k, tuple(rows))

    if not is_hermitian_self_dual(code):
        raise VerificationFailed("hermitian_self_dual")
    # moment m is sum u_i * a_i**m, over the running terms u_i * a_i**m
    terms = u
    for m in range(n - 1):
        if sum(terms, field.zero):
            raise VerificationFailed("interpolation_moment", "m = %d" % m)
        terms = [term * ai for term, ai in zip(terms, pts)]
    for ui, vi in zip(u, v):
        if vi ** (q + 1) != tower.embed(ui):
            raise VerificationFailed("norm_choice")
    report = _verified_report(code, is_euclidean_self_dual(code), True,
                              guards, structural=True)
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
    image = {(-q * x) % (r * n) for x in T.elements}
    if image & set(T.elements):
        raise SplittingFailed("defining set meets its own -q multiple")
    spec = generator_from_defining_set(tower, n, lam, T)
    code = cyclic_generator_matrix(spec)
    if not is_hermitian_self_dual(code):
        raise VerificationFailed("hermitian_self_dual")
    report = _verified_report(code, is_euclidean_self_dual(code), True,
                              guards, defining=T, lam=lam)
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

def _build_hermitian_extension(tower: TowerSpec, spec: CyclicSpec,
                               construction: str, theorem: str,
                               guards: GuardConfig | None):
    duadic = cyclic_generator_matrix(spec)
    gamma = solve_gamma_hermitian(tower, spec.n, guards)
    code = extend_code(duadic, gamma)
    if not is_hermitian_self_dual(code):
        raise VerificationFailed("hermitian_self_dual")
    report = _verified_report(code, is_euclidean_self_dual(code), True,
                              guards, extended_defining=spec.defining,
                              lam=spec.lam)
    return ConstructionResult(code, theorem, construction, report,
                              gamma=gamma, cyclic=spec)


def build_hermitian_extended_duadic(p: int, t: int, n: int,
                                    guards: GuardConfig | None = None
                                    ) -> ConstructionResult:
    """[n+1, (n+1)/2, (n+3)/2] Hermitian self-dual code over GF(q^2).

    The length n cyclic code over GF(q^2) with root exponents
    1..(n-1)/2 is extended through 1 + g**(q+1) * n = 0.  Requires odd
    q, n >= 3, n | q - 1 and gcd(n, q+1) = 1; the x -> -q*x multiplier
    splitting is checked rather than assumed.
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
    rep = check_duadic_splitting(T, -q, n, q * q)
    if not rep.is_splitting:
        raise SplittingFailed("witness %r" % (rep.witness,))
    spec = generator_from_defining_set(tower, n, tower.one, T)
    return _build_hermitian_extension(tower, spec, "hermitian-duadic",
                                      "Thm8", guards)


def build_hermitian_n5(p: int, t: int,
                       guards: GuardConfig | None = None
                       ) -> ConstructionResult:
    """[6, 3, 4] Hermitian self-dual code over GF(q^2) when 5 | q^2 + 1.

    The length-5 cyclic code has root exponents {2, 3}, one coset under
    multiplication by q^2 (which is -1 mod 5).  Its quadratic generator
    is computed in GF(q^4) and its coefficients descend to GF(q^2).
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
    b2, b3 = beta ** 2, beta ** 3
    (s, s_y), (prod, prod_y) = quartic.parts(b2 + b3), quartic.parts(b2 * b3)
    if s_y or prod_y:
        raise VerificationFailed("coefficient_descent",
                                 "generator coefficients are not in GF(q^2)")
    g = (prod, -s, tower.one)
    arith = packed_field(tower, 5)
    if any(binomial_remainder(arith, list(map(arith.encode, g)), 5,
                              arith.one)):
        raise NotDividing("generator does not divide x^5 - 1")
    T = DefiningSet(5, (2, 3))
    rep = check_duadic_splitting(T, -q, 5, q * q)
    if not rep.is_splitting:
        raise SplittingFailed("witness %r" % (rep.witness,))
    spec = CyclicSpec(tower, 5, tower.one, T, g, None)
    return _build_hermitian_extension(tower, spec, "hermitian-n5",
                                      "Thm7", guards)


def check_centered_duadic_splitting(p: int, t: int, n: int) -> SplittingReport:
    """Check the x -> -q*x splitting for the centered defining set
    {(n+3)/4, ..., (3n-3)/4} modulo n, for odd n | q^2 + 1 with
    n = 1 (mod 4).  Reports the witness when the splitting fails."""
    if not is_prime(p):
        raise NotPrime("p = %d is not prime" % p)
    q = p ** t
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
