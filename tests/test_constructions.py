"""Builder routes: shapes, verification reports, and error paths.

Gamma fixtures were derived by brute scan oracles inside the tests;
structural identities (self-duality, generator divisibility, the
splittings the preconditions prove) are asserted here whether or not
the builders check them, so a regression in either place is caught.
"""
import json
import os
from collections import Counter
from math import gcd

import pytest
from oracles import gamma_hermitian_oracle, odd_prime_powers, same_code

from selfdual import codes as codes_module, constructions, linalg
from selfdual.codes import (
    VerificationReport,
    code_from_json,
    is_euclidean_self_dual,
    is_hermitian_self_dual,
    verify_code,
)
from selfdual.config import GuardConfig
from selfdual.constructions import (
    build_constacyclic_hermitian,
    build_euclidean_duadic_extended,
    build_grs_hermitian,
    build_hermitian_extended_duadic,
    build_hermitian_n5,
    build_negacyclic_hermitian,
    check_centered_duadic_splitting,
    exists_hermitian_dispatch,
    solve_gamma_euclidean,
    solve_gamma_hermitian,
)
from selfdual.cosets import DefiningSet, check_duadic_splitting
from selfdual.errors import (
    CharDividesN,
    DuplicatePoints,
    MalformedInput,
    NoGamma,
    NoSolution,
    OddLength,
    PreconditionFailed,
    TooLong,
    VerificationFailed,
)
from selfdual.fields import (
    find_primitive_element,
    make_field,
    nth_root_of_unity,
    quadratic_extension,
    solve_norm,
)


# --- gamma solvers ---

def test_gamma_euclidean_brute_least():
    for p, t, n in [(7, 1, 3), (13, 1, 3), (2, 2, 3), (3, 4, 5), (31, 1, 15)]:
        field = make_field(p, t)
        nbar = field.scalar(n)
        sols = [g for g in field.elements()
                if field.one + g * g * nbar == field.zero]
        got = solve_gamma_euclidean(field, n)
        assert got in sols
        assert field.index(got) == min(field.index(g) for g in sols)


def test_gamma_euclidean_gf7_is_three():
    field = make_field(7, 1)
    assert field.index(solve_gamma_euclidean(field, 3)) == 3


def test_gamma_euclidean_no_solution():
    with pytest.raises(NoSolution):
        solve_gamma_euclidean(make_field(11, 1), 5)
    with pytest.raises(NoSolution):
        solve_gamma_euclidean(make_field(59, 1), 29)


def test_gamma_euclidean_char_divides():
    with pytest.raises(CharDividesN):
        solve_gamma_euclidean(make_field(5, 1), 10)


def test_gamma_hermitian_brute_least():
    for p, t, n in [(3, 1, 5), (7, 1, 3), (11, 1, 5), (3, 2, 5)]:
        tower = quadratic_extension(make_field(p, t))
        q = p ** t
        nbar = tower.embed(tower.base.scalar(n))
        sols = [v for v in tower.elements()
                if tower.one + v ** (q + 1) * nbar == tower.zero]
        assert sols, "norm surjectivity guarantees a solution"
        got = solve_gamma_hermitian(tower, n)
        assert got in sols
        assert tower.index(got) == min(tower.index(v) for v in sols)


def test_gamma_hermitian_packed_scan_matches_the_element_scan():
    # every GF(q^2), q <= 60, and every n < 12 that is a unit mod p
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        for t in range(1, 6):
            if p ** t > 60:
                break
            tower = quadratic_extension(make_field(p, t))
            for n in range(1, 12):
                if n % p:
                    assert solve_gamma_hermitian(tower, n) == (
                        gamma_hermitian_oracle(tower, n)), (p, t, n)


# --- Euclidean extended duadic ---

def test_euclidean_duadic_small():
    r = build_euclidean_duadic_extended(7, 1, 3)
    assert (r.code.n, r.code.k) == (4, 2)
    assert r.report.distance_exact == 3
    assert r.report.euclidean_self_dual is True
    assert r.theorem == "Thm2" and r.construction == "euclidean-duadic"
    assert is_euclidean_self_dual(r.code)
    assert frozenset(r.cyclic.defining.elements) == {1}


def test_euclidean_duadic_char2():
    r = build_euclidean_duadic_extended(2, 4, 5)
    assert (r.code.n, r.code.k) == (6, 3)
    assert r.report.distance_exact == 4
    # odd n in characteristic 2: gamma is 1
    assert r.gamma == r.code.field.one


def test_euclidean_duadic_preconditions():
    with pytest.raises(PreconditionFailed) as err:
        build_euclidean_duadic_extended(7, 1, 4)
    assert err.value.reason == "EvenN"
    with pytest.raises(PreconditionFailed) as err:
        build_euclidean_duadic_extended(5, 4, 155)
    assert err.value.reason == "NotCoprime"
    with pytest.raises(PreconditionFailed) as err:
        build_euclidean_duadic_extended(5, 1, 3)
    assert err.value.reason == "NotDivisor"


def test_euclidean_duadic_no_gamma():
    with pytest.raises(NoGamma) as err:
        build_euclidean_duadic_extended(59, 1, 29)
    assert "QEquiv3Mod4-EvenSum" in str(err.value)


def test_euclidean_duadic_big_field_bch_bound():
    r = build_euclidean_duadic_extended(5, 6, 9)
    assert (r.code.n, r.code.k) == (10, 5)
    assert r.report.distance_exact == 6


def test_euclidean_json_shape():
    obj = build_euclidean_duadic_extended(7, 1, 3).to_json()
    assert obj["theorem"] == "Thm2"
    assert obj["n"] == 4 and obj["k"] == 2
    assert obj["metadata"]["construction"] == "euclidean-duadic"
    assert obj["metadata"]["defining_set"]["elements"] == [1]
    assert obj["verification"]["euclidean_self_dual"] is True
    assert obj["verification"]["distance"] == {"exact": 3}


# --- GRS ---

def test_grs_weights_and_scalars_gf3():
    r = build_grs_hermitian(3, 1, 2)
    tower = r.code.field
    assert (r.code.n, r.code.k) == (2, 1)
    assert r.report.hermitian_self_dual is True
    # u = (1/(0-1), 1/(1-0)) = (2, 1); v_i^4 = u_i
    v0, v1 = r.code.generator[0]
    assert v0 ** 4 == tower.embed(tower.base.from_int(2))
    assert v1 ** 4 == tower.embed(tower.base.from_int(1))


def test_grs_custom_points():
    r = build_grs_hermitian(7, 1, 4, points=[1, 3, 4, 6])
    assert r.report.hermitian_self_dual is True
    assert r.report.distance_exact == 3
    assert r.extras["points"] == [1, 3, 4, 6]


def test_grs_point_validation():
    with pytest.raises(DuplicatePoints):
        build_grs_hermitian(7, 1, 4, points=[1, 1, 2, 3])
    with pytest.raises(MalformedInput):
        build_grs_hermitian(7, 1, 4, points=[1, 2, 3])
    with pytest.raises(MalformedInput):
        build_grs_hermitian(7, 1, 4, points=[1, 2, 3, 7])
    with pytest.raises(OddLength):
        build_grs_hermitian(7, 1, 3)
    with pytest.raises(TooLong):
        build_grs_hermitian(7, 1, 8)


def one_wrong_norm(monkeypatch):
    """Make the first multiplier of the next GRS build v * g, g the
    tower's primitive element: g**(q+1) generates the base group, so for
    q > 2 that multiplier's norm is no longer its interpolation weight."""
    calls = []

    def wrong(tower, u, guards=None):
        v = solve_norm(tower, u, guards)
        calls.append(v)
        return v * find_primitive_element(tower) if len(calls) == 1 else v

    monkeypatch.setattr(constructions, "solve_norm", wrong)


@pytest.mark.parametrize("p, t, n", [(3, 1, 2), (5, 1, 2), (5, 1, 4),
                                     (7, 1, 6), (3, 2, 8)])
def test_grs_with_a_wrong_norm_is_refused_by_its_gram_check(p, t, n,
                                                            monkeypatch):
    # the builder checks no moment and no norm on its own: the Hermitian
    # Gram check of the rows refuses the code
    one_wrong_norm(monkeypatch)
    with pytest.raises(VerificationFailed) as err:
        build_grs_hermitian(p, t, n)
    assert err.value.predicate == "hermitian_self_dual"


def test_a_grs_build_reduces_nothing_and_builds_no_table(monkeypatch):
    # the rows show their points: the rank check and the MDS rung read
    # them, so no reduced form and no Zech table is made, under default
    # guards as under a dlog_limit below q**2 = 961
    forms = []
    monkeypatch.setattr(codes_module, "ReducedForm",
                        lambda *args: forms.append(args))
    asks = linalg.dlog_table.cache_info()
    default = build_grs_hermitian(31, 1, 30)
    guarded = build_grs_hermitian(31, 1, 30,
                                  guards=GuardConfig(dlog_limit=100))
    assert default.code._points is not None
    assert guarded.report == default.report
    assert forms == [] and linalg.dlog_table.cache_info() == asks


# --- constacyclic and negacyclic ---

def test_constacyclic_gf9_negacyclic_instance():
    r = build_constacyclic_hermitian(3, 1, 4, 2)
    assert (r.code.n, r.code.k) == (4, 2)
    assert r.report.distance_exact == 3
    assert r.theorem == "Thm4"
    assert r.cyclic.defining.to_json() == {
        "modulus": 8, "step": 2, "elements": [1, 3]}
    lam = r.cyclic.lam
    assert lam == -r.code.field.one


def test_constacyclic_preconditions():
    with pytest.raises(PreconditionFailed) as err:
        build_constacyclic_hermitian(2, 2, 4, 2)
    assert err.value.reason == "EvenQ"
    with pytest.raises(PreconditionFailed) as err:
        build_constacyclic_hermitian(7, 1, 3, 2)
    assert err.value.reason == "OddLength"
    with pytest.raises(PreconditionFailed) as err:
        build_constacyclic_hermitian(7, 1, 4, 3)
    assert err.value.reason == "OddShiftOrder"
    with pytest.raises(PreconditionFailed) as err:
        build_constacyclic_hermitian(7, 1, 10, 2)
    assert err.value.reason == "OrderNotInField"
    # r*n = 8 divides q^2-1 = 48 but q = -1 (mod 8)
    with pytest.raises(PreconditionFailed) as err:
        build_constacyclic_hermitian(7, 1, 4, 2)
    assert err.value.reason == "BadTwoAdicCongruence"


def test_constacyclic_r4():
    # q = 13: r*n = 4*7... needs r*n | 2(q+1) = 28: n = 7 odd, reject;
    # use q = 11: 2(q+1) = 24: r = 4, n = 6: a=1, b=2, 2^3 = 8: 11 mod 8 = 3 ok
    r = build_constacyclic_hermitian(11, 1, 6, 4)
    assert (r.code.n, r.code.k) == (6, 3)
    assert r.report.distance_exact == 4
    lam = r.cyclic.lam
    assert lam ** 4 == r.code.field.one and lam ** 2 != r.code.field.one


def test_negacyclic_delegates_to_r2():
    r = build_negacyclic_hermitian(3, 1, 4)
    base = build_constacyclic_hermitian(3, 1, 4, 2)
    assert r.theorem == "Cor2" and r.construction == "negacyclic"
    assert same_code(r.code, base.code)


def test_negacyclic_preconditions():
    with pytest.raises(PreconditionFailed) as err:
        build_negacyclic_hermitian(7, 1, 3)
    assert err.value.reason == "OddLength"
    with pytest.raises(PreconditionFailed) as err:
        build_negacyclic_hermitian(13, 1, 4)
    # 13 + 1 = 14: 4 does not divide it
    assert err.value.reason == "NoOddWitness"
    with pytest.raises(PreconditionFailed) as err:
        build_negacyclic_hermitian(5, 1, 4)
    # 4 | 6 fails as well
    assert err.value.reason == "NoOddWitness"


# --- Hermitian duadic family ---

def test_hermitian_duadic_gf11():
    r = build_hermitian_extended_duadic(11, 1, 5)
    assert (r.code.n, r.code.k) == (6, 3)
    assert r.report.distance_exact == 4
    assert r.report.hermitian_self_dual is True
    assert r.theorem == "Thm8"
    assert is_hermitian_self_dual(r.code)


def test_hermitian_duadic_preconditions():
    with pytest.raises(PreconditionFailed) as err:
        build_hermitian_extended_duadic(2, 2, 3)
    assert err.value.reason == "EvenQ"
    with pytest.raises(PreconditionFailed) as err:
        build_hermitian_extended_duadic(7, 1, 5)
    assert err.value.reason == "NotDivisor"
    with pytest.raises(PreconditionFailed) as err:
        build_hermitian_extended_duadic(11, 1, 10)
    assert err.value.reason == "NotCoprimeQPlus1"


def test_hermitian_n5_gf9():
    r = build_hermitian_n5(3, 1)
    assert (r.code.n, r.code.k) == (6, 3)
    assert r.report.distance_exact == 4
    assert r.theorem == "Thm7" and r.construction == "hermitian-n5"
    tower = r.code.field
    assert r.gamma == tower.one          # 1 + 1^4 * 5 = 6 = 0 in char 3
    # quadratic generator with constant term 1 (product of the two roots)
    g = r.cyclic.g
    assert len(g) == 3 and g[0] == tower.one and g[2] == tower.one


def test_hermitian_n5_generator_roots_upstairs():
    # recompute the generator from a fresh 5th root and compare
    from selfdual.fields import nth_root_of_unity

    r = build_hermitian_n5(7, 1)
    tower = r.code.field
    quartic = quadratic_extension(tower)
    beta = nth_root_of_unity(quartic, 5)
    for e in (2, 3):
        root = beta ** e
        acc = quartic.zero
        for c in reversed(r.cyclic.g):
            acc = acc * root + quartic.embed(c)
        assert not acc


def test_hermitian_n5_preconditions():
    with pytest.raises(PreconditionFailed) as err:
        build_hermitian_n5(11, 1)    # 122 = 2 (mod 5)
    assert err.value.reason == "NotDividingQSquaredPlus1"
    with pytest.raises(PreconditionFailed) as err:
        build_hermitian_n5(2, 1)
    assert err.value.reason == "EvenQ"


def test_centered_splitting_checker():
    rep = check_centered_duadic_splitting(3, 1, 5)
    assert rep.is_splitting
    rep = check_centered_duadic_splitting(7, 1, 25)
    assert not rep.is_splitting and rep.witness == 12
    rep = check_centered_duadic_splitting(43, 1, 25)
    assert not rep.is_splitting and rep.witness == 13
    with pytest.raises(PreconditionFailed) as err:
        check_centered_duadic_splitting(3, 1, 7)
    assert err.value.reason == "NotDividingQSquaredPlus1"
    # n = 0 once divided by zero
    with pytest.raises(PreconditionFailed) as err:
        check_centered_duadic_splitting(3, 1, 0)
    assert err.value.reason == "LengthTooSmall"


# --- the theorems the cyclic routes rely on instead of checking ---
#
# Each route's preconditions prove its x -> -q*x splitting (and, for
# length 6, the generator's descent to GF(q^2)); the builders check none
# of it.  These enumerate every parameter set that passes a route's
# precondition checks for odd q below a bound and assert the theorem.

def test_the_constacyclic_preconditions_give_the_minus_q_splitting():
    count = 0
    for q, _, _ in odd_prime_powers(999):
        for m in range(4, 2 * (q + 1) + 1, 4):      # r*n, r and n even
            if (2 * (q + 1)) % m:
                continue
            for r in range(2, m, 2):
                n = m // r
                if m % r or n % 2:
                    continue
                e = constructions._v2(n) + constructions._v2(r)
                if (q * q - 1) % m or q % 2 ** e == 2 ** e - 1:
                    continue
                count += 1
                T = {1 + r * j for j in range(n // 2)}
                image = {(-q * x) % m for x in T}
                assert image == {1 + r * j for j in range(n // 2, n)}, \
                    (q, r, n)
    assert count == 3001


def test_the_hermitian_duadic_preconditions_give_the_splitting():
    count = 0
    for q, _, _ in odd_prime_powers(999):
        for n in range(3, q):
            if (q - 1) % n or gcd(n, q + 1) != 1:
                continue
            count += 1
            T = DefiningSet(n, tuple(range(1, (n + 1) // 2)))
            assert check_duadic_splitting(T, -q, n, q * q).is_splitting, \
                (q, n)
    assert count == 543


@pytest.mark.parametrize("q, p, t", [x for x in odd_prime_powers(49)
                                     if (x[0] ** 2 + 1) % 5 == 0])
def test_the_length_6_generator_is_the_product_of_its_roots(q, p, t):
    # (x - b**2)(x - b**3) on GF(q^4) elements is the builder's (1, -s, 1)
    # embedded, and {2, 3} splits against -q
    result = build_hermitian_n5(p, t)
    tower = result.code.field
    quartic = quadratic_extension(tower)
    beta = nth_root_of_unity(quartic, 5)
    b2, b3 = beta ** 2, beta ** 3
    assert (b2 * b3, -(b2 + b3), quartic.one) == tuple(
        map(quartic.embed, result.cyclic.g))
    assert result.cyclic.g[0] == result.cyclic.g[2] == tower.one
    T = DefiningSet(5, (2, 3))
    assert check_duadic_splitting(T, -q, 5, q * q).is_splitting


# --- dispatcher ---

def test_dispatch_selects_grs_below_field_size():
    r = exists_hermitian_dispatch(7, 1, 6)
    assert r.construction == "grs-hermitian"
    assert r.theorem == "Thm5-dispatch"
    assert r.report.distance_exact == 4


def test_dispatch_selects_constacyclic_at_q_plus_one():
    r = exists_hermitian_dispatch(7, 1, 8)
    assert r.construction == "constacyclic"
    assert r.theorem == "Thm5-dispatch"
    assert (r.code.n, r.code.k) == (8, 4)
    assert r.report.distance_exact == 5
    assert r.code.field.order == 49


def test_dispatch_bounds():
    with pytest.raises(OddLength):
        exists_hermitian_dispatch(7, 1, 5)
    with pytest.raises(TooLong):
        exists_hermitian_dispatch(7, 1, 10)


def test_dispatch_certifies_every_even_length_for_q_from_17_to_31():
    # every even n <= q + 1 for each q between 17 and 31 with a route:
    # 89 builds, each certified, by the rung its code allows
    statuses = Counter()
    for p, t in ((17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1),
                 (31, 1)):
        for n in range(2, p ** t + 2, 2):
            r = exists_hermitian_dispatch(p, t, n)
            assert (r.code.n, r.code.k) == (n, n // 2)
            statuses[r.report.mds.status] += 1
    assert statuses == {"certified-exact": 56, "certified-structural": 26,
                        "certified-bch": 7}


# --- one verifier ---

def route_facts(result) -> dict:
    """The ``certify_mds`` facts a builder vouches for: the evaluation
    structure of a GRS code, else the defining set and shift constant,
    before the extension when the code is one coordinate longer."""
    spec = result.cyclic
    if spec is None:
        return {"structural": True}
    before = "extended_defining" if result.code.n == spec.n + 1 else "defining"
    return {before: spec.defining, "lam": spec.lam}


def record_report(result):
    """(code, report, promoted): the code of the result's JSON record
    and ``verify_code`` of it with the facts its builder vouches for,
    where the one difference, a root-run bound that meets the Singleton
    bound, is ``promoted`` to the exact distance, as a builder reports
    it."""
    code, _ = code_from_json(json.loads(json.dumps(result.to_json())))
    report, cert = verify_code(code, **route_facts(result))
    singleton = code.n - code.k + 1
    promoted = cert.tier == "bch" and cert.distance_lower_bound == singleton
    assert promoted == (report.distance_lower_bound == singleton)
    if promoted:
        report = VerificationReport(report.euclidean_self_dual,
                                    report.hermitian_self_dual, singleton,
                                    None, report.mds)
    return code, report, promoted


@pytest.mark.parametrize("build, args", [
    # the seven README examples
    (build_euclidean_duadic_extended, (7, 1, 3)),
    (build_grs_hermitian, (5, 1, 4)),
    (build_constacyclic_hermitian, (11, 1, 6, 4)),
    (build_negacyclic_hermitian, (3, 2, 10)),
    (build_hermitian_extended_duadic, (11, 1, 5)),
    (build_hermitian_n5, (7, 1)),
    (exists_hermitian_dispatch, (7, 1, 8)),
    # past the first two rungs
    (exists_hermitian_dispatch, (31, 1, 32)),
    (build_grs_hermitian, (31, 1, 30)),
    (build_hermitian_extended_duadic, (47, 1, 23)),
], ids=lambda x: getattr(x, "__name__", None))
def test_a_builders_report_is_verify_code_of_its_record(build, args):
    result = build(*args)
    _, report, promoted = record_report(result)
    assert result.report == report
    assert promoted == (args == (31, 1, 32))


@pytest.mark.parametrize("p, t", [(2, 6), (5, 3), (127, 1)])
def test_dispatch_builds_and_proves_every_even_length_at_q_64_125_and_127(
        p, t):
    # the paper's every even n <= q + 1 at q = 64 = 2^6, a characteristic
    # 2 tower, q = 125 = 5^3, a GF(p^t) under the tower, and q = 127:
    # each build is Hermitian self-dual, its record verifies to the
    # builder's report, and prove_mds names the proof of its route: the
    # points of a GRS code, the roots of a cyclic one, the Cauchy
    # certificate of the one-row code
    proofs, statuses = Counter(), Counter()
    q = p ** t
    for n in range(2, q + 2, 2):
        result = exists_hermitian_dispatch(p, t, n)
        assert (result.code.n, result.code.k) == (n, n // 2)
        assert is_hermitian_self_dual(result.code)
        code, report, _ = record_report(result)
        assert report == result.report
        facts = route_facts(result)
        roots = (None if "lam" not in facts else
                 (facts.get("defining", facts.get("extended_defining")),
                  facts["lam"]))
        proofs[codes_module.prove_mds(code, roots, GuardConfig())] += 1
        statuses[result.report.mds.status] += 1
    assert None not in proofs
    # n = q + 1 is even, and its build cyclic, only for odd q; Counters
    # compare a missing key as 0
    builds, cyclic = (q + 1) // 2, q % 2
    assert proofs == Counter({"points": builds - 1 - cyclic,
                              "roots": cyclic, "cauchy": 1})
    assert statuses == Counter({"certified-structural": builds - 8 - cyclic,
                                "certified-exact": 8, "certified-bch": cyclic})


def _readme_library_example():
    """The fenced Python block under "## Library" in the README."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("```python\n", text.index("\n## Library\n")) + 10
    return text[start:text.index("```", start)]


def test_the_readme_library_example_prints_what_its_comments_state():
    # a line with a comment is an expression, the comment its value
    namespace, stated = {}, []
    for line in _readme_library_example().splitlines():
        statement, _, comment = line.partition("#")
        if comment:
            value = eval(statement, namespace)
            stated.append(comment.strip())
            assert repr(value) == stated[-1], line
        else:
            exec(statement, namespace)
    assert stated == ["(4, 2)", "3", "'certified-exact'", "True"]
