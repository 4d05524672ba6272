"""Randomized invariant checks (hypothesis).

Each test states an algebraic law and lets hypothesis hunt for a
counterexample over small fields and codes.  Oracles are independent
brute-force computations, never the functions under test.
"""
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from selfdual import (
    DefiningSet,
    GuardConfig,
    LinearCode,
    cyclic_generator_matrix,
    extend_code,
    generator_from_defining_set,
    make_field,
    min_distance_exhaustive,
    quadratic_extension,
)
from selfdual.codes import certify_mds, mds_check
from selfdual.cosets import (
    check_duadic_splitting,
    consecutive_run,
    cyclotomic_coset,
)
from selfdual.errors import NotCoprime, ZeroElement, ZeroInSet
from selfdual.fields import TowerSpec, frobenius, solve_norm

from oracles import (
    brute_weight_audit,
    euclidean_dual,
    extension_weight_audit,
    hermitian_dual,
    matrix_rank,
    pow_oracle,
    same_code,
    splitting_oracle,
    tower_inv_oracle,
    tower_mul_oracle,
)

FIELD_POOL = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
              (2, 2), (3, 2), (2, 3), (5, 2), (2, 4)]
TOWER_BASE_POOL = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                   (11, 1), (13, 1)]   # every prime power q <= 13

LOOSE = GuardConfig(codeword_limit=10 ** 7)


@st.composite
def field_with_indices(draw, count):
    p, t = draw(st.sampled_from(FIELD_POOL))
    field = make_field(p, t)
    idx = [draw(st.integers(0, field.order - 1)) for _ in range(count)]
    return field, [field.from_int(i) for i in idx]


@st.composite
def tower_with_indices(draw, count):
    p, t = draw(st.sampled_from(TOWER_BASE_POOL))
    tower = quadratic_extension(make_field(p, t))
    idx = [draw(st.integers(0, tower.order - 1)) for _ in range(count)]
    return tower, [tower.from_int(i) for i in idx]


@st.composite
def systematic_code(draw, max_q=7, max_k=3, max_extra=3):
    """[k + extra, k] code with generator (I | A); always full rank."""
    pool = [(p, t) for p, t in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]
            if p ** t <= max_q]
    p, t = draw(st.sampled_from(pool))
    field = make_field(p, t)
    k = draw(st.integers(1, max_k))
    extra = draw(st.integers(0, max_extra))
    n = k + extra
    rows = []
    for i in range(k):
        row = [field.one if j == i else field.zero for j in range(k)]
        row += [field.from_int(draw(st.integers(0, field.order - 1)))
                for _ in range(extra)]
        rows.append(tuple(row))
    return LinearCode(field, n, k, tuple(rows))


@st.composite
def systematic_tower_code(draw, max_k=2, max_extra=3):
    p, t = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    tower = quadratic_extension(make_field(p, t))
    k = draw(st.integers(1, max_k))
    extra = draw(st.integers(0, max_extra))
    n = k + extra
    rows = []
    for i in range(k):
        row = [tower.one if j == i else tower.zero for j in range(k)]
        row += [tower.from_int(draw(st.integers(0, tower.order - 1)))
                for _ in range(extra)]
        rows.append(tuple(row))
    return LinearCode(tower, n, k, tuple(rows))


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=150)
@given(field_with_indices(3))
def test_field_ring_axioms(fx):
    field, (a, b, c) = fx
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + field.zero == a
    assert a * field.one == a
    assert a + (-a) == field.zero


@settings(deadline=None, max_examples=150)
@given(field_with_indices(2))
def test_field_division_and_powers(fx):
    field, (a, b) = fx
    if b:
        assert (a / b) * b == a
        assert b * b.inverse() == field.one
    if a:
        assert a ** (field.order - 1) == field.one
    assert a ** 3 == a * a * a


@settings(deadline=None, max_examples=100)
@given(tower_with_indices(3))
def test_tower_ring_axioms(tx):
    tower, (a, b, c) = tx
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == tower.one
        assert a ** (tower.order - 1) == tower.one


@settings(deadline=None, max_examples=100)
@given(field_with_indices(1))
def test_index_encoding_is_a_bijection(fx):
    field, (a,) = fx
    assert field.from_int(field.index(a)) == a


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=100)
@given(tower_with_indices(2))
def test_conjugation_is_a_field_automorphism(tx):
    tower, (a, b) = tx
    assert frobenius(tower, a + b) == frobenius(tower, a) + frobenius(tower, b)
    assert frobenius(tower, a * b) == frobenius(tower, a) * frobenius(tower, b)


@settings(deadline=None, max_examples=100)
@given(tower_with_indices(1))
def test_conjugation_is_an_involution_matching_qth_power(tx):
    tower, (a,) = tx
    q = tower.base.order
    assert frobenius(tower, a) == a ** q
    assert frobenius(tower, frobenius(tower, a)) == a


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(TOWER_BASE_POOL), st.data())
def test_conjugation_fixes_exactly_the_base_field(pt, data):
    tower = quadratic_extension(make_field(*pt))
    a = tower.from_int(data.draw(st.integers(0, tower.order - 1)))
    _, b = tower.parts(a)
    assert (frobenius(tower, a) == a) == (not b)


def _odd_linear_tower():
    """GF(25) as GF(5)[y]/(y**2 + y + 1): odd q with c1 != 0."""
    gf5 = make_field(5, 1)
    return TowerSpec(gf5, (gf5.one, gf5.one, gf5.one))


# GF(3)^2, GF(9)^2 over both presentations of GF(9), GF(2)^2 (c1 != 0),
# GF(4)^2, GF(47^2)^2 and an odd tower with c1 != 0
ORACLE_TOWERS = [
    quadratic_extension(make_field(3, 1)),
    quadratic_extension(make_field(3, 2)),
    quadratic_extension(quadratic_extension(make_field(3, 1))),
    quadratic_extension(make_field(2, 1)),
    quadratic_extension(make_field(2, 2)),
    quadratic_extension(quadratic_extension(make_field(47, 1))),
    _odd_linear_tower(),
]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(ORACLE_TOWERS), st.data())
def test_tower_arithmetic_matches_the_object_formulas(tower, data):
    x, y = (tower.from_int(data.draw(st.integers(0, tower.order - 1)))
            for _ in range(2))
    e = data.draw(st.integers(-tower.order, tower.order))
    assert x * y == tower_mul_oracle(tower, x, y)
    assert x ** abs(e) == pow_oracle(tower, x, abs(e))
    if y:
        assert y.inverse() == tower_inv_oracle(tower, y)
        assert x / y == tower_mul_oracle(tower, x, tower_inv_oracle(tower, y))
        assert y ** e == pow_oracle(tower, y, e)
    else:
        with pytest.raises(ZeroElement):
            y.inverse()


# ---------------------------------------------------------------------------
# norm map onto the base field
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.sampled_from(TOWER_BASE_POOL), st.data())
def test_norm_equation_always_solvable_for_nonzero_targets(pt, data):
    base = make_field(*pt)
    tower = quadratic_extension(base)
    q = base.order
    u = base.from_int(data.draw(st.integers(1, q - 1)))
    v = solve_norm(tower, u)
    assert v ** (q + 1) == tower.embed(u)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)]), st.data())
def test_norm_value_lands_in_base_for_every_element(pt, data):
    tower = quadratic_extension(make_field(*pt))
    q = tower.base.order
    a = tower.from_int(data.draw(st.integers(0, tower.order - 1)))
    assert not tower.parts(a * frobenius(tower, a))[1]
    assert not tower.parts(a ** (q + 1))[1]


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=80)
@given(systematic_code())
def test_euclidean_dual_is_an_involution(code):
    dual = euclidean_dual(code)
    assert dual.k == code.n - code.k
    for u in code.generator:
        for v in dual.generator:
            s = code.field.zero
            for x, y in zip(u, v):
                s = s + x * y
            assert s == code.field.zero
    if dual.k:
        assert same_code(euclidean_dual(dual), code)


@settings(deadline=None, max_examples=50)
@given(systematic_tower_code())
def test_hermitian_dual_is_an_involution(code):
    tower = code.field
    q = tower.base.order
    dual = hermitian_dual(code)
    assert dual.k == code.n - code.k
    for u in code.generator:
        for v in dual.generator:
            s = tower.zero
            for x, y in zip(u, v):
                s = s + x * y ** q
            assert s == tower.zero
    if dual.k:
        assert same_code(hermitian_dual(dual), code)


# ---------------------------------------------------------------------------
# multipliers and splittings
# ---------------------------------------------------------------------------

@st.composite
def set_and_multiplier(draw):
    n = draw(st.integers(3, 24))
    a = draw(st.integers(1, n - 1))
    assume(math.gcd(a, n) == 1)
    mask = draw(st.integers(0, 2 ** (n - 1) - 1))
    elements = tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
    return DefiningSet(n, elements), a, n


@settings(deadline=None, max_examples=150)
@given(set_and_multiplier(), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_splitting_checker_agrees_with_naive_set_algebra(tam, q):
    T, a, n = tam
    assume(math.gcd(n, q) == 1)
    s1 = frozenset(T.elements)
    s2 = set(range(1, n)) - s1
    swaps = ({a * x % n for x in s1} == s2
             and {a * x % n for x in s2} == s1)
    closed = all(set(cyclotomic_coset(x, n, q)) <= s1 for x in s1) and \
        all(set(cyclotomic_coset(x, n, q)) <= s2 for x in s2)
    report = check_duadic_splitting(T, a, n, q)
    assert report.is_splitting == (swaps and closed)
    if not report.is_splitting:
        assert report.witness is not None


@st.composite
def splitting_inputs(draw):
    """Valid and invalid inputs, with many splittings: for a unit
    multiplier the set often pairs each q-coset C with a*C."""
    n = draw(st.integers(1, 40))
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 9, 11, 13, 25, 43]))
    units = [x for x in range(-n, 2 * n + 1) if math.gcd(x, n) == 1]
    a = draw(st.sampled_from(units) if draw(st.booleans())
             else st.integers(-2 * n, 2 * n))
    if math.gcd(n, q) == 1 and math.gcd(a, n) == 1 and draw(st.booleans()):
        elements, taken = set(), set()
        for i in range(1, n):
            coset = set(cyclotomic_coset(i, n, q))
            image = {a * x % n for x in coset}
            if i in taken or image == coset:
                continue  # a self-paired coset stays in the complement
            taken |= coset | image
            elements |= coset if draw(st.booleans()) else image
    else:
        elements = draw(st.sets(st.integers(0, max(n - 1, 0))))
    modulus = n + 1 if draw(st.integers(0, 9)) == 9 else n
    return DefiningSet(modulus, tuple(elements)), a, n, q


@settings(deadline=None, max_examples=400)
@given(splitting_inputs())
def test_splitting_check_matches_its_earlier_body(args):
    outcomes = []
    for check in (check_duadic_splitting, splitting_oracle):
        try:
            outcomes.append(check(*args))
        except (ValueError, NotCoprime, ZeroInSet) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


@settings(deadline=None, max_examples=100)
@given(st.integers(3, 40), st.integers(1, 12), st.integers(2, 13))
def test_coset_membership_is_an_equivalence(n, i, q):
    assume(math.gcd(n, q) == 1)
    coset = cyclotomic_coset(i % n, n, q)
    for member in coset:
        assert set(cyclotomic_coset(member, n, q)) == set(coset)


# ---------------------------------------------------------------------------
# root runs bound the distance
# ---------------------------------------------------------------------------

CYCLIC_POOL = [
    # (p, t, n) with n | p**t - 1 so the roots live in the field itself
    (7, 1, 3), (7, 1, 6), (11, 1, 5), (11, 1, 10),
    (13, 1, 3), (13, 1, 4), (13, 1, 6), (13, 1, 12),
    (3, 2, 4), (3, 2, 8), (2, 3, 7), (2, 4, 5), (2, 4, 15),
]


@st.composite
def measurable_cyclic_code(draw):
    p, t, n = draw(st.sampled_from(CYCLIC_POOL))
    field = make_field(p, t)
    size = draw(st.integers(max(1, n - 3), n - 1))   # keeps q**k small
    mask = draw(st.integers(0, 2 ** n - 1))
    elements = sorted(range(n), key=lambda i: (mask >> i & 1, i))[:size]
    T = DefiningSet(n, tuple(elements))
    assume(len(T) == size)
    spec = generator_from_defining_set(field, n, field.one, T)
    return spec, cyclic_generator_matrix(spec)


@settings(deadline=None, max_examples=60)
@given(measurable_cyclic_code())
def test_consecutive_root_run_lower_bounds_the_distance(sc):
    spec, code = sc
    d = min_distance_exhaustive(code, guards=LOOSE)
    assert d >= consecutive_run(spec.defining) + 1


@settings(deadline=None, max_examples=40)
@given(measurable_cyclic_code())
def test_bch_verdict_is_sound(sc):
    spec, code = sc
    verdict = certify_mds(code, defining=spec.defining, lam=spec.lam,
                          mode="bch").verdict
    assert verdict.status in ("certified-bch", "inconclusive")
    d = min_distance_exhaustive(code, guards=LOOSE)
    if verdict.status == "certified-bch":
        # the run certificate plus the Singleton ceiling pin d exactly
        assert d == code.n - code.k + 1


# ---------------------------------------------------------------------------
# verification modes agree
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(systematic_code(max_q=5, max_k=3, max_extra=3))
def test_column_check_matches_the_distance_definition_of_mds(code):
    verdict = mds_check(code, "exhaustive-columns")
    d = min_distance_exhaustive(code, guards=LOOSE)
    assert (verdict.status == "certified-exact") == (d == code.n - code.k + 1)
    if verdict.status == "refuted":
        cols = tuple(zip(*code.generator))
        sub = [[cols[j][i] for j in verdict.witness] for i in range(code.k)]
        assert matrix_rank(tuple(tuple(r) for r in sub), code.field) < code.k


@settings(deadline=None, max_examples=50)
@given(systematic_code(max_q=5, max_k=3, max_extra=3))
def test_monte_carlo_never_certifies_and_never_lies(code):
    verdict = mds_check(code, "monte-carlo", trials=200)
    d = min_distance_exhaustive(code, guards=LOOSE)
    assert verdict.status in ("monte-carlo", "refuted")
    if verdict.status == "refuted":
        assert d < code.n - code.k + 1
    else:
        assert verdict.passes == verdict.trials == 200


# ---------------------------------------------------------------------------
# extension bookkeeping
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(systematic_code(max_q=5, max_k=3, max_extra=3))
def test_extension_audit_matches_brute_enumeration(code):
    assert extension_weight_audit(code, guards=LOOSE) == \
        brute_weight_audit(code)


# GF(2^t), GF(p) and towers, each with q**k <= 729 for the k drawn
SCAN_FIELDS = [((2, 2, 0), 3), ((2, 3, 0), 3), ((3, 1, 0), 3),
               ((5, 1, 0), 3), ((7, 1, 0), 3), ((2, 1, 1), 3),
               ((3, 1, 1), 2), ((2, 2, 1), 2)]


@st.composite
def scan_code(draw):
    """A code of independent rows whose columns include zero columns and
    repeated columns: (I | A), zero and copied columns inserted, the
    columns shuffled, and one row added to a multiple of another.  The
    last row keeps zeros in the zero columns and, for k >= 3, in an
    identity column of another row."""
    (p, t, towers), max_k = draw(st.sampled_from(SCAN_FIELDS))
    field = make_field(p, t)
    for _ in range(towers):
        field = quadratic_extension(field)
    entry = st.integers(0, field.order - 1).map(field.from_int)
    k = draw(st.integers(2, max_k))
    extra = draw(st.integers(0, 4))
    rows = [[field.one if j == i else field.zero for j in range(k)]
            + draw(st.lists(entry, min_size=extra, max_size=extra))
            for i in range(k)]
    width = len(rows[0])
    for _ in range(draw(st.integers(0, 2))):
        for row in rows:
            row.append(field.zero)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, width - 1))
        for row in rows:
            row.append(row[j])
    order = draw(st.permutations(range(len(rows[0]))))
    rows = [[row[j] for j in order] for row in rows]
    i, j = draw(st.permutations(range(k)))[:2]
    c = draw(entry)
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return LinearCode(field, len(rows[0]), k, tuple(map(tuple, rows)))


@settings(deadline=None, max_examples=150)
@given(scan_code())
def test_counted_scan_matches_brute_enumeration(code):
    # the scan tallies the last row's coefficient instead of building
    # its q - 1 multiples; a zero or repeated column, and zeros in the
    # last row, each shift that tally
    want = brute_weight_audit(code)
    assert extension_weight_audit(code, guards=LOOSE) == want
    assert min_distance_exhaustive(code, guards=LOOSE) == want[0]


def code_from_indices(field, rows):
    rows = tuple(tuple(field.from_int(i) for i in row) for row in rows)
    return LinearCode(field, len(rows[0]), len(rows), rows)


@settings(deadline=None, max_examples=80)
@given(st.one_of(systematic_code(max_q=4, max_k=3, max_extra=4),
                 systematic_tower_code(max_k=2, max_extra=3)))
@example(code_from_indices(make_field(2, 2), [[1, 2, 3, 0]]))
@example(code_from_indices(quadratic_extension(make_field(3, 1)),
                           [[1, 0, 5, 8]]))
@example(code_from_indices(quadratic_extension(make_field(2, 2)),
                           [[1, 0, 7, 13], [0, 1, 3, 0]]))
@example(code_from_indices(make_field(3, 1),
                           [[1, 0, 0, 2], [0, 1, 0, 1], [0, 0, 1, 1]]))
def test_zech_scan_matches_the_object_scan_and_brute_enumeration(code):
    # the scan's result may not depend on dlog_limit, even below q
    below = GuardConfig(codeword_limit=10 ** 7,
                        dlog_limit=code.field.order - 1)
    zech = extension_weight_audit(code, guards=LOOSE)
    assert zech == extension_weight_audit(code, guards=below)
    assert zech == brute_weight_audit(code)
    assert min_distance_exhaustive(code, guards=LOOSE) == zech[0]
    assert min_distance_exhaustive(code, guards=below) == zech[0]


@settings(deadline=None, max_examples=40)
@given(systematic_code(max_q=5, max_k=2, max_extra=3), st.integers(1, 4))
def test_extending_appends_the_scaled_row_sum(code, gi):
    field = code.field
    gamma = field.from_int(gi % field.order)
    assume(bool(gamma))
    ext = extend_code(code, gamma)
    assert ext.n == code.n + 1
    for row, erow in zip(code.generator, ext.generator):
        s = field.zero
        for x in row:
            s = s + x
        assert erow[:-1] == row
        assert erow[-1] == -(gamma * s)
