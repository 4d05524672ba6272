"""Field tower tests.

Expected moduli below were frozen from exhaustive irreducibility scans
done by hand (degree <= 2) or by the brute_irreducible oracle here.
"""
import functools
import inspect
import itertools
import json
import operator
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _pmod,
    _pmul,
    _pmulmod,
    conj_oracle,
    coordinate_oracle,
    even_quadratic_oracle,
    least_nonsquare_oracle,
    poly_is_irreducible_oracle,
    pow_oracle,
    primitive_element_oracle,
    rabin_units_oracle,
    scale_oracle,
    sqrt_oracle,
    tower_mul_oracle,
)
from selfdual import fields
from selfdual.codes import (
    cyclic_generator_matrix,
    extend_code,
    generator_from_defining_set,
    verify_code,
)
from selfdual.constructions import solve_gamma_euclidean
from selfdual.cosets import DefiningSet
from selfdual.errors import (
    DegreeZero,
    NotPrime,
    OrderDoesNotDivide,
    SizeGuardExceeded,
    ZeroElement,
)
from selfdual.fields import (
    FieldSpec,
    TowerSpec,
    element_from_json,
    element_to_json,
    element_order,
    field_from_json,
    field_to_json,
    find_primitive_element,
    frobenius,
    make_field,
    nth_root_of_unity,
    poly_is_irreducible,
    quadratic_extension,
    solve_norm,
    sqrt_in_field,
)
from selfdual.numtheory import factorize, is_prime
from selfdual.table import TABLE_ROWS


def brute_irreducible(coeffs, p):
    """Degree <= 3 oracle: irreducible iff no root in GF(p)."""
    deg = len(coeffs) - 1
    assert deg <= 3
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    return deg >= 1


# --- construction and canonical moduli ---

def test_prime_field_modulus_is_x():
    assert make_field(7, 1).modulus == (0, 1)
    assert make_field(2, 1).modulus == (0, 1)


def test_canonical_modulus_small_fields():
    assert make_field(3, 2).modulus == (1, 0, 1)      # x^2+1, -1 non-square
    assert make_field(13, 2).modulus == (2, 0, 1)     # x^2+2, -2 non-square
    assert make_field(2, 3).modulus == (1, 1, 0, 1)   # x^3+x+1
    assert make_field(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4+x+1


def test_canonical_modulus_is_least_in_element_order():
    # no monic irreducible with a smaller non-leading encoding exists
    for p, t in [(2, 3), (3, 2), (5, 2), (2, 4)]:
        field = make_field(p, t)
        encoding = sum(c * p ** i for i, c in enumerate(field.modulus[:-1]))
        for j in range(1, encoding):
            coeffs = [(j // p ** i) % p for i in range(t)] + [1]
            if t <= 3:
                assert not brute_irreducible(coeffs, p)


def test_make_field_errors():
    with pytest.raises(NotPrime):
        make_field(6, 2)
    with pytest.raises(DegreeZero):
        make_field(5, 0)
    with pytest.raises(SizeGuardExceeded):
        make_field(2, 40)


def _monic_irreducible_count(p, t):
    """Gauss: (1/t) * sum over d | t of mu(d) * p**(t/d)."""
    total = 0
    for d in range(1, t + 1):
        if t % d == 0:
            primes = list(factorize(d))
            if all(e == 1 for _, e in primes):
                total += (-1) ** len(primes) * p ** (t // d)
    return total // t


@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 6), (5, 4), (7, 4)])
def test_irreducibility_agrees_with_oracle_on_every_small_polynomial(
        p, max_degree):
    for t in range(1, max_degree + 1):
        found = 0
        for low in itertools.product(range(p), repeat=t):
            c = list(low) + [1]
            verdict = poly_is_irreducible(c, p)
            assert verdict == poly_is_irreducible_oracle(c, p), c
            found += verdict
        assert found == _monic_irreducible_count(p, t)


def test_irreducibility_agrees_with_oracle_on_higher_degrees():
    rng = random.Random(20161)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        t = rng.randint(7, 14)
        c = [rng.randrange(p) for _ in range(t)] + [1]
        assert poly_is_irreducible(c, p) == poly_is_irreducible_oracle(c, p)
    # canonical moduli, where both must say yes
    for p, t in [(2, 12), (3, 11), (3, 16), (5, 9), (7, 9), (101, 3)]:
        c = make_field(p, t).modulus
        assert poly_is_irreducible(c, p) and poly_is_irreducible_oracle(c, p)


def _least_irreducible_oracle(p, t):
    """The canonical modulus by its definition: the first monic candidate
    in the element order that the oracle finds irreducible."""
    for j in range(p ** t):
        c = [(j // p ** i) % p for i in range(t)] + [1]
        if poly_is_irreducible_oracle(c, p):
            return tuple(c)


# every GF(p^t), t >= 2, of order at most 3^8, and every table field
CANONICAL_FIELDS = sorted(
    {(p, t) for p in range(2, 82) if is_prime(p)
     for t in range(2, 13) if p ** t <= 3 ** 8}
    | {pt for _, pairs in TABLE_ROWS for pt in pairs})


@pytest.mark.parametrize("p, t", CANONICAL_FIELDS)
def test_canonical_modulus_is_the_oracle_search(p, t):
    # the uncached search, which skips candidates with a root in GF(p)
    assert fields._canonical_field.__wrapped__(p, t).modulus == \
        _least_irreducible_oracle(p, t)


def _searched(monkeypatch, p, t):
    """The uncached search for GF(p^t), and the (modulus, verdict) of
    each Rabin test it ran, in order."""
    verdicts, rabin = [], fields._rabin

    def testing(p_, t_, modulus):
        verdicts.append((modulus, rabin(p_, t_, modulus)))
        return verdicts[-1][1]

    monkeypatch.setattr(fields, "_rabin", testing)
    return fields._canonical_field.__wrapped__(p, t), verdicts


@pytest.mark.parametrize("p, t", CANONICAL_FIELDS)
def test_every_candidate_the_search_rejects_is_reducible(monkeypatch, p, t):
    # a candidate that fails Rabin's test is reducible under the oracle
    # (one skipped for a root has a linear factor); only the field's
    # modulus passes it, and it runs only where the root scan proves
    # nothing
    field, verdicts = _searched(monkeypatch, p, t)
    assert not any(poly_is_irreducible_oracle(c, p)
                   for c, ok in verdicts if not ok)
    proved = t <= 3 and p <= fields.ROOT_SCAN_LIMIT + 1
    assert [c for c, ok in verdicts if ok] == ([] if proved
                                               else [field.modulus])


def _monic(p, degree):
    """Every monic polynomial of ``degree`` over GF(p), constant term
    first."""
    return [[*low, 1] for low in itertools.product(range(p), repeat=degree)]


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_a_root_free_polynomial_of_degree_at_most_3_is_irreducible(p, t):
    # exhaustively: the reducible monic polynomials of degree t are the
    # products of a monic linear factor and a monic factor of degree
    # t - 1, each of which has a root, so those without a root are the
    # irreducible ones, and the oracle agrees
    reducible = {tuple(_pmul(a, b, p))
                 for a in _monic(p, 1) for b in _monic(p, t - 1)}
    for c in _monic(p, t):
        root_free = all(sum(v * pow(a, i, p) for i, v in enumerate(c)) % p
                        for a in range(p))
        assert root_free is (tuple(c) not in reducible), c
        assert poly_is_irreducible_oracle(c, p) is root_free, c


@pytest.mark.parametrize("p, proved", [(251, True), (257, True),
                                       (263, False)])
@pytest.mark.parametrize("t", [2, 3])
def test_the_root_proof_holds_while_the_scan_covers_gf_p(monkeypatch, p, t,
                                                         proved):
    # the scan tries a = 1..ROOT_SCAN_LIMIT, all of GF(p)* up to
    # p = 257; past it a candidate may have a root the scan skipped,
    # and Rabin's test decides
    field, verdicts = _searched(monkeypatch, p, t)
    assert field.modulus == _least_irreducible_oracle(p, t)
    assert (verdicts == []) is proved
    if not proved:
        assert verdicts[-1] == (field.modulus, True)


def test_make_field_signature_lists_its_guards():
    assert "guards" in inspect.signature(make_field).parameters


@pytest.mark.parametrize("c, p", [
    ([], 3), ([0], 3), ([1], 3), ([0, 0], 5),           # degree < 1
    ([1, 1, 0], 3), ([1, 1, 0, 1, 0, 0], 2),            # trailing zeros
    ([1, 0, 2], 3), ([2, 1, 0, 3], 5), ([1, 2], 3),     # not monic
    ([0, 1], 5), ([0, 1, 1], 3), ([0, 0, 0, 0, 1], 2),  # c0 = 0
    ([0, 1, 0, 1, 1], 3), ([0, 2, 0, 0, 0, 0, 1], 7),
])
def test_irreducibility_agrees_with_oracle_on_degenerate_input(c, p):
    assert poly_is_irreducible(c, p) == poly_is_irreducible_oracle(c, p)


REDUCE_FIELDS = [(2, 1), (7, 1), (2, 4), (3, 2), (3, 5), (5, 6), (7, 3)]


@pytest.mark.parametrize("p, t", REDUCE_FIELDS)
def test_reduce_folds_long_input_like_polynomial_remainder(p, t):
    field = make_field(p, t)
    rng = random.Random(p * 100 + t)
    for length in range(t + 1, 4 * t + 3):
        coeffs = [rng.randrange(-2 * p, 3 * p) for _ in range(length)]
        rem = _pmod([v % p for v in coeffs], field.modulus, p)
        assert field._reduce(coeffs) == tuple(rem + [0] * (t - len(rem)))


@pytest.mark.parametrize("p, t", REDUCE_FIELDS)
def test_high_powers_of_x_are_cached_remainders(p, t):
    # x**(t - 1) * x**(j + 1) packs to one digit at x**(t + j), so its
    # reduction is that power's residue column of the cached layout
    field = FieldSpec(p, t, make_field(p, t).modulus)
    layout = field._layout(1)
    assert field._layout(1) is layout
    pack, reduce, unpack = layout

    def x_to(i):
        return tuple(int(i == k) for k in range(t))

    for j in range(t - 1):
        rem = _pmod([0] * (t + j) + [1], field.modulus, p)
        assert unpack(reduce(pack(x_to(t - 1)) * pack(x_to(j + 1)))) == \
            tuple(rem + [0] * (t - len(rem)))


def test_field_is_cached():
    assert make_field(5, 2) is make_field(5, 2)


def test_make_field_keeps_the_ring_that_passed_rabins_test(monkeypatch):
    # a fresh GF(3^4), out of the uncached search: two candidates pass
    # the root scan, and Rabin's test rejects the first and keeps the
    # second, building no ring and no layout for either.  The field is
    # the ring of the kept modulus, and builds its one-product layout,
    # 16-bit lanes, once, on its first product.  The [6, 3] code over
    # it then runs on 5 and 6 terms, whose exact bounds give the same
    # 32-bit lanes: one more layout, two in all, and every fold is the
    # field's own
    tested, built, folded = [], [], set()
    rabin, packing, fold = fields._rabin, fields._packing, fields._fold

    def testing(p, t, modulus):
        tested.append((modulus, rabin(p, t, modulus)))
        return tested[-1][1]

    def counting(f, s):
        if isinstance(f, FieldSpec) and (f.p, f.t) == (3, 4):
            built.append(s)
        return packing(f, s)

    def folding(f):
        folded.add(f.modulus)
        return fold(f)

    monkeypatch.setattr(fields, "_rabin", testing)
    monkeypatch.setattr(fields, "_packing", counting)
    monkeypatch.setattr(fields, "_fold", folding)
    field = fields._canonical_field.__wrapped__(3, 4)
    assert tested == [((1, 0, 0, 0, 1), False), ((2, 1, 0, 0, 1), True)]
    assert field.modulus == (2, 1, 0, 0, 1) and built == [] == [*folded]
    assert field.one + field.one == field.scalar(2) and built == []
    x = field.from_int(3)
    assert x * x == field.from_int(9) and built == [16]
    T = DefiningSet(5, (1, 2))
    spec = generator_from_defining_set(field, 5, field.one, T)
    code = extend_code(cyclic_generator_matrix(spec),
                       solve_gamma_euclidean(field, 5))
    report, _ = verify_code(code, extended_defining=T, lam=field.one)
    assert report.euclidean_self_dual and report.distance_exact == 4
    assert built == [16, 32] and folded == {field.modulus}
    assert field._layout(5) is field._layout(6) is not field._layout(1)


def test_make_field_takes_no_size_limit():
    # the size guard comes from GuardConfig, never from a per-call limit
    with pytest.raises(TypeError):
        make_field(5, 2, 10**6)


# --- arithmetic ---

def test_inverse_everywhere():
    for p, t in [(2, 1), (3, 1), (7, 1), (2, 3), (3, 2), (5, 2)]:
        field = make_field(p, t)
        for x in field.elements():
            if not x:
                with pytest.raises(ZeroElement):
                    x.inverse()
                continue
            assert x * x.inverse() == field.one


def test_scalar_and_from_int_agree_on_prime_subfield():
    field = make_field(5, 2)
    for m in range(-7, 12):
        assert field.scalar(m) == field.scalar(m % 5)


def test_index_enumeration_bijective():
    field = make_field(3, 3)
    seen = {field.index(x) for x in field.elements()}
    assert seen == set(range(27))
    for x in field.elements():
        assert field.from_int(field.index(x)) == x


def test_pow_matches_repeated_multiplication():
    field = make_field(7, 1)
    x = field.from_int(3)
    acc = field.one
    for e in range(12):
        assert x ** e == acc
        acc = acc * x
    assert x ** -1 == x.inverse()


# GF(p) up to 2**31 - 1; GF(p^t) up to t = 16; the ring GF(5)[x]/(x**3 + 1)
# (x**3 + 1 = (x + 1)(x**2 - x + 1)), as Rabin's test builds; GF(q^2) and
# GF(q^4) over prime and over GF(p^t) bases; characteristic 2, where c1 != 0
POW_FIELDS = [
    make_field(2**31 - 1, 1),
    make_field(2, 1),
    make_field(47, 1),
    make_field(31, 3),
    make_field(2, 8),
    make_field(7, 9),
    make_field(3, 16),
    FieldSpec(5, 3, (1, 0, 0, 1)),
    quadratic_extension(make_field(47, 1)),
    quadratic_extension(quadratic_extension(make_field(47, 1))),
    quadratic_extension(make_field(3, 2)),
    quadratic_extension(quadratic_extension(make_field(5, 2))),
    quadratic_extension(make_field(2, 3)),
    quadratic_extension(quadratic_extension(make_field(2, 2))),
]


@st.composite
def power_case(draw):
    field = draw(st.sampled_from(POW_FIELDS))
    q = field.order
    # norm descent splits e at multiples of Q + 1, the order of the norm's
    # kernel, with Q the order of the base
    Q = field.base.order if isinstance(field, TowerSpec) else q
    x = field.from_int(draw(st.just(0) | st.integers(0, q - 1)))
    e = draw(st.sampled_from([0, 1, -1, q - 2, q - 1, q, q + 1])
             | st.integers(-2 * q, 3 * q)
             | st.builds(lambda a, b: a * (Q + 1) + b,
                         st.integers(-3, 5), st.sampled_from([0, 1, Q])))
    y = field.from_int(draw(st.sampled_from([0, 1, q - 1])
                            | st.integers(0, q - 1)))
    return field, x, y, e


@settings(deadline=None, max_examples=300)
@given(power_case())
def test_pow_matches_the_object_square_and_multiply(case):
    field, x, y, e = case
    assert x * y == tower_mul_oracle(field, x, y)
    if not x and e < 0:
        with pytest.raises(ZeroElement):
            x ** e
    else:
        assert x ** e == pow_oracle(field, x, e)


@pytest.mark.parametrize("p, t, terms, lane", [
    (31, 3, 53138, 64),      # a folded lane times M fits 64 bits
    (31, 3, 53139, 65),      # it does not: lanes read by shifts
    (3, 16, 18, 32),         # the length-18 table code over GF(3^16)
])
def test_kronecker_is_exact_at_the_lane_width_edges(p, t, terms, lane):
    field = make_field(p, t)
    bound = fields._product_bound(field, terms) + p - 1
    assert fields._lane_width(field, bound) == lane
    assert fields._packing(field, lane)[3] == lane * (2 * t - 1)
    layout_pack, reduce, _ = field._layout(terms)

    def pack(x):
        return layout_pack(x.value)

    # every coordinate p - 1 puts each digit at its bound; a few random
    # products stand in for the rest of a real sum
    top = field.from_int(field.order - 1)
    rng = random.Random(terms)
    pairs = [(field.from_int(rng.randrange(field.order)),
              field.from_int(rng.randrange(field.order))) for _ in range(8)]
    packed = (terms - 8) * pack(top) ** 2
    total = field.scalar(terms - 8) * top * top
    for a, b in pairs:
        packed += pack(a) * pack(b)
        total = total + a * b
    assert reduce(packed) == pack(total)
    assert reduce(terms * pack(top) ** 2) == pack(field.scalar(terms)
                                                  * top * top)
    # every digit at the bound, which no sum of products reaches, is the
    # worst case the lane width was sized for
    rem = _pmod([bound % p] * (2 * t - 1), field.modulus, p)
    assert reduce(sum(bound << lane * i for i in range(2 * t - 1))) == \
        layout_pack(tuple(rem + [0] * (t - len(rem))))


def _tower(p, t, levels):
    field = make_field(p, t)
    for _ in range(levels):
        field = quadratic_extension(field)
    return field


def _dense_tower(p, t):
    """GF(q^2) on the least irreducible y**2 + c1*y + c0 whose -c1 has
    every coordinate p - 1, so that (-c1)*u2 is a full product of the
    base: no canonical tower has such a c1 (c1 = 0 for odd q, 1 for
    even q), but a record may name one."""
    base = make_field(p, t)
    c1 = -base.from_int(base.order - 1)
    c0 = next(x for x in base.elements()
              if fields._quadratic_is_irreducible(base, x, c1))
    return TowerSpec(base, (c0, c1, base.one))


# odd and even q, over GF(p) and over GF(p^t) for t = 2, 5 and 8, towers
# of towers, and towers whose -c1 has every coordinate p - 1
TOWERS = {
    "GF(31)^2": lambda: _tower(31, 1, 1),
    "GF(2)^2": lambda: _tower(2, 1, 1),
    "GF(7^2)^2": lambda: _tower(7, 2, 1),
    "GF(2^2)^2": lambda: _tower(2, 2, 1),
    "GF(3^5)^2": lambda: _tower(3, 5, 1),
    "GF(2^5)^2": lambda: _tower(2, 5, 1),
    "GF(3^8)^2": lambda: _tower(3, 8, 1),
    "GF(2^8)^2": lambda: _tower(2, 8, 1),
    "GF(3^3)^2^2": lambda: _tower(3, 3, 2),
    "GF(2^3)^2^2": lambda: _tower(2, 3, 2),
    "GF(7^2)^2, dense c1": lambda: _dense_tower(7, 2),
    "GF(3^5)^2, dense c1": lambda: _dense_tower(3, 5),
    "GF(2^8)^2, dense c1": lambda: _dense_tower(2, 8),
}


def _width(field, terms):
    return fields._lane_width(
        field, fields._product_bound(field, terms) + field.char - 1)


def _lane_edges(field):
    """(terms, lane) for the largest term count of each lane width, up
    to the first width past 64 bits: the width never falls as the
    term count grows, so each edge is a search."""
    edges, terms = [], 1
    while not edges or edges[-1][1] <= 64:
        lane, high = _width(field, terms), terms
        while _width(field, 2 * high) == lane:
            high *= 2
        low, high = high, 2 * high  # width(low) == lane < width(high)
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if _width(field, mid) == lane \
                else (low, mid)
        edges.append((low, lane))
        terms = low + 1
    return edges


@pytest.mark.parametrize("name", TOWERS)
def test_the_tower_fold_is_exact_at_the_lane_width_edges(name):
    # the tower reduce takes three base reduces: the y**2 block, then the
    # blocks of 1 and of y with (-c0)*u2 and (-c1)*u2 added; at the
    # largest term count of each lane width, a sum of that many products
    # plus one value, with every operand's coordinates p - 1 and with
    # random ones, reduces to the value-tuple oracle's sum; over GF(p^t),
    # so do blocks at the digit envelope of such sums (``_envelope``)
    field = TOWERS[name]()
    rng = random.Random(name)
    top = field.from_int(field.order - 1)
    square = tower_mul_oracle(field, top, top)

    def add(x, y):
        return coordinate_oracle(field, operator.add, x, y)

    def times(terms, x):
        return tower_mul_oracle(field, field.scalar(terms), x)

    def random_element():
        return field.from_int(rng.randrange(field.order))

    edges = _lane_edges(field)
    assert len(edges) >= 2 and edges[-1][1] > 64
    for terms, lane in edges:
        pack, reduce, unpack = field._layout(terms)
        assert (pack, reduce, unpack) == field._lane_layouts[lane]
        assert _width(field, terms + 1) > lane
        packed = terms * pack(top.value) ** 2 + pack(top.value)
        want = add(times(terms, square), top)
        assert reduce(packed) == pack(want.value)
        pairs = [(random_element(), random_element())
                 for _ in range(min(terms, 8))]
        value = random_element()
        packed = ((terms - len(pairs)) * pack(top.value) ** 2
                  + sum(pack(a.value) * pack(b.value) for a, b in pairs)
                  + pack(value.value))
        want = add(times(terms - len(pairs), square), value)
        for a, b in pairs:
            want = add(want, tower_mul_oracle(field, a, b))
        assert unpack(reduce(packed)) == want.value
        if not isinstance(field.base, TowerSpec):
            assert reduce(_envelope(field, terms, lane)) == \
                pack(_envelope_value(field, terms).value)


def _envelope_digits(field, terms):
    """The largest digit of the blocks of 1 and of y of a sum of
    ``terms`` products and one value in GF(q^2) over GF(p^t): one and
    two products of the base per term, plus p - 1."""
    p, unit = field.char, field.base.degree * (field.char - 1) ** 2
    return terms * unit + p - 1, 2 * terms * unit + p - 1


def _envelope(field, terms, lane):
    """The packed int whose blocks of 1 and y have every digit at its
    ``_envelope_digits`` and whose y**2 block is the value with every
    coordinate p - 1, so that the fold adds (-c0) and (-c1) times it: no
    sum of products reaches it, and it is the worst case the lanes hold
    for the tower's bound."""
    p, t = field.char, field.base.degree
    bits = fields._packing(field, lane)[3] // 3
    digits = (*_envelope_digits(field, terms), p - 1)
    return sum(d << bits * i + lane * j for i, d in enumerate(digits)
               for j in range(t if i == 2 else 2 * t - 1))


def _envelope_value(field, terms):
    """The value of ``_envelope``: each block of 2t - 1 digits mod the
    base modulus, then y**2 = -c1*y - c0, on the oracles."""
    base, p = field.base, field.char
    c0, c1, _ = field.ext_modulus

    def block(digit):
        rem = _pmod([digit % p] * (2 * base.degree - 1), list(base.modulus),
                    p)
        return base.from_int(sum(c * p ** k for k, c in enumerate(rem)))

    top = base.from_int(base.order - 1)
    a, b = (coordinate_oracle(base, operator.sub, block(d),
                              tower_mul_oracle(base, c, top))
            for d, c in zip(_envelope_digits(field, terms), (c0, c1)))
    return field.from_int(base.index(a) + base.order * base.index(b))


OPERATION_FIELDS = {
    "GF(7)": lambda: make_field(7, 1),
    "GF(2)": lambda: make_field(2, 1),
    "GF(3^4)": lambda: make_field(3, 4),
    "GF(2^5)": lambda: make_field(2, 5),
    **TOWERS,
}


@pytest.mark.parametrize("name", OPERATION_FIELDS)
def test_value_operations_match_the_oracles(name):
    # _add, _sub and _neg on every field, one path for every degree, and
    # a tower's _conj, (a - b*c1) - b*y for every c1, and _scale, one
    # tower product, against the coordinate and power oracles
    field = OPERATION_FIELDS[name]()
    rng = random.Random(name)
    picks = [0, 1, field.order - 1] + [rng.randrange(field.order)
                                       for _ in range(12)]
    for i, j in zip(picks, reversed(picks)):
        x, y = field.from_int(i), field.from_int(j)
        for method, op in [(field._add, operator.add),
                           (field._sub, operator.sub)]:
            assert method(x.value, y.value) == \
                coordinate_oracle(field, op, x, y).value
        assert field._neg(x.value) == \
            coordinate_oracle(field, operator.neg, x).value
        if isinstance(field, TowerSpec):
            s = field.base.from_int(j % field.base.order)
            assert field._conj(x.value) == conj_oracle(field, x).value
            assert frobenius(field, x) == conj_oracle(field, x)
            assert field._scale(x.value, s.value) == \
                scale_oracle(field, x, s).value


@functools.cache
def _dense_field(p, t, seed):
    """A random irreducible modulus with x**(t - 1) present, so that
    x**t = r(x) has degree t - 1 and the fold takes the high digits one
    at a time."""
    rng = random.Random(seed)
    while True:
        c = ([rng.randrange(1, p)] + [rng.randrange(p) for _ in range(t - 2)]
             + [rng.randrange(1, p), 1])
        if poly_is_irreducible(c, p):
            return FieldSpec(p, t, tuple(c))


@st.composite
def reduce_ring(draw):
    """The canonical field of every table pair, a dense irreducible
    modulus for p in {2, 3, 5, 7, 31} and t <= 16, or a monic ring
    modulus x**t - r(x) with r of any degree d, as Rabin's test builds,
    which reaches every block count and spill of the fold."""
    kind = draw(st.sampled_from(["table", "dense", "ring"]))
    if kind == "table":
        return make_field(*draw(st.sampled_from(sorted(
            {pt for _, row in TABLE_ROWS for pt in row if pt[1] > 1}))))
    p = draw(st.sampled_from([2, 3, 5, 7, 31]))
    t = draw(st.integers(2, 16))
    if kind == "dense":
        return _dense_field(p, t, draw(st.integers(0, 3)))
    d = draw(st.integers(0, t - 1))
    r = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    return FieldSpec(p, t, tuple(r + [draw(st.integers(1, p - 1))]
                                 + [0] * (t - 1 - d) + [1]))


@settings(deadline=None, max_examples=200)
@given(reduce_ring(), st.sampled_from([1, 2, 30, 10**4]), st.data())
def test_reduce_on_every_layout_matches_the_schoolbook_product(
        field, terms, data):
    # a few random products, the rest of the terms the square of the
    # value with every coordinate p - 1, whose digits are the largest a
    # product reaches, and one more value
    p, t = field.p, field.t
    pack, reduce, unpack = field._layout(terms)
    value = st.lists(st.integers(0, p - 1), min_size=t, max_size=t)
    pairs = data.draw(st.lists(st.tuples(value, value), min_size=1,
                               max_size=min(terms, 4)))
    extra = data.draw(st.sampled_from([[p - 1] * t]) | value)
    top = [p - 1] * t
    full = terms - len(pairs)
    packed = (sum(pack(a) * pack(b) for a, b in pairs)
              + full * pack(top) ** 2 + pack(extra))
    want = list(extra)
    modulus = list(field.modulus)
    for (a, b), times in [*((pair, 1) for pair in pairs),
                          ((top, top), full)]:
        for i, c in enumerate(_pmulmod(a, b, modulus, p)):
            want[i] = (want[i] + times * c) % p
    assert reduce(packed) == pack(want)
    assert unpack(reduce(packed)) == tuple(want)


@settings(deadline=None, max_examples=200)
@given(reduce_ring(), st.data())
def test_the_ring_reduce_of_rabins_test_matches_the_schoolbook_product(
        field, data):
    # one product plus one value, the bound of the lanes of every ring
    # of (p, t), whatever its modulus: a random product, or the square
    # of the value with every coordinate p - 1, whose digits are the
    # largest a product reaches, with every block count and spill
    p, t = field.p, field.t
    reduce, s = fields._ring_reduce(p, t, field.modulus)
    assert s == fields._ring_plan(p, t)[0]
    pack = fields._lanes(s, range(t))[0]
    value = st.lists(st.integers(0, p - 1), min_size=t, max_size=t)
    a, b = data.draw(st.sampled_from([([p - 1] * t, [p - 1] * t)])
                     | st.tuples(value, value))
    extra = data.draw(value)
    want = [(u + v) % p for u, v in itertools.zip_longest(
        _pmulmod(a, b, list(field.modulus), p), extra, fillvalue=0)]
    assert reduce(pack(a) * pack(b) + pack(extra)) == pack(want)


# --- multiplicative structure ---

def test_primitive_element_small_fields():
    # 3 is the least primitive root mod 7 (1, 2 are not: 2^3 = 1)
    f7 = make_field(7, 1)
    g = find_primitive_element(f7)
    assert f7.index(g) == 3
    assert element_order(g) == 6
    for p, t in [(2, 2), (3, 2), (2, 4), (5, 2), (13, 1)]:
        field = make_field(p, t)
        g = find_primitive_element(field)
        assert element_order(g) == field.order - 1
        # and nothing canonically smaller generates everything
        for j in range(1, field.index(g)):
            assert element_order(field.from_int(j)) < field.order - 1


def _prime_powers(limit):
    return [(p, t) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
            for t in range(1, 6) if p ** t <= limit]


# (p, t, number of quadratic extensions on top of GF(p^t))
PRIMITIVE_CASES = (
    [(p, t, 0) for p in (2, 3, 5) for t in (1, 2, 3, 4)]
    + [(p, t, 1) for p, t in _prime_powers(27)]
    + [(q, 1, 2) for q in (2, 3, 5, 7)]
)


@pytest.mark.parametrize("p, t, towers", PRIMITIVE_CASES,
                         ids=["GF(%d^%d)%s" % (p, t, "^2" * towers)
                              for p, t, towers in PRIMITIVE_CASES])
def test_primitive_search_matches_a_full_scan(p, t, towers):
    field = make_field(p, t)
    for _ in range(towers):
        field = quadratic_extension(field)
    assert find_primitive_element(field) == primitive_element_oracle(field)


def _canonical_fields():
    """Every GF(p^t) of order <= 20000 with p < 60, GF(q^2) over those of
    odd order q <= 60, GF(q^4) for q <= 13 and GF(2^t)^2 for t <= 8."""
    for p in filter(is_prime, range(2, 60)):
        for t in itertools.takewhile(lambda t: p ** t <= 20000,
                                     itertools.count(1)):
            field = make_field(p, t)
            yield field
            if (field.order % 2 and field.order <= 60) or (
                    p == 2 and t <= 8):
                yield quadratic_extension(field)
            if field.order <= 13:
                yield quadratic_extension(quadratic_extension(field))


def test_canonical_generator_and_non_square_match_the_full_field_scans():
    # the norm decides a prime of Q - 1 in the subfield GF(Q), and the
    # scans skip a prefix: neither changes the element found
    seen = 0
    for field in _canonical_fields():
        seen += 1
        assert find_primitive_element(field) == primitive_element_oracle(
            field), field
        if field.order % 2:
            assert fields._least_nonsquare(field) == least_nonsquare_oracle(
                field), field
    assert seen == 66 + 20 + 8 + 9


@pytest.mark.parametrize("p, t, towers", [
    (3, 1, 0), (3, 2, 0), (3, 3, 0), (3, 4, 0), (3, 5, 0), (7, 1, 0),
    (7, 2, 0), (7, 3, 0), (11, 2, 0), (19, 2, 0), (5, 1, 0), (5, 2, 0),
    (5, 3, 0), (13, 2, 0), (17, 2, 0), (2, 8, 0), (3, 1, 1), (3, 2, 1),
    (7, 1, 1), (11, 1, 1), (5, 1, 1), (13, 1, 1), (3, 1, 2), (2, 2, 1)])
def test_every_square_root_matches_tonelli_shanks_in_the_whole_field(
        p, t, towers):
    # p = 1 and 3 (mod 4), t even and odd: the roots of GF(p) taken in
    # GF(p) and the Euler test on the norm give the same least root
    field = make_field(p, t)
    for _ in range(towers):
        field = quadratic_extension(field)
    for x in field.elements():
        assert sqrt_in_field(x) == sqrt_oracle(x), x


def test_rabin_product_rule_matches_the_gcd_test_and_the_unit_powers():
    for p, top in ((2, 6), (3, 6), (5, 4)):
        for t in range(1, top + 1):
            for low in itertools.product(range(p), repeat=t):
                c = [*low, 1]
                want = poly_is_irreducible_oracle(c, p)
                assert rabin_units_oracle(c, p) == want, c
                assert poly_is_irreducible(c, p) == want, c


def test_even_towers_match_the_root_scan():
    bases = [make_field(2, t) for t in range(1, 9)]
    bases += [quadratic_extension(make_field(2, t)) for t in (1, 2, 3)]
    for base in bases:
        c0, c1, one = quadratic_extension(base).ext_modulus
        assert (c0, c1) == even_quadratic_oracle(base), base
        assert one == base.one


def test_a_large_even_tower_is_built_in_under_a_second():
    # GF(2^15)^2, of order 2^30, inside the default size guard: the
    # root scan of every coefficient pair ran for hours
    base = make_field(2, 15)
    start = time.perf_counter()
    tower = quadratic_extension.__wrapped__(base)
    assert time.perf_counter() - start < 1.0
    c0, c1, _ = tower.ext_modulus
    assert c1 == base.one and fields._quadratic_is_irreducible(base, c0, c1)
    # the least c0 of trace 1: every smaller index has trace 0
    assert all(fields._trace(base, base._from_int(i)) == 0
               for i in range(base.index(c0)))


def test_element_order_brute_agreement():
    field = make_field(3, 2)
    for x in field.elements():
        if not x:
            continue
        acc = x
        m = 1
        while acc != field.one:
            acc = acc * x
            m += 1
        assert element_order(x) == m


def test_nth_root_of_unity():
    field = make_field(7, 1)
    w = nth_root_of_unity(field, 3)
    assert field.index(w) == 2       # canonical primitive 3 squared
    assert element_order(w) == 3
    with pytest.raises(OrderDoesNotDivide):
        nth_root_of_unity(field, 4)


# --- square roots ---

@pytest.mark.parametrize("p,t", [(3, 1), (7, 1), (11, 1), (13, 1),
                                 (3, 2), (5, 2), (2, 3), (2, 4)])
def test_sqrt_matches_brute_scan(p, t):
    field = make_field(p, t)
    squares = {}
    for y in field.elements():
        squares.setdefault(field.index(y * y), set()).add(field.index(y))
    for x in field.elements():
        r = sqrt_in_field(x)
        i = field.index(x)
        if r is None:
            assert i not in squares
        else:
            assert r * r == x
            assert field.index(r) == min(squares[i])


def test_sqrt_q_one_mod_four_branch():
    # 13 = 1 (mod 4) forces the general Tonelli-Shanks path
    field = make_field(13, 1)
    r = sqrt_in_field(field.from_int(3))
    assert r is not None and r * r == field.from_int(3)
    assert field.index(r) == 4       # 4^2 = 16 = 3, and 9^2 = 3 too; 4 < 9


# --- towers ---

def test_tower_modulus_odd_base_least_nonsquare():
    t3 = quadratic_extension(make_field(3, 1))
    c0, c1, c2 = t3.ext_modulus
    assert (t3.base.index(c0), t3.base.index(c1)) == (1, 0)  # y^2 - 2 = y^2 + 1
    t7 = quadratic_extension(make_field(7, 1))
    assert t7.base.index(t7.ext_modulus[0]) == 4             # y^2 - 3
    t9 = quadratic_extension(make_field(3, 2))


def test_tower_even_base_scanned_modulus():
    t4 = quadratic_extension(make_field(2, 2))
    base = t4.base
    c0, c1, _ = t4.ext_modulus
    # y^2 + y + w with w the degree-one generator of GF(4)
    assert base.index(c0) == 2 and base.index(c1) == 1
    # no root in the base
    for x in base.elements():
        assert x * x + c1 * x + c0 != base.zero


def test_tower_element_arithmetic_matches_modulus():
    tower = quadratic_extension(make_field(3, 1))
    y = tower.y
    c0, c1, _ = tower.ext_modulus
    assert y * y == tower.embed(-c0) - tower.embed(c1) * y
    for x in tower.elements():
        if x:
            assert x * x.inverse() == tower.one


def test_tower_index_bijective():
    tower = quadratic_extension(make_field(2, 2))
    seen = {tower.index(x) for x in tower.elements()}
    assert seen == set(range(16))


def test_nested_tower_order():
    quartic = quadratic_extension(quadratic_extension(make_field(3, 1)))
    assert quartic.order == 81
    g = find_primitive_element(quartic)
    assert element_order(g) == 80


def _odd_tower_with_linear_term(p, t):
    """GF(q^2), q odd, by an irreducible y**2 + c1*y + c0 with c1 != 0."""
    base = make_field(p, t)
    for c1 in list(base.elements())[1:]:
        for c0 in base.elements():
            disc = c1 * c1 - base.scalar(4) * c0
            if disc and disc ** ((base.order - 1) // 2) != base.one:
                return TowerSpec(base, (c0, c1, base.one))
    raise AssertionError("no irreducible quadratic with c1 != 0")


def test_frobenius_is_conjugation():
    towers = [quadratic_extension(make_field(p, t))
              for p, t in [(3, 1), (7, 1), (2, 2), (3, 2)]]
    # Vieta's conjugate (a - b*c1) - b*y needs c1 != 0 for odd q too,
    # and GF(q^4) conjugates over GF(q^2)
    linear = [_odd_tower_with_linear_term(5, 1),
              _odd_tower_with_linear_term(3, 2)]
    assert all(tower.ext_modulus[1] for tower in linear)
    towers += linear + [
        quadratic_extension(quadratic_extension(make_field(3, 1)))]
    for tower in towers:
        q = tower.base.order
        for x in tower.elements():
            assert frobenius(tower, x) == x ** q
            assert frobenius(tower, frobenius(tower, x)) == x
        for a in tower.base.elements():
            assert frobenius(tower, tower.embed(a)) == tower.embed(a)


def test_norm_solver_small_towers():
    for p, t in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        tower = quadratic_extension(make_field(p, t))
        q = tower.base.order
        for u in tower.base.elements():
            if not u:
                continue
            v = solve_norm(tower, u)
            assert v ** (q + 1) == tower.embed(u)


def test_norm_solver_least_exponent():
    # GF(3) in GF(9): norm of g is g^4, a generator of GF(3)* of order 2
    tower = quadratic_extension(make_field(3, 1))
    g = find_primitive_element(tower)
    u = tower.base.from_int(2)
    v = solve_norm(tower, u)
    # v must be the least power of g whose norm is u; norm(g^j) = g^4j
    exps = [j for j in range(8) if (g ** j) ** 4 == tower.embed(u)]
    assert v == g ** min(exps)


# --- serialization ---

def test_field_json_roundtrip():
    for obj in [make_field(7, 1), make_field(3, 2),
                quadratic_extension(make_field(3, 1)),
                quadratic_extension(quadratic_extension(make_field(3, 1)))]:
        blob = json.dumps(field_to_json(obj))
        back = field_from_json(json.loads(blob))
        assert back.order == obj.order
        assert field_to_json(back) == field_to_json(obj)


@pytest.mark.parametrize("modulus", [
    [1, 1, 1, 1], [1],                        # wrong length for t = 2
    [1] + [0] * 199 + [1],                    # degree 200, declared t = 2
])
def test_field_from_json_checks_the_length_before_the_ring_test(
        modulus, monkeypatch):
    def unreachable(coeffs, p):
        raise AssertionError("irreducibility tested on a wrong length")

    monkeypatch.setattr(fields, "poly_is_irreducible", unreachable)
    with pytest.raises(ZeroElement, match="irreducible"):
        field_from_json({"p": 3, "t": 2, "modulus": modulus})


@pytest.mark.parametrize("modulus", [
    [4, 0, 1],    # x**2 + 1 with a coefficient outside [0, 3)
    [-2, 0, 1],
    [1, 0, 4],    # not monic
    [1, 1, 0],    # x + 1 padded to length 3: degree 1, not 2
])
def test_field_from_json_refuses_a_modulus_that_is_not_canonical_form(
        modulus):
    with pytest.raises(ZeroElement, match="irreducible"):
        field_from_json({"p": 3, "t": 2, "modulus": modulus})


def test_field_from_json_keeps_any_irreducible_modulus():
    # x**2 + x + 2 is irreducible over GF(3), not the canonical x**2 + 1
    field = field_from_json({"p": 3, "t": 2, "modulus": [2, 1, 1]})
    assert field == FieldSpec(3, 2, (2, 1, 1))


@pytest.mark.parametrize("base, ext_modulus", [
    ({"p": 5, "t": 1, "modulus": [0, 1]}, [[4], [0], [1]]),  # y^2 - 1
    ({"p": 5, "t": 1, "modulus": [0, 1]}, [[0], [0], [1]]),  # y^2
    ({"p": 7, "t": 1, "modulus": [0, 1]}, [[1], [1], [1]]),  # roots 2, 4
    ({"p": 2, "t": 1, "modulus": [0, 1]}, [[1], [0], [1]]),  # (y + 1)^2
    # y^2 + y + 1 over GF(4) = GF(2)[x]/(x^2 + x + 1) has the root x
    ({"p": 2, "t": 2, "modulus": [1, 1, 1]}, [[1, 0], [1, 0], [1, 0]]),
    ({"p": 3, "t": 1, "modulus": [0, 1]}, [[1], [0], [2]]),  # not monic
    ({"p": 3, "t": 1, "modulus": [0, 1]}, [[1], [1]]),       # degree 1
], ids=["gf5-y2-1", "gf5-y2", "gf7-two-roots", "gf2-square", "gf4-root-x",
        "gf3-not-monic", "gf3-degree-1"])
def test_field_from_json_refuses_reducible_ext_modulus(base, ext_modulus):
    with pytest.raises(ZeroElement, match="irreducible"):
        field_from_json({"base": base, "ext_modulus": ext_modulus})


def test_field_from_json_keeps_any_irreducible_ext_modulus():
    gf5 = {"p": 5, "t": 1, "modulus": [0, 1]}
    # y^2 - 3 and y^2 + y + 1 are irreducible over GF(5), not canonical
    for ext in ([[2], [0], [1]], [[1], [1], [1]]):
        tower = field_from_json({"base": gf5, "ext_modulus": ext})
        assert field_to_json(tower)["ext_modulus"] == ext
    gf4 = {"p": 2, "t": 2, "modulus": [1, 1, 1]}
    # over GF(4) = GF(2)[x]/(x^2 + x + 1): y^2 + y + x has no root
    tower = field_from_json({"base": gf4, "ext_modulus": [[0, 1], [1, 0],
                                                          [1, 0]]})
    assert tower.order == 16


@pytest.mark.parametrize("p, t, levels", [(5, 1, 1), (3, 2, 1), (7, 1, 2),
                                          (2, 3, 1), (2, 2, 2)])
def test_field_from_json_reads_a_canonical_tower_as_the_cached_one(
        p, t, levels):
    tower = make_field(p, t)
    for _ in range(levels):
        tower = quadratic_extension(tower)
    blob = json.dumps(field_to_json(tower))
    assert field_from_json(json.loads(blob)) is tower


def test_element_json_roundtrip():
    field = make_field(3, 2)
    tower = quadratic_extension(field)
    for x in field.elements():
        assert element_from_json(field, element_to_json(x)) == x
    for x in tower.elements():
        assert element_from_json(tower, element_to_json(x)) == x


# GF(2^2)^2, GF(3)^2, GF(3^2)^2, GF(5)^2^2 and GF(7)^2^2
FLAT_TOWERS = [
    quadratic_extension(make_field(2, 2)),
    quadratic_extension(make_field(3, 1)),
    quadratic_extension(make_field(3, 2)),
    quadratic_extension(quadratic_extension(make_field(5, 1))),
    quadratic_extension(quadratic_extension(make_field(7, 1))),
]


def _from_coordinates(field, coords):
    """The element with GF(p) coordinates ``coords``, by field arithmetic
    alone: sum c_i * x**i in GF(p^t), and a + b*y from the two halves in
    a tower."""
    if isinstance(field, TowerSpec):
        half = len(coords) // 2
        a = _from_coordinates(field.base, coords[:half])
        b = _from_coordinates(field.base, coords[half:])
        return field.embed(a) + field.embed(b) * field.y
    x = element_from_json(field, [0, 1]) if field.t > 1 else field.one
    out = field.zero
    for c in reversed(coords):
        out = out * x + sum([field.one] * c, field.zero)
    return out


def _flat(obj):
    return [v for part in obj for v in _flat(part)] if type(obj) is list \
        else [obj]


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(FLAT_TOWERS), st.data())
def test_a_tower_value_is_the_flat_tuple_of_its_index_digits(tower, data):
    p, degree = tower.char, tower.degree
    coords = data.draw(st.lists(st.integers(0, p - 1), min_size=degree,
                                max_size=degree))
    x = _from_coordinates(tower, coords)
    assert x.value == tuple(coords)
    # the nested JSON arrays, flattened, are the base-p digits of the index
    index = tower.index(x)
    assert _flat(element_to_json(x)) == coords == \
        [index // p ** i % p for i in range(degree)]
    assert element_from_json(tower, element_to_json(x)) == x
    # a + b*y from the two halves, against the schoolbook tower product
    half = degree // 2
    a = _from_coordinates(tower.base, coords[:half])
    b = _from_coordinates(tower.base, coords[half:])
    assert x == tower.embed(a) + tower_mul_oracle(tower, tower.embed(b),
                                                  tower.y)


@pytest.mark.parametrize("obj", ["12", [True, 0], [1, "2"], [1.0], (1, 2),
                                 None, {"a": 1}, 7])
def test_element_json_must_be_an_array_of_integers(obj):
    gf49 = make_field(7, 2)
    # the string "12" once iterated to the digits (1, 2)
    with pytest.raises(ValueError):
        element_from_json(gf49, obj)


@pytest.mark.parametrize("obj", [[[1], [2], [4]], [[1]], [], "ab",
                                 [[1], [2], []], None])
def test_tower_element_json_must_be_a_pair(obj):
    tower = quadratic_extension(make_field(5, 1))
    with pytest.raises(ValueError):
        element_from_json(tower, obj)


def test_element_json_longer_than_t_is_folded():
    gf49 = make_field(7, 2)
    x = gf49.from_int(7)  # the class of x
    assert element_from_json(gf49, [1, 2, 3]) == (
        gf49.one + gf49.scalar(2) * x + gf49.scalar(3) * x * x)


SYMPY_CASES = [(2, 1), (7, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2),
               (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2)]


@pytest.mark.parametrize("p, t", SYMPY_CASES)
def test_canonical_choices_agree_with_sympy(p, t):
    # an independent oracle when sympy is installed; never a dependency
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod, gf_strip

    field = make_field(p, t)
    q = p ** t
    # the least monic irreducible in the constant-term-first order
    for j in range(q):
        least = [(j // p ** i) % p for i in range(t)] + [1]
        if gf_irreducible_p(least[::-1], p, ZZ):
            break
    assert field.modulus == tuple(least)
    # the canonical primitive element has order exactly q - 1
    g = gf_strip(element_to_json(find_primitive_element(field))[::-1])
    modulus = list(reversed(field.modulus))
    assert gf_pow_mod(g, q - 1, modulus, p, ZZ) == [1]
    for ell in sympy.factorint(q - 1):
        assert gf_pow_mod(g, (q - 1) // ell, modulus, p, ZZ) != [1]
