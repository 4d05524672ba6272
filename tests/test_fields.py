"""Field tower tests.

Expected moduli below were frozen from exhaustive irreducibility scans
done by hand (degree <= 2) or by the brute_irreducible oracle here.
"""
import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _pmod,
    _pmulmod,
    poly_is_irreducible_oracle,
    pow_oracle,
    tower_mul_oracle,
)
from selfdual import fields
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
    assert make_field.__wrapped__(p, t).modulus == \
        _least_irreducible_oracle(p, t)


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
    assert fields._packing(field, bound)[3] == lane * (2 * t - 1)
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


def brute_primitive(field):
    """Reference search: every index from 1, no prefix skipped."""
    q = field.order
    prime_factors = [f for f, _ in factorize(q - 1)]
    for i in range(1, q):
        g = field.from_int(i)
        if all(g ** ((q - 1) // ell) != field.one for ell in prime_factors):
            return g
    raise AssertionError("no primitive element")


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
    assert find_primitive_element(field) == brute_primitive(field)


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


def test_element_json_roundtrip():
    field = make_field(3, 2)
    tower = quadratic_extension(field)
    for x in field.elements():
        assert element_from_json(field, element_to_json(x)) == x
    for x in tower.elements():
        assert element_from_json(tower, element_to_json(x)) == x


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
