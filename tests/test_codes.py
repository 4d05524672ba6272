"""Linear and (consta)cyclic code machinery.

Minimum distances are cross-checked against a naive full message
enumeration written here, independent of the scan in the package.
"""
import functools
import importlib.util
import itertools
import json
import operator
import random
from collections import Counter
from math import comb
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from selfdual import cli
from selfdual import codes as codes_module
from selfdual import constructions as constructions_module
from selfdual import linalg as linalg_module
from selfdual.codes import (
    CyclicSpec,
    LinearCode,
    MdsCertificate,
    MdsVerdict,
    certify_mds,
    code_from_json,
    code_to_json,
    cyclic_generator_matrix,
    extend_code,
    generator_from_defining_set,
    is_euclidean_self_dual,
    is_hermitian_self_dual,
    mds_check,
    min_distance_exhaustive,
    verify_code,
)
from selfdual.config import GuardConfig
from selfdual.constructions import (
    build_constacyclic_hermitian,
    build_euclidean_duadic_extended,
    build_grs_hermitian,
    build_hermitian_extended_duadic,
    build_hermitian_n5,
    exists_hermitian_dispatch,
    solve_gamma_euclidean,
)
from selfdual.cosets import DefiningSet
from selfdual.errors import (
    DiscreteLogGuardExceeded,
    GuardExceeded,
    MalformedInput,
    NoCyclicStructure,
    NotDividing,
    NotOverTower,
    RootsNotInField,
)
from selfdual.fields import (
    Element,
    Field,
    FieldSpec,
    TowerSpec,
    element_order,
    frobenius,
    make_field,
    nth_root_of_unity,
    quadratic_extension,
    sqrt_in_field,
)
from selfdual.linalg import (
    DlogTable,
    PackedField,
    dlog_table,
    null_space,
    row_reduce,
)
from selfdual.table import TABLE_ROWS, run_table_pair

from oracles import (
    codeword,
    constacyclic_shift,
    det_nonzero_oracle,
    element_rows,
    euclidean_dual,
    extension_weight_audit,
    generator_oracle,
    gram_is_zero_oracle,
    hermitian_dual,
    lex_column_oracle,
    matrix_rank,
    poly_divmod,
    poly_eval,
    poly_mul,
    row_reduce_oracle,
    same_code,
    shift_of_oracle,
)


def naive_min_distance(code):
    """Enumerate every nonzero message; completely independent oracle."""
    field = code.field
    best = code.n + 1
    for msg in itertools.product(field.elements(), repeat=code.k):
        if all(not m for m in msg):
            continue
        word = codeword(code, msg)
        best = min(best, sum(1 for x in word if x))
    return best


def rand_code(field, n, k, seed):
    rng = random.Random(seed)
    els = list(field.elements())
    while True:
        rows = tuple(tuple(rng.choice(els) for _ in range(n))
                     for _ in range(k))
        try:
            return LinearCode(field, n, k, rows)
        except ValueError:
            continue


# --- construction and validation ---

def test_linear_code_rejects_dependent_rows():
    f = make_field(3, 1)
    one, two = f.from_int(1), f.from_int(2)
    rows = ((one, two, one), (two, f.from_int(4 % 3), two))
    with pytest.raises(ValueError):
        LinearCode(f, 3, 2, rows)


def test_codeword_is_row_combination():
    f = make_field(5, 1)
    code = rand_code(f, 6, 3, 11)
    msg = (f.from_int(2), f.from_int(0), f.from_int(4))
    word = codeword(code, msg)
    for j in range(6):
        acc = f.zero
        for i in range(3):
            acc = acc + msg[i] * code.generator[i][j]
        assert word[j] == acc


# --- cyclic structure ---

def test_generator_from_defining_set_gf7():
    f = make_field(7, 1)
    T = DefiningSet(3, (1,))
    spec = generator_from_defining_set(f, 3, f.one, T)
    # canonical cube root of unity in GF(7) is 2; g = x - 2
    assert spec.alpha == f.from_int(2)
    assert [f.index(c) for c in spec.g] == [5, 1]   # -2 = 5
    assert spec.k == 2
    # g divides x^3 - 1
    x3 = [f.from_int(-1), f.zero, f.zero, f.one]
    _, rem = poly_divmod(x3, list(spec.g), f)
    assert not rem


def test_generator_root_pattern():
    f = make_field(13, 1)
    T = DefiningSet(3, (1,))
    spec = generator_from_defining_set(f, 3, f.one, T)
    w = spec.alpha
    g = list(spec.g)
    # vanishes exactly on exponents in T
    assert not poly_eval(g, w, f)
    assert poly_eval(g, w * w, f)
    assert poly_eval(g, f.one, f)


def test_generator_requires_roots_in_field():
    f = make_field(5, 1)
    with pytest.raises(RootsNotInField):
        generator_from_defining_set(f, 3, f.one, DefiningSet(3, (1,)))


def test_generator_refuses_roots_that_are_not_roots_of_the_binomial():
    # lam = 6 has order 2, so alpha has order 6 and alpha**3 = 6; alpha**2
    # cubes to 1, not 6, while alpha and alpha**3 cube to 6
    f = make_field(7, 1)
    lam = f.from_int(6)
    with pytest.raises(NotDividing):
        generator_from_defining_set(f, 3, lam, DefiningSet(6, (2,)))
    spec = generator_from_defining_set(f, 3, lam, DefiningSet(6, (1, 3)))
    assert spec.k == 1 and spec.alpha ** 3 == lam


# prime fields, extensions, towers over both, and a tower of towers
GENERATOR_FIELDS = [(7, 1, 0), (13, 1, 0), (31, 1, 0), (2, 4, 0), (3, 3, 0),
                    (5, 2, 0), (3, 4, 0), (3, 1, 1), (5, 1, 1), (2, 2, 1),
                    (3, 2, 1), (2, 1, 2), (3, 1, 2)]


@st.composite
def defining_case(draw):
    """A field, a shift constant lam (1 or another), a length n with
    r*n | q - 1 for r the order of lam, and up to n + 1 exponents mod
    r*n: those outside 1 mod r are not roots of x**n - lam."""
    field = _tower(*draw(st.sampled_from(GENERATOR_FIELDS)))
    q = field.order
    lam = draw(st.just(field.one) | st.integers(2, q - 1).map(field.from_int))
    r = element_order(lam)
    n = draw(st.sampled_from([n for n in range(1, q) if (q - 1) % (r * n) == 0]
                             or [0]))
    assume(n)
    exponents = draw(st.sets(st.integers(0, r * n - 1), max_size=n + 1))
    return field, n, lam, DefiningSet(r * n, tuple(exponents))


@settings(deadline=None, max_examples=150)
@given(defining_case())
def test_packed_generator_is_the_product_of_its_linear_factors(case):
    field, n, lam, T = case
    arith = linalg_module.packed_field(field, n)
    alpha = arith.decode(codes_module._root_powers(arith, n, lam,
                                                   T.modulus)[1 % T.modulus])
    want = generator_oracle(field, alpha, T.elements)
    binomial = [-lam] + [field.zero] * (n - 1) + [field.one]
    if poly_divmod(binomial, want, field)[1]:
        with pytest.raises(NotDividing):
            generator_from_defining_set(field, n, lam, T)
        return
    spec = generator_from_defining_set(field, n, lam, T)
    assert spec.g == tuple(want) and spec.alpha == alpha


@settings(deadline=None, max_examples=100)
@given(defining_case())
def test_a_cyclic_code_packs_its_rows_as_the_shifts_of_its_generator(case):
    # the packed rows built from the shift form are the value rows
    # packed one by one
    field, n, lam, T = case
    assume(len(T.elements) <= n)
    try:
        spec = generator_from_defining_set(field, n, lam, T)
    except NotDividing:
        assume(False)
    code = cyclic_generator_matrix(spec)
    zero = (field.zero,)
    assert code.generator == tuple(zero * i + spec.g + zero * (code.k - 1 - i)
                                   for i in range(code.k))
    pack = linalg_module.packed_field(field, n).pack
    if code.k >= 2:
        assert code._shift == ([pack(c.value) for c in spec.g], [])
    assert code._packed == [list(map(pack, row)) for row in code._value_rows]


@pytest.fixture
def packs(monkeypatch):
    """What the code layer packs while ``codes.packed_field`` hands out
    counting layouts, one per layout as it does: ``entries``, the
    values given to ``pack`` itself (a code's generator entries), and
    ``elements``, the elements given to ``encode``.  Inverses and
    canonical indices pack uncounted."""
    record = SimpleNamespace(entries=[], elements=[])
    made = {}

    class Counting(PackedField):
        def __init__(self, field, layout):
            super().__init__(field, layout)
            self.uncounted = self.pack
            self.pack = lambda v: record.entries.append(v) or self.uncounted(v)

        def encode(self, x):
            record.elements.append(x.value)
            return self.uncounted(x.value)

        def encode_index(self, index):
            return self.uncounted(self.field._from_int(index))

        def inverse(self, v):
            return self.uncounted(self.field._inv(self.unpack(v)))

    def clear():
        record.entries.clear()
        record.elements.clear()

    def counting(field, terms=1):
        key = field, field._layout(terms)
        if key not in made:
            made[key] = Counting(*key)
        return made[key]

    record.clear = clear
    monkeypatch.setattr(codes_module, "packed_field", counting)
    return record


def test_a_shift_form_packs_g_and_its_tail_once_however_it_was_made(packs):
    # the [27, 14] duadic code of the [28, 14] table code over GF(7^9)
    # and that table code, each as built and as read from its record:
    # the builders pack no value of g, which the generator product
    # leaves packed and the spec and the code hold as one list, and the
    # extension packs only -gamma, as the 27- and 28-term layouts are
    # one, and builds no packed rows; a record packs g and the tail
    # once, d + 1 + |tail| values, while it is read, and holds no value
    # rows; then a Gram check, a root check and the reduction together
    # pack nothing for either; the same rows out of order pack all k * n
    field = make_field(7, 9)
    T = DefiningSet(27, tuple(range(1, 14)))
    gamma = solve_gamma_euclidean(field, 27)
    packs.clear()
    spec = generator_from_defining_set(field, 27, field.one, T)
    assert packs.entries == []
    packs.clear()
    cyclic = cyclic_generator_matrix(spec)
    assert packs.entries == [] and packs.elements == []
    assert cyclic._shift == (spec._g, []) and cyclic._shift[0] is spec._g
    extended = extend_code(cyclic, gamma)
    assert packs.entries == [] and packs.elements == [(-gamma).value]
    assert "_packed" not in cyclic.__dict__
    records = []
    for code in (cyclic, extended):
        obj = code_to_json(code)
        row = code._value_rows[0]
        packs.clear()
        records.append(code_from_json(obj)[0])
        assert packs.entries == list(row[:14] + row[27:])
        assert "_value_rows" not in records[-1].__dict__
    for code in (cyclic, extended, *records):
        packs.clear()
        punctured = code.n == 28
        assert code._gram_zero(False) is punctured
        assert codes_module._roots_mismatch(code, T, field.one,
                                            punctured, GuardConfig()) is None
        code._reduced()
        g, tail = code._shift
        assert len(g) == 14 and len(tail) == punctured
        assert packs.entries == []
    packs.clear()
    shuffled = LinearCode._from_values(field, 28, 14,
                                       extended._value_rows[::-1])
    assert shuffled._gram_zero(False)
    assert codes_module._roots_mismatch(shuffled, T, field.one, True,
                                        GuardConfig()) is None
    shuffled._reduced()
    assert len(packs.entries) == 14 * 28


@pytest.mark.parametrize("field", [make_field(7, 1), make_field(2, 3),
                                   quadratic_extension(make_field(3, 1))])
def test_element_rows_and_value_rows_give_the_same_code(field):
    code = rand_code(field, 5, 2, 3)
    twin = LinearCode._from_values(field, 5, 2, code._value_rows)
    assert "generator" not in twin.__dict__
    assert twin == code and hash(twin) == hash(code)
    assert twin.generator == code.generator
    assert twin._value_rows == tuple(tuple(x.value for x in row)
                                     for row in code.generator)


def test_shift_root_is_the_first_power_of_full_order_over_lam():
    # the definition on element powers and orders, for every shift
    # constant and fitting length of a few small fields
    for field in (make_field(7, 1), make_field(13, 1), make_field(2, 4),
                  quadratic_extension(make_field(3, 1))):
        q = field.order
        for lam in list(field.elements())[1:]:
            r = element_order(lam)
            for n in (n for n in range(1, q) if (q - 1) % (r * n) == 0):
                base = nth_root_of_unity(field, r * n)
                want = next((acc for acc in (base ** i for i in range(r * n))
                             if acc ** n == lam
                             and element_order(acc) == r * n), None)
                arith = linalg_module.packed_field(field, n)
                try:
                    powers = list(map(arith.decode, codes_module._root_powers(
                        arith, n, lam, r * n)))
                except RootsNotInField:
                    powers = None
                assert (None if powers is None
                        else powers[1 % (r * n)]) == want
                # every returned power is alpha**e, e < r*n
                if want is not None:
                    assert powers == [want ** e for e in range(r * n)]


def test_constacyclic_spec_negacyclic_gf9():
    tower = quadratic_extension(make_field(3, 1))
    lam = nth_root_of_unity(tower, 2)
    assert lam == -tower.one
    T = DefiningSet(8, (1, 3), step=2)
    spec = generator_from_defining_set(tower, 4, lam, T)
    assert spec.alpha ** 4 == lam
    # g divides x^4 - lambda
    poly = [-lam, tower.zero, tower.zero, tower.zero, tower.one]
    _, rem = poly_divmod(poly, list(spec.g), tower)
    assert not rem
    code = cyclic_generator_matrix(spec)
    assert (code.n, code.k) == (4, 2)
    # the lambda-shift of any row stays inside the span
    for row in code.generator:
        shifted = constacyclic_shift(row, lam)
        assert matrix_rank(list(code.generator) + [shifted], tower) == 2


def test_cyclic_code_words_shift_closed():
    f = make_field(7, 1)
    T = DefiningSet(3, (1,))
    spec = generator_from_defining_set(f, 3, f.one, T)
    code = cyclic_generator_matrix(spec)
    for row in code.generator:
        shifted = constacyclic_shift(row, f.one)
        assert matrix_rank(list(code.generator) + [shifted], f) == code.k


# --- duals ---

def test_euclidean_dual_orthogonality_and_involution():
    f = make_field(5, 1)
    for seed in range(4):
        code = rand_code(f, 6, 3, seed)
        dual = euclidean_dual(code)
        assert dual.k == 3
        for u in code.generator:
            for v in dual.generator:
                acc = f.zero
                for a, b in zip(u, v):
                    acc = acc + a * b
                assert not acc
        assert same_code(euclidean_dual(dual), code)


def test_hermitian_dual_orthogonality_and_involution():
    tower = quadratic_extension(make_field(3, 1))
    q = 3
    for seed in range(4):
        code = rand_code(tower, 5, 2, seed + 50)
        dual = hermitian_dual(code)
        assert dual.k == 3
        for u in code.generator:
            for v in dual.generator:
                acc = tower.zero
                for a, b in zip(u, v):
                    acc = acc + a * b ** q
                assert not acc
        assert same_code(hermitian_dual(dual), code)


def test_hermitian_dual_needs_tower():
    f = make_field(5, 1)
    code = rand_code(f, 4, 2, 3)
    with pytest.raises(NotOverTower):
        is_hermitian_self_dual(code)


def test_self_duality_predicates():
    # [2, 1] code spanned by (1, w) with w^2 = -1 in GF(9)
    tower = quadratic_extension(make_field(3, 1))
    w = tower.y          # y^2 = 2 = -1
    code = LinearCode(tower, 2, 1, ((tower.one, w),))
    assert is_euclidean_self_dual(code)
    f = make_field(5, 1)
    two = f.from_int(2)  # 1 + 2^2 = 0 (mod 5)
    code2 = LinearCode(f, 2, 1, ((f.one, two),))
    assert is_euclidean_self_dual(code2)
    code3 = LinearCode(f, 2, 1, ((f.one, f.one),))
    assert not is_euclidean_self_dual(code3)


def _tower(p, t, levels):
    field = make_field(p, t)
    for _ in range(levels):
        field = quadratic_extension(field)
    return field


# GF(2), GF(3), GF(31), GF(47), GF(2^3), GF(3^4), GF(7^2); towers over
# GF(p) and over GF(p^t); GF(q^4) as towers of towers
GRAM_FIELDS = [(2, 1, 0), (3, 1, 0), (31, 1, 0), (47, 1, 0), (2, 3, 0),
               (3, 4, 0), (7, 2, 0), (3, 1, 1), (47, 1, 1), (2, 1, 1),
               (2, 2, 1), (3, 2, 1), (2, 1, 2), (3, 1, 2), (5, 1, 2)]


def widest_pair(field, n):
    """Two rows with a zero inner product and the largest packed digits.

    All coordinates of m are p - 1, so each of the first n - 1 products
    reaches the digit bound; the last entry cancels their sum.
    """
    m = field.from_int(field.order - 1)
    total = field.zero
    for _ in range(n - 1):
        total = total + m * m
    return ((m,) * (n - 1) + (-total,),), ((m,) * (n - 1) + (field.one,),)


@st.composite
def gram_case(draw):
    field = _tower(*draw(st.sampled_from(GRAM_FIELDS)))
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, min(n, 4)))
    top = field.order - 1
    entry = st.integers(0, top) | st.just(top)
    rows = [tuple(field.from_int(draw(entry)) for _ in range(n))
            for _ in range(k)]
    kind = draw(st.sampled_from(["random", "planted", "perturbed", "widest"]))
    if kind == "random":
        other = [tuple(field.from_int(draw(entry)) for _ in range(n))
                 for _ in range(draw(st.integers(1, 4)))]
    elif kind == "widest":
        rows, other = widest_pair(field, n)
    else:
        other = [list(r) for r in null_space(rows, n, field)[:4]]
        if not other:
            other = [[field.zero] * n]
        if kind == "perturbed":
            row = draw(st.integers(0, len(other) - 1))
            col = draw(st.integers(0, n - 1))
            bump = field.from_int(draw(st.integers(1, top)))
            other[row][col] = other[row][col] + bump
        other = [tuple(r) for r in other]
    return field, kind, rows, other


def layout_gram_is_zero(rows, other, field):
    """Whether every row of ``rows`` times every row of ``other`` is 0,
    each product one reduced dot product on the n-term layout of
    ``packed_field(field, n)``: the exact sum of n products that the
    Gram and root checks rely on."""
    arith = linalg_module.packed_field(field, len(rows[0]))
    pack = functools.partial(map, arith.encode)
    return not any(arith.reduce(sum(map(operator.mul, pack(a), pack(b))))
                   for a in rows for b in other)


@settings(deadline=None, max_examples=100)
@given(gram_case())
def test_packed_gram_matches_the_element_loop(case):
    field, kind, rows, other = case
    want = gram_is_zero_oracle(rows, other, field)
    if kind in ("planted", "widest"):
        assert want
    assert layout_gram_is_zero(rows, other, field) == want


@pytest.mark.parametrize("p, t, levels", [(47, 1, 0), (47, 1, 1), (7, 2, 1),
                                          (3, 1, 2)])
def test_packed_gram_at_the_widest_digit_bound(p, t, levels):
    # n = 30 over GF(47) puts close to n*(p - 1)**2 = 63480 in a digit,
    # which overflows a digit one bit narrower than s = 16
    field = _tower(p, t, levels)
    rows, other = widest_pair(field, 30)
    assert layout_gram_is_zero(rows, other, field)
    assert layout_gram_is_zero(other, rows, field)
    off = ((other[0][0] + field.one,) + other[0][1:],)
    assert not gram_is_zero_oracle(rows, off, field)
    assert not layout_gram_is_zero(rows, off, field)


def _one_pair_rows(field, sigma, i, j):
    """Three independent rows of length 6 whose Gram matrix under the
    pairing x . sigma(y) is zero except at (i, j) and (j, i): rows i and
    j are (1, a, 0, ...) and (1, b, 0, ...) with 1 + a sigma(a) and
    1 + b sigma(b) zero but 1 + a sigma(b) not, and the third row is
    (0, 0, 1, a, 0, 0)."""
    one, zero = field.one, field.zero
    iso = [a for a in field.elements() if one + a * sigma(a) == zero]
    a, b = next((a, b) for a in iso for b in iso if one + a * sigma(b))
    rows = [None] * 3
    rows[i], rows[j] = (one, a) + (zero,) * 4, (one, b) + (zero,) * 4
    rows[3 - i - j] = (zero, zero, one, a, zero, zero)
    return tuple(rows)


@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("pairing", ["euclidean", "hermitian"])
def test_self_duality_refuses_a_gram_with_one_nonzero_pair(pairing, i, j):
    # the half check computes only the entries j <= i of each pair
    if pairing == "euclidean":
        field, check = make_field(5, 1), is_euclidean_self_dual

        def sigma(x):
            return x
    else:
        field, check = quadratic_extension(make_field(3, 1)), \
            is_hermitian_self_dual

        def sigma(x):
            return frobenius(field, x)
    rows = _one_pair_rows(field, sigma, i, j)
    conj = [tuple(map(sigma, row)) for row in rows]
    nonzero = {(a, b) for a in range(3) for b in range(3)
               if not gram_is_zero_oracle([rows[a]], [conj[b]], field)}
    assert nonzero == {(i, j), (j, i)}
    assert not check(LinearCode(field, 6, 3, rows))


# self-dual codes: Euclidean ones over GF(7), GF(8) and GF(81), Hermitian
# ones over GF(25), GF(81) and GF(121), and a hermitian-n5 code
SELF_DUAL_BUILDS = [
    (build_euclidean_duadic_extended, (7, 1, 3)),
    (build_euclidean_duadic_extended, (2, 3, 7)),
    (build_euclidean_duadic_extended, (3, 4, 5)),
    (build_grs_hermitian, (5, 1, 4)),
    (build_grs_hermitian, (3, 2, 8)),
    (build_hermitian_extended_duadic, (11, 1, 5)),
    (build_hermitian_n5, (7, 1)),
]


@functools.cache
def _self_dual_build(index):
    builder, args = SELF_DUAL_BUILDS[index]
    return builder(*args)


def _self_dual_code(index):
    return _self_dual_build(index).code


@st.composite
def self_duality_case(draw):
    """A field and rows: random rows, or random combinations of the rows
    of a self-dual code, whose Gram matrix under its pairing is zero,
    with or without one entry bumped."""
    kind = draw(st.sampled_from(["random", "combined", "bumped"]))
    if kind == "random":
        field = _tower(*draw(st.sampled_from(GRAM_FIELDS)))
        element = st.integers(0, field.order - 1).map(field.from_int)
        n = draw(st.integers(1, 12))
        return field, [tuple(draw(element) for _ in range(n))
                       for _ in range(draw(st.integers(1, 4)))]
    code = _self_dual_code(draw(st.integers(0, len(SELF_DUAL_BUILDS) - 1)))
    field = code.field
    element = st.integers(0, field.order - 1).map(field.from_int)
    rows = [codeword(code, [draw(element) for _ in range(code.k)])
            for _ in range(draw(st.integers(1, code.k)))]
    if kind == "bumped":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, code.n - 1))
        bump = field.from_int(draw(st.integers(1, field.order - 1)))
        rows[i] = rows[i][:j] + (rows[i][j] + bump,) + rows[i][j + 1:]
    return field, rows


@settings(deadline=None, max_examples=150)
@given(self_duality_case())
def test_half_gram_matches_the_full_element_loop(case):
    field, rows = case
    arith = linalg_module.packed_field(field, len(rows[0]))
    packed = [list(map(arith.encode, row)) for row in rows]
    assert (codes_module._gram_is_zero(packed, arith)
            == gram_is_zero_oracle(rows, rows, field))
    if isinstance(field, TowerSpec):
        conj = [tuple(frobenius(field, x) for x in row) for row in rows]
        assert (codes_module._gram_is_zero(packed, arith, conjugate=True)
                == gram_is_zero_oracle(rows, conj, field))


def test_a_self_duality_check_packs_each_row_once_and_reduces_half(
        monkeypatch):
    counts = Counter()
    packed_field = codes_module.packed_field

    def counting(field, terms=1):
        arith = packed_field(field, terms)

        def counted(name):
            def call(v):
                counts[name] += 1
                return getattr(arith, name)(v)
            return call

        return mock.Mock(pack=counted("pack"), reduce=counted("reduce"),
                         conj=counted("conj"))

    # [16, 8] over GF(31), its rows reversed, [8, 4] over GF(81) and
    # [6, 3] over GF(121), built unpatched and copied without their
    # packed rows and verdicts
    built = [build_euclidean_duadic_extended(31, 1, 15).code,
             _self_dual_code(4), _self_dual_code(5)]
    euclidean, hermitian, hermitian_shift = (
        LinearCode(code.field, code.n, code.k, code.generator)
        for code in built)
    reversed_rows = LinearCode(euclidean.field, euclidean.n, euclidean.k,
                               euclidean.generator[::-1])
    assert reversed_rows._shift is None and hermitian._shift is None
    monkeypatch.setattr(codes_module, "packed_field", counting)
    # a shift form (g, tail) packs g and its tail while it is found, and
    # tests its lag sums and, when k > len(g), the tail's inner product
    for code, conjugate in ((euclidean, False), (hermitian_shift, True)):
        counts.clear()
        check = is_hermitian_self_dual if conjugate else is_euclidean_self_dual
        assert check(code)
        k, (g, tail) = code.k, code._shift
        span = len(g)
        want = {"pack": span + len(tail),
                "reduce": min(k, span) + (k > span)}
        if conjugate:
            want["conj"] = span + len(tail)
        assert counts == want and want["reduce"] <= min(k, span) + 1
    # any other generator: each row packed once, by the rank check that
    # made the code, and half of the entries
    counts.clear()
    code = reversed_rows
    k, n = code.k, code.n
    assert len(code._packed) == k
    assert is_euclidean_self_dual(code)
    assert counts == {"reduce": k * (k + 1) // 2}
    counts.clear()
    # both checks of a tower code read its one packed copy, which the
    # rank check that made it packed: a GRS code shows its points there,
    # and on points the conjugate fixes, each check reduces the 2k - 1
    # Hankel entries (i, 0) and (i, k - 1); the Hermitian one conjugates
    # the points once, to see them fixed, and rows 0 and k - 1
    code = hermitian
    k, n = code.k, code.n
    assert code._points is not None
    assert is_hermitian_self_dual(code)
    assert counts == {"conj": 3 * n, "reduce": 2 * k - 1}
    is_euclidean_self_dual(code)
    assert "pack" not in counts and counts["conj"] == 3 * n


@st.composite
def shift_case(draw):
    """(field, rows, kind, roots): a shift form, a built self-dual code
    (most are shift forms) or a perturbed copy of one, with one entry
    changed or two rows swapped, and the (T, lam, punctured) of a root
    check.  A drawn shift form has random k, a tail that is empty or
    one constant column, and either a random nonzero g or the generator
    of a defining set T at a length w | q - 1, so that some root checks
    pass."""
    kind = draw(st.sampled_from(["random", "built", "changed", "swapped"]))
    if kind == "random":
        field = _tower(*draw(st.sampled_from(GRAM_FIELDS)))
        q, zero = field.order, field.zero
        element = st.integers(0, q - 1).map(field.from_int)
        lengths = [w for w in range(2, 13) if (q - 1) % w == 0]
        w = draw(st.sampled_from(lengths or [2, 5]))
        k = draw(st.integers(2, w))
        exponents = st.sets(st.integers(0, w - 1), min_size=w - k,
                            max_size=w - k)
        if lengths and draw(st.booleans()):
            T = DefiningSet(w, tuple(draw(exponents)))
            g = generator_from_defining_set(field, w, field.one, T).g
        else:
            g = tuple(draw(element) for _ in range(w - k + 1))
            assume(any(g))
        tail = draw(st.sampled_from([(), (draw(element),)]))
        rows = [(zero,) * i + tuple(g) + (zero,) * (k - 1 - i) + tail
                for i in range(k)]
        checked = DefiningSet(w, tuple(draw(st.sets(
            st.integers(0, w - 1), min_size=1, max_size=w - 1))))
        return field, rows, kind, (checked, field.one, bool(tail))
    result = _self_dual_build(draw(st.integers(0, len(SELF_DUAL_BUILDS) - 1)))
    code, spec = result.code, result.cyclic
    field, rows = code.field, list(code.generator)
    if kind == "changed":
        i = draw(st.integers(0, code.k - 1))
        j = draw(st.integers(0, code.n - 1))
        bump = field.from_int(draw(st.integers(1, field.order - 1)))
        rows[i] = rows[i][:j] + (rows[i][j] + bump,) + rows[i][j + 1:]
    elif kind == "swapped":
        i, j = draw(st.lists(st.integers(0, code.k - 1), min_size=2,
                             max_size=2, unique=True))
        rows[i], rows[j] = rows[j], rows[i]
    if spec is None:  # a GRS code: no roots to check
        roots = (DefiningSet(code.n - 1, (1,)), field.one, True)
    else:
        roots = (spec.defining, spec.lam, True)
    return field, rows, kind, roots


@settings(deadline=None, max_examples=150)
@given(shift_case())
def test_the_shift_form_and_the_general_path_agree(case):
    field, rows, kind, (T, lam, punctured) = case
    values = tuple(tuple(x.value for x in row) for row in rows)
    try:
        code = LinearCode._from_values(field, len(rows[0]), len(rows),
                                       values)
    except ValueError:  # a changed entry made the rows dependent
        assume(False)
    # the twin takes the general path: its shift form is withheld
    twin = LinearCode._from_values(field, code.n, code.k, values)
    twin.__dict__["_shift"] = None
    if kind == "random":
        assert code._shift is not None
    elif kind == "swapped":
        assert code._shift is None
    want = gram_is_zero_oracle(rows, rows, field)
    assert code._gram_zero(False) == twin._gram_zero(False) == want
    if isinstance(field, TowerSpec):
        conj = [tuple(frobenius(field, x) for x in row) for row in rows]
        want = gram_is_zero_oracle(rows, conj, field)
        assert code._gram_zero(True) == twin._gram_zero(True) == want
    guards = GuardConfig()
    assert (codes_module._roots_mismatch(code, T, lam, punctured, guards)
            == codes_module._roots_mismatch(twin, T, lam, punctured, guards))


@pytest.mark.parametrize("p, t, n", [(7, 1, 6), (3, 2, 8), (2, 4, 15),
                                     (31, 1, 10)])
def test_the_root_check_evaluates_every_row_at_every_root(p, t, n):
    # the root check reads alpha**(e*j) along the walk with stride e;
    # against the rows evaluated on element objects at the root powers,
    # for the code's own T, for T with 0 (stride m), for the empty T,
    # for the largest exponent and for a random T, on the shift form and
    # on the same rows reversed, which take the general path
    field = make_field(p, t)
    rng = random.Random(n)
    seen = set()
    for _ in range(8):
        T = DefiningSet(n, tuple(rng.sample(range(1, n),
                                            rng.randrange(1, n // 2))))
        spec = generator_from_defining_set(field, n, field.one, T)
        code = cyclic_generator_matrix(spec)
        rows = code.generator
        reversed_code = LinearCode._from_values(
            field, n, code.k, code._value_rows[::-1])
        probes = [T, DefiningSet(n, (0, *T.elements)), DefiningSet(n, ()),
                  DefiningSet(n, (n - 1,)),
                  DefiningSet(n, tuple(rng.sample(range(n), 3)))]
        for probe in probes:
            vanish = all(not poly_eval(row, spec.alpha ** e, field)
                         for row in rows for e in probe.elements)
            for c in (code, reversed_code):
                got = codes_module._roots_mismatch(c, probe, field.one,
                                                   False, GuardConfig())
                assert (got is None) == vanish, (probe, got)
            seen.add(vanish)
    assert seen == {True, False}


# --- extension ---

def test_extend_code_appends_scaled_row_sums():
    f = make_field(7, 1)
    code = rand_code(f, 4, 2, 9)
    gamma = f.from_int(3)
    ext = extend_code(code, gamma)
    assert ext.n == 5 and ext.k == 2
    for old, new in zip(code.generator, ext.generator):
        assert new[:4] == old
        acc = f.zero
        for x in old:
            acc = acc + x
        assert new[4] == -(gamma * acc)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(GRAM_FIELDS), st.data())
def test_packed_extension_matches_the_element_sum(spec, data):
    # staircase rows are independent; the entry q - 1 has every digit
    # p - 1, so n of them fill each digit of the packed sum to the bound
    field = _tower(*spec)
    top = field.order - 1
    element = (st.integers(0, top) | st.just(top)).map(field.from_int)
    n = data.draw(st.integers(1, 30))
    k = data.draw(st.integers(1, min(n, 3)))
    rows = tuple((field.zero,) * i + (field.one,)
                 + tuple(data.draw(element) for _ in range(n - i - 1))
                 for i in range(k))
    if data.draw(st.booleans()):
        rows = ((field.from_int(top),) * n,)
    gamma = data.draw(element)
    ext = extend_code(LinearCode(field, n, len(rows), rows), gamma)
    for old, new in zip(rows, ext.generator):
        acc = field.zero
        for x in old:
            acc = acc + x
        assert new == old + (-(gamma * acc),)


def test_an_extension_packs_minus_gamma_and_its_own_g_and_tail(packs):
    # the [28, 14] table code over GF(7^9), whose 27- and 28-term layouts
    # are one, and a [6, 3] extension over GF(121), whose 5- and 6-term
    # layouts are not: the cyclic code packs no value, the extension of
    # it packs -gamma, and on the second layout g and the column value
    # again, d + 2 values, and neither builds the cyclic code's packed
    # rows; the extension's checks then pack nothing more
    seven, tower = make_field(7, 9), _self_dual_code(5).field
    for field, T, gamma in (
            (seven, DefiningSet(27, tuple(range(1, 14))),
             solve_gamma_euclidean(seven, 27)),
            (tower, DefiningSet(5, (1, 2)), tower.one)):
        n = T.modulus
        packs.clear()
        code = cyclic_generator_matrix(
            generator_from_defining_set(field, n, field.one, T))
        assert code._shift is not None and packs.entries == []
        packs.clear()
        extended = extend_code(code, gamma)
        (g, tail), row = extended._shift, extended._value_rows[0]
        assert len(g) == n - code.k + 1 and len(tail) == 1
        assert packs.elements == [(-gamma).value]
        assert "_packed" not in code.__dict__
        assert packs.entries == ([] if field is seven
                                 else list(row[:len(g)] + row[n:]))
        wanted = list(packs.entries)
        assert extended._gram_zero(False) is (field is seven)
        pack = linalg_module.packed_field(field, n + 1).pack
        assert extended._packed == [list(map(pack, row))
                                    for row in extended._value_rows]
        assert packs.entries == wanted
        # the same rows reversed, no shift form, give the same extension
        # with its rows reversed
        rows = code._value_rows[::-1]
        assert extend_code(LinearCode._from_values(field, n, code.k, rows),
                           gamma)._value_rows == extended._value_rows[::-1]


# --- the one source of a shift form ---

def _workloads():
    """The benchmark's instance pools, read from their file as data."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_cyclic_build_holds_its_shift_form_alone(monkeypatch, capsys):
    # every cyclic code and extension the builders make over the 22
    # table pairs, the 56 sweep builds and the cli-cold pool is its
    # shift form: the value rows a table op never asks for are never
    # made, and once asked for they are the rows whose detected form,
    # packed copy and record are the code's own
    made = []

    def keep(build):
        def kept(*args):
            made.append(build(*args))
            return made[-1]
        return kept

    for name in ("cyclic_generator_matrix", "extend_code"):
        monkeypatch.setattr(constructions_module, name,
                            keep(getattr(constructions_module, name)))
    workloads = _workloads()
    for length, p, t in workloads.TABLE_PAIRS:
        run_table_pair(length, p, t)
    assert len(made) == 40
    assert not any("_value_rows" in code.__dict__ for code in made)
    for name, args in workloads.sweep_builds():
        getattr(constructions_module, name)(*args)
    for argv in workloads.CLI_POOL:
        assert cli.main(["construct", *argv]) == 0
    capsys.readouterr()
    # two codes for each of 20 confirmed table pairs, 29 extended sweep
    # builds and 7 extended pool entries; one for each of 6 constacyclic
    # sweep builds and 5 constacyclic pool entries
    assert len(made) == 2 * (20 + 29 + 7) + 6 + 5
    for code in made:
        twin = LinearCode._from_values(code.field, code.n, code.k,
                                       code._value_rows)
        assert code._shift is not None and code._shift == twin._shift
        assert code._packed == twin._packed
        assert code._value_rows == twin._value_rows
        assert code_to_json(code) == code_to_json(twin)


@st.composite
def shift_form(draw):
    """(field, n, k, g, tail): any nonzero g and a tail of at most one
    nonzero value, packed on the n-term layout, over a field of
    ``GRAM_FIELDS``."""
    field = _tower(*draw(st.sampled_from(GRAM_FIELDS)))
    top = field.order - 1
    k = draw(st.integers(2, 5))
    g = draw(st.lists(st.integers(0, top), min_size=1, max_size=6))
    assume(any(g))
    tail = draw(st.lists(st.integers(1, top), max_size=1))
    n = len(g) + k - 1 + len(tail)
    arith = linalg_module.packed_field(field, n)
    g, tail = ([arith.pack(field._from_int(i)) for i in part]
               for part in (g, tail))
    return field, n, k, g, tail


@st.composite
def flat_rows(draw):
    """(flat, k, n, zero): k rows of n entries of ``width`` items, one
    after another, over the items 0..2: a shift form with or without a
    tail, or random rows, with up to two items changed."""
    width = draw(st.integers(1, 3))
    k = draw(st.integers(0, 6))
    n = draw(st.integers(max(k - 1, 1), 9))
    item = st.integers(0, 2)
    zero = [0] * width
    if draw(st.booleans()) and 2 <= k <= n:
        w = draw(st.sampled_from([n, n - 1]))
        g = draw(st.lists(item, min_size=(w - k + 1) * width,
                          max_size=(w - k + 1) * width))
        tail = draw(st.lists(item, min_size=(n - w) * width,
                             max_size=(n - w) * width))
        flat = [x for i in range(k)
                for x in zero * i + g + zero * (k - 1 - i) + tail]
    else:
        flat = draw(st.lists(item, min_size=k * n * width,
                             max_size=k * n * width))
    for _ in range(draw(st.integers(0, 2)) if flat else 0):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(item)
    return flat, k, n, zero


@settings(deadline=None, max_examples=400)
@given(flat_rows())
def test_the_flat_shift_detection_is_the_row_by_row_definition(case):
    flat, k, n, zero = case
    size = n * len(zero)
    rows = [flat[i:i + size] for i in range(0, k * size, size)]
    assert codes_module._shift_of(flat, k, n, zero) == shift_of_oracle(
        rows, n, zero)


@settings(deadline=None, max_examples=100)
@given(shift_form())
def test_the_rows_of_a_shift_form_show_that_form_again(form):
    # detecting the form in the rows of the view gives back (g, tail)
    field, n, k, g, tail = form
    code = LinearCode._from_shift(field, n, k, g, tail)
    twin = LinearCode._from_values(field, n, k, code._value_rows)
    assert twin._shift == (g, tail) and twin._packed == code._packed


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(form=shift_form())
def test_the_record_of_a_shift_form_reads_back_as_the_built_code(packs,
                                                                 form):
    # code_from_json finds the form in the record's coordinates and
    # packs g and the tail once, and nothing else, while it reads it; the
    # record holds no value rows, and its form, packed copy, Gram
    # verdicts and report are the built code's
    field, n, k, g, tail = form
    code = LinearCode._from_shift(field, n, k, g, tail)
    obj = code_to_json(code)
    unpack = linalg_module.packed_field(field, n).unpack
    packs.clear()
    record = code_from_json(obj)[0]
    assert packs.entries == [unpack(v) for v in g + tail]
    assert "_value_rows" not in record.__dict__
    assert record._shift == (g, tail) and record._packed == code._packed
    for conjugate in (False, True)[:1 + isinstance(field, TowerSpec)]:
        assert record._gram_zero(conjugate) == code._gram_zero(conjugate)
    assert verify_code(record) == verify_code(code)
    assert record == code


def test_a_shift_form_is_refused_unless_detection_would_find_it():
    field = make_field(7, 1)
    one, three = (linalg_module.packed_field(field, 6).pack(
        field._from_int(i)) for i in (1, 3))
    assert LinearCode._from_shift(field, 6, 3, [one, 0, three], [one]).k == 3
    for n, k, g, tail in ((6, 3, [0, 0, 0], [one]),     # g = 0
                          (6, 1, [one] * 5, [one]),     # k < 2
                          (6, 3, [one, three], [one]),  # n != 5
                          (6, 3, [one, 0, three], [0]),  # a zero tail
                          (6, 2, [one, three], [one, one]),  # a long tail
                          ):
        with pytest.raises(ValueError):
            LinearCode._from_shift(field, n, k, g, tail)


def test_an_element_of_another_field_is_refused():
    # extend_code, LinearCode(...) and generator_from_defining_set each
    # refuse an element of another field, where before they read its
    # coordinates as if they were the code's
    f11, f13, f7 = make_field(11, 1), make_field(13, 1), make_field(7, 1)
    f121 = quadratic_extension(f11)
    code = cyclic_generator_matrix(generator_from_defining_set(
        f11, 5, f11.one, DefiningSet(5, (1, 2))))
    tower = cyclic_generator_matrix(generator_from_defining_set(
        f121, 5, f121.one, DefiningSet(5, (1, 2))))
    for base, gamma in ((code, f13.from_int(12)), (code, f7.from_int(3)),
                        (tower, f11.from_int(3))):
        with pytest.raises(MalformedInput):
            extend_code(base, gamma)
    with pytest.raises(MalformedInput):
        LinearCode(f11, 2, 1, ((f11.one, f13.from_int(12)),))
    with pytest.raises(MalformedInput):
        generator_from_defining_set(f11, 5, f13.one, DefiningSet(5, (1, 2)))
    # an equal field that is another object is the same field
    twin = FieldSpec(11, 1, f11.modulus)
    assert twin is not f11 and twin == f11
    assert extend_code(code, Element(twin, f11._one)) == extend_code(
        code, f11.one)


# --- distance and MDS ---

def test_min_distance_matches_naive():
    f3 = make_field(3, 1)
    f4 = make_field(2, 2)
    for field, n, k in [(f3, 6, 3), (f3, 5, 2), (f4, 5, 3), (f4, 6, 2)]:
        for seed in range(3):
            code = rand_code(field, n, k, seed * 7 + n)
            assert min_distance_exhaustive(code) == naive_min_distance(code)


def test_min_distance_guard():
    f = make_field(5, 1)
    code = rand_code(f, 8, 4, 1)
    tiny = GuardConfig(codeword_limit=100)
    with pytest.raises(GuardExceeded):
        min_distance_exhaustive(code, tiny)


@pytest.mark.parametrize("field", [make_field(7, 1), make_field(2, 3),
                                   quadratic_extension(make_field(3, 1))])
def test_zech_scan_multiplies_no_element_objects(field, monkeypatch):
    code = rand_code(field, 5, 2, 4)
    want = naive_min_distance(code)
    dlog_table(field)  # the table build may multiply

    def refuse(*args):
        raise AssertionError("element multiply in the scan")

    # raw values multiply through the one product on Field, past the
    # element class
    monkeypatch.setattr(Element, "__mul__", refuse)
    monkeypatch.setattr(Field, "_mul", refuse)
    # the least dlog_limit that admits the table's q - 1 powers leaves
    # the scan on log integers; one less refuses the table
    least = GuardConfig(dlog_limit=field.order - 1)
    assert min_distance_exhaustive(code, least) == want
    assert extension_weight_audit(code, least)[0] == want
    with pytest.raises(DiscreteLogGuardExceeded):
        min_distance_exhaustive(code, GuardConfig(dlog_limit=field.order - 2))


def test_zero_code_is_refused_by_both_scans():
    # a [4, 0] code has no nonzero word, so no distance to report
    zero_code = LinearCode(make_field(7, 1), 4, 0, ())
    with pytest.raises(ValueError):
        min_distance_exhaustive(zero_code)
    with pytest.raises(ValueError):
        extension_weight_audit(zero_code)


def test_mds_columns_iff_distance_meets_singleton():
    f = make_field(5, 1)
    for seed in range(12):
        code = rand_code(f, 6, 3, seed + 100)
        verdict = mds_check(code, "exhaustive-columns")
        d = min_distance_exhaustive(code)
        if verdict.status == "certified-exact":
            assert d == 4
        else:
            assert verdict.status == "refuted"
            assert d < 4
            subset = verdict.witness
            assert len(subset) == 3


# prime fields, characteristic 2 and towers over a prime and over GF(4)
COLUMN_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3),
                 ("tower", 2, 1), ("tower", 3, 1), ("tower", 2, 2)]


def _column_field(spec):
    if spec[0] == "tower":
        return quadratic_extension(make_field(spec[1], spec[2]))
    return make_field(*spec)


@st.composite
def code_with_planted_dependency(draw):
    """A full-rank generator, often with a planted dependent column set.

    Small fields give singular subsets on their own; the planted set
    makes its last column a combination of the others (a zero column
    when it has one member), so the first singular subset can sit deep
    in the walk."""
    field = _column_field(draw(st.sampled_from(COLUMN_FIELDS)))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    entry = st.integers(0, field.order - 1).map(field.from_int)
    cols = [[draw(entry) for _ in range(k)] for _ in range(n)]
    if draw(st.booleans()):
        low = draw(st.integers(0, n - 1))
        planted = sorted(draw(st.sets(st.integers(low, n - 1), min_size=1,
                                      max_size=k)))
        target = [field.zero] * k
        for j in planted[:-1]:
            c = draw(entry)
            target = [t + c * x for t, x in zip(target, cols[j])]
        cols[planted[-1]] = target
    try:
        return LinearCode(field, n, k, tuple(zip(*cols)))
    except ValueError:  # dependent rows
        assume(False)


@settings(deadline=None, max_examples=200)
@given(code_with_planted_dependency())
def test_column_walk_matches_the_lex_determinant_loop(code):
    want = lex_column_oracle(code)
    # dlog_limit = q - 1 leaves the field without a table: packed path
    for guards in (None, GuardConfig(dlog_limit=code.field.order - 1)):
        verdict = mds_check(code, "exhaustive-columns", guards=guards)
        assert (verdict.status, verdict.witness) == want
        assert verdict.trials is None and verdict.passes is None


def vandermonde(field, n, k):
    points = [field.from_int(i) for i in range(n)]
    return LinearCode(field, n, k, tuple(tuple(a ** l for a in points)
                                         for l in range(k)))


def hermitian_n5_code(p):
    """A [6, 3, 4] code over GF(p^2) that is MDS but not GRS: the Cauchy
    certificate declines it, so ``mds_check`` reaches its searches."""
    return build_hermitian_n5(p, 1).code


@pytest.mark.parametrize("dlog_limit", [2**20, 1])
def test_column_walk_expands_only_prefixes_that_fit(dlog_limit, monkeypatch):
    def refuse(*args):
        raise AssertionError("determinant called")

    walk = codes_module.first_dependent_subset
    expanded = []

    def counting_walk(columns, k, step):
        def counted(pivot_col, p, rows):
            expanded.append(len(pivot_col))
            return step(pivot_col, p, rows)
        return walk(columns, k, counted)

    # built first: the builder certifies its code
    code = hermitian_n5_code(3)
    n, k = code.n, code.k
    monkeypatch.setattr(DlogTable, "det_nonzero", refuse)
    monkeypatch.setattr(PackedField, "det_nonzero", refuse)
    monkeypatch.setattr(codes_module, "first_dependent_subset",
                        counting_walk)
    guards = GuardConfig(dlog_limit=dlog_limit)
    assert mds_check(code, "exhaustive-columns",
                     guards=guards) == MdsVerdict("certified-exact")
    # a prefix of j columns is expanded only while the k - j columns still
    # missing fit after its last one: C(n - k + j, j) prefixes, each
    # pivoting on a residual of k - j + 1 coordinates
    assert Counter(expanded) == {k - j + 1: comb(n - k + j, j)
                                 for j in range(1, k)}
    code = rand_code(make_field(7, 1), 6, 3, 0)
    assert mds_check(code, "exhaustive-columns", guards=guards) == \
        MdsVerdict("refuted", witness=lex_column_oracle(code)[1])


@pytest.mark.parametrize("dlog_limit", [2**20, 1])
def test_n_equal_2k_without_self_duality_walks_every_subset(dlog_limit):
    # the only dependent pair, columns 1 and 2, avoids column 0: a walk
    # that took self-duality for granted would certify this code
    f = make_field(5, 1)
    cols = [(1, 0), (0, 1), (0, 2), (1, 1)]
    code = LinearCode(f, 4, 2, tuple(zip(
        *[[f.from_int(x) for x in col] for col in cols])))
    assert not is_euclidean_self_dual(code)
    guards = GuardConfig(dlog_limit=dlog_limit)
    assert mds_check(code, "exhaustive-columns", guards=guards) == \
        MdsVerdict("refuted", witness=(1, 2))


@functools.lru_cache(maxsize=None)
def _self_dual_blocks(field_id):
    """(field, generators of small self-dual codes over it, the column
    scalars that keep a code self-dual: +-1, or u with u**(q+1) = 1)."""
    if field_id[0] == "euclidean":
        _, p, lengths = field_id
        field = make_field(p, 1)
        blocks = [build_euclidean_duadic_extended(p, 1, n).code.generator
                  for n in lengths]
        root = sqrt_in_field(-field.one)
        if root is not None:  # the [2, 1] code (1, i), i**2 = -1
            blocks.append(((field.one, root),))
        return field, blocks, (field.one, -field.one)
    _, p, t, lengths = field_id
    blocks = [exists_hermitian_dispatch(p, t, n).code.generator
              for n in lengths]
    tower = blocks[0][0][0].field
    q = tower.base.order
    units = tuple(x for x in tower.elements()
                  if x and x ** (q + 1) == tower.one)
    return tower, blocks, units


SELF_DUAL_FIELDS = [("euclidean", 7, (3,)), ("euclidean", 13, (3,)),
                    ("euclidean", 29, (7,)), ("hermitian", 3, 1, (2, 4)),
                    ("hermitian", 5, 1, (2, 4, 6)),
                    ("hermitian", 2, 2, (2, 4))]


@st.composite
def self_dual_code(draw):
    """A direct sum of built self-dual codes, its columns permuted and
    scaled by units that keep it self-dual.  One block is MDS; a sum of
    two is not, so its refutations test the witness."""
    field, blocks, units = _self_dual_blocks(
        draw(st.sampled_from(SELF_DUAL_FIELDS)))
    chosen = draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=4)
                  .filter(lambda bs: sum(len(b[0]) for b in bs) <= 8))
    n = sum(len(b[0]) for b in chosen)
    rows, offset = [], 0
    for block in chosen:
        width = len(block[0])
        rows += [(field.zero,) * offset + tuple(row)
                 + (field.zero,) * (n - offset - width) for row in block]
        offset += width
    perm = draw(st.permutations(range(n)))
    scale = draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    return LinearCode(field, n, n // 2, tuple(
        tuple(row[perm[j]] * scale[j] for j in range(n)) for row in rows))


@settings(deadline=None, max_examples=100)
@given(self_dual_code())
def test_self_dual_walk_matches_the_lex_determinant_loop(code):
    assert is_euclidean_self_dual(code) or is_hermitian_self_dual(code)
    want = lex_column_oracle(code)
    # dlog_limit = q - 1 leaves the field without a table: packed path
    for guards in (None, GuardConfig(dlog_limit=code.field.order - 1)):
        verdict = mds_check(code, "exhaustive-columns", guards=guards)
        assert (verdict.status, verdict.witness) == want


def monte_carlo_oracle(code, trials):
    """The sampler on full k x k minors of the generator, same seed."""
    n, k = code.n, code.k
    rng = random.Random("%d:%d:%d" % (n, k, code.field.order))
    columns = tuple(zip(*code.generator))
    for passes in range(trials):
        subset = sorted(rng.sample(range(n), k))
        if not det_nonzero_oracle([[columns[j][i] for j in subset]
                                   for i in range(k)], code.field):
            return MdsVerdict("refuted", trials=trials, passes=passes,
                              witness=tuple(subset))
    return MdsVerdict("monte-carlo", trials=trials, passes=trials)


@settings(deadline=None, max_examples=150)
@given(code_with_planted_dependency(), st.integers(1, 30))
def test_monte_carlo_matches_the_full_minor_oracle(code, trials):
    want = monte_carlo_oracle(code, trials)
    for guards in (None, GuardConfig(dlog_limit=code.field.order - 1)):
        assert mds_check(code, "monte-carlo", trials=trials,
                         guards=guards) == want


@pytest.mark.parametrize("dlog_limit", [2**20, 1])
def test_monte_carlo_calls_det_nonzero_once_per_trial(dlog_limit,
                                                      monkeypatch):
    # the minors go through the det_nonzero method of the reduced form's
    # packed values, within dlog_limit and beyond it
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(DlogTable, "det_nonzero",
                        counting("zech", DlogTable.det_nonzero))
    monkeypatch.setattr(PackedField, "det_nonzero",
                        counting("packed", PackedField.det_nonzero))
    name = "packed"
    guards = GuardConfig(dlog_limit=dlog_limit)
    mds = hermitian_n5_code(3)
    assert mds_check(mds, "monte-carlo", trials=50, guards=guards) == \
        MdsVerdict("monte-carlo", trials=50, passes=50)
    assert calls == {name: 50}
    calls.clear()
    verdict = mds_check(rand_code(make_field(7, 1), 6, 3, 0), "monte-carlo",
                        trials=50, guards=guards)
    assert verdict.status == "refuted"
    assert calls == {name: verdict.passes + 1}


def cauchy_certificate(code):
    """(accepted, points) of the Cauchy certificate on packed values;
    points are the decoded (x, y, c, d), or None."""
    arith = linalg_module.packed_field(code.field)
    reduced, pivots = arith.row_reduce(
        [[arith.encode(x) for x in row] for row in code.generator])
    accepted = codes_module._cauchy_certified(arith, reduced, pivots)
    k = code.k
    if not accepted or k <= 1 or code.n - k <= 1:
        return accepted, None
    points = arith.cauchy_points([row[k:] for row in reduced])
    return accepted, tuple(list(map(arith.decode, part)) for part in points)


def assert_cauchy_like(code, points):
    """A of the reduced generator [I | A] is c_i d_j / (x_i - y_j), by
    element arithmetic, with distinct x, distinct y, nonzero c and d."""
    x, y, c, d = points
    reduced, pivots = row_reduce_oracle(code.generator, code.field)
    assert pivots == tuple(range(code.k))
    assert len(set(x)) == len(x) and len(set(y)) == len(y)
    assert all(c) and all(d)
    for i, row in enumerate(reduced):
        for j, a in enumerate(row[code.k:]):
            assert x[i] != y[j] and a * (x[i] - y[j]) == c[i] * d[j]


@st.composite
def grs_code(draw):
    """A GRS generator v_j * a_j**i over a column-test field, often with
    one entry changed, which may or may not keep it MDS.  Lengths start
    at 4 where the field allows, so that A often has two rows and two
    columns and the certificate must recover points."""
    field = _column_field(draw(st.sampled_from(COLUMN_FIELDS)))
    q = field.order
    n = draw(st.integers(min(q, 4), min(q, 7)))
    k = draw(st.integers(1, n))
    points = draw(st.permutations(range(q)))[:n]
    scales = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    rows = [[field.from_int(v) * field.from_int(a) ** i
             for a, v in zip(points, scales)] for i in range(k)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = field.from_int(draw(st.integers(0, q - 1)))
    try:
        return LinearCode(field, n, k, tuple(map(tuple, rows)))
    except ValueError:  # dependent rows
        assume(False)


@settings(deadline=None, max_examples=200)
@given(code=st.one_of(grs_code(), code_with_planted_dependency()),
       trials=st.integers(1, 30))
def test_cauchy_certificate_is_sound(code, trials):
    want = lex_column_oracle(code)
    accepted, points = cauchy_certificate(code)
    if accepted:
        assert want == ("certified-exact", None)
    if points is not None:
        assert_cauchy_like(code, points)
    # dlog_limit = q - 1 leaves the field without a table: packed path
    for guards in (None, GuardConfig(dlog_limit=code.field.order - 1)):
        verdict = mds_check(code, "exhaustive-columns", guards=guards)
        assert (verdict.status, verdict.witness) == want
        assert mds_check(code, "monte-carlo", trials=trials,
                         guards=guards) == monte_carlo_oracle(code, trials)


def _table_code(length, p, t):
    return build_euclidean_duadic_extended(p, t, length - 1).code


GRS_FIXTURES = [(_table_code, row[0], p, t) for row in TABLE_ROWS
                if 8 <= row[0] <= 16 for p, t in row[1]] + [
    (lambda p, n: build_hermitian_extended_duadic(p, 1, n).code, 31, 15),
    (lambda p, n: build_grs_hermitian(p, 1, n).code, 31, 30),
    (lambda p, n: build_grs_hermitian(p, 3, n).code, 3, 26),
]


@pytest.mark.parametrize("fixture", GRS_FIXTURES,
                         ids=lambda f: ",".join(map(str, f[1:])))
def test_cauchy_certificate_accepts_the_shipped_grs_codes(fixture):
    build, *args = fixture
    code = build(*args)
    accepted, points = cauchy_certificate(code)
    assert accepted
    assert_cauchy_like(code, points)


@pytest.mark.parametrize("p", [3, 7, 13])
def test_cauchy_certificate_declines_the_hermitian_n5_codes(p):
    code = hermitian_n5_code(p)
    assert cauchy_certificate(code) == (False, None)
    assert mds_check(code, "exhaustive-columns") == \
        MdsVerdict("certified-exact")


@pytest.mark.parametrize("p, t", [(7, 1), (2, 3)])
def test_cauchy_certificate_stops_at_the_trial_bound(p, t):
    field = make_field(p, t)
    q = field.order
    # n = q: the q - 1 trials outnumber the n - 2 placements that put a
    # point at infinity
    grs = vandermonde(field, q, 3)
    accepted, points = cauchy_certificate(grs)
    assert accepted
    assert_cauchy_like(grs, points)
    # the doubly-extended RS code is MDS, but every placement of its
    # q + 1 points puts one at infinity; the column walk proves it
    k = 4
    rows = vandermonde(field, q, k).generator
    infinity = (field.zero,) * (k - 1) + (field.one,)
    extended = LinearCode(field, q + 1, k, tuple(
        row + (x,) for row, x in zip(rows, infinity)))
    assert cauchy_certificate(extended) == (False, None)
    for guards in (GuardConfig(dlog_limit=q), GuardConfig(dlog_limit=q - 1)):
        assert mds_check(extended, "exhaustive-columns", guards=guards) == \
            MdsVerdict("certified-exact")


@pytest.mark.parametrize("dlog_limit", [2**20, 1])
def test_one_changed_entry_of_a_cauchy_block_is_refuted_by_the_walk(
        dlog_limit):
    f = make_field(11, 1)
    k = 4
    grs = vandermonde(f, 8, k)
    reduced, _ = row_reduce(grs.generator, f)
    rows = [list(row) for row in reduced]
    # the recovery reads only rows 0-1 and columns 0-1 of A; make the
    # 2 x 2 block of A on rows 1-2 and columns 1-2 singular outside them
    a = [row[k:] for row in rows]
    rows[2][k + 2] = a[1][2] * a[2][1] / a[1][1]
    assert rows[2][k + 2] != a[2][2]
    code = LinearCode(f, 8, k, tuple(map(tuple, rows)))
    assert cauchy_certificate(code) == (False, None)
    status, witness = lex_column_oracle(code)
    assert status == "refuted"
    guards = GuardConfig(dlog_limit=dlog_limit)
    assert mds_check(code, "exhaustive-columns", guards=guards) == \
        MdsVerdict("refuted", witness=witness)


@pytest.mark.parametrize("mode", ["exhaustive-columns", "monte-carlo"])
def test_a_grs_code_reaches_neither_search(mode, monkeypatch):
    def refuse(*args):
        raise AssertionError("search reached")

    # built first: build_grs_hermitian certifies its code
    codes = [vandermonde(make_field(11, 1), 9, 4),
             build_grs_hermitian(13, 1, 12).code]
    monkeypatch.setattr(codes_module, "first_dependent_subset", refuse)
    monkeypatch.setattr(DlogTable, "det_nonzero", refuse)
    monkeypatch.setattr(PackedField, "det_nonzero", refuse)
    for code in codes:
        assert mds_check(code, mode, trials=50) == (
            MdsVerdict("certified-exact") if mode == "exhaustive-columns"
            else MdsVerdict("monte-carlo", trials=50, passes=50))


@st.composite
def grs_code_with_a_changed(draw):
    """[I | A] of a GRS code with one entry of A changed (to zero, too):
    full rank whatever the entry, MDS or not."""
    code = draw(grs_code())
    k = code.k
    assume(k < code.n)
    reduced, pivots = row_reduce(code.generator, code.field)
    assume(pivots == tuple(range(k)))
    rows = [list(row) for row in reduced]
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(k, code.n - 1))
    rows[i][j] = code.field.from_int(draw(st.integers(0,
                                                      code.field.order - 1)))
    return LinearCode(code.field, code.n, k, tuple(map(tuple, rows)))


@settings(deadline=None, max_examples=200)
@given(st.one_of(grs_code(), grs_code_with_a_changed(),
                 code_with_planted_dependency()))
def test_auto_exhaustive_rung_agrees_with_the_scan(code):
    # auto mode reads the Cauchy verdict before it would scan; a forced
    # exhaustive rung always scans: same tier, verdict and distance
    assume(code.field.order ** code.k <= 10**5)
    assert certify_mds(code) == certify_mds(code, mode="exhaustive")


def test_auto_exhaustive_rung_scans_only_what_the_certificate_declines(
        monkeypatch):
    scans = []

    def counting(code, guards=None):
        scans.append(code)
        return min_distance_exhaustive(code, guards)

    # built first: the builder certifies its code
    grs, n5 = vandermonde(make_field(11, 1), 8, 3), hermitian_n5_code(3)
    monkeypatch.setattr(codes_module, "min_distance_exhaustive", counting)
    for code in (grs, n5):
        want = MdsCertificate("exhaustive", MdsVerdict("certified-exact"),
                              distance_exact=code.n - code.k + 1)
        assert certify_mds(code) == want
        assert certify_mds(code, mode="exhaustive") == want
    # the hermitian-n5 code is MDS but not GRS: auto mode scans it
    assert scans == [grs, n5, n5]


def test_auto_exhaustive_rung_keeps_its_codeword_guard():
    # its points withheld, the code is still proved, by the Cauchy
    # certificate of its reduced form, and the guard still refuses
    code = vandermonde(make_field(11, 1), 8, 3)
    code.__dict__["_points"] = None
    assert codes_module.prove_mds(code, None, GuardConfig()) == "cauchy"
    guards = GuardConfig(codeword_limit=11**3 - 1)
    message = "q**k = 1331 exceeds the codeword guard"
    assert certify_mds(code, guards=guards) == MdsCertificate(
        "exhaustive", MdsVerdict("guarded"), reason=message,
        warning=message + "; no distance computed")


def table_asks():
    """How often ``dlog_table`` has been asked for a table, cached or
    not: a path that leaves it unchanged asked for none."""
    info = dlog_table.cache_info()
    return info.hits + info.misses


def test_a_packed_certificate_builds_no_table():
    # a [10, 5] GRS code over GF(5^6), its points withheld: the reduced
    # form is packed, and the certificate holds
    field = make_field(5, 6)
    asks = table_asks()
    points = [field.from_int(3 ** i) for i in range(10)]
    code = LinearCode(field, 10, 5, tuple(tuple(a ** i for a in points)
                                          for i in range(5)))
    assert code._points is not None
    code.__dict__["_points"] = None
    assert isinstance(code._reduced().arith, linalg_module.PackedField)
    assert codes_module.prove_mds(code, None, GuardConfig()) == "cauchy"
    assert mds_check(code, "exhaustive-columns") == \
        MdsVerdict("certified-exact")
    assert mds_check(code, "monte-carlo", trials=5) == \
        MdsVerdict("monte-carlo", trials=5, passes=5)
    assert table_asks() == asks


@pytest.mark.parametrize("planted", [False, True])
def test_the_column_rung_walks_a_packed_form_without_a_table(planted):
    # a random [8, 4] code over GF(31^2): the certificate declines it,
    # and the walk on R matches the per-subset oracle on G
    field = make_field(31, 2)
    asks = table_asks()
    rng = random.Random(8)
    cols = [[field.from_int(rng.randrange(field.order)) for _ in range(4)]
            for _ in range(8)]
    if planted:
        cols[6] = [a + field.from_int(5) * b
                   for a, b in zip(cols[2], cols[4])]
    code = LinearCode(field, 8, 4, tuple(zip(*cols)))
    assert code._points is None
    assert codes_module.prove_mds(code, None, GuardConfig()) is None
    status, witness = lex_column_oracle(code)
    assert (status == "refuted") == planted
    assert mds_check(code, "exhaustive-columns") == MdsVerdict(
        status, witness=witness)
    assert table_asks() == asks


@pytest.mark.parametrize("changed", [False, True])
def test_every_reduction_is_packed_and_builds_no_table(changed,
                                                       monkeypatch):
    # the doubly-extended [8, 4] RS code over GF(7), whose rows are no
    # evaluation form (the point at infinity), and the [9, 4] GRS code
    # over GF(103) with its rows shuffled; or each with one entry of A
    # set to 0, which the certificate declines, so the searches run.
    # Every reduction, walk and minor runs on packed values, whatever
    # the dlog_limit, and no DlogTable method runs
    f7, f103 = make_field(7, 1), make_field(103, 1)
    rows = tuple(tuple(a ** i for a in f7.elements())
                 + (f7.one if i == 3 else f7.zero,) for i in range(4))
    grs = vandermonde(f103, 9, 4).generator
    codes = [LinearCode(f7, 8, 4, rows),
             LinearCode(f103, 9, 4, (grs[2], grs[0], grs[3], grs[1]))]
    if changed:
        edited = []
        for code in codes:
            rows = element_rows(code._reduced())
            rows[0][4] = code.field.zero
            edited.append(LinearCode(code.field, code.n, 4,
                                     tuple(map(tuple, rows))))
        codes = edited

    def refuse(*args, **kwargs):
        raise AssertionError("a DlogTable method ran")

    for name, attr in vars(DlogTable).items():
        if callable(attr):
            monkeypatch.setattr(DlogTable, name, refuse)
    for code in codes:
        assert code._points is None
        form = code._reduced()
        assert isinstance(form.arith, PackedField)
        assert element_rows(form) == [list(row) for row in row_reduce_oracle(
            code.generator, code.field)[0]]
        assert not (changed and codes_module.prove_mds(code, None,
                                                       GuardConfig()))
        status, witness = lex_column_oracle(code)
        assert (status == "refuted") == changed
        for guards in (GuardConfig(), GuardConfig(dlog_limit=6)):
            assert mds_check(code, "exhaustive-columns", guards=guards) == \
                MdsVerdict(status, witness=witness)
            assert mds_check(code, "monte-carlo", trials=50,
                             guards=guards) == monte_carlo_oracle(code, 50)
        assert code._reduced() is form


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(COLUMN_FIELDS + [(3, 16), (7, 9)]), st.data())
def test_rank_check_matches_the_rank_oracle(spec, data):
    # the reduced form on packed values against the rank of the oracle
    field = _column_field(spec)
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, n))
    entry = st.integers(0, field.order - 1).map(field.from_int)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
    if data.draw(st.booleans()):
        combo = [field.zero] * n
        for row in rows[1:]:
            c = data.draw(entry)
            combo = [a + c * x for a, x in zip(combo, row)]
        rows[0] = combo
    rows = tuple(map(tuple, rows))
    full = matrix_rank(rows, field) == k
    try:
        LinearCode(field, n, k, rows)
        assert full
    except ValueError:
        assert not full


@st.composite
def generator_with_planted_dependency(draw):
    """k rows of length n over a column-test field, often with one row
    a combination of the others; such rows have no staircase of leading
    positions, so only the rank check can tell them apart."""
    field = _column_field(draw(st.sampled_from(COLUMN_FIELDS)))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    entry = st.integers(0, field.order - 1).map(field.from_int)
    rows = [[draw(entry) for _ in range(n)] for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        target = draw(st.integers(0, k - 1))
        combo = [field.zero] * n
        for i, row in enumerate(rows):
            if i != target:
                c = draw(entry)
                combo = [a + c * x for a, x in zip(combo, row)]
        rows[target] = combo
    return field, n, tuple(tuple(row) for row in rows)


@settings(deadline=None, max_examples=200)
@given(generator_with_planted_dependency())
def test_linear_code_accepts_exactly_the_full_rank_generators(case):
    field, n, rows = case
    try:
        LinearCode(field, n, len(rows), rows)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (matrix_rank(rows, field) == len(rows))


def test_mds_monte_carlo_is_deterministic():
    f = make_field(7, 1)
    code = rand_code(f, 6, 3, 5)
    a = mds_check(code, "monte-carlo", trials=64)
    b = mds_check(code, "monte-carlo", trials=64)
    assert (a.status, a.trials, a.passes, a.witness) == \
        (b.status, b.trials, b.passes, b.witness)


@pytest.mark.parametrize("trials", [0, -3])
def test_fewer_than_one_trial_is_refused(trials):
    # zero sampled minors must not come back as a structural certificate
    code = vandermonde(make_field(7, 1), 6, 3)
    with pytest.raises(MalformedInput):
        mds_check(code, "monte-carlo", trials=trials)
    with pytest.raises(MalformedInput):
        certify_mds(code, structural=True, trials=trials, mode="monte-carlo")
    with pytest.raises(MalformedInput):
        certify_mds(code, trials=trials)


def test_mds_bch_needs_defining_set():
    f = make_field(7, 1)
    code = rand_code(f, 4, 2, 2)
    with pytest.raises(NoCyclicStructure):
        certify_mds(code, mode="bch")
    # the root-run certificate is a rung of the ladder, not a check mode
    with pytest.raises(ValueError):
        mds_check(code, "bch")


def test_mds_bch_certificate():
    tower = quadratic_extension(make_field(3, 1))
    lam = -tower.one
    T = DefiningSet(8, (1, 3), step=2)
    spec = generator_from_defining_set(tower, 4, lam, T)
    code = cyclic_generator_matrix(spec)
    verdict = certify_mds(code, defining=T, lam=lam, mode="bch").verdict
    assert verdict.status == "certified-bch"
    # and the certificate is honest: true distance meets the bound
    assert min_distance_exhaustive(code) == 3


@pytest.mark.parametrize("mode", ["exhaustive-columns", "monte-carlo"])
def test_mds_check_log_tables_and_elements_agree(mode):
    # dlog_limit=1 forces the packed path: same draws, same witnesses
    f = make_field(7, 1)
    no_tables = GuardConfig(dlog_limit=1)
    codes = [vandermonde(f, 6, 3)] + [rand_code(f, 6, 3, seed)
                                      for seed in range(4)]
    statuses = set()
    for code in codes:
        a = mds_check(code, mode, trials=64)
        assert a == mds_check(code, mode, trials=64, guards=no_tables)
        statuses.add(a.status)
    assert "refuted" in statuses and len(statuses) == 2


@pytest.mark.parametrize("p, t", [(3, 16), (7, 9)])
def test_mds_check_above_the_table_cap_refutes_the_planted_dependency(p, t):
    # GF(3^16) and GF(7^9) exceed the default dlog_limit: both searches
    # run on packed values, and column 5 is planted in the span of
    # columns 1 and 3
    field = make_field(p, t)
    rng = random.Random("%d:%d" % (p, t))
    cols = [[field.from_int(rng.randrange(1, field.order)) for _ in range(3)]
            for _ in range(7)]
    a, b = (field.from_int(rng.randrange(1, field.order)) for _ in range(2))
    cols[5] = [a * x + b * y for x, y in zip(cols[1], cols[3])]
    code = LinearCode(field, 7, 3, tuple(zip(*cols)))
    status, witness = lex_column_oracle(code)
    assert status == "refuted"
    asks = table_asks()
    assert mds_check(code, "exhaustive-columns") == \
        MdsVerdict("refuted", witness=witness)
    assert mds_check(code, "monte-carlo", trials=40) == \
        monte_carlo_oracle(code, 40)
    assert table_asks() == asks


def test_certify_mds_rung_follows_facts_and_guards():
    tower = quadratic_extension(make_field(3, 1))
    T = DefiningSet(8, (1, 3), step=2)
    code = cyclic_generator_matrix(
        generator_from_defining_set(tower, 4, -tower.one, T))
    cert = certify_mds(code)
    assert (cert.tier, cert.verdict.status, cert.distance_exact) == \
        ("exhaustive", "certified-exact", 3)
    # q**k = 49**4 is past EXHAUSTIVE_TIER, and C(8, 4) = 70 past the
    # column guard: the facts pick the next rung
    built = build_constacyclic_hermitian(7, 1, 8, 2)
    code, spec = built.code, built.cyclic
    assert code.field.order ** code.k > codes_module.EXHAUSTIVE_TIER
    tight = GuardConfig(column_limit=1)
    cert = certify_mds(code, defining=spec.defining, lam=spec.lam,
                       guards=tight)
    assert (cert.tier, cert.verdict.status, cert.distance_lower_bound) == \
        ("bch", "certified-bch", 5)
    # the [16, 8] table code over GF(31), extended from the duadic
    # [15, 8] code
    table = build_euclidean_duadic_extended(31, 1, 15)
    cert = certify_mds(table.code, extended_defining=table.cyclic.defining,
                       lam=table.cyclic.lam, guards=tight)
    assert (cert.tier, cert.verdict.status, cert.distance_lower_bound) == \
        ("extended-bch", "certified-bch", 8)
    cert = certify_mds(code, guards=tight)
    assert (cert.tier, cert.verdict.status, cert.distance_exact) == \
        ("monte-carlo", "monte-carlo", None)
    cert = certify_mds(code, structural=True, guards=tight)
    assert (cert.verdict.status, cert.distance_exact) == \
        ("certified-structural", 5)
    # a forced rung beyond its guard is a verdict, not an exception
    cert = certify_mds(code, mode="columns", guards=tight)
    assert cert.verdict.status == "guarded"
    assert cert.warning == cert.reason == \
        "C(n, k) = 70 exceeds the column guard"
    with pytest.raises(NoCyclicStructure):
        certify_mds(code, mode="bch")


def test_the_auto_column_rung_runs_past_an_overridden_dlog_limit():
    # the column walk runs on packed values where no table is allowed,
    # so a field above dlog_limit keeps the columns rung and its
    # verdict: the [16, 8] table code over GF(31), and the same code
    # with its last column replaced by the one before it
    code = build_euclidean_duadic_extended(31, 1, 15).code
    rows = code._value_rows
    broken = tuple(row[:-1] + row[-2:-1] for row in rows)
    for values, status in ((rows, "certified-exact"), (broken, "refuted")):
        low, default = (
            certify_mds(LinearCode._from_values(code.field, 16, 8, values),
                        guards=guards)
            for guards in (GuardConfig(dlog_limit=30), GuardConfig()))
        assert (low.tier, low.verdict.status) == ("columns", status)
        assert low == default


def test_extended_root_run_needs_the_first_coordinates_to_keep_rank():
    f = make_field(7, 1)
    T = DefiningSet(3, (1,))
    code = extend_code(cyclic_generator_matrix(
        generator_from_defining_set(f, 3, f.one, T)), f.one)
    cert = certify_mds(code, extended_defining=T, lam=f.one,
                       mode="extended-bch")
    assert cert.verdict.status == "certified-bch"
    # a row on the appended coordinate alone vanishes at every root, yet
    # it is a word of weight 1
    unit = (f.zero,) * 3 + (f.one,)
    hostile = LinearCode(f, 4, 2, (code.generator[0], unit))
    assert min_distance_exhaustive(hostile) == 1
    cert = certify_mds(hostile, extended_defining=T, lam=f.one,
                       mode="extended-bch")
    assert cert.verdict.status == "inconclusive"
    assert cert.reason == "the first n - 1 coordinates lose a dimension"


def test_extension_weight_audit_reports_sums():
    f = make_field(2, 2)
    T = DefiningSet(3, (1,))
    spec = generator_from_defining_set(f, 3, f.one, T)
    duadic = cyclic_generator_matrix(spec)
    d, sums_ok = extension_weight_audit(duadic)
    assert d == 2 and sums_ok is True


# --- serialization ---

def test_code_json_roundtrip_with_metadata():
    tower = quadratic_extension(make_field(3, 1))
    code = rand_code(tower, 4, 2, 77)
    blob = json.dumps(code_to_json(code, {"construction": "test", "r": 2}))
    back, meta = code_from_json(json.loads(blob))
    assert same_code(back, code)
    assert meta == {"construction": "test", "r": 2}
    assert back.field.order == 9


def test_code_json_refuses_the_zero_code():
    # LinearCode keeps k = 0 (the dual of a k = n code); a record may not
    f = make_field(5, 1)
    zero_code = LinearCode(f, 3, 0, ())
    assert euclidean_dual(euclidean_dual(zero_code)).k == 0
    with pytest.raises(MalformedInput):
        code_from_json(code_to_json(zero_code))


def test_poly_helpers():
    f = make_field(5, 1)
    a = [f.from_int(1), f.from_int(2)]           # 1 + 2x
    b = [f.from_int(3), f.from_int(1)]           # 3 + x
    prod = poly_mul(a, b, f)
    assert [f.index(c) for c in prod] == [3, 2, 2]  # 3 + 7x + 2x^2
    quo, rem = poly_divmod(prod, a, f)
    assert [f.index(c) for c in quo] == [3, 1]
    assert not rem
