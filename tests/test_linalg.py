"""The log-table and packed kernels against element arithmetic and
elimination oracles, and cache bounds."""
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from selfdual.fields import (
    FIELD_CACHE_SIZE,
    TOWER_CACHE_SIZE,
    find_primitive_element,
    make_field,
    quadratic_extension,
)
from selfdual.linalg import (
    DLOG_CACHE_SIZE,
    DlogTable,
    _TABLES,
    det_nonzero,
    dlog_table,
    packed_field,
    row_reduce,
)
from selfdual.numtheory import is_prime

from oracles import ENCODINGS, det_nonzero_oracle, row_reduce_oracle

# (p, t, number of quadratic extensions on top of GF(p^t))
DET_FIELDS = [(2, 1, 0), (2, 2, 0), (2, 3, 0), (2, 1, 1), (2, 2, 1),
              (3, 1, 0), (7, 1, 0), (3, 2, 0), (3, 1, 1), (5, 1, 1)]


def _field(p, t, towers):
    field = make_field(p, t)
    for _ in range(towers):
        field = quadratic_extension(field)
    return field


def _singular(rng, field, k):
    """A k x k matrix whose last row is a combination of the others."""
    els = [field.from_int(i) for i in range(field.order)]
    rows = [[rng.choice(els) for _ in range(k)] for _ in range(k - 1)]
    last = [field.zero] * k
    for row in rows:
        c = rng.choice(els)
        last = [a + c * b for a, b in zip(last, row)]
    rows.insert(rng.randrange(k), last)
    return rows


@pytest.mark.parametrize("p, t, towers", DET_FIELDS,
                         ids=["GF(%d^%d)%s" % (p, t, "^2" * towers)
                              for p, t, towers in DET_FIELDS])
def test_zech_determinant_matches_the_element_path(p, t, towers):
    field = _field(p, t, towers)
    table = DlogTable(field)
    rng = random.Random("%d:%d:%d" % (p, t, towers))
    els = [field.from_int(i) for i in range(field.order)]
    verdicts = set()
    for trial in range(60):
        k = rng.randint(1, 6)
        if trial % 3 == 0:
            rows = _singular(rng, field, k) if k > 1 else [[field.zero]]
        else:
            rows = [[rng.choice(els) for _ in range(k)] for _ in range(k)]
        encoded = [[table.encode(x) for x in row] for row in rows]
        want = det_nonzero_oracle(rows, field)
        assert table.det_nonzero(encoded) == want
        assert det_nonzero(rows, field) == want
        if trial % 3 == 0:
            assert not want
        verdicts.add(want)
    assert verdicts == {True, False}


def power_walk_tables(field):
    """pow_idx, log and zech by element multiplies and additions."""
    g = find_primitive_element(field)
    pow_idx, acc = [], field.one
    for _ in range(field.order - 1):
        pow_idx.append(field.index(acc))
        acc = acc * g
    log = [-1] * field.order
    for e, idx in enumerate(pow_idx):
        log[idx] = e
    zech = [log[field.index(field.from_int(idx) + field.one)]
            for idx in pow_idx]
    return pow_idx, log, zech


# DET_FIELDS (GF(2), GF(3), and GF(4)^2, an even tower with c1 != 0),
# then GF(8)^2, the other such tower, the Hermitian towers GF(47)^2,
# GF(7^2)^2 and GF(3^3)^2, and GF(65537), whose giant-step lanes need
# more than 64 bits and are read by shifts
WALK_FIELDS = DET_FIELDS + [(31, 3, 0), (2, 12, 0), (131, 2, 0),
                            (2, 3, 1), (47, 1, 1), (7, 2, 1), (3, 3, 1),
                            (65537, 1, 0)]


@pytest.mark.parametrize("p, t, towers", WALK_FIELDS,
                         ids=["GF(%d^%d)%s" % (p, t, "^2" * towers)
                              for p, t, towers in WALK_FIELDS])
def test_giant_steps_match_the_power_walk(p, t, towers):
    field = _field(p, t, towers)
    if towers and p == 2:
        assert field.ext_modulus[1]  # y**2 + c1*y + c0 with c1 != 0
    table = DlogTable(field)
    assert (table.pow_idx, table.log, table.zech) == power_walk_tables(field)
    assert table.half == (0 if p == 2 else (field.order - 1) // 2)


# fields whose q - 1 is prime (GF(3), GF(2^t) for t = 2, 3, 5, 7), a
# perfect square (GF(2), GF(5), GF(17), GF(37), GF(101), GF(257)), or
# neither, so that the last giant step runs past q - 1
TABLE_FIELDS = [(3, 1, 0), (2, 2, 0), (2, 3, 0), (2, 5, 0), (2, 7, 0),
                (2, 1, 0), (5, 1, 0), (17, 1, 0), (37, 1, 0), (101, 1, 0),
                (257, 1, 0), (3, 3, 0), (5, 2, 0), (3, 1, 1), (2, 2, 1),
                (5, 1, 1), (7, 3, 0), (3, 5, 0)]


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(TABLE_FIELDS), st.data())
def test_table_entries_are_powers_of_the_primitive_element(spec, data):
    field = _field(*spec)
    q = field.order
    g = find_primitive_element(field)
    table = DlogTable(field)
    assert sorted(table.pow_idx) == list(range(1, q))
    assert [table.log[i] for i in table.pow_idx] == list(range(q - 1))
    assert table.log[0] == -1 and len(table.zech) == q - 1
    for e in data.draw(st.lists(st.integers(0, q - 2), min_size=1,
                                max_size=8)):
        x = g ** e
        assert table.pow_idx[e] == field.index(x)
        assert table.zech[e] == table.log[field.index(x + field.one)]


@pytest.mark.parametrize("p, t, towers", [(7, 1, 0), (2, 3, 0), (3, 1, 1)])
def test_a_two_row_scan_counts_without_adding_rows(p, t, towers,
                                                   monkeypatch):
    field = _field(p, t, towers)
    table = DlogTable(field)
    rng = random.Random(p * t)
    els = [field.from_int(i) for i in range(field.order)]
    rows = [[field.one, field.zero] + [rng.choice(els) for _ in range(5)],
            [field.zero, field.one] + [rng.choice(els) for _ in range(5)]]
    rows[1][3] = field.zero
    # every nonzero combination of the two rows, by element arithmetic
    want = min(sum(1 for x, y in zip(*rows) if a * x + b * y)
               for a in els for b in els if a or b)

    def refuse(*args):
        raise AssertionError("a k = 2 scan builds no word")

    monkeypatch.setattr(DlogTable, "add_multiple", refuse)
    assert table.min_weight([[table.encode(x) for x in row]
                             for row in rows]) == want


def _random_rows(field, data):
    """Up to 5 rows of up to 7 random entries, often with a dependent row
    inserted, so that the rank is below the count."""
    n = data.draw(st.integers(1, 7))
    entry = st.integers(0, field.order - 1).map(field.from_int)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=1, max_size=5))
    if data.draw(st.booleans()):
        combo = [field.zero] * n
        for row in rows:
            c = data.draw(entry)
            combo = [a + c * x for a, x in zip(combo, row)]
        rows.insert(data.draw(st.integers(0, len(rows))), combo)
    return rows


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(DET_FIELDS), st.data())
def test_zech_row_reduce_decodes_to_the_element_form(spec, data):
    field = _field(*spec)
    table = dlog_table(field, field.order)
    rows = _random_rows(field, data)
    reduced, pivots = table.row_reduce(
        [[table.encode(x) for x in row] for row in rows])
    decoded = tuple(tuple(map(table.decode, row)) for row in reduced)
    assert (decoded, pivots) == row_reduce_oracle(rows, field)


# DET_FIELDS, then fields beyond any default table: GF(3^16) and GF(7^9)
# of the reference table, a tower over GF(p^t) and GF(2^31 - 1)
PACKED_FIELDS = DET_FIELDS + [(3, 16, 0), (7, 9, 0), (5, 2, 1),
                              (2**31 - 1, 1, 0)]


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(PACKED_FIELDS), st.data())
def test_packed_row_reduce_decodes_to_the_element_form(spec, data):
    field = _field(*spec)
    packed = packed_field(field)
    rows = _random_rows(field, data)
    reduced, pivots = packed.row_reduce(
        [[packed.encode(x) for x in row] for row in rows])
    decoded = tuple(tuple(map(packed.decode, row)) for row in reduced)
    assert (decoded, pivots) == row_reduce_oracle(rows, field)
    assert row_reduce(rows, field) == (decoded, pivots)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(PACKED_FIELDS), st.data())
def test_packed_determinant_and_step_match_the_element_oracle(spec, data):
    # most of PACKED_FIELDS lie beyond the default dlog_limit, where the
    # searches of mds_check run on packed values
    field = _field(*spec)
    packed = packed_field(field)
    k = data.draw(st.integers(1, 5))
    entry = st.integers(0, field.order - 1).map(field.from_int)
    rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                              min_size=k, max_size=k))
    if data.draw(st.booleans()):  # a row in the span of the others
        combo = [field.zero] * k
        for row in rows[1:]:
            c = data.draw(entry)
            combo = [a + c * x for a, x in zip(combo, row)]
        rows[0] = combo
    encoded = [[packed.encode(x) for x in row] for row in rows]
    want = det_nonzero_oracle(rows, field)
    assert packed.det_nonzero(encoded) == want
    assert det_nonzero(rows, field) == want
    # one walk step: the other rows lose row[p] / pivot[p] times the
    # pivot row and drop coordinate p
    lead = next((i for i, row in enumerate(rows) if any(row)), None)
    assume(lead is not None)
    pivot = rows[lead]
    p = next(t for t, x in enumerate(pivot) if x)
    others = rows[:lead] + rows[lead + 1:]
    stepped = packed.eliminate(encoded[lead], p,
                               encoded[:lead] + encoded[lead + 1:])
    assert [[packed.decode(v) for v in row] for row in stepped] == [
        [u - row[p] / pivot[p] * v
         for t, (u, v) in enumerate(zip(row, pivot)) if t != p]
        for row in others]


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(PACKED_FIELDS), st.data())
def test_packed_batch_inverse_matches_each_inverse(spec, data):
    field = _field(*spec)
    packed = packed_field(field)
    values = data.draw(st.lists(st.integers(1, field.order - 1)
                                .map(field.from_int), max_size=8))
    got = packed.inverses([packed.encode(x) for x in values])
    assert [packed.decode(v) for v in got] == [x.inverse() for x in values]


@st.composite
def cauchy_block(draw):
    """(field, A) with A the block of a reduced GRS generator [I | A]
    over a field within the default table cap, often with one entry
    changed (to zero, too), so that both certificates must decline."""
    field = _field(*draw(st.sampled_from(DET_FIELDS + [(13, 1, 0),
                                                        (31, 2, 0)])))
    q = field.order
    n = draw(st.integers(min(q, 4), min(q, 9)))
    k = draw(st.integers(2, max(2, n - 2)))
    assume(n - k >= 2)
    points = draw(st.permutations(range(q)))[:n]
    scales = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    rows = [[field.from_int(v) * field.from_int(a) ** i
             for a, v in zip(points, scales)] for i in range(k)]
    reduced, pivots = row_reduce(rows, field)
    assume(pivots == tuple(range(k)))
    a_rows = [list(row[k:]) for row in reduced]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - k - 1))
        a_rows[i][j] = field.from_int(draw(st.integers(0, q - 1)))
    return field, a_rows


@settings(deadline=None, max_examples=300)
@given(cauchy_block())
def test_both_encodings_recover_the_same_cauchy_points(block):
    field, a_rows = block
    found = []
    for encoding in ENCODINGS.values():
        arith = encoding(field)
        points = arith.cauchy_points([list(map(arith.encode, row))
                                      for row in a_rows])
        found.append(None if points is None else
                     [list(map(arith.decode, part)) for part in points])
    assert found[0] == found[1]
    if found[0] is not None:  # the identity, by element arithmetic
        x, y, c, d = found[0]
        assert len(set(x)) == len(x) and len(set(y)) == len(y)
        assert all(c) and all(d)
        for row, xi, ci in zip(a_rows, x, c):
            for a, yj, dj in zip(row, y, d):
                assert xi != yj and a * (xi - yj) == ci * dj


# a prime field, GF(p^t), a tower, and characteristic 2 (half = 0)
ADD_FIELDS = [(7, 1, 0), (3, 2, 0), (5, 1, 1), (2, 3, 0)]


@pytest.mark.parametrize("p, t, towers", ADD_FIELDS,
                         ids=["GF(%d^%d)%s" % (p, t, "^2" * towers)
                              for p, t, towers in ADD_FIELDS])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_add_multiple_decodes_to_element_arithmetic(p, t, towers, data):
    field = _field(p, t, towers)
    table = dlog_table(field, field.order)
    m = field.order - 1
    log = st.integers(0, m - 1)

    def decode(e):
        return field.zero if e == -1 else field.from_int(table.pow_idx[e])

    n = data.draw(st.integers(1, 6))
    row = data.draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    shift = data.draw(log)
    terms = []
    for pos in data.draw(st.lists(st.integers(0, n - 1), unique=True)):
        if row[pos] != -1 and data.draw(st.booleans()):
            # g**shift * g**x = -row[pos]: the sum cancels to zero
            terms.append((pos, (row[pos] + table.half - shift) % m))
        else:
            terms.append((pos, data.draw(log)))
    want = [decode(e) for e in row]
    for pos, x in terms:
        want[pos] = want[pos] + decode(shift) * decode(x)
    got = list(row)
    table.add_multiple(got, shift, terms)
    assert [decode(e) for e in got] == want
    # every example also cancels once: g**shift * g**(e + half - shift)
    # is -g**e
    e = data.draw(log)
    cancelled = [e]
    table.add_multiple(cancelled, shift, [(0, (e + table.half - shift) % m)])
    assert cancelled == [-1]


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_cauchy_points_refuse_a_point_shared_by_x_and_y(encoding):
    # A[i][j] = 1 / (x_i - y_j): c = d = 1, and the first trial recovers x
    f = make_field(13, 1)
    arith = ENCODINGS[encoding](f)

    def cauchy(x, y):
        return [[arith.zero if xi == yj else
                 arith.encode((f.from_int(xi) - f.from_int(yj)).inverse())
                 for yj in y] for xi in x]

    found = arith.cauchy_points(cauchy((0, 1, 5), (2, 3, 4)))
    assert found[0] == [arith.encode(f.from_int(v)) for v in (0, 1, 5)]
    # with y_2 = x_2 = 5, put A = g = c_2 * d_2 * g at the pole (2, 2):
    # only the guard on x_i - y_j = 0 tells this A from a Cauchy-like one
    # on log ints, where the zero difference is the log -1
    a_rows = cauchy((0, 1, 5), (2, 3, 5))
    a_rows[2][2] = arith.encode(find_primitive_element(f))
    assert arith.cauchy_points(a_rows) is None
    # a point repeated in x (or in y) keeps the identity but makes two
    # rows (columns) of A proportional: only the distinctness check
    # refuses it
    assert arith.cauchy_points(cauchy((0, 1, 0), (2, 3, 4))) is None
    assert arith.cauchy_points(cauchy((0, 1, 5), (2, 3, 2))) is None


def test_module_caches_stay_bounded():
    primes = [p for p in range(2, 10**4) if is_prime(p)]
    for p in primes[:FIELD_CACHE_SIZE + 8]:
        find_primitive_element(make_field(p, 1))
    for p in primes[:TOWER_CACHE_SIZE + 8]:
        quadratic_extension(make_field(p, 1))
    for p in primes[:DLOG_CACHE_SIZE + 8]:
        dlog_table(make_field(p, 1), p)
    assert make_field.cache_info().currsize == FIELD_CACHE_SIZE
    assert find_primitive_element.cache_info().currsize == FIELD_CACHE_SIZE
    assert quadratic_extension.cache_info().currsize == TOWER_CACHE_SIZE
    assert len(_TABLES) == DLOG_CACHE_SIZE
    # least recently used first out: the newest table is kept, the
    # oldest is built again
    newest = make_field(primes[DLOG_CACHE_SIZE + 7], 1)
    table = dlog_table(newest, 10**4, build=False)
    assert table is not None and dlog_table(newest, 10**4) is table
    assert dlog_table(make_field(2, 1), 2, build=False) is None
    assert dlog_table(make_field(2, 1), 2) is not None
