"""The log table and the packed kernels against element arithmetic and
elimination oracles, and cache bounds."""
import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from selfdual import linalg as linalg_module
from selfdual.codes import LinearCode, certify_mds, min_distance_exhaustive
from selfdual.config import GuardConfig
from selfdual.errors import DiscreteLogGuardExceeded, GuardExceeded
from selfdual.fields import (
    FIELD_CACHE_SIZE,
    TOWER_CACHE_SIZE,
    Field,
    find_primitive_element,
    make_field,
    quadratic_extension,
)
from selfdual.linalg import (
    DLOG_CACHE_SIZE,
    DlogTable,
    det_nonzero,
    dlog_table,
    first_dependent_subset,
    packed_field,
    row_reduce,
)
from selfdual.numtheory import is_prime

from oracles import det_nonzero_oracle, matrix_rank, row_reduce_oracle

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
def test_the_log_determinant_adapter_matches_the_element_path(p, t, towers):
    # DlogTable.det_nonzero maps logs to packed values and decides there
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
# GF(7^2)^2 and GF(3^3)^2, and GF(65537), a walk longer than any table
# a scan builds under the default guards
WALK_FIELDS = DET_FIELDS + [(31, 3, 0), (2, 12, 0), (131, 2, 0),
                            (2, 3, 1), (47, 1, 1), (7, 2, 1), (3, 3, 1),
                            (65537, 1, 0)]


@pytest.mark.parametrize("p, t, towers", WALK_FIELDS,
                         ids=["GF(%d^%d)%s" % (p, t, "^2" * towers)
                              for p, t, towers in WALK_FIELDS])
def test_the_packed_walk_matches_the_element_power_walk(p, t, towers):
    field = _field(p, t, towers)
    if towers and p == 2:
        assert field.ext_modulus[1]  # y**2 + c1*y + c0 with c1 != 0
    table = DlogTable(field)
    assert (table.pow_idx, table.log, table.zech) == power_walk_tables(field)
    # the adapter's packed powers are those of the packed arithmetic
    packed = packed_field(field)
    assert table.powers == list(map(packed.encode_index, table.pow_idx))
    # the field's -1 is g**((q - 1) / 2), or g**0 in characteristic 2
    assert table.encode(-field.one) == (0 if p == 2 else
                                        (field.order - 1) // 2)


# fields whose q - 1 is prime (GF(3), GF(2^t) for t = 2, 3, 5, 7), a
# perfect square (GF(2), GF(5), GF(17), GF(37), GF(101), GF(257)), or
# neither
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


# fields of the scanned codes: GF(p), GF(p^t) and a tower, up to
# GF(53^2), whose k = 2 scan the default codeword guard admits
TRAFFIC_FIELDS = [(2, 1, 0), (7, 1, 0), (2, 3, 0), (3, 2, 0), (5, 1, 1),
                  (31, 1, 0), (127, 1, 0), (53, 2, 0)]
CODEWORD_LIMITS = [10, 10**3, 10**4, 10**5, 10**6, 10**7]


def _random_code(rng, field, k):
    """A random [n, k] code, n from k to k + 3."""
    n = rng.randint(k, k + 3)
    while True:
        rows = tuple(tuple(field.from_int(rng.randrange(field.order))
                           for _ in range(n)) for _ in range(k))
        try:
            return LinearCode(field, n, k, rows)
        except ValueError:  # dependent rows
            pass


def test_a_scan_builds_a_table_only_under_the_codeword_guard():
    # random codes through the automatic ladder, the named exhaustive
    # rung and the scan itself, under codeword guards up to the default:
    # only a scan of k >= 2 builds a table, and the guard holds q**k, so
    # every table has q**2 <= codeword_limit (3,162 entries at most by
    # default)
    rng = random.Random(49)
    built, seen = [], set()
    init = DlogTable.__init__

    def recording(self, field, guards=None):
        built.append(field.order)
        init(self, field, guards)

    with mock.patch.object(DlogTable, "__init__", recording):
        for spec in TRAFFIC_FIELDS:
            field = _field(*spec)
            for limit in CODEWORD_LIMITS:
                guards = GuardConfig(codeword_limit=limit)
                for k in (1, 2, 3):
                    code = _random_code(rng, field, k)
                    dlog_table.cache_clear()
                    certify_mds(code, guards=guards)
                    certify_mds(code, mode="exhaustive", guards=guards)
                    try:
                        min_distance_exhaustive(code, guards)
                    except GuardExceeded:
                        pass
                    assert all(q * q <= limit for q in built), (spec, limit)
                    seen.update((q, limit) for q in built)
                    built.clear()
    # every field built a table under some guard, GF(53^2) only under
    # the default
    assert {q for q, _ in seen} == {_field(*spec).order
                                    for spec in TRAFFIC_FIELDS}
    assert {limit for q, limit in seen if q == 53 ** 2} == {10**7}


@pytest.mark.parametrize("build, p, t", [(DlogTable, 3, 16),
                                         (dlog_table, 7, 9)])
def test_a_log_table_past_the_discrete_log_guard_is_refused_at_once(
        monkeypatch, build, p, t):
    # q - 1 = 43,046,720 and 40,353,606 powers, above the default 2**20:
    # refused before a layout, a primitive element or any product
    field = make_field(p, t)

    def refuse(*args):
        raise AssertionError("a product before the refusal")

    monkeypatch.setattr(Field, "_layout", refuse)
    monkeypatch.setattr(linalg_module, "find_primitive_element", refuse)
    with pytest.raises(DiscreteLogGuardExceeded):
        build(field)


def test_the_log_table_guard_is_the_one_in_force(monkeypatch):
    # q - 1 = 48 powers build at dlog_limit = 48 and are refused at 47,
    # an explicit config over the environment; nothing refused is
    # cached, and GF(31^3), the per-layer probe's table, builds under
    # the default guards
    field = make_field(7, 2)
    dlog_table.cache_clear()
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "dlog_limit=47")
    for build in (DlogTable, dlog_table):
        with pytest.raises(DiscreteLogGuardExceeded):
            build(field)
        with pytest.raises(DiscreteLogGuardExceeded):
            build(field, GuardConfig(dlog_limit=47))
        assert len(build(field, GuardConfig(dlog_limit=48)).pow_idx) == 48
    assert dlog_table.cache_info().currsize == 1
    monkeypatch.setenv("SELFDUAL_GUARD_OVERRIDE", "dlog_limit=48")
    assert len(dlog_table(field).pow_idx) == 48
    monkeypatch.delenv("SELFDUAL_GUARD_OVERRIDE")
    assert len(DlogTable(make_field(31, 3)).pow_idx) == 31 ** 3 - 1


@pytest.mark.parametrize("p, t", [(53, 2), (3137, 1)])
def test_the_walk_near_the_default_cap_matches_the_element_walk(p, t):
    field = make_field(p, t)
    assert field.order ** 2 <= GuardConfig().codeword_limit
    table = DlogTable(field)
    assert (table.pow_idx, table.log, table.zech) == power_walk_tables(field)


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


@pytest.mark.parametrize("p, t, towers", DET_FIELDS,
                         ids=["GF(%d^%d)%s" % (p, t, "^2" * towers)
                              for p, t, towers in DET_FIELDS])
def test_the_scan_weight_matches_every_word_by_element_arithmetic(p, t,
                                                                  towers):
    # independent rows of 1 to 3, a third of their entries zero (the log
    # -1), against the weight of every nonzero message's word; planted,
    # the sum of all the rows has weight 1, a word whose every
    # coefficient is 1
    field = _field(p, t, towers)
    table = DlogTable(field)
    rng = random.Random("scan:%d:%d:%d" % (p, t, towers))
    els = [field.from_int(i) for i in range(field.order)]
    for k, planted in [(1, False), (2, False), (2, True), (3, False),
                       (3, True), (3, True)]:
        n = rng.randint(k + 1, 6)
        while True:
            rows = [[field.zero if rng.random() < 1 / 3 else rng.choice(els)
                     for _ in range(n)] for _ in range(k)]
            if planted:
                light = [field.zero] * n
                light[rng.randrange(n)] = rng.choice(els[1:])
                rows[0] = [w - sum(col, field.zero)
                           for w, col in zip(light, zip(*rows[1:]))]
            if matrix_rank(rows, field) == k:
                break
        want = min(sum(1 for col in zip(*rows)
                       if sum((a * x for a, x in zip(msg, col)), field.zero))
                   for msg in itertools.product(els, repeat=k) if any(msg))
        encoded = [[table.encode(x) for x in row] for row in rows]
        assert encoded == [table.encode_row([x.value for x in row])
                           for row in rows]
        assert table.min_weight(encoded) == want
        assert want == 1 or not planted


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


@pytest.mark.parametrize("p, t, towers", DET_FIELDS,
                         ids=["GF(%d^%d)%s" % (p, t, "^2" * towers)
                              for p, t, towers in DET_FIELDS])
def test_the_column_walk_finds_the_lex_first_dependent_subset(p, t,
                                                              towers):
    # packed columns, zero entries among them, often one planted in the
    # span of two earlier ones, against one determinant per k-subset in
    # itertools.combinations order
    field = _field(p, t, towers)
    packed = packed_field(field)
    rng = random.Random("walk:%d:%d:%d" % (p, t, towers))
    els = [field.from_int(i) for i in range(field.order)]
    verdicts = set()
    for trial in range(40):
        k = rng.randint(1, 4)
        n = rng.randint(k, 8)
        cols = [[field.zero if rng.random() < 1 / 4 else rng.choice(els)
                 for _ in range(k)] for _ in range(n)]
        if trial % 2 and n > 2:
            i, j = rng.sample(range(n - 1), 2)
            a, b = rng.choice(els), rng.choice(els)
            cols[rng.randrange(max(i, j) + 1, n)] = [
                a * x + b * y for x, y in zip(cols[i], cols[j])]
        want = next((subset for subset in
                     itertools.combinations(range(n), k)
                     if not det_nonzero_oracle(
                         [[cols[j][i] for j in subset] for i in range(k)],
                         field)), None)
        encoded = [list(map(packed.encode, col)) for col in cols]
        assert first_dependent_subset(encoded, k, packed.eliminate) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


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
    """(field, A, changed) with A the block of a reduced GRS generator
    [I | A] of length n <= q, often with one entry changed (to zero,
    too), so that the certificate may decline."""
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
    changed = draw(st.booleans())
    if changed:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - k - 1))
        a_rows[i][j] = field.from_int(draw(st.integers(0, q - 1)))
    return field, a_rows, changed


@settings(deadline=None, max_examples=300)
@given(cauchy_block())
def test_recovered_cauchy_points_satisfy_the_identity(block):
    field, a_rows, changed = block
    packed = packed_field(field)
    points = packed.cauchy_points([list(map(packed.encode, row))
                                   for row in a_rows])
    # the trials find points for every GRS block of length n <= q
    assert points is not None or changed
    if points is not None:  # the identity, by element arithmetic
        x, y, c, d = [list(map(packed.decode, part)) for part in points]
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
    table = dlog_table(field)
    m = field.order - 1
    half = 0 if p == 2 else m // 2  # -1 = g**half
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
            terms.append((pos, (row[pos] + half - shift) % m))
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
    table.add_multiple(cancelled, shift, [(0, (e + half - shift) % m)])
    assert cancelled == [-1]


def test_cauchy_points_refuse_a_point_shared_by_x_and_y():
    # A[i][j] = 1 / (x_i - y_j): c = d = 1, and the first trial recovers x
    f = make_field(13, 1)
    arith = packed_field(f)

    def cauchy(x, y):
        return [[arith.zero if xi == yj else
                 arith.encode((f.from_int(xi) - f.from_int(yj)).inverse())
                 for yj in y] for xi in x]

    found = arith.cauchy_points(cauchy((0, 1, 5), (2, 3, 4)))
    assert found[0] == [arith.encode(f.from_int(v)) for v in (0, 1, 5)]
    # with y_2 = x_2 = 5, put A = g = c_2 * d_2 * g at the pole (2, 2):
    # only the guard on x_i - y_j = 0 tells this A from a Cauchy-like one
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
    dlog_table.cache_clear()
    tables = [dlog_table(make_field(p, 1))
              for p in primes[:DLOG_CACHE_SIZE + 8]]
    assert make_field.cache_info().currsize == FIELD_CACHE_SIZE
    assert find_primitive_element.cache_info().currsize == FIELD_CACHE_SIZE
    assert quadratic_extension.cache_info().currsize == TOWER_CACHE_SIZE
    assert dlog_table.cache_info().currsize == DLOG_CACHE_SIZE
    # least recently used first out: the newest table is kept, the
    # oldest is built again
    newest = make_field(primes[DLOG_CACHE_SIZE + 7], 1)
    misses = dlog_table.cache_info().misses
    assert dlog_table(newest) is tables[-1]
    assert dlog_table.cache_info().misses == misses
    oldest = dlog_table(make_field(2, 1))
    assert oldest is not tables[0]
    assert dlog_table.cache_info().misses == misses + 1
    assert dlog_table(make_field(2, 1)) is oldest
