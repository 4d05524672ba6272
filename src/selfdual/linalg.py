"""Matrix routines over packed ints, and the log table of the codeword
scan.

Every independence question on columns (a minor, all k-subsets of
columns) is one lex column walk, ``first_dependent_subset``.  Its step
``eliminate``, Gauss-Jordan ``row_reduce`` (pivoting on the first
nonzero entry: the reduced form is unique), ``det_nonzero`` and the
Cauchy certificate ``cauchy_points`` are written once, as methods of
``PackedField``, on whose packed values every code is reduced, walked
and certified.  ``DlogTable`` holds the log encoding of the codeword
scan alone: its one addition ``add_multiple`` and ``min_weight``.  It is
built by a plain walk of packed products on the field's own layout, and
in the package only the codeword scan builds one; its ``det_nonzero``
maps logs to packed values and decides there.  Element objects do no
linear algebra: the element ``row_reduce``, ``det_nonzero`` and
``null_space`` run on ``packed_field`` and decode.
"""
from __future__ import annotations

import collections
import functools
import itertools

from .config import GuardConfig, current_guards
from .errors import DiscreteLogGuardExceeded
from .fields import Element, Field, TowerSpec, find_primitive_element


def first_dependent_subset(columns, k: int, step):
    """The lex-first linearly dependent k-subset of ``columns``, or None.

    A depth-first walk over the subsets in ``itertools.combinations``
    order.  With d columns chosen, every later column is held as its
    residual modulo their span, the pivot coordinates dropped.  Choosing
    column c pivots on its first nonzero residual entry and hands the
    residuals of all columns after c, reduced by ``step(residual_c,
    pivot, later_residuals)``, to the next depth.  A zero residual makes
    every subset with that prefix dependent, and the first of them is
    the witness.  With k = len(columns) the walk decides whether the
    given vectors are independent.  The entries are packed values, whose
    zero is the int 0.
    """
    n = len(columns)
    chosen = []

    def walk(start, residuals):
        need = k - len(chosen)
        # a candidate must leave need - 1 columns after it
        for c in range(start, n - need + 1):
            residual = residuals[c - start]
            for pivot, x in enumerate(residual):
                if x:
                    break
            else:
                return tuple(chosen) + tuple(range(c, c + need))
            if need > 1:
                chosen.append(c)
                found = walk(c + 1, step(residual, pivot,
                                         residuals[c - start + 1:]))
                chosen.pop()
                if found is not None:
                    return found
        return None

    if k == 0:
        return None
    return walk(0, [list(col) for col in columns])


class DlogTable:
    """The log encoding of the codeword scan, for its small fields.

    Elements are encoded as the exponent of the canonical primitive
    element, with -1 for zero.  Addition goes through the table
    z[d] = log(1 + g**d), built once per field.  The table does no
    linear algebra: ``det_nonzero`` maps logs to packed values and asks
    ``PackedField.det_nonzero``.

    The powers of g come from a plain walk: g**(e + 1) is one packed
    product of g**e and g on the field's one-product layout
    (``Field._layout(1)``), and ``pow_idx`` reads the canonical index of
    each.  The walk costs q - 1 products, and the codeword scan, the one
    caller in the package, builds a table only under the codeword guard
    on q**k with k >= 2, so q is at most the square root of that guard
    (3,162 entries at the default 10**7).  The walk is one over the
    powers of g, so a field whose q - 1 exceeds the ``dlog_limit`` of
    ``guards`` is refused with ``DiscreteLogGuardExceeded`` before any
    product, whatever the codeword guard.  ``log`` inverts ``pow_idx``.
    Adding 1 only touches coordinate 0, so 1 + x has the next canonical
    index, or p less at the end of a run of p indices, and ``zech``
    reads ``log`` there.
    """

    def __init__(self, field: Field, guards: GuardConfig | None = None):
        q, p = field.order, field.char
        limit = current_guards(guards).dlog_limit
        if q - 1 > limit:
            raise DiscreteLogGuardExceeded(
                "a log table of %d powers exceeds the discrete-log guard %d"
                % (q - 1, limit))
        pack, reduce, unpack = field._layout(1)
        g = pack(find_primitive_element(field).value)
        x, powers = pack(field._one), []
        for _ in range(q - 1):
            powers.append(x)
            x = reduce(x * g)
        # exponent -> canonical element index
        pow_idx = list(map(field._index, map(unpack, powers)))
        log = [-1] * (q + 1)  # canonical element index -> exponent
        for e, idx in enumerate(pow_idx):
            log[idx] = e
        zech = [log[idx + 1] for idx in pow_idx]
        for idx in range(p - 1, q, p):  # the ends of the runs
            zech[log[idx]] = log[idx + 1 - p]
        log.pop()  # the slot past the end
        self.field = field
        self.q = q
        self.log = log
        self.pow_idx = pow_idx
        self.powers = powers  # exponent -> packed value, on packed_field
        self.zech = zech

    def encode(self, x: Element) -> int:
        return self.log[self.field.index(x)]

    def encode_row(self, values) -> list[int]:
        # the log of index 0, the zero, is -1
        return list(map(self.log.__getitem__, map(self.field._index, values)))

    def add_multiple(self, row, shift, terms):
        """row[t] += g**shift * g**x for each (t, x) in ``terms``, in place,
        as log(a + b) = log a + z[log b - log a]: the one Zech addition."""
        m = self.q - 1
        zech = self.zech
        for t, x in terms:
            term = (x + shift) % m
            cur = row[t]
            if cur == -1:
                row[t] = term
            else:
                z = zech[(term - cur) % m]
                row[t] = -1 if z == -1 else (cur + z) % m

    def min_weight(self, rows: list[list[int]]) -> int:
        """Minimum weight over one word per projective message class of
        the row space of encoded ``rows``, which must be independent:
        the words whose first nonzero coefficient is 1, each its parent
        word plus 0 or g**c (c < q - 1) times the next row.

        The children at the last row r are counted, not built: w + g**c*r
        is zero at coordinate j where r_j = w_j = 0, and, where both are
        nonzero, for the one c with g**c = -w_j / r_j, which is
        log w_j - log r_j + log(-1) (mod q - 1).  So with z the
        coordinates where both are zero, the least weight over c is
        n - z - (the size of the largest class of equal
        log w_j - log r_j, the shift by log(-1) moving every class alike),
        and of the child w itself (c = 0 drops r) n - z - (the
        coordinates where only r is nonzero): one tally of n coordinates
        for the q children of each prefix.
        """
        k, m, n = len(rows), self.q - 1, len(rows[0])
        terms = [[(t, x) for t, x in enumerate(row) if x != -1]
                 for row in rows]
        last = rows[-1]
        support = [t for t, _ in terms[-1]]
        others = [t for t, x in enumerate(last) if x == -1]
        minus = [-x for _, x in terms[-1]]  # -log r_j
        best = n - last.count(-1)

        def rec(level, word):
            nonlocal best
            if level < k - 1:
                rec(level + 1, word)
                for c in range(m):
                    child = word[:]
                    self.add_multiple(child, c, terms[level])
                    rec(level + 1, child)
                return
            both = [word[t] for t in others].count(-1)
            ratios = [(x + y) % m for x, y in
                      zip([word[t] for t in support], minus) if x != -1]
            most = max(collections.Counter(ratios).values(), default=0)
            weight = n - both - max(most, len(support) - len(ratios))
            if weight < best:
                best = weight

        for pivot in range(k - 1):
            rec(pivot + 1, list(rows[pivot]))
        return best

    def det_nonzero(self, rows: list[list[int]]) -> bool:
        """Whether a square matrix of logs is nonsingular, decided on
        the field's packed values (``packed_field(field)``, the layout
        the walk multiplied on), the log -1 packed as 0."""
        powers = self.powers
        return packed_field(self.field).det_nonzero(
            [[0 if e == -1 else powers[e] for e in row] for row in rows])


# tables kept at once; the least recently used one is dropped beyond it
DLOG_CACHE_SIZE = 64


@functools.lru_cache(maxsize=DLOG_CACHE_SIZE)
def dlog_table(field: Field, guards: GuardConfig | None = None) -> DlogTable:
    """The field's table, built on first use under ``guards`` and
    cached with them."""
    return DlogTable(field, guards)


class PackedField:
    """Packed-int arithmetic on one Kronecker layout of ``field``,
    ``field._layout(terms)``: every code's reduction, column walk,
    sampled minors and Cauchy certificate, and every exact sum of up to
    ``terms`` products.

    A value is one int of that layout (0 is the zero), sized for
    ``terms`` products plus a value: an entry update u - f*v is
    ``reduce(u + (-f)*v)``, one reduction per update.  Every int held is
    canonical, so equal values are equal ints on one layout.  An inverse
    is one field inverse; ``inverses`` inverts a whole batch with one.

    The primitives are ``mul``, ``neg`` and ``inverse`` of nonzero
    values, ``inverses`` of a list of them, ``products(u, v)``, the
    entrywise product of two rows, ``scale(row, f)``, a new row f * row,
    and ``add_multiple(row, f, terms)``, row[t] += f * x for each (t, x)
    in ``terms`` in place.  Gauss-Jordan, the walk's step, the
    determinant and the Cauchy certificate call each once per row; the
    loops over entries stay in the primitives.
    """

    zero = 0

    def __init__(self, field: Field, layout: tuple):
        self.pack, self.reduce, self.unpack = layout
        self.field = field
        self.one = self.pack(field._one)
        self.minus_one = self.pack(field._neg(field._one))
        if isinstance(field, TowerSpec):
            # y packs to 1 << h, h the offset of b's lanes in a + b*y
            y = self.pack(field.y.value)
            self._low, self._high = y - 1, y.bit_length() - 1
            self._conj_y = self.pack(field._conj(field.y.value))

    def encode(self, x: Element) -> int:
        return self.pack(x.value)

    def encode_index(self, index: int) -> int:
        return self.pack(self.field._from_int(index))

    def conj(self, v: int) -> int:
        """The conjugate of a packed tower value v = a + b*y: conjugation
        fixes the base, so it is a + b*conj(y), one product of the
        packed b and conj(y) plus the packed a, which is reduced
        exactly on every layout (see ``Field._layout``)."""
        return self.reduce((v & self._low) + (v >> self._high) * self._conj_y)

    def decode(self, v: int) -> Element:
        return Element(self.field, self.unpack(v))

    def inverse(self, v: int) -> int:
        return self.pack(self.field._inv(self.unpack(v)))

    def inverses(self, values: list[int]) -> list[int]:
        """1/v for each nonzero v by one field inverse of their product
        (Montgomery): walking back, 1/v_i is the inverse of the prefix
        product up to i times the prefix before it."""
        if not values:
            return []
        reduce = self.reduce
        prefix = list(itertools.accumulate(values,
                                           lambda a, b: reduce(a * b)))
        inv = self.inverse(prefix[-1])
        out = [0] * len(values)
        for i in range(len(values) - 1, 0, -1):
            out[i] = reduce(inv * prefix[i - 1])
            inv = reduce(inv * values[i])
        out[0] = inv
        return out

    def mul(self, a: int, b: int) -> int:
        return self.reduce(a * b)

    def products(self, u, v) -> list[int]:
        reduce = self.reduce
        return [reduce(a * b) for a, b in zip(u, v)]

    def neg(self, a: int) -> int:
        return self.reduce(self.minus_one * a)

    def scale(self, row, f: int) -> list[int]:
        reduce = self.reduce
        return [reduce(x * f) for x in row]

    def add_multiple(self, row, f, terms):
        """row[t] += f * x for each (t, x) in ``terms``, in place."""
        reduce = self.reduce
        for t, x in terms:
            row[t] = reduce(row[t] + f * x)

    def row_reduce(self, rows: list[list[int]]):
        """Reduced row echelon form of packed rows; returns (rref_rows,
        pivot_columns)."""
        zero = self.zero
        mat = [list(row) for row in rows]
        pivots = []
        for col in range(len(mat[0]) if mat else 0):
            r = len(pivots)
            sel = next((i for i in range(r, len(mat))
                        if mat[i][col] != zero), None)
            if sel is None:
                continue
            top = self.scale(mat[sel], self.inverse(mat[sel][col]))
            mat[sel], mat[r] = mat[r], top
            rest = [(t, x) for t, x in enumerate(top) if x != zero]
            for i, row in enumerate(mat):
                if i != r and row[col] != zero:
                    self.add_multiple(row, self.neg(row[col]), rest)
            pivots.append(col)
            if len(pivots) == len(mat):
                break
        return mat[:len(pivots)], tuple(pivots)

    def eliminate(self, pivot_col, p, rows):
        """The walk's step: each row drops coordinate p after losing
        row[p] / pivot_col[p] times ``pivot_col``."""
        zero = self.zero
        base = self.neg(self.inverse(pivot_col[p]))
        rest = [(t - (t > p), x) for t, x in enumerate(pivot_col)
                if t != p and x != zero]
        out = []
        for row in rows:
            new = row[:p] + row[p + 1:]
            if row[p] != zero:
                self.add_multiple(new, self.mul(row[p], base), rest)
            out.append(new)
        return out

    def det_nonzero(self, rows: list[list[int]]) -> bool:
        """Whether a square matrix is nonsingular: its rows are
        independent exactly when its columns are."""
        return first_dependent_subset(rows, len(rows),
                                      self.eliminate) is None

    def cauchy_points(self, a_rows: list[list[int]]):
        """Encoded (x, y, c, d) with A[i][j] * (x[i] - y[j]) = c[i] * d[j]
        for every entry, the x distinct, the y distinct and every c, d
        nonzero, or None when the recovery finds none.  A has at least
        two rows and two columns.  Such an A is Cauchy-like: each square
        block is a Cauchy matrix scaled by nonzero rows and columns, so
        none is singular (Roth-Seroussi).

        Up to a Moebius map and a scaling, x[0] = 0, x[1] = 1, c[0] = 1;
        rows 0 and 1 then give every y and d from c[1], and columns 0 and
        1 every other x and c.  For a Cauchy-like A each nonzero c[1] is
        one placement of its n points, and at most n - 2 of them put a
        point at infinity, so the trials c[1], the first min(n + 1, q - 1)
        nonzero elements in canonical order, find one when n <= q.  The
        recovery only proposes; the check is the proof.  The inverses of
        row 1 and of columns 0-1 of A are one batch for all trials; each
        trial inverts one batch for y and one for c.
        """
        zero, one = self.zero, self.one
        minus_one = self.neg(one)
        a0, a1, rest = a_rows[0], a_rows[1], a_rows[2:]
        width = len(a0)
        if any(x == zero for row in a_rows for x in row):
            return None
        inv = self.inverses(list(a1) + [row[0] for row in rest]
                            + [row[1] for row in rest])
        ratio = self.products(a0, inv[:width])  # A[0][j] / A[1][j]
        inv0, inv1 = inv[width:width + len(rest)], inv[width + len(rest):]
        minus_a0 = self.scale(a0, minus_one)
        field = self.field
        trials = min(len(a_rows) + width + 1, field.order - 1)
        for index in range(1, trials + 1):
            c1 = self.encode_index(index)
            # y[j] = 1 / (1 - c1 * A[0][j] / A[1][j])
            poles = [one] * width
            self.add_multiple(poles, self.neg(c1), enumerate(ratio))
            if zero in poles:  # y[j] at infinity
                continue
            y = self.inverses(poles)
            d = self.products(y, minus_a0)  # -y[j] A[0][j]
            # c[i] = (y1 - y0) / (d0 / A[i][0] - d1 / A[i][1])
            # x[i] = y0 + c[i] * d0 / A[i][0]
            gap = [y[1]]
            self.add_multiple(gap, minus_one, [(0, y[0])])
            u = self.scale(inv0, d[0])
            den = u[:]
            self.add_multiple(den, self.neg(d[1]), enumerate(inv1))
            if gap[0] == zero or zero in den:
                continue
            c = [one, c1] + self.scale(self.inverses(den), gap[0])
            x = [zero, one] + [y[0]] * len(rest)
            self.add_multiple(x, one, enumerate(self.products(c[2:], u), 2))
            if (len(set(x)) == len(x) and len(set(y)) == width
                    and self._cauchy_holds(a_rows, x, y, c, d)):
                return x, y, c, d
        return None

    def _cauchy_holds(self, a_rows, x, y, c, d) -> bool:
        """Whether A[i][j] * (x[i] - y[j]) = c[i] * d[j] for every entry;
        c and d are nonzero, and a zero x[i] - y[j] fails."""
        zero, minus_one = self.zero, self.neg(self.one)
        terms = list(enumerate(y))
        for row, xi, ci in zip(a_rows, x, c):
            diff = [xi] * len(y)
            self.add_multiple(diff, minus_one, terms)
            if zero in diff or self.products(row, diff) != self.scale(d, ci):
                return False
        return True

def packed_field(field: Field, terms: int = 1) -> PackedField:
    """The packed arithmetic for sums of up to ``terms`` products, one
    object per layout: the term counts whose exact bounds give the same
    lanes share ``field._layout``, and so share this too."""
    return _packed_on(field, field._layout(terms))


@functools.lru_cache(maxsize=DLOG_CACHE_SIZE)
def _packed_on(field: Field, layout: tuple) -> PackedField:
    return PackedField(field, layout)


def _on_packed(rows, field: Field):
    packed = packed_field(field)
    return packed, [list(map(packed.encode, row)) for row in rows]


def row_reduce(rows, field: Field):
    """Reduced row echelon form of element rows; returns (rref_rows,
    pivot_columns), the rows as tuples."""
    packed, encoded = _on_packed(rows, field)
    reduced, pivots = packed.row_reduce(encoded)
    return tuple(tuple(map(packed.decode, row)) for row in reduced), pivots


def det_nonzero(rows, field: Field) -> bool:
    """Whether a square matrix of elements is nonsingular."""
    packed, encoded = _on_packed(rows, field)
    return packed.det_nonzero(encoded)


def null_space(rows, n: int, field: Field):
    """Basis of the right kernel of a k x n element matrix, as rows."""
    packed, encoded = _on_packed(rows, field)
    reduced, pivots = packed.row_reduce(encoded)
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        vec = [packed.zero] * n
        vec[f] = packed.one
        for row, pc in zip(reduced, pivots):
            vec[pc] = packed.neg(row[f])
        basis.append(tuple(map(packed.decode, vec)))
    return tuple(basis)
