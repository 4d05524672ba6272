"""Independent oracles the tests check the package against.

Each is written from the definition on field element objects; the two
duals build on the package's ``null_space`` and ``frobenius``.  The
rank counts the rows of ``row_reduce_oracle``, the Gauss-Jordan on
element objects that the package ran before it reduced only on integer
encodings.  None of them runs through the lex column walk,
``first_dependent_subset``, that the package decides independence
with, and the lex oracle tests every k-subset of columns, self-dual
code or not.  The tower arithmetic recurses through element objects of
every level, as the package did before its towers multiplied raw
values, down to a schoolbook product of GF(p^t) coefficient lists mod
the modulus, as the package multiplied before its products ran on the
packed layout; powers square and multiply those objects, as the package
did before it packed them, and the splitting check is the package's
earlier, longer body.
The irreducibility test is the package's earlier one, with its own
integer-list polynomial arithmetic mod p instead of the ring of
``FieldSpec``.  The element polynomial helpers are the arithmetic the
package built constacyclic generators with before it built them on
packed ints, and ``generator_oracle`` is that product of linear factors.
The canonical searches, ``primitive_element_oracle`` to
``even_quadratic_oracle``, are the package's earlier bodies: they scan
from index 1 or 2 and raise every candidate to full-field powers, take
Tonelli-Shanks with no subfield shortcut, prove Rabin's units by their
p**t - 1 powers, scan gamma's coset on element objects and an even-q
quadratic's roots one by one.
``cli_parser_oracle`` is the argparse parser the command line used
before it read its arguments from ``cli._SPEC``.
``ENCODINGS`` is no oracle: it names the package's two integer
encodings of a field, for the tests that run one kernel on both.  Nor
are ``codeword``, ``element_rows``, ``same_code`` and
``extension_weight_audit``: they read a code through the package's own
reduced form and codeword scan, and only the tests use them.
"""
import argparse
import functools
import itertools
from math import gcd

from selfdual.cli import CONSTRUCT_ROUTES
from selfdual.codes import LinearCode, _projective_scan
from selfdual.config import current_guards
from selfdual.cosets import SplittingReport, cyclotomic_coset
from selfdual.errors import NotCoprime, ZeroElement, ZeroInSet
from selfdual.fields import (
    FieldSpec,
    TowerSpec,
    find_primitive_element,
    frobenius,
    solve_norm,
)
from selfdual.linalg import dlog_table, null_space, packed_field
from selfdual.numtheory import factorize

# a field's Zech-table logs and its packed values, by name
ENCODINGS = {"zech": lambda field: dlog_table(field, field.order),
             "packed": packed_field}


def poly_eval(c, x, field):
    """The polynomial with coefficients c, constant term first, at x."""
    acc = field.zero
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def poly_trim(c, field):
    """c without its trailing zero coefficients."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def poly_mul(a, b, field):
    """The product of element polynomials, constant term first."""
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return out


def poly_divmod(num, den, field):
    """(quotient, remainder) of element polynomials by long division."""
    num = poly_trim(num, field)
    den = poly_trim(den, field)
    if not den:
        raise ZeroElement("polynomial division by zero")
    quot = [field.zero] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    inv_lead = den[-1].inverse()
    while len(rem) >= len(den) and any(map(bool, rem)):
        coef = rem[-1] * inv_lead
        deg = len(rem) - len(den)
        if coef:
            quot[deg] = coef
            for i, d in enumerate(den):
                rem[deg + i] = rem[deg + i] - coef * d
        rem.pop()
    return quot, poly_trim(rem, field)


def constacyclic_shift(word, lam):
    """One constacyclic shift: (c0..c_{n-1}) -> (lam*c_{n-1}, c0, ..)."""
    return (lam * word[-1],) + tuple(word[:-1])


def generator_oracle(field, alpha, exponents):
    """The product of x - alpha**i over the exponents, on element objects."""
    g = [field.one]
    for i in exponents:
        g = poly_mul(g, [-pow_oracle(field, alpha, i), field.one], field)
    return g


def row_reduce_oracle(rows, field):
    """Reduced row echelon form on element objects; returns (rref_rows,
    pivot_columns), the rows as tuples."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= len(mat):
            break
        sel = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [u - factor * v for u, v in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return tuple(map(tuple, mat[:r])), tuple(pivots)


def matrix_rank(rows, field):
    """The number of nonzero rows of the reduced echelon form."""
    reduced, _ = row_reduce_oracle(rows, field)
    return len(reduced)


def det_nonzero_oracle(rows, field):
    """Whether a square matrix is nonsingular, by column-wise Gaussian
    elimination with a row swap to the first nonzero pivot."""
    mat = [list(r) for r in rows]
    k = len(mat)
    for col in range(k):
        sel = None
        for i in range(col, k):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            return False
        if sel != col:
            mat[col], mat[sel] = mat[sel], mat[col]
        inv = mat[col][col].inverse()
        for i in range(col + 1, k):
            if mat[i][col]:
                factor = mat[i][col] * inv
                mat[i] = [u - factor * v for u, v in zip(mat[i], mat[col])]
    return True


def lex_column_oracle(code):
    """The per-subset loop: one determinant per k-subset of columns, in
    itertools.combinations order, stopping at the first singular one."""
    columns = list(zip(*code.generator))
    for subset in itertools.combinations(range(code.n), code.k):
        if not det_nonzero_oracle([[columns[j][i] for j in subset]
                                   for i in range(code.k)], code.field):
            return ("refuted", subset)
    return ("certified-exact", None)


def euclidean_dual(code):
    """The Euclidean dual as the right kernel of the generator."""
    basis = null_space(code.generator, code.n, code.field)
    return LinearCode(code.field, code.n, code.n - code.k, basis)


def hermitian_dual(code):
    """The Hermitian dual: the right kernel of the conjugated generator."""
    tower = code.field
    conj = tuple(tuple(frobenius(tower, x) for x in row)
                 for row in code.generator)
    basis = null_space(conj, code.n, tower)
    return LinearCode(tower, code.n, code.n - code.k, basis)


def gram_is_zero_oracle(rows_a, rows_b, field):
    """The Gram check as an element loop: every inner product is 0."""
    for ra in rows_a:
        for rb in rows_b:
            acc = field.zero
            for x, y in zip(ra, rb):
                acc = acc + x * y
            if acc:
                return False
    return True


def brute_weight_audit(code):
    """(min distance, every minimum-weight word has a nonzero sum) from
    all q**k - 1 nonzero messages."""
    field = code.field
    best = None
    clean = True
    for idx in range(1, field.order ** code.k):
        msg = []
        v = idx
        for _ in range(code.k):
            msg.append(field.from_int(v % field.order))
            v //= field.order
        word = codeword(code, msg)
        w = sum(1 for x in word if x)
        s = field.zero
        for x in word:
            s = s + x
        if best is None or w < best:
            best = w
            clean = bool(s)
        elif w == best and not s:
            clean = False
    return best, clean


def codeword(code, message) -> tuple:
    """The codeword of ``message``, a list of k elements."""
    word = [code.field.zero] * code.n
    for m, row in zip(message, code.generator):
        if m:
            word = [w + m * r for w, r in zip(word, row)]
    return tuple(word)


def element_rows(form) -> list:
    """The rows of a ``ReducedForm`` as element objects."""
    decode = form.arith.decode
    return [list(map(decode, row)) for row in form.rows]


def same_code(a, b) -> bool:
    """Row-space equality via the canonical reduced echelon form."""
    if a.n != b.n or a.k != b.k or a.field != b.field:
        return False
    return element_rows(a._reduced()) == element_rows(b._reduced())


def extension_weight_audit(code, guards=None):
    """(min distance, all-minimum-weight-words-have-nonzero-sum).

    Appending the coordinate sum (its sign changes no weight) raises the
    weight of exactly the words with a nonzero sum, so the extended rows
    span a code of distance d + 1 iff every word of weight d has one.
    """
    guards = current_guards(guards)
    field, rows = code.field, code._value_rows
    d = _projective_scan(field, rows, guards)
    extended = [(*row, functools.reduce(field._add, row)) for row in rows]
    return d, _projective_scan(field, extended, guards) == d + 1


def _join(tower, a, b):
    """a + b*y from base elements, through the documented index encoding
    base.index(a) + Q*base.index(b), so without a tower multiply."""
    base = tower.base
    return tower.from_int(base.index(a) + base.order * base.index(b))


def _coeffs(field, x):
    """The GF(p) coefficients of x in GF(p^t), constant term first, read
    from the documented index encoding sum(c[i] * p**i)."""
    i, p = field.index(x), field.p
    return [i // p ** k % p for k in range(field.t)]


def tower_mul_oracle(field, x, y):
    """x*y with y**2 = -c1*y - c0 at every tower level, on objects, and
    the schoolbook product mod the modulus on coefficient lists in
    GF(p^t)."""
    if not isinstance(field, TowerSpec):
        p = field.p
        c = _pmulmod(_coeffs(field, x), _coeffs(field, y),
                     list(field.modulus), p)
        return field.from_int(sum(v * p ** k for k, v in enumerate(c)))
    base = field.base
    (a, b), (c, d) = field.parts(x), field.parts(y)
    c0, c1, _ = field.ext_modulus
    bd = tower_mul_oracle(base, b, d)
    return _join(field,
                 tower_mul_oracle(base, a, c) - tower_mul_oracle(base, bd, c0),
                 tower_mul_oracle(base, a, d) + tower_mul_oracle(base, b, c)
                 - tower_mul_oracle(base, bd, c1))


def tower_inv_oracle(field, x):
    """1/x from (a + b y)((a - b c1) - b y) = a**2 - a b c1 + b**2 c0."""
    if not isinstance(field, TowerSpec):
        return x.inverse()
    base = field.base
    a, b = field.parts(x)
    c0, c1, _ = field.ext_modulus

    def mul(u, v):
        return tower_mul_oracle(base, u, v)

    norm = mul(a, a) - mul(mul(a, b), c1) + mul(mul(b, b), c0)
    ninv = tower_inv_oracle(base, norm)
    return _join(field, mul(a - mul(b, c1), ninv), mul(-b, ninv))


def pow_oracle(field, x, e):
    """x**e by square and multiply over ``tower_mul_oracle``, on element
    objects in every field; a negative e first takes x**(q - 2), the
    Fermat inverse, so no step runs through the package's powers."""
    if e < 0:
        if not x:
            raise ZeroElement("division by zero")
        x, e = pow_oracle(field, x, field.order - 2), -e
    result = field.one
    while e:
        if e & 1:
            result = tower_mul_oracle(field, result, x)
        x = tower_mul_oracle(field, x, x)
        e >>= 1
    return result


def odd_prime_powers(limit):
    """(q, p, t) for every odd prime power q <= limit, ascending in q."""
    out = []
    for p in range(3, limit + 1):
        if any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            continue
        q, t = p, 1
        while q <= limit:
            out.append((q, p, t))
            q, t = q * p, t + 1
    return sorted(out)


def splitting_oracle(T, a, n, q):
    """``check_duadic_splitting`` as it was before its unreachable
    branches went: it also checks that the multiplier maps S2 onto T and
    that S2 is a union of q-cosets."""
    if T.modulus != n:
        raise ValueError("defining set modulus %d differs from n %d"
                         % (T.modulus, n))
    if gcd(n, q) != 1:
        raise NotCoprime("coset base %d shares a factor with n %d" % (q, n))
    if gcd(a, n) != 1:
        raise NotCoprime("multiplier %d shares a factor with n %d" % (a, n))
    s1 = set(T.elements)
    if 0 in s1:
        raise ZeroInSet("0 cannot appear in a splitting half")
    a_norm = a % n
    s2 = sorted(set(range(1, n)) - s1)
    witness = None
    ok = True

    image1 = {(a_norm * x) % n for x in s1}
    if image1 & s1:
        ok = False
        for i in sorted(s1):
            img = (a_norm * i) % n
            if img in s1:
                witness = img
                break
    elif image1 != set(s2):
        ok = False
        witness = min(set(s2) - image1) if set(s2) - image1 else min(image1 - set(s2))

    if ok:
        image2 = {(a_norm * x) % n for x in s2}
        if image2 != s1:
            ok = False
            overlap = image2 & set(s2)
            if overlap:
                for i in sorted(s2):
                    img = (a_norm * i) % n
                    if img in set(s2):
                        witness = img
                        break
            else:
                witness = min(s1 - image2) if s1 - image2 else min(image2 - s1)

    if ok or witness is None:
        for x in sorted(s1):
            coset = set(cyclotomic_coset(x, n, q))
            if not coset <= s1:
                ok = False
                if witness is None:
                    witness = min(coset - s1)
                break
        else:
            for x in s2:
                coset = set(cyclotomic_coset(x, n, q))
                if not coset <= set(s2):
                    ok = False
                    if witness is None:
                        witness = min(coset - set(s2))
                    break

    return SplittingReport(n, a_norm, tuple(sorted(s1)), tuple(s2),
                           ok, None if ok else witness)


def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    # m must be monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i in range(dm):
                r[shift + i] = (r[shift + i] - lead * m[i]) % p
        r.pop()
    return _ptrim(r)


def _pmulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), m, p)


def _ppowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmulmod(result, acc, m, p)
        acc = _pmulmod(acc, acc, m, p)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    x, y = _ptrim(list(a)), _ptrim(list(b))
    while y:
        # reduce x mod y after making y monic
        inv_lead = pow(y[-1], p - 2, p)
        y_monic = [(c * inv_lead) % p for c in y]
        x, y = y, _pmod(x, y_monic, p)
    if x:
        inv_lead = pow(x[-1], p - 2, p)
        x = [(c * inv_lead) % p for c in x]
    return x


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    size = max(len(a), len(b))
    out = [0] * size
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _ptrim(out)


def poly_is_irreducible_oracle(coeffs, p):
    """Irreducibility of a monic polynomial over GF(p), on integer lists.

    Degree <= 3 reduces to a root scan; in general f of degree t is
    irreducible iff x**(p**t) == x (mod f) and gcd(x**(p**(t/l)) - x, f)
    is 1 for every prime l dividing t.
    """
    c = _ptrim(list(coeffs))
    t = len(c) - 1
    if t < 1 or c[-1] != 1:
        return False
    if t == 1:
        return True
    if c[0] == 0:
        return False
    if t <= 3:
        for a in range(p):
            acc = 0
            for coef in reversed(c):
                acc = (acc * a + coef) % p
            if acc == 0:
                return False
        return True
    x = [0, 1]
    frob = list(x)
    images = {}
    for i in range(1, t + 1):
        frob = _ppowmod(frob, p, c, p)
        images[i] = frob
    if _psub(images[t], x, p):
        return False
    for ell in {f for f, _ in factorize(t)}:
        g = _pgcd(_psub(images[t // ell], x, p), c, p)
        if len(g) - 1 >= 1:
            return False
    return True


def primitive_element_oracle(field):
    """The least generator of the multiplicative group: every index
    from 1, each raised to (q - 1)/l for every prime l | q - 1."""
    q = field.order
    prime_factors = [f for f, _ in factorize(q - 1)]
    for i in range(1, q):
        g = field.from_int(i)
        if all(g ** ((q - 1) // ell) != field.one for ell in prime_factors):
            return g
    raise AssertionError("no primitive element")


def least_nonsquare_oracle(field):
    """The least non-square of a field of odd order q: every index from
    2 raised to (q - 1)/2."""
    q = field.order
    for i in range(2, q):
        x = field.from_int(i)
        if x ** ((q - 1) // 2) != field.one:
            return x
    raise AssertionError("no non-square")


def sqrt_oracle(x):
    """The least square root of x, or None: x**(q/2) for even q, else
    Euler's criterion in the whole field, then x**((q + 1)/4) or
    Tonelli-Shanks with the field's least non-square."""
    field = x.field
    q = field.order
    if not x:
        return field.zero
    if q % 2 == 0:
        return x ** (q // 2)
    if x ** ((q - 1) // 2) != field.one:
        return None
    if q % 4 == 3:
        r = x ** ((q + 1) // 4)
    else:
        m, s = q - 1, 0
        while m % 2 == 0:
            m //= 2
            s += 1
        c = least_nonsquare_oracle(field) ** m
        r = x ** ((m + 1) // 2)
        u = x ** m
        while u != field.one:
            d, k = u, 0
            while d != field.one:
                d = d * d
                k += 1
            b = c ** (2 ** (s - k - 1))
            r = r * b
            c = b * b
            u = u * c
            s = k
    other = -r
    return r if field.index(r) <= field.index(other) else other


def rabin_units_oracle(coeffs, p):
    """Rabin's test in GF(p)[x]/(c): x**(p**t) = x and, for each prime
    l | t, x**(p**(t/l)) - x is a unit, u**(p**t - 1) = 1."""
    c = _ptrim(list(coeffs))
    t = len(c) - 1
    if t < 1 or c[-1] != 1:
        return False
    ring = FieldSpec(p, t, tuple(c))
    x = ring._reduce([0, 1])
    return ring._pow(x, p ** t) == x and all(
        ring._pow(ring._sub(ring._pow(x, p ** (t // ell)), x), p ** t - 1)
        == ring._one for ell, _ in factorize(t))


def gamma_hermitian_oracle(tower, n):
    """The least g in GF(q^2) with 1 + g**(q+1) * n = 0: the q + 1
    elements v * k**j of a solution's coset of the norm kernel, k of
    order q + 1, compared by index on element objects."""
    base = tower.base
    q = base.order
    v = solve_norm(tower, -(base.scalar(n).inverse()))
    kernel_gen = find_primitive_element(tower) ** (q - 1)
    best = cur = v
    for _ in range(q):
        cur = cur * kernel_gen
        if tower.index(cur) < tower.index(best):
            best = cur
    return best


def even_quadratic_oracle(field):
    """The least monic irreducible y**2 + c1*y + c0 over a field of even
    order, in the order of c0 + q*c1: the pairs in turn, each with a
    scan of every element for a root; returns (c0, c1)."""
    q = field.order
    for i in range(q * q):
        c0, c1 = field.from_int(i % q), field.from_int(i // q)
        if c0 and all(x * x + c1 * x + c0 for x in field.elements()):
            return c0, c1
    raise AssertionError("no irreducible quadratic")



def cli_parser_oracle() -> argparse.ArgumentParser:
    """The argparse parser of the four ``selfdual`` commands."""
    ap = argparse.ArgumentParser(
        prog="selfdual",
        description="Construct and verify MDS self-dual codes over "
                    "finite fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build one code and print it")
    c.add_argument("route", choices=CONSTRUCT_ROUTES)
    c.add_argument("--p", type=int, required=True, help="field characteristic")
    c.add_argument("--t", type=int, default=1, help="extension degree")
    c.add_argument("--n", type=int, help="code or cyclic length")
    c.add_argument("--r", type=int, help="shift constant order (constacyclic)")
    c.add_argument("--points", help="comma separated point indices (GRS)")
    c.add_argument("--pretty", action="store_true")

    v = sub.add_parser("verify", help="re-check a serialized code")
    v.add_argument("file", help="JSON file produced by construct")
    v.add_argument("--mds",
                   choices=["auto", "exhaustive", "columns", "monte-carlo",
                            "bch"],
                   default="auto")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--inner", choices=["auto", "euclidean", "hermitian"],
                   default="auto")
    v.add_argument("--pretty", action="store_true")

    tbl = sub.add_parser("table", help="run the reference length sweep")
    tbl.add_argument("--pretty", action="store_true")

    s = sub.add_parser("splitting", help="check a multiplier splitting")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True,
                   help="coset multiplier base")
    s.add_argument("--multiplier", type=int, required=True)
    s.add_argument("--set-from", dest="set_from", type=int, required=True)
    s.add_argument("--set-to", dest="set_to", type=int, required=True)
    s.add_argument("--pretty", action="store_true")
    return ap
