"""Independent oracles the tests check the package against.

Each is written from the definition on field element objects; the two
duals build on the package's ``null_space`` and ``frobenius``, and the
rank on its ``row_reduce``.  None of them runs through the lex column
walk, ``first_dependent_subset``, that the package decides independence
with.
"""
from selfdual import LinearCode, frobenius
from selfdual.linalg import null_space, row_reduce


def poly_eval(c, x, field):
    """The polynomial with coefficients c, constant term first, at x."""
    acc = field.zero
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def matrix_rank(rows, field):
    """The number of nonzero rows of the reduced echelon form."""
    reduced, _ = row_reduce(rows, field)
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
        word = code.codeword(msg)
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
