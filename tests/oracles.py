"""Independent oracles the tests check the package against.

Each is written from the definition on field element objects; the two
duals build on the package's ``null_space`` and ``frobenius``.
"""
from selfdual import LinearCode, frobenius
from selfdual.linalg import null_space


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
