"""Exact integer and rational linear algebra.

All core computation is over Z (python ints) or Q (fractions.Fraction);
nothing here touches floating point.  Vectors are tuples of numbers,
matrices are tuples of row tuples.  Values are immutable, functions are
pure, so everything is safe to share.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


def mat(rows):
    return tuple(tuple(row) for row in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M)) if M else ()


def mat_mul(A, B):
    Bt = list(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A)


def mat_vec(M, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in M)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_neg(v):
    return tuple(-a for a in v)


def is_zero(v):
    return all(a == 0 for a in v)


def is_primitive(v):
    """True iff the gcd of the entries is 1.

    The zero vector is rejected: it generates no ray and has no
    meaningful primitivity.
    """
    if is_zero(v):
        raise ValueError("zero vector has no primitive test")
    g = 0
    for a in v:
        g = gcd(g, a)
    return g == 1


def content(v):
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def primitive_part(v):
    """v divided by the gcd of its entries.  Errors on the zero vector."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(a // g for a in v)


def det(M):
    """Exact determinant of an integer (or rational) square matrix.

    Fraction-free Bareiss elimination; stays in Z for integer input.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num // prev if isinstance(num, int) else num / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(M):
    return det(M) in (1, -1)


def mat_inv(M):
    """Exact inverse over Q.  Raises on singular input."""
    n = len(M)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _snf_swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _snf_swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _snf_add_row(a, u, src, dst, c):
    # dst += c * src
    a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]


def _snf_add_col(a, v, src, dst, c):
    for row in a:
        row[dst] += c * row[src]
    for row in v:
        row[dst] += c * row[src]


def smith_normal_form(M):
    """Smith normal form over Z.

    Returns (U, D, V) with U*M*V = D, U and V unimodular, D diagonal
    with nonnegative entries satisfying the divisibility chain
    d1 | d2 | ... .  Standard row/column gcd reduction.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    a = [list(row) for row in M]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def reduce_from(t0):
        t = t0
        while t < min(m, n):
            piv = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] != 0:
                        piv = (i, j)
                        break
                if piv:
                    break
            if piv is None:
                break
            _snf_swap_rows(a, u, t, piv[0])
            _snf_swap_cols(a, v, t, piv[1])
            while True:
                for i in range(t + 1, m):
                    if a[i][t] != 0:
                        q = a[i][t] // a[t][t]
                        _snf_add_row(a, u, t, i, -q)
                        if a[i][t] != 0:
                            _snf_swap_rows(a, u, t, i)
                if any(a[i][t] for i in range(t + 1, m)):
                    continue
                for j in range(t + 1, n):
                    if a[t][j] != 0:
                        q = a[t][j] // a[t][t]
                        _snf_add_col(a, v, t, j, -q)
                        if a[t][j] != 0:
                            _snf_swap_cols(a, v, t, j)
                if any(a[i][t] for i in range(t + 1, m)):
                    continue
                if any(a[t][j] for j in range(t + 1, n)):
                    continue
                break
            t += 1
        return t

    rank = reduce_from(0)

    # enforce the divisibility chain: fold the next diagonal entry into
    # the current pivot column and re-reduce from there
    done = False
    while not done:
        done = True
        for k in range(rank - 1):
            if a[k + 1][k + 1] % a[k][k] != 0:
                _snf_add_col(a, v, k + 1, k, 1)
                reduce_from(k)
                done = False
                break

    for k in range(rank):
        if a[k][k] < 0:
            for j in range(n):
                a[k][j] = -a[k][j]
            for j in range(m):
                u[k][j] = -u[k][j]

    return mat(u), mat(a), mat(v)


@dataclass(frozen=True)
class Point:
    coords: tuple


@dataclass(frozen=True)
class AffineSubspace:
    """A nonempty positive-dimensional solution set: point + span(basis)."""
    point: tuple
    basis: tuple


@dataclass(frozen=True)
class Infeasible:
    witness: str = ""


def solve_rational(A, b):
    """Solve A x = b exactly over Q.

    Returns a Point for a unique solution, an AffineSubspace (canonical
    point with all free variables zero, plus a basis of the homogeneous
    solutions) when underdetermined, or Infeasible.  Gaussian
    elimination with Fractions throughout.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if m != len(b):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            eq = " + ".join("%s*x%d" % (A[i][j], j) for j in range(n))
            return Infeasible("inconsistent equation: %s = %s" % (eq, b[i]))
    free = [c for c in range(n) if c not in pivots]
    point = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        point[c] = aug[i][n]
    if not free:
        return Point(tuple(point))
    basis = []
    for fc in free:
        dirv = [Fraction(0)] * n
        dirv[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            dirv[c] = -aug[i][fc]
        basis.append(tuple(dirv))
    return AffineSubspace(tuple(point), tuple(basis))


def torsion_order(L, n):
    """Order of the torsion subgroup of Z^n / <L>.

    Computed as the product of the nonzero elementary divisors of the
    matrix with the given vectors as columns.  Empty L gives 1 (free
    quotient, connected dual group).
    """
    for v in L:
        if len(v) != n:
            raise ValueError("vector length does not match rank")
    if not L:
        return 1
    M = tuple(tuple(v[i] for v in L) for i in range(n))
    _, D, _ = smith_normal_form(M)
    order = 1
    for k in range(min(n, len(L))):
        if D[k][k] != 0:
            order *= D[k][k]
    return order
