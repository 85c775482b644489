"""Exact integer and rational linear algebra.

All core computation is over Z (python ints) or Q (fractions.Fraction);
nothing here touches floating point.  Vectors are tuples of numbers,
matrices are tuples of row tuples.  Values are immutable, functions are
pure, so everything is safe to share.  The package's records are
namedtuples, so they compare as the tuples of their fields.

det, mat_inv and solve_rational share one fraction-free Gauss-Jordan
kernel over Z (_rref): rational input is scaled to integers row by row,
the elimination divides only exactly, and each result entry becomes one
Fraction at the end.  det reads _rref's last pivot, which is the
determinant of the scaled matrix, since a row swap negates the row it
moves down.  One pivot step (_pivot) serves _rref and the exact LP
feasibility test (feasible), whose simplex runs on it too.
"""

import re
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm


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


def vec_neg(v):
    return tuple(-a for a in v)


def content(v):
    """gcd of the entries (0 for the zero vector)."""
    return gcd(*v)


def primitive_part(v):
    """The primitive integer vector on the ray of an integer or rational
    vector v: v scaled to integers by the lcm of its denominators, then
    divided by the gcd of its entries.  Errors on the zero vector."""
    q = lcm(*(x.denominator for x in v))
    v = [x.numerator * (q // x.denominator) for x in v]
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(a // g for a in v)


def ext_gcd(a, b):
    """Extended Euclid: (g, u, v) with u*a + v*b == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def bezout_complete(psi):
    """Some A in SL(2,Z) with A e1 = psi."""
    a, b = psi
    g, u, v = ext_gcd(a, b)
    if g != 1:
        raise ValueError("cannot complete an imprimitive vector to a basis")
    # columns psi and (-v, u): determinant a*u + b*v = 1
    return ((a, -v), (b, u))


def as_int(x):
    """x if it is an int (bools excluded), else TypeError.

    Document readers use this so floats never enter exact arithmetic."""
    if type(x) is not int:
        raise TypeError("expected an integer, got %r" % (x,))
    return x


_MAX_EXPONENT = 4300     # CPython's default limit on the digits of an int string
_DIGIT_BOUND = 10 ** _MAX_EXPONENT      # the least int of more than 4300 digits
_LONG_DIGIT_RUN = re.compile(r"\d{%d}" % (_MAX_EXPONENT + 1))


def as_rational(x):
    """Fraction from an int (bools excluded) or a string such as "-3/4"
    or "1.5e-3".

    TypeError for any other type, ValueError for a string that is not a
    rational number, has a zero denominator, an exponent above
    _MAX_EXPONENT in magnitude or a run of more digits, or whose value in
    lowest terms has a numerator or denominator of more than
    _MAX_EXPONENT digits, which no writer could print.  Both are checked
    before Fraction parses the string, which cannot read such a run and
    builds 10 ** exponent at a cost that grows with the exponent's value."""
    if isinstance(x, str):
        exponent = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (len(exponent) > len(str(_MAX_EXPONENT))
                                     or int(exponent) > _MAX_EXPONENT):
            raise ValueError("exponent of %r exceeds %d in magnitude" % (x, _MAX_EXPONENT))
        if _LONG_DIGIT_RUN.search(x.replace("_", "")):
            raise ValueError("%r has a run of more than %d digits" % (x, _MAX_EXPONENT))
        try:
            q = Fraction(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (x,))
        if abs(q.numerator) >= _DIGIT_BOUND or q.denominator >= _DIGIT_BOUND:
            raise ValueError("%r has a numerator or denominator of more than %d digits"
                             % (x, _MAX_EXPONENT))
        return q
    return Fraction(as_int(x))


def _entries(x, n):
    if not isinstance(x, (list, tuple)):
        raise TypeError("expected a list, got %r" % (x,))
    if n is not None and len(x) != n:
        raise ValueError("expected %d entries, got %d" % (n, len(x)))
    return x


def ints(x, n=None):
    """A list of ints (as_int) as a tuple, of exactly n entries if n is given."""
    return tuple(as_int(a) for a in _entries(x, n))


def rationals(x, n=None):
    """A list of exact rationals (as_rational) as a tuple of Fractions, of
    exactly n entries if n is given."""
    return tuple(as_rational(a) for a in _entries(x, n))


@contextmanager
def malformed(error, what):
    """Wraps a document reader: a missing key, a wrong type or a bad value
    becomes error("malformed <what> document: ..."), naming a missing key
    as "missing key 'name'", while the module's own error passes through
    unchanged."""
    try:
        yield
    except error:
        raise
    except KeyError as e:
        raise error("malformed %s document: missing key %r" % (what, e.args[0]))
    except (TypeError, ValueError) as e:
        raise error("malformed %s document: %s" % (what, e))


class Validated:
    """Base of a namedtuple record whose __new__ checks its fields.

    namedtuple's _make, and _replace through it, build the tuple without
    __new__; this _make goes through the class, so every record a caller
    builds is checked.  A record derived from checked records may skip
    its __new__ (tuple.__new__) only when a check it skips computes a
    determinant, and its docstring shows every skipped check holds."""
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def rational_strings(v):
    """Exact numbers written as strings such as "-3/4", for JSON output."""
    return [str(Fraction(x)) for x in v]


def det(M):
    """Exact determinant of an integer (or rational) square matrix.

    0 when a column has no pivot, else the last pivot of _rref divided by
    the product of its row scales: an int when every scale is 1, so for
    integer input, and a Fraction otherwise."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant requires a square matrix")
    _, pivots, d, q = _rref(M, n)
    if len(pivots) < n:
        return 0
    return d if q == 1 else Fraction(d, q)


def _rref(rows, ncols):
    """Fraction-free Gauss-Jordan elimination on the first ncols columns.

    Each row is first scaled to integers by the lcm of its denominators.
    Each pivot step (_pivot) then sets every other row to (pv * row - f *
    pivot row) // prev, where pv is the new pivot, f the row's entry in
    the pivot column and prev the previous pivot.  Sylvester's identity
    makes every division exact, so all arithmetic stays in Z and each
    entry is, up to sign, a minor of the scaled input.  At the end every pivot row
    carries the same pivot d in its pivot column, and the reduced row
    echelon form over Q is the returned rows divided by d.  A row swap
    negates the row it moves down, which keeps that form and the
    determinant: d is that of the scaled rows when they are square and
    of full rank.

    Returns the integer rows (lists), the pivot columns, d and the
    product of the row scales.
    """
    a = []
    scale = 1
    for row in rows:
        q = lcm(*(x.denominator for x in row))
        a.append([x.numerator * (q // x.denominator) for x in row])
        scale *= q
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], [-x for x in a[r]]
        prev = _pivot(a, r, c, prev)
        pivots.append(c)
    return a, pivots, prev, scale


def _pivot(a, r, c, prev):
    """One fraction-free pivot on the integer rows a at a[r][c]: every
    other row becomes (pv * row - f * pivot row) // prev, in place.
    Returns pv, the prev of the next step."""
    pr = a[r]
    pv = pr[c]
    for i, row in enumerate(a):
        if i != r:
            f = row[c]
            a[i] = [(pv * x - f * y) // prev for x, y in zip(row, pr)]
    return pv


def mat_inv(M):
    """Exact inverse over Q.  Raises on singular input."""
    n = len(M)
    a, pivots, d, _ = _rref([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(M)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in a)


def unimodular_inverse(M):
    """Exact integer inverse of an integer matrix with determinant +-1.

    Raises ValueError when the inverse is not integral.
    """
    inv = mat_inv(M)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(x.numerator for x in row) for row in inv)


# The solution set point + span(basis) of a consistent system; basis is
# () when the solution is unique.
AffineSubspace = namedtuple("AffineSubspace", "point basis")


def solve_rational(A, b):
    """Solve A x = b exactly over Q.

    Returns the AffineSubspace of all solutions (canonical point with
    every free variable zero, plus a basis of the homogeneous solutions),
    or None when the system is inconsistent.  One fraction-free
    elimination over Z (_rref), then one Fraction per output entry.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if m != len(b):
        raise ValueError("dimension mismatch between matrix and right-hand side")
    aug, pivots, d, _ = _rref([list(row) + [b[i]] for i, row in enumerate(A)], n)
    r = len(pivots)
    if any(aug[i][n] != 0 for i in range(r, m)):
        return None
    point = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        point[c] = Fraction(aug[i][n], d)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        dirv = [Fraction(0)] * n
        dirv[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            dirv[c] = Fraction(-aug[i][fc], d)
        basis.append(tuple(dirv))
    return AffineSubspace(tuple(point), tuple(basis))


def feasible(eqs, ineqs):
    """True iff some rational x has a . x == b for every (a, b) in eqs
    and a . x >= b for every (a, b) in ineqs (integer a, rational b).

    _rref eliminates x from the rows a . x - s_k = b, with one slack
    s_k >= 0 per inequality.  The pivot rows then fix x for any slacks,
    so what is left is whether the other rows S s = h have a solution
    s >= 0.  A phase-1 simplex decides that on _pivot: each row starts
    with an artificial basic variable, whose column is left implicit
    because it never re-enters once it leaves, and the last row holds
    minus the column sums, the reduced costs of the artificials' sum.
    Bland's rule (the first improving column, ties going to the lowest
    basic variable) cannot cycle.  Every pivot is positive, so the
    common denominator stays positive and the ratio test compares by
    cross-multiplication.
    """
    m = len(ineqs)
    rows = [list(a) + [0] * m + [b] for a, b in eqs]
    rows += [list(a) + [-int(j == k) for j in range(m)] + [b]
             for k, (a, b) in enumerate(ineqs)]
    if not rows:
        return True
    n = len(rows[0]) - m - 1
    rows, pivots, _, _ = _rref(rows, n)
    t = [row[n:] if row[-1] >= 0 else [-x for x in row[n:]] for row in rows[len(pivots):]]
    if not t:
        return True
    basis = list(range(m, m + len(t)))
    t.append([-sum(col) for col in zip(*t)])
    prev = 1
    while t[-1][-1] != 0:
        c = next((j for j in range(m) if t[-1][j] < 0), None)
        if c is None:
            return False
        # t[-1][c] < 0 is minus a sum over the rows still on an
        # artificial, so one of them has row[c] > 0
        r = None
        for i, row in enumerate(t[:-1]):
            if row[c] > 0 and (r is None or (row[-1] * t[r][c], basis[i])
                               < (t[r][-1] * row[c], basis[r])):
                r = i
        prev = _pivot(t, r, c, prev)
        basis[r] = c
    return True
