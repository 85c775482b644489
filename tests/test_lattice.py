from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustermirror.lattice import (AffineSubspace, as_rational, content, det,
                                   ext_gcd, feasible, identity, mat_inv,
                                   mat_mul, primitive_part, solve_rational,
                                   unimodular_inverse)
from clustermirror.skeleton import bondal_strata
from clustermirror.toric_model import StackyFan1D


def test_content_examples():
    # primitive means content 1, so the zero vector (content 0) is not
    assert content((2, 4)) == 2
    assert content((1, 0)) == content((3, 5, 7)) == content((-1, 0)) == 1
    assert content((0, 0)) == 0


def test_primitive_part_of_rational_vectors():
    assert primitive_part((Fraction(3, 2), Fraction(-9, 4))) == (2, -3)
    assert primitive_part((4, -6)) == (2, -3)
    with pytest.raises(ValueError):
        primitive_part((Fraction(0), Fraction(0)))


def test_as_rational_bounds_the_exponent():
    assert as_rational("1e20") == 10 ** 20
    assert as_rational("1e400") == 10 ** 400
    assert as_rational("-1.5E-3") == Fraction(-3, 2000)
    assert as_rational("1e4299") == 10 ** 4299           # 4300 digits: str() prints it
    assert as_rational("1" * 4300) == int("1" * 4300)
    # a run of 4301 digits is refused before Fraction reads it
    for text in ("1" * 4301, "0." + "1" * 4301, "0" * 4301 + "1"):
        with pytest.raises(ValueError, match="'%s' has a run of more than 4300 digits" % text):
            as_rational(text)
    # refused before 10 ** exponent is built
    for text in ("1e5000", "1e-5000", "1e10000000"):
        with pytest.raises(ValueError, match="exponent of '%s' exceeds 4300" % text):
            as_rational(text)
    # built, but a numerator or denominator of 4301 digits could not be written
    for text in ("1e4300", "1e-4300", "12e4299"):
        with pytest.raises(ValueError, match="'%s' has a numerator or denominator of "
                                             "more than 4300 digits" % text):
            as_rational(text)


def test_det_examples():
    assert det(((1, 1), (0, 1))) == 1
    assert det(((2, 1), (-1, 0))) == 1
    assert det(tuple(tuple(int(i == j) for j in range(4)) for i in range(4))) == 1
    assert det(((0, 1), (1, 0))) == -1                  # needs a row swap
    assert det(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 0
    half = det(((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), 1)))
    assert half == Fraction(5, 12) and type(half) is Fraction
    with pytest.raises(ValueError):
        det(((1, 2, 3), (4, 5, 6)))


def test_solve_examples():
    assert solve_rational([[1, 0], [0, 1]], [1, 1]) \
        == AffineSubspace((Fraction(1), Fraction(1)), ())
    assert solve_rational([[1, 0], [1, 0]], [0, 1]) is None
    # no equation is named: after row swaps an index would name the wrong one
    assert solve_rational([[1, 0], [1, 0], [0, 1]], [2, 3, 1]) is None
    sol = solve_rational([[1, 1]], [2])
    assert isinstance(sol, AffineSubspace)
    assert len(sol.basis) == 1
    with pytest.raises(ValueError):
        solve_rational([[1, 0]], [1, 2])


def test_feasible_examples():
    half = Fraction(1, 2)
    assert feasible((), ())
    assert feasible((((1, 0), half),), ())                   # nothing left after x
    assert not feasible((((1, 0), 0), ((1, 0), 1)), ())       # x = 0 and x = 1
    assert feasible((), (((1,), half), ((-1,), -half)))       # 1/2 <= x <= 1/2
    assert not feasible((), (((1,), 1), ((-1,), 0)))          # 1 <= x <= 0
    assert feasible((), (((0, 0), -1),))                      # 0 >= -1
    assert not feasible((), (((0, 0), 1),))                   # 0 >= 1
    # x + y = 1 meets x, y >= 0 on a segment, and x, y >= 1 nowhere
    line = (((1, 1), 1),)
    assert feasible(line, (((1, 0), 0), ((0, 1), 0)))
    assert not feasible(line, (((1, 0), 1), ((0, 1), 1)))
    # unbounded: x - y >= 5 with x, y >= 0
    assert feasible((), (((1, -1), 5), ((1, 0), 0), ((0, 1), 0)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_satisfies_equations(rows, b):
    b = b[:len(rows)]
    sol = solve_rational(rows, b)
    if sol is None:
        return
    for row, rhs in zip(rows, b):
        assert sum(Fraction(c) * x for c, x in zip(row, sol.point)) == rhs
    for d in sol.basis:
        for row in rows:
            assert sum(Fraction(c) * x for c, x in zip(row, d)) == 0


def ray_components(v, d=1):
    """Components of the Bondal stratum of the single ray (v, d)."""
    return bondal_strata(StackyFan1D(len(v), ((v, d),)))[1].components


def test_torsion_examples():
    assert ray_components((3, 0)) == 3
    assert ray_components((1, 0)) == 1
    assert ray_components((1, 0), 3) == 3
    assert ray_components((0, 0)) == 1


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
       st.integers(1, 5))
def test_torsion_scaling(v, d):
    if all(x == 0 for x in v):
        return
    v = primitive_part(v)
    assert ray_components(v, d) == d * ray_components(v)
    assert ray_components(tuple(d * x for x in v)) == d


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_ext_gcd(a, b):
    g, u, v = ext_gcd(a, b)
    assert u * a + v * b == g == gcd(a, b)


def square_mats(entries):
    return st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n).map(lambda rows: tuple(map(tuple, rows))))


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.one_of(square_mats(st.integers(-9, 9)), square_mats(fractions)))
def test_mat_inv_is_inverse(M):
    assume(det(M) != 0)
    assert mat_mul(M, mat_inv(M)) == identity(len(M))
    assert mat_mul(mat_inv(M), M) == identity(len(M))


def test_mat_inv_rejects_singular():
    with pytest.raises(ValueError):
        mat_inv(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        mat_inv(((1, 0, 0), (0, 0, 0), (0, 0, 1)))


@st.composite
def unimodular_mats(draw):
    """Products of random sign flips and elementary transvections."""
    n = draw(st.integers(1, 5))
    M = [list(row) for row in identity(n)]
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            M[i] = [-x for x in M[i]]
        else:
            c = draw(st.integers(-3, 3))
            M[i] = [x + c * y for x, y in zip(M[i], M[j])]
    return tuple(map(tuple, M))


@settings(max_examples=100, deadline=None)
@given(unimodular_mats())
def test_unimodular_inverse(M):
    inv = unimodular_inverse(M)
    assert inv == mat_inv(M)
    assert all(type(x) is int for row in inv for x in row)
    doubled = (tuple(2 * x for x in M[0]),) + M[1:]     # determinant +-2
    with pytest.raises(ValueError):
        unimodular_inverse(doubled)


def _oracle_rref(rows, ncols):
    """Plain Gauss-Jordan over Q with a Fraction division per entry.

    Returns the reduced rows, the pivot columns and the product of the
    pivots, negated once per row swap."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    signed = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            signed = -signed
        pv = a[r][c]
        signed *= pv
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, signed


def _oracle_inv(M):
    n = len(M)
    a, pivots, _ = _oracle_rref([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(M)], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in a)


def _oracle_solve(A, b):
    n = len(A[0])
    aug, pivots, _ = _oracle_rref([list(row) + [rhs] for row, rhs in zip(A, b)], n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    point = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        point[c] = aug[i][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        dirv = [Fraction(0)] * n
        dirv[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            dirv[c] = -aug[i][fc]
        basis.append(tuple(dirv))
    return AffineSubspace(tuple(point), tuple(basis))


@st.composite
def rational_systems(draw):
    """(A, b) with A m x n, 1 <= m, n <= 5.  Rows are independent draws or
    combinations of earlier rows (so singular, underdetermined and
    rank-deficient systems are common); b is either A x0, consistent, or
    drawn freely, often inconsistent when rows depend."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.one_of(st.integers(-9, 9), fractions)
    A = []
    for _ in range(m):
        if A and draw(st.booleans()):
            coefs = draw(st.lists(fractions, min_size=len(A), max_size=len(A)))
            A.append(tuple(sum((k * row[j] for k, row in zip(coefs, A)), Fraction(0))
                           for j in range(n)))
        else:
            A.append(tuple(draw(st.lists(entries, min_size=n, max_size=n))))
    if draw(st.booleans()):
        x0 = draw(st.lists(fractions, min_size=n, max_size=n))
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in A]
    else:
        b = draw(st.lists(entries, min_size=m, max_size=m))
    return tuple(A), b


def _shape_and_types(x):
    # AffineSubspace is a tuple too: test it first, so its type is compared
    if isinstance(x, AffineSubspace):
        return (type(x), [_shape_and_types(getattr(x, f)) for f in x._fields])
    if isinstance(x, (tuple, list)):
        return [_shape_and_types(y) for y in x]
    return type(x)


@settings(max_examples=400, deadline=None)
@given(rational_systems())
def test_kernels_match_fraction_gauss_jordan(system):
    A, b = system
    got, want = solve_rational(A, b), _oracle_solve(A, b)
    assert got == want
    assert _shape_and_types(got) == _shape_and_types(want)
    if len(A) == len(A[0]):
        _, pivots, signed = _oracle_rref(A, len(A))
        assert det(A) == (signed if len(pivots) == len(A) else 0)
        try:
            want = _oracle_inv(A)
        except ValueError:
            with pytest.raises(ValueError):
                mat_inv(A)
            return
        got = mat_inv(A)
        assert got == want
        assert _shape_and_types(got) == _shape_and_types(want)
