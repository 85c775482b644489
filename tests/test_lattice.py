from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clustermirror.lattice import (AffineSubspace, Infeasible, Point, det,
                                   ext_gcd, identity, is_primitive, mat_inv,
                                   mat_mul, primitive_part, solve_rational,
                                   unimodular_inverse)
from clustermirror.skeleton import bondal_strata
from clustermirror.toric_model import StackyFan1D


def test_is_primitive_examples():
    assert not is_primitive((2, 4))
    assert is_primitive((1, 0))
    assert is_primitive((3, 5, 7))
    with pytest.raises(ValueError):
        is_primitive((0, 0))


def test_det_examples():
    assert det(((1, 1), (0, 1))) == 1
    assert det(((2, 1), (-1, 0))) == 1
    assert det(tuple(tuple(int(i == j) for j in range(4)) for i in range(4))) == 1
    with pytest.raises(ValueError):
        det(((1, 2, 3), (4, 5, 6)))


def test_solve_examples():
    assert solve_rational([[1, 0], [0, 1]], [1, 1]) == Point((Fraction(1), Fraction(1)))
    assert isinstance(solve_rational([[1, 0], [1, 0]], [0, 1]), Infeasible)
    # no equation is named: after row swaps an index would name the wrong one
    assert solve_rational([[1, 0], [1, 0], [0, 1]], [2, 3, 1]) == Infeasible()
    sol = solve_rational([[1, 1]], [2])
    assert isinstance(sol, AffineSubspace)
    assert len(sol.basis) == 1
    with pytest.raises(ValueError):
        solve_rational([[1, 0]], [1, 2])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_satisfies_equations(rows, b):
    b = b[:len(rows)]
    sol = solve_rational(rows, b)
    if isinstance(sol, Infeasible):
        return
    pt = sol.coords if isinstance(sol, Point) else sol.point
    for row, rhs in zip(rows, b):
        assert sum(Fraction(c) * x for c, x in zip(row, pt)) == rhs
    if isinstance(sol, AffineSubspace):
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
