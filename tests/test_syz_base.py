import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustermirror.lattice import bezout_complete, det, mat_inv, mat_mul, mat_vec, transpose
from clustermirror.seed import Seed
from clustermirror.svg import MAX_DOUBLE, fmt, grid_step
from clustermirror.syz_base import (CHARACTER, COCHARACTER, base_from_fan,
                                    CONJUGATION_SIGN, monodromy_matrix, render_svg,
                                    toggle_convention)
from clustermirror.toric_model import StackyFan1D, fan_from_seed
from clustermirror.verify import random_primitive

FIXTURES = Path(__file__).parent / "fixtures"
A2 = Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 1))


def test_monodromy_examples():
    assert monodromy_matrix((1, 0)) == ((1, -1), (0, 1))
    assert monodromy_matrix((0, 1)) == ((1, 0), (1, 1))
    assert monodromy_matrix((-1, -1)) == ((2, -1), (1, 0))
    assert transpose(monodromy_matrix((-1, -1))) == ((2, 1), (-1, 0))
    with pytest.raises(ValueError):
        monodromy_matrix((2, 4))


def test_monodromy_properties_randomized():
    rng = random.Random(19)
    for _ in range(300):
        psi = random_primitive(rng)
        M = monodromy_matrix(psi)
        assert det(M) == 1
        assert M[0][0] + M[1][1] == 2
        assert mat_vec(M, psi) == psi
        assert monodromy_matrix((-psi[0], -psi[1])) == M


def test_conjugation_witness():
    assert CONJUGATION_SIGN == -1
    assert bezout_complete((1, 0)) == ((1, 0), (0, 1))
    assert bezout_complete((0, 1)) == ((0, -1), (1, 0))


def _int_inv(M):
    return tuple(tuple(int(x) for x in row) for row in mat_inv(M))


def test_conjugation_identity_randomized():
    rng = random.Random(23)
    shear = {1: ((1, 1), (0, 1)), -1: ((1, -1), (0, 1))}
    for _ in range(300):
        psi = random_primitive(rng)
        A = bezout_complete(psi)
        assert det(A) == 1
        assert (A[0][0], A[1][0]) == psi
        assert (mat_mul(mat_mul(A, shear[CONJUGATION_SIGN]), _int_inv(A))
                == monodromy_matrix(psi))


def test_base_from_fan():
    base = base_from_fan(fan_from_seed(A2))
    assert base.convention == CHARACTER
    assert [s.position for s in base.singularities] == [(1, 0), (0, 1)]
    assert [s.direction for s in base.singularities] == [(1, 0), (0, 1)]
    one = base_from_fan(StackyFan1D(2, (((1, 1), 1),)), [Fraction(2)])
    assert one.singularities[0].position == (2, 2)
    empty = base_from_fan(StackyFan1D(2, ()))
    assert empty.singularities == ()
    with pytest.raises(ValueError):
        base_from_fan(StackyFan1D(2, (((1, 0), 1),)), [Fraction(0)])


def test_toggle_convention():
    base = base_from_fan(StackyFan1D(2, (((-1, -1), 1),)))
    flipped = toggle_convention(base)
    assert flipped.convention == COCHARACTER
    assert flipped.singularities[0].monodromy == ((2, 1), (-1, 0))
    assert toggle_convention(flipped) == base
    empty = base_from_fan(StackyFan1D(2, ()))
    assert toggle_convention(empty).singularities == ()


def test_render_svg_structure():
    base = base_from_fan(StackyFan1D(2, (((1, 0), 1), ((0, 1), 1), ((-1, -1), 1))))
    doc = render_svg(base)
    assert doc.startswith('<?xml version="1.0"')
    assert doc.count("stroke-dasharray") == 3
    empty = render_svg(base_from_fan(StackyFan1D(2, ())))
    assert "stroke-dasharray" not in empty and "<line" in empty


def test_grid_step():
    spans = (1, Fraction(1, 3), 100, 101, 200, 201, 500, 501, 1000, 1001)
    assert [grid_step(x) for x in spans] == [1, 1, 1, 2, 2, 5, 5, 10, 10, 20]
    assert grid_step(10 ** 20) == 10 ** 18


def half_even(x):
    """x to three decimals, the nearer multiple of 1/1000 with ties to the
    even one, printed from its digit string."""
    y = Fraction(x) * 1000
    k = min((math.floor(y), math.floor(y) + 1), key=lambda k: (abs(y - k), k % 2))
    digits = str(abs(k)).rjust(4, "0")
    return "-" * (k < 0) + digits[:-3] + "." + digits[-3:]


RATIONALS = st.one_of(
    st.integers(-2 ** 60, 2 ** 60),
    st.fractions(max_denominator=10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 30)),
    st.builds(lambda k: Fraction(2 * k + 1, 2000), st.integers(-10 ** 20, 10 ** 20)))  # ties


@settings(max_examples=500, deadline=None)
@given(RATIONALS)
@example(Fraction(1, 400))
@example(Fraction(3, 400))
@example(Fraction(-1, 2000))
@example(6 * 10 ** 21 + 40)
@example(Fraction(10 ** 30 + 1, 10 ** 30))
def test_fmt_rounds_half_to_even(x):
    assert fmt(x) == half_even(x)
    # the float path it replaced agrees wherever the double of x cannot
    # cross a halfway point: |float(x) - x| <= |x| * 2**-53
    y = Fraction(x) * 1000
    if abs(x) < 2 ** 53 and abs(y - math.floor(y) - Fraction(1, 2)) > abs(y) / 2 ** 52:
        s = "%.3f" % float(x)
        assert fmt(x) == ("0.000" if s == "-0.000" else s)


@given(st.fractions(Fraction(-1, 2000), 0).filter(lambda x: x > Fraction(-1, 2000)))
def test_fmt_prints_no_negative_zero(x):
    assert fmt(x) == "0.000"


def test_fmt_refuses_beyond_the_largest_double():
    assert MAX_DOUBLE == int(float.fromhex("0x1.fffffffffffffp+1023"))
    assert fmt(-MAX_DOUBLE) == "-%d.000" % MAX_DOUBLE
    assert fmt(MAX_DOUBLE + Fraction(1, 2001)) == "%d.000" % MAX_DOUBLE
    for x in (MAX_DOUBLE + Fraction(1, 1000), -MAX_DOUBLE - 1):
        with pytest.raises(ValueError, match="too large for a float"):
            fmt(x)


def test_render_svg_golden():
    base = base_from_fan(fan_from_seed(A2))
    doc = render_svg(base)
    golden = (FIXTURES / "a2_syz.svg").read_text()
    assert doc == golden
