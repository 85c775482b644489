import random
from fractions import Fraction
from pathlib import Path

import pytest

from clustermirror.almost_toric import (AlmostToricError, InfeasibleBase,
                                        MomentPolytope, NodalTrade,
                                        apply_trades, common_basepoint,
                                        detect_interactions, disk_classes,
                                        render_svg,
                                        skeleton_from_base,
                                        smoothable_corner_chart,
                                        smoothness_check)
from clustermirror.lattice import det, identity, mat_vec, transpose
from clustermirror.skeleton import Handle
from clustermirror.syz_base import monodromy_matrix

FIXTURES = Path(__file__).parent / "fixtures"

QUADRANT = MomentPolytope(2, ((Fraction(0), Fraction(0)),), ((0, 1), (1, 0)), ())
BL0C2 = MomentPolytope(
    2, ((Fraction(0), Fraction(5)), (Fraction(5), Fraction(0))), ((0, 1), (1, 0)), ())


def test_corner_chart_standard():
    M, p = smoothable_corner_chart(QUADRANT, 0)
    assert M == identity(2) and p == (Fraction(0), Fraction(0))


def test_corner_chart_bl0c2():
    small = MomentPolytope(
        2, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))), ((0, 1), (1, 0)), ())
    M, p = smoothable_corner_chart(small, 1)
    assert det(M) in (1, -1) and p == (Fraction(1), Fraction(0))


def test_corner_chart_rejects_singular_corner():
    poly = MomentPolytope(2, ((Fraction(0), Fraction(0)),), ((1, 2), (1, 0)), ())
    with pytest.raises(AlmostToricError):
        smoothable_corner_chart(poly, 0)


def test_standard_trade():
    base = apply_trades(QUADRANT, (NodalTrade(0),))
    sing = base.singularities[0]
    assert sing.position == (Fraction(1), Fraction(1))
    assert sing.eigen == (1, 1)
    assert sing.monodromy == ((2, 1), (-1, 0))
    assert smoothness_check(base) == [True]


def test_explicit_2d_corner_chart_matches_derived():
    for poly, vertex, t in ((QUADRANT, 0, Fraction(1)), (BL0C2, 0, Fraction(3, 2)),
                            (BL0C2, 1, Fraction(2))):
        chart = smoothable_corner_chart(poly, vertex)
        derived = apply_trades(poly, (NodalTrade(vertex, None, t),)).singularities[0]
        given = apply_trades(poly, (NodalTrade(vertex, chart, t),)).singularities[0]
        assert given.chart == derived.chart == chart
        assert given.position == derived.position
        assert given.eigen == derived.eigen
        assert given.monodromy == derived.monodromy


def test_monodromy_trace_det_and_eigen():
    rng = random.Random(61)
    from clustermirror.verify import suite_smoothness
    rep = suite_smoothness(rng, 100)
    assert rep["passed"]
    base = apply_trades(BL0C2, (NodalTrade(0), NodalTrade(1)))
    for sing in base.singularities:
        assert det(sing.monodromy) == 1
        assert sing.monodromy[0][0] + sing.monodromy[1][1] == 2
        # the transpose is the transport on base tangents; it fixes the
        # eigen direction
        assert mat_vec(transpose(sing.monodromy), sing.eigen) == sing.eigen
        assert sing.monodromy == transpose(monodromy_matrix(sing.eigen))


def test_corrupted_monodromy_fails_smoothness():
    base = apply_trades(QUADRANT, (NodalTrade(0),))
    sing = base.singularities[0]
    import dataclasses
    bad = dataclasses.replace(sing, monodromy=((1, 1), (0, 1)))
    broken = dataclasses.replace(base, singularities=(bad,))
    assert smoothness_check(broken) == [False]


def test_overlapping_trades_rejected():
    tight = MomentPolytope(
        2, ((Fraction(0), Fraction(3)), (Fraction(3), Fraction(0))), ((0, 1), (1, 0)), ())
    with pytest.raises(AlmostToricError, match="overlapping"):
        apply_trades(tight, (NodalTrade(0), NodalTrade(1)))
    with pytest.raises(AlmostToricError, match="distinct"):
        apply_trades(BL0C2, (NodalTrade(0), NodalTrade(0)))


def test_common_basepoint_bl0c2():
    base = apply_trades(BL0C2, (NodalTrade(0), NodalTrade(1)))
    q, sub = common_basepoint(base)
    assert q == (Fraction(5), Fraction(5)) and sub is None
    # strictly inside BL0C2: x > 0, y > 0 and x + y > 5
    x, y = q
    assert x > 0 and y > 0 and x + y > 5


def test_common_basepoint_single_trade():
    base = apply_trades(QUADRANT, (NodalTrade(0),))
    q, sub = common_basepoint(base)
    assert sub is not None and len(sub.basis) == 1
    # canonical point: projection of the singularity onto its own line
    assert q == (Fraction(1), Fraction(1))


def test_common_basepoint_parallel_lines():
    strip = MomentPolytope(
        2, ((Fraction(0), Fraction(0)), (Fraction(8), Fraction(0))), ((0, 1), (0, 1)), ())
    ch1 = (identity(2), (Fraction(0), Fraction(0)))
    ch2 = (identity(2), (Fraction(5), Fraction(0)))
    base = apply_trades(strip, (NodalTrade(0, ch1), NodalTrade(1, ch2)))
    with pytest.raises(InfeasibleBase) as exc:
        common_basepoint(base)
    assert exc.value.pair == (0, 1)


def test_skeleton_from_base_bl0c2():
    base = apply_trades(BL0C2, (NodalTrade(0), NodalTrade(1)))
    q, _ = common_basepoint(base)
    sk = skeleton_from_base(base, q)
    assert sk.handles == (Handle((-1, 0), (0, 1), 1), Handle((0, -1), (-1, 0), 1))
    classes = {tuple(sorted((c, tuple(-x for x in c)))) for c in disk_classes(base, q)}
    assert classes == {tuple(sorted(((1, 0), (-1, 0)))),
                       tuple(sorted(((0, 1), (0, -1))))}


def test_skeleton_from_base_single_trade():
    base = apply_trades(QUADRANT, (NodalTrade(0),))
    sk = skeleton_from_base(base, (Fraction(2), Fraction(2)))
    assert sk.handles[0].psi == (-1, -1)
    assert disk_classes(base, (Fraction(2), Fraction(2))) == [(1, -1)]
    with pytest.raises(AlmostToricError):
        skeleton_from_base(base, (Fraction(1), Fraction(2)))
    with pytest.raises(AlmostToricError):
        skeleton_from_base(base, (Fraction(1), Fraction(1)))


def _c2c2():
    facets = tuple((tuple(int(i == j) for j in range(4)), Fraction(0)) for i in range(4))
    poly = MomentPolytope(4, (), (), facets)
    swap = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    zero = (Fraction(0),) * 4
    return poly, (NodalTrade((0, 1), (identity(4), zero)),
                  NodalTrade((2, 3), (swap, zero)))


def test_nd_trades_and_interactions():
    poly, trades = _c2c2()
    base = apply_trades(poly, trades)
    assert base.interactions == ((0, 1),)
    s0 = base.singularities[0]
    assert s0.position == (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    assert s0.eigen == (1, 1, 0, 0)
    assert len(s0.locus_basis) == 2
    q, sub = common_basepoint(base)
    sk = skeleton_from_base(base, q)
    assert sk.handles[0] == Handle((1, 1, 0, 0), (1, -1, 0, 0), 1)
    assert sk.handles[1] == Handle((0, 0, 1, 1), (0, 0, 1, -1), 1)


def test_nd_chart_shape_rejected():
    poly, _ = _c2c2()
    short_row = identity(4)[:3] + ((0, 0, 0),)
    for chart in ((identity(4), (Fraction(0),) * 3), (short_row, (Fraction(0),) * 4)):
        with pytest.raises(AlmostToricError, match="4x4 matrix"):
            apply_trades(poly, (NodalTrade((0, 1), chart),))


def test_nd_disjoint_faces_empty_report():
    facets = tuple((tuple(int(i == j) for j in range(3)), Fraction(0)) for i in range(3)) \
        + (((-1, 0, 0), Fraction(-4)),)
    poly = MomentPolytope(3, (), (), facets)
    trades = (NodalTrade((0, 1)), NodalTrade((2, 3)))
    # faces {x=0,y=0} and {z=0,x=4} never meet
    assert detect_interactions(poly, trades) == ()


def test_2d_interactions_always_empty():
    assert detect_interactions(BL0C2, (NodalTrade(0), NodalTrade(1))) == ()


def test_render_svg_plain_and_goldens():
    plain = render_svg(apply_trades(BL0C2, ()))
    assert "path" not in plain  # no singularity crosses
    base = apply_trades(QUADRANT, (NodalTrade(0),))
    doc = render_svg(base)
    assert doc == (FIXTURES / "std_trade.svg").read_text()
    base2 = apply_trades(BL0C2, (NodalTrade(0), NodalTrade(1)))
    q, _ = common_basepoint(base2)
    doc2 = render_svg(base2, q=q)
    assert doc2 == (FIXTURES / "bl0c2_double.svg").read_text()


def test_trade_targets_must_name_existing_faces():
    facets = tuple((tuple(int(i == j) for j in range(3)), Fraction(0)) for i in range(3))
    poly = MomentPolytope(3, (), (), facets)
    chart = (identity(3), (Fraction(0),) * 3)
    for target in ((0, -1), (0, 3), (1, 1), (0, 1, 2), 0):
        with pytest.raises(AlmostToricError):
            apply_trades(poly, (NodalTrade(target, chart),))
    # -1 must not name the last facet
    with pytest.raises(AlmostToricError, match="no such facet"):
        detect_interactions(poly, (NodalTrade((0, 1)), NodalTrade((0, -1))))
    for target in (-1, 1, (0, 1)):
        with pytest.raises(AlmostToricError):
            apply_trades(QUADRANT, (NodalTrade(target, (identity(2), (0, 0))),))
