import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustermirror.almost_toric import (AlmostToricError, InfeasibleBase,
                                        MomentPolytope, NodalTrade,
                                        apply_trades, common_basepoint,
                                        detect_interactions,
                                        polytope_from_json, render_svg,
                                        skeleton_from_base,
                                        smoothness_check, trades_from_json)
from clustermirror.lattice import (AffineSubspace, bezout_complete, content, det,
                                   identity, mat_vec, solve_rational, transpose,
                                   unimodular_inverse, vec_add, vec_sub)
from clustermirror.skeleton import Handle, circle_class, intersection_number
from clustermirror.syz_base import monodromy_matrix

FIXTURES = Path(__file__).parent / "fixtures"

QUADRANT = MomentPolytope(2, ((Fraction(0), Fraction(0)),), ((0, 1), (1, 0)), ())
BL0C2 = MomentPolytope(
    2, ((Fraction(0), Fraction(5)), (Fraction(5), Fraction(0))), ((0, 1), (1, 0)), ())


def corner_chart(poly, vertex):
    """The chart apply_trades derives for a trade at the vertex."""
    return apply_trades(poly, (NodalTrade(vertex),)).singularities[0].chart


def test_corner_chart_standard():
    M, p = corner_chart(QUADRANT, 0)
    assert M == identity(2) and p == (Fraction(0), Fraction(0))


def test_corner_chart_bl0c2():
    small = MomentPolytope(
        2, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))), ((0, 1), (1, 0)), ())
    M, p = corner_chart(small, 1)
    assert det(M) in (1, -1) and p == (Fraction(1), Fraction(0))


def test_corner_chart_rejects_singular_corner():
    poly = MomentPolytope(2, ((Fraction(0), Fraction(0)),), ((1, 2), (1, 0)), ())
    with pytest.raises(AlmostToricError):
        corner_chart(poly, 0)


def _chart_by_inverse(a, b):
    """Reference: the inverse of the matrix with columns a and b, its
    rows swapped when <a, b> = -1 so that the chart sends the edge
    pair's lo to e1 and hi to e2."""
    inv = unimodular_inverse(((a[0], b[0]), (a[1], b[1])))
    return inv if intersection_number(a, b) == 1 else (inv[1], inv[0])


@st.composite
def unimodular_corners(draw):
    """(polygon, vertex, a, b): a corner whose edges leave in the
    primitive directions a and b with <a, b> = +-1, at the end of an
    unbounded chain (rays a, b) or in a bounded triangle with edges m a
    and n b.  <a, b> = +1 only on a clockwise chain."""
    a = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda v: content(v) == 1))
    c = tuple(row[1] for row in bezout_complete(a))      # <a, c> = 1
    k = draw(st.integers(-5, 5))
    sign = draw(st.sampled_from((1, -1)))
    b = tuple(sign * (x + k * y) for x, y in zip(c, a))
    p = tuple(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 3))) for _ in range(2))
    if draw(st.booleans()):
        return MomentPolytope(2, (p,), (a, b), ()), 0, a, b
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return MomentPolytope(2, (vec_add(p, (m * a[0], m * a[1])), p,
                              vec_add(p, (n * b[0], n * b[1]))), (), ()), 1, a, b


@settings(max_examples=200, deadline=None)
@given(unimodular_corners())
@example((QUADRANT, 0, (0, 1), (1, 0)))
@example((MomentPolytope(2, ((Fraction(0), Fraction(0)),), ((1, 0), (0, 1)), ()),
          0, (1, 0), (0, 1)))
def test_corner_chart_matches_inverse(corner):
    poly, vertex, a, b = corner
    base = apply_trades(poly, (NodalTrade(vertex),))
    assert base.singularities[0].chart == (_chart_by_inverse(a, b), poly.vertices[vertex])
    assert smoothness_check(base) == [True]


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
        chart = corner_chart(poly, vertex)
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
    bad = sing._replace(monodromy=((1, 1), (0, 1)))
    broken = base._replace(singularities=(bad,))
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
    with pytest.raises(InfeasibleBase, match="trades 0 and 1 never meet"):
        common_basepoint(base)


def test_skeleton_from_base_bl0c2():
    base = apply_trades(BL0C2, (NodalTrade(0), NodalTrade(1)))
    q, _ = common_basepoint(base)
    sk = skeleton_from_base(base, q)
    assert sk.handles == (Handle((-1, 0), (0, 1), 1), Handle((0, -1), (-1, 0), 1))
    classes = {tuple(sorted((c, tuple(-x for x in c))))
               for c in (circle_class(h.psi) for h in sk.handles)}
    assert classes == {tuple(sorted(((1, 0), (-1, 0)))),
                       tuple(sorted(((0, 1), (0, -1))))}


def test_skeleton_from_base_single_trade():
    base = apply_trades(QUADRANT, (NodalTrade(0),))
    sk = skeleton_from_base(base, (Fraction(2), Fraction(2)))
    assert sk.handles[0].psi == (-1, -1)
    assert [circle_class(h.psi) for h in sk.handles] == [(1, -1)]
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


def _fourier_motzkin(eqs, ineqs):
    """Reference oracle: solve the equations, then eliminate the free
    directions of their solution set from normal . x >= rhs one at a
    time by Fourier-Motzkin over Fraction.  Exact, but each step can
    square the inequality count."""
    sol = solve_rational([list(a) for a, _ in eqs], [b for _, b in eqs])
    if sol is None:
        return False
    point, basis = sol.point, sol.basis
    system = []
    for a, r in ineqs:
        const = sum(Fraction(x) * p for x, p in zip(a, point))
        system.append(([sum(Fraction(x) * b for x, b in zip(a, bv)) for bv in basis],
                       r - const))
    for var in range(len(basis)):
        lower, upper, rest = [], [], []
        for coeffs, rhs in system:
            c = coeffs[var]
            if c > 0:
                lower.append(([x / c for x in coeffs], rhs / c))
            elif c < 0:
                upper.append(([x / c for x in coeffs], rhs / c))
            else:
                rest.append((coeffs, rhs))
        for lc, lr in lower:
            for uc, ur in upper:
                coeffs = [u - l for u, l in zip(lc, uc)]
                coeffs[var] = Fraction(0)
                rest.append((coeffs, lr - ur))
        system = rest
    return all(rhs <= 0 for _, rhs in system)


def _orthant(n, extra=()):
    return tuple((tuple(int(i == j) for j in range(n)), Fraction(0)) for i in range(n)) \
        + tuple((a, Fraction(r)) for a, r in extra)


@st.composite
def traded_polytopes(draw):
    """(n, facets, targets) in dimension 3-6 with 2 or 3 traded faces.
    Each rhs is the normal's value at a planted integer point, shifted by
    -1, 0 or 1: shift 0 puts the point on the facet, so faces through it
    can touch there alone, and shift 1 cuts it off.  Small random normals
    leave most regions unbounded."""
    n = draw(st.integers(3, 6))
    m = draw(st.integers(4, n + 4))
    point = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    facets = []
    for _ in range(m):
        a = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        shift = draw(st.sampled_from((-1, 0, 0, 1)))
        facets.append((a, Fraction(sum(x * p for x, p in zip(a, point)) + shift)))
    pairs = st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)
    targets = draw(st.lists(pairs.map(tuple), min_size=2, max_size=3))
    return n, tuple(facets), tuple(targets)


# the faces x = y = 0 and y = z = 0 meet only at 0, which x + y + z >= 1 cuts off
CUT_OFF = (3, _orthant(3, [((1, 1, 1), 1)]), ((0, 1), (1, 2)))
# the same faces touch at the one point 0, where x + y + z <= 0 also passes
TOUCHING = (3, _orthant(3, [((-1, -1, -1), 0)]), ((0, 1), (1, 2)))
# the faces of (0, 1) and (2, 3) meet along the unbounded ray x4 >= 3
UNBOUNDED = (5, _orthant(5, [((0, 0, 0, 0, 1), 3)]), ((0, 1), (2, 3)))


def _faces_meet(facets, a, b):
    faces = set(a) | set(b)
    return _fourier_motzkin([facets[k] for k in faces],
                            [f for k, f in enumerate(facets) if k not in faces])


@settings(max_examples=300, deadline=None)
@given(traded_polytopes())
@example(CUT_OFF)
@example(TOUCHING)
@example(UNBOUNDED)
def test_interactions_match_fourier_motzkin(case):
    n, facets, targets = case
    want = tuple((i, j) for i in range(len(targets)) for j in range(i + 1, len(targets))
                 if _faces_meet(facets, targets[i], targets[j]))
    poly = MomentPolytope(n, (), (), facets)
    assert detect_interactions(poly, tuple(NodalTrade(t) for t in targets)) == want


def test_interaction_examples_are_what_they_say():
    # the three facets of the two faces leave the one point 0
    for _n, facets, _targets in (CUT_OFF, TOUCHING):
        assert solve_rational([list(a) for a, _ in facets[:3]], [0, 0, 0]) \
            == AffineSubspace((Fraction(0),) * 3, ())
    assert not _faces_meet(CUT_OFF[1], *CUT_OFF[2])
    assert _faces_meet(TOUCHING[1], *TOUCHING[2])
    # the meeting goes on past x4 = 10^6, and x4 <= 2 leaves none of it
    _n, facets, targets = UNBOUNDED
    assert _faces_meet(facets + (((0, 0, 0, 0, 1), Fraction(10 ** 6)),), *targets)
    assert not _faces_meet(facets + (((0, 0, 0, 0, -1), Fraction(-2)),), *targets)


def _triangle(chart, t):
    """Vertices of the excised triangle hull{0, (2t, 0), (0, 2t)} of a
    chart x -> M (x - p), in polygon coordinates."""
    M, p = chart
    Minv = unimodular_inverse(M)
    return [vec_add(mat_vec(Minv, y), p) for y in ((0, 0), (2 * t, 0), (0, 2 * t))]


def _separating_axis(A, B):
    """Reference oracle: closed convex polygons A and B meet unless the
    normal of some edge separates them strictly."""
    for pts in (A, B):
        for i in range(len(pts)):
            e = vec_sub(pts[(i + 1) % len(pts)], pts[i])
            axis = (-e[1], e[0])
            a = [axis[0] * x + axis[1] * y for x, y in A]
            b = [axis[0] * x + axis[1] * y for x, y in B]
            if max(a) < min(b) or max(b) < min(a):
                return False
    return True


def test_overlap_matches_separating_axis():
    rng = random.Random(20)

    def chart():
        while True:
            M = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
            if det(M) in (1, -1):
                return M

    def point():
        return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 2)) for _ in range(2))

    seen = {}
    for k in range(600):
        kind = ("random", "corner on a vertex", "shared hypotenuse", "near miss")[k % 4]
        t1, t2 = (Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(2))
        M1, p1 = chart(), point()
        if kind == "random":
            M2, p2 = chart(), point()
        elif kind == "corner on a vertex":
            M2, p2 = chart(), rng.choice(_triangle((M1, p1), t1))
        else:
            # y' = (2t, 2t) - y reflects the triangle across its hypotenuse
            t2 = t1
            eps = Fraction(rng.randint(1, 3), rng.randint(1, 8)) if kind == "near miss" else 0
            M2 = tuple(tuple(-x for x in row) for row in M1)
            p2 = vec_add(p1, mat_vec(unimodular_inverse(M1), (2 * t1 + eps,) * 2))
        want = _separating_axis(_triangle((M1, p1), t1), _triangle((M2, p2), t2))
        trades = (NodalTrade(0, (M1, p1), t1), NodalTrade(1, (M2, p2), t2))
        try:
            apply_trades(BL0C2, trades)
            got = False
        except AlmostToricError as e:
            assert "overlapping trade neighborhoods: trades 0 and 1" in str(e)
            got = True
        assert got == want, (kind, trades)
        seen.setdefault(kind, set()).add(got)
    # touching closed triangles overlap; a positive gap does not
    assert seen == {"random": {False, True}, "corner on a vertex": {True},
                    "shared hypotenuse": {True}, "near miss": {False}}


def orthant_with_cuts(n, m, seed=1):
    """The polytope and trades documents of the orthant x >= 0 in
    dimension n, cut by m - n random facets with normal entries in
    [-3, 1] and rhs in [-49, -5], so the origin stays inside.  Trades
    target the faces (0, 1) and (2, 3); each chart's rows are facet
    normals, the first two those of its targets, and its translation 0."""
    rng = random.Random(seed)
    facets = [{"normal": [int(i == j) for j in range(n)], "rhs": "0"} for i in range(n)]
    for _ in range(m - n):
        facets.append({"normal": [rng.randint(-3, 1) for _ in range(n)],
                       "rhs": str(rng.randint(-49, -5))})
    order = [2, 3, 0, 1] + list(range(4, n))
    trades = [{"target": target,
               "chart": {"matrix": [[int(rows[i] == j) for j in range(n)] for i in range(n)],
                         "translation": ["0"] * n}}
              for target, rows in (([0, 1], list(range(n))), ([2, 3], order))]
    return {"dimension": n, "facets": facets}, {"trades": trades}


def test_seeded_high_dimensional_faces_meet():
    # Fourier-Motzkin needs about 10 s on the 9D document and over a
    # minute on the 10D one; the faces meet at the origin in both
    for n, m in ((9, 21), (10, 20)):
        poly_doc, trades_doc = orthant_with_cuts(n, m)
        base = apply_trades(polytope_from_json(poly_doc), trades_from_json(trades_doc))
        assert base.interactions == ((0, 1),)
    poly_doc, trades_doc = orthant_with_cuts(9, 21)
    assert json.loads((FIXTURES / "orthant9_polytope.json").read_text()) == poly_doc
    assert json.loads((FIXTURES / "orthant9_trades.json").read_text()) == trades_doc
