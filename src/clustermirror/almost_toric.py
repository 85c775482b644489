"""Nodal trades on moment polytopes and the resulting almost toric
base diagrams.

2D polytopes are (possibly unbounded) convex polygons given by an
ordered vertex chain: the boundary runs in from infinity along the
start ray (if any), through the vertices, and back out along the end
ray, with the interior on the left.  Higher-dimensional polytopes are
H-representations; trades target codimension-2 faces (pairs of
facets).

A trade at a smooth corner excises the local model triangle and puts a
focus-focus singularity at chart^{-1}(t*(1,1)).  The recorded
monodromy lives on the character lattice of the fiber, so it
transforms contravariantly in the chart: for chart matrix M it is
M^T F M^{-T} with F = [[2,1],[-1,0]].  Its transpose is the transport
on base tangent vectors, which is the matrix that fixes the eigen
direction M^{-1}(1,1) and carries one boundary edge across the cut to
the other (the smoothness criterion).  This is also what makes the
duality test work: the recorded matrix equals the transpose of the
B-side monodromy of the eigen direction.  The records are namedtuples,
equal as tuples.
"""

from collections import namedtuple
from fractions import Fraction

from .lattice import (Validated, as_int, as_rational, feasible, ints, malformed,
                      mat_mul, mat_vec, primitive_part, rational_strings, rationals,
                      solve_rational, transpose, unimodular_inverse, vec_add, vec_neg,
                      vec_sub)
from .skeleton import Handle, Skeleton, circle_class, intersection_number
from .svg import SvgCanvas

FOCUS_FOCUS = ((2, 1), (-1, 0))


class AlmostToricError(ValueError):
    pass


class InfeasibleBase(AlmostToricError):
    """No common basepoint; the message names an offending pair of
    eigenloci when there is one."""
    exit_code = 3    # infeasible request: cli.main exits with this code


class MomentPolytope(Validated, namedtuple("MomentPolytope", "dimension vertices rays facets")):
    """dimension 2: ordered rational vertices, optional (start, end) ray
    directions (() for bounded).  dimension > 2: facets as (inward
    normal, rhs) pairs meaning normal . x >= rhs.  Every MomentPolytope
    built is checked; equality is tuple equality."""
    __slots__ = ()

    def __new__(cls, dimension, vertices=(), rays=(), facets=()):
        if dimension == 2:
            if not vertices:
                raise AlmostToricError("polygon needs at least one vertex")
            if rays and len(rays) != 2:
                raise AlmostToricError("unbounded polygon carries exactly two ray directions")
            if any(not any(ray) for ray in rays):
                raise AlmostToricError("a ray direction must be nonzero")
            if not rays and len(vertices) < 3:
                raise AlmostToricError("bounded polygon needs at least three vertices")
            # vertices[-1] precedes vertex 0 when the polygon is bounded
            for i in range(1 if rays else 0, len(vertices)):
                if vertices[i] == vertices[i - 1]:
                    raise AlmostToricError("vertex %d repeats the vertex before it" % i)
        elif dimension > 2:
            if not facets:
                raise AlmostToricError("H-representation needs facets")
        else:
            raise AlmostToricError("dimension must be at least 2")
        return tuple.__new__(cls, (dimension, vertices, rays, facets))


class NodalTrade(Validated, namedtuple("NodalTrade", "target chart t")):
    """target: vertex index (2D) or (i, j) facet pair (nD); chart: (M, p)
    for x -> M (x - p), derived for 2D corners if None; t > 0, kept as a
    Fraction.  Every NodalTrade built is checked; equality is tuple
    equality."""
    __slots__ = ()

    def __new__(cls, target, chart=None, t=Fraction(1)):
        t = Fraction(t)
        if t <= 0:
            raise AlmostToricError("singularity distance t must be positive")
        return tuple.__new__(cls, (target, chart, t))


# chart: (M, p); position: 2D point, or point on the singular locus in
# nD; eigen: primitive direction of the eigenline / plane; monodromy:
# None above dimension 2
Singularity = namedtuple("Singularity", "trade chart position eigen monodromy")
AlmostToricBase = namedtuple("AlmostToricBase", "polytope singularities interactions")


def _corner_basis(poly, i):
    """The two primitive boundary directions leaving vertex i, an index
    checked when its trade was charted, as (lo, hi) with <lo, hi> = 1.
    An edge or a ray counts by its direction only."""
    vs = poly.vertices
    # vs[i - 1] is vs[-1] at i = 0; a ray leaves only an end of an unbounded chain
    back = primitive_part(poly.rays[0] if i == 0 and poly.rays else vec_sub(vs[i - 1], vs[i]))
    fwd = primitive_part(poly.rays[1] if i == len(vs) - 1 and poly.rays
                         else vec_sub(vs[(i + 1) % len(vs)], vs[i]))
    d = intersection_number(back, fwd)
    if d not in (1, -1):
        raise AlmostToricError("corner not integral-affine standard")
    return (back, fwd) if d == 1 else (fwd, back)


def _chart_halfplanes(sing):
    """The local-model triangle y0 >= 0, y1 >= 0, y0 + y1 <= 2t in the
    chart y = M (x - p), as three half-planes normal . x >= rhs in
    polygon coordinates; the singularity sits on its hypotenuse."""
    M, p = sing.chart
    normals = (M[0], M[1], vec_neg(vec_add(M[0], M[1])))
    offsets = (0, 0, -2 * sing.trade.t)
    return [(nrm, sum(a * x for a, x in zip(nrm, p)) + off)
            for nrm, off in zip(normals, offsets)]


def _facet(poly, i):
    if type(i) is not int or not 0 <= i < len(poly.facets):
        raise AlmostToricError("no such facet")
    return poly.facets[i]


def _trade_chart(poly, trade):
    """The trade's chart x -> M (x - p), which sends its face to the
    model corner y_0 = y_1 = 0, once its target is checked: one vertex
    index in 2D, two distinct facet indices above.

    An omitted chart is derived at a smooth 2D corner, taking it to the
    standard corner of (R>=0)^2 with p the vertex; above dimension 2 it
    must be given.  An explicit chart must be n x n, and above
    dimension 2 rows 0 and 1 of M must be the normals of the target
    facets, in order, with p on both.  _trade_singularity, which inverts
    M, rejects a chart that is not unimodular.  Explicit 2D charts are not
    checked against the corner: verify.suite_duality trades at the quadrant's
    corner with off-corner charts (shear . A^{-1}) to test how the
    recorded monodromy transforms."""
    n, target = poly.dimension, trade.target
    if n == 2:
        if type(target) is not int or not 0 <= target < len(poly.vertices):
            raise AlmostToricError("a 2D trade targets one vertex index, got %r" % (target,))
    elif type(target) is not tuple or len(target) != 2 or target[0] == target[1]:
        raise AlmostToricError("a trade in dimension %d targets two distinct facet "
                               "indices, got %r" % (n, target))
    else:
        facets = [_facet(poly, i) for i in target]
    if trade.chart is None:
        if n > 2:
            raise AlmostToricError("explicit charts are required above dimension 2")
        lo, hi = _corner_basis(poly, target)
        # M sends lo to e1 and hi to e2: it inverts [lo hi], whose
        # determinant is <lo, hi> = 1
        return ((hi[1], -hi[0]), (-lo[1], lo[0])), poly.vertices[target]
    M, p = trade.chart
    if len(M) != n or any(len(row) != n for row in M) or len(p) != n:
        raise AlmostToricError(
            "chart needs a %dx%d matrix and a translation of length %d" % (n, n, n))
    M, p = tuple(tuple(row) for row in M), tuple(p)
    if n > 2:
        # a chart off the target facets would put the position at a
        # different corner from the faces detect_interactions reads
        for k, (fid, (normal, rhs)) in enumerate(zip(target, facets)):
            if M[k] != tuple(normal):
                raise AlmostToricError("chart row %d is %s, not the normal %s of target "
                                       "facet %d" % (k, list(M[k]), list(normal), fid))
            if sum(a * b for a, b in zip(normal, p)) != rhs:
                raise AlmostToricError("chart translation does not lie on target facet %d"
                                       % fid)
    return M, p


def _trade_singularity(poly, trade):
    """The focus-focus model times the face, pulled back along the chart:
    the singular locus passes through chart^{-1}(t, t, 0, ..., 0) and is
    spanned by the last n - 2 columns of M^{-1} (none in 2D), and the
    eigen direction is M^{-1}(1, 1, 0, ..., 0).  The 2x2 model monodromy
    acts in the transverse slice, so it is recorded in 2D only."""
    chart = _trade_chart(poly, trade)
    M, p = chart
    try:
        Minv = unimodular_inverse(M)
    except ValueError:
        raise AlmostToricError("chart matrix must be unimodular")
    pos = vec_add(mat_vec(Minv, (trade.t, trade.t) + (0,) * (len(M) - 2)), p)
    eigen = primitive_part(tuple(row[0] + row[1] for row in Minv))
    mono = (mat_mul(mat_mul(transpose(M), FOCUS_FOCUS), transpose(Minv))
            if len(M) == 2 else None)
    return Singularity(trade, chart, pos, eigen, mono)


def detect_interactions(poly, trades):
    """Pairs of traded codim-2 faces whose closures intersect (nD).
    2D bases report nothing: distinct vertices never meet."""
    if poly.dimension == 2:
        return ()
    out = []
    for ai in range(len(trades)):
        for bi in range(ai + 1, len(trades)):
            faces = set(trades[ai].target) | set(trades[bi].target)
            eqs = [_facet(poly, fid) for fid in faces]
            ineqs = [f for i, f in enumerate(poly.facets) if i not in faces]
            if feasible(eqs, ineqs):
                out.append((ai, bi))
    return tuple(out)


def apply_trades(poly, trades):
    sings = tuple(_trade_singularity(poly, tr) for tr in trades)
    targets = [tr.target for tr in trades]
    # an nD face is a pair of facets, whichever order names it
    if len({t if poly.dimension == 2 else frozenset(t) for t in targets}) != len(targets):
        raise AlmostToricError("trade targets must be distinct")
    if poly.dimension > 2:
        return AlmostToricBase(poly, sings, detect_interactions(poly, trades))
    # closed triangles that touch overlap
    triangles = [_chart_halfplanes(sing) for sing in sings]
    for i in range(len(sings)):
        for j in range(i + 1, len(sings)):
            if feasible((), triangles[i] + triangles[j]):
                raise AlmostToricError(
                    "overlapping trade neighborhoods: trades %d and %d" % (i, j))
    return AlmostToricBase(poly, sings, ())


def transport_matrix(sing):
    """Boundary-edge transport across the cut, rebuilt from the
    recorded character-lattice monodromy.

    recorded = M^T F M^{-T}, so F = M^{-T} recorded M^T and the edge
    transport in polygon coordinates is M^{-1} F M."""
    M, _p = sing.chart
    Minv = unimodular_inverse(M)
    F = mat_mul(mat_mul(transpose(Minv), sing.monodromy), transpose(M))
    return mat_mul(mat_mul(Minv, F), M)


def smoothness_check(base):
    """Per trade: does the recorded monodromy carry one boundary edge
    of the traded corner across the cut onto the other?

    The check rebuilds the transport from the recorded matrix rather
    than from F directly, so a corrupted monodromy fails it."""
    if base.polytope.dimension != 2:
        raise AlmostToricError("smoothness check is 2D only")
    results = []
    for sing in base.singularities:
        lo, hi = _corner_basis(base.polytope, sing.trade.target)
        results.append(mat_vec(transport_matrix(sing), hi) == lo)
    return results


def _eigen_equation(sing):
    """normal . x = rhs for the eigenline (2D) or eigenhyperplane (nD)
    through the singular locus."""
    if len(sing.position) == 2:
        nrm = circle_class(sing.eigen)
    else:
        M, _p = sing.chart
        nrm = vec_sub(M[0], M[1])
    rhs = sum(a * x for a, x in zip(nrm, sing.position))
    return nrm, rhs


def common_basepoint(base):
    """A rational point on every eigenline / eigenhyperplane.

    Unique solutions come back as (q, None).  Positive-dimensional
    solution sets come back as (q, subspace) where q is the orthogonal
    projection of the singularity centroid onto the solution set (a
    canonical choice that lands near the action, unlike a raw
    free-variable assignment).  Raises InfeasibleBase otherwise."""
    sings = base.singularities
    if not sings:
        raise AlmostToricError("no trades, no eigenloci")
    eqs = [_eigen_equation(s) for s in sings]
    A = [list(n) for n, _ in eqs]
    b = [r for _, r in eqs]
    sol = solve_rational(A, b)
    if sol is None:
        for i in range(len(eqs)):
            for j in range(i + 1, len(eqs)):
                if solve_rational([A[i], A[j]], [b[i], b[j]]) is None:
                    raise InfeasibleBase("eigenloci of trades %d and %d never meet"
                                         % (i, j))
        raise InfeasibleBase("eigenloci have no common point")
    if not sol.basis:
        return sol.point, None
    # the projection q solves A q = b and v . q = v . centroid for every
    # v in the basis; the rows of A span the basis' orthogonal complement
    centroid = [sum(s.position[i] for s in sings) / len(sings)
                for i in range(len(sol.point))]
    q = solve_rational(A + [list(v) for v in sol.basis],
                       b + [sum(a * x for a, x in zip(v, centroid)) for v in sol.basis])
    return q.point, sol


def skeleton_from_base(base, q):
    """Skeleton of the traded base seen from the basepoint q.

    One handle per trade: the character is the eigen direction pointing
    from q toward the singular locus (the base projection of the disk),
    signed by chart row 0, which pairs to 1 with the eigen direction and
    to 0 with the flat directions of the locus; the disk cocharacter is
    a primitive normal of the eigenlocus through q.  In 2D the circle
    class of the disk boundary is the 90-degree rotation of the
    character, i.e. the chart image of (1,-1) up to sign."""
    handles = []
    for idx, sing in enumerate(base.singularities):
        nrm, rhs = _eigen_equation(sing)
        if sum(a * x for a, x in zip(nrm, q)) != rhs:
            raise AlmostToricError("basepoint misses the eigenlocus of trade %d" % idx)
        M, _p = sing.chart
        comp = sum(a * x for a, x in zip(M[0], vec_sub(sing.position, q)))
        if comp == 0:
            raise AlmostToricError("basepoint sits on the singular locus of trade %d" % idx)
        psi = sing.eigen if comp > 0 else vec_neg(sing.eigen)
        handles.append(Handle(psi, primitive_part(nrm), 1))
    return Skeleton(base.polytope.dimension, tuple(handles))


def base_viewport(base):
    """The bounding box of the vertices and singularities, one unit wider
    on every side."""
    pts = list(base.polytope.vertices) + [s.position for s in base.singularities]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return (min(xs) - 1, min(ys) - 1, max(xs) + 1, max(ys) + 1)


def render_svg(base, q=None):
    """Boundary, singularities, cuts; if q is given, the skeleton
    projection (blue disk segments from q) is overlaid."""
    if base.polytope.dimension != 2:
        raise AlmostToricError("rendering is 2D only")
    cv = SvgCanvas(*base_viewport(base))
    cv.grid()
    poly = base.polytope
    vs = list(poly.vertices)
    if poly.rays:
        for origin, ray in zip((vs[0], vs[-1]), poly.rays):
            segment = cv.clip_ray(origin, ray)
            if segment:
                cv.line(*segment, stroke="black", width=2)
        if len(vs) > 1:
            cv.polyline(vs)
    else:
        cv.polyline(vs + [vs[0]])
    for sing in base.singularities:
        vertex = poly.vertices[sing.trade.target]
        cv.line(sing.position, vertex, stroke="black", width=2, dash="6,4")
    if q is not None:
        for sing in base.singularities:
            cv.line(q, sing.position, stroke="blue", width=2)
        cv.circle(q, rpx=4, fill="blue")
    for sing in base.singularities:
        cv.cross(sing.position)
    return cv.document()


def polytope_from_json(doc):
    with malformed(AlmostToricError, "polytope"):
        dim = as_int(doc["dimension"])
        if dim == 2:
            return MomentPolytope(2, tuple(rationals(v, 2) for v in doc["vertices"]),
                                  tuple(ints(r, 2) for r in doc.get("rays") or ()), ())
        facets = doc["facets"] if dim > 2 else ()   # MomentPolytope rejects dim < 2
        return MomentPolytope(dim, (), (), tuple(
            (ints(f["normal"], dim), as_rational(f["rhs"])) for f in facets))


def trades_from_json(doc):
    out = []
    with malformed(AlmostToricError, "trade"):
        for tr in doc["trades"]:
            target = tr["target"]
            target = ints(target) if isinstance(target, list) else as_int(target)
            chart = tr.get("chart")
            if chart is not None:
                chart = (tuple(ints(row) for row in chart["matrix"]),
                         rationals(chart["translation"]))
            out.append(NodalTrade(target, chart, as_rational(tr.get("t", 1))))
    return tuple(out)


def base_to_json(base):
    return {
        "dimension": base.polytope.dimension,
        "singularities": [
            {
                "position": rational_strings(s.position),
                "eigen": list(s.eigen),
                "monodromy": [list(row) for row in s.monodromy] if s.monodromy else None,
            }
            for s in base.singularities
        ],
        "interactions": [list(p) for p in base.interactions],
    }
