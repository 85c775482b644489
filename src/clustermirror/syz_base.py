"""Integral-affine SYZ bases for rank-2 fans: singular points with
unipotent monodromy, branch cuts, and the character/cocharacter
convention toggle.

For a primitive direction psi = (a, b) the monodromy around the
singularity placed on the ray through psi is

    M(psi) = [[1 + a b, -a^2], [b^2, 1 - a b]],

a unipotent matrix fixing psi.  Equivalently M(psi) = I + psi (J psi)^T
with J psi = (b, -a), so M(-psi) = M(psi) and conjugating by any
A in SL(2,Z) transports M along A psi.

Loop orientation is fixed counterclockwise once and for all.  With that
choice

    A . [[1,1],[0,1]]^sigma . A^{-1} = M(psi),  sigma = -1,

for any A in SL(2,Z) with A e1 = psi, such as lattice.bezout_complete(psi);
the sign sigma is a single global constant (CONJUGATION_SIGN below) and
tests assert it never varies.  Both records are namedtuples, equal as
tuples.
"""

from collections import namedtuple
from fractions import Fraction

from .lattice import content, rational_strings, transpose
from .svg import SvgCanvas

CONJUGATION_SIGN = -1

VIEWPORT = (-3, -3, 3, 3)

CHARACTER = "character"
COCHARACTER = "cocharacter"


# A rational point, a primitive integer eigen direction and the monodromy;
# the branch cut runs from position along +direction.
AffineSingularity2D = namedtuple("AffineSingularity2D", "position direction monodromy")
IntegralAffineBase2D = namedtuple("IntegralAffineBase2D", "singularities convention")


def monodromy_matrix(psi):
    if len(psi) != 2:
        raise ValueError("monodromy is a 2x2 construction")
    if content(psi) != 1:
        raise ValueError("monodromy direction must be primitive")
    a, b = psi
    return ((1 + a * b, -a * a), (b * b, 1 - a * b))


def base_from_fan(fan, radii=None):
    """One singularity per ray, at radius * psi, cut along +psi.

    The fan must have rank 2 and primitive ray generators (a seed with
    unimodular psi basis always produces primitive rays).  Radii
    default to 1.
    """
    if fan.n != 2:
        raise ValueError("SYZ base construction is rank-2 only")
    if radii is None:
        radii = [Fraction(1)] * len(fan.rays)
    if len(radii) != len(fan.rays):
        raise ValueError("need one radius per ray")
    sings = []
    for (psi, _d), rad in zip(fan.rays, radii):
        rad = Fraction(rad)
        if rad <= 0:
            raise ValueError("radius must be positive")
        pos = (rad * psi[0], rad * psi[1])
        sings.append(AffineSingularity2D(pos, psi, monodromy_matrix(psi)))
    return IntegralAffineBase2D(tuple(sings), CHARACTER)


def toggle_convention(base):
    """Transpose every monodromy and flip the convention flag."""
    flipped = CHARACTER if base.convention == COCHARACTER else COCHARACTER
    sings = tuple(
        AffineSingularity2D(s.position, s.direction, transpose(s.monodromy))
        for s in base.singularities)
    return IntegralAffineBase2D(sings, flipped)


def base_to_json(base):
    return {
        "convention": base.convention,
        "singularities": [
            {
                "position": rational_strings(s.position),
                "direction": list(s.direction),
                "monodromy": [list(row) for row in s.monodromy],
                "cut": {"origin": rational_strings(s.position),
                        "direction": list(s.direction)},
            }
            for s in base.singularities
        ],
    }


def render_svg(base, viewport=VIEWPORT):
    """Draw the base: grid, fan rays from the origin, branch cuts as
    dashed rays, singularities as red crosses."""
    cv = SvgCanvas(*viewport)
    cv.grid()
    for s in base.singularities:
        seg = cv.clip_ray((0, 0), s.direction)
        if seg:
            cv.line(seg[0], seg[1], stroke="#888888", width=1)
    for s in base.singularities:
        seg = cv.clip_ray(s.position, s.direction)
        if seg:
            cv.line(seg[0], seg[1], stroke="black", width=2, dash="6,4")
    for s in base.singularities:
        cv.cross(s.position)
    cv.circle((0, 0), rpx=3, fill="#444444")
    return cv.document()
