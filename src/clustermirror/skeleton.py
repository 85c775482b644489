"""Lagrangian skeleton data: a torus with cooriented disk handles,
Bondal strata of a fan, and disk surgery (the skeleton-level mutation).

A handle is (psi, chi, d): psi a primitive character cutting out the
subtorus the disk attaches along, with the coorientation carried by the
sign of psi; chi a primitive cocharacter orthogonal to psi giving the
disk direction; d a positive multiplier.

In rank 2 each handle determines a circle class s = R psi, with R the
90 degree rotation [[0,-1],[1,0]].  For a seed in the standard
orientation (psi^T B psi' = det[psi psi']) this makes the oriented
intersection numbers of the circle classes equal the exchange matrix,
<s_j, s_k> = eps_jk, which is what drives the surgery rule:

    s'_k = -s_k,
    s'_j = s_j + <s_j, s_k> s_k   if <s_j, s_k> > 0, else s_j.

The core test of the module is that this rule, pushed back through the
circle/character dictionary, equals skeleton_from_seed of the mutated
seed.  The records are namedtuples, equal as tuples.
"""

from collections import namedtuple

from .lattice import Validated, as_int, content, ints, malformed, primitive_part
from .toric_model import blowup_characters


class SkeletonError(ValueError):
    pass


Handle = namedtuple("Handle", "psi chi d")


class Skeleton(Validated, namedtuple("Skeleton", "n handles")):
    """A rank-n torus with the given Handles; every Skeleton built is
    checked.  Equality is tuple equality."""
    __slots__ = ()

    def __new__(cls, n, handles):
        if n < 2:
            raise SkeletonError("torus rank must be at least 2")
        for h in handles:
            if len(h.psi) != n or len(h.chi) != n:
                raise SkeletonError("handle data has wrong rank")
            if content(h.psi) != 1 or content(h.chi) != 1:
                raise SkeletonError("handle character and cocharacter must be primitive")
            if sum(a * b for a, b in zip(h.psi, h.chi)) != 0:
                raise SkeletonError("disk cocharacter must annihilate the handle character")
            if h.d < 1:
                raise SkeletonError("handle multiplier must be positive")
        return tuple.__new__(cls, (n, handles))


# cone: () for the zero cone, (i,) for ray i
BondalStratum = namedtuple("BondalStratum", "cone torus_dim components")


def skeleton_from_seed(s):
    """Handles (psi_i, primitive chi_i, d_i) over the unfrozen rays."""
    chis = blowup_characters(s)
    handles = []
    for i in range(s.r):
        if all(c == 0 for c in chis[i]):
            raise SkeletonError("disk direction undefined: chi vanishes at ray %d" % i)
        handles.append(Handle(s.psi[i], primitive_part(chis[i]), s.d[i]))
    return Skeleton(s.n, tuple(handles))


def bondal_strata(fan):
    strata = [BondalStratum((), fan.n, 1)]
    for i, (psi, d) in enumerate(fan.rays):
        # Z^n / <v> = Z^(n-1) + Z/content(v); a zero ray leaves Z^n free
        components = content(tuple(d * x for x in psi)) or 1
        strata.append(BondalStratum((i,), fan.n - 1, components))
    return strata


def intersection_number(a, b):
    if len(a) != 2 or len(b) != 2:
        raise SkeletonError("oriented intersection number is rank-2 only")
    return a[0] * b[1] - a[1] * b[0]


def dehn_twist(c, about):
    """Picard-Lefschetz transvection c + <c, about> about."""
    m = intersection_number(c, about)
    return (c[0] + m * about[0], c[1] + m * about[1])


def circle_class(psi):
    """s = R psi for the fixed 90 degree rotation R."""
    return (-psi[1], psi[0])


def character_of_circle(s):
    """Inverse of circle_class: psi = R^{-1} s."""
    return (s[1], -s[0])


def disk_surgery(sk, k):
    """Surgery on handle k: flip its coorientation, twist the handles
    meeting it positively.

    Rank 2 works directly on circle classes.  Higher rank reduces to the
    rank-2 model times a torus factor; we do not implement a separate
    formula there, callers should mutate the seed instead.  Multipliers
    larger than 1 are rejected: the surgery statement is quoted for
    skew-symmetric (all d = 1) data only.
    """
    if not (0 <= k < len(sk.handles)):
        raise SkeletonError("no such handle")
    if any(h.d != 1 for h in sk.handles):
        raise SkeletonError("surgery defined only for skew-symmetric data")
    if sk.n != 2:
        raise SkeletonError("direct surgery is rank-2 only; mutate the seed for higher rank")
    sk_classes = [circle_class(h.psi) for h in sk.handles]
    s_k = sk_classes[k]
    new_handles = []
    for j, h in enumerate(sk.handles):
        if j == k:
            new_s = (-s_k[0], -s_k[1])
        elif intersection_number(sk_classes[j], s_k) > 0:
            new_s = dehn_twist(sk_classes[j], s_k)
        else:
            new_s = sk_classes[j]
        # the disk cocharacter in rank 2 is determined up to sign by
        # orthogonality; keep the convention chi = R psi = s
        new_handles.append(Handle(character_of_circle(new_s), new_s, h.d))
    return Skeleton(sk.n, tuple(new_handles))


def skeleton_to_json(sk):
    return {
        "rank": sk.n,
        "handles": [
            {"psi": list(h.psi), "chi": list(h.chi), "d": h.d}
            for h in sk.handles
        ],
    }


def skeleton_from_json(doc):
    with malformed(SkeletonError, "skeleton"):
        handles = tuple(Handle(ints(h["psi"]), ints(h["chi"]), as_int(h["d"]))
                        for h in doc["handles"])
        return Skeleton(as_int(doc["rank"]), handles)
