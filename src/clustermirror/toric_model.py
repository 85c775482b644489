"""Toric model attached to a seed: stacky fan of rays, blowup
characters, blowup loci, and symbolic local presentations.

The model is recorded combinatorially.  Rays are the unfrozen (psi, d)
pairs, the character chi_i = psi_i^T B pairs to zero against psi_i
automatically (B is skew), the blowup locus is the subtorus
{chi_i = -1} in the boundary divisor of ray i, and the local chart is
presented by the relation x x' = y^chi + 1.  No ring or ideal
computation happens here: the loci and presentations are strings that
`seed model` prints.  Both records are namedtuples, equal as tuples.
"""

from collections import namedtuple

StackyFan1D = namedtuple("StackyFan1D", "n rays")     # rays: pairs (psi, d)
ToricModel = namedtuple("ToricModel", "fan chi loci presentations")


def fan_from_seed(s):
    return StackyFan1D(s.n, tuple(zip(s.psi[:s.r], s.d[:s.r])))


def blowup_characters(s):
    """chi_i = psi_i^T B as a covector, one per unfrozen ray."""
    return [tuple(sum(s.psi[i][a] * s.B[a][b] for a in range(s.n)) for b in range(s.n))
            for i in range(s.r)]


def _monomial(chi):
    if all(c == 0 for c in chi):
        return "1"
    return "y^%s" % (str(tuple(chi)).replace(" ", ""),)


def local_presentation(chi, i):
    """Relation record for the chart at ray i with blowup character chi:
    x x' = y^chi + 1."""
    degenerate = all(c == 0 for c in chi)
    mono = _monomial(chi)
    relation = "x%d*x%d' = %s" % (i + 1, i + 1, "2" if degenerate else mono + " + 1")
    return {
        "vars": ["x%d" % (i + 1), "x%d'" % (i + 1), mono],
        "relation": relation,
        "degenerate": degenerate,
    }


def toric_model(s):
    fan = fan_from_seed(s)
    chi = tuple(blowup_characters(s))
    loci = tuple(
        "{chi_%d = -1} in D_%d, chi_%d = %s" % (i + 1, i + 1, i + 1, str(tuple(c)))
        for i, c in enumerate(chi)
    )
    pres = tuple(local_presentation(c, i) for i, c in enumerate(chi))
    return ToricModel(fan, chi, loci, pres)


def model_to_json(m):
    return {
        "rank": m.fan.n,
        "rays": [{"psi": list(p), "d": d} for p, d in m.fan.rays],
        "chi": [list(c) for c in m.chi],
        "loci": list(m.loci),
        "presentations": list(m.presentations),
    }
