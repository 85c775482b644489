"""Local systems on the 2-torus and their mutation across a disk
surgery.

A LocalSystem is a collection of commuting invertible matrices over Q,
one per standard torus loop.  Mutation at a handle with circle class s
is defined iff the holonomy around s has no eigenvalue 1, checked
exactly as det(I - E_s) != 0.

Conventions (the statement fixes neither, the coherence test pins
both):

  * crossing the surgered circle against its coorientation inserts the
    factor (I - E_s) by left multiplication;
  * loop classes on the old and new torus are identified by the Dehn
    twist tau_s(c) = c + <c, s> s.

Concretely, for a loop class c the mutated holonomy is

    E'_c = (I - E_s)^(-<c,s>) . E_{tau_s(c)}.

The adapted basis of the theorem is gamma_1 = s (holonomy unchanged)
and gamma_2 = t with <t, s> = -1 (holonomy (I - E_s) E_t).

Mutating twice at the same handle (second pass at the flipped class
-s) is not the identity: it returns the pullback of the original
system along the single transvection tau_s, twisted by a global sign,

    E''_c = SIGN_TWIST^(<c,s>) . E_{tau_s(c)},   SIGN_TWIST = -1.

This mirrors the seed level, where double mutation is the transvection
psi''_i = psi_i + eps_ik psi_k rather than the identity.  The sign
twist is the one global constant of the convention; tests fix it on a
single instance and then assert it across randomized rank-1 and rank-2
systems.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .lattice import (Validated, as_int, bezout_complete, content, det, identity,
                      malformed, mat_inv, mat_mul, rationals, rational_strings, vec_sub)
from .skeleton import circle_class, dehn_twist, intersection_number, skeleton_from_seed

SIGN_TWIST = -1


class LocalSystemError(ValueError):
    pass


class NotMutable(LocalSystemError):
    exit_code = 3    # infeasible request: cli.main exits with this code

    def __init__(self, s):
        super().__init__("holonomy around %r has eigenvalue 1 (det(I - E_s) = 0)" % (s,))


def _over_z(A):
    """(N, q) with N an integer matrix and q > 0 the lcm of A's
    denominators, so that A == N / q."""
    q = lcm(*(x.denominator for row in A for x in row))
    return tuple(tuple(x.numerator * (q // x.denominator) for x in row) for row in A), q


class LocalSystem(Validated, namedtuple("LocalSystem", "holonomies")):
    """One rank x rank matrix over Q per torus loop, given as rows of ints
    or Fractions and stored as tuples of Fractions; every LocalSystem read
    from a document or built by a caller is normalized and checked, while
    mutate_local_system derives its result unchecked.  Equality is tuple
    equality."""
    __slots__ = ()

    @property
    def n(self):
        return len(self.holonomies)

    @property
    def rank(self):
        return len(self.holonomies[0]) if self.holonomies else 0

    def __new__(cls, holonomies):
        holonomies = tuple(tuple(tuple(Fraction(x) for x in row) for row in A)
                           for A in holonomies)
        s = tuple.__new__(cls, (holonomies,))
        rank = s.rank
        for A in holonomies:
            if len(A) != rank or any(len(row) != rank for row in A):
                raise LocalSystemError("holonomy has wrong shape")
        # A = N / q is invertible iff N is, and N / q, M / p commute iff
        # N, M do: both checks run over Z
        scaled = [_over_z(A)[0] for A in holonomies]
        for N in scaled:
            if det(N) == 0:
                raise LocalSystemError("holonomies must be invertible")
        for i in range(s.n):
            for j in range(i + 1, s.n):
                if mat_mul(scaled[i], scaled[j]) != mat_mul(scaled[j], scaled[i]):
                    raise LocalSystemError("holonomies must commute")
        return s


def _power_product(pairs, n):
    """The product A_1^e_1 A_2^e_2 ... of the (A, e) pairs, n x n, over Z.

    Each A with e != 0 is inverted once if e < 0 and scaled once to N / q;
    N^|e| comes from square-and-multiply over ints and q^|e| joins one
    common denominator, so every output entry is one Fraction at the end.
    Returns the plain int identity when every e is 0."""
    num, den = None, 1
    for A, e in pairs:
        if e == 0:
            continue
        if e < 0:
            A, e = mat_inv(A), -e
        N, q = _over_z(A)
        den *= q ** e
        while True:
            if e & 1:
                num = N if num is None else mat_mul(num, N)
            e >>= 1
            if not e:
                break
            N = mat_mul(N, N)
    if num is None:
        return identity(n)
    return tuple(tuple(Fraction(x, den) for x in row) for row in num)


def holonomy_around(ls, c):
    """E_c = E_1^c_1 ... E_n^c_n: one power product over Z."""
    if len(c) != ls.n:
        raise LocalSystemError("loop class has wrong rank")
    return _power_product(zip(ls.holonomies, c), ls.rank)


def canonical_transversal(s):
    """The canonical class t with <t, s> = -1, reduced against s.

    Any two choices differ by a multiple of s; we take the one closest
    to the line s^perp (Gram rounding), which gives t = (0,1) for
    s = (1,0)."""
    a, b = s
    # bezout_complete(s) = [s t0] has det 1, so <t0, s> = -1
    t0 = tuple(row[1] for row in bezout_complete(s))
    # floor(t0.s / |s|^2 + 1/2), exact over Z since |s|^2 > 0
    norm = a * a + b * b
    lam = (2 * (t0[0] * a + t0[1] * b) + norm) // (2 * norm)
    return (t0[0] - lam * a, t0[1] - lam * b)


def mutate_local_system(ls, s):
    """Mutate across the handle with circle class s.

    Returns (new LocalSystem in the standard basis of the mutated
    torus, adapted pair (E_s, (I - E_s) E_t)).  Each new holonomy and
    (I - E_s) E_t is one power product over Z (_power_product) whose
    first factor is I - E_s, so only E_s goes through holonomy_around.

    The new LocalSystem is built unchecked, since its checks cannot fail:
    every new holonomy is a rank x rank product of integer powers of
    F = I - E_s and the E_i.  E_s is a product of the commuting E_i, so
    all these factors commute pairwise, and F is invertible once w != 0.
    """
    if ls.n != 2:
        raise LocalSystemError("mutation implemented on the 2-torus only")
    if content(s) != 1:
        raise LocalSystemError("circle class must be primitive")
    E_s = holonomy_around(ls, s)
    factor = tuple(map(vec_sub, identity(ls.rank), E_s))
    if det(factor) == 0:
        raise NotMutable(s)
    # E'_c = (I - E_s)^(-<c,s>) E_{tau_s(c)} on the standard loops
    new_hol = tuple(
        _power_product(((factor, -intersection_number(c, s)),)
                       + tuple(zip(ls.holonomies, dehn_twist(c, s))), ls.rank)
        for c in ((1, 0), (0, 1)))
    t = canonical_transversal(s)
    adapted = (E_s, _power_product(((factor, 1),) + tuple(zip(ls.holonomies, t)),
                                   ls.rank))
    return tuple.__new__(LocalSystem, (new_hol,)), adapted


def mutate_symbolic(holonomies, s):
    """Rank-1 symbolic version of mutate_local_system: holonomies are two
    nonzero sympy expressions, one per standard loop of the 2-torus.

    Returns (the two mutated holonomies, adapted pair of rational
    functions).  Raises NotMutable if 1 - E_s vanishes identically."""
    import sympy as sp
    if len(holonomies) != 2:
        raise LocalSystemError("mutation implemented on the 2-torus only")

    def around(c):
        out = sp.Integer(1)
        for h, e in zip(holonomies, c):
            out *= sp.Pow(h, e)
        return sp.cancel(out)
    E_s = around(s)
    factor = sp.cancel(1 - E_s)
    if factor == 0:
        raise NotMutable(s)
    # E'_c = (1 - E_s)^(-<c,s>) E_{tau_s(c)}, as in mutate_local_system
    new_hol = tuple(sp.cancel(factor ** -intersection_number(c, s) * around(dehn_twist(c, s)))
                    for c in ((1, 0), (0, 1)))
    return new_hol, (E_s, sp.cancel(factor * around(canonical_transversal(s))))


def _monomial(exps):
    return "*".join("x%d" % (i + 1) if a == 1 else "x%d**%d" % (i + 1, a)
                    for i, a in enumerate(exps) if a)


def _plus(v):
    return tuple(max(a, 0) for a in v)


def _binomial_terms(lo, hi, e, shift):
    """x^shift (x^lo - x^hi)^e expanded, as (coefficient, exponents) pairs in
    descending lex order of the exponents.  The coefficients come from the
    recurrence C(e, j+1) = C(e, j) (e - j) / (j + 1): one product per term."""
    terms, coef = [], 1
    for j in range(e + 1):
        terms.append((coef, tuple(f + (e - j) * a + j * b for f, a, b in zip(shift, lo, hi))))
        coef = -coef * (e - j) // (j + 1)
    return sorted(terms, key=lambda t: t[1], reverse=True)


def _sum_text(terms):
    parts = []
    for c, exps in terms:
        mono = _monomial(exps)
        coef = "" if abs(c) == 1 and mono else str(abs(c))
        parts.append(("- " if c < 0 else "+ ") + "*".join(filter(None, (coef, mono))))
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _transition_text(c, s):
    """x^tau_s(c) (1 - x^s)^(-<c,s>) as text, in the form sympy's
    str(cancel(...)) gives it.

    With e = -<c,s>, g = x^(s-) - x^(s+) and b = tau_s(c) - e s-, the
    function is x^b g^e: a numerator x^(b+) g^e over x^(b-) when e >= 0,
    and x^(b+) over x^(b-) g^|e| when e < 0.  Terms run in descending lex
    order; a denominator with a negative leading coefficient is negated
    and the sign moved to the front."""
    e = -intersection_number(c, s)
    lo, hi = _plus(-a for a in s), _plus(s)
    b = tuple(t - e * a for t, a in zip(dehn_twist(c, s), lo))
    bp, bm = _plus(b), _plus(-a for a in b)
    if e >= 0:
        num = _sum_text(_binomial_terms(lo, hi, e, bp))
        if not any(bm):
            return num
        den = _monomial(bm)
        return "(%s)/%s" % (num, "(%s)" % den if all(bm) else den)
    terms = _binomial_terms(lo, hi, -e, bm)
    sign = "-" if terms[0][0] < 0 else ""
    if sign:
        terms = [(-k, exps) for k, exps in terms]
    return "%s%s/(%s)" % (sign, _monomial(bp) or "1", _sum_text(terms))


def chart_transition(s_seed, k):
    """The birational torus map induced by mutation at handle k of a 2D
    skew-symmetric seed with circle class s: the standard chart
    x^c -> x^tau_s(c) (1 - x^s)^(-<c,s>) for c = (1,0), (0,1).

    Returns the two functions as text in x1, x2, computed in closed form
    and written with the bytes of sympy's str(cancel(...))."""
    if s_seed.n != 2:
        raise LocalSystemError("chart transitions are rank-2 only")
    if any(di != 1 for di in s_seed.d):
        raise LocalSystemError("chart transitions need skew-symmetric data (d = 1)")
    sk = skeleton_from_seed(s_seed)
    if not (0 <= k < len(sk.handles)):
        raise LocalSystemError("no such handle")
    s = circle_class(sk.handles[k].psi)
    return tuple(_transition_text(c, s) for c in ((1, 0), (0, 1)))


def serialize_local_system(ls):
    return {
        "rank": ls.rank,
        "loops": ls.n,
        "holonomies": [[rational_strings(row) for row in A] for A in ls.holonomies],
    }


def deserialize_local_system(doc):
    """The LocalSystem of a document.  Its optional "rank" and "loops"
    must equal the shape of its holonomies."""
    with malformed(LocalSystemError, "local system"):
        ls = LocalSystem([[rationals(row) for row in A] for A in doc["holonomies"]])
        for key, value in (("rank", ls.rank), ("loops", ls.n)):
            if key in doc and as_int(doc[key]) != value:
                raise ValueError("%s is %d but the holonomies give %d"
                                 % (key, doc[key], value))
        return ls
