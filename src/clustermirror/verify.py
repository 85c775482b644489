"""Randomized cross-module verification suites.

Each suite draws its corpus from one explicitly seeded PRNG and
returns a report dict; failures carry a serialized counterexample so a
run can be replayed.  The CLI `verify` subcommand is a thin wrapper
around run_suites.
"""

import random
from fractions import Fraction
from math import gcd

from .lattice import (bezout_complete, det, mat_inv, mat_mul, rational_strings,
                      transpose, unimodular_inverse)
from .seed import (Seed, exchange_matrix, matrix_mutation_oracle, mutate,
                   is_skew_symmetrizable, serialize_seed)
from .skeleton import disk_surgery, skeleton_from_seed, intersection_number, dehn_twist
from .syz_base import monodromy_matrix, base_from_fan, toggle_convention
from .toric_model import StackyFan1D
from .local_system import (SIGN_TWIST, LocalSystem, NotMutable, holonomy_around,
                           mutate_local_system)
from .almost_toric import (MomentPolytope, NodalTrade, apply_trades,
                           smoothness_check)

STANDARD_B = ((0, 1), (-1, 0))


def _random_unimodular(rng, n, steps):
    """Product of a few elementary transvections and signed swaps."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                M[i][k] += c * M[j][k]
        elif op == 1 and i != j:
            M[i], M[j] = M[j], M[i]
        elif op == 2:
            M[i] = [-x for x in M[i]]
    return tuple(tuple(row) for row in M)


def random_seed_corpus(rng):
    """One random skew-symmetrizable seed of rank 2 to 6 with exchange
    entries of absolute value at most 4."""
    while True:
        n = rng.randrange(2, 7)
        r = rng.randrange(1, n + 1)
        B = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                B[i][j] = rng.randrange(-2, 3)
                B[j][i] = -B[i][j]
        d = tuple(rng.randrange(1, 4) for _ in range(n))
        psi = transpose(_random_unimodular(rng, n, steps=3))
        s = Seed(n, r, psi, tuple(tuple(row) for row in B), d)
        eps = exchange_matrix(s).eps
        if all(abs(x) <= 4 for row in eps for x in row):
            return s


def random_2d_standard_seed(rng):
    """Random rank-2 skew-symmetric seed in the standard orientation.

    The circle-class dictionary <s_j, s_k> = eps_jk needs the skew form
    psi^T B psi' = det[psi psi'], i.e. B equal to the standard
    positively-oriented symplectic matrix with all d = 1; the psi basis
    is free."""
    return Seed(2, 2, transpose(_random_unimodular(rng, 2, steps=5)), STANDARD_B, (1, 1))


def random_primitive(rng, bound=9):
    while True:
        a = rng.randrange(-bound, bound + 1)
        b = rng.randrange(-bound, bound + 1)
        if (a, b) != (0, 0) and gcd(a, b) == 1:
            return (a, b)


def suite_epsilon(rng, cases=1000):
    """mutate vs the direct matrix-mutation rule, plus the
    double-mutation transvection."""
    failures = []
    for _ in range(cases):
        s = random_seed_corpus(rng)
        eps = exchange_matrix(s)
        k = rng.randrange(s.r)
        m1 = mutate(s, k)
        got = exchange_matrix(m1)
        want = matrix_mutation_oracle(eps, k)
        ok = got.eps == want.eps and is_skew_symmetrizable(got, s.d)
        m2 = mutate(m1, k)
        if exchange_matrix(m2).eps != eps.eps:
            ok = False
        for i in range(s.n):
            expect = (tuple(s.psi[i][a] + eps.eps[i][k] * s.psi[k][a] for a in range(s.n))
                      if i != k else s.psi[k])
            if m2.psi[i] != expect:
                ok = False
        if not ok:
            failures.append({"seed": serialize_seed(s), "k": k})
    return _report("epsilon", cases, failures)


def suite_dictionary(rng, cases=500):
    """disk_surgery after skeleton_from_seed vs skeleton_from_seed
    after mutate, on random standard rank-2 seeds."""
    failures = []
    for _ in range(cases):
        s = random_2d_standard_seed(rng)
        for k in range(s.r):
            left = disk_surgery(skeleton_from_seed(s), k)
            right = skeleton_from_seed(mutate(s, k))
            if left != right:
                failures.append({"seed": serialize_seed(s), "k": k})
    return _report("dictionary", cases, failures)


def suite_duality(rng, cases=100):
    """Recorded trade monodromy (chart conjugation of the focus-focus
    matrix) vs the transpose of the B-side quadratic formula, per
    primitive direction; also routed through toggle_convention."""
    failures = []
    quadrant = MomentPolytope(2, ((Fraction(0), Fraction(0)),), ((0, 1), (1, 0)), ())
    shear = ((1, 0), (1, 1))    # sends e1 to (1,1)
    for _ in range(cases):
        psi = random_primitive(rng)
        A = bezout_complete(psi)
        M = mat_mul(shear, unimodular_inverse(A))
        base = apply_trades(quadrant, (NodalTrade(0, (M, (Fraction(0), Fraction(0)))),))
        recorded = base.singularities[0].monodromy
        b_side = monodromy_matrix(psi)
        fan = StackyFan1D(2, ((psi, 1),))
        toggled = toggle_convention(base_from_fan(fan))
        ok = (base.singularities[0].eigen in (psi, tuple(-x for x in psi))
              and recorded == transpose(b_side)
              and toggled.singularities[0].monodromy == recorded)
        if not ok:
            failures.append({"psi": list(psi), "recorded": [list(r) for r in recorded]})
    return _report("duality", cases, failures)


def suite_smoothness(rng, cases=200):
    """apply_trades on random unimodular corners of either orientation
    passes the smoothness check and puts the singularity at t (a + b)."""
    failures = []
    for _ in range(cases):
        a = random_primitive(rng, 5)
        # complete to <a, b> = 1, then swap to <a, b> = -1 on half the draws
        A = bezout_complete(a)
        b = (A[0][1], A[1][1])
        if rng.randrange(2):
            a, b = b, a
        poly = MomentPolytope(2, ((Fraction(0), Fraction(0)),), (a, b), ())
        t = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        base = apply_trades(poly, (NodalTrade(0, None, t),))
        if (smoothness_check(base) != [True]
                or base.singularities[0].position != (t * (a[0] + b[0]), t * (a[1] + b[1]))):
            failures.append({"rays": [list(a), list(b)], "t": str(t)})
    return _report("smoothness", cases, failures)


def _random_invertible_frac(rng):
    while True:
        M = tuple(tuple(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                        for _ in range(2)) for _ in range(2))
        if det(M) != 0:
            return M


def _random_commuting_pair(rng):
    P = _random_invertible_frac(rng)
    Pinv = mat_inv(P)
    def diag():
        return ((Fraction(rng.choice([-3, -2, -1, 2, 3, 5]), rng.choice([1, 2])), Fraction(0)),
                (Fraction(0), Fraction(rng.choice([-3, -2, -1, 2, 3, 5]), rng.choice([1, 2]))))
    A = mat_mul(mat_mul(P, diag()), Pinv)
    B = mat_mul(mat_mul(P, diag()), Pinv)
    return A, B


def coherence_law_holds(ls, s):
    """Double mutation equals the tau_s pullback twisted by the global
    sign: E''_c = SIGN_TWIST^<c,s> E_{tau_s(c)}.  None when either
    mutation is undefined."""
    try:
        once, _ = mutate_local_system(ls, s)
        twice, _ = mutate_local_system(once, (-s[0], -s[1]))
    except NotMutable:
        return None
    for j, c in enumerate(((1, 0), (0, 1))):
        m = intersection_number(c, s)
        want = holonomy_around(ls, dehn_twist(c, s))
        if SIGN_TWIST ** (m % 2) == -1:
            want = tuple(tuple(-x for x in row) for row in want)
        if twice.holonomies[j] != want:
            return False
    return True


def suite_coherence(rng, cases=100):
    failures = []
    done = 0
    while done < cases:
        s = random_primitive(rng, 3)
        if done % 2 == 0:
            a = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            b = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            if a == 0 or b == 0:
                continue
            ls = LocalSystem([((a,),), ((b,),)])
        else:
            A, B = _random_commuting_pair(rng)
            ls = LocalSystem([A, B])
        res = coherence_law_holds(ls, s)
        if res is None:
            continue
        done += 1
        if res is False:
            failures.append({"s": list(s),
                             "holonomies": [[rational_strings(row) for row in A]
                                            for A in ls.holonomies]})
    return _report("coherence", cases, failures)


def _report(name, cases, failures):
    return {"suite": name, "cases": cases, "passed": not failures,
            "failures": failures[:10]}


SUITES = {
    "epsilon": suite_epsilon,
    "dictionary": suite_dictionary,
    "duality": suite_duality,
    "smoothness": suite_smoothness,
    "coherence": suite_coherence,
}


def run_suites(names, prng_seed, cases=None):
    if cases is not None and cases < 1:
        raise ValueError("cases must be at least 1, got %d" % cases)
    rng = random.Random(prng_seed)
    reports = []
    for name in names:
        fn = SUITES[name]
        reports.append(fn(rng) if cases is None else fn(rng, cases))
    return reports
