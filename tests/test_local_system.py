import json
import random
from fractions import Fraction
from math import floor, gcd
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clustermirror.lattice import bezout_complete, det, identity, mat_inv, mat_mul
from clustermirror.local_system import (LocalSystem, LocalSystemError, NotMutable,
                                        SIGN_TWIST, _transition_text,
                                        canonical_transversal,
                                        chart_transition, holonomy_around,
                                        mutate_local_system, mutate_symbolic)
from clustermirror.seed import Seed
from clustermirror.verify import coherence_law_holds, _random_commuting_pair, random_primitive

FIXTURES = Path(__file__).parent / "fixtures"
A2 = Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 1))
x1, x2 = sp.symbols("x1 x2")


def _mutable(ls, s):
    """det(I - E_s) != 0: the holonomy around s has no eigenvalue 1."""
    E = holonomy_around(ls, s)
    return det([[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(E)]) != 0


def test_holonomy_around():
    ls = LocalSystem([((2,),), ((3,),)])
    assert holonomy_around(ls, (1, 1)) == ((Fraction(6),),)
    assert holonomy_around(ls, (0, 0)) == ((Fraction(1),),)
    diag = LocalSystem([((2, 0), (0, 3)), ((5, 0), (0, 7))])
    assert holonomy_around(diag, (2, 1)) == ((Fraction(20), Fraction(0)),
                                             (Fraction(0), Fraction(63)))
    assert holonomy_around(diag, (-1, 0)) == ((Fraction(1, 2), Fraction(0)),
                                              (Fraction(0), Fraction(1, 3)))


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _square_matrices(rank):
    row = st.tuples(*[small_fractions] * rank)
    return st.tuples(*[row] * rank)


def _repeated_product(pairs, rank):
    """The product of the (A, e) pairs by |e| Fraction multiplications each."""
    out = identity(rank)
    for A, e in pairs:
        base = mat_inv(A) if e < 0 else A
        for _ in range(abs(e)):
            out = mat_mul(out, base)
    return out


def _types(M):
    return [type(x) for row in M for x in row]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]).flatmap(_square_matrices), st.integers(-40, 40))
def test_one_loop_holonomy_matches_repeated_multiplication(A, e):
    assume(det(A) != 0)
    expect = _repeated_product(((A, e),), len(A))
    got = holonomy_around(LocalSystem([A]), (e,))
    assert got == expect
    # the plain int identity at e = 0, Fractions otherwise
    assert _types(got) == _types(expect)


@st.composite
def commuting_holonomies(draw):
    """2 or 3 commuting invertible rank-2 matrices: P D P^-1 with diagonal
    D, or upper triangular Jordan-type blocks ((a, b), (0, a))."""
    loops = draw(st.integers(2, 3))
    nonzero = small_fractions.filter(bool)
    if draw(st.booleans()):
        P = draw(_square_matrices(2))
        assume(det(P) != 0)
        Pinv = mat_inv(P)
        return [mat_mul(mat_mul(P, ((draw(nonzero), 0), (0, draw(nonzero)))), Pinv)
                for _ in range(loops)]
    out = []
    for _ in range(loops):
        a = draw(nonzero)
        out.append(((a, draw(small_fractions)), (Fraction(0), a)))
    return out


@settings(max_examples=100, deadline=None)
@given(commuting_holonomies(), st.lists(st.integers(-9, 9).filter(bool),
                                        min_size=3, max_size=3))
def test_mixed_sign_holonomy_matches_repeated_multiplication(hol, exps):
    c = tuple(exps[:len(hol)])
    assume(min(c) < 0 < max(c))
    ls = LocalSystem(hol)
    expect = _repeated_product(zip(ls.holonomies, c), 2)
    got = holonomy_around(ls, c)
    assert got == expect
    assert _types(got) == _types(expect)


def test_is_mutable():
    assert _mutable(LocalSystem([((2,),), ((5,),)]), (1, 0))
    withone = LocalSystem([((1, 0), (0, 2)), ((3, 0), (0, 4))])
    for ls in (LocalSystem([((1,),), ((5,),)]), withone):
        assert not _mutable(ls, (1, 0))
        with pytest.raises(NotMutable):
            mutate_local_system(ls, (1, 0))


def test_canonical_transversal():
    assert canonical_transversal((1, 0)) == (0, 1)
    assert canonical_transversal((0, 1)) == (-1, 0)
    for s in ((1, 1), (2, 1), (3, -2), (-1, 4)):
        t = canonical_transversal(s)
        assert t[0] * s[1] - t[1] * s[0] == -1


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)))
@example((1, 1))            # t0.s / |s|^2 + 1/2 lands on an integer
@example((-1, 1))
@example((3, -1))
def test_canonical_transversal_matches_fraction_rounding(s):
    # the Gram rounding floor(t0.s / |s|^2 + 1/2) taken over Q
    assume(gcd(*s) == 1)
    a, b = s
    t0 = tuple(row[1] for row in bezout_complete(s))
    lam = floor(Fraction(t0[0] * a + t0[1] * b, a * a + b * b) + Fraction(1, 2))
    assert canonical_transversal(s) == (t0[0] - lam * a, t0[1] - lam * b)


def test_mutation_adapted_fixture():
    ls = LocalSystem([((2,),), ((3,),)])
    out, adapted = mutate_local_system(ls, (1, 0))
    # adapted pair is (a, (1-a) b)
    assert adapted == (((Fraction(2),),), ((Fraction(-3),),))
    assert out.rank == 1


def test_mutation_rejects_eigenvalue_one():
    with pytest.raises(NotMutable):
        mutate_local_system(LocalSystem([((1,),), ((3,),)]), (1, 0))


def test_unaffected_loop_invariance():
    rng = random.Random(43)
    for _ in range(50):
        s = random_primitive(rng, 3)
        A, B = _random_commuting_pair(rng)
        ls = LocalSystem([A, B])
        if not _mutable(ls, s):
            continue
        out, _ = mutate_local_system(ls, s)
        assert holonomy_around(out, s) == holonomy_around(ls, s)


def test_outputs_commute_and_invert():
    rng = random.Random(47)
    for _ in range(30):
        A, B = _random_commuting_pair(rng)
        ls = LocalSystem([A, B])
        s = random_primitive(rng, 2)
        if not _mutable(ls, s):
            continue
        out, _ = mutate_local_system(ls, s)
        # rebuilt through the constructor, which checks both
        assert LocalSystem(out.holonomies) == out
        assert out.rank == ls.rank


@settings(max_examples=100, deadline=None)
@given(commuting_holonomies(), st.randoms(use_true_random=False))
def test_derived_records_pass_their_checks(hol, rng):
    # mutate_local_system builds its result unchecked; rebuilt through
    # the checking constructor, it passes and is equal
    ls, s = LocalSystem(hol[:2]), random_primitive(rng)
    assume(_mutable(ls, s))
    out, _ = mutate_local_system(ls, s)
    assert LocalSystem(out.holonomies) == out


def test_double_mutation_law_rank1():
    assert coherence_law_holds(LocalSystem([((2,),), ((3,),)]), (1, 0)) is True
    assert coherence_law_holds(LocalSystem([((5,),), ((Fraction(1, 2),),)]), (1, 1)) is True
    # holonomy 1 around s: the first mutation is undefined
    assert coherence_law_holds(LocalSystem([((1,),), ((5,),)]), (1, 0)) is None


def test_double_mutation_coherence_randomized():
    rng = random.Random(53)
    checked = 0
    while checked < 100:
        s = random_primitive(rng, 3)
        if checked % 2:
            A, B = _random_commuting_pair(rng)
            ls = LocalSystem([A, B])
        else:
            a = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            b = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            if a == 0 or b == 0:
                continue
            ls = LocalSystem([((a,),), ((b,),)])
        if not _mutable(ls, s):
            continue
        res = coherence_law_holds(ls, s)
        if res is None:
            continue
        assert res is True
        checked += 1


def test_symbolic_double_mutation_fixtures():
    # frozen first outputs of the symbolic engine: double mutation is
    # the tau_s pullback with the (-1)^<c,s> twist, never the identity
    cases = {
        (1, 0): (x1, -x2 / x1),
        (0, 1): (-x1 * x2, x2),
        (1, 1): (-x1 ** 2 * x2, -1 / x1),
        (2, 1): (-x1 ** 3 * x2, 1 / (x1 ** 4 * x2)),
        (3, -2): (x2 ** 4 / x1 ** 5, -x2 ** 7 / x1 ** 9),
    }
    for s, expect in cases.items():
        once, _ = mutate_symbolic((x1, x2), s)
        twice, _ = mutate_symbolic(once, (-s[0], -s[1]))
        for got, want in zip(twice, expect):
            assert sp.cancel(got - want) == 0


def test_symbolic_adapted_fixture():
    once, adapted = mutate_symbolic((x1, x2), (1, 0))
    assert sp.cancel(adapted[0] - x1) == 0
    assert sp.cancel(adapted[1] - (1 - x1) * x2) == 0


def test_symbolic_rejects_vanishing_factor():
    # E_s is identically 1, so 1 - E_s vanishes: (1, x2) around (1, 0),
    # and (x2, 1/x2) around (1, 1) once the product cancels
    for holonomies, s in (((1, x2), (1, 0)), ((x2, 1 / x2), (1, 1))):
        with pytest.raises(NotMutable):
            mutate_symbolic(holonomies, s)


def test_chart_transition_a2():
    fns = chart_transition(A2, 0)
    assert fns == ("-x1*x2/(x2 - 1)", "x2")
    assert sp.cancel(sp.sympify(fns[0]) - (-x1 * x2 / (x2 - 1))) == 0
    assert sp.sympify(fns[1]) == x2
    fns2 = chart_transition(A2, 1)
    # handle 2 has circle class (-1, 0); frozen output
    assert fns2 == ("x1", "x2/(x1 - 1)")
    assert sp.cancel(sp.sympify(fns2[0]) - x1) == 0
    assert sp.cancel(sp.sympify(fns2[1]) - x2 / (x1 - 1)) == 0


def test_chart_transition_frozen_table():
    # str(cancel(...)) of the symbolic mutation, frozen for every primitive
    # s with |s_i| <= 6
    rows = json.loads((FIXTURES / "chart_transitions.json").read_text())
    assert len(rows) == 96
    for row in rows:
        s = tuple(row["s"])
        assert [_transition_text(c, s) for c in ((1, 0), (0, 1))] == row["functions"], s


@pytest.mark.parametrize("s", [(1, 0), (0, -1), (2, 1), (-1, 3), (3, -5),
                               (-4, -7), (5, 2), (1, -9)])
def test_chart_transition_matches_symbolic_mutation(s):
    once, _ = mutate_symbolic((x1, x2), s)
    for c, want in zip(((1, 0), (0, 1)), once):
        assert sp.cancel(sp.sympify(_transition_text(c, s)) - want) == 0


def test_chart_transition_errors():
    z = Seed(2, 2, ((1, 0), (0, 1)), ((0, 0), (0, 0)), (1, 1))
    with pytest.raises(Exception):
        chart_transition(z, 0)
    bad_d = Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (2, 1))
    with pytest.raises(LocalSystemError):
        chart_transition(bad_d, 0)


def test_sign_twist_constant():
    assert SIGN_TWIST == -1
