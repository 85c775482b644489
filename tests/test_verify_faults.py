"""Each verify suite catches a fault planted in the code it checks.

A suite that passes whatever the code does checks nothing, so each one
is run against a deliberately broken copy of one function or constant,
patched where the suite's code looks it up, and must report failures.
"""

import random

import pytest

from clustermirror import almost_toric, seed, skeleton, verify
from clustermirror.lattice import transpose

CASES = 50
ORIGINAL_COLUMN = seed._column
ORIGINAL_MONODROMY = verify.monodromy_matrix
ORIGINAL_TRANSPORT = almost_toric.transport_matrix
ORIGINAL_CORNER_BASIS = almost_toric._corner_basis


def _column_d0(psi, B, d, k):
    # reads d[0] for every d[k]
    return ORIGINAL_COLUMN(psi, B, d[:1] * len(d), k)


def _mutated_psi_opposite_sign(psi, B, d, k):
    # psi'_i = psi_i + [-eps_ik]_+ psi_k: mutation gives the matrix rule's
    # eps and eps returns after two steps, so only the check that double
    # mutation is the transvection by eps sees it (it is the one by -eps)
    pk = psi[k]
    new_psi = [tuple(a - c * b for a, b in zip(p, pk)) if c < 0 else p
               for p, c in zip(psi, ORIGINAL_COLUMN(psi, B, d, k))]
    new_psi[k] = tuple(-a for a in pk)
    return tuple(new_psi)


def _dehn_twist_flipped(c, about):
    m = skeleton.intersection_number(c, about)
    return (c[0] - m * about[0], c[1] - m * about[1])


def _monodromy_diagonal_swapped(psi):
    (a, b), (c, e) = ORIGINAL_MONODROMY(psi)
    return ((e, b), (c, a))


def _transport_transposed(sing):
    return transpose(ORIGINAL_TRANSPORT(sing))


def _corner_basis_reversed(poly, i):
    # the <lo, hi> = -1 order at every corner, which the smoothness
    # check alone does not see
    lo, hi = ORIGINAL_CORNER_BASIS(poly, i)
    return hi, lo


FAULTS = [
    ("epsilon", seed, "_column", _column_d0),
    ("epsilon", seed, "_mutated_psi", _mutated_psi_opposite_sign),
    ("dictionary", skeleton, "dehn_twist", _dehn_twist_flipped),
    ("duality", verify, "monodromy_matrix", _monodromy_diagonal_swapped),
    ("smoothness", almost_toric, "transport_matrix", _transport_transposed),
    ("smoothness", almost_toric, "_corner_basis", _corner_basis_reversed),
    ("coherence", verify, "SIGN_TWIST", 1),
]


def _run(suite):
    return verify.SUITES[suite](random.Random(1), CASES)


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite_passes_on_the_code_as_it_is(suite):
    report = _run(suite)
    assert report["passed"] is True and report["failures"] == []


@pytest.mark.parametrize("suite, module, name, fault", FAULTS,
                         ids=["%s-%s" % (f[0], f[2]) for f in FAULTS])
def test_suite_catches_planted_fault(monkeypatch, suite, module, name, fault):
    monkeypatch.setattr(module, name, fault)
    report = _run(suite)
    assert report["passed"] is False
    assert report["failures"]
