"""The record contract: every record is an immutable namedtuple, and a
record that validates its fields does so however it is built.

Records compare as the tuples of their fields.  A namedtuple's
`_make`, and `_replace` through it, would build the tuple without
`__new__`; the validating records route both through the class.  Only
the derivations named in BYPASS_ALLOWED build a record with
`tuple.__new__`, which skips its checks (the rule is in
`lattice.Validated`).
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from clustermirror import cli
from clustermirror.almost_toric import (AlmostToricError, MomentPolytope, NodalTrade,
                                        apply_trades)
from clustermirror.lattice import solve_rational
from clustermirror.local_system import LocalSystem, LocalSystemError
from clustermirror.seed import ExchangeMatrix, Seed, SeedError, exchange_matrix
from clustermirror.skeleton import (Handle, Skeleton, SkeletonError, bondal_strata,
                                    skeleton_from_seed)
from clustermirror.syz_base import base_from_fan
from clustermirror.toric_model import toric_model

A2 = Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 1))
QUADRANT = MomentPolytope(2, ((Fraction(0), Fraction(0)),), ((0, 1), (1, 0)), ())
HALF = ((Fraction(1, 2),),)

# (record, its fields by name, fields that break it, the module's error)
VALIDATING = [
    (Seed, {"n": 2, "r": 2, "psi": ((1, 0), (0, 1)), "B": ((0, 1), (-1, 0)), "d": (1, 1)},
     {"B": ((0, 1), (1, 0))}, SeedError),
    (ExchangeMatrix, {"eps": ((0, 1), (-1, 0))}, {"eps": ((0, 1), (-1,))}, SeedError),
    (LocalSystem, {"holonomies": (HALF,)},
     {"holonomies": (((Fraction(0),),),)}, LocalSystemError),
    (MomentPolytope, {"dimension": 2, "vertices": QUADRANT.vertices, "rays": QUADRANT.rays,
                      "facets": ()}, {"rays": ()}, AlmostToricError),
    (NodalTrade, {"target": 0, "chart": None, "t": Fraction(1)}, {"t": Fraction(0)},
     AlmostToricError),
    (Skeleton, {"n": 2, "handles": (Handle((1, 0), (0, 1), 1),)},
     {"handles": (Handle((2, 0), (0, 1), 1),)}, SkeletonError),
]


@pytest.mark.parametrize("cls, fields, bad, error", VALIDATING,
                         ids=[case[0].__name__ for case in VALIDATING])
def test_bad_fields_raise_however_the_record_is_built(cls, fields, bad, error):
    good = cls(**fields)
    assert good._fields == tuple(fields)
    assert good == cls(*fields.values()) == cls._make(fields.values())
    assert good._replace() == good
    broken = dict(fields, **bad)
    with pytest.raises(error):
        cls(*broken.values())
    with pytest.raises(error):
        cls(**broken)
    with pytest.raises(error):
        cls._make(broken.values())
    with pytest.raises(error):
        good._replace(**bad)


def test_defaults_are_kept():
    assert NodalTrade(0) == NodalTrade(0, None, Fraction(1))
    facets = (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0))
    assert MomentPolytope(3, facets=facets) == MomentPolytope(3, (), (), facets)


def _every_record():
    """One instance of each of the package's records."""
    base = apply_trades(QUADRANT, (NodalTrade(0),))
    model = toric_model(A2)
    syz = base_from_fan(model.fan)
    sk = skeleton_from_seed(A2)
    return [A2, exchange_matrix(A2), LocalSystem([HALF]), QUADRANT, base.singularities[0].trade,
            base.singularities[0], base, model, model.fan, syz, syz.singularities[0], sk,
            sk.handles[0], bondal_strata(model.fan)[0], solve_rational(((1, 0), (0, 1)), (1, 2))]


def test_every_record_is_immutable_and_cannot_reach_an_output():
    records = _every_record()
    assert len({type(x) for x in records}) == 15
    for rec in records:
        name = type(rec).__name__
        assert repr(rec) == "%s(%s)" % (name, ", ".join(
            "%s=%r" % (f, getattr(rec, f)) for f in rec._fields))
        for f in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, f, None)
        with pytest.raises(AttributeError):
            rec.extra = None
        with pytest.raises(TypeError):
            cli._dump_json({"x": rec})


PACKAGE = Path(__file__).parent.parent / "src" / "clustermirror"
# (module, top-level function) of each derived record that skips its
# constructor; every check it skips computes a determinant
BYPASS_ALLOWED = {("seed", "mutate_sequence"), ("local_system", "mutate_local_system")}


def constructor_bypasses(tree):
    """(top-level name, line) of every tuple.__new__(X, ...) in a module
    whose first argument X is not the name cls."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "tuple"
                    and not (node.args and isinstance(node.args[0], ast.Name)
                             and node.args[0].id == "cls")):
                yield getattr(top, "name", None), node.lineno


def test_only_allowed_derivations_skip_their_constructor():
    found = [(path.stem, name, line) for path in sorted(PACKAGE.glob("*.py"))
             for name, line in constructor_bypasses(ast.parse(path.read_text(), str(path)))]
    assert {(module, name) for module, name, _ in found} == BYPASS_ALLOWED, found


def test_every_constructor_bypass_is_found():
    source = ("class R(tuple):\n    def __new__(cls, x):\n        return tuple.__new__(cls, x)\n"
              "def derive(r):\n    return tuple.__new__(R, r)\n"
              "def nested(r):\n    def inner():\n        return tuple.__new__(type(r), r)\n"
              "    return inner()\n"
              "BUILT = tuple.__new__(R, ())\n")
    assert list(constructor_bypasses(ast.parse(source))) == [("derive", 5), ("nested", 8),
                                                             (None, 10)]
