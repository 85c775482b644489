"""Malformed input documents never crash the CLI.

Each case starts from a well-formed document (a fixture, or one built
from a fixture), damages a few of its nodes and feeds it to cli.main:
the answer must be an exit code, 0 to 3, never a traceback.  The
damage is to shapes and types only: nodes are replaced, deleted or
appended from a small fixed set of atoms.  Well-formed documents with
large numbers in them are a separate matter (time and memory that grow
with the integers), which this test does not try.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustermirror import cli

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


SKELETON = {"rank": 2, "handles": [{"psi": [1, 0], "chi": [0, 1], "d": 1},
                                   {"psi": [0, 1], "chi": [-1, 0], "d": 1}]}
LOCSYS_RANK1 = {"rank": 1, "loops": 2, "holonomies": [[["2"]], [["-1/3"]]]}
LOCSYS_RANK2 = {"rank": 2, "loops": 2,
                "holonomies": [[["2", "1"], ["0", "2"]], [["3", "3"], ["0", "3"]]]}

# (document, argv that reads it from DOC; the other inputs are fixtures)
CASES = {
    "seed-mutate": (_fixture("a2_seed.json"),
                    ["seed", "mutate", "--sequence", "1,2,1", "--seed", "DOC"]),
    "seed-graph": (_fixture("a2_seed.json"),
                   ["seed", "graph", "--depth", "2", "--seed", "DOC"]),
    "seed-model": (_fixture("a2_seed.json"), ["seed", "model", "--seed", "DOC"]),
    "base-syz": (_fixture("a2_seed.json"), ["base", "syz", "--seed", "DOC"]),
    "skeleton-build": (_fixture("a2_seed.json"), ["skeleton", "build", "--seed", "DOC"]),
    "skeleton-surgery": (SKELETON, ["skeleton", "surgery", "--handle", "1",
                                    "--skeleton", "DOC"]),
    "locsys-rank1": (LOCSYS_RANK1, ["locsys", "mutate", "--handle-class", "1,1",
                                    "--locsys", "DOC"]),
    "locsys-rank2": (LOCSYS_RANK2, ["locsys", "mutate", "--handle-class", "1,0",
                                    "--locsys", "DOC"]),
    "bl0c2-polytope": (_fixture("bl0c2_polytope.json"),
                       ["base", "trade", "--skeleton", "--trades",
                        str(FIXTURES / "bl0c2_trades.json"), "--polytope", "DOC"]),
    "bl0c2-trades": (_fixture("bl0c2_trades.json"),
                     ["base", "trade", "--skeleton", "--polytope",
                      str(FIXTURES / "bl0c2_polytope.json"), "--trades", "DOC"]),
    "quadrant-polytope": (_fixture("quadrant_polytope.json"),
                          ["base", "trade", "--skeleton", "--trades",
                           str(FIXTURES / "std_trade.json"), "--polytope", "DOC"]),
    "std-trade": (_fixture("std_trade.json"),
                  ["base", "trade", "--skeleton", "--polytope",
                   str(FIXTURES / "quadrant_polytope.json"), "--trades", "DOC"]),
}

ATOMS = st.one_of(
    st.sampled_from([None, True, 1.5, "x", "1/0", [], {}]),
    st.integers(-2, 2),
    st.lists(st.integers(-2, 2), max_size=3),
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _damage(doc, path, op, atom):
    """doc with the node at path replaced, deleted or appended to."""
    box = [doc]
    path = (0,) + path
    parent = box
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "delete":
        del parent[key]
    elif op == "append" and isinstance(parent[key], list):
        parent[key].append(atom)
    elif op == "append" and isinstance(parent[key], dict):
        parent[key]["extra"] = atom
    else:
        parent[key] = atom
    return box[0] if box else atom


@st.composite
def damaged(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "delete", "append"]))
        doc = _damage(doc, path, op, copy.deepcopy(draw(ATOMS)))
    return doc


@pytest.mark.parametrize("case", sorted(CASES))
def test_damaged_document_exits_with_a_code(case, tmp_path_factory):
    doc0, argv = CASES[case]
    work = tmp_path_factory.mktemp(case)
    doc_path = work / "doc.json"
    argv = [str(doc_path) if a == "DOC" else a for a in argv] + ["--out", str(work / "out")]

    @settings(max_examples=25, deadline=None, database=None)
    @given(damaged(doc0))
    def check(doc):
        doc_path.write_text(json.dumps(doc))
        assert cli.main(argv) in (0, 1, 2, 3)

    check()
