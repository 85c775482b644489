import json
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustermirror import cli

FIXTURES = Path(__file__).parent / "fixtures"
A2 = str(FIXTURES / "a2_seed.json")


def run(argv):
    return cli.main(argv)


def test_seed_mutate_five_step(tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = run(["seed", "mutate", "--seed", str(FIXTURES / "a2_seed.json"),
              "--sequence", "1,2,1,2,1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    # frozen five-step oracle value: the k=1 mutation of the input
    assert doc["psi"] == [[-1, 0], [0, 1]]


def test_seed_mutate_bad_index():
    rc = run(["seed", "mutate", "--seed", str(FIXTURES / "a2_seed.json"),
              "--sequence", "3"])
    assert rc == 2


def test_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = run(["seed", "mutate", "--seed", str(bad), "--sequence", "1"])
    assert rc == 2
    missing = tmp_path / "missing" / "x.json"
    assert run(["seed", "graph", "--seed", str(missing), "--depth", "1"]) == 2


def test_deeply_nested_json_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert run(["seed", "mutate", "--seed", str(deep), "--sequence", "1"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_non_utf8_input_exit_2(tmp_path, capsys, monkeypatch):
    # JSON text is UTF-8 whatever the locale: with Latin-1 as the default
    # encoding a UTF-16 document is still refused, with its path named
    def latin1_default_open(file, mode="r", encoding="latin-1", **kw):
        return open(file, mode, encoding=encoding, **kw)
    monkeypatch.setattr(cli, "open", latin1_default_open, raising=False)
    bad = tmp_path / "seed.json"
    bad.write_bytes(b"\xff\xfe" + (FIXTURES / "a2_seed.json").read_text().encode("utf-16-le"))
    assert run(["seed", "mutate", "--seed", str(bad), "--sequence", "1"]) == 2
    assert "%s: not UTF-8 text" % bad in capsys.readouterr().err


def test_seed_graph_and_model(tmp_path):
    g = tmp_path / "g.json"
    assert run(["seed", "graph", "--seed", str(FIXTURES / "a2_seed.json"),
                "--depth", "6", "--out", str(g)]) == 0
    doc = json.loads(g.read_text())
    assert len(doc["nodes"]) == 46 and not doc["truncated"]
    m = tmp_path / "m.json"
    assert run(["seed", "model", "--seed", str(FIXTURES / "a2_seed.json"),
                "--out", str(m)]) == 0
    assert json.loads(m.read_text())["chi"] == [[0, 1], [-1, 0]]


def test_budget_truncates(tmp_path, monkeypatch):
    monkeypatch.setenv("CLUSTERMIRROR_BUDGET", "7")
    g = tmp_path / "g.json"
    assert run(["seed", "graph", "--seed", str(FIXTURES / "a2_seed.json"),
                "--depth", "6", "--out", str(g)]) == 0
    doc = json.loads(g.read_text())
    assert doc["truncated"] and len(doc["nodes"]) == 7


@pytest.mark.parametrize("budget", ["0", "-3", "abc"])
def test_budget_below_one_exit_2(tmp_path, monkeypatch, capsys, budget):
    monkeypatch.setenv("CLUSTERMIRROR_BUDGET", budget)
    g = tmp_path / "g.json"
    assert run(["seed", "graph", "--seed", str(FIXTURES / "a2_seed.json"),
                "--depth", "2", "--out", str(g)]) == 2
    assert "CLUSTERMIRROR_BUDGET must be a positive integer" in capsys.readouterr().err
    assert not g.exists()


def test_seed_mutate_golden(capsys):
    for sequence in ("1,2", "1,,2"):    # an empty index is skipped
        assert run(["seed", "mutate", "--seed", A2, "--sequence", sequence]) == 0
        assert capsys.readouterr().out == (FIXTURES / "a2_seed_mutated_12.json").read_text()


@pytest.mark.parametrize("seed", ["a2", "rank4_frozen"])
def test_seed_model_golden(tmp_path, seed):
    out = tmp_path / "model.json"
    assert run(["seed", "model", "--seed", str(FIXTURES / (seed + "_seed.json")),
                "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / (seed + "_model.json")).read_bytes()


def test_base_syz_deterministic(tmp_path):
    outs = []
    for name in ("one.svg", "two.svg"):
        out = tmp_path / name
        assert run(["base", "syz", "--seed", str(FIXTURES / "a2_seed.json"),
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == (FIXTURES / "a2_syz.svg").read_bytes()


def test_base_syz_json_golden(tmp_path):
    js = tmp_path / "a2.json"
    assert run(["base", "syz", "--seed", str(FIXTURES / "a2_seed.json"),
                "--out", str(tmp_path / "a2.svg"), "--json", str(js)]) == 0
    assert js.read_bytes() == (FIXTURES / "a2_syz.json").read_bytes()


def test_base_syz_convention(tmp_path):
    out = tmp_path / "b.svg"
    j = tmp_path / "b.json"
    assert run(["base", "syz", "--seed", str(FIXTURES / "a2_seed.json"),
                "--out", str(out), "--json", str(j),
                "--convention", "cocharacter"]) == 0
    doc = json.loads(j.read_text())
    assert doc["convention"] == "cocharacter"
    assert doc["singularities"][0]["monodromy"] == [[1, 0], [-1, 1]]


def test_base_trade_with_skeleton(tmp_path):
    out = tmp_path / "bl.svg"
    assert run(["base", "trade", "--polytope", str(FIXTURES / "bl0c2_polytope.json"),
                "--trades", str(FIXTURES / "bl0c2_trades.json"),
                "--skeleton", "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "bl0c2_double.svg").read_bytes()


TRAPEZOID = str(FIXTURES / "trapezoid_polytope.json")


def test_base_trade_bounded_polygon_golden(tmp_path):
    out = tmp_path / "trap.svg"
    assert run(["base", "trade", "--polytope", TRAPEZOID,
                "--trades", str(FIXTURES / "trapezoid_trades.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "trapezoid_trade.svg").read_bytes()


def test_base_trade_ray_counts_by_its_direction(tmp_path):
    # rays [0, 2] and [0, 1] name one direction: same SVG, same JSON
    doubled = tmp_path / "doubled.json"
    doubled.write_text(json.dumps({"dimension": 2, "vertices": [["0", "0"]],
                                   "rays": [[0, 2], [1, 0]]}))
    outs = []
    for poly in (FIXTURES / "quadrant_polytope.json", doubled):
        svg, js = tmp_path / (poly.stem + ".svg"), tmp_path / (poly.stem + ".out.json")
        assert run(["base", "trade", "--polytope", str(poly),
                    "--trades", str(FIXTURES / "std_trade.json"),
                    "--out", str(svg), "--json", str(js)]) == 0
        outs.append((svg.read_bytes(), js.read_bytes()))
    assert outs[0] == outs[1]
    assert outs[0][0] == (FIXTURES / "std_trade.svg").read_bytes()


def test_base_trade_eigenlines_meeting_pairwise_only_exit_3(tmp_path, capsys):
    # the eigenlines of the trades at vertices 0, 1 and 2 meet pairwise
    # but share no point
    trades = tmp_path / "trades.json"
    trades.write_text(json.dumps({"trades": [{"target": i, "t": "1/4"} for i in range(3)]}))
    svg = tmp_path / "x.svg"
    assert run(["base", "trade", "--polytope", TRAPEZOID, "--trades", str(trades),
                "--skeleton", "--out", str(svg)]) == 3
    assert capsys.readouterr().err == "eigenloci have no common point\n"
    assert not svg.exists()


def test_base_trade_skeleton_json_golden(tmp_path):
    js = tmp_path / "bl.json"
    assert run(["base", "trade", "--polytope", str(FIXTURES / "bl0c2_polytope.json"),
                "--trades", str(FIXTURES / "bl0c2_trades.json"), "--skeleton",
                "--out", str(tmp_path / "bl.svg"), "--json", str(js)]) == 0
    assert js.read_bytes() == (FIXTURES / "bl0c2_trade_skeleton.json").read_bytes()


def test_base_trade_infeasible_exit_3(tmp_path):
    rc = run(["base", "trade", "--polytope", str(FIXTURES / "parallel_polytope.json"),
              "--trades", str(FIXTURES / "parallel_trades.json"),
              "--skeleton", "--out", str(tmp_path / "x.svg")])
    assert rc == 3


def test_skeleton_build_and_surgery(tmp_path):
    sk = tmp_path / "sk.json"
    assert run(["skeleton", "build", "--seed", str(FIXTURES / "a2_seed.json"),
                "--out", str(sk)]) == 0
    out = tmp_path / "sk2.json"
    assert run(["skeleton", "surgery", "--skeleton", str(sk),
                "--handle", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["handles"][0]["psi"] == [-1, 0]
    assert run(["skeleton", "surgery", "--skeleton", str(sk),
                "--handle", "9", "--out", str(out)]) == 2


A2_SKELETON = str(FIXTURES / "a2_skeleton.json")


@pytest.mark.parametrize("argv, golden", [
    (["skeleton", "build", "--seed", A2], "a2_skeleton.json"),
    (["skeleton", "surgery", "--skeleton", A2_SKELETON, "--handle", "1"],
     "a2_skeleton_surgery1.json"),
    # handle 1 meets handle 2 positively, so it takes the Dehn twist
    (["skeleton", "surgery", "--skeleton", A2_SKELETON, "--handle", "2"],
     "a2_skeleton_surgery2.json"),
], ids=["build", "surgery-1", "surgery-2"])
def test_skeleton_golden(capsys, argv, golden):
    assert run(argv) == 0
    assert capsys.readouterr().out == (FIXTURES / golden).read_text()


def test_locsys_commands(tmp_path):
    ls = tmp_path / "ls.json"
    ls.write_text(json.dumps(
        {"rank": 1, "loops": 2, "holonomies": [[["2"]], [["3"]]]}))
    out = tmp_path / "out.json"
    assert run(["locsys", "mutate", "--locsys", str(ls),
                "--handle-class", "1,0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["adapted"] == [[["2"]], [["-3"]]]
    stuck = tmp_path / "stuck.json"
    stuck.write_text(json.dumps(
        {"rank": 1, "loops": 2, "holonomies": [[["1"]], [["3"]]]}))
    assert run(["locsys", "mutate", "--locsys", str(stuck),
                "--handle-class", "1,0", "--out", str(out)]) == 3
    t = tmp_path / "t.txt"
    assert run(["locsys", "transition", "--seed", str(FIXTURES / "a2_seed.json"),
                "--k", "1", "--out", str(t)]) == 0
    assert "x1'" in t.read_text()


@pytest.mark.parametrize("holonomies, handle_class", [
    ([[["1"]], [["3"]]], "2,0"),   # eigenvalue 1 around (2, 0)
    ([[["1"]], [["3"]]], "0,0"),
    ([[["2"]], [["3"]]], "2,0"),
])
def test_locsys_non_primitive_handle_class_exit_2(tmp_path, capsys, holonomies,
                                                  handle_class):
    ls = tmp_path / "ls.json"
    ls.write_text(json.dumps({"rank": 1, "loops": 2, "holonomies": holonomies}))
    assert run(["locsys", "mutate", "--locsys", str(ls),
                "--handle-class", handle_class]) == 2
    assert "circle class must be primitive" in capsys.readouterr().err


@pytest.mark.parametrize("name, handle_class", [("locsys_s18", "18,-5"),
                                                ("locsys_s24", "-7,24")])
def test_locsys_mutate_golden(tmp_path, name, handle_class):
    out = tmp_path / "out.json"
    assert run(["locsys", "mutate", "--locsys", str(FIXTURES / (name + ".json")),
                "--handle-class=" + handle_class, "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / (name + "_mutated.json")).read_bytes()


@pytest.mark.parametrize("extra", [{"rank": 5}, {"loops": 3}, {"rank": 2, "loops": 1}])
def test_locsys_rank_and_loops_must_match_holonomies(tmp_path, capsys, extra):
    ls = tmp_path / "ls.json"
    holonomies = [[["2"]], [["3"]]]
    ls.write_text(json.dumps({"holonomies": holonomies}))
    argv = ["locsys", "mutate", "--locsys", str(ls), "--handle-class", "1,0"]
    assert run(argv) == 0
    capsys.readouterr()
    ls.write_text(json.dumps(dict(extra, holonomies=holonomies)))
    assert run(argv) == 2
    assert "malformed local system document" in capsys.readouterr().err


def test_locsys_zero_denominator_exit_2(tmp_path, capsys):
    ls = tmp_path / "ls.json"
    ls.write_text(json.dumps(
        {"rank": 1, "loops": 2, "holonomies": [[["1/0"]], [["3"]]]}))
    assert run(["locsys", "mutate", "--locsys", str(ls),
                "--handle-class", "1,0"]) == 2
    err = capsys.readouterr().err
    assert "malformed local system" in err and "zero denominator in '1/0'" in err


def test_polytope_zero_denominator_exit_2(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(
        {"dimension": 2, "vertices": [["0", "1/0"], ["5", "0"]],
         "rays": [[0, 1], [1, 0]]}))
    assert run(["base", "trade", "--polytope", str(poly),
                "--trades", str(FIXTURES / "bl0c2_trades.json"),
                "--out", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert "malformed polytope" in err and "zero denominator in '1/0'" in err


def test_base_syz_zero_denominator_exit_2(tmp_path, capsys):
    for flag, value in (("--radii", "1/0,1"), ("--viewport", "-3,-3,3,1/0")):
        # flag=value: argparse would read a bare "-3,..." as an option
        assert run(["base", "syz", "--seed", str(FIXTURES / "a2_seed.json"),
                    flag + "=" + value, "--out", str(tmp_path / "b.svg")]) == 2
        assert "zero denominator in '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_verify_rejects_nonpositive_cases(cases, capsys):
    assert run(["verify", "--suite", "epsilon", "--prng", "1",
                "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert "cases must be at least 1" in captured.err
    assert "pass" not in captured.out


def test_verify_pass(tmp_path):
    rep = tmp_path / "rep.json"
    rc = run(["verify", "--suite", "all", "--prng", "42", "--cases", "25",
              "--report", str(rep)])
    assert rc == 0
    doc = json.loads(rep.read_text())
    assert doc["passed"] and len(doc["suites"]) == 5


def test_verify_failure_serializes_counterexample(tmp_path, monkeypatch, capsys):
    import clustermirror.verify as V

    def broken(rng, cases=None):
        return {"suite": "epsilon", "cases": 1, "passed": False,
                "failures": [{"seed": "witness"}]}

    monkeypatch.setitem(V.SUITES, "epsilon", broken)
    rep = tmp_path / "rep.json"
    rc = run(["verify", "--suite", "epsilon", "--prng", "1", "--report", str(rep)])
    assert rc == 1
    doc = json.loads(rep.read_text())
    assert doc["suites"][0]["failures"] == [{"seed": "witness"}]


def test_parser_constants_match_their_modules(capsys):
    # the parser repeats these so that building it imports neither module
    from clustermirror import verify
    from clustermirror.almost_toric import InfeasibleBase
    from clustermirror.local_system import NotMutable
    from clustermirror.syz_base import CHARACTER, COCHARACTER
    assert cli._SUITES == tuple(verify.SUITES)
    assert cli._CONVENTIONS == (CHARACTER, COCHARACTER)
    assert NotMutable.exit_code == InfeasibleBase.exit_code == cli.EXIT_INFEASIBLE
    assert run(["verify", "--suite", "bogus", "--prng", "1"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_verify_reports_deterministic(tmp_path):
    reps = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        assert run(["verify", "--suite", "dictionary", "--prng", "7",
                    "--cases", "30", "--report", str(rep)]) == 0
        reps.append(rep.read_bytes())
    assert reps[0] == reps[1]


SEED = {"rank": 2, "unfrozen": 2, "psi": [[1, 0], [0, 1]],
        "B": [[0, 1], [-1, 0]], "d": [1, 1]}
QUADRANT = str(FIXTURES / "quadrant_polytope.json")
STD_TRADE = str(FIXTURES / "std_trade.json")


@pytest.mark.parametrize("argv, doc", [
    pytest.param(["seed", "mutate", "--sequence", "1", "--seed"],
                 dict(SEED, B=[[0, 1.5], [-1.5, 0]]), id="seed-B-float"),
    pytest.param(["seed", "model", "--seed"],
                 dict(SEED, psi=[[1.0, 0], [0, 1]]), id="seed-psi-float"),
    pytest.param(["seed", "mutate", "--sequence", "1", "--seed"],
                 dict(SEED, d=[1.5, 1]), id="seed-d-float"),
    pytest.param(["skeleton", "surgery", "--handle", "1", "--skeleton"],
                 {"rank": 2, "handles": [{"psi": [1, 0], "chi": [0, 1], "d": 1.5}]},
                 id="skeleton-d-float"),
    pytest.param(["base", "trade", "--trades", STD_TRADE, "--polytope"],
                 {"dimension": 2, "vertices": [["0", "0"]], "rays": [[0, 1], [1.5, 0]]},
                 id="polytope-ray-float"),
    pytest.param(["base", "trade", "--polytope", QUADRANT, "--trades"],
                 {"trades": [{"target": 0, "chart": {"matrix": [[1.5, 0], [0, 1]],
                                                     "translation": ["0", "0"]}}]},
                 id="trade-chart-float"),
    pytest.param(["seed", "mutate", "--sequence", "1", "--seed"],
                 dict(SEED, psi=[[True, 0], [0, 1]]), id="seed-psi-bool"),
    pytest.param(["locsys", "mutate", "--handle-class", "1,0", "--locsys"],
                 {"rank": 1, "loops": 2, "holonomies": [[[0.1]], [["3"]]]},
                 id="holonomy-float"),
])
def test_inexact_numbers_exit_2(tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(argv + [str(path), "--out", str(tmp_path / "out")]) == 2


def test_trade_chart_shape_exit_2(tmp_path, capsys):
    trades = tmp_path / "trades.json"
    trades.write_text(json.dumps(
        {"trades": [{"target": 0, "chart": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                            "translation": ["0", "0", "0"]}}]}))
    assert run(["base", "trade", "--polytope", QUADRANT, "--trades", str(trades),
                "--out", str(tmp_path / "x.svg")]) == 2
    assert "2x2 matrix" in capsys.readouterr().err


SEED3 = {"rank": 3, "unfrozen": 3, "psi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         "B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "d": [1, 1, 1]}
LOCSYS = ["locsys", "mutate", "--handle-class", "1,0", "--locsys"]
LOCSYS_S18 = str(FIXTURES / "locsys_s18.json")


@pytest.mark.parametrize("argv, doc, code, message", [
    pytest.param(["seed", "mutate", "--seed", A2, "--sequence", "1,x"], None, 2,
                 "bad mutation index 'x'", id="sequence-not-int"),
    pytest.param(["locsys", "mutate", "--locsys", LOCSYS_S18, "--handle-class", "1,x"], None, 2,
                 "bad handle class: invalid literal", id="handle-class-not-int"),
    pytest.param(["locsys", "mutate", "--locsys", LOCSYS_S18, "--handle-class", "1,2,3"], None, 2,
                 "handle class must be two integers", id="handle-class-three-ints"),
    pytest.param(LOCSYS, {"holonomies": [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]},
                 2, "holonomies 0 and 1 must commute", id="locsys-not-commuting"),
    pytest.param(LOCSYS, {"holonomies": [[["2"]], [["1", "0"], ["0", "1"]]]}, 2,
                 "holonomy 1 has wrong shape", id="locsys-wrong-shape"),
    pytest.param(LOCSYS, {"holonomies": [[["1", "0"], ["0", "1"]], [["1", "2"], ["2", "4"]]]},
                 2, "holonomy 1 must be invertible", id="locsys-singular"),
    pytest.param(LOCSYS, {"holonomies": [[["2"]], [["3"]], [["5"]]]}, 2,
                 "mutation implemented on the 2-torus only", id="locsys-three-loops"),
    pytest.param(LOCSYS, {"holonomies": [[["1" * 4301]], [["3"]]]}, 2,
                 "has a run of more than 4300 digits", id="locsys-long-digit-run"),
    pytest.param(["locsys", "transition", "--k", "1", "--seed"], SEED3, 2,
                 "chart transitions are rank-2 only", id="transition-rank-3"),
    pytest.param(["locsys", "transition", "--seed", A2, "--k", "3"], None, 2,
                 "no such handle", id="transition-no-handle"),
    # psi [[1, N], [0, 1]]: handle 1 expands (1 - x^s)^N, whose middle
    # coefficients pass 4300 digits once N is past about 14,300
    pytest.param(["locsys", "transition", "--k", "1", "--seed"],
                 dict(SEED, psi=[[1, 20000], [0, 1]]), 2,
                 "transition term 3928 has a coefficient of more than 4300 digits, "
                 "past the integer budget", id="transition-digit-budget"),
    pytest.param(["locsys", "transition", "--k", "1", "--seed"],
                 dict(SEED, psi=[[1, 2 ** 70], [0, 1]]), 2,
                 "transition term 225 has a coefficient of more than 4300 digits, "
                 "past the integer budget", id="transition-digit-budget-2-70"),
    pytest.param(["skeleton", "surgery", "--handle", "1", "--skeleton"],
                 {"rank": 1, "handles": []}, 2, "torus rank must be at least 2",
                 id="skeleton-rank-1"),
    pytest.param(["skeleton", "surgery", "--handle", "1", "--skeleton"],
                 {"rank": 2, "handles": [{"psi": [1, 0], "chi": [0, 1], "d": 0}]}, 2,
                 "handle multiplier must be positive", id="skeleton-d-0"),
    pytest.param(["skeleton", "surgery", "--handle", "1", "--skeleton"],
                 {"rank": 2, "handles": [{"psi": [0, 0], "chi": [1, 0], "d": 1}]}, 2,
                 "handle character and cocharacter must be primitive", id="skeleton-zero-psi"),
    pytest.param(["skeleton", "surgery", "--handle", "1", "--skeleton"],
                 {"rank": 3, "handles": [{"psi": [1, 0, 0], "chi": [0, 1, 0], "d": 1}]}, 2,
                 "direct surgery is rank-2 only", id="surgery-rank-3"),
    pytest.param(["base", "syz", "--seed"], SEED3, 2, "SYZ base construction is rank-2 only",
                 id="syz-rank-3"),
    pytest.param(["base", "syz", "--seed", A2, "--radii", "1,2,3"], None, 2,
                 "need one radius per ray", id="syz-radii-count"),
    # the first 25 indices over {1, 2, 3} drawn by random.Random(7).choice,
    # a draw equal to the one before skipped; the first 23 steps exit 0
    pytest.param(["seed", "mutate", "--sequence",
                  "2,1,2,3,1,3,1,2,3,1,3,1,2,1,3,2,1,3,1,3,1,3,2,1,3", "--seed"],
                 dict(SEED3, B=[[0, 3, 0], [-3, 0, 3], [0, -3, 0]]), 2,
                 "mutation step 24 makes an entry of more than 4300 digits, "
                 "past the integer budget", id="seed-mutate-digit-budget"),
    pytest.param(["seed", "mutate", "--sequence", "1", "--seed"],
                 {k: v for k, v in SEED3.items() if k != "d"}, 2,
                 "malformed seed document: missing key 'd'", id="seed-missing-key"),
    pytest.param(["skeleton", "surgery", "--handle", "1", "--skeleton"],
                 {"rank": 2, "handles": [{"psi": [1, 0], "chi": [0, 1]}]}, 2,
                 "malformed skeleton document: missing key 'd'", id="skeleton-missing-key"),
    pytest.param(LOCSYS, {"rank": 1}, 2,
                 "malformed local system document: missing key 'holonomies'",
                 id="locsys-missing-key"),
])
def test_refusal_exits_with_its_message(tmp_path, capsys, argv, doc, code, message):
    # doc, if given, is written to a file whose path ends argv
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["seed", "mutate", "--seed", A2, "--sequence", "1", "--out", "{tmp}/no/x.json"],
    ["base", "syz", "--seed", A2, "--out", "{tmp}"],
    ["base", "syz", "--seed", A2, "--out", "{tmp}/b.svg", "--json", "{tmp}/no/b.json"],
    ["verify", "--suite", "epsilon", "--prng", "1", "--cases", "2",
     "--report", "{tmp}/no/r.json"],
], ids=["out-missing-dir", "out-is-dir", "json", "report"])
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    assert "cannot write %s" % tmp_path in capsys.readouterr().err


BL0C2 = ["--polytope", str(FIXTURES / "bl0c2_polytope.json"),
         "--trades", str(FIXTURES / "bl0c2_trades.json")]


@pytest.mark.parametrize("argv", [
    ["base", "syz", "--seed", A2],
    ["base", "trade", "--skeleton"] + BL0C2,
], ids=["syz", "trade"])
def test_failed_request_leaves_no_partial_output(tmp_path, argv):
    # the SVG path is writable and the JSON path is not, then the reverse
    svg, no_json = tmp_path / "b.svg", tmp_path / "missing" / "b.json"
    assert run(argv + ["--out", str(svg), "--json", str(no_json)]) == 2
    assert not svg.exists()
    json_path = tmp_path / "b.json"
    assert run(argv + ["--out", str(tmp_path), "--json", str(json_path)]) == 2
    assert not json_path.exists()
    # only files the request created are removed, and a file that
    # existed before keeps its bytes
    svg.write_text("old")
    assert run(argv + ["--out", str(svg), "--json", str(no_json)]) == 2
    assert svg.read_text() == "old"


def test_two_outputs_naming_one_file_exit_2(tmp_path, capsys):
    # the JSON then the SVG in one file would be neither; nothing is written
    f = tmp_path / "F"
    f.write_text("old")
    assert run(["base", "syz", "--seed", A2, "--out", str(f), "--json", str(f)]) == 2
    assert "cannot write %s: the same file as %s" % (f, f) in capsys.readouterr().err
    assert f.read_text() == "old"
    # two spellings of one new path: the file the request created goes
    g = tmp_path / "G"
    assert run(["base", "syz", "--seed", A2, "--out", str(g),
                "--json", str(tmp_path / "." / "G")]) == 2
    assert not g.exists()
    # standard output may take both
    assert run(["base", "syz", "--seed", A2, "--out", "-", "--json", "-"]) == 0


def test_shorter_output_replaces_longer_file(tmp_path):
    out = tmp_path / "b.svg"
    golden = (FIXTURES / "a2_syz.svg").read_bytes()
    out.write_bytes(b"x" * (2 * len(golden)))
    assert run(["base", "syz", "--seed", A2, "--out", str(out)]) == 0
    assert out.read_bytes() == golden


def test_base_syz_viewport_exit_2(tmp_path, capsys):
    for value in ("3,3,-3,-3", "-3,3,3,-3", "-3,-3,3"):
        assert run(["base", "syz", "--seed", str(FIXTURES / "a2_seed.json"),
                    "--viewport=" + value, "--out", str(tmp_path / "b.svg")]) == 2
        assert "viewport" in capsys.readouterr().err


def test_base_syz_viewport_off_the_fan_draws_no_ray(tmp_path):
    # the axis-parallel rays from the origin run along y = 0 and x = 0,
    # outside [1, 3] x [1, 3]
    out = tmp_path / "off.svg"
    assert run(["base", "syz", "--seed", A2, "--viewport=1,1,3,3", "--out", str(out)]) == 0
    assert 'stroke="#888888"' not in out.read_text()


def test_base_syz_wide_viewport_golden(tmp_path):
    # a 500-unit span draws its grid at the multiples of 5: 101 lines
    out = tmp_path / "wide.svg"
    assert run(["base", "syz", "--seed", str(FIXTURES / "a2_seed.json"),
                "--viewport=-10,-3,490,3", "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / "a2_syz_wide.svg").read_bytes()


def test_base_syz_grid_lines_bounded(tmp_path):
    out = tmp_path / "huge.svg"
    assert run(["base", "syz", "--seed", str(FIXTURES / "a2_seed.json"),
                "--viewport=0,0,1e20,1", "--out", str(out)]) == 0
    # x: the multiples of 10^18 in [0, 10^20]; y: 0 and 1
    doc = out.read_text()
    assert doc.count('stroke="#dddddd"') == 101 + 2
    # exact: 60 * 10^20 pixels plus both 20-pixel margins, and the line at
    # x = 10^18 at 60 * 10^18 pixels plus the left margin
    assert 'width="6000000000000000000040.000"' in doc
    assert '<line x1="60000000000000000020.000"' in doc


def test_base_syz_float_overflow_exit_2(tmp_path, capsys):
    seed = str(FIXTURES / "a2_seed.json")
    for value in ("0,0,1e400,1", "0,-1e400,1,0", "0,0,1e307,1"):
        assert run(["base", "syz", "--seed", seed, "--viewport=" + value,
                    "--out", str(tmp_path / "b.svg")]) == 2
        assert "viewport is too large to draw" in capsys.readouterr().err
    assert run(["base", "syz", "--seed", seed, "--radii", "1e400,1",
                "--out", str(tmp_path / "b.svg")]) == 2
    assert "too large for a float" in capsys.readouterr().err


def test_base_syz_huge_exponent_exit_2(tmp_path, capsys):
    assert run(["base", "syz", "--seed", A2, "--viewport=-3,-3,3,1e10000000",
                "--out", str(tmp_path / "b.svg")]) == 2
    assert "exponent of '1e10000000' exceeds 4300" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e4300", "1e-4300"])
def test_locsys_unprintable_holonomy_exit_2(tmp_path, capsys, value):
    ls = tmp_path / "ls.json"
    ls.write_text(json.dumps({"rank": 1, "loops": 2, "holonomies": [[[value]], [["3"]]]}))
    assert run(["locsys", "mutate", "--locsys", str(ls), "--handle-class", "1,0"]) == 2
    assert ("'%s' has a numerator or denominator of more than 4300 digits" % value
            in capsys.readouterr().err)


def test_seed_graph_negative_depth_exit_2(capsys):
    assert run(["seed", "graph", "--seed", str(FIXTURES / "a2_seed.json"),
                "--depth", "-1"]) == 2
    assert "depth" in capsys.readouterr().err


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


ORTHANT = {"dimension": 3, "facets": [{"normal": n, "rhs": "0"}
                                      for n in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]}
CHART3 = {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "translation": ["0", "0", "0"]}
ZERO_RAY = {"dimension": 2, "vertices": [["0", "1"], ["1", "0"]], "rays": [[0, 0], [1, 0]]}
REPEATED = {"dimension": 2, "vertices": [["0", "0"], ["0", "0"], ["2", "0"], ["0", "2"]]}
UNIT_TRIANGLE = {"dimension": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize("polytope, trades, flags, message", [
    pytest.param({"dimension": 2, "vertices": [["0", "0"]], "rays": [[0, 1], [1000000]]},
                 _fixture("std_trade.json"), [], "expected 2 entries", id="ray-length-1"),
    pytest.param({"dimension": 2, "vertices": [["0"]], "rays": [[0, 1], [1, 0]]},
                 _fixture("std_trade.json"), ["--skeleton"], "expected 2 entries",
                 id="vertex-length-1"),
    pytest.param(_fixture("quadrant_polytope.json"), {"trades": [{"target": []}]}, [],
                 "vertex index", id="2d-target-empty-list"),
    pytest.param(_fixture("quadrant_polytope.json"), {"trades": [{"target": [1, 0]}]}, [],
                 "vertex index", id="2d-target-pair"),
    pytest.param(_fixture("quadrant_polytope.json"),
                 {"trades": [{"target": 5, "chart": {"matrix": [[1, 0], [0, 1]],
                                                     "translation": ["0", "0"]}}]},
                 [], "vertex index", id="2d-chart-target-out-of-range"),
    pytest.param(dict(ORTHANT, facets=ORTHANT["facets"][:2] + [{"normal": [0, 1], "rhs": "0"}]),
                 {"trades": [{"target": [0, 1], "chart": CHART3},
                             {"target": [1, 2], "chart": CHART3}]},
                 [], "expected 3 entries", id="3d-normal-length-2"),
    pytest.param(ORTHANT, {"trades": [{"target": 0, "chart": CHART3},
                                      {"target": [1, 2], "chart": CHART3}]},
                 [], "two distinct facet indices", id="3d-int-target"),
    pytest.param({"dimension": 2, "vertices": []}, _fixture("std_trade.json"), [],
                 "polygon needs at least one vertex", id="2d-no-vertices"),
    # a zero ray is refused whichever vertex is traded, and with no trade
    pytest.param(ZERO_RAY, _fixture("std_trade.json"), [], "a ray direction must be nonzero",
                 id="2d-zero-ray-traded"),
    pytest.param(ZERO_RAY, {"trades": [{"target": 1}]}, [], "a ray direction must be nonzero",
                 id="2d-zero-ray-other-vertex-traded"),
    pytest.param(ZERO_RAY, {"trades": []}, [], "a ray direction must be nonzero",
                 id="2d-zero-ray-no-trades"),
    pytest.param({"dimension": 2, "vertices": [["0", "0"]], "rays": [[0, 1]]},
                 _fixture("std_trade.json"), [], "exactly two ray directions", id="2d-one-ray"),
    # a repeated vertex is refused whichever vertex is traded, the wrap
    # of a bounded polygon included
    pytest.param(REPEATED, {"trades": [{"target": 2}]}, [],
                 "vertex 1 repeats the vertex before it", id="2d-repeated-vertex-other-traded"),
    pytest.param(REPEATED, {"trades": [{"target": 0}]}, [],
                 "vertex 1 repeats the vertex before it", id="2d-repeated-vertex-traded"),
    pytest.param(dict(REPEATED, vertices=REPEATED["vertices"][1:] + [["0", "0"]]),
                 {"trades": [{"target": 1}]}, [], "vertex 0 repeats the vertex before it",
                 id="2d-repeated-vertex-wrap"),
    # a derived chart's model triangle must stop short of both neighbours;
    # at 2t = 1 the singularity would sit on the hypotenuse
    pytest.param(UNIT_TRIANGLE, {"trades": [{"target": 0, "t": 100}]}, [],
                 "trade at vertex 0 does not fit: 2t = 200 is not below the lattice length 1 "
                 "of its edge to vertex 2", id="2d-trade-past-corner"),
    pytest.param(UNIT_TRIANGLE, {"trades": [{"target": 1, "t": "1/2"}]}, [],
                 "trade at vertex 1 does not fit: 2t = 1 is not below the lattice length 1 "
                 "of its edge to vertex 0", id="2d-trade-reaches-neighbour"),
    pytest.param(_fixture("quadrant_polytope.json"), {"trades": [{"t": "1"}]}, [],
                 "malformed trade document: missing key 'target'", id="trade-missing-key"),
    pytest.param({"vertices": [["0", "0"]]}, _fixture("std_trade.json"), [],
                 "malformed polytope document: missing key 'dimension'",
                 id="polytope-missing-key"),
    pytest.param(_fixture("quadrant_polytope.json"), {"trades": []}, ["--skeleton"],
                 "no trades, no eigenloci", id="2d-skeleton-no-trades"),
    pytest.param({"dimension": 1, "vertices": [["0"]]}, _fixture("std_trade.json"), [],
                 "dimension must be at least 2", id="1d-polytope"),
    pytest.param(dict(ORTHANT, facets=[]), {"trades": [{"target": [0, 1], "chart": CHART3}]},
                 [], "H-representation needs facets", id="3d-no-facets"),
    pytest.param(ORTHANT, {"trades": [{"target": [0, 1]}]}, [],
                 "explicit charts are required above dimension 2", id="3d-no-chart"),
    pytest.param(_fixture("quadrant_polytope.json"),
                 {"trades": [{"target": 0, "chart": {"matrix": [[2, 0], [0, 1]],
                                                     "translation": ["0", "0"]}}]},
                 [], "chart matrix must be unimodular", id="2d-chart-det-2"),
    pytest.param(_fixture("quadrant_polytope.json"),
                 {"trades": [{"target": 0, "chart": {"matrix": [[1, 1], [1, 1]],
                                                     "translation": ["0", "0"]}}]},
                 [], "chart matrix must be unimodular", id="2d-chart-singular"),
    # rows 0 and 1 are the normals of the target facets, but det M = -2
    pytest.param({"dimension": 4, "facets": [{"normal": n, "rhs": "0"} for n in
                                             ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])]},
                 {"trades": [{"target": [0, 1], "chart": {
                     "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]],
                     "translation": ["0", "0", "0", "0"]}}]},
                 [], "chart matrix must be unimodular", id="4d-chart-det-minus-2"),
])
def test_document_shape_faults_exit_2(tmp_path, capsys, polytope, trades, flags, message):
    poly_path, trades_path = tmp_path / "poly.json", tmp_path / "trades.json"
    poly_path.write_text(json.dumps(polytope))
    trades_path.write_text(json.dumps(trades))
    assert run(["base", "trade", "--polytope", str(poly_path), "--trades", str(trades_path),
                "--out", str(tmp_path / "x.svg")] + flags) == 2
    assert message in capsys.readouterr().err


# rows 0 and 1 of each chart are the normals of its target facets, in order
CYCLE3 = {"matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]], "translation": ["0", "0", "0"]}
ORTHANT_TRADES = {"trades": [{"target": [0, 1], "chart": CHART3},
                             {"target": [1, 2], "chart": CYCLE3}]}


def _orthant_argv(tmp_path, trades=ORTHANT_TRADES, polytope=ORTHANT):
    poly_path, trades_path = tmp_path / "poly.json", tmp_path / "trades.json"
    poly_path.write_text(json.dumps(polytope))
    trades_path.write_text(json.dumps(trades))
    return ["base", "trade", "--polytope", str(poly_path), "--trades", str(trades_path)]


def test_nd_chart_must_match_target_facets(tmp_path, capsys):
    wrong_rows = {"trades": [{"target": [1, 2], "chart": CHART3}]}
    assert run(_orthant_argv(tmp_path, wrong_rows)) == 2
    assert "not the normal [0, 1, 0] of target facet 1" in capsys.readouterr().err
    off_face = dict(CYCLE3, translation=["0", "1", "0"])
    assert run(_orthant_argv(tmp_path, {"trades": [{"target": [1, 2], "chart": off_face}]})) == 2
    assert "does not lie on target facet 1" in capsys.readouterr().err


def test_nd_base_trade_writes_json(tmp_path, capsys):
    argv = _orthant_argv(tmp_path)
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 3 and len(doc["singularities"]) == 2
    # the second singularity lies off its own face y = z = 0, not off the first's
    assert doc["singularities"][1]["position"] == ["0", "1", "1"]
    assert doc["singularities"][1]["eigen"] == [0, 1, 1]
    out = tmp_path / "base.json"
    assert run(argv + ["--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == doc


def test_nd_same_face_traded_twice_exit_2(tmp_path, capsys):
    swapped = dict(CHART3, matrix=[[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    twice = {"trades": [{"target": [0, 1], "chart": CHART3},
                        {"target": [1, 0], "chart": swapped}]}
    assert run(_orthant_argv(tmp_path, twice)) == 2
    assert "trade targets must be distinct" in capsys.readouterr().err


def test_nd_skeleton_flag_writes_the_same_bytes(tmp_path, capsys):
    # the eigenloci of these trades never meet, but above dimension 2
    # nothing is drawn, so no basepoint is sought
    poly = dict(ORTHANT, facets=ORTHANT["facets"] + [{"normal": [1, 0, 1], "rhs": "5"},
                                                      {"normal": [0, 1, 1], "rhs": "0"}])
    sheared = {"matrix": [[1, 0, 1], [0, 1, 1], [0, 0, 1]], "translation": ["5", "0", "0"]}
    trades = {"trades": [{"target": [0, 1], "chart": CHART3},
                         {"target": [3, 4], "chart": sheared}]}
    argv = _orthant_argv(tmp_path, trades, poly)
    outputs = []
    for flags in ([], ["--skeleton"]):
        assert run(argv + flags + ["--json", str(tmp_path / "base.json")]) == 0
        outputs.append((tmp_path / "base.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert capsys.readouterr().err == ""


def test_nd_base_trade_9d_golden(capsys):
    # two traded faces of the 9D orthant cut by 12 seeded facets
    # (test_almost_toric.orthant_with_cuts)
    assert run(["base", "trade", "--polytope", str(FIXTURES / "orthant9_polytope.json"),
                "--trades", str(FIXTURES / "orthant9_trades.json")]) == 0
    assert capsys.readouterr().out == (FIXTURES / "orthant9_base.json").read_text()


def test_nd_base_trade_explicit_out_exit_2(tmp_path, capsys):
    svg = tmp_path / "x.svg"
    assert run(_orthant_argv(tmp_path) + ["--out", str(svg), "--json", str(tmp_path / "b.json")]) == 2
    assert "rendering is 2D only" in capsys.readouterr().err
    assert not svg.exists()


MIXED_CALLS = [
    (["seed", "graph", "--seed", A2], 2),                   # --depth missing
    (["seed", "mutate", "--seed", A2, "--sequence", "1,2"], 0),
    (["verify", "--suite", "epsilon", "--prng", "1", "--cases", "2"], 0),
    (["--help"], 0),
    (["seed", "mutate", "--seed", A2, "--sequence", "1,2"], 0),
]


def test_repeated_main_calls_share_no_state(monkeypatch, capsys):
    def outputs(fresh_parser):
        got = []
        for argv, code in MIXED_CALLS:
            if fresh_parser:
                monkeypatch.setattr(cli, "_parser", None)
            assert run(argv) == code
            captured = capsys.readouterr()
            got.append((captured.out, captured.err))
        return got

    cached = outputs(fresh_parser=False)
    assert cached == outputs(fresh_parser=True)
    assert "the following arguments are required: --depth" in cached[0][1]
    assert cached[1] == cached[4] and json.loads(cached[1][0])["psi"] == [[-1, 0], [0, -1]]


json_text = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                                       st.characters()))
json_docs = st.recursive(
    st.one_of(st.integers(-10**40, 10**40), st.booleans(), st.none(), json_text),
    lambda kids: st.one_of(st.lists(kids), st.lists(kids).map(tuple),
                           st.dictionaries(json_text, kids)),
    max_leaves=20)


@settings(max_examples=100, deadline=None, database=None)
@given(json_docs)
def test_dump_json_matches_indented_json_dumps(doc):
    assert cli._dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_M = [[1, -2], [3, 4]]
_T = [[_M, [5]], _M]


@st.composite
def docs_with_shared_lists(draw):
    """A document holding the same lists of lists, and a list of them,
    at several places and indentations."""
    pool = draw(st.lists(st.lists(st.lists(st.integers(-9, 9), max_size=3),
                                  min_size=1, max_size=3), min_size=1, max_size=3))
    pool.append(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
    # sampled_from hands out the pool's objects themselves, not copies
    return draw(st.recursive(st.sampled_from(pool),
                             lambda kids: st.one_of(st.lists(kids),
                                                    st.dictionaries(json_text, kids)),
                             max_leaves=8))


@settings(max_examples=100, deadline=None, database=None)
@given(docs_with_shared_lists())
@example({"a": _M, "b": _M, "c": [_M, _M]})              # one list in two places
@example({"a": _M, "b": {"c": {"d": _M}}, "e": [[_M]]})  # one list at other indentations
@example([_T, {"t": _T, "u": [_T, _M]}, _T])             # shared lists inside shared lists
@example(([[1]],) * 3)                                   # a shared tuple
def test_dump_json_matches_json_dumps_with_shared_lists(doc):
    assert cli._dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [{"x": [1, 0.5]}, {1: [2]}, OrderedDict(a=1)],
                         ids=["float-value", "int-key", "dict-subclass"])
def test_dump_json_refuses_inexact_types(doc):
    with pytest.raises(TypeError):
        cli._dump_json(doc)
