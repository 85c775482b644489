"""Command-line interface.

Subcommands: seed mutate|graph|model, base syz|trade,
skeleton build|surgery, locsys mutate|transition, verify.

Exit codes: 0 success, 1 invariant failure, 2 input validation,
3 infeasibility.  All randomized suites require an explicit PRNG seed
and identical inputs always produce byte-identical outputs.
"""

import argparse
import json
import sys
from fractions import Fraction

from .seed import (SeedError, deserialize_seed, exchange_graph, mutate,
                   serialize_seed, node_budget)
from .toric_model import fan_from_seed, model_to_json, toric_model
from .syz_base import (CHARACTER, COCHARACTER, base_from_fan, base_to_json,
                       render_svg as render_syz_svg, toggle_convention)
from .skeleton import (SkeletonError, disk_surgery, skeleton_from_json,
                       skeleton_from_seed, skeleton_to_json)
from .local_system import (LocalSystemError, NotMutable, chart_transition,
                           deserialize_local_system, mutate_local_system,
                           serialize_local_system)
from .almost_toric import (AlmostToricError, InfeasibleBase, apply_trades,
                           base_to_json as atf_base_to_json, common_basepoint,
                           polytope_from_json, render_svg as render_trade_svg,
                           trades_from_json)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


class CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        self.message = message


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(EXIT_VALIDATION, "cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise CliError(EXIT_VALIDATION,
                       "%s: invalid JSON at line %d column %d" % (path, e.lineno, e.colno))


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _dump_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_seed(path):
    try:
        return deserialize_seed(_load_json(path))
    except SeedError as e:
        raise CliError(EXIT_VALIDATION, str(e))


def _parse_sequence(raw, r):
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            k = int(tok)
        except ValueError:
            raise CliError(EXIT_VALIDATION, "bad mutation index %r" % tok)
        if not (1 <= k <= r):
            raise CliError(EXIT_VALIDATION,
                           "mutation index %d out of range (1..%d)" % (k, r))
        out.append(k - 1)
    return out


def cmd_seed_mutate(args):
    s = _load_seed(args.seed)
    for k in _parse_sequence(args.sequence, s.r):
        s = mutate(s, k)
    _write(args.out, _dump_json(serialize_seed(s)))
    return EXIT_OK


def cmd_seed_graph(args):
    s = _load_seed(args.seed)
    g = exchange_graph(s, args.depth, max_nodes=node_budget())
    _write(args.out, _dump_json(g))
    return EXIT_OK


def cmd_seed_model(args):
    s = _load_seed(args.seed)
    try:
        m = toric_model(s)
    except SeedError as e:
        raise CliError(EXIT_VALIDATION, str(e))
    _write(args.out, _dump_json(model_to_json(m)))
    return EXIT_OK


def cmd_base_syz(args):
    s = _load_seed(args.seed)
    try:
        fan = fan_from_seed(s)
        radii = None
        if args.radii:
            radii = [Fraction(x) for x in args.radii.split(",")]
        base = base_from_fan(fan, radii)
        viewport = (-3, -3, 3, 3)
        if args.viewport:
            viewport = tuple(Fraction(x) for x in args.viewport.split(","))
            if (len(viewport) != 4 or viewport[0] >= viewport[2]
                    or viewport[1] >= viewport[3]):
                raise ValueError("viewport must be xmin,ymin,xmax,ymax with "
                                 "xmin < xmax and ymin < ymax")
    except (SeedError, ValueError, ZeroDivisionError) as e:
        raise CliError(EXIT_VALIDATION, str(e))
    if args.convention == COCHARACTER:
        base = toggle_convention(base)
    _write(args.out, render_syz_svg(base, viewport))
    if args.json:
        _write(args.json, _dump_json(base_to_json(base)))
    return EXIT_OK


def cmd_base_trade(args):
    try:
        poly = polytope_from_json(_load_json(args.polytope))
        trades = trades_from_json(_load_json(args.trades))
        base = apply_trades(poly, trades)
    except AlmostToricError as e:
        raise CliError(EXIT_VALIDATION, str(e))
    q = None
    if args.skeleton:
        try:
            q, _sub = common_basepoint(base)
        except InfeasibleBase as e:
            raise CliError(EXIT_INFEASIBLE, str(e))
    _write(args.out, render_trade_svg(base, q=q))
    if args.json:
        _write(args.json, _dump_json(atf_base_to_json(base)))
    return EXIT_OK


def cmd_skeleton_build(args):
    s = _load_seed(args.seed)
    try:
        sk = skeleton_from_seed(s)
    except SkeletonError as e:
        raise CliError(EXIT_VALIDATION, str(e))
    _write(args.out, _dump_json(skeleton_to_json(sk)))
    return EXIT_OK


def cmd_skeleton_surgery(args):
    try:
        sk = skeleton_from_json(_load_json(args.skeleton))
        out = disk_surgery(sk, args.handle - 1)
    except SkeletonError as e:
        raise CliError(EXIT_VALIDATION, str(e))
    _write(args.out, _dump_json(skeleton_to_json(out)))
    return EXIT_OK


def cmd_locsys_mutate(args):
    try:
        ls = deserialize_local_system(_load_json(args.locsys))
        s = tuple(int(x) for x in args.handle_class.split(","))
        if len(s) != 2:
            raise CliError(EXIT_VALIDATION, "handle class must be two integers")
    except LocalSystemError as e:
        raise CliError(EXIT_VALIDATION, str(e))
    except ValueError as e:
        raise CliError(EXIT_VALIDATION, "bad handle class: %s" % e)
    try:
        out, adapted = mutate_local_system(ls, s)
    except NotMutable as e:
        raise CliError(EXIT_INFEASIBLE, str(e))
    except LocalSystemError as e:
        raise CliError(EXIT_VALIDATION, str(e))
    doc = serialize_local_system(out)
    doc["adapted"] = [[[str(x) for x in row] for row in A] for A in adapted]
    _write(args.out, _dump_json(doc))
    return EXIT_OK


def cmd_locsys_transition(args):
    s = _load_seed(args.seed)
    try:
        fns = chart_transition(s, args.k - 1)
    except NotMutable as e:
        raise CliError(EXIT_INFEASIBLE, str(e))
    except (LocalSystemError, SkeletonError) as e:
        raise CliError(EXIT_VALIDATION, str(e))
    _write(args.out, "".join("x%d' = %s\n" % (i + 1, f) for i, f in enumerate(fns)))
    return EXIT_OK


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.prng, args.cases)
    all_ok = all(r["passed"] for r in reports)
    doc = {"prng": args.prng, "suites": reports, "passed": all_ok}
    if args.report:
        _write(args.report, _dump_json(doc))
    for r in reports:
        sys.stdout.write("%-12s %s (%d cases)\n"
                         % (r["suite"], "pass" if r["passed"] else "FAIL", r["cases"]))
    if not all_ok:
        path = args.report or "verify-counterexamples.json"
        if not args.report:
            _write(path, _dump_json(doc))
        sys.stdout.write("counterexamples written to %s\n" % path)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="clustermirror")
    sub = p.add_subparsers(dest="group", required=True)

    seed = sub.add_parser("seed").add_subparsers(dest="cmd", required=True)
    sm = seed.add_parser("mutate")
    sm.add_argument("--seed", required=True)
    sm.add_argument("--sequence", required=True)
    sm.add_argument("--out", default=None)
    sm.set_defaults(fn=cmd_seed_mutate)
    sg = seed.add_parser("graph")
    sg.add_argument("--seed", required=True)
    sg.add_argument("--depth", type=int, required=True)
    sg.add_argument("--out", default=None)
    sg.set_defaults(fn=cmd_seed_graph)
    sd = seed.add_parser("model")
    sd.add_argument("--seed", required=True)
    sd.add_argument("--out", default=None)
    sd.set_defaults(fn=cmd_seed_model)

    base = sub.add_parser("base").add_subparsers(dest="cmd", required=True)
    bs = base.add_parser("syz")
    bs.add_argument("--seed", required=True)
    bs.add_argument("--out", default=None)
    bs.add_argument("--json", default=None)
    bs.add_argument("--radii", default=None)
    bs.add_argument("--viewport", default=None)
    bs.add_argument("--convention", choices=[CHARACTER, COCHARACTER], default=CHARACTER)
    bs.set_defaults(fn=cmd_base_syz)
    bt = base.add_parser("trade")
    bt.add_argument("--polytope", required=True)
    bt.add_argument("--trades", required=True)
    bt.add_argument("--out", default=None)
    bt.add_argument("--json", default=None)
    bt.add_argument("--skeleton", action="store_true")
    bt.set_defaults(fn=cmd_base_trade)

    sk = sub.add_parser("skeleton").add_subparsers(dest="cmd", required=True)
    sb = sk.add_parser("build")
    sb.add_argument("--seed", required=True)
    sb.add_argument("--out", default=None)
    sb.set_defaults(fn=cmd_skeleton_build)
    ss = sk.add_parser("surgery")
    ss.add_argument("--skeleton", required=True)
    ss.add_argument("--handle", type=int, required=True)
    ss.add_argument("--out", default=None)
    ss.set_defaults(fn=cmd_skeleton_surgery)

    lo = sub.add_parser("locsys").add_subparsers(dest="cmd", required=True)
    lm = lo.add_parser("mutate")
    lm.add_argument("--locsys", required=True)
    lm.add_argument("--handle-class", required=True)
    lm.add_argument("--out", default=None)
    lm.set_defaults(fn=cmd_locsys_mutate)
    lt = lo.add_parser("transition")
    lt.add_argument("--seed", required=True)
    lt.add_argument("--k", type=int, required=True)
    lt.add_argument("--out", default=None)
    lt.set_defaults(fn=cmd_locsys_transition)

    v = sub.add_parser("verify")
    v.add_argument("--suite", choices=["all"] + sorted(SUITES), default="all")
    v.add_argument("--prng", type=int, required=True)
    v.add_argument("--cases", type=int, default=None)
    v.add_argument("--report", default=None)
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CliError as e:
        sys.stderr.write(e.message + "\n")
        return e.code
    except (SeedError, SkeletonError, LocalSystemError, AlmostToricError, ValueError) as e:
        sys.stderr.write(str(e) + "\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
