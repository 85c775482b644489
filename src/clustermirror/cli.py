"""Command-line interface.

Subcommands: seed mutate|graph|model, base syz|trade,
skeleton build|surgery, locsys mutate|transition, verify.

Exit codes: 0 success, 1 invariant failure, 2 input validation or an
unwritable output path, 3 infeasibility.  All randomized suites require
an explicit PRNG seed and identical inputs always produce byte-identical
outputs.

This module imports only the standard library, and each cmd_* function
imports the package modules it runs, so a cold start loads only what
its subcommand needs.  An exception picks its own exit code through an
`exit_code` attribute (3 on `NotMutable` and `InfeasibleBase`); every
other ValueError exits 2.
"""

import argparse
import json
import os
import sys
from contextlib import ExitStack
from json.encoder import encode_basestring_ascii

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3

# verify.SUITES in its order, and syz_base.CHARACTER and COCHARACTER,
# repeated here so that building the parser imports neither module
_SUITES = ("epsilon", "dictionary", "duality", "smoothness", "coherence")
_CONVENTIONS = ("character", "cocharacter")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ValueError("cannot read %s: %s" % (path, e))
    except UnicodeDecodeError as e:
        raise ValueError("%s: not UTF-8 text (%s)" % (path, e))
    except json.JSONDecodeError as e:
        raise ValueError("%s: invalid JSON at line %d column %d" % (path, e.lineno, e.colno))
    except RecursionError:
        raise ValueError("%s: JSON nested too deeply" % path)


def _write(path, text, *more):
    """Write text to path, and each further (path, text) pair in more;
    a path of None or "-" is standard output.

    Every file is opened before any is written, without truncating it,
    and on an error the files this call created are removed, so a
    request that fails leaves no partial output behind and every file
    that existed before it unchanged.  Regular files that existed are
    truncated once every path is open (a device such as /dev/null
    cannot be, and a file this call created is already empty).  Two
    paths that open one file are refused, as writing both would mix them."""
    outputs = ((path, text),) + more
    created, existing, opened = [], [], {}
    try:
        with ExitStack() as stack:
            streams = []
            for p, _ in outputs:
                if p is None or p == "-":
                    streams.append(sys.stdout)
                    continue
                new = not os.path.exists(p)
                fh = stack.enter_context(open(p, "a"))
                streams.append(fh)
                if new:
                    created.append(p)
                elif os.path.isfile(p):
                    existing.append(fh)
                st = os.fstat(fh.fileno())
                key = (st.st_dev, st.st_ino)
                if key in opened:
                    raise OSError("the same file as %s" % opened[key])
                opened[key] = p
            for fh in existing:
                fh.truncate(0)
            for fh, (p, t) in zip(streams, outputs):
                fh.write(t)
    except OSError as e:
        for q in created:
            os.remove(q)
        raise ValueError("cannot write %s: %s" % (p, e))


def _dump_json(doc):
    """doc as text whose bytes equal json.dumps(doc, indent=2,
    sort_keys=True) + "\n".

    json.dumps is not called because with `indent` set CPython drops its
    C encoder for the pure-Python one, which takes about 2x this
    writer's time on exchange graphs and 2.7x on the other documents
    (Python 3.11).  Only exact types are written: dict with str keys,
    list, tuple (as a list), str, int, bool and None.  Anything else, a
    float, a non-str key or a subclass, raises TypeError, so no float
    can reach an output."""
    out = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(x, nl, out):
    """Append x to out, laid out as json.dumps(indent=2) would lay it
    out at the indentation that nl (a newline and spaces) opens."""
    t = type(x)
    if t is str:
        out.append(encode_basestring_ascii(x))
    elif t is int:
        out.append(str(x))
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict:
        if not x:
            out.append("{}")
            return
        if not all(type(k) is str for k in x):
            raise TypeError("JSON object keys must be str")
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write_json(x[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    else:
        raise TypeError("cannot write %s as exact JSON" % t.__name__)


def _parse_sequence(raw, r):
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            k = int(tok)
        except ValueError:
            raise ValueError("bad mutation index %r" % tok)
        if not (1 <= k <= r):
            raise ValueError("mutation index %d out of range (1..%d)" % (k, r))
        out.append(k - 1)
    return out


def _parse_handle_class(raw):
    try:
        s = tuple(int(x) for x in raw.split(","))
    except ValueError as e:
        raise ValueError("bad handle class: %s" % e)
    if len(s) != 2:
        raise ValueError("handle class must be two integers")
    return s


def cmd_seed_mutate(args):
    from .seed import deserialize_seed, mutate_sequence, serialize_seed
    s = deserialize_seed(_load_json(args.seed))
    s = mutate_sequence(s, _parse_sequence(args.sequence, s.r))
    _write(args.out, _dump_json(serialize_seed(s)))


def cmd_seed_graph(args):
    """Write the graph document from exchange_graph's data.  The frame
    and the node text that every node shares are laid out by _write_json
    around a "\x00" placeholder, unique as the document's only strings
    are keys.  Each node's psi is its compact JSON text, expanded.  psi
    holds only ints, read by as_int and changed only by int arithmetic,
    so in that text "], [" and ", " occur only between rows and between
    entries, "[[" and "]]" only at the ends (an empty psi "[]" has
    neither), and no float can reach the output."""
    from .seed import deserialize_seed, exchange_graph, serialize_seed
    s = deserialize_seed(_load_json(args.seed))
    g = exchange_graph(s, args.depth)
    mark = encode_basestring_ascii("\x00")
    # "edges" sorts before "nodes"
    head, mid, tail = _dump_json({"edges": "\x00", "nodes": "\x00",
                                  "truncated": g["truncated"]}).split(mark)
    node = []
    _write_json(dict(serialize_seed(s), psi="\x00"), "\n    ", node)
    before, _, after = "".join(node).partition(mark)
    edge = '{\n      "mutation": %d,\n      "source": %d,\n      "target": %d\n    }'
    edges = ",\n    ".join([edge % (k, a, b) for a, b, k in g["edges"]])
    nodes = (after + ",\n    " + before).join([
        t.replace("], [", "\n        ],\n        [\n          ").replace(", ", ",\n          ")
        .replace("[[", "[\n        [\n          ").replace("]]", "\n        ]\n      ]")
        for t in g["texts"]])
    _write(args.out, "".join((head, "[\n    " + edges + "\n  ]" if edges else "[]", mid,
                              "[\n    ", before, nodes, after, "\n  ]", tail)))


def cmd_seed_model(args):
    from .seed import deserialize_seed
    from .toric_model import model_to_json, toric_model
    m = toric_model(deserialize_seed(_load_json(args.seed)))
    _write(args.out, _dump_json(model_to_json(m)))


def cmd_base_syz(args):
    from .lattice import rationals
    from .seed import deserialize_seed
    from .syz_base import (COCHARACTER, VIEWPORT, base_from_fan, base_to_json,
                           render_svg, toggle_convention)
    from .toric_model import fan_from_seed
    fan = fan_from_seed(deserialize_seed(_load_json(args.seed)))
    radii = rationals(args.radii.split(",")) if args.radii else None
    base = base_from_fan(fan, radii)
    viewport = VIEWPORT
    if args.viewport:
        viewport = rationals(args.viewport.split(","))
        if (len(viewport) != 4 or viewport[0] >= viewport[2]
                or viewport[1] >= viewport[3]):
            raise ValueError("viewport must be xmin,ymin,xmax,ymax with "
                             "xmin < xmax and ymin < ymax")
    if args.convention == COCHARACTER:
        base = toggle_convention(base)
    extra = [(args.json, _dump_json(base_to_json(base)))] if args.json else []
    _write(args.out, render_svg(base, viewport), *extra)


def cmd_base_trade(args):
    from .almost_toric import (apply_trades, base_to_json, common_basepoint,
                               polytope_from_json, render_svg, trades_from_json)
    poly = polytope_from_json(_load_json(args.polytope))
    trades = trades_from_json(_load_json(args.trades))
    base = apply_trades(poly, trades)
    if poly.dimension > 2 and args.out is None:
        # only 2D bases render; without an explicit --out an nD base is
        # written as its JSON document alone
        _write(args.json, _dump_json(base_to_json(base)))
        return
    # the basepoint is only drawn, so only a 2D base needs one
    q = common_basepoint(base)[0] if args.skeleton and poly.dimension == 2 else None
    extra = [(args.json, _dump_json(base_to_json(base)))] if args.json else []
    _write(args.out, render_svg(base, q=q), *extra)


def cmd_skeleton_build(args):
    from .seed import deserialize_seed
    from .skeleton import skeleton_from_seed, skeleton_to_json
    sk = skeleton_from_seed(deserialize_seed(_load_json(args.seed)))
    _write(args.out, _dump_json(skeleton_to_json(sk)))


def cmd_skeleton_surgery(args):
    from .skeleton import disk_surgery, skeleton_from_json, skeleton_to_json
    sk = skeleton_from_json(_load_json(args.skeleton))
    out = disk_surgery(sk, args.handle - 1)
    _write(args.out, _dump_json(skeleton_to_json(out)))


def cmd_locsys_mutate(args):
    from .lattice import rational_strings
    from .local_system import (deserialize_local_system, mutate_local_system,
                               serialize_local_system)
    ls = deserialize_local_system(_load_json(args.locsys))
    out, adapted = mutate_local_system(ls, _parse_handle_class(args.handle_class))
    doc = serialize_local_system(out)
    doc["adapted"] = [[rational_strings(row) for row in A] for A in adapted]
    _write(args.out, _dump_json(doc))


def cmd_locsys_transition(args):
    from .local_system import chart_transition
    from .seed import deserialize_seed
    fns = chart_transition(deserialize_seed(_load_json(args.seed)), args.k - 1)
    _write(args.out, "".join("x%d' = %s\n" % (i + 1, f) for i, f in enumerate(fns)))


def cmd_verify(args):
    from .verify import SUITES, run_suites
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.prng, args.cases)
    all_ok = all(r["passed"] for r in reports)
    doc = {"prng": args.prng, "suites": reports, "passed": all_ok}
    path = args.report or (None if all_ok else "verify-counterexamples.json")
    if path:
        _write(path, _dump_json(doc))
    for r in reports:
        sys.stdout.write("%-12s %s (%d cases)\n"
                         % (r["suite"], "pass" if r["passed"] else "FAIL", r["cases"]))
    if not all_ok:
        sys.stdout.write("counterexamples written to %s\n" % path)
        return EXIT_INVARIANT


def build_parser():
    # --out and --seed are declared once and shared as argparse parents
    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument("--out", default=None)
    seed_opt = argparse.ArgumentParser(add_help=False)
    seed_opt.add_argument("--seed", required=True)
    out, seed_out = [out_opt], [seed_opt, out_opt]

    p = argparse.ArgumentParser(prog="clustermirror")
    sub = p.add_subparsers(dest="group", required=True)

    seed = sub.add_parser("seed").add_subparsers(dest="cmd", required=True)
    sm = seed.add_parser("mutate", parents=seed_out)
    sm.add_argument("--sequence", required=True)
    sm.set_defaults(fn=cmd_seed_mutate)
    sg = seed.add_parser("graph", parents=seed_out)
    sg.add_argument("--depth", type=int, required=True)
    sg.set_defaults(fn=cmd_seed_graph)
    seed.add_parser("model", parents=seed_out).set_defaults(fn=cmd_seed_model)

    base = sub.add_parser("base").add_subparsers(dest="cmd", required=True)
    bs = base.add_parser("syz", parents=seed_out)
    bs.add_argument("--json", default=None)
    bs.add_argument("--radii", default=None)
    bs.add_argument("--viewport", default=None)
    bs.add_argument("--convention", choices=list(_CONVENTIONS), default=_CONVENTIONS[0])
    bs.set_defaults(fn=cmd_base_syz)
    bt = base.add_parser("trade", parents=out)
    bt.add_argument("--polytope", required=True)
    bt.add_argument("--trades", required=True)
    bt.add_argument("--json", default=None)
    bt.add_argument("--skeleton", action="store_true")
    bt.set_defaults(fn=cmd_base_trade)

    sk = sub.add_parser("skeleton").add_subparsers(dest="cmd", required=True)
    sk.add_parser("build", parents=seed_out).set_defaults(fn=cmd_skeleton_build)
    ss = sk.add_parser("surgery", parents=out)
    ss.add_argument("--skeleton", required=True)
    ss.add_argument("--handle", type=int, required=True)
    ss.set_defaults(fn=cmd_skeleton_surgery)

    lo = sub.add_parser("locsys").add_subparsers(dest="cmd", required=True)
    lm = lo.add_parser("mutate", parents=out)
    lm.add_argument("--locsys", required=True)
    lm.add_argument("--handle-class", required=True)
    lm.set_defaults(fn=cmd_locsys_mutate)
    lt = lo.add_parser("transition", parents=seed_out)
    lt.add_argument("--k", type=int, required=True)
    lt.set_defaults(fn=cmd_locsys_transition)

    v = sub.add_parser("verify")
    v.add_argument("--suite", choices=["all"] + sorted(_SUITES), default="all")
    v.add_argument("--prng", type=int, required=True)
    v.add_argument("--cases", type=int, default=None)
    v.add_argument("--report", default=None)
    v.set_defaults(fn=cmd_verify)
    return p


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        # Built on the first call, not at import, and kept for the life of
        # the process.  That first call fixes the fn=cmd_* bindings; later
        # changes to them are not seen.  parse_args keeps no state between
        # calls.
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else 0
    try:
        # a command returns nothing, or EXIT_INVARIANT when verify fails
        return args.fn(args) or EXIT_OK
    except ValueError as e:
        sys.stderr.write(str(e) + "\n")
        # infeasibility exceptions carry EXIT_INFEASIBLE as their exit_code
        return getattr(e, "exit_code", EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
