"""Per-request output checks.

`check(req, code, outputs, budget)` returns None when the CLI's answer
to a generated request is right, else a one-line reason.  `outputs`
maps each output name of the request, plus "stdout", to its bytes (None
when the file was not written).

Expected answers are recomputed here from the input documents with
small, separate implementations of the paper's rules (basis mutation,
exchange matrices, the local-system rule, corner charts, circle
classes), not with the package's code paths under test.  The package
is used only for its reference oracle `seed.matrix_mutation_oracle`
and for the `*_from_json` parsers that outputs must round-trip through.
A request whose right answer is exit 3 passes only when the check
finds the infeasibility itself.
"""

import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import floor, gcd

from clustermirror.local_system import deserialize_local_system, serialize_local_system
from clustermirror.seed import (ExchangeMatrix, deserialize_seed, matrix_mutation_oracle,
                                serialize_seed)
from clustermirror.skeleton import skeleton_from_json, skeleton_to_json
from gen import chis, exchange_eps, mutate_doc

SUITE_ORDER = ["epsilon", "dictionary", "duality", "smoothness", "coherence"]


class CheckFailed(Exception):
    pass


def require(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args if args else msg)


def _arg(argv, flag):
    for i, tok in enumerate(argv):
        if tok == flag:
            return argv[i + 1]
        if tok.startswith(flag + "="):
            return tok[len(flag) + 1:]
    return None


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _json(outputs, name):
    raw = outputs.get(name)
    require(raw is not None, "missing output %s", name)
    return json.loads(raw)


# ---------------------------------------------------------------- small algebra

def mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def ident(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def det_small(A):
    if len(A) == 1:
        return A[0][0]
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def inv_small(A):
    d = Fraction(det_small(A))
    if len(A) == 1:
        return [[1 / d]]
    return [[A[1][1] / d, -A[0][1] / d], [-A[1][0] / d, A[0][0] / d]]


def mat_pow(A, e):
    if e < 0:
        A, e = inv_small(A), -e
    out = ident(len(A))
    while e:
        if e & 1:
            out = mat_mul(out, A)
        A = mat_mul(A, A)
        e >>= 1
    return out


def egcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def primitive(v):
    g = 0
    for a in v:
        g = gcd(g, a)
    return [a // g for a in v]


def strs(M):
    return [[str(x) for x in row] for row in M]


# ---------------------------------------------------------------- seeds

def canonical_key(doc):
    r = doc["unfrozen"]
    pairs = sorted((tuple(p), d) for p, d in zip(doc["psi"][:r], doc["d"][:r]))
    return (tuple(pairs), tuple(map(tuple, doc["psi"][r:])), tuple(doc["d"][r:]))


def _seed_roundtrips(doc):
    require(serialize_seed(deserialize_seed(doc)) == doc, "seed does not round-trip")


def check_seed_mutate(req, code, outputs, budget):
    require(code == 0, "exit %s", code)
    doc = _load(_arg(req["argv"], "--seed"))
    for tok in filter(None, _arg(req["argv"], "--sequence").split(",")):
        doc = mutate_doc(doc, int(tok) - 1)
    got = _json(outputs, "out")
    require(got == doc, "mutated seed differs from the basis mutation rule")
    _seed_roundtrips(got)


def check_seed_graph(req, code, outputs, budget):
    require(code == 0, "exit %s", code)
    seed = _load(_arg(req["argv"], "--seed"))
    g = _json(outputs, "out")
    nodes, edges = g["nodes"], g["edges"]
    require(nodes and nodes[0] == seed, "node 0 is not the input seed")
    require(len(nodes) <= budget, "%d nodes exceed the budget %d", len(nodes), budget)
    require(not g["truncated"] or len(nodes) == budget, "truncated below the budget")
    keys = set()
    for node in nodes:
        require((node["rank"], node["unfrozen"], node["B"], node["d"])
                == (seed["rank"], seed["unfrozen"], seed["B"], seed["d"]),
                "node changes B, d or the frozen split")
        keys.add(canonical_key(node))
    # distinct canonical keys <=> no two nodes are seed_equivalent
    require(len(keys) == len(nodes), "two nodes are equivalent seeds")
    r, n = seed["unfrozen"], seed["rank"]
    eps = [exchange_eps(node) for node in nodes]
    seen = set()
    for e in edges:
        a, b, k = e["source"], e["target"], e["mutation"]
        require(0 <= a < len(nodes) and 0 <= b < len(nodes) and 0 <= k < r, "bad edge %s", e)
        require((a, b, k) not in seen, "duplicate edge %s", e)
        seen.add((a, b, k))
        child = mutate_doc(nodes[a], k, eps[a])
        require(canonical_key(child) == canonical_key(nodes[b]),
                "edge %s: target is not the mutated source", e)
        oracle = matrix_mutation_oracle(ExchangeMatrix(tuple(map(tuple, eps[a]))), k).eps
        # node b may list the unfrozen vectors of the child in another order
        where = {tuple(p): i for i, p in enumerate(nodes[b]["psi"])}
        perm = [where[tuple(p)] for p in child["psi"]]
        require(all(eps[b][perm[i]][perm[j]] == oracle[i][j]
                    for i in range(n) for j in range(n)),
                "edge %s: target exchange matrix disagrees with the mutation oracle", e)


def check_seed_model(req, code, outputs, budget):
    require(code == 0, "exit %s", code)
    seed = _load(_arg(req["argv"], "--seed"))
    m = _json(outputs, "out")
    r, psi = seed["unfrozen"], seed["psi"]
    require(m["rank"] == seed["rank"], "wrong rank")
    require(m["rays"] == [{"psi": psi[i], "d": seed["d"][i]} for i in range(r)], "wrong rays")
    require(m["chi"] == chis(seed), "wrong blowup characters")
    require(len(m["loci"]) == r and len(m["presentations"]) == r, "one locus per ray")
    for i, p in enumerate(m["presentations"]):
        require(p["relation"].startswith("x%d*x%d' = " % (i + 1, i + 1)), "bad relation")


# ---------------------------------------------------------------- svg

def check_svg(raw):
    """Parse as XML, no nan/inf; return the elements."""
    require(raw is not None, "missing svg")
    text = raw.decode()
    require(not re.search(r"nan|inf", text, re.IGNORECASE), "svg contains nan or inf")
    try:
        root = ET.fromstring(raw)
    except ET.ParseError as e:
        raise CheckFailed("svg does not parse: %s" % e)
    require(root.tag.endswith("svg"), "root element is not svg")
    return list(root)


def _count(elems, tag, **attrs):
    return sum(1 for e in elems if e.tag.endswith(tag)
               and all(e.get(k) == v for k, v in attrs.items()))


# ---------------------------------------------------------------- SYZ bases

def check_base_syz(req, code, outputs, budget):
    require(code == 0, "exit %s", code)
    seed = _load(_arg(req["argv"], "--seed"))
    r = seed["unfrozen"]
    raw = _arg(req["argv"], "--radii")
    radii = [Fraction(x) for x in raw.split(",")] if raw else [Fraction(1)] * r
    cochar = _arg(req["argv"], "--convention") == "cocharacter"
    base = _json(outputs, "json")
    require(base["convention"] == ("cocharacter" if cochar else "character"), "convention")
    sings = base["singularities"]
    require(len(sings) == r, "one singularity per ray")
    for (a, b), rad, s in zip(seed["psi"][:r], radii, sings):
        pos = [str(rad * a), str(rad * b)]
        M = [[1 + a * b, -a * a], [b * b, 1 - a * b]]
        if cochar:
            M = [list(row) for row in zip(*M)]
        require(s["direction"] == [a, b] and s["position"] == pos, "singularity placement")
        require(s["monodromy"] == M, "monodromy differs from I + psi (J psi)^T")
        require(s["cut"] == {"origin": pos, "direction": [a, b]}, "branch cut")
    elems = check_svg(outputs.get("out"))
    require(_count(elems, "path", stroke="red") == r, "one cross per singularity")


# ---------------------------------------------------------------- skeleta

def check_skeleton_build(req, code, outputs, budget):
    require(code == 0, "exit %s", code)
    seed = _load(_arg(req["argv"], "--seed"))
    want = {"rank": seed["rank"], "handles": [
        {"psi": seed["psi"][i], "d": seed["d"][i], "chi": primitive(chi)}
        for i, chi in enumerate(chis(seed))]}
    got = _json(outputs, "out")
    require(got == want, "handles differ from (psi_i, primitive psi_i^T B, d_i)")
    require(skeleton_to_json(skeleton_from_json(got)) == got, "skeleton does not round-trip")


def check_skeleton_surgery(req, code, outputs, budget):
    require(code == 0, "exit %s", code)
    sk = _load(_arg(req["argv"], "--skeleton"))
    k = int(_arg(req["argv"], "--handle")) - 1

    def circle(p):
        return [-p[1], p[0]]

    s = [circle(h["psi"]) for h in sk["handles"]]
    s_k = s[k]
    handles = []
    for j, h in enumerate(sk["handles"]):
        m = s[j][0] * s_k[1] - s[j][1] * s_k[0]
        if j == k:
            new = [-s_k[0], -s_k[1]]
        elif m > 0:
            new = [s[j][0] + m * s_k[0], s[j][1] + m * s_k[1]]
        else:
            new = s[j]
        psi = [new[1], -new[0]]
        handles.append({"psi": psi, "chi": circle(psi), "d": h["d"]})
    got = _json(outputs, "out")
    require(got == {"rank": 2, "handles": handles}, "surgery differs from the circle rule")
    require(skeleton_to_json(skeleton_from_json(got)) == got, "skeleton does not round-trip")


# ---------------------------------------------------------------- nodal trades

FOCUS_FOCUS = [[2, 1], [-1, 0]]


def _corner(poly, i):
    vs = [[Fraction(x) for x in v] for v in poly["vertices"]]
    rays = poly.get("rays") or []

    def direction(p, q):
        diff = [b - a for a, b in zip(p, q)]
        den = 1
        for x in diff:
            den = den * x.denominator // gcd(den, x.denominator)
        return primitive([int(x * den) for x in diff])

    back = direction(vs[i], vs[i - 1]) if i > 0 or not rays else list(rays[0])
    last = i == len(vs) - 1
    fwd = direction(vs[i], vs[(i + 1) % len(vs)]) if not (last and rays) else list(rays[1])
    return vs[i], back, fwd


def _consistent(eqs):
    """Do the lines n . x = c (2 unknowns) have a common point?"""
    rows = [[Fraction(a), Fraction(b), Fraction(c)] for (a, b), c in eqs]
    rank = 0
    for col in range(2):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return all(row[2] == 0 for row in rows[rank:])


def check_base_trade(req, code, outputs, budget):
    poly = _load(_arg(req["argv"], "--polytope"))
    trades = _load(_arg(req["argv"], "--trades"))["trades"]
    want = []
    for tr in trades:
        v, a, b = _corner(poly, tr["target"])
        t = Fraction(tr["t"])
        d = a[0] * b[1] - a[1] * b[0]
        require(d in (1, -1), "generated corner %s is not smooth", tr["target"])
        eigen = primitive([a[0] + b[0], a[1] + b[1]])
        pos = [v[0] + t * (a[0] + b[0]), v[1] + t * (a[1] + b[1])]
        # chart M sends the corner edges to e1, e2 (swapped when d = -1)
        M = inv_small([[a[0], b[0]], [a[1], b[1]]])
        if d == -1:
            M = [M[1], M[0]]
        Mt = [list(row) for row in zip(*M)]
        mono = mat_mul(mat_mul(Mt, FOCUS_FOCUS), inv_small(Mt))
        want.append({"position": [str(x) for x in pos], "eigen": eigen,
                     "monodromy": [[int(x) for x in row] for row in mono]})
    lines = [((-s["eigen"][1], s["eigen"][0]),
              -s["eigen"][1] * Fraction(s["position"][0])
              + s["eigen"][0] * Fraction(s["position"][1])) for s in want]
    if not _consistent(lines):
        require(code == 3, "eigenlines have no common point, yet exit %s", code)
        return
    require(code == 0, "exit %s", code)
    base = _json(outputs, "json")
    require(base == {"dimension": 2, "singularities": want, "interactions": []},
            "trade singularities differ from the corner-chart rule")
    elems = check_svg(outputs.get("out"))
    require(_count(elems, "path", stroke="red") == len(trades), "one cross per trade")
    require(_count(elems, "line", stroke="blue") == len(trades), "one disk segment per trade")
    require(_count(elems, "circle", fill="blue") == 1, "one basepoint")


# ---------------------------------------------------------------- local systems

def _holonomy(hol, c):
    out = ident(len(hol[0]))
    for A, e in zip(hol, c):
        out = mat_mul(out, mat_pow(A, e))
    return out


def _transversal(s):
    """t with <t, s> = -1, reduced to the one nearest s^perp."""
    a, b = s
    g, x, y = egcd(b, a)                 # x*b + y*a = 1
    t = (-x, y)
    lam = floor(Fraction(t[0] * a + t[1] * b, a * a + b * b) + Fraction(1, 2))
    return (t[0] - lam * a, t[1] - lam * b)


def check_locsys_mutate(req, code, outputs, budget):
    doc = _load(_arg(req["argv"], "--locsys"))
    hol = [[[Fraction(x) for x in row] for row in A] for A in doc["holonomies"]]
    s = tuple(int(x) for x in _arg(req["argv"], "--handle-class").split(","))
    n = len(hol[0])
    E_s = _holonomy(hol, s)
    factor = [[int(i == j) - E_s[i][j] for j in range(n)] for i in range(n)]
    if det_small(factor) == 0:
        require(code == 3, "holonomy around %s has eigenvalue 1, yet exit %s", s, code)
        return
    require(code == 0, "exit %s", code)
    new = []
    for c in ((1, 0), (0, 1)):
        m = c[0] * s[1] - c[1] * s[0]
        twisted = (c[0] + m * s[0], c[1] + m * s[1])
        new.append(strs(mat_mul(mat_pow(factor, -m), _holonomy(hol, twisted))))
    adapted = [strs(E_s), strs(mat_mul(factor, _holonomy(hol, _transversal(s))))]
    got = _json(outputs, "out")
    require(got == {"rank": n, "loops": 2, "holonomies": new, "adapted": adapted},
            "mutated local system differs from (I - E_s)^(-<c,s>) E_tau(c)")
    plain = {k: v for k, v in got.items() if k != "adapted"}
    require(serialize_local_system(deserialize_local_system(plain)) == plain,
            "local system does not round-trip")


_TERM = re.compile(r"^[x12 0-9*/+\-()]+$")
POINTS = ((Fraction(2, 3), Fraction(5, 7)), (Fraction(-3, 2), Fraction(7, 5)))


def _eval_rational(expr, x1, x2):
    require(_TERM.match(expr), "unexpected token in %r", expr)
    code = re.sub(r"\b(\d+)\b", r"F(\1)", expr)
    return eval(code, {"__builtins__": {}}, {"F": Fraction, "x1": x1, "x2": x2})


def check_locsys_transition(req, code, outputs, budget):
    require(code == 0, "exit %s", code)
    seed = _load(_arg(req["argv"], "--seed"))
    psi = seed["psi"][int(_arg(req["argv"], "--k")) - 1]
    s = (-psi[1], psi[0])
    raw = outputs.get("out")
    require(raw is not None, "missing output")
    lines = raw.decode().splitlines()
    require(len(lines) == 2, "expected two chart functions")
    for i, (c, line) in enumerate(zip(((1, 0), (0, 1)), lines)):
        head = "x%d' = " % (i + 1)
        require(line.startswith(head), "bad line %r", line)
        m = c[0] * s[1] - c[1] * s[0]
        tw = (c[0] + m * s[0], c[1] + m * s[1])
        for x1, x2 in POINTS:
            want = (1 - x1 ** s[0] * x2 ** s[1]) ** (-m) * x1 ** tw[0] * x2 ** tw[1]
            got = _eval_rational(line[len(head):], x1, x2)
            require(isinstance(got, Fraction) and got == want,
                    "x%d' disagrees with (1 - x^s)^(-<c,s>) x^tau(c)", i + 1)


# ---------------------------------------------------------------- verify

def check_verify(req, code, outputs, budget):
    require(code == 0, "exit %s", code)
    cases = int(_arg(req["argv"], "--cases"))
    rep = _json(outputs, "report")
    require(rep["passed"] is True and rep["prng"] == int(_arg(req["argv"], "--prng")),
            "report not passed")
    require([s["suite"] for s in rep["suites"]] == SUITE_ORDER, "suites run")
    for s in rep["suites"]:
        require(s["passed"] is True and s["cases"] == cases and not s["failures"],
                "suite %s: passed=%s cases=%s", s["suite"], s["passed"], s["cases"])
    want = "".join("%-12s pass (%d cases)\n" % (name, cases) for name in SUITE_ORDER)
    require(outputs.get("stdout") == want.encode(), "verify summary lines")


CHECKS = {
    "seed-mutate": check_seed_mutate,
    "seed-graph": check_seed_graph,
    "seed-model": check_seed_model,
    "base-syz": check_base_syz,
    "base-trade": check_base_trade,
    "skeleton-build": check_skeleton_build,
    "skeleton-surgery": check_skeleton_surgery,
    "locsys-mutate": check_locsys_mutate,
    "locsys-transition": check_locsys_transition,
    "verify": check_verify,
}


def check(req, code, outputs, budget):
    """None if the answer is right, else the reason it is not."""
    try:
        CHECKS[req["kind"]](req, code, outputs, budget)
    except CheckFailed as e:
        return "%s %s: %s" % (req["id"], req["kind"], e)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as e:
        return "%s %s: malformed output (%s: %s)" % (req["id"], req["kind"],
                                                     type(e).__name__, e)
    return None
