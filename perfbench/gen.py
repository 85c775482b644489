"""Seeded input generator for the three benchmark workloads.

`make_pool(workload, seed, workdir)` writes the input documents under
`workdir/in/` and returns the request pool: a list of dicts with the
request `id`, its `kind`, the CLI `argv` (paths relative to `workdir`)
and the `outputs` the CLI writes.  The same (workload, seed) always
gives byte-identical files and the same pool; the pool is also written
to `workdir/pool.json`.

The program only ever sees these files and argv.  Every generated
request has a well-defined answer: exit 0, or exit 3 where the input is
infeasible on purpose (parallel eigenlines, a holonomy with eigenvalue
1); the checks in `checks.py` decide which independently.
"""

import json
import os
import random
from fractions import Fraction
from math import gcd, inf

WORKLOADS = ("cli-cold", "graph-explore", "doc-mix")

# Node budget exported as CLUSTERMIRROR_BUDGET to the graph-explore worker.
GRAPH_BUDGET = 100

# Requests per kind in one doc-mix pool (the mix weights).
DOC_MIX = {
    "seed-mutate": 12,
    "seed-model": 12,
    "base-syz": 12,
    "skeleton-build": 12,
    "skeleton-surgery": 12,
    "base-trade": 16,
    "locsys-mutate": 16,
    "locsys-transition": 4,
    "verify": 4,
}

# cli-cold runs one request of each kind.
COLD_KINDS = ("seed-mutate", "seed-model", "base-syz", "skeleton-build",
              "skeleton-surgery", "base-trade", "locsys-mutate",
              "locsys-transition", "verify")

# graph-explore: seeds per rank, ranks 3..6.  The unfrozen count cycles
# through 2..n and every fourth request is shallow (depth 1-2).
GRAPH_RANKS = (3, 4, 5, 6)
GRAPH_PER_RANK = 24
GRAPH_EPS_BOUND = 4

# seed mutate: largest entry bit length a sequence may reach.
MUTATE_MAX_BITS = 96

# locsys mutate: the largest intersection exponent |s_i| of the handle
# class cycles through these; every eighth request is infeasible.
LOCSYS_BOUNDS = (1, 2, 3, 4, 6, 9, 13, 18, 24)
COLD_LOCSYS_BOUNDS = (3,)

# ---------------------------------------------------------------- lattice bits

def random_unimodular(rng, n, steps):
    """Product of elementary transvections, swaps and sign flips."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        elif op == 1 and i != j:
            M[i], M[j] = M[j], M[i]
        elif op == 2:
            M[i] = [-a for a in M[i]]
    return M


def random_primitive(rng, bound):
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (a, b) != (0, 0) and gcd(a, b) == 1:
            return (a, b)


def seed_doc(n, r, psi, B, d):
    return {"rank": n, "unfrozen": r, "psi": [list(p) for p in psi],
            "B": [list(row) for row in B], "d": list(d)}


def random_seed(rng, n, r, *, b_bound=2, d_choices=(1, 2, 3), steps=None):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = rng.randint(-b_bound, b_bound)
            B[j][i] = -B[i][j]
    d = [rng.choice(d_choices) for _ in range(n)]
    U = random_unimodular(rng, n, steps if steps is not None else n + 2)
    psi = [[U[i][k] for i in range(n)] for k in range(n)]    # columns of U
    return seed_doc(n, r, psi, B, d)


def exchange_eps(doc):
    """eps_ij = psi_i^T B psi_j d_j."""
    n, psi, B, d = doc["rank"], doc["psi"], doc["B"], doc["d"]
    Bpsi = [[sum(B[a][b] * psi[j][b] for b in range(n)) for j in range(n)] for a in range(n)]
    return [[sum(psi[i][a] * Bpsi[a][j] for a in range(n)) * d[j] for j in range(n)]
            for i in range(n)]


def mutate_doc(doc, k, eps=None):
    """psi'_i = psi_i + [eps_ik]_+ psi_k (i != k), psi'_k = -psi_k."""
    eps = eps or exchange_eps(doc)
    pk = doc["psi"][k]
    psi = [[-x for x in pk] if i == k else
           [a + max(eps[i][k], 0) * b for a, b in zip(p, pk)]
           for i, p in enumerate(doc["psi"])]
    return dict(doc, psi=psi)


def chis(doc):
    n, psi, B = doc["rank"], doc["psi"], doc["B"]
    return [[sum(psi[i][a] * B[a][b] for a in range(n)) for b in range(n)]
            for i in range(doc["unfrozen"])]


# ---------------------------------------------------------------- request kinds

class PoolWriter:
    """Writes input files and collects requests for one pool."""

    def __init__(self, rng, workdir, small):
        self.rng = rng
        self.workdir = workdir
        self.small = small
        self.pool = []
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def _write(self, name, doc):
        rel = "in/%s" % name
        with open(os.path.join(self.workdir, rel), "w") as fh:
            fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return rel

    def add(self, kind, *extra):
        """Append one request; `j` counts earlier requests of the kind,
        so shape parameters can cycle (stratified) while content is
        random."""
        rid = "r%03d" % len(self.pool)
        j = sum(1 for req in self.pool if req["kind"] == kind)
        argv, outputs = getattr(self, kind.replace("-", "_"))(rid, j, *extra)
        self.pool.append({"id": rid, "kind": kind, "argv": argv, "outputs": outputs})

    # seed mutate: long sequences on rank 3-6 seeds so integers grow
    def seed_mutate(self, rid, j):
        rng = self.rng
        n = 3 if self.small else 3 + j % 4
        r = rng.randint(2, n)
        doc = random_seed(rng, n, r)
        # entries grow about geometrically along a sequence; stop before
        # they pass MUTATE_MAX_BITS so every request stays answerable
        ks, cur = [], doc
        while len(ks) < (5 if self.small else 30):
            k = rng.randrange(r)
            nxt = mutate_doc(cur, k)
            if max(abs(x) for p in nxt["psi"] for x in p).bit_length() > MUTATE_MAX_BITS:
                break
            ks.append(k)
            cur = nxt
        seq = ",".join(str(k + 1) for k in ks)
        out = "out/%s.json" % rid
        return (["seed", "mutate", "--seed", self._write(rid + "-seed.json", doc),
                 "--sequence", seq, "--out", out], {"out": out})

    def seed_model(self, rid, j):
        rng = self.rng
        n = rng.randint(2, 6)
        doc = random_seed(rng, n, rng.randint(1, n))
        out = "out/%s.json" % rid
        return (["seed", "model", "--seed", self._write(rid + "-seed.json", doc),
                 "--out", out], {"out": out})

    def base_syz(self, rid, j):
        rng = self.rng
        doc = random_seed(rng, 2, rng.randint(1, 2), steps=rng.randint(2, 6))
        svg, js = "out/%s.svg" % rid, "out/%s.json" % rid
        argv = ["base", "syz", "--seed", self._write(rid + "-seed.json", doc),
                "--out", svg, "--json", js]
        if rng.random() < 0.5:
            argv += ["--radii", ",".join(str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                                         for _ in range(doc["unfrozen"]))]
        if rng.random() < 0.3:
            argv += ["--convention", "cocharacter"]
        if rng.random() < 0.3:
            w = rng.randint(2, 6)
            argv.append("--viewport=%d,%d,%d,%d" % (-w, -w, w, w))
        return argv, {"out": svg, "json": js}

    def skeleton_build(self, rid, j):
        rng = self.rng
        while True:
            n = rng.randint(2, 5)
            doc = random_seed(rng, n, rng.randint(1, n))
            if all(any(c) for c in chis(doc)):
                break
        out = "out/%s.json" % rid
        return (["skeleton", "build", "--seed", self._write(rid + "-seed.json", doc),
                 "--out", out], {"out": out})

    def skeleton_surgery(self, rid, j):
        rng = self.rng
        handles, seen, count = [], set(), rng.randint(1, 4)
        while len(handles) < count:
            psi = random_primitive(rng, 6)
            if psi in seen:
                continue
            seen.add(psi)
            handles.append({"psi": list(psi), "chi": [-psi[1], psi[0]], "d": 1})
        doc = {"rank": 2, "handles": handles}
        out = "out/%s.json" % rid
        return (["skeleton", "surgery", "--skeleton", self._write(rid + "-sk.json", doc),
                 "--handle", str(rng.randint(1, len(handles))), "--out", out],
                {"out": out})

    def base_trade(self, rid, j):
        poly, trades = random_traded_polygon(self.rng, 2 if self.small else 4)
        svg, js = "out/%s.svg" % rid, "out/%s.json" % rid
        return (["base", "trade", "--polytope", self._write(rid + "-poly.json", poly),
                 "--trades", self._write(rid + "-trades.json", trades),
                 "--skeleton", "--out", svg, "--json", js], {"out": svg, "json": js})

    def locsys_mutate(self, rid, j):
        rng = self.rng
        bounds = COLD_LOCSYS_BOUNDS if self.small else LOCSYS_BOUNDS
        bound = bounds[j % len(bounds)]
        while True:
            s = random_primitive(rng, bound)
            if max(abs(s[0]), abs(s[1])) == bound:
                break
        rank = 1 + j % 2
        stuck = j % 8 == 7
        doc = {"rank": rank, "loops": 2,
               "holonomies": random_holonomies(rng, rank, s if stuck else None)}
        out = "out/%s.json" % rid
        return (["locsys", "mutate", "--locsys", self._write(rid + "-ls.json", doc),
                 "--handle-class=%d,%d" % s, "--out", out], {"out": out})

    def locsys_transition(self, rid, j):
        rng = self.rng
        b = rng.choice((-3, -2, -1, 1, 2, 3))
        doc = random_seed(rng, 2, rng.randint(1, 2), d_choices=(1,), steps=2)
        doc["B"] = [[0, b], [-b, 0]]
        out = "out/%s.txt" % rid
        return (["locsys", "transition", "--seed", self._write(rid + "-seed.json", doc),
                 "--k", str(rng.randint(1, doc["unfrozen"])), "--out", out],
                {"out": out})

    def verify(self, rid, j):
        rng = self.rng
        out = "out/%s.json" % rid
        cases = 3 if self.small else 8
        return (["verify", "--suite", "all", "--prng", str(rng.randrange(2 ** 31)),
                 "--cases", str(cases), "--report", out], {"report": out})

    def seed_graph(self, rid, j, n):
        rng = self.rng
        while True:       # small exchange entries keep the cost per node even
            doc = random_seed(rng, n, 2 + j % (n - 1))
            if max(abs(x) for row in exchange_eps(doc) for x in row) <= GRAPH_EPS_BOUND:
                break
        depth = rng.randint(1, 2) if j % 4 == 0 else rng.randint(8, 12)
        out = "out/%s.json" % rid
        return (["seed", "graph", "--seed", self._write(rid + "-seed.json", doc),
                 "--depth", str(depth), "--out", out], {"out": out})


def random_holonomies(rng, rank, stuck_class=None):
    """Two commuting invertible rank x rank matrices over Q as strings.

    With `stuck_class` s the holonomy around s gets eigenvalue 1, so the
    mutation there is infeasible (exit 3)."""
    def nonzero():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3)))

    def eig_pair():
        if stuck_class is not None:
            # a^s0 * b^s1 = 1 with a = 2^s1, b = 2^-s0
            s0, s1 = stuck_class
            return Fraction(2) ** s1, Fraction(2) ** (-s0)
        return nonzero(), nonzero()

    if rank == 1:
        a, b = eig_pair()
        return [[[str(a)]], [[str(b)]]]
    a1, b1 = eig_pair()
    a2, b2 = nonzero(), nonzero()
    while True:
        P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
             for _ in range(2)]
        dP = P[0][0] * P[1][1] - P[0][1] * P[1][0]
        if dP != 0:
            break
    Pinv = [[P[1][1] / dP, -P[0][1] / dP], [-P[1][0] / dP, P[0][0] / dP]]

    def conj(x, y):
        D = [[x, 0], [0, y]]
        PD = [[sum(P[i][k] * D[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        return [[str(sum(PD[i][k] * Pinv[k][j] for k in range(2))) for j in range(2)]
                for i in range(2)]

    return [conj(a1, a2), conj(b1, b2)]


def _apply(A, v):
    return (A[0][0] * v[0] + A[0][1] * v[1], A[1][0] * v[0] + A[1][1] * v[1])


def random_traded_polygon(rng, max_trades):
    """A smooth polygon in standard position moved by a random SL(2,Z)
    map and translation, with 1..max_trades trades at distinct vertices.

    Each t is below a fifth of the lattice length of both edges at its
    corner, so excised triangles never overlap.  Rectangles with trades
    at opposite corners and unequal sides have parallel, disjoint
    eigenlines: those requests must exit 3."""
    shape = rng.choice(("quadrant", "chopped", "triangle", "rectangle"))
    a = rng.randint(3, 9)
    b = rng.randint(3, 9)
    # lengths[i]: lattice lengths of the two edges at vertex i
    if shape == "quadrant":
        verts, rays, lengths = [(0, 0)], [(0, 1), (1, 0)], [(inf, inf)]
    elif shape == "chopped":
        verts, rays = [(0, a), (a, 0)], [(0, 1), (1, 0)]
        lengths = [(inf, a), (a, inf)]
    elif shape == "triangle":
        verts, rays = [(0, 0), (a, 0), (0, a)], []
        lengths = [(a, a)] * 3
    else:
        verts, rays = [(0, 0), (a, 0), (a, b), (0, b)], []
        lengths = [(b, a), (a, b), (b, a), (a, b)]
    U = random_unimodular(rng, 2, rng.randint(1, 4))
    if U[0][0] * U[1][1] - U[0][1] * U[1][0] != 1:     # keep the orientation
        U = [U[1], U[0]]
    shift = (rng.randint(-4, 4), rng.randint(-4, 4))
    vs = [tuple(x + y for x, y in zip(_apply(U, v), shift)) for v in verts]
    poly = {"dimension": 2, "vertices": [[str(x) for x in v] for v in vs]}
    if rays:
        poly["rays"] = [list(_apply(U, r)) for r in rays]
    k = rng.randint(1, min(max_trades, len(vs)))
    targets = sorted(rng.sample(range(len(vs)), k))
    trades = []
    for i in targets:
        cap = Fraction(min(*lengths[i], 10), 5)
        t = cap * Fraction(rng.randint(1, 4), 4)
        trades.append({"target": i, "t": str(t)})
    rng.shuffle(trades)
    return poly, {"trades": trades}


# ---------------------------------------------------------------- pools

def make_pool(workload, seed, workdir):
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("clustermirror-bench/%s/%d" % (workload, seed))
    writer = PoolWriter(rng, workdir, small=(workload == "cli-cold"))
    if workload == "graph-explore":
        for n in GRAPH_RANKS:
            for _ in range(GRAPH_PER_RANK):
                writer.add("seed-graph", n)
    else:
        if workload == "cli-cold":
            kinds = list(COLD_KINDS)
        else:
            kinds = [k for k, w in DOC_MIX.items() for _ in range(w)]
            rng.shuffle(kinds)
        for kind in kinds:
            writer.add(kind)
    with open(os.path.join(workdir, "pool.json"), "w") as fh:
        json.dump(writer.pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return writer.pool
