"""Cluster seeds, exchange matrices, mutation, exchange graphs.

A seed is a Z-basis psi of Z^n together with an integer skew form B
(so the form pairs u, v as u^T B v), a count r of unfrozen basis
vectors (always the first r), and positive integer multipliers d.  The
exchange matrix is eps_ij = psi_i^T B psi_j * d_j.

Mutation at an unfrozen index k replaces

    psi'_i = psi_i + [eps_ik]_+ psi_k   (i != k),
    psi'_k = -psi_k,

with [r]_+ = max(0, r), and leaves B, d and the frozen split alone.
Note this basis-level operation is not an involution: mutating twice
at k is the transvection psi''_i = psi_i + eps_ik psi_k.  The exchange
matrix, by contrast, does return to itself, which is the invariant the
tests quantify over.
"""

import json
import os
from collections import namedtuple
from itertools import repeat
from operator import add, mul

from .lattice import _DIGIT_BOUND, _MAX_EXPONENT, Validated, as_int, det, ints, malformed


class SeedError(ValueError):
    pass


class Seed(Validated, namedtuple("Seed", "n r psi B d")):
    """psi: n vectors, each a tuple of n ints (columns of the basis); B:
    n x n skew-symmetric integer matrix; d: n positive integers.  Every
    Seed passes validate_seed.  Equality is tuple equality."""
    __slots__ = ()

    def __new__(cls, n, r, psi, B, d):
        s = tuple.__new__(cls, (n, r, psi, B, d))
        validate_seed(s)
        return s


def validate_seed(s):
    if not (0 <= s.r <= s.n):
        raise SeedError("unfrozen count out of range")
    if len(s.psi) != s.n or any(len(p) != s.n for p in s.psi):
        raise SeedError("psi must be n vectors of length n")
    if len(s.B) != s.n or any(len(row) != s.n for row in s.B):
        raise SeedError("B must be n x n")
    for i in range(s.n):
        for j in range(s.n):
            if s.B[i][j] != -s.B[j][i]:
                raise SeedError("B must be skew-symmetric")
    if len(s.d) != s.n or any(di < 1 for di in s.d):
        raise SeedError("multipliers must be positive")
    # psi holds the basis as rows; det is transpose-invariant
    if det(s.psi) not in (1, -1):
        raise SeedError("psi must be a Z-basis (determinant +-1)")


class ExchangeMatrix(Validated, namedtuple("ExchangeMatrix", "eps")):
    """A square matrix eps; equality is tuple equality."""
    __slots__ = ()

    def __new__(cls, eps):
        n = len(eps)
        if any(len(row) != n for row in eps):
            raise SeedError("exchange matrix must be square")
        return tuple.__new__(cls, (eps,))


def _column(psi, B, d, k):
    """Column k of the exchange matrix: eps_ik = psi_i^T (B psi_k) d_k.

    B psi_k is formed once, so the column costs O(n^2).
    """
    pk = psi[k]
    Bpk = [sum(map(mul, row, pk)) for row in B]
    dk = d[k]
    return [sum(map(mul, p, Bpk)) * dk for p in psi]


def exchange_matrix(s):
    return ExchangeMatrix(tuple(zip(*(_column(s.psi, s.B, s.d, j) for j in range(s.n)))))


def is_skew_symmetrizable(eps, d):
    n = len(eps.eps)
    return all(
        d[i] * eps.eps[i][j] == -d[j] * eps.eps[j][i]
        for i in range(n) for j in range(n)
    )


def plus(r):
    return r if r > 0 else 0


def _mutated_psi(psi, B, d, k):
    """The basis psi after mutation at k, with no check of k or of the
    result; callers check both.  As in _column, B psi_k is formed once;
    each row's coefficient eps_ik and its update then take one pass."""
    pk = psi[k]
    Bpk = [sum(map(mul, row, pk)) for row in B]
    dk = d[k]
    new_psi = []
    for p in psi:
        c = sum(map(mul, p, Bpk))    # eps_ik / d_k, positive as eps_ik is
        new_psi.append(tuple(map(add, p, map(mul, repeat(c * dk), pk))) if c > 0 else p)
    new_psi[k] = tuple(-a for a in pk)
    return tuple(new_psi)


def mutate(s, k):
    """Mutation at unfrozen index k (0-based)."""
    return mutate_sequence(s, (k,))


def mutate_sequence(s, ks):
    """Mutations at the unfrozen indices ks, in order.

    Each index is checked before its step, and the step's entries after
    it: an entry of more than _MAX_EXPONENT (4300) digits is past the
    integer budget, which no writer could print, and as the digits can
    double with each step the sequence stops there.  exchange_graph
    makes no such check."""
    psi = s.psi
    for step, k in enumerate(ks, 1):
        if not (0 <= k < s.r):
            raise SeedError("mutation only at unfrozen vectors")
        psi = _mutated_psi(psi, s.B, s.d, k)
        if any(abs(x) >= _DIGIT_BOUND for p in psi for x in p):
            raise SeedError("mutation step %d makes an entry of more than %d digits, "
                            "past the integer budget" % (step, _MAX_EXPONENT))
    return Seed(s.n, s.r, psi, s.B, s.d)


def matrix_mutation_oracle(em, k):
    """Matrix mutation computed directly on eps, independent of bases.

    eps'_ij = -eps_ij if k in {i,j}, else
              eps_ij + [eps_ik]_+ eps_kj + eps_ik [-eps_kj]_+.
    Used to cross-check mutate via exchange_matrix.
    """
    e = em.eps
    n = len(e)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-e[i][j])
            else:
                row.append(e[i][j] + plus(e[i][k]) * e[k][j] + e[i][k] * plus(-e[k][j]))
        out.append(tuple(row))
    return ExchangeMatrix(tuple(out))


def seed_equivalent(s1, s2):
    """Equality up to a permutation of the unfrozen (psi, d) pairs.

    The frozen part must match on the nose; B must be identical.  This is
    the equivalence exchange_graph identifies nodes by.
    """
    return ((s1.n, s1.r, s1.B, s1.d[s1.r:]) == (s2.n, s2.r, s2.B, s2.d[s2.r:])
            and _node_key(s1.psi, s1.r, s1.d) == _node_key(s2.psi, s2.r, s2.d))


def _node_key(psi, r, d):
    """The sorted unfrozen (psi_i, d_i) pairs and the frozen psi."""
    return tuple(sorted(zip(psi[:r], d[:r]))), psi[r:]


def serialize_seed(s):
    """The document of s; every list in it is fresh."""
    return {"rank": s.n, "unfrozen": s.r, "psi": [list(p) for p in s.psi],
            "B": [list(row) for row in s.B], "d": list(s.d)}


def deserialize_seed(doc):
    with malformed(SeedError, "seed"):
        return Seed(as_int(doc["rank"]), as_int(doc["unfrozen"]),
                    tuple(ints(p) for p in doc["psi"]),
                    tuple(ints(row) for row in doc["B"]), ints(doc["d"]))


DEFAULT_BUDGET = 10000


def node_budget():
    """The node budget of exchange_graph: CLUSTERMIRROR_BUDGET if set,
    else DEFAULT_BUDGET."""
    raw = os.environ.get("CLUSTERMIRROR_BUDGET", "")
    try:
        budget = int(raw) if raw else DEFAULT_BUDGET
    except ValueError:
        budget = 0    # not an integer: rejected with the same message
    if budget < 1:
        raise SeedError("CLUSTERMIRROR_BUDGET must be a positive integer")
    return budget


def exchange_graph(s, depth):
    """Breadth-first exchange graph out to the given mutation depth.

    Nodes are seeds up to unfrozen permutation, returned as their bases
    psi, node 0 being s.psi, and under "texts", in the same order, as the
    JSON text json.dumps(psi) of each; edges are sorted (source, target,
    mutation index) triples.  Output is deterministic: layers are
    explored in order and new nodes within a layer are sorted by that
    text.  That is the order of their whole serialized form
    (`json.dumps(serialize_seed(child), sort_keys=True)`): mutation
    leaves rank, unfrozen, B and d alone, so those agree on every node,
    and with sorted keys the texts first differ inside "psi".  A psi
    text is one balanced JSON list, so neither of two such texts is a
    prefix of the other, and they compare as the whole texts do.  If the
    node budget is exceeded the graph is returned partial with
    truncated=True; node_budget() sets the budget.

    Nodes are kept as bare bases psi, and no Seed is built for a node
    the graph derives, so validate_seed never runs on one.  None of its
    checks could fail there: mutation at k sends psi to E_k psi, where
    E_k is the identity but for column k, E[i][k] = [eps_ik]_+ (i != k)
    and E[k][k] = -1, so det E_k = -1 and psi stays a Z-basis.  Nodes
    are keyed by _node_key, since n, r, B and d are shared by every
    node.
    """
    if depth < 0:
        raise SeedError("depth must be nonnegative")
    budget = node_budget()
    r, B, d = s.r, s.B, s.d
    nodes = [s.psi]                      # bases in discovery order
    texts = [json.dumps(s.psi)]
    index = {_node_key(s.psi, r, d): 0}  # node key -> node id
    edges = set()
    truncated = False
    frontier = [0]
    for _ in range(depth):
        if truncated or not frontier:
            break
        discovered = []   # (sort key, psi, source id, mutation index, node key)
        for nid in frontier:
            psi = nodes[nid]
            for k in range(r):
                child = _mutated_psi(psi, B, d, k)
                ckey = _node_key(child, r, d)
                if ckey in index:
                    edges.add((nid, index[ckey], k))
                else:
                    # the psi text sorts as the serialized seed would (see above)
                    discovered.append((json.dumps(child), child, nid, k, ckey))
        discovered.sort(key=lambda item: item[0])
        frontier = []
        for text, child, src, k, ckey in discovered:
            if ckey in index:
                edges.add((src, index[ckey], k))
                continue
            if len(nodes) >= budget:
                truncated = True
                continue
            cid = len(nodes)
            nodes.append(child)
            texts.append(text)
            index[ckey] = cid
            frontier.append(cid)
            edges.add((src, cid, k))
    return {"nodes": nodes, "texts": texts, "edges": sorted(edges), "truncated": truncated}
