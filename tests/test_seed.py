import contextlib
import io
import json
import random
import tempfile
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustermirror import cli, seed as seed_module
from clustermirror.lattice import det
from clustermirror.seed import (Seed, SeedError, exchange_graph,
                                exchange_matrix, is_skew_symmetrizable,
                                matrix_mutation_oracle, mutate,
                                mutate_sequence, seed_equivalent,
                                deserialize_seed, serialize_seed)
from clustermirror.verify import random_seed_corpus

A2 = Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 1))
FIXTURES = Path(__file__).parent / "fixtures"


def test_exchange_matrix_examples():
    assert exchange_matrix(A2).eps == ((0, 1), (-1, 0))
    s = Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 2))
    assert exchange_matrix(s).eps == ((0, 2), (-1, 0))
    z = Seed(2, 2, ((1, 0), (0, 1)), ((0, 0), (0, 0)), (1, 1))
    assert exchange_matrix(z).eps == ((0, 0), (0, 0))


def test_exchange_matrix_is_double_sum_randomized():
    # the definition eps_ij = psi_i^T B psi_j d_j, summed term by term
    rng = random.Random(5)
    for _ in range(300):
        s = random_seed_corpus(rng)
        n = s.n
        expected = tuple(
            tuple(sum(s.psi[i][a] * s.B[a][b] * s.psi[j][b]
                      for a in range(n) for b in range(n)) * s.d[j]
                  for j in range(n))
            for i in range(n))
        assert exchange_matrix(s).eps == expected
        k = rng.randrange(s.r)
        m = mutate(s, k)
        assert m.psi[k] == tuple(-x for x in s.psi[k])
        for i in range(n):
            if i != k:
                assert m.psi[i] == tuple(s.psi[i][a] + max(expected[i][k], 0) * s.psi[k][a]
                                         for a in range(n))


def test_mutate_examples():
    assert mutate(A2, 1).psi == ((1, 1), (0, -1))
    assert mutate(A2, 0).psi == ((-1, 0), (0, 1))
    z = Seed(2, 2, ((1, 0), (0, 1)), ((0, 0), (0, 0)), (1, 1))
    assert mutate(z, 0).psi == ((-1, 0), (0, 1))


def test_mutate_validates_index():
    with pytest.raises(SeedError):
        mutate(A2, 2)
    frozen = Seed(2, 1, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 1))
    with pytest.raises(SeedError):
        mutate(frozen, 1)
    # a bad index mid-sequence is caught at its own step
    for ks in ([0, 1, 2, 0], [0, -1], [0, 1, 0, 1, 5]):
        with pytest.raises(SeedError):
            mutate_sequence(A2, ks)
    with pytest.raises(SeedError):
        mutate_sequence(frozen, [0, 0, 1])


def test_oracle_examples():
    e = exchange_matrix(A2)
    assert matrix_mutation_oracle(e, 0).eps == ((0, -1), (1, 0))
    from clustermirror.seed import ExchangeMatrix
    z = ExchangeMatrix(((0, 0), (0, 0)))
    assert matrix_mutation_oracle(z, 1).eps == ((0, 0), (0, 0))
    a3 = ExchangeMatrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
    assert matrix_mutation_oracle(a3, 1).eps == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_seed_equivalence():
    assert seed_equivalent(A2, A2)
    swapped = Seed(2, 2, ((0, 1), (1, 0)), ((0, 1), (-1, 0)), (1, 1))
    assert seed_equivalent(A2, swapped)
    assert not seed_equivalent(A2, mutate(A2, 0))


def test_double_mutation_is_transvection():
    rng = random.Random(7)
    for _ in range(200):
        s = random_seed_corpus(rng)
        eps = exchange_matrix(s)
        k = rng.randrange(s.r)
        s2 = mutate(mutate(s, k), k)
        assert exchange_matrix(s2).eps == eps.eps
        for i in range(s.n):
            if i == k:
                assert s2.psi[i] == s.psi[i]
            else:
                assert s2.psi[i] == tuple(
                    s.psi[i][a] + eps.eps[i][k] * s.psi[k][a] for a in range(s.n))


def test_mutation_matches_oracle_randomized():
    rng = random.Random(11)
    for _ in range(300):
        s = random_seed_corpus(rng)
        k = rng.randrange(s.r)
        m = mutate(s, k)
        assert exchange_matrix(m).eps == matrix_mutation_oracle(exchange_matrix(s), k).eps
        assert is_skew_symmetrizable(exchange_matrix(m), s.d)
        assert (m.B, m.d, m.n, m.r) == (s.B, s.d, s.n, s.r)
        basis = tuple(tuple(m.psi[j][i] for j in range(m.n)) for i in range(m.n))
        assert det(basis) in (1, -1)


def test_five_step_sequence_frozen():
    # iterating the mutation formula 1,2,1,2,1 lands on the k=1 mutation
    # of the initial seed, not on an unfrozen swap of it; the pentagon
    # only closes at the exchange-matrix level (see the acceptance test)
    s5 = mutate_sequence(A2, [0, 1, 0, 1, 0])
    assert s5.psi == ((-1, 0), (0, 1))
    assert seed_equivalent(s5, mutate(A2, 0))
    other = mutate_sequence(A2, [1, 0, 1, 0, 1])
    assert other.psi == ((-1, 0), (1, 1))


def test_epsilon_pentagon_closes():
    e = exchange_matrix(A2)
    for k in (0, 1, 0, 1, 0):
        e = matrix_mutation_oracle(e, k)
    # the result is the index swap of the starting matrix
    swapped = tuple(tuple(exchange_matrix(A2).eps[1 - i][1 - j] for j in range(2))
                    for i in range(2))
    assert e.eps == swapped


def test_graph_trivial_cases():
    z = Seed(2, 1, ((1, 0), (0, 1)), ((0, 0), (0, 0)), (1, 1))
    g = exchange_graph(z, 2)
    assert len(g["nodes"]) == 2 and not g["truncated"]
    g0 = exchange_graph(A2, 0)
    assert len(g0["nodes"]) == 1


def test_graph_depth6_frozen():
    g = exchange_graph(A2, 6)
    assert len(g["nodes"]) == 46
    assert not g["truncated"]


@pytest.mark.parametrize("seed, depth, budget, golden", [
    ("a2_seed.json", 6, None, "a2_graph_depth6.json"),
    # depth 0: the input seed alone, and "edges": []
    ("a2_seed.json", 0, None, "a2_graph_depth0.json"),
    # rank 4, one frozen vector, multipliers (1, 2, 1, 3); the budget cuts
    # a layer short, so the order of new nodes decides which ones are kept
    ("rank4_frozen_seed.json", 10, "40", "rank4_frozen_graph.json"),
    # rank 5, two frozen vectors, multipliers (1, 2, 3, 1, 2); the budget
    # keeps 23 of the 107 new nodes of the fifth layer
    ("rank5_frozen_seed.json", 8, "100", "rank5_frozen_graph.json"),
])
def test_graph_golden_output(tmp_path, monkeypatch, seed, depth, budget, golden):
    if budget is not None:
        monkeypatch.setenv("CLUSTERMIRROR_BUDGET", budget)
    out = tmp_path / "graph.json"
    assert cli.main(["seed", "graph", "--seed", str(FIXTURES / seed),
                     "--depth", str(depth), "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / golden).read_bytes()


def test_graph_deterministic_and_budget(monkeypatch):
    g1 = exchange_graph(A2, 4)
    g2 = exchange_graph(A2, 4)
    assert g1 == g2
    monkeypatch.setenv("CLUSTERMIRROR_BUDGET", "10")
    small = exchange_graph(A2, 6)
    assert small["truncated"]
    assert len(small["nodes"]) == 10


def _count_validations(monkeypatch):
    calls = []
    real = seed_module.validate_seed

    def counted(s):
        calls.append(s)
        real(s)
    monkeypatch.setattr(seed_module, "validate_seed", counted)
    return calls


@pytest.mark.parametrize("seed, depth, budget", [
    ("a2_seed.json", 6, None),
    ("rank4_frozen_seed.json", 10, "40"),
    ("rank5_frozen_seed.json", 8, "100"),
    ("rank5_frozen_seed.json", 3, None),
])
def test_graph_validates_each_new_node_once(monkeypatch, seed, depth, budget):
    # exchange_graph itself validates no node it derives; each new node is
    # validated once when it is built as a Seed, and passes
    if budget is not None:
        monkeypatch.setenv("CLUSTERMIRROR_BUDGET", budget)
    s = deserialize_seed(json.loads((FIXTURES / seed).read_text()))
    calls = _count_validations(monkeypatch)
    g = exchange_graph(s, depth)
    assert calls == []
    for psi in g["nodes"][1:]:
        Seed(s.n, s.r, psi, s.B, s.d)
    assert len(calls) == len(g["nodes"]) - 1
    assert [c.psi for c in calls] == g["nodes"][1:]


def test_mutate_sequence_validates_once(monkeypatch):
    # each mutate_sequence or mutate call validates its result once, and
    # not the intermediate bases; the result's document is validated
    # once more when it is read back, and passes
    calls = _count_validations(monkeypatch)
    m = mutate_sequence(A2, [0, 1, 0, 1, 0])
    assert m.psi == ((-1, 0), (0, 1))
    assert calls == [m]
    m1 = mutate(A2, 1)
    assert m1.psi == ((1, 1), (0, -1))
    assert calls == [m, m1]
    assert deserialize_seed(serialize_seed(m)) == m
    assert calls == [m, m1, m]


def _reference_graph(s, depth, budget):
    """Breadth-first search built only from mutate and seed_equivalent:
    every child is a Seed from mutate, found nodes are looked up by a
    linear scan, and new nodes of a layer are kept in the order of
    their whole serialized text.  Each node's text is json.dumps of its
    psi."""
    nodes, edges, truncated, frontier = [s], set(), False, [0]
    for _ in range(depth):
        if truncated or not frontier:
            break
        discovered = []
        for nid in frontier:
            for k in range(s.r):
                child = mutate(nodes[nid], k)
                found = [i for i, x in enumerate(nodes) if seed_equivalent(child, x)]
                if found:
                    edges.add((nid, found[0], k))
                else:
                    text = json.dumps(serialize_seed(child), sort_keys=True)
                    discovered.append((text, nid, k, child))
        discovered.sort(key=lambda item: item[0])
        frontier = []
        for _, src, k, child in discovered:
            found = [i for i, x in enumerate(nodes) if seed_equivalent(child, x)]
            if found:
                edges.add((src, found[0], k))
            elif len(nodes) >= budget:
                truncated = True
            else:
                frontier.append(len(nodes))
                edges.add((src, len(nodes), k))
                nodes.append(child)
    return {"nodes": [x.psi for x in nodes], "texts": [json.dumps(x.psi) for x in nodes],
            "edges": sorted(edges), "truncated": truncated}


@st.composite
def graph_seeds(draw):
    """A rank 3-6 seed: skew B with entries in [-2, 2], d in {1, 2, 3},
    psi the identity under a few random row additions."""
    n = draw(st.integers(3, 6))
    r = draw(st.integers(1, n))
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = draw(st.integers(-2, 2))
            B[j][i] = -B[i][j]
    d = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    psi = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(pairs, max_size=4)):
        if i != j:
            psi[i] = [a + c * b for a, b in zip(psi[i], psi[j])]
    return Seed(n, r, tuple(map(tuple, psi)), tuple(map(tuple, B)), d)


@st.composite
def permuted_seed_pairs(draw):
    """A seed s and the seed t made from s by permuting its unfrozen
    (psi_i, d_i) pairs and, half the time, one perturbation: the d of two
    unfrozen vectors swapped, one psi_i negated, or one frozen entry
    changed (a frozen d raised by 1, or another basis vector added to a
    frozen psi_i, so t stays a seed)."""
    s = draw(graph_seeds())
    n, r = s.n, s.r
    perm = draw(st.permutations(range(r)))
    psi = [s.psi[i] for i in perm] + list(s.psi[r:])
    d = [s.d[i] for i in perm] + list(s.d[r:])
    change = draw(st.sampled_from([None, None, None, "swap d", "negate", "frozen"]))
    if change == "swap d" and r >= 2:
        i, j = draw(st.permutations(range(r)))[:2]
        d[i], d[j] = d[j], d[i]
    elif change == "negate":
        i = draw(st.integers(0, n - 1))
        psi[i] = tuple(-a for a in psi[i])
    elif change == "frozen" and r < n:
        i = draw(st.integers(r, n - 1))
        if draw(st.booleans()):
            d[i] += 1
        else:
            j = draw(st.integers(0, n - 2))
            j += j >= i
            psi[i] = tuple(a + b for a, b in zip(psi[i], psi[j]))
    return s, Seed(n, r, tuple(psi), s.B, tuple(d))


def _equivalent_by_search(s, t):
    """seed_equivalent's definition, decided by trying every permutation
    of the unfrozen indices."""
    if (s.n, s.r, s.B, s.psi[s.r:], s.d[s.r:]) != (t.n, t.r, t.B, t.psi[t.r:], t.d[t.r:]):
        return False
    return any(all((s.psi[p], s.d[p]) == (t.psi[i], t.d[i]) for i, p in enumerate(perm))
               for perm in permutations(range(s.r)))


@settings(max_examples=200, deadline=None)
@given(permuted_seed_pairs())
def test_seed_equivalent_matches_permutation_search(pair):
    s, t = pair
    expected = _equivalent_by_search(s, t)
    assert seed_equivalent(s, t) == expected
    assert seed_equivalent(t, s) == expected


@settings(max_examples=60, deadline=None)
@given(graph_seeds(), st.integers(1, 8), st.integers(1, 60))
@example(Seed(3, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
              ((0, 1, 0), (-1, 0, 1), (0, -1, 0)), (1, 2, 1)), 2, 60)     # not truncated
@example(Seed(4, 3, ((1, 0, 0, 0), (1, 1, 0, 0), (0, -1, 1, 0), (0, 0, 1, 1)),
              ((0, 1, -1, 0), (-1, 0, 1, 1), (1, -1, 0, 2), (0, -1, -2, 0)),
              (1, 2, 1, 3)), 8, 30)                                        # truncated
def test_graph_matches_reference_search(s, depth, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CLUSTERMIRROR_BUDGET", str(budget))
        assert exchange_graph(s, depth) == _reference_graph(s, depth, budget)


@settings(max_examples=60, deadline=None)
@given(graph_seeds(), st.integers(1, 8), st.integers(1, 60),
       st.lists(st.integers(0, 5), max_size=8))
def test_derived_seeds_stay_valid(s, depth, budget, ks):
    # exchange_graph validates no node it derives; every node it emits,
    # rebuilt as a Seed, still passes validate_seed
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CLUSTERMIRROR_BUDGET", str(budget))
        calls = _count_validations(mp)
        g = exchange_graph(s, depth)
        assert calls == []
    for psi in g["nodes"]:
        seed_module.validate_seed(s._replace(psi=psi))
    # mutation at k multiplies psi by E_k, and det E_k = -1
    ks = [k % s.r for k in ks]
    m = mutate_sequence(s, ks)
    seed_module.validate_seed(m)
    assert det(m.psi) == (-1) ** len(ks) * det(s.psi)


@pytest.mark.parametrize("seed, depth", [("a2_seed.json", 4), ("rank5_frozen_seed.json", 3)])
def test_graph_returns_bases_and_edge_triples(seed, depth):
    # a node is its basis alone, the input seed's first, and its text is
    # json.dumps of that basis; an edge is a (source, target, mutation
    # index) triple, and the edges come sorted
    s = deserialize_seed(json.loads((FIXTURES / seed).read_text()))
    g = exchange_graph(s, depth)
    assert set(g) == {"nodes", "texts", "edges", "truncated"} and len(g["nodes"]) > 1
    assert g["nodes"][0] == s.psi
    assert g["texts"] == [json.dumps(psi) for psi in g["nodes"]]
    for psi in g["nodes"]:
        assert type(psi) is tuple and len(psi) == s.n
        for p in psi:
            assert type(p) is tuple and len(p) == s.n and all(type(x) is int for x in p)
    assert g["edges"] and g["edges"] == sorted(set(g["edges"]))
    for e in g["edges"]:
        assert type(e) is tuple and len(e) == 3 and all(type(x) is int for x in e)


@settings(max_examples=60, deadline=None)
@given(graph_seeds(), st.integers(0, 8), st.integers(1, 60))
@example(A2, 0, 60)                                                      # "edges": []
@example(Seed(3, 0, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
              ((0, 1, 0), (-1, 0, 1), (0, -1, 0)), (1, 2, 1)), 3, 60)   # unfrozen = 0
@example(A2, 3, 1)                                                       # truncated
@example(A2, 6, 60)                                                      # 46 nodes
@example(Seed(1, 1, ((1,),), ((0,),), (1,)), 2, 60)                     # psi [[1]], [[-1]]
@example(Seed(0, 0, (), (), ()), 1, 60)                                 # psi []
@example(Seed(2, 2, ((13, -4), (-10, 3)), ((0, 3), (-3, 0)), (1, 2)), 6, 60)   # multi-digit
def test_graph_output_matches_json_dumps(s, depth, budget):
    # seed graph writes each node from one node text and its psi's compact
    # text; its bytes are still those of json.dumps on the whole graph
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setenv("CLUSTERMIRROR_BUDGET", str(budget))
        path = Path(tmp) / "seed.json"
        path.write_text(json.dumps(serialize_seed(s)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["seed", "graph", "--seed", str(path),
                             "--depth", str(depth)]) == 0
        g = exchange_graph(s, depth)
    doc = {"nodes": [dict(serialize_seed(s), psi=psi) for psi in g["nodes"]],
           "edges": [{"source": a, "target": b, "mutation": k} for a, b, k in g["edges"]],
           "truncated": g["truncated"]}
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_serialize_seed_returns_fresh_lists():
    a, b = serialize_seed(A2), serialize_seed(A2)
    for key in ("psi", "B", "d"):
        assert a[key] is not b[key]
    for x, y in zip(a["psi"] + a["B"], b["psi"] + b["B"]):
        assert x is not y
    a["B"][0][1] = 7
    a["psi"][0].append(9)
    a["d"].append(9)
    assert serialize_seed(A2) == b


def test_budget_env(monkeypatch):
    monkeypatch.setenv("CLUSTERMIRROR_BUDGET", "5")
    g = exchange_graph(A2, 6)
    assert g["truncated"] and len(g["nodes"]) == 5
    monkeypatch.delenv("CLUSTERMIRROR_BUDGET")
    from clustermirror.seed import node_budget
    assert node_budget() == 10000


def test_serialization_roundtrip():
    doc = serialize_seed(A2)
    assert doc == {"rank": 2, "unfrozen": 2, "psi": [[1, 0], [0, 1]],
                   "B": [[0, 1], [-1, 0]], "d": [1, 1]}
    assert deserialize_seed(doc) == A2


def test_invalid_seeds_rejected():
    with pytest.raises(SeedError):
        Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (1, 0)), (1, 1))       # not skew
    with pytest.raises(SeedError):
        Seed(2, 2, ((1, 0), (2, 0)), ((0, 1), (-1, 0)), (1, 1))      # not a basis
    with pytest.raises(SeedError):
        Seed(2, 2, ((1, 0), (1, 0)), ((0, 1), (-1, 0)), (1, 1))      # repeated vector
    with pytest.raises(SeedError):
        Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 0))      # bad d
