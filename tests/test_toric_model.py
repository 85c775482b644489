import random

from clustermirror.seed import Seed, mutate
from clustermirror.toric_model import (blowup_characters, fan_from_seed,
                                       model_to_json, toric_model)
from clustermirror.verify import random_seed_corpus

A2 = Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 1))


def test_fan_examples():
    assert fan_from_seed(A2).rays == (((1, 0), 1), ((0, 1), 1))
    s = Seed(2, 2, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (2, 1))
    assert fan_from_seed(s).rays == (((1, 0), 2), ((0, 1), 1))
    frozen_only = Seed(2, 0, ((1, 0), (0, 1)), ((0, 1), (-1, 0)), (1, 1))
    assert fan_from_seed(frozen_only).rays == ()


def test_fan_rays_distinct_randomized():
    # psi is a Z-basis, so no two rays coincide, before or after mutation
    rng = random.Random(11)
    for _ in range(100):
        seeds = [random_seed_corpus(rng)]
        for _ in range(5):
            seeds.append(mutate(seeds[-1], rng.randrange(seeds[-1].r)))
        for s in seeds:
            rays = [psi for psi, _d in fan_from_seed(s).rays]
            assert len(set(rays)) == len(rays)


def test_blowup_characters():
    assert blowup_characters(A2) == [(0, 1), (-1, 0)]
    z = Seed(2, 2, ((1, 0), (0, 1)), ((0, 0), (0, 0)), (1, 1))
    assert blowup_characters(z) == [(0, 0), (0, 0)]


def test_chi_annihilates_psi_randomized():
    rng = random.Random(3)
    for _ in range(100):
        s = random_seed_corpus(rng)
        for i, chi in enumerate(blowup_characters(s)):
            assert sum(c * p for c, p in zip(chi, s.psi[i])) == 0


def test_local_presentation():
    rec = toric_model(A2).presentations[0]
    assert rec["relation"] == "x1*x1' = y^(0,1) + 1"
    assert not rec["degenerate"]
    z = Seed(2, 2, ((1, 0), (0, 1)), ((0, 0), (0, 0)), (1, 1))
    zrec = toric_model(z).presentations[0]
    assert zrec["degenerate"] and zrec["relation"].endswith("= 2")


def test_mutate_model():
    # eps_21 = -1, so ray 2 is untouched and only ray 1 reverses
    assert toric_model(mutate(A2, 0)).fan.rays == (((-1, 0), 1), ((0, 1), 1))
    assert toric_model(mutate(A2, 1)).fan.rays == (((1, 1), 1), ((0, -1), 1))
    z = Seed(2, 2, ((1, 0), (0, 1)), ((0, 0), (0, 0)), (1, 1))
    assert toric_model(mutate(z, 1)).fan.rays == (((1, 0), 1), ((0, -1), 1))


def test_mutation_flips_exactly_the_ray():
    rng = random.Random(5)
    for _ in range(100):
        s = random_seed_corpus(rng)
        k = rng.randrange(s.r)
        m = mutate(s, k)
        assert m.psi[k] == tuple(-x for x in s.psi[k])
        assert m.d == s.d


def test_model_json():
    doc = model_to_json(toric_model(A2))
    assert doc["rays"] == [{"psi": [1, 0], "d": 1}, {"psi": [0, 1], "d": 1}]
    assert doc["chi"] == [[0, 1], [-1, 0]]
    assert len(doc["loci"]) == 2
