"""The generator: same seed, same questions."""

import random

import workloads


def test_same_seed_same_hash_other_seed_other_hash():
    scale = workloads.SCALES["tiny"]
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7, scale)
        again = workloads.generate(name, 7, scale)
        other = workloads.generate(name, 8, scale)
        assert first.sha256 == again.sha256 and first.ops == again.ops
        assert first.sha256 != other.sha256
        assert first.attempted > 0


def test_engine_and_node_get_the_identical_list():
    scale = workloads.SCALES["tiny"]
    engine = workloads.generate("engine_mixed", 5, scale)
    node = workloads.generate("node_mixed", 5, scale)
    assert engine.ops == node.ops and engine.warmup == node.warmup
    assert engine.sha256 == node.sha256


def test_mix_and_shapes():
    scale = workloads.SCALES["default"]
    inputs = workloads.generate("engine_mixed", 1, scale)
    kinds = [op[0] for op in inputs.ops]
    assert 0.88 < kinds.count("search") / len(kinds) < 0.92
    assert len(set(inputs.catalogue.keys)) == scale.catalogue
    for op in inputs.ops:
        if op[0] == "range":
            low, high = int(op[1], 2), int(op[2], 2)
            leaf = 1 << (scale.key_bits - scale.maxl)
            assert high - low + 1 == scale.range_leaves * leaf and low % leaf == 0
    zipf = workloads.generate("engine_zipf", 1, scale)
    assert sum(op[0] == "rebalance" for op in zipf.ops) == scale.zipf_ops // scale.rebalance_every
    assert len({op[-1] for op in zipf.ops if op[0] == "search"}) <= scale.zipf_origins
    assert zipf.attempted == scale.zipf_ops


def test_zipf_sampler_follows_the_inverse_cdf():
    sampler = workloads.ZipfSampler(100, 1.0)
    rng = random.Random(3)
    draws = [sampler.sample(rng) for _ in range(20000)]
    harmonic = sum(1.0 / (rank + 1) for rank in range(100))
    assert abs(draws.count(0) / len(draws) - 1.0 / harmonic) < 0.02
    assert draws.count(0) > draws.count(1) > draws.count(5) > draws.count(50)
    assert max(draws) <= 99
