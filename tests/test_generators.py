import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priority_steiner import (
    GeneratorSpec,
    StableRng,
    gen_proportional_pst,
    gen_random_pnwst,
    gen_random_pst,
    gen_tightness_pnwst,
    validate_instance,
)


class TestStableRng:
    def test_bounds_and_determinism(self):
        a = StableRng(123)
        b = StableRng(123)
        seq_a = [a.randint(1, 6) for _ in range(200)]
        seq_b = [b.randint(1, 6) for _ in range(200)]
        assert seq_a == seq_b
        assert all(1 <= x <= 6 for x in seq_a)

    def test_shuffle_is_a_permutation(self):
        rng = StableRng(7)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))


class TestRandomFamilies:
    def test_same_seed_same_instance(self):
        a = gen_random_pst(9, 0.4, 3, 0.5, 42)
        b = gen_random_pst(9, 0.4, 3, 0.5, 42)
        assert a.graph.edges == b.graph.edges
        assert a.edge_weights == b.edge_weights
        assert a.terminals == b.terminals

    def test_different_seeds_differ(self):
        a = gen_random_pst(9, 0.4, 3, 0.5, 1)
        b = gen_random_pst(9, 0.4, 3, 0.5, 2)
        assert (a.graph.edges, a.edge_weights) != (b.graph.edges, b.edge_weights)

    def test_density_one_is_complete(self):
        inst = gen_random_pst(7, 1.0, 1, 0.5, 3)
        assert inst.graph.m == 7 * 6 // 2

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_all_families_validate(self, seed):
        for inst in (
            gen_random_pst(8, 0.4, 3, 0.5, seed),
            gen_random_pnwst(8, 0.4, 3, 0.5, seed),
            gen_proportional_pst(8, 0.4, 3, 0.5, seed),
        ):
            assert validate_instance(inst) == []

    def test_proportional_rows_are_level_multiples(self):
        inst = gen_proportional_pst(8, 0.5, 3, 0.5, 11)
        for row in inst.edge_weights:
            base = row[0]
            assert row == tuple(base * lvl for lvl in (1.0, 2.0, 3.0))

    def test_proportional_coincides_with_random_at_one_level(self):
        a = gen_proportional_pst(9, 0.45, 1, 0.5, 17)
        b = gen_random_pst(9, 0.45, 1, 0.5, 17)
        assert a.graph.edges == b.graph.edges
        assert a.edge_weights == b.edge_weights
        assert a.terminals == b.terminals

    def test_subdividing_random_instance_validates(self):
        from priority_steiner import subdivide_to_node_weighted

        inst = gen_random_pst(8, 0.4, 2, 0.5, 23)
        assert validate_instance(subdivide_to_node_weighted(inst)) == []


class TestTightnessFamily:
    def test_counts(self):
        for t in (2, 3, 6, 10):
            inst = gen_tightness_pnwst(t)
            assert inst.graph.n == 2 * t + 2
            assert inst.graph.m == 3 * t + 1
            assert validate_instance(inst) == []

    def test_three_terminal_weights(self):
        inst = gen_tightness_pnwst(3)
        flat = [row[0] for row in inst.vertex_weights]
        assert flat[:4] == [0.0, 0.0, 0.0, 0.0]  # source and terminals free
        assert flat[4] == 1.0                    # hub
        assert flat[5:] == [0.5, 2 / 3, 1.0]     # bridges, left to right

    def test_rejects_tiny_families(self):
        import pytest

        with pytest.raises(ValueError):
            gen_tightness_pnwst(1)


class TestGeneratorSpec:
    def test_build_round_trip(self):
        spec = GeneratorSpec("random-pst", {"n": 7, "density": 0.4, "k": 2, "seed": 5})
        a = spec.build()
        b = spec.build()
        assert a.graph.edges == b.graph.edges
        assert a.edge_weights == b.edge_weights

    def test_unknown_family_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            GeneratorSpec("nope", {}).build()


# sha256 of write_instance(...) for every family at a few seeds, taken
# before the generators were last tuned for speed: any change to the draws,
# their order or the file format moves a digest.  The n=12 graphs draw
# their extra edges from a shuffled pool of free pairs; the n=300, density
# 0.02 graphs (44,850 pairs, 598 extra) by rejection.
_SMALL = dict(n=12, density=0.4, k=3, terminal_fraction=0.5)
_SPARSE = dict(n=300, density=0.02, k=3, terminal_fraction=0.3)
FROZEN_DIGESTS = [
    ("tightness", dict(t_count=2),
     "247145c1d5a0f237bcac6686c14b5ceb08a27e9b409cb47c787cc39cc12b1286"),
    ("tightness", dict(t_count=7),
     "d54cd6b61f9989f1e947eb4d63aee769812cb9ef946234f2151afba02f553e1e"),
    ("tightness", dict(t_count=12),
     "3156bba0e9d4bf6f5756cce47170d5f5d40fb63e3a41be95c3892b0509844bff"),
    ("random-pst", dict(_SMALL, seed=0),
     "815f30d80ac26f8ff7d90bcc976ed85c07d77121048e66b2aa3928c6171d137b"),
    ("random-pst", dict(_SMALL, seed=1),
     "562ba331b71b545d6223dcf1a10410c527d337207ec4c70b4b959ece48626b76"),
    ("random-pst", dict(_SMALL, seed=2),
     "5e1528816c05ce9a8dae0c1aacabe6997b361e08ceebda7c48e4182c0cfa8a69"),
    ("random-pst", dict(_SPARSE, seed=5),
     "eb2e58313cb35ae72cc166c9f167fb7c193dca93c1537bcf292426a567a69a2b"),
    ("random-pst", dict(_SPARSE, seed=6),
     "0223af683afb2da51464c3eec0bf3224bb85f0829b1c636780afc7a11e4c0694"),
    ("random-pnwst", dict(_SMALL, seed=0),
     "7973842aee4268748e63bce5dd721f4323a8bbfb8cda9ec2b760e1b6f4414cf5"),
    ("random-pnwst", dict(_SMALL, seed=1),
     "562ee9391b9a54ef5125e7f6a90faaee7ea13d7eec567966af67fb2d0bc2c539"),
    ("random-pnwst", dict(_SMALL, seed=2),
     "24e8d2a01e5672046822fd5236e01977edca7441a8668c3a26afa437819f633c"),
    ("random-pnwst", dict(_SPARSE, seed=5),
     "985f151d24c86a6730387f4871ec5005c324b8b8e54d9d0bda752518fe1d4c68"),
    ("random-pnwst", dict(_SPARSE, seed=6),
     "f5ef8742dc022aeae6dfe48398db542bf64dd21c70d1ac49bb7fc558e2e7a303"),
    ("proportional", dict(_SMALL, seed=0),
     "c9d34318242f96c0790274e51ed43db0068718767c26c97f1f2931cb18c3d7d6"),
    ("proportional", dict(_SMALL, seed=1),
     "3c6bf571d8e63780258b062c1cdb0ed0e883e7b1f7f451c2b278f8427a57d409"),
    ("proportional", dict(_SMALL, seed=2),
     "85ed3b640042233b68c7e17d0c254a99e720b5d3abc93f1c8e98b09a1bc3c03a"),
    ("proportional", dict(_SPARSE, seed=5),
     "fd944e7d94f222913a74addaa424a3aaf81cbf2e64663b845a53676e7887a66f"),
    ("proportional", dict(_SPARSE, seed=6),
     "5e4e5072f675a62a8d480e2fef14f9869393ce994f28b4ea03ee22c327b9bdb0"),
]


def test_frozen_digests_cover_every_family():
    from priority_steiner.generators import FAMILIES

    assert {family for family, _, _ in FROZEN_DIGESTS} == set(FAMILIES)


@pytest.mark.parametrize(
    "family,params,digest",
    FROZEN_DIGESTS,
    ids=[f"{f}-{'-'.join(map(str, p.values()))}" for f, p, _ in FROZEN_DIGESTS],
)
def test_frozen_generator_output(family, params, digest):
    import hashlib

    from priority_steiner.fileio import write_instance

    text = write_instance(GeneratorSpec(family, params).build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
