import numpy as np
import pytest

from bilex.evaluation import spearman
from bilex.retrieval import (
    SimilarityParams,
    align_procrustes,
    apply_alignment,
    hubness_skew,
    retrieve_topk,
)
from bilex.synth import SynthConfig, SynthWorld, gen_bilingual_world, split_gold


def small_cfg(**kw):
    base = dict(vocab_n=150, dim=16, seed=0)
    base.update(kw)
    return SynthConfig(**base)


def cosine_p_at_1(world: SynthWorld, aligned_src) -> float:
    params = SimilarityParams(k_csls=1, top_k=1)
    cands, _ = retrieve_topk(aligned_src, world.tgt, params, metric="cosine")
    return float((cands.cand_ids[:, 0] == np.arange(len(aligned_src))).mean())


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = gen_bilingual_world(small_cfg(noise_sigma=0.2, hub_count=5))
        b = gen_bilingual_world(small_cfg(noise_sigma=0.2, hub_count=5))
        np.testing.assert_array_equal(a.src.matrix, b.src.matrix)
        np.testing.assert_array_equal(a.tgt.matrix, b.tgt.matrix)
        assert a.counts_src == b.counts_src
        assert a.tags_tgt == b.tags_tgt
        np.testing.assert_array_equal(a.rotation, b.rotation)

    def test_different_seeds_differ(self):
        a = gen_bilingual_world(small_cfg(seed=1))
        b = gen_bilingual_world(small_cfg(seed=2))
        assert not np.array_equal(a.src.matrix, b.src.matrix)

    def test_component_streams_independent(self):
        # turning hubs on must not change the frequency tables
        a = gen_bilingual_world(small_cfg(hub_count=0))
        b = gen_bilingual_world(small_cfg(hub_count=10))
        assert a.counts_src == b.counts_src
        assert a.tags_src == b.tags_src
        np.testing.assert_array_equal(a.src.matrix, b.src.matrix)


class TestGeometry:
    def test_noise_free_world_recovers_exactly(self):
        world = gen_bilingual_world(small_cfg(noise_sigma=0.0, hub_count=0))
        W = align_procrustes(world.src, world.tgt, world.gold)
        assert np.abs(W - world.rotation).max() < 1e-5
        aligned = apply_alignment(world.src, W)
        assert cosine_p_at_1(world, aligned) == 1.0

    def test_spaces_are_normalized(self):
        world = gen_bilingual_world(small_cfg(noise_sigma=0.3, hub_count=3))
        np.testing.assert_allclose(np.linalg.norm(world.src.matrix, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(world.tgt.matrix, axis=1), 1.0, atol=1e-9)

    def test_hub_world_raises_cosine_skew(self):
        cfg = dict(vocab_n=2000, dim=64, noise_sigma=0.25, mean_offset=1.0, seed=5)
        hub_free = gen_bilingual_world(SynthConfig(hub_count=0, **cfg))
        hubby = gen_bilingual_world(SynthConfig(hub_count=20, **cfg))
        aligned_free = apply_alignment(hub_free.src, hub_free.rotation)
        aligned_hub = apply_alignment(hubby.src, hubby.rotation)
        params = SimilarityParams(k_csls=10, top_k=10)
        free, _ = retrieve_topk(aligned_free, hub_free.tgt, params, metric="cosine")
        hub, _ = retrieve_topk(aligned_hub, hubby.tgt, params, metric="cosine")
        s_free = hubness_skew(free, 10, len(hub_free.tgt))
        s_hub = hubness_skew(hub, 10, len(hubby.tgt))
        assert s_hub > s_free


class TestLexicalStructure:
    def test_gold_is_bijection(self):
        world = gen_bilingual_world(small_cfg())
        targets = [t for ts in world.gold.entries.values() for t in ts]
        assert len(world.gold.entries) == len(world.src)
        assert sorted(targets) == list(range(len(world.tgt)))

    def test_rank_correlation_above_half(self):
        world = gen_bilingual_world(SynthConfig(vocab_n=500, dim=16, seed=3))
        rho = spearman(world.freq_src.rank.astype(float), world.freq_tgt.rank.astype(float))
        assert rho > 0.5

    def test_pos_agreement_rate_near_config(self):
        world = gen_bilingual_world(SynthConfig(vocab_n=2000, dim=8, pos_match_prob=0.9, seed=4))
        same = sum(world.tags_src[f"s{i:05d}"] == world.tags_tgt[f"t{i:05d}"] for i in range(2000))
        # matches occur with p plus the base rate collision mass
        assert same / 2000 > 0.85

    def test_zipf_counts_decrease_with_rank(self):
        world = gen_bilingual_world(small_cfg())
        by_rank = sorted(range(len(world.src)), key=lambda i: world.freq_src.rank[i])
        counts = [world.counts_src[f"s{i:05d}"] for i in by_rank]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_split_gold_partitions(self):
        world = gen_bilingual_world(small_cfg())
        train, test = split_gold(world, 0.3)
        assert set(train.entries) | set(test.entries) == set(world.gold.entries)
        assert not set(train.entries) & set(test.entries)
        assert len(test.entries) == round(150 * 0.3)


class TestValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(vocab_n=1, dim=8).validate()
        with pytest.raises(ValueError):
            SynthConfig(vocab_n=10, dim=8, noise_sigma=-1).validate()
        with pytest.raises(ValueError):
            SynthConfig(vocab_n=10, dim=8, pos_distribution={"NOUN": 0.5}).validate()
        with pytest.raises(ValueError):
            SynthConfig(vocab_n=10, dim=8, hub_count=11).validate()

    @pytest.mark.parametrize("field", ["noise_sigma", "zipf_exponent", "rank_jitter", "mean_offset", "pos_match_prob"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(vocab_n=10, dim=8, **{field: value}).validate()

    def test_non_finite_pos_share_rejected(self):
        shares = {"NOUN": float("nan"), "VERB": 1.0}
        with pytest.raises(ValueError, match="sum to 1"):
            SynthConfig(vocab_n=10, dim=8, pos_distribution=shares).validate()

    def test_split_fraction_validated(self):
        world = gen_bilingual_world(small_cfg())
        with pytest.raises(ValueError):
            split_gold(world, 1.5)
