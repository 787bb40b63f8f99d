import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilex.corpus import (
    ALL_TAGS,
    DataFormatError,
    TranslationDictionary,
    Vocabulary,
    frequency_table_from_counts,
    pos_table_from_tags,
)
from bilex.features import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    N_FEATURES,
    ExternalScores,
    FeatureSchema,
    build_groups,
    load_external_scores,
    write_feature_matrix,
)
from bilex.retrieval import CandidateSet
from conftest import grid, write
from reference import apply_mask, featurize_pair, label_candidates


@pytest.fixture
def world():
    src_vocab = Vocabulary.from_words(["s0", "s1", "s2"])
    tgt_vocab = Vocabulary.from_words(["t0", "t1", "t2", "t3"])
    freq_src = frequency_table_from_counts({"s0": 1000, "s1": 100, "s2": 10}, src_vocab)
    freq_tgt = frequency_table_from_counts({"t0": 800, "t1": 80, "t2": 8, "t3": 4}, tgt_vocab)
    pos_src = pos_table_from_tags({"s0": "NOUN", "s1": "VERB", "s2": "ADJ"}, src_vocab)
    pos_tgt = pos_table_from_tags({"t0": "NOUN", "t1": "VERB", "t2": "NOUN", "t3": "ADV"}, tgt_vocab)
    return src_vocab, tgt_vocab, freq_src, freq_tgt, pos_src, pos_tgt


def simple_cands(n_src=3, top_k=3):
    src_ids = np.arange(n_src)
    cand_ids = np.tile(np.arange(top_k), (n_src, 1))
    scores = np.tile(np.linspace(1.0, 0.5, top_k), (n_src, 1))
    return CandidateSet.from_arrays(src_ids, cand_ids, scores)


class TestSchema:
    def test_layout(self):
        assert N_FEATURES == 46
        assert FEATURE_NAMES[0] == "csls"
        assert FEATURE_NAMES[9] == "pos_match"
        assert FEATURE_NAMES[10] == "src_pos_ADJ"
        assert FEATURE_NAMES[27] == "src_pos_UNK"
        assert FEATURE_NAMES[28] == "cand_pos_ADJ"
        assert FEATURE_NAMES[45] == "cand_pos_UNK"
        assert len(ALL_TAGS) == 18

    def test_fingerprint_changes_with_mask(self):
        assert FeatureSchema().fingerprint() != FeatureSchema(disabled=("pos",)).fingerprint()
        assert FeatureSchema(disabled=("pos",)).fingerprint() == FeatureSchema(disabled=("pos",)).fingerprint()

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema(disabled=("bogus",))

    def test_mask_zeroes_columns_only(self, world):
        _, _, fs, ft, ps, pt = world
        vec = featurize_pair(0, 0, 0.9, 1.5, fs, ft, ps, pt)
        masked = apply_mask(FeatureSchema(disabled=("pos", "freq")), vec[None, :])[0]
        assert not masked[list(FEATURE_GROUPS["pos"])].any()
        assert not masked[list(FEATURE_GROUPS["freq"])].any()
        np.testing.assert_array_equal(masked[:3], vec[:3])


class TestLabelCandidates:
    def test_membership(self):
        dic = TranslationDictionary(entries={0: (0, 2)})
        labels = label_candidates(0, [0, 1, 2], dic)
        assert labels.tolist() == [1, 0, 1]

    def test_empty_candidates_rejected(self):
        dic = TranslationDictionary(entries={0: (0,)})
        with pytest.raises(ValueError, match="empty"):
            label_candidates(0, [], dic)


class TestFeaturizePair:
    def test_pos_match_and_one_hot(self, world):
        _, _, fs, ft, ps, pt = world
        vec = featurize_pair(0, 0, 0.9, None, fs, ft, ps, pt)  # NOUN/NOUN
        assert vec[9] == 1.0
        noun = ALL_TAGS.index("NOUN")
        assert vec[10 + noun] == 1.0 and vec[10:28].sum() == 1.0
        assert vec[28 + noun] == 1.0 and vec[28:46].sum() == 1.0

    def test_pos_mismatch(self, world):
        _, _, fs, ft, ps, pt = world
        vec = featurize_pair(0, 1, 0.9, None, fs, ft, ps, pt)  # NOUN vs VERB
        assert vec[9] == 0.0

    def test_zipf_difference(self, world):
        src_vocab, tgt_vocab, *_ = world
        fs = frequency_table_from_counts({"s0": 10**6}, src_vocab)
        ft = frequency_table_from_counts({"t0": 10**6}, tgt_vocab)
        fs.zipf[0], ft.zipf[0] = 6.0, 4.5
        _, _, _, _, ps, pt = world
        vec = featurize_pair(0, 0, 0.0, None, fs, ft, ps, pt)
        assert vec[5] == pytest.approx(1.5)
        assert vec[6] == pytest.approx(1.5)

    def test_log_rank_value_class(self, world):
        # a mid-frequency word around rank 15490 lands near 13.92
        src_vocab = Vocabulary.from_words([f"w{i}" for i in range(20000)])
        counts = {f"w{i}": 20001 - i for i in range(20000)}
        table = frequency_table_from_counts(counts, src_vocab)
        assert table.rank[15489] == 15490
        _, tgt_vocab, _, ft, ps, pt = world
        pos_big = pos_table_from_tags({}, src_vocab)
        vec = featurize_pair(15489, 0, 0.0, None, table, ft, pos_big, pt)
        assert vec[7] == pytest.approx(math.log2(15491))
        assert round(float(vec[7]), 2) == 13.92

    def test_ext_present_flag(self, world):
        _, _, fs, ft, ps, pt = world
        with_ext = featurize_pair(0, 0, 0.9, -2.5, fs, ft, ps, pt)
        without = featurize_pair(0, 0, 0.9, None, fs, ft, ps, pt)
        assert with_ext[1] == -2.5 and with_ext[2] == 1.0
        assert without[1] == 0.0 and without[2] == 0.0

    def test_pure_function_bitwise(self, world):
        _, _, fs, ft, ps, pt = world
        a = featurize_pair(1, 2, 0.123, 0.5, fs, ft, ps, pt)
        b = featurize_pair(1, 2, 0.123, 0.5, fs, ft, ps, pt)
        np.testing.assert_array_equal(a, b)


class TestBuildGroups:
    def test_shape_contract(self, world):
        src_vocab, tgt_vocab, fs, ft, ps, pt = world
        cands = simple_cands(3, 3)
        dic = TranslationDictionary(entries={0: (0,), 1: (1,), 2: (2,)})
        groups = build_groups([0, 1, 2], cands, fs, ft, ps, pt, src_vocab, tgt_vocab, dic=dic)
        assert len(groups) == 3 and [len(row) for row in groups] == [3, 3, 3]
        assert groups.features.shape == (9, 46) and groups.labels.shape == groups.candidate_ids.shape == (3, 3)
        assert groups.labels.sum(axis=1).tolist() == [1, 1, 1]
        assert not groups.gold_missed.any()

    def test_group_count_includes_gold_missed(self, world):
        src_vocab, tgt_vocab, fs, ft, ps, pt = world
        cands = simple_cands(3, 2)  # candidates are t0, t1 only
        dic = TranslationDictionary(entries={0: (0,), 1: (3,), 2: (1,)})
        groups = build_groups(dic.sources(), cands, fs, ft, ps, pt, src_vocab, tgt_vocab, dic=dic)
        assert len(groups) == 3
        assert groups.gold_missed.tolist() == [False, True, False]

    def test_ext_coverage_mixed(self, world):
        src_vocab, tgt_vocab, fs, ft, ps, pt = world
        cands = simple_cands(1, 3)
        ext = ExternalScores(logits={("s0", "t0"): 1.0, ("s0", "t2"): -1.0})
        groups = build_groups([0], cands, fs, ft, ps, pt, src_vocab, tgt_vocab, ext=ext)
        present = groups.features[:, 2]
        assert present.tolist() == [1.0, 0.0, 1.0]

    def test_missing_source_fatal(self, world):
        src_vocab, tgt_vocab, fs, ft, ps, pt = world
        cands = simple_cands(1, 2)
        with pytest.raises(DataFormatError, match="no candidate list"):
            build_groups([2], cands, fs, ft, ps, pt, src_vocab, tgt_vocab)

    def test_inference_groups_without_dict(self, world):
        src_vocab, tgt_vocab, fs, ft, ps, pt = world
        groups = build_groups([0], simple_cands(1, 3), fs, ft, ps, pt, src_vocab, tgt_vocab)
        assert not groups.has_gold[0]
        assert not groups.labels.any()

    def test_shuffle_unshuffle_restores_features(self, world, rng):
        src_vocab, tgt_vocab, fs, ft, ps, pt = world
        groups = build_groups([0], simple_cands(1, 3), fs, ft, ps, pt, src_vocab, tgt_vocab)
        m = groups.features
        perm = rng.permutation(3)
        inv = np.argsort(perm)
        np.testing.assert_array_equal(m[perm][inv], m)

    def test_one_hot_consistency(self, world, rng):
        src_vocab, tgt_vocab, fs, ft, ps, pt = world
        groups = build_groups([0, 1, 2], simple_cands(3, 4), fs, ft, ps, pt, src_vocab, tgt_vocab)
        for row in groups.features:
            src_hot = row[10:28]
            cand_hot = row[28:46]
            assert src_hot.sum() == 1.0 and cand_hot.sum() == 1.0
            same = src_hot.argmax() == cand_hot.argmax()
            assert (row[9] == 1.0) == same
            assert abs(row[6]) == pytest.approx(abs(row[5]))


class TestExternalScores:
    def test_loader(self, tmp_path):
        p = write(tmp_path / "ext.tsv", "s0\tt0\t1.25\ns0\tt1\t-0.5\n")
        ext = load_external_scores(p)
        assert ext.get("s0", "t0") == 1.25
        assert ext.get("s0", "missing") is None

    def test_duplicate_last_wins(self, tmp_path, caplog):
        import logging

        p = write(tmp_path / "ext.tsv", "s0\tt0\t1.0\ns0\tt0\t2.0\n")
        with caplog.at_level(logging.WARNING):
            ext = load_external_scores(p)
        assert ext.get("s0", "t0") == 2.0
        assert ext.duplicates == 1

    def test_non_finite_fatal(self, tmp_path):
        p = write(tmp_path / "ext.tsv", "s0\tt0\tnan\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_external_scores(p)

    def test_malformed_row_fatal(self, tmp_path):
        p = write(tmp_path / "ext.tsv", "s0\tt0\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_external_scores(p)


def test_feature_matrix_export_header(tmp_path, world):
    src_vocab, tgt_vocab, fs, ft, ps, pt = world
    groups = build_groups([0], simple_cands(1, 2), fs, ft, ps, pt, src_vocab, tgt_vocab)
    path = tmp_path / "features.tsv"
    write_feature_matrix(groups, src_vocab, tgt_vocab, path)
    header = path.read_text().splitlines()[0].split("\t")
    assert header[:3] == ["src", "cand", "label"]
    assert header[3:] == list(FEATURE_NAMES)


def reference_feature_matrix(groups, src_vocab, tgt_vocab):
    """The per-value writer: repr(float(v)) for every cell."""
    lines = ["src\tcand\tlabel\t" + "\t".join(FEATURE_NAMES) + "\n"]
    k = groups.labels.shape[1]
    for row, src in enumerate(groups.src):
        for i, c in enumerate(groups.candidate_ids[row]):
            cells = "\t".join(repr(float(v)) for v in groups.features[row * k + i])
            lines.append(f"{src_vocab.word(int(src))}\t{tgt_vocab.word(int(c))}\t{int(groups.labels[row, i])}\t{cells}\n")
    return "".join(lines)


def test_feature_matrix_export_matches_per_value_reference(tmp_path, world):
    src_vocab, tgt_vocab, *_ = world
    awkward = [1e-05, -0.0, 0.1 + 0.2, 1e16, 123456789.125, -2.5e-310, 1 / 3, 0.0, 5e-324, -1e300]
    sources, k = [0, 2, 1], 4
    features = np.resize(np.array(awkward), (len(sources), k, N_FEATURES)) * (np.array(sources) + 1)[:, None, None]
    features[:, 0, 1] = -0.0
    labels = np.zeros((len(sources), k), dtype=np.int8)
    labels[:, 0] = 1
    groups = grid(labels, features.reshape(-1, N_FEATURES), src=sources, candidate_ids=np.tile(np.arange(k)[::-1], (3, 1)))
    path = tmp_path / "features.tsv"
    write_feature_matrix(groups, src_vocab, tgt_vocab, path)
    text = path.read_bytes().decode("utf-8")
    assert text == reference_feature_matrix(groups, src_vocab, tgt_vocab)
    assert "\t-0.0\t" in text and "\t1e-05\t" in text and "\t0.30000000000000004\t" in text


def reference_groups(sources, cands, fs, ft, ps, pt, src_vocab, tgt_vocab, dic, ext, schema):
    """build_groups one pair at a time: featurize_pair and label_candidates per candidate."""
    out = []
    for s in sources:
        ids, scores = cands.for_source(s)
        rows = np.array([
            featurize_pair(
                s, int(c), float(v),
                ext.get(src_vocab.word(s), tgt_vocab.word(int(c))) if ext is not None else None,
                fs, ft, ps, pt,
            )
            for c, v in zip(ids, scores)
        ]).reshape(len(ids), N_FEATURES)
        has_gold = dic is not None and s in dic.entries
        labels = label_candidates(s, ids, dic) if has_gold else np.zeros(len(ids), dtype=np.int8)
        out.append((apply_mask(schema, rows), labels, has_gold, has_gold and not labels.any()))
    return out


TAGS = st.one_of(st.none(), st.sampled_from(list(ALL_TAGS[:-1]) + ["bogus"]))


@st.composite
def featurize_worlds(draw):
    """Vocabularies with unlisted and untagged words, candidate lists, a partial dictionary and external scores."""
    n_src, n_tgt = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    src_vocab = Vocabulary.from_words([f"s{i}" for i in range(n_src)])
    tgt_vocab = Vocabulary.from_words([f"t{i}" for i in range(n_tgt)])
    tables = []
    for vocab in (src_vocab, tgt_vocab):
        counts = {w: draw(st.integers(1, 10**6)) for w in vocab.words if draw(st.booleans())}  # the rest rank len(vocab)
        tags = {w: tag for w in vocab.words if (tag := draw(TAGS)) is not None}
        tables.append((frequency_table_from_counts(counts, vocab), pos_table_from_tags(tags, vocab)))
    (fs, ps), (ft, pt) = tables
    k = draw(st.integers(1, n_tgt))
    listed = draw(st.permutations(range(n_src)))
    cand_ids = np.array([draw(st.permutations(range(n_tgt)))[:k] for _ in listed], dtype=np.int64)
    scores = np.array(draw(st.lists(st.floats(-2, 2), min_size=len(listed) * k, max_size=len(listed) * k)))
    cands = CandidateSet.from_arrays(np.array(listed, dtype=np.int64), cand_ids, scores.reshape(len(listed), k))
    sources = draw(st.lists(st.sampled_from(listed), unique=True))
    entries = {}
    for s in sources:
        if draw(st.booleans()):  # multi-target, and possibly none of them retrieved
            entries[s] = tuple(sorted(set(draw(st.lists(st.integers(0, n_tgt - 1), min_size=1, max_size=3)))))
    dic = TranslationDictionary(entries=entries) if draw(st.booleans()) else None
    ext = None
    if draw(st.booleans()):
        pairs = st.tuples(st.sampled_from(src_vocab.words + ["zz"]), st.sampled_from(tgt_vocab.words + ["zz"]))
        ext = ExternalScores(logits=draw(st.dictionaries(pairs, st.floats(-5, 5), max_size=12)))
    schema = FeatureSchema(disabled=draw(st.sampled_from([(), ("pos",), ("freq",), ("freq", "pos")])))
    return sources, cands, fs, ft, ps, pt, src_vocab, tgt_vocab, dic, ext, schema


class TestOneMatrix:
    @settings(max_examples=200, deadline=None)
    @given(featurize_worlds())
    def test_equals_per_pair_reference_bitwise(self, world):
        sources, cands, *_ = world
        groups = build_groups(*world[:8], dic=world[8], ext=world[9], schema=world[10])
        expected = reference_groups(*world)
        k = cands.cand_ids.shape[1]
        assert groups.src.tolist() == sources
        assert groups.features.dtype == np.float64 and groups.features.shape == (len(sources) * k, N_FEATURES)
        assert groups.labels.dtype == np.int8 and groups.candidate_ids.dtype == np.int64
        for i, ((rows, labels, has_gold, gold_missed), s) in enumerate(zip(expected, sources)):
            ids, scores = cands.for_source(s)
            assert groups.features[i * k:(i + 1) * k].tobytes() == rows.tobytes()
            assert groups.labels[i].tolist() == labels.tolist()
            assert groups.candidate_ids[i].tolist() == ids.tolist()
            assert groups.csls[i].tobytes() == np.asarray(scores, dtype=np.float64).tobytes()
            assert (groups.has_gold[i], groups.gold_missed[i]) == (has_gold, gold_missed)

    def test_log_rank_is_math_log2_bitwise(self, world):
        # np.log2(1 + r) differs from math.log2 in the last bit at ranks such as 1620 and 3241
        src_vocab, _, fs, _, ps, _ = world
        tgt_vocab = Vocabulary.from_words([f"w{i}" for i in range(3300)])
        ft = frequency_table_from_counts({f"w{i}": 4000 - i for i in range(3300)}, tgt_vocab)
        pt = pos_table_from_tags({}, tgt_vocab)
        cands = CandidateSet.from_arrays(np.array([0]), np.arange(3300)[None, :], np.zeros((1, 3300)))
        col = build_groups([0], cands, fs, ft, ps, pt, src_vocab, tgt_vocab).features[:, 8]
        expected = np.array([math.log2(1 + r) for r in range(1, 3301)])
        assert col.tobytes() == expected.tobytes()
        assert (np.log2(1.0 + np.arange(1, 3301)) != expected).any()

    def test_groups_are_consecutive_views_of_one_matrix(self, world):
        src_vocab, tgt_vocab, fs, ft, ps, pt = world
        dic = TranslationDictionary(entries={0: (0,), 1: (3,), 2: (1, 2)})
        groups = build_groups([2, 0, 1], simple_cands(3, 3), fs, ft, ps, pt, src_vocab, tgt_vocab, dic=dic)
        matrix = groups.features
        assert matrix.shape == (9, N_FEATURES) and matrix.flags.c_contiguous
        # the retriever scores are column 0 of that matrix, source by source
        assert groups.csls.shape == (3, 3) and np.shares_memory(groups.csls, matrix)
        assert groups.csls.tobytes() == matrix[:, 0].tobytes()
        # take copies whole sources, rows and all
        taken = groups.take(np.array([2, 0]))
        assert taken.src.tolist() == [1, 2] and not np.shares_memory(taken.features, matrix)
        assert taken.features.tobytes() == np.vstack([matrix[6:9], matrix[0:3]]).tobytes()
        for name in ("labels", "candidate_ids", "has_gold", "gold_missed", "csls"):
            assert getattr(taken, name).tobytes() == getattr(groups, name)[[2, 0]].tobytes()


def test_train_and_predict_same_on_views_and_copies(rng):
    from bilex.ltr import GbdtParams, predict_groups, train

    n_src, n_tgt, k = 60, 40, 8
    src_vocab = Vocabulary.from_words([f"s{i}" for i in range(n_src)])
    tgt_vocab = Vocabulary.from_words([f"t{i}" for i in range(n_tgt)])
    fs = frequency_table_from_counts({w: int(rng.integers(1, 10**5)) for w in src_vocab.words[:50]}, src_vocab)
    ft = frequency_table_from_counts({w: int(rng.integers(1, 10**5)) for w in tgt_vocab.words[:30]}, tgt_vocab)
    ps = pos_table_from_tags({w: ALL_TAGS[int(rng.integers(0, 5))] for w in src_vocab.words}, src_vocab)
    pt = pos_table_from_tags({w: ALL_TAGS[int(rng.integers(0, 5))] for w in tgt_vocab.words}, tgt_vocab)
    cand_ids = np.array([rng.permutation(n_tgt)[:k] for _ in range(n_src)], dtype=np.int64)
    cands = CandidateSet.from_arrays(np.arange(n_src), cand_ids, np.sort(rng.random((n_src, k)), axis=1)[:, ::-1])
    dic = TranslationDictionary(entries={s: (int(cand_ids[s, rng.integers(0, k)]),) for s in range(n_src)})
    groups = build_groups(dic.sources(), cands, fs, ft, ps, pt, src_vocab, tgt_vocab, dic=dic)
    copies = groups.take(np.arange(len(groups)))
    assert not np.shares_memory(copies.features, groups.features)
    params = GbdtParams(n_trees=8, max_depth=3)
    model, trace = train(groups, params)
    model_c, trace_c = train(copies, params)
    assert trace == trace_c
    for a, b in zip(model.trees, model_c.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert predict_groups(model, groups).tobytes() == predict_groups(model, copies).tobytes()
