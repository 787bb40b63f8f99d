import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilex.corpus import (
    TranslationDictionary,
    Vocabulary,
    frequency_table_from_counts,
    pos_table_from_tags,
)
from bilex.evaluation import (
    build_eval_report,
    explain_predictions,
    freq_diff_report,
    midranks,
    pca_project,
    per_pos_accuracy,
    pos_freq_correlation,
    precision_at_1,
    spearman,
)
from bilex.features import N_FEATURES
from bilex.ltr import combine_with_retriever, rank_order
from conftest import grid


def midranks_loop(values):
    """Midranks by walking each tie block of the stably sorted values: the reference for midranks."""
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size, dtype=np.float64)
    sa = a[order]
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and sa[j + 1] == sa[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestPrecisionAt1:
    def test_perfect(self):
        groups = grid([[1, 0], [1, 0]], candidate_ids=[[0, 1], [1, 2]])
        scores = np.array([[2.0, 1.0], [5.0, 4.0]])
        assert precision_at_1(groups, scores) == 1.0

    def test_half(self):
        groups = grid([[1, 0]] * 4)
        scores = np.array([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
        assert precision_at_1(groups, scores) == 0.5

    def test_gold_missed_counts_as_failure(self):
        groups = grid([[1, 0], [0, 0]])
        scores = np.array([[2.0, 1.0], [2.0, 1.0]])
        assert precision_at_1(groups, scores) == 0.5

    def test_requires_gold(self):
        with pytest.raises(ValueError, match="gold"):
            precision_at_1(grid([[1]], has_gold=False), np.array([[1.0]]))

    def test_affine_invariance(self, rng):
        groups = grid([[0, 1, 0]] * 5)
        scores = rng.standard_normal((5, 3))
        p = precision_at_1(groups, scores)
        assert precision_at_1(groups, 3.5 * scores + 11) == p


class TestPerPosAccuracy:
    def make(self):
        vocab = Vocabulary.from_words(["a", "b", "c", "d"])
        pos = pos_table_from_tags({"a": "NOUN", "b": "NOUN", "c": "VERB", "d": "VERB"}, vocab)
        groups = grid([[1, 0]] * 4)
        scores = np.array([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 1.0]])
        return groups, scores, pos

    def test_buckets(self):
        groups, scores, pos = self.make()
        out = per_pos_accuracy(groups, scores, pos)
        assert out["NOUN"] == (2, 0.5)
        assert out["VERB"] == (2, 1.0)
        assert "ADJ" not in out

    def test_partition_and_weighted_mean(self):
        groups, scores, pos = self.make()
        out = per_pos_accuracy(groups, scores, pos)
        assert sum(n for n, _ in out.values()) == len(groups)
        weighted = sum(n * acc for n, acc in out.values()) / len(groups)
        assert abs(weighted - precision_at_1(groups, scores)) < 1e-12


class TestFreqDiffReport:
    def make(self):
        sv = Vocabulary.from_words(["a", "b"])
        tv = Vocabulary.from_words(["x", "y"])
        fs = frequency_table_from_counts({"a": 100, "b": 100}, sv)
        ft = frequency_table_from_counts({"x": 100, "y": 100}, tv)
        fs.zipf[:] = [6.0, 5.0]
        ft.zipf[:] = [4.5, 5.0]
        dic = TranslationDictionary(entries={0: (0,), 1: (1,)})
        return fs, ft, dic

    def test_single_pair_arithmetic(self):
        fs, ft, dic = self.make()
        stats = freq_diff_report(grid([[1, 0]]), np.array([[2.0, 1.0]]), dic, fs, ft)
        assert stats.gold_zipf == pytest.approx(1.5)  # |6.0 - 4.5|
        assert stats.predicted_zipf == pytest.approx(1.5)

    def test_identical_predictions_match_gold(self):
        fs, ft, dic = self.make()
        scores = np.array([[2.0, 1.0], [1.0, 2.0]])
        stats = freq_diff_report(grid([[1, 0], [0, 1]]), scores, dic, fs, ft)
        assert stats.predicted_zipf == pytest.approx(stats.gold_zipf)

    def test_errors_only_excludes_correct_groups(self):
        fs, ft, dic = self.make()
        # group a: correct (picks x); group b: wrong (picks x instead of y)
        groups = grid([[1, 0], [0, 1]])
        scores = np.array([[2.0, 1.0], [2.0, 1.0]])
        all_stats = freq_diff_report(groups, scores, dic, fs, ft, errors_only=False)
        err_stats = freq_diff_report(groups, scores, dic, fs, ft, errors_only=True)
        assert all_stats.n_predicted == 2
        assert err_stats.n_predicted == 1
        assert err_stats.predicted_zipf == pytest.approx(abs(5.0 - 4.5))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=m, max_size=m),
    st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=k, max_size=k), min_size=m, max_size=m),
    st.lists(st.permutations(range(6)), min_size=m, max_size=m),
))), st.booleans())
def test_grid_equals_per_row_reference(data, errors_only):
    labels, scores, perms = data
    scores = np.array(scores)
    m, k = scores.shape
    sv = Vocabulary.from_words([f"s{i}" for i in range(m)])
    tv = Vocabulary.from_words([f"t{i}" for i in range(6)])
    fs = frequency_table_from_counts({w: 10 * (i + 1) for i, w in enumerate(sv.words)}, sv)
    ft = frequency_table_from_counts({w: 7 * (i + 2) for i, w in enumerate(tv.words)}, tv)
    ps = pos_table_from_tags({w: ("NOUN", "VERB")[i % 2] for i, w in enumerate(sv.words)}, sv)
    pt = pos_table_from_tags({w: "NOUN" for w in tv.words}, tv)
    cand_ids = np.array([p[:k] for p in perms])
    dic = TranslationDictionary(entries={s: (int(cand_ids[s, 0]), 5) for s in range(m)})
    groups = grid(labels, candidate_ids=cand_ids)

    tops = [int(rank_order(row)[0]) for row in scores]
    hits = [groups.labels[i, t] == 1 for i, t in enumerate(tops)]
    assert precision_at_1(groups, scores) == sum(hits) / m
    records = explain_predictions(groups, scores, sv, tv, fs, ft, ps, pt)
    assert [(r["pred"], r["score"], r["correct"]) for r in records] == [
        (tv.word(int(cand_ids[i, t])), float(scores[i, t]), int(hits[i])) for i, t in enumerate(tops)
    ]
    predicted = [i for i in range(m) if not (errors_only and hits[i])]
    stats = freq_diff_report(groups, scores, dic, fs, ft, errors_only)
    want = [abs(float(fs.zipf[i]) - float(ft.zipf[int(cand_ids[i, tops[i]])])) for i in predicted]
    assert stats.n_predicted == len(predicted) and stats.n_gold_pairs == 2 * m
    assert stats.predicted_zipf == (float(np.mean(want)) if want else 0.0)


class TestSpearman:
    def test_identity(self):
        assert spearman([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_reversal(self):
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_worked_example(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_input_nan(self):
        assert np.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_length_checks(self):
        with pytest.raises(ValueError):
            spearman([1.0], [1.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0])

    def test_midranks_average_ties(self):
        np.testing.assert_allclose(midranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(min_value=-5, max_value=5), max_size=40),
        st.lists(st.sampled_from([-0.0, 0.0, 0.5, -2.25, 1e300, -np.inf, np.inf]), max_size=40),
        st.lists(st.floats(allow_nan=False, width=64), max_size=40),
    ))
    def test_midranks_equal_the_tie_block_loop(self, xs):
        assert midranks(xs).tobytes() == midranks_loop(xs).tobytes()

    def test_matches_closed_form_without_ties(self, rng):
        # 1 - 6*sum(d^2)/(n(n^2-1)) is exact when no ties exist
        for _ in range(20):
            n = int(rng.integers(3, 30))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            d = midranks(x) - midranks(y)
            want = 1 - 6 * (d * d).sum() / (n * (n * n - 1))
            assert spearman(x, y) == pytest.approx(want, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=20))
    def test_monotone_transform_invariance(self, xs):
        ys = list(range(len(xs)))
        base = spearman(xs, ys)
        transformed = spearman([x * 7 + 3 for x in xs], ys)
        if np.isnan(base):
            assert np.isnan(transformed)
        else:
            assert transformed == pytest.approx(base, abs=1e-12)

    def test_antisymmetric_under_reversal(self, rng):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        assert spearman(x, -y) == pytest.approx(-spearman(x, y), abs=1e-12)


class TestPosFreqCorrelation:
    def make(self, n=24, agree=True):
        words_s = [f"s{i}" for i in range(n)]
        words_t = [f"t{i}" for i in range(n)]
        sv = Vocabulary.from_words(words_s)
        tv = Vocabulary.from_words(words_t)
        fs = frequency_table_from_counts({w: n - i for i, w in enumerate(words_s)}, sv)
        order = range(n) if agree else range(n - 1, -1, -1)
        ft = frequency_table_from_counts({words_t[i]: n - r for r, i in enumerate(order)}, tv)
        pos = pos_table_from_tags({w: "NOUN" for w in words_s}, sv)
        dic = TranslationDictionary(entries={i: (i,) for i in range(n)})
        return dic, fs, ft, pos

    def test_perfect_corank(self):
        dic, fs, ft, pos = self.make(agree=True)
        out = pos_freq_correlation(dic, fs, ft, pos, min_n=10)
        assert out["NOUN"][1] == pytest.approx(1.0)

    def test_insufficient_bucket_marked(self):
        dic, fs, ft, pos = self.make(n=9)
        out = pos_freq_correlation(dic, fs, ft, pos, min_n=10)
        assert out["NOUN"] == (9, None)

    def test_uses_first_listed_gold(self):
        sv = Vocabulary.from_words(["s0"] + [f"s{i}" for i in range(1, 12)])
        tv = Vocabulary.from_words([f"t{i}" for i in range(12)])
        fs = frequency_table_from_counts({w: 100 - i for i, w in enumerate(sv.words)}, sv)
        ft = frequency_table_from_counts({w: 100 - i for i, w in enumerate(tv.words)}, tv)
        pos = pos_table_from_tags({w: "NOUN" for w in sv.words}, sv)
        entries = {i: (i,) for i in range(12)}
        entries[0] = (0, 11)  # extra gold must be ignored
        out = pos_freq_correlation(TranslationDictionary(entries=entries), fs, ft, pos)
        assert out["NOUN"][1] == pytest.approx(1.0)


class TestPcaProject:
    def test_planar_points_exact(self, rng):
        basis = np.linalg.qr(rng.standard_normal((10, 2)))[0].T  # 2 x 10
        coeff = rng.standard_normal((30, 2))
        points = coeff @ basis
        coords = pca_project(points)
        centered = points - points.mean(axis=0)
        recon_error = 0.0
        # project back through the fitted plane: distances must be preserved
        d_orig = np.linalg.norm(centered[:, None, :] - centered[None, :, :], axis=2)
        d_proj = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        assert np.abs(d_orig - d_proj).max() < 1e-9
        assert recon_error < 1e-9

    def test_duplicates_identical(self, rng):
        pts = rng.standard_normal((5, 4))
        pts[3] = pts[1]
        coords = pca_project(pts)
        np.testing.assert_allclose(coords[3], coords[1], atol=1e-12)

    def test_variance_ordering(self, rng):
        coords = pca_project(rng.standard_normal((40, 6)))
        v1, v2 = coords.var(axis=0)
        assert v1 >= v2

    def test_translation_invariance(self, rng):
        pts = rng.standard_normal((12, 5))
        shift = rng.standard_normal(5)
        np.testing.assert_allclose(pca_project(pts), pca_project(pts + shift), atol=1e-9)

    def test_low_dim_fatal(self, rng):
        with pytest.raises(ValueError):
            pca_project(rng.standard_normal((5, 1)))
        with pytest.raises(ValueError):
            pca_project(rng.standard_normal((1, 5)))


class TestExplainAndReport:
    def make_world(self):
        sv = Vocabulary.from_words(["a", "b"])
        tv = Vocabulary.from_words(["x", "y"])
        fs = frequency_table_from_counts({"a": 100, "b": 50}, sv)
        ft = frequency_table_from_counts({"x": 90, "y": 40}, tv)
        ps = pos_table_from_tags({"a": "NOUN"}, sv)
        pt = pos_table_from_tags({"x": "NOUN", "y": "VERB"}, tv)
        dic = TranslationDictionary(entries={0: (0,), 1: (1,)})
        groups = grid([[1, 0], [0, 1]])
        scores = np.array([[2.0, 1.0], [2.0, 1.0]])
        return sv, tv, fs, ft, ps, pt, dic, groups, scores

    def test_records_complete(self):
        sv, tv, fs, ft, ps, pt, dic, groups, scores = self.make_world()
        records = explain_predictions(groups, scores, sv, tv, fs, ft, ps, pt)
        assert len(records) == len(groups)
        assert records[0]["correct"] == 1 and records[1]["correct"] == 0
        assert records[1]["pos_src"] == "UNK"  # absent word stays total
        assert all(
            set(r) == {"src", "pred", "rank_src", "rank_pred", "pos_src", "pos_pred", "score", "correct"}
            for r in records
        )

    def test_report_invariants(self):
        sv, tv, fs, ft, ps, pt, dic, groups, scores = self.make_world()
        report = build_eval_report(groups, scores, dic, fs, ft, ps)
        assert report.n_eval == 2
        assert 0.0 <= report.p_at_1 <= 1.0
        assert sum(n for n, _ in report.per_pos.values()) == report.n_eval

    def test_report_sets_the_retriever_beside_the_scores(self):
        sv, tv, fs, ft, ps, pt, dic, _, scores = self.make_world()
        # csls ranks the second candidate first in both groups: wrong in the first, right in the second; the
        # scores rank the first candidate first: right in the first, wrong in the second
        features = np.zeros((4, N_FEATURES))
        features[:, 0] = [0.1, 0.9, 0.1, 0.9]
        groups = grid([[1, 0], [0, 1]], features)
        report = build_eval_report(groups, scores, dic, fs, ft, ps)
        assert (report.p_at_1, report.p_at_1_retriever, report.ranker_fixed, report.ranker_broke) == (0.5, 0.5, 1, 1)
        # scores that only blend in the retriever rank as it does
        alone = build_eval_report(groups, combine_with_retriever(scores, groups.csls, 0.0), dic, fs, ft, ps)
        assert (alone.p_at_1, alone.p_at_1_retriever, alone.ranker_fixed, alone.ranker_broke) == (0.5, 0.5, 0, 0)
