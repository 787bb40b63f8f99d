import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilex.corpus import DataFormatError
from bilex.features import FEATURE_NAMES, N_FEATURES, FeatureSchema, build_groups
from bilex.ltr import (
    IMPORTANCE_GROUPS,
    FitStats,
    GbdtParams,
    RegressionTree,
    _BinnedColumns,
    _on_grid,
    _pair_sigmoid,
    combine_with_retriever,
    compute_lambdas,
    delta_ap,
    fit_tree,
    load_model,
    mean_ap,
    predict,
    predict_groups,
    rank_order,
    save_model,
    train,
)
from conftest import grid
import reference
from reference import average_precision


def pad_features(cols, n_rows):
    """Embed a small matrix of informative columns into the 46-wide layout."""
    cols = np.asarray(cols, dtype=np.float64)
    out = np.zeros((n_rows, N_FEATURES))
    out[:, : cols.shape[1]] = cols
    return out


def ap_oracle(labels_ranked):
    hits = 0
    total = 0.0
    for k, y in enumerate(labels_ranked, start=1):
        if y == 1:
            hits += 1
            total += hits / k
    positives = sum(labels_ranked)
    return total / positives if positives else 0.0


class TestAveragePrecision:
    def test_positive_first(self):
        assert average_precision([1, 0, 0]) == 1.0

    def test_worked_example(self):
        # hand enumeration: precision@2 = 1/2, precision@4 = 2/4
        assert average_precision([0, 1, 0, 1]) == pytest.approx(0.5)

    def test_no_positives(self):
        assert average_precision([0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_precision([])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20))
    def test_matches_direct_enumeration(self, labels):
        assert average_precision(labels) == pytest.approx(ap_oracle(labels), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12))
    def test_range_and_perfection(self, labels):
        ap = average_precision(labels)
        assert 0.0 <= ap <= 1.0
        p = sum(labels)
        if 0 < p < len(labels):
            assert (ap == 1.0) == all(y == 1 for y in labels[:p])


class TestMeanAp:
    def test_arithmetic_mean(self):
        groups = grid([[1, 0, 0, 0], [0, 1, 0, 1]])
        scores = np.array([[2.0, 1.0, 0.5, 0.2], [4.0, 3.0, 2.0, 1.0]])
        assert mean_ap(groups, scores) == pytest.approx(0.75)

    def test_all_negative_group_excluded(self):
        groups = grid([[1, 0], [0, 0]])
        scores = np.array([[2.0, 1.0], [2.0, 1.0]])
        assert mean_ap(groups, scores) == 1.0

    def test_single_group_equals_ap(self):
        labels = [0, 1, 1, 0]
        s = np.array([[4.0, 3.0, 2.0, 1.0]])
        assert mean_ap(grid([labels]), s) == average_precision(labels)

    def test_ties_break_by_candidate_position(self):
        # all tied: ranking is candidate order, AP of [0,1,0]
        assert mean_ap(grid([[0, 1, 0]]), np.zeros((1, 3))) == pytest.approx(0.5)


def swap_oracle(labels, ranking, i, j):
    perm = list(ranking)
    perm[i], perm[j] = perm[j], perm[i]
    before = ap_oracle([labels[c] for c in ranking])
    after = ap_oracle([labels[c] for c in perm])
    return after - before


class TestDeltaAp:
    def test_worked_swap(self):
        # ranked labels [0, 1]: swapping lifts AP 0.5 -> 1.0
        assert delta_ap([0, 1], [0, 1], 0, 1) == pytest.approx(0.5)

    def test_equal_labels_zero(self):
        assert delta_ap([1, 0, 1], [0, 2, 1], 0, 1) == 0.0

    def test_matches_recomputation_oracle(self, rng):
        for _ in range(30):
            n = 10
            labels = (rng.random(n) < 0.4).astype(int).tolist()
            ranking = rng.permutation(n).tolist()
            for i, j in itertools.combinations(range(n), 2):
                got = delta_ap(labels, ranking, i, j)
                want = swap_oracle(labels, ranking, i, j)
                assert got == pytest.approx(want, abs=1e-12)

    def test_swap_is_symmetric_in_argument_order(self, rng):
        labels = [1, 0, 0, 1, 0]
        ranking = [2, 0, 4, 1, 3]
        assert delta_ap(labels, ranking, 1, 3) == delta_ap(labels, ranking, 3, 1)

    def test_swap_back_negates(self, rng):
        labels = [1, 0, 0, 1, 0]
        ranking = [2, 0, 4, 1, 3]
        d = delta_ap(labels, ranking, 0, 3)
        swapped = list(ranking)
        swapped[0], swapped[3] = swapped[3], swapped[0]
        assert delta_ap(labels, swapped, 0, 3) == pytest.approx(-d, abs=1e-12)

    def test_same_position_rejected(self):
        with pytest.raises(ValueError):
            delta_ap([1, 0], [0, 1], 1, 1)


class TestComputeLambdas:
    def test_all_labels_equal_gives_zeros(self):
        g, h = compute_lambdas(np.array([1.0, 2.0]), np.array([1, 1]))
        assert not g.any() and not h.any()
        g, h = compute_lambdas(np.array([1.0, 2.0]), np.array([0, 0]))
        assert not g.any() and not h.any()

    def test_hand_worked_pair(self):
        # equal scores, labels [1, 0]: rho = 0.5, |delta AP| = 0.5
        g, h = compute_lambdas(np.array([0.0, 0.0]), np.array([1, 0]), sigma=1.0)
        np.testing.assert_allclose(g, [-0.25, 0.25], atol=1e-15)
        np.testing.assert_allclose(h, [0.125, 0.125], atol=1e-15)

    def test_zero_sum_and_nonnegative_h(self, rng):
        for _ in range(50):
            n = rng.integers(2, 40)
            labels = (rng.random(n) < 0.3).astype(np.int8)
            scores = rng.standard_normal(n)
            g, h = compute_lambdas(scores, labels, sigma=1.3)
            assert abs(g.sum()) < 1e-12
            assert (h >= 0).all()

    def test_positives_pushed_up(self, rng):
        labels = np.array([1, 0, 0, 0], dtype=np.int8)
        scores = np.array([0.0, 1.0, 2.0, 3.0])
        g, _ = compute_lambdas(scores, labels)
        assert g[0] < 0  # negative gradient means the booster raises the score
        assert (g[1:] > 0).all()

    def test_matches_pairwise_definition_oracle(self, rng):
        # direct per-pair evaluation using the public delta_ap
        n = 8
        labels = np.array([1, 0, 1, 0, 0, 1, 0, 0], dtype=np.int8)
        scores = rng.standard_normal(n)
        sigma = 0.8
        order = rank_order(scores)
        ranking = order.tolist()
        pos_of = {c: r for r, c in enumerate(ranking)}
        g_want = np.zeros(n)
        h_want = np.zeros(n)
        for i in range(n):
            for j in range(n):
                if labels[i] == 1 and labels[j] == 0:
                    w = abs(delta_ap(labels, ranking, pos_of[i], pos_of[j]))
                    rho = 1.0 / (1.0 + np.exp(sigma * (scores[i] - scores[j])))
                    g_want[i] -= sigma * rho * w
                    g_want[j] += sigma * rho * w
                    h_want[i] += sigma**2 * rho * (1 - rho) * w
                    h_want[j] += sigma**2 * rho * (1 - rho) * w
        g, h = compute_lambdas(scores, labels, sigma)
        np.testing.assert_allclose(g, g_want, atol=1e-12)
        np.testing.assert_allclose(h, h_want, atol=1e-12)


def lambdas_oracle(scores, labels, sigma):
    """Per-pair sums of the AP-weighted objective, with the public delta_ap as the pair weight."""
    ranking = rank_order(scores).tolist()
    pos_of = {c: r for r, c in enumerate(ranking)}
    g, h = np.zeros(len(scores)), np.zeros(len(scores))
    for i in np.flatnonzero(labels == 1):
        for j in np.flatnonzero(labels == 0):
            w = abs(delta_ap(labels, ranking, pos_of[i], pos_of[j]))
            rho = 1.0 / (1.0 + np.exp(sigma * (scores[i] - scores[j])))
            g[i] -= sigma * rho * w
            g[j] += sigma * rho * w
            h[i] += sigma**2 * rho * (1 - rho) * w
            h[j] += sigma**2 * rho * (1 - rho) * w
    return g, h


def single_positive_closed_form(scores, labels, sigma):
    """Lambdas of a group with one positive: swapping it at rank a with a negative at rank b changes AP by 1/a - 1/b."""
    ranks = np.empty(len(scores))
    ranks[rank_order(scores)] = np.arange(1, len(scores) + 1)
    pos = labels == 1
    w = np.abs(1.0 / ranks[pos][0] - 1.0 / ranks)
    rho = _pair_sigmoid(sigma * (scores[pos][0] - scores))
    lam = sigma * rho * w
    curv = sigma * sigma * rho * (1.0 - rho) * w
    lam[pos] = 0.0
    curv[pos] = 0.0
    return np.where(pos, -lam.sum(), lam), np.where(pos, curv.sum(), curv)


@st.composite
def lambda_batches(draw):
    """(m, k) batches with ragged positive counts, tied scores, all-positive and all-negative rows."""
    m = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=14))
    score = st.one_of(
        st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False),
    )
    scores = np.array([draw(st.lists(score, min_size=k, max_size=k)) for _ in range(m)])
    labels = np.zeros((m, k), dtype=np.int8)
    for row in labels:
        count = draw(st.sampled_from([0, 1, k, None]))
        if count is None:
            row[:] = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        else:
            row[draw(st.permutations(range(k)))[:count]] = 1
    return scores, labels, draw(st.sampled_from([0.5, 1.0, 1.3]))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBatchedLambdas:
    @settings(max_examples=300, deadline=None)
    @given(lambda_batches())
    def test_rows_match_oracle_one_group_calls_and_closed_form(self, batch):
        scores, labels, sigma = batch
        g, h = compute_lambdas(scores, labels, sigma)
        assert g.shape == h.shape == scores.shape
        for s, y, g_row, h_row in zip(scores, labels, g, h):
            g_want, h_want = lambdas_oracle(s, y, sigma)
            np.testing.assert_allclose(g_row, g_want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(h_row, h_want, rtol=0, atol=1e-12)
            assert abs(g_row.sum()) < 1e-12
            g_one, h_one = compute_lambdas(s, y, sigma)
            assert np.array_equal(bits(g_row), bits(g_one)) and np.array_equal(bits(h_row), bits(h_one))
            if y.sum() == 1 and y.size > 1:
                g_closed, h_closed = single_positive_closed_form(s, y, sigma)
                assert np.array_equal(bits(g_row), bits(g_closed)) and np.array_equal(bits(h_row), bits(h_closed))


class TestFitTree:
    def test_zero_gradients_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        tree = fit_tree(X, np.zeros(3), np.ones(3), GbdtParams())
        assert tree.n_nodes() == 1
        assert tree.value[0] == 0.0

    def test_worked_one_dimensional_split(self):
        # threshold must land between 1 and 2; leaves +1 and -1
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        params = GbdtParams(max_depth=1, l2_leaf_reg=0.0, min_child_weight=0.0)
        tree = fit_tree(X, g, h, params)
        assert tree.feature[0] == 0
        assert 1.0 < tree.threshold[0] < 2.0
        out = tree.predict(X)
        np.testing.assert_allclose(out, [1.0, 1.0, -1.0, -1.0])

    def test_constant_feature_never_selected(self, rng):
        X = np.column_stack([np.full(20, 7.0), rng.standard_normal(20)])
        g = rng.standard_normal(20)
        tree = fit_tree(X, g, np.ones(20), GbdtParams(max_depth=3, min_child_weight=0.0))
        assert not (tree.feature == 0).any()

    def test_min_child_weight_blocks_thin_splits(self):
        X = np.array([[0.0], [1.0]])
        g = np.array([-1.0, 1.0])
        h = np.array([0.4, 0.4])
        tree = fit_tree(X, g, h, GbdtParams(min_child_weight=0.5))
        assert tree.n_nodes() == 1  # each child would carry H = 0.4 < 0.5

    def test_depth_limit(self, rng):
        X = rng.standard_normal((64, 3))
        g = rng.standard_normal(64)
        tree = fit_tree(X, g, np.ones(64), GbdtParams(max_depth=2, min_child_weight=0.0))
        # depth 2 means at most 7 nodes
        assert tree.n_nodes() <= 7

    def test_empty_input_fatal(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((0, 2)), np.zeros(0), np.zeros(0), GbdtParams())

    def test_routing_reaches_exactly_one_leaf(self, rng):
        X = rng.standard_normal((100, 4))
        g = rng.standard_normal(100)
        tree = fit_tree(X, g, np.ones(100), GbdtParams(max_depth=3, min_child_weight=0.0))
        out = tree.predict(rng.standard_normal((500, 4)))
        leaf_values = set(tree.value[tree.feature < 0].tolist())
        assert all(v in leaf_values for v in out.tolist())

    def test_structure_invariant_under_power_of_two_scaling(self, rng):
        X = rng.standard_normal((60, 5))
        g = rng.standard_normal(60)
        h = np.abs(rng.standard_normal(60)) + 0.1
        params = GbdtParams(max_depth=3, min_child_weight=0.0)
        base = fit_tree(X, g, h, params)
        scales = np.array([2.0, 0.5, 4.0, 8.0, 0.25])
        scaled = fit_tree(X * scales, g, h, params)
        np.testing.assert_array_equal(base.feature, scaled.feature)
        np.testing.assert_array_equal(base.left, scaled.left)
        np.testing.assert_array_equal(base.value, scaled.value)
        np.testing.assert_array_equal(base.predict(X), scaled.predict(X * scales))

    def test_structure_invariant_under_generic_positive_scaling(self, rng):
        # well-separated values keep midpoints away from rounding trouble
        X = rng.integers(0, 10, size=(80, 4)).astype(np.float64)
        g = rng.standard_normal(80)
        params = GbdtParams(max_depth=2, min_child_weight=0.0)
        base = fit_tree(X, g, np.ones(80), params)
        scales = np.array([3.7, 1.9, 0.31, 5.3])
        scaled = fit_tree(X * scales, g, np.ones(80), params)
        np.testing.assert_array_equal(base.feature, scaled.feature)
        np.testing.assert_array_equal(base.value, scaled.value)
        np.testing.assert_array_equal(base.predict(X), scaled.predict(X * scales))


def separable_groups(rng, n_groups=40, group_size=10):
    """Feature 0 equals the label, everything else is noise."""
    labels = np.zeros((n_groups, group_size), dtype=np.int8)
    noise = np.zeros((n_groups, group_size))
    for s in range(n_groups):
        labels[s, rng.integers(0, group_size)] = 1
        noise[s] = rng.standard_normal(group_size)
    cols = np.column_stack([labels.ravel().astype(np.float64), noise.ravel()])
    return grid(labels, pad_features(cols, labels.size))


class TestTrain:
    def test_learns_separable_data(self, rng):
        groups = separable_groups(rng)
        params = GbdtParams(n_trees=20, max_depth=2, learning_rate=0.3)
        model, trace = train(groups, params)
        assert trace[-1][1] >= 0.99
        assert len(model.trees) == 20

    def test_monotone_improvement_on_separable_data(self, rng):
        groups = separable_groups(rng)
        initial = mean_ap(groups, np.zeros(groups.labels.shape))
        params = GbdtParams(n_trees=15, max_depth=2, learning_rate=0.3)
        _, trace = train(groups, params)
        assert trace[-1][1] >= initial

    def test_param_validation(self, rng):
        groups = separable_groups(rng, n_groups=2)
        with pytest.raises(ValueError, match="n_trees"):
            train(groups, GbdtParams(n_trees=0))

    def test_no_trainable_group_fatal(self):
        # an all-positive source gives no gradient either
        groups = grid([[0, 0], [1, 1]], pad_features([[1.0], [2.0], [3.0], [4.0]], 4))
        assert not groups.trainable.any()
        with pytest.raises(ValueError, match="trainable"):
            train(groups, GbdtParams(n_trees=1))

    def test_deterministic(self, rng):
        groups = separable_groups(rng, n_groups=10)
        params = GbdtParams(n_trees=5, max_depth=2)
        m1, t1 = train(groups, params)
        m2, t2 = train(groups, params)
        assert t1 == t2
        for a, b in zip(m1.trees, m2.trees):
            np.testing.assert_array_equal(a.feature, b.feature)
            np.testing.assert_array_equal(a.threshold, b.threshold)
            np.testing.assert_array_equal(a.value, b.value)

    def test_score_shift_invariance_of_map(self, rng):
        groups = separable_groups(rng, n_groups=6)
        scores = rng.standard_normal(groups.labels.shape)
        assert mean_ap(groups, scores) == mean_ap(groups, scores + 17.5)


class TestPredictAndPersistence:
    def test_rows_take_the_path_of_a_walk_from_the_root(self, rng):
        # leaves at depths 1, 2 and 3; a NaN feature fails its comparison and goes right
        tree = RegressionTree(
            feature=np.array([0, -1, 1, 2, -1, -1, -1], dtype=np.int32),
            threshold=np.array([0.0, 0.0, 0.5, -1.0, 0.0, 0.0, 0.0]),
            left=np.array([1, -1, 3, 5, -1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, 4, 6, -1, -1, -1], dtype=np.int32),
            value=np.array([0.0, 1.0, 0.0, 0.0, 2.0, 3.0, 4.0]),
        )
        X = rng.standard_normal((500, 3)) * 2
        X[rng.random(X.shape) < 0.1] = np.nan

        def walk(x):
            node = 0
            while tree.feature[node] >= 0:
                node = tree.left[node] if x[tree.feature[node]] < tree.threshold[node] else tree.right[node]
            return tree.value[node]

        assert tree.depth() == 3
        assert tree.predict(X).tolist() == [walk(x) for x in X]
        assert set(tree.predict(X).tolist()) == {1.0, 2.0, 3.0, 4.0}
        leaf = RegressionTree(*(np.array([v]) for v in (-1, 0.0, -1, -1, 0.5)))
        assert leaf.depth() == 0 and leaf.predict(X).tolist() == [0.5] * 500

    def test_empty_model_returns_base(self):
        schema = FeatureSchema()
        from bilex.ltr import GbdtModel

        model = GbdtModel(trees=[], params=GbdtParams(), schema=schema, fingerprint=schema.fingerprint(), base_score=0.25)
        out = predict(model, np.zeros((3, N_FEATURES)))
        np.testing.assert_array_equal(out, [0.25, 0.25, 0.25])

    def test_single_stump_routing(self):
        X = np.zeros((1, N_FEATURES))
        X[0, 0] = -1.0
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        data = pad_features([[0.0], [1.0], [2.0], [3.0]], 4)
        tree = fit_tree(data, g, np.ones(4), GbdtParams(max_depth=1, l2_leaf_reg=0.0, min_child_weight=0.0))
        from bilex.ltr import GbdtModel

        schema = FeatureSchema()
        model = GbdtModel(trees=[tree], params=GbdtParams(learning_rate=0.1), schema=schema, fingerprint=schema.fingerprint())
        assert predict(model, X)[0] == pytest.approx(0.1 * 1.0)

    def test_roundtrip_bitwise(self, tmp_path, rng):
        groups = separable_groups(rng, n_groups=10)
        model, _ = train(groups, GbdtParams(n_trees=8, max_depth=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        X = rng.standard_normal((1000, N_FEATURES))
        np.testing.assert_array_equal(predict(model, X), predict(back, X))

    def test_file_with_seed_param_still_loads(self, tmp_path, rng):
        import json

        groups = separable_groups(rng, n_groups=10)
        model, _ = train(groups, GbdtParams(n_trees=8, max_depth=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "seed" not in doc["params"]
        doc["params"]["seed"] = 7  # as written by versions that stored the unused seed
        path.write_text(json.dumps(doc, indent=1))
        back = load_model(path)
        assert back.params == model.params
        X = rng.standard_normal((1000, N_FEATURES))
        np.testing.assert_array_equal(predict(model, X), predict(back, X))

    def test_truncated_file_names_offset(self, tmp_path, rng):
        groups = separable_groups(rng, n_groups=4)
        model, _ = train(groups, GbdtParams(n_trees=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(DataFormatError, match="byte offset"):
            load_model(path)

    def test_bad_byte_names_offset(self, tmp_path, rng):
        groups = separable_groups(rng, n_groups=4)
        model, _ = train(groups, GbdtParams(n_trees=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        data = path.read_bytes()
        at = data.index(b'"format"') + 2  # inside the key
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not UTF-8 at byte offset {at}$"):
            load_model(path)

    def test_tampered_fingerprint_refuses_predict(self, tmp_path, rng):
        groups = separable_groups(rng, n_groups=4)
        model, _ = train(groups, GbdtParams(n_trees=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text().replace(model.fingerprint, "0" * 64)
        path.write_text(text)
        tampered = load_model(path)  # load succeeds
        with pytest.raises(DataFormatError, match="fingerprint"):
            predict(tampered, np.zeros((1, N_FEATURES)))

    @pytest.mark.parametrize("edit", ["swap", "rename", "drop", "append"])
    def test_other_feature_columns_refused_at_load(self, tmp_path, rng, edit):
        import hashlib
        import json

        model, _ = train(separable_groups(rng, n_groups=4), GbdtParams(n_trees=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        names = doc["schema"]["names"]
        assert names == list(FEATURE_NAMES)
        if edit == "swap":
            names[3], names[7] = names[7], names[3]  # zipf_src and log_rank_src
        elif edit == "rename":
            names[0] = "cosine"
        elif edit == "drop":
            names.pop()
        else:
            names.append("extra")
        # a fingerprint that matches the edited names, so only the names give the model away
        payload = "|".join(names) + ";disabled=" + ",".join(sorted(doc["schema"]["disabled"]))
        doc["schema"]["fingerprint"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        path.write_text(json.dumps(doc, indent=1))
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: schema names are not bilex's {N_FEATURES} feature columns in order"

    def test_tree_layout_is_the_node_array_fields(self, tmp_path, rng):
        import json

        model, _ = train(separable_groups(rng, n_groups=10), GbdtParams(n_trees=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        for tree, written in zip(model.trees, json.loads(path.read_text())["trees"]):
            assert list(written) == ["feature", "threshold", "left", "right", "value"]
            assert [a.dtype for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)] == [
                np.int32, np.float64, np.int32, np.int32, np.float64
            ]
        back = load_model(path)
        for tree, loaded in zip(model.trees, back.trees):
            for name, array in tree.arrays().items():
                loaded_array = getattr(loaded, name)
                assert loaded_array.dtype == getattr(tree, name).dtype
                np.testing.assert_array_equal(loaded_array, getattr(tree, name))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "bilex-gbdt", "version": 99}')
        with pytest.raises(DataFormatError, match="version"):
            load_model(path)

    def test_structurally_broken_tree_rejected(self, tmp_path, rng):
        import json

        groups = separable_groups(rng, n_groups=4)
        model, _ = train(groups, GbdtParams(n_trees=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["trees"][0]["left"] = [99] * len(doc["trees"][0]["left"])
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="child index"):
            load_model(path)

    @pytest.mark.parametrize("node, side, target", [(0, "left", 0), (1, "right", 1), (1, "left", 0), (0, "right", 5)])
    def test_child_not_after_its_parent_rejected(self, tmp_path, rng, node, side, target):
        import json

        model, _ = train(separable_groups(rng, n_groups=4), GbdtParams(n_trees=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        # root splits on feature 0, its left child on feature 1; nodes 2, 3 and 4 are leaves
        doc["trees"][0] = {
            "feature": [0, 1, -1, -1, -1],
            "threshold": [0.5, 0.0, 0.0, 0.0, 0.0],
            "left": [1, 3, -1, -1, -1],
            "right": [2, 4, -1, -1, -1],
            "value": [0.0, 0.0, 1.0, 2.0, 3.0],
        }
        path.write_text(json.dumps(doc))
        X = np.zeros((3, N_FEATURES))
        X[:, 0] = [0.0, 0.0, 1.0]
        X[:, 1] = [-1.0, 1.0, 0.0]
        np.testing.assert_array_equal(predict(load_model(path), X), model.params.learning_rate * np.array([2.0, 3.0, 1.0]))
        doc["trees"][0][side][node] = target  # a cycle, or a child past the last node
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="tree 0: child index out of range"):
            load_model(path)

    @pytest.mark.parametrize("field, value, message", [
        ("learning_rate", -3.0, "learning_rate must be in (0, 1], got -3.0"),
        ("max_depth", 0, "max_depth must be >= 1, got 0"),
        ("sigma", "1", "'<=' not supported"),
        # json writes these as bare NaN and Infinity, which it also reads
        ("l2_leaf_reg", float("nan"), "l2_leaf_reg must be finite, got nan"),
        ("min_child_weight", float("nan"), "min_child_weight must be finite, got nan"),
        ("sigma", float("nan"), "sigma must be finite, got nan"),
        ("sigma", float("inf"), "sigma must be finite, got inf"),
    ])
    def test_invalid_params_rejected(self, tmp_path, rng, field, value, message):
        import json

        model, _ = train(separable_groups(rng, n_groups=4), GbdtParams(n_trees=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["params"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: invalid model params: ")
        assert message in str(err.value)

    def test_tree_count_must_match_n_trees(self, tmp_path, rng):
        import json

        model, _ = train(separable_groups(rng, n_groups=4), GbdtParams(n_trees=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["params"]["n_trees"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: 3 trees, but params give n_trees=7"

    def test_wrong_column_count(self, rng):
        groups = separable_groups(rng, n_groups=4)
        model, _ = train(groups, GbdtParams(n_trees=1))
        with pytest.raises(DataFormatError, match="columns"):
            predict(model, np.zeros((2, 7)))


class TestCombineWithRetriever:
    def test_endpoints(self, rng):
        r = [rng.standard_normal(6)]
        c = [rng.standard_normal(6)]
        full = combine_with_retriever(r, c, 1.0)[0]
        assert rank_order(full).tolist() == rank_order(r[0]).tolist()
        none = combine_with_retriever(r, c, 0.0)[0]
        assert rank_order(none).tolist() == rank_order(c[0]).tolist()

    def test_hand_normalization(self):
        out = combine_with_retriever([np.array([2.0, 0.0])], [np.array([0.0, 1.0])], 0.5)[0]
        np.testing.assert_allclose(out, [0.5, 0.5])
        # tie: rank falls back to candidate position
        assert rank_order(out).tolist() == [0, 1]

    def test_constant_list_becomes_half(self):
        out = combine_with_retriever([np.array([3.0, 3.0])], [np.array([0.0, 2.0])], 0.5)[0]
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_mix_range_validated(self):
        with pytest.raises(ValueError):
            combine_with_retriever([np.zeros(2)], [np.zeros(2)], 1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 6).flatmap(lambda m: st.integers(1, 8).flatmap(lambda k: st.tuples(*[
            st.lists(st.sampled_from([-1.5, 0.0, 0.3, 2.0, 7.25]), min_size=m * k, max_size=m * k).map(
                lambda v, m=m, k=k: np.array(v).reshape(m, k)
            )
        ] * 2))),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_grid_equals_per_row_reference_bitwise(self, pair, mix):
        def norm(x):
            span = x.max() - x.min()
            return np.full_like(x, 0.5) if span == 0.0 else (x - x.min()) / span

        ranker, csls = pair
        got = combine_with_retriever(ranker, csls, mix)
        assert got.shape == ranker.shape
        for row, r, c in zip(got, ranker, csls):
            assert row.tobytes() == (mix * norm(r) + (1.0 - mix) * norm(c)).tobytes()


# ---------------------------------------------------------------- whole-array ranker passes


def oracle_tree(X, g, h, params, rows=None, depth=0):
    """Tree grown by brute force, as nested tuples (feature, threshold, left, right) or leaf values.

    Every feature and every midpoint between consecutive distinct node values is
    scored from direct masked sums. Candidates are grouped by the row partition
    they induce (a column and a decreasing transform of it give the same one),
    and a partition is taken by the lowest feature, then the lowest threshold,
    that induces it. Returns (tree, unambiguous): unambiguous is False when some
    node's best partition beats its runner-up by no more than 1e-9 relative.
    """
    lam, mcw = params.l2_leaf_reg, params.min_child_weight
    rows = np.arange(X.shape[0]) if rows is None else rows
    G, H = float(g[rows].sum()), float(h[rows].sum())
    leaf = (-G / (H + lam) if H + lam > 0 else 0.0) + 0.0
    if depth >= params.max_depth:
        return leaf, True
    parent = G * G / (H + lam) if H + lam > 0 else 0.0
    by_partition = {}
    for f in range(X.shape[1]):
        values = np.unique(X[rows, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = 0.5 * (lo + hi)
            thr = hi if thr <= lo else thr
            left = X[rows, f] < thr
            GL, HL = float(g[rows][left].sum()), float(h[rows][left].sum())
            GR, HR = float(g[rows][~left].sum()), float(h[rows][~left].sum())
            if not (HL >= mcw and HR >= mcw and HL + lam > 0 and HR + lam > 0):
                continue
            gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent)
            key = tuple(left) if left[0] else tuple(~left)
            if key not in by_partition:
                by_partition[key] = (gain, f, float(thr), left)
    ranked = sorted(by_partition.values(), key=lambda c: -c[0])
    if not ranked or not ranked[0][0] > 0.0:
        return leaf, True
    gain, f, thr, left = ranked[0]
    unambiguous = len(ranked) == 1 or gain - ranked[1][0] > 1e-9 * abs(gain)
    lt, ok_l = oracle_tree(X, g, h, params, rows[left], depth + 1)
    rt, ok_r = oracle_tree(X, g, h, params, rows[~left], depth + 1)
    return (f, thr, lt, rt), unambiguous and ok_l and ok_r


def nested(tree, node=0):
    if tree.feature[node] < 0:
        return float(tree.value[node])
    return (
        int(tree.feature[node]),
        float(tree.threshold[node]),
        nested(tree, int(tree.left[node])),
        nested(tree, int(tree.right[node])),
    )


@st.composite
def split_problems(draw):
    """Small matrices mixing binary, one-hot, constant, tied, duplicated and transformed columns.

    A one-hot block is 2-5 columns with at most one 1 per row, so its
    columns are bundled. Values, gradients and hessians are small multiples
    of 1/4, so every sum is exact and candidates inducing the same partition
    tie exactly.
    """
    n = draw(st.integers(min_value=2, max_value=24))
    ints = st.integers(min_value=0, max_value=5)
    cols = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(
            ["binary", "onehot", "constant", "ties", "distinct", "copy", "increasing", "decreasing"]
        ))
        if kind in ("copy", "increasing", "decreasing") and cols:
            base = cols[draw(st.integers(min_value=0, max_value=len(cols) - 1))]
            cols.append({"copy": base, "increasing": 3.0 * base + 1.0, "decreasing": 5.0 - 2.0 * base}[kind])
        elif kind == "onehot":
            width = draw(st.integers(min_value=2, max_value=5))
            hot = np.array(draw(st.lists(st.integers(0, width), min_size=n, max_size=n)))  # width: no 1 in the row
            cols.extend((hot == j).astype(np.float64) for j in range(width))
        elif kind == "binary":
            cols.append(np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64))
        elif kind == "constant":
            cols.append(np.full(n, float(draw(ints))))
        elif kind == "distinct":
            cols.append(np.array(draw(st.permutations(range(n))), dtype=np.float64) / 8.0)
        else:
            cols.append(np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.float64))
    X = np.column_stack(cols)
    g = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)), dtype=np.float64) / 4.0
    h = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), dtype=np.float64) / 4.0
    params = GbdtParams(
        max_depth=draw(st.integers(min_value=1, max_value=3)),
        l2_leaf_reg=draw(st.sampled_from([0.0, 0.5, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 0.25, 1.0])),
    )
    return X, g, h, params


class TestHistogramSplitOracle:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_matches_brute_force_oracle(self, problem):
        X, g, h, params = problem
        want, unambiguous = oracle_tree(X, g, h, params)
        if unambiguous:
            assert nested(fit_tree(X, g, h, params)) == want

    @settings(max_examples=100, deadline=None)
    @given(split_problems(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_generic_gradients_pick_a_best_root_split(self, problem, seed):
        # non-dyadic gradients, which fit_tree rounds to its grid and the oracle
        # does not: the chosen root split must still be the oracle's best
        # partition unless it is a near tie
        X, _, _, params = problem
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(X.shape[0])
        h = rng.random(X.shape[0]) + 0.01
        stump = GbdtParams(max_depth=1, l2_leaf_reg=params.l2_leaf_reg, min_child_weight=params.min_child_weight)
        want, unambiguous = oracle_tree(X, g, h, stump)
        tree = fit_tree(X, g, h, stump)
        if unambiguous and isinstance(want, tuple):
            assert tree.feature[0] >= 0
            left = X[:, tree.feature[0]] < tree.threshold[0]
            want_left = X[:, want[0]] < want[1]
            assert (left == want_left).all() or (left == ~want_left).all()
        elif unambiguous:
            assert tree.n_nodes() == 1

    @settings(max_examples=100, deadline=None)
    @given(split_problems(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_leaf_values_written_to_out_equal_predict(self, problem, seed):
        X, _, _, params = problem
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(X.shape[0]) / 3.0
        h = rng.random(X.shape[0]) + 0.01
        out = np.full(X.shape[0], np.nan)
        tree = fit_tree(X, g, h, params, out=out)
        assert np.array_equal(bits(out), bits(tree.predict(X)))

    def test_adjacent_values_split_between_them(self):
        # the midpoint of two neighbouring floats rounds onto the lower one;
        # the threshold must then be the upper value so the rows still separate
        lo = 1.0
        hi = float(np.nextafter(lo, 2.0))
        X = np.array([[lo], [hi], [lo], [hi]])
        g = np.array([-1.0, 1.0, -1.0, 1.0])
        tree = fit_tree(X, g, np.ones(4), GbdtParams(max_depth=1, l2_leaf_reg=0.0, min_child_weight=0.0))
        assert tree.threshold[0] == hi
        np.testing.assert_array_equal(tree.predict(X), [1.0, -1.0, 1.0, -1.0])

    def test_constant_matrix_is_one_leaf(self):
        X = np.full((5, 3), 2.0)
        tree = fit_tree(X, np.array([-1.0, 1.0, -1.0, 1.0, 2.0]), np.ones(5), GbdtParams(min_child_weight=0.0))
        assert tree.n_nodes() == 1
        assert tree.value[0] == -2.0 / 6.0


class TestGridSums:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
        st.integers(min_value=-1100, max_value=900),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_sum_of_grid_values_is_exact(self, values, shift, seed):
        # values of mixed magnitudes at any scale, subnormal ones included; every sum the split search takes
        # equals the exactly rounded sum
        x = np.ldexp(np.array(values), shift)
        v = _on_grid(x)
        assert np.all(np.abs(v - x) <= np.abs(x))  # each value rounds to a neighbour or to 0
        G = np.sum(v)
        assert G == math.fsum(v)
        forward, backward = np.cumsum(v), np.cumsum(v[::-1])
        for i in range(v.size):
            assert forward[i] == math.fsum(v[: i + 1]) and backward[i] == math.fsum(v[::-1][: i + 1])
            assert G - forward[i] == math.fsum(v[i + 1 :])
        codes = np.random.default_rng(seed).integers(0, 4, v.size)
        bins = np.bincount(codes, weights=v, minlength=4)
        assert bins.tolist() == [math.fsum(v[codes == c]) for c in range(4)]

    def test_dyadic_values_stay_put(self):
        x = np.array([-1.0, 0.25, 3.0, -0.0, 0.0])
        assert _on_grid(x).tobytes() == x.tobytes()


class TestSplitSearchMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        split_problems(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([(0.0, 0.0), (0.25, 1.0), (0.0, 0.5), (1.0, 0.0)]),
    )
    def test_same_tree_and_leaf_bits_as_the_reference(self, problem, seed, reg):
        # non-dyadic gradients, mixed with the g = h = 0 rows of untrainable groups; fit_tree puts them on their
        # grids itself, the reference is fed them there
        X, _, _, params = problem
        n = X.shape[0]
        rng = np.random.default_rng(seed)
        idle = rng.random(n) < 0.3
        g = np.where(idle, 0.0, rng.standard_normal(n))
        h = np.where(idle, 0.0, rng.random(n))
        mcw, lam = reg
        params = GbdtParams(max_depth=params.max_depth, min_child_weight=mcw, l2_leaf_reg=lam)
        out, want_out = np.full(n, np.nan), np.full(n, np.nan)
        tree = fit_tree(X, g, h, params, out=out)
        want = reference.fit_tree(X, _on_grid(g), _on_grid(h), params, out=want_out)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name
        assert out.tobytes() == want_out.tobytes()


@st.composite
def flag_matrices(draw):
    """Sparse 0/1 columns, some never 1 in the same row, with a few constant and non-0/1 columns."""
    n = draw(st.integers(min_value=1, max_value=30))
    cols = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(["sparse", "sparse", "sparse", "dense", "zeros", "signed_zeros", "sevens", "zero_two"]))
        p = {
            "sparse": [0.0] * 5 + [1.0], "dense": [0.0, 1.0], "zeros": [0.0], "signed_zeros": [0.0, -0.0],
            "sevens": [7.0], "zero_two": [0.0, 2.0],
        }[kind]
        cols.append(draw(st.lists(st.sampled_from(p), min_size=n, max_size=n)))
    return np.array(cols, dtype=np.float64).T


class TestBundles:
    @settings(max_examples=200, deadline=None)
    @given(flag_matrices())
    def test_columns_sharing_a_one_never_bundled(self, X):
        bins = _BinnedColumns(X)
        plain = [f for f, _, _ in bins.plain]
        bundled = [int(f) for members, _ in bins.bundles for f in members]
        assert sorted(plain + bundled) == [f for f in range(X.shape[1]) if np.unique(X[:, f]).size > 1]
        # every 0/1 column is a bundle member, alone if need be
        assert not any(set(np.unique(X[:, f]).tolist()) <= {0.0, 1.0} for f in plain)
        for f, values, codes in bins.plain:
            distinct, inverse = np.unique(X[:, f], return_inverse=True)
            assert np.array_equal(values, distinct) and np.array_equal(codes, inverse)
        for members, codes in bins.bundles:
            assert members.size >= 1 and (np.diff(members) > 0).all()
            block = X[:, members]
            assert set(np.unique(block).tolist()) <= {0.0, 1.0}
            assert (block.sum(axis=1) <= 1).all()  # no row holds two members' 1s
            np.testing.assert_array_equal(codes, np.where(block.any(axis=1), block.argmax(axis=1), members.size))

    def test_constant_columns_get_no_codes_and_leave_the_tree_alone(self, rng):
        x = rng.standard_normal(40)
        signed_zeros = np.where(rng.random(40) < 0.5, 0.0, -0.0)
        X = np.column_stack([np.full(40, 7.0), x, np.zeros(40), signed_zeros, np.full(40, -2.5)])
        bins = _BinnedColumns(X)
        assert [f for f, _, _ in bins.plain] == [1] and not bins.bundles
        g, h = rng.standard_normal(40), rng.random(40) + 0.5
        params = GbdtParams(max_depth=3, min_child_weight=0.0)
        tree, alone = fit_tree(X, g, h, params), fit_tree(x[:, None], g, h, params)
        assert set(tree.feature[tree.feature >= 0].tolist()) == {1}
        assert tree.threshold.tobytes() == alone.threshold.tobytes() and tree.value.tobytes() == alone.value.tobytes()

    def test_member_holding_every_row_of_a_node_is_not_cut(self):
        # after the root cut, every row of a child holds the same member and
        # none holds the other; on the grid G - G_t is then exactly 0, and so is the gain
        X = np.zeros((32, 2))
        X[:16, 0] = 1.0
        X[16:, 1] = 1.0
        params = GbdtParams(max_depth=3, min_child_weight=0.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = np.concatenate([rng.standard_normal(16) - 2.0, rng.standard_normal(16) + 2.0])
            tree = fit_tree(X, g, rng.random(32) + 0.5, params)
            assert tree.n_nodes() == 3

    def test_synth_world_bundles_are_the_pos_blocks(self):
        from bilex.retrieval import SimilarityParams, align_procrustes, apply_alignment, retrieve_topk
        from bilex.synth import SynthConfig, gen_bilingual_world

        world = gen_bilingual_world(SynthConfig(vocab_n=300, dim=24, noise_sigma=0.25, seed=4))
        src = apply_alignment(world.src, align_procrustes(world.src, world.tgt, world.gold))
        cands, _ = retrieve_topk(src, world.tgt, SimilarityParams(k_csls=10, top_k=30))
        groups = build_groups(
            world.gold.sources(), cands, world.freq_src, world.freq_tgt, world.pos_src, world.pos_tgt,
            world.src.vocab, world.tgt.vocab, dic=world.gold,
        )
        X = groups.features
        bins = _BinnedColumns(X)
        varying = [name for f, name in enumerate(FEATURE_NAMES) if np.unique(X[:, f]).size > 1]
        want = [[name for name in varying if name.startswith(block)] for block in ("src_pos_", "cand_pos_")]
        assert len(want[0]) >= 2 and len(want[1]) >= 2
        # pos_match shares a 1 with both blocks, so it is a bundle of one
        assert [[FEATURE_NAMES[f] for f in members] for members, _ in bins.bundles] == [["pos_match"], *want]

        stats = FitStats()
        start = time.perf_counter()
        train(groups, GbdtParams(n_trees=2), stats=stats)
        wall = time.perf_counter() - start
        assert stats.histogram_columns == len(varying) - len(want[0]) - len(want[1]) + 2
        assert stats.bundled_columns == len(want[0]) + len(want[1]) + 1
        parts = [stats.bin_s, stats.lambda_s, stats.split_s, stats.map_s]
        assert min(parts) > 0.0 and sum(parts) <= wall


class TestSplitTieRule:
    @pytest.mark.parametrize("transform_first", [False, True])
    def test_decreasing_transform_ties_to_lower_index(self, transform_first):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        cols = [x, 10.0 - 2.0 * x]
        X = np.column_stack(cols[::-1] if transform_first else cols)
        g = np.array([-1.0, -1.0, -0.5, 0.75, 1.0, 1.0])
        tree = fit_tree(X, g, np.ones(6), GbdtParams(max_depth=1, min_child_weight=0.0))
        assert tree.feature[0] == 0
        np.testing.assert_array_equal(X[:, 0] < tree.threshold[0], transform_first ^ (x < 2.5))

    @pytest.mark.parametrize("mirror_first", [False, True])
    def test_mirror_gains_the_same_bits_and_the_lower_index_wins(self, mirror_first):
        # the cuts of x and -x split the rows alike, one side's sums taken by prefix, the other's as the node
        # total minus them; with non-dyadic g and h only exact sums make the two best gains equal
        params = GbdtParams(max_depth=1, min_child_weight=0.0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(64)
            g, h = rng.standard_normal(64) / 3.0, rng.random(64) + 0.1
            cols = [-x, x] if mirror_first else [x, -x]
            gains = []
            for X in (cols[0][:, None], cols[1][:, None], np.column_stack(cols)):
                stats = FitStats()
                tree = fit_tree(X, g, h, params, stats=stats)
                gains.append(stats.gain[: X.shape[1]].sum())
            assert gains[0].tobytes() == gains[1].tobytes() == gains[2].tobytes(), seed
            assert tree.feature[0] == 0, seed

    def test_duplicate_column_ties_to_lower_index(self, rng):
        x = rng.standard_normal(40)
        X = np.column_stack([np.zeros(40), x, x])
        tree = fit_tree(X, rng.standard_normal(40), np.ones(40), GbdtParams(max_depth=3, min_child_weight=0.0))
        assert set(tree.feature[tree.feature >= 0].tolist()) == {1}


class TestSplitImportance:
    @pytest.mark.parametrize("group, column", [("csls", 0), ("ext", 1), ("freq", 5), ("pos", 9)])
    def test_the_only_group_that_can_split_gets_every_split(self, rng, group, column):
        labels = np.zeros((30, 5), dtype=np.int8)
        labels[np.arange(30), rng.integers(0, 5, 30)] = 1
        features = np.zeros((150, N_FEATURES))
        values = labels.ravel() + 0.5 * rng.standard_normal(150)
        features[:, column] = values > 0.5 if group == "pos" else values  # a 0/1 column for the POS block
        stats = FitStats()
        model, _ = train(grid(labels, features), GbdtParams(n_trees=4, max_depth=2, min_child_weight=0.0), stats=stats)
        split = np.concatenate([tree.feature[tree.feature >= 0] for tree in model.trees])
        assert split.size > 0 and (split == column).all()
        np.testing.assert_array_equal(stats.splits, np.bincount(split, minlength=N_FEATURES))
        fields = stats.fields()
        for other in IMPORTANCE_GROUPS:
            assert fields[f"splits_{other}"] == (str(split.size) if other == group else "0")
            assert (float(fields[f"gain_{other}"]) > 0) == (other == group)
        assert sorted(np.concatenate([list(c) for c in IMPORTANCE_GROUPS.values()]).tolist()) == list(
            range(N_FEATURES)
        )


class TestPredictGroups:
    def test_equals_per_group_predict_bitwise(self, rng):
        model, _ = train(separable_groups(rng, n_groups=12), GbdtParams(n_trees=6, max_depth=3))
        m, k = 6, 7
        groups = grid(np.zeros((m, k)), rng.standard_normal((m * k, N_FEATURES)))
        got = predict_groups(model, groups)
        assert got.shape == (m, k)
        for i in range(m):
            np.testing.assert_array_equal(got[i], predict(model, groups.features[i * k:(i + 1) * k]))

    def test_empty_list(self, rng):
        model, _ = train(separable_groups(rng, n_groups=4), GbdtParams(n_trees=1))
        assert predict_groups(model, grid(np.zeros((0, 3)))).shape == (0, 3)


def mean_ap_reference(groups, scores):
    aps = [
        average_precision(labels[rank_order(s)])
        for labels, s in zip(groups.labels, scores)
        if labels.sum() > 0
    ]
    return float(np.mean(aps)) if aps else 0.0


# (labels, scores) grids of a random shape, ties and all-negative rows included
MAP_GRIDS = st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=20)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.lists(st.integers(0, 1), min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]),
        st.lists(
            st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.25]), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ),
        st.just(shape),
    )
)


class TestVectorizedMeanAp:
    @settings(max_examples=200, deadline=None)
    @given(MAP_GRIDS)
    def test_equals_average_precision_loop(self, data):
        labels, scores, shape = data
        groups = grid(np.array(labels, dtype=np.int8).reshape(shape))
        scores = np.array(scores, dtype=np.float64).reshape(shape)
        got = mean_ap(groups, scores)
        want = mean_ap_reference(groups, scores)
        if (groups.labels.sum(axis=1) < 8).all():
            assert got == want
        else:
            assert got == pytest.approx(want, abs=1e-12)

    def test_many_positives_within_tolerance(self, rng):
        groups = grid((rng.random((5, 30)) < 0.5).astype(np.int8))
        scores = np.round(rng.standard_normal((5, 30)), 1)
        assert groups.labels.sum(axis=1).max() >= 8
        assert mean_ap(groups, scores) == pytest.approx(mean_ap_reference(groups, scores), abs=1e-12)

    def test_only_all_negative_groups(self):
        assert mean_ap(grid(np.zeros((2, 3))), np.zeros((2, 3))) == 0.0


class TestAtomicModelWrite:
    def test_failed_write_leaves_no_file(self, tmp_path, rng):
        model, _ = train(separable_groups(rng, n_groups=4), GbdtParams(n_trees=2))
        model.meta["unserializable"] = object()  # json.dump raises after writing the trees' prefix
        path = tmp_path / "model.json"
        with pytest.raises(TypeError):
            save_model(model, path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_existing_file(self, tmp_path, rng):
        model, _ = train(separable_groups(rng, n_groups=4), GbdtParams(n_trees=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()
        model.meta["unserializable"] = object()
        with pytest.raises(TypeError):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        load_model(path)
