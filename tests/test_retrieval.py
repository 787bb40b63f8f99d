import functools
import math
import operator
import sys
import time
import tracemalloc
import unicodedata
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilex import retrieval
from bilex.corpus import TranslationDictionary, Vocabulary
from bilex.retrieval import (
    CandidateSet,
    SimilarityParams,
    align_procrustes,
    apply_alignment,
    augment_dictionary,
    csls_score,
    hubness_skew,
    k_occurrence,
    knn_mean_similarity,
    load_candidates,
    mine_hard_negatives,
    mutual_nn_pairs,
    retrieve_topk,
    skewness,
    write_candidates,
)
from bilex.synth import random_orthogonal
from conftest import unit_space
from reference import mutual_pairs_two_passes


def brute_force_csls(src, tgt, k_csls):
    """Pointwise oracle: full similarity matrix plus per-row/column means."""
    sims = src.matrix @ tgt.matrix.T
    r_src = np.sort(sims, axis=1)[:, -k_csls:].mean(axis=1)
    r_tgt = np.sort(sims.T, axis=1)[:, -k_csls:].mean(axis=1)
    full = np.empty_like(sims)
    for i in range(sims.shape[0]):
        for j in range(sims.shape[1]):
            full[i, j] = csls_score(src.matrix[i], tgt.matrix[j], r_src[i], r_tgt[j])
    return full, r_src, r_tgt


def rank_desc_with_id_ties(row):
    return sorted(range(len(row)), key=lambda j: (-row[j], j))


def pair_row(x, Y):
    """The per-pair routine's float64 dot products of x with every row of Y."""
    return retrieval._pair_dots(np.tile(x, (len(Y), 1)), Y)


def operands(n_rows, n_cols):
    """Float32 operands whose product is an (n_rows, n_cols) block of zeros, for _map_row_blocks."""
    return np.zeros((n_rows, 1), dtype=np.float32), np.zeros((n_cols, 1), dtype=np.float32)


def mutual_pairs(src, tgt, k_csls, n_threads=1):
    """mutual_nn_pairs over the top-1 retrieval and target-side argmax that semi train passes it."""
    back = np.empty(len(tgt), dtype=np.int64)
    best, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=k_csls, top_k=1), n_threads=n_threads, back=back)
    return mutual_nn_pairs(best, back)


def skew(src, tgt, k, metric="csls"):
    """hubness_skew over a top-k retrieval at the default neighborhood size of 10 (capped by the target count)."""
    cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=min(10, len(tgt)), top_k=k), metric)
    return hubness_skew(cands, k, len(tgt))


class TestCslsScore:
    def test_saturated_hub(self):
        e = np.array([1.0, 0.0])
        assert csls_score(e, e, 1.0, 1.0) == 0.0

    def test_orthogonal_empty_neighborhoods(self):
        assert csls_score(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.0) == 0.0

    def test_arithmetic(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.8, 0.6])
        assert csls_score(x, y, 0.5, 0.3) == pytest.approx(0.8)

    def test_formula_example(self):
        # 2cos = 1.2, r terms 0.9 and 0.1
        x = np.array([1.0, 0.0])
        y = np.array([0.6, 0.8])
        assert csls_score(x, y, 0.9, 0.1) == pytest.approx(0.2)


class TestKnnMeanSimilarity:
    def test_self_match(self):
        index = unit_space([[1, 0], [0, 1]])
        q = unit_space([[1, 0]])
        assert knn_mean_similarity(q, index, 1)[0] == pytest.approx(1.0)

    def test_orthogonal_basis_k2(self):
        index = unit_space([[1, 0], [0, 1]])
        q = unit_space([[1, 0]])
        assert knn_mean_similarity(q, index, 2)[0] == pytest.approx(0.5)

    def test_against_full_sort_oracle(self, rng):
        q = unit_space(rng.standard_normal((50, 16)))
        index = unit_space(rng.standard_normal((50, 16)))
        for k in (1, 3, 10, 50):
            got = knn_mean_similarity(q, index, k)
            sims = q.matrix @ index.matrix.T
            want = np.sort(sims, axis=1)[:, -k:].mean(axis=1)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_k_out_of_range(self):
        index = unit_space([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            knn_mean_similarity(index, index, 3)

    def test_thread_count_invariance(self, rng):
        q = unit_space(rng.standard_normal((700, 8)))
        index = unit_space(rng.standard_normal((300, 8)))
        a = knn_mean_similarity(q, index, 5, n_threads=1)
        b = knn_mean_similarity(q, index, 5, n_threads=4)
        np.testing.assert_array_equal(a, b)


class TestRetrieveTopk:
    def test_matches_pointwise_oracle(self, rng):
        src = unit_space(rng.standard_normal((100, 32)))
        tgt = unit_space(rng.standard_normal((200, 32)))
        params = SimilarityParams(k_csls=10, top_k=5)
        cands, means = retrieve_topk(src, tgt, params)
        full, r_src, r_tgt = brute_force_csls(src, tgt, 10)
        np.testing.assert_allclose(means.r_src, r_src, atol=1e-9)
        np.testing.assert_allclose(means.r_tgt, r_tgt, atol=1e-9)
        for i in range(100):
            want = rank_desc_with_id_ties(full[i])[:5]
            assert cands.cand_ids[i].tolist() == want
            np.testing.assert_allclose(cands.scores[i], full[i][want], atol=1e-6)

    def test_identical_sources_order_equals_cosine_order(self, rng):
        v = rng.standard_normal(8)
        src = unit_space(np.tile(v, (20, 1)))
        tgt = unit_space(rng.standard_normal((20, 8)))
        params = SimilarityParams(k_csls=3, top_k=20)
        cands, _ = retrieve_topk(src, tgt, params)
        cos = src.matrix[0] @ tgt.matrix.T
        cos_order = rank_desc_with_id_ties(cos)
        sims = src.matrix @ tgt.matrix.T
        r_tgt = np.sort(sims.T, axis=1)[:, -3:].mean(axis=1)
        csls_order = rank_desc_with_id_ties(2 * cos - r_tgt)
        for i in range(20):
            assert cands.cand_ids[i].tolist() == csls_order
        # with identical sources every target's source neighborhood is the
        # same constant, so the two orderings coincide
        assert csls_order == cos_order

    def test_scores_non_increasing_and_no_duplicates(self, rng):
        src = unit_space(rng.standard_normal((30, 8)))
        tgt = unit_space(rng.standard_normal((40, 8)))
        cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=5, top_k=12))
        for i in range(30):
            row = cands.scores[i]
            assert all(a >= b for a, b in zip(row, row[1:]))
            assert len(set(cands.cand_ids[i].tolist())) == 12

    def test_cosine_metric(self, rng):
        src = unit_space(rng.standard_normal((10, 8)))
        tgt = unit_space(rng.standard_normal((15, 8)))
        params = SimilarityParams(k_csls=3, top_k=4)
        cands, means = retrieve_topk(src, tgt, params, metric="cosine")
        for i in range(10):
            row = pair_row(src.matrix[i], tgt.matrix)
            want = rank_desc_with_id_ties(row)[:4]
            assert cands.cand_ids[i].tolist() == want
            # a cosine score is the per-pair routine's dot product, with no scale or mean step
            assert cands.scores[i].tobytes() == row[want].tobytes()
        assert not means.r_src.any() and not means.r_tgt.any()
        assert (means.r_src.shape, means.r_tgt.shape) == ((10,), (15,))
        for rows in ([7, 2, 5], [4]):
            scoped, scoped_means = retrieve_topk(src, tgt, params, metric="cosine", rows=np.array(rows))
            assert scoped.src_ids.tolist() == rows
            assert scoped.cand_ids.tolist() == cands.cand_ids[rows].tolist()
            assert scoped.scores.tobytes() == cands.scores[rows].tobytes()
            assert not scoped_means.r_src.any() and scoped_means.r_src.shape == (len(rows),)

    def test_tie_breaking_by_ascending_id(self):
        # two identical target vectors force an exact tie
        src = unit_space([[1.0, 0.0]])
        tgt = unit_space([[0.6, 0.8], [1.0, 0.0], [1.0, 0.0]])
        cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=1, top_k=2), metric="cosine")
        assert cands.cand_ids[0].tolist() == [1, 2]

    def test_param_validation(self, rng):
        src = unit_space(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            retrieve_topk(src, src, SimilarityParams(k_csls=0, top_k=2))
        with pytest.raises(ValueError):
            retrieve_topk(src, src, SimilarityParams(k_csls=1, top_k=9))

    def test_unnormalized_rejected(self, rng):
        from conftest import space_from

        src = space_from(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError, match="normalized"):
            retrieve_topk(src, src, SimilarityParams(k_csls=1, top_k=2))

    def test_thread_count_invariance(self, rng):
        src = unit_space(rng.standard_normal((600, 16)))
        tgt = unit_space(rng.standard_normal((700, 16)))
        params = SimilarityParams(k_csls=10, top_k=7)
        a, _ = retrieve_topk(src, tgt, params, n_threads=1)
        b, _ = retrieve_topk(src, tgt, params, n_threads=8)
        np.testing.assert_array_equal(a.cand_ids, b.cand_ids)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_oracle_equivalence_at_500(self, rng):
        # the largest instance the oracle invariant covers
        src = unit_space(rng.standard_normal((500, 24)))
        tgt = unit_space(rng.standard_normal((500, 24)))
        cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=10, top_k=10))
        sims = src.matrix @ tgt.matrix.T
        r_src = np.sort(sims, axis=1)[:, -10:].mean(axis=1)
        r_tgt = np.sort(sims.T, axis=1)[:, -10:].mean(axis=1)
        full = 2 * sims - r_src[:, None] - r_tgt[None, :]
        for i in range(500):
            want = rank_desc_with_id_ties(full[i])[:10]
            assert cands.cand_ids[i].tolist() == want
            np.testing.assert_allclose(cands.scores[i], full[i][want], atol=1e-6)


@st.composite
def wide_rows(draw):
    """Rows of n >= k values: half narrower than 16k (one chunk, kept whole),
    half wide enough for the chunk screen, often with a short last chunk;
    with continuous, coarsely rounded or constant values."""
    k = draw(st.integers(1, 24))
    if draw(st.booleans()):
        n = draw(st.integers(k, 16 * k - 1))
    else:
        n = 16 * k + draw(st.integers(0, 150))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = rng.standard_normal((m, n))
    kind = draw(st.sampled_from(["continuous", "rounded", "integers", "constant"]))
    if kind == "rounded":
        S = np.round(S * 20) / 20
    elif kind == "integers":
        S = np.round(S)
    elif kind == "constant":
        S[:] = draw(st.sampled_from([0.0, 0.25, -1.0]))
    return S, k


def laid_out(S, k, r=None):
    """S's rows as product rows of the layout of a top-k pass over its columns (chunks sorted by r if given)."""
    chunks = retrieval._Chunks.build(S.shape[1], k, r)
    screen = np.full((len(S), chunks.count * chunks.width), -np.inf, dtype=S.dtype)
    screen[:, : S.shape[1]] = S[:, chunks.ids]
    return screen, chunks


def chunk_members(n, k):
    """The column ids of each chunk of a top-k pass over n columns (cosine order), by a loop over columns."""
    chunks = retrieval._Chunks.build(n, k)
    members = [[] for _ in range(chunks.count)]
    for position, i in enumerate(chunks.ids.tolist()):
        members[position % chunks.count].append(i)
    return members


def kept_and_screened(row, k):
    """Columns of the chunks whose maximum reaches the k-th largest chunk maximum, padding included, and the
    values at or above that maximum."""
    members = chunk_members(row.size, k)
    width = retrieval._chunk_width(row.size, k)
    bound = sorted((row[m].max() for m in members), reverse=True)[k - 1]
    return sum(width for m in members if row[m].max() >= bound), int((row >= bound).sum())


def descending_mean(row, k):
    """Mean of the k largest values, added one at a time from the largest,
    equal values in id order (sorted is stable also in reverse); sum() would
    start from +0.0 and turn a lone -0.0 into 0.0."""
    return functools.reduce(operator.add, sorted(row.tolist(), reverse=True)[:k]) / k


def values_of(S):
    """A rescore function that reads the values of S itself."""
    return lambda ids, counts: np.where(
        np.arange(ids.shape[1]) < counts[:, None], S[np.arange(len(ids))[:, None], ids], -np.inf
    )


@st.composite
def screened_rows(draw):
    """wide_rows with a screen off by up to e per value, often by exactly +e or -e, and the margin 2e."""
    S, k = draw(wide_rows())
    e = draw(st.sampled_from([0.01, 0.05, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    err = np.where(rng.random(S.shape) < 0.5, rng.choice([-e, e], S.shape), rng.uniform(-e, e, S.shape))
    screen = (S + err).astype(draw(st.sampled_from([np.float32, np.float64])))
    # the screen's rounding moves it a little further from S than e
    return S, screen, k, 2 * float(np.abs(screen - S).max()) * (1 + 2**-40)


def adversarial_rows(d, rng):
    """Positive rows whose float32 casts all round down (not normalized, which would move
    them off their float32 midpoints), then random unit rows."""
    base = np.abs(rng.standard_normal((30, d))).astype(np.float32)
    up = np.nextafter(base, np.float32(np.inf))
    below_midpoints = base + (up.astype(np.float64) - base) * 0.499
    unit = rng.standard_normal((30, d))
    return np.vstack([below_midpoints, unit / np.linalg.norm(unit, axis=1, keepdims=True)])


class TestExactScreen:
    def test_wide_rows_are_screened_with_a_short_last_chunk(self, rng):
        # 87 columns in 22 chunks of 4: the last one ends in padding; each chunk holds a run of ids by r
        k, n = 5, 16 * 5 + 7
        r = rng.uniform(-1, 1, n)
        chunks = retrieval._Chunks.build(n, k, r)
        assert (chunks.width, chunks.count) == (4, 22)
        assert sorted(chunks.ids.tolist()) == list(range(n))
        members = [chunks.ids[j :: chunks.count] for j in range(chunks.count)]
        assert [len(m) for m in members] == [4] * 21 + [3]
        runs = np.concatenate([np.sort(r[m]) for m in members])
        assert runs.tobytes() == np.sort(r).tobytes()
        for j, m in enumerate(members):
            r32 = r[m].astype(np.float32)
            assert chunks.r_low[j] == r32.min() and chunks.r_high[j] == r32.max()
            assert chunks.r_slots[j, : len(m)].tobytes() == r32.tobytes() and not chunks.r_slots[j, len(m) :].any()
        # without r, chunk j holds the j-th run of ascending ids
        assert chunk_members(n, k)[:2] == [[0, 1, 2, 3], [4, 5, 6, 7]]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 24, 50, 100])
    def test_chunk_widths_leave_no_scalar_tail(self, k):
        # the width nearest sqrt(n / k) leaves at least k chunks, and padding only ends chunks: no chunk is short
        # by more than one column
        for n in range(k, 8 * k * 70):
            width = retrieval._chunk_width(n, k)
            count = -(-n // width)
            assert width == max(1, round(math.sqrt(n / k))) and count >= k and count * width - n < count
        assert retrieval._chunk_width(20_000, 50) == 20 and retrieval._chunk_width(5_000, 10) == 22

    @settings(max_examples=300, deadline=None)
    @given(case=wide_rows())
    def test_top_k_equals_the_full_row_routine(self, case):
        # the values as their own screen, with no margin
        S, k = case
        stats = retrieval.ScanStats()
        screen, chunks = laid_out(S, k)
        ids, vals = retrieval._topk_desc_rows(screen, chunks, k, 0.0, values_of(S), stats)
        full_ids, full_vals = retrieval._topk_desc_full(S, k, np.broadcast_to(np.arange(S.shape[1]), S.shape))
        assert ids.tolist() == full_ids.tolist()
        assert vals.tobytes() == full_vals.tobytes()
        for row, got in zip(S, ids):
            assert got.tolist() == np.lexsort((np.arange(row.size), -row))[:k].tolist()
        kept, screened = zip(*(kept_and_screened(row, k) for row in S))
        assert (stats.rows, stats.columns, stats.widest) == (len(S), sum(kept), max(kept))
        # the rescored pairs: every value at or above the row's k-th largest chunk maximum
        assert stats.rescored == sum(screened)

    @settings(max_examples=300, deadline=None)
    @given(case=wide_rows())
    @example(case=(np.array([[-0.0, -1.0, -0.0, -0.0, -0.0, -0.0, 0.0]]), 1))
    def test_top_k_mean_is_the_descending_sum(self, case):
        S, k = case
        screen, chunks = laid_out(S, k)
        got = retrieval._topk_mean_rows(screen, chunks, k, 0.0, values_of(S))
        want = np.array([descending_mean(row, k) for row in S])
        assert got.tobytes() == want.tobytes()

    def test_narrow_rows_take_the_same_sum(self, rng):
        S = np.round(rng.standard_normal((6, 40)) * 20) / 20
        for k in (1, 3, 10, 40):
            want = np.array([descending_mean(row, k) for row in S])
            assert retrieval._topk_mean_rows(*laid_out(S, k), k, 0.0, values_of(S)).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=screened_rows())
    def test_a_screen_within_half_the_margin_selects_exactly(self, case):
        # any screen within margin / 2 of the rescored values, ties and reorderings included
        S, screen, k, margin = case
        rows, chunks = laid_out(screen, k)
        ids, vals = retrieval._topk_desc_rows(rows, chunks, k, margin, values_of(S))
        means = retrieval._topk_mean_rows(rows, chunks, k, margin, values_of(S))
        full_ids, full_vals = retrieval._topk_desc_full(S, k, np.broadcast_to(np.arange(S.shape[1]), S.shape))
        assert ids.tolist() == full_ids.tolist()
        assert vals.tobytes() == full_vals.tobytes()
        assert means.tobytes() == np.array([descending_mean(row, k) for row in S]).tobytes()

    @pytest.mark.parametrize("d", [8, 64, 300])
    def test_margin_bounds_the_observed_screen_error(self, d):
        rng = np.random.default_rng(d)
        X, Y = adversarial_rows(d, rng), adversarial_rows(d, rng)
        r = rng.uniform(-1, 1, len(Y))
        ids, counts = np.tile(np.arange(len(Y)), (len(X), 1)), np.full(len(X), len(Y))
        screen = np.matmul(X.astype(np.float32), Y.astype(np.float32).T)
        pairs = np.empty(retrieval.RESCORE_CELLS)
        cosine = retrieval._rescorer(X, Y, pairs)(ids, counts)
        csls = retrieval._rescorer(X, Y, pairs, r)(ids, counts)
        largest = d, retrieval._max_norm(X), retrieval._max_norm(Y)
        cosine_margin = retrieval._screen_margin(*largest)
        csls_margin = retrieval._screen_margin(*largest, float(np.abs(r).max()))
        cosine_error = np.abs(screen.astype(np.float64) - cosine).max()
        csls_error = np.abs((screen * np.float32(2) - r.astype(np.float32)).astype(np.float64) - csls).max()
        # the rows that all round down give the screen a real error to bound
        assert 0 < cosine_error <= cosine_margin / 2 and 0 < csls_error <= csls_margin / 2
        # at least twice the worst case of the float32 cast and dot product alone
        norms = np.linalg.norm(X, axis=1).max() * np.linalg.norm(Y, axis=1).max()
        assert cosine_margin >= 2 * (d + 2) * 2.0**-24 * norms and csls_margin >= 2 * cosine_margin

    def test_block_buffers_leave_results_independent_of_workers(self, rng, monkeypatch):
        # 32-row blocks: several blocks share each worker's buffer; at d = 48 a
        # block's 32 x 400 x 48 product is large enough for OpenBLAS to split
        src = unit_space(rng.standard_normal((200, 48)))
        tgt = unit_space(rng.standard_normal((400, 48)))
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", 32 * 400)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        params = SimilarityParams(k_csls=5, top_k=10)
        one, one_means = retrieve_topk(src, tgt, params, n_threads=1)
        stats = retrieval.ScanStats()
        three, three_means = retrieve_topk(src, tgt, params, n_threads=3, stats=stats)

        def pass_bytes(n_rows, n_cols, k):
            """Three workers' float32 block buffers, rows padded to whole chunks, and float64 rescoring buffers."""
            rows, width = retrieval._block_rows(n_cols), retrieval._chunk_width(n_cols, k)
            workers = min(3, -(-n_rows // rows))
            return workers * (min(rows, n_rows) * -(-n_cols // width) * width * 4 + retrieval.RESCORE_CELLS * 8)

        # the neighborhood pass over the sources, then the retrieval
        assert stats.buffer_bytes == max(pass_bytes(400, 200, 5), pass_bytes(200, 400, 10))
        assert mutual_pairs(src, tgt, 5, n_threads=3) == mutual_pairs(src, tgt, 5)
        runs = [(three, three_means)]
        # workers {1, 2} x process BLAS threads {1, 2}, where the controls are found
        get, set_ = retrieval._openblas_threads() or (lambda: None, lambda n: None)
        before = get()
        try:
            for blas in (1, 2):
                set_(blas)
                runs += [retrieve_topk(src, tgt, params, n_threads=workers) for workers in (1, 2)]
        finally:
            set_(before)
        for cands, means in runs:
            assert cands.cand_ids.tolist() == one.cand_ids.tolist()
            assert cands.scores.tobytes() == one.scores.tobytes()
            assert means.r_src.tobytes() == one_means.r_src.tobytes()
            assert means.r_tgt.tobytes() == one_means.r_tgt.tobytes()

    def test_workers_never_share_a_buffer_or_lose_a_count(self, monkeypatch):
        # more workers than cores and a short switch interval, to interleave the pool and the lock
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", 32 * 50)
        stats = retrieval.ScanStats()
        kept = np.full(4, 2)

        def fill(lo, hi, out, pairs):
            out[:] = lo
            for _ in range(40):
                time.sleep(0)  # lets another worker run while this one holds its buffer
                stats.note_shortlist(kept, 3)
            assert (out == lo).all()
            return lo

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = retrieval._map_row_blocks(fill, *operands(32 * 400, 50), 6, stats)
        finally:
            sys.setswitchinterval(interval)
        assert got == list(range(0, 32 * 400, 32))
        assert (stats.rows, stats.columns, stats.widest) == (400 * 40 * 4, 400 * 40 * 8, 2)
        assert stats.rescored == 400 * 40 * 3
        assert 0 < stats.buffer_bytes <= 6 * (32 * 50 * 4 + retrieval.RESCORE_CELLS * 8)
        assert stats.gemm_s > 0 and stats.select_s > 0

    def test_matmul_into_a_buffer_equals_the_operator(self, rng):
        a = rng.standard_normal((37, 300)).astype(np.float32)
        b = rng.standard_normal((611, 300)).astype(np.float32)
        out = np.empty((64, 611), dtype=np.float32)[:37]
        np.matmul(a, b.T, out=out)
        assert out.tobytes() == (a @ b.T).tobytes()

    @pytest.mark.parametrize("d", [8, 31, 64, 300])
    def test_pair_dots_bits_do_not_depend_on_shape_offset_or_alignment(self, rng, d):
        A, B = rng.standard_normal((40, d)), rng.standard_normal((40, d))
        alone = np.concatenate([retrieval._pair_dots(A[i : i + 1], B[i : i + 1]) for i in range(40)])
        for lo, shift in ((0, 0), (3, 1), (17, 3)):
            # copies of rows lo.. that start one to three float64s off the buffer's alignment
            a = np.empty((40 - lo) * d + shift)[shift:].reshape(40 - lo, d)
            b = np.empty((40 - lo) * d + 3 - shift)[3 - shift :].reshape(40 - lo, d)
            a[:], b[:] = A[lo:], B[lo:]
            assert retrieval._pair_dots(a, b).tobytes() == alone[lo:].tobytes()

    @pytest.mark.parametrize("d", [8, 31, 64, 300])
    def test_pair_dots_bits_hold_with_a_query_repeated_by_a_zero_stride(self, rng, d):
        # the rescoring's grids: each row's query vector broadcast across its slots, the index vectors gathered
        Q, I = rng.standard_normal((9, d)), rng.standard_normal((50, d))
        ids = rng.integers(0, 50, (9, 13))
        alone = np.array([[retrieval._pair_dots(Q[i : i + 1], I[j : j + 1])[0] for j in row] for i, row in enumerate(ids)])
        for rows, slots, shift in ((slice(0, 9), slice(0, 13), 0), (slice(2, 3), slice(4, 5), 1), (slice(1, 8), slice(3, 11), 3)):
            sub = ids[rows, slots]
            # a gathered copy that starts `shift` float64s off the buffer's alignment, as np.take writes it
            index = np.empty(sub.size * d + shift)[shift:].reshape(*sub.shape, d)
            np.take(I, sub, axis=0, out=index, mode="clip")
            query = np.broadcast_to(Q[rows][:, None, :], index.shape)
            assert retrieval._pair_dots(query, index).tobytes() == alone[rows, slots].tobytes()
            # a length-1 slot axis, which einsum broadcasts, as _rescorer passes it
            assert retrieval._pair_dots(Q[rows][:, None, :], index).tobytes() == alone[rows, slots].tobytes()

    @pytest.mark.parametrize("cells", [300, 3_000, retrieval.RESCORE_CELLS])
    @pytest.mark.parametrize("d", [8, 31, 64, 300])
    def test_rescorer_grids_equal_pairs_alone_across_its_rounds(self, rng, d, cells):
        # counts from 0 to one row past the others: slot rounds of the mean count, rows per call from the buffer;
        # a 300-cell buffer holds one d = 300 pair per call
        Q, I, r = rng.standard_normal((11, d)), rng.standard_normal((40, d)), rng.uniform(-1, 1, 40)
        counts = np.array([0, 1, 5, 5, 5, 6, 2, 40, 3, 5, 5])
        ids = np.array([rng.permutation(40) for _ in range(11)])[:, : counts.max()]
        for given_r in (None, r):
            got = retrieval._rescorer(Q, I, np.empty(cells), given_r)(ids, counts)
            for i, row in enumerate(ids):
                want = retrieval._pair_dots(np.tile(Q[i], (counts[i], 1)), I[row[: counts[i]]])
                if given_r is not None:
                    want = 2.0 * want - given_r[row[: counts[i]]]
                assert got[i, : counts[i]].tobytes() == want.tobytes()
                assert np.isneginf(got[i, counts[i] :]).all()

    def test_a_row_inside_the_margin_everywhere_is_rescored_whole(self, rng, monkeypatch):
        # a zero query row: every cosine is 0, so all 600 columns lie within the margin of its k-th
        monkeypatch.setattr(retrieval, "RESCORE_CELLS", 24 * 50)  # many rounds for that row
        X = rng.standard_normal((40, 24))
        X[[3, 17]] = 0.0
        src, tgt = unit_space(X), unit_space(rng.standard_normal((600, 24)))
        params = SimilarityParams(k_csls=4, top_k=9)
        for metric in ("csls", "cosine"):
            stats = retrieval.ScanStats()
            cands, means = retrieve_topk(src, tgt, params, metric, stats=stats)
            ids, vals, r_src, r_tgt = oracle_retrieval(src, tgt, params, metric)
            assert cands.cand_ids.tolist() == ids.tolist() and cands.scores.tobytes() == vals.tobytes()
            assert means.r_src.tobytes() == r_src.tobytes() and means.r_tgt.tobytes() == r_tgt.tobytes()
            if metric == "cosine":
                assert cands.cand_ids[3].tolist() == list(range(9))  # all tie at 0: the lowest ids
            assert stats.rescored >= 2 * 600

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_ties_across_chunk_edges_go_to_the_lowest_id(self, k):
        # 200 columns, chunks of runs of ids: equal values at the last id of one chunk and the first of the next,
        # and in chunks far apart, straddle the k-th place
        n = 200
        members = chunk_members(n, k)
        assert len(members) > 2 * k
        S = np.tile(-np.arange(n, dtype=np.float64) / n - 1.0, (3, 1))
        edges = [(m[-1], members[j + 1][0]) for j, m in enumerate(members[:-1])]
        top = [i for pair in edges[: k] for i in pair]
        S[0, top] = 1.0  # 2k tied columns, k of them taken: the k lowest ids
        S[1, [members[-1][0], members[0][-1]]] = 1.0  # a tie between the first and the last chunk
        S[2, :] = 0.5  # every column ties
        ids, vals = retrieval._topk_desc_rows(*laid_out(S, k), k, 0.0, values_of(S))
        assert ids[0].tolist() == sorted(top)[:k]
        pair = [members[0][-1], members[-1][0]]
        assert ids[1].tolist() == (pair + [i for i in range(n) if i not in pair])[:k]
        assert ids[2].tolist() == list(range(k))


@st.composite
def near_tie_spaces(draw):
    """Spaces whose float32 screen cannot order what float64 can: targets
    normalize(base + j * 1e-9 * noise_j), some of them exact copies (ties that
    may fall on the selection boundary) and maybe a zero row; sources near
    base, random, or zero."""
    d = draw(st.sampled_from([8, 31, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_tgt, n_src = draw(st.integers(2, 120)), draw(st.integers(1, 30))
    base = rng.standard_normal(d)
    tgt = base + np.arange(n_tgt)[:, None] * 1e-9 * rng.standard_normal((n_tgt, d))
    copies = draw(st.integers(0, n_tgt // 2))
    tgt[rng.integers(0, n_tgt, copies)] = tgt[rng.integers(0, n_tgt, copies)]
    near = rng.random((n_src, 1)) < 0.5
    src = np.where(near, base + 1e-6 * rng.standard_normal((n_src, d)), rng.standard_normal((n_src, d)))
    for rows in (tgt, src):
        if draw(st.booleans()):
            rows[rng.integers(0, len(rows))] = 0.0
    return unit_space(src), unit_space(tgt)


def oracle_retrieval(src, tgt, params, metric):
    """Full rows of per-pair float64 values, the lowest-id rule, and means summed from the largest."""
    X, Y = src.matrix, tgt.matrix
    scores = np.array([pair_row(x, Y) for x in X])
    r_src, r_tgt = np.zeros(len(X)), np.zeros(len(Y))
    if metric == "csls":
        r_src = np.array([descending_mean(row, params.k_csls) for row in scores])
        r_tgt = np.array([descending_mean(pair_row(y, X), min(params.k_csls, len(X))) for y in Y])
        scores = 2.0 * scores - r_tgt
    ids = np.array([np.lexsort((np.arange(len(Y)), -row))[: params.top_k] for row in scores])
    vals = np.take_along_axis(scores, ids, axis=1)
    if metric == "csls":
        vals = vals - r_src[:, None]
    return ids, vals, r_src, r_tgt


class TestCertifiedScreen:
    @settings(max_examples=150, deadline=None)
    @given(
        spaces=near_tie_spaces(),
        k_csls=st.integers(1, 6),
        top_k=st.integers(1, 12),
        metric=st.sampled_from(["csls", "cosine"]),
        n_threads=st.sampled_from([1, 2]),
    )
    def test_retrieval_equals_the_float64_oracle(self, spaces, k_csls, top_k, metric, n_threads):
        src, tgt = spaces
        params = SimilarityParams(k_csls=min(k_csls, len(tgt)), top_k=min(top_k, len(tgt)))
        cands, means = retrieve_topk(src, tgt, params, metric, n_threads=n_threads)
        ids, vals, r_src, r_tgt = oracle_retrieval(src, tgt, params, metric)
        assert cands.cand_ids.tolist() == ids.tolist()
        assert cands.scores.tobytes() == vals.tobytes()
        assert means.r_src.tobytes() == r_src.tobytes()
        assert means.r_tgt.tobytes() == r_tgt.tobytes()

    def test_the_float32_screen_reorders_these_spaces(self):
        # the case the margin exists for: float32 ties or reverses what float64 orders
        rng = np.random.default_rng(3)
        base = rng.standard_normal(64)
        Y = unit_space(base + np.arange(50)[:, None] * 1e-9 * rng.standard_normal((50, 64))).matrix
        x = unit_space(rng.standard_normal((1, 64))).matrix[0]
        exact = pair_row(x, Y)
        screen = Y.astype(np.float32) @ x.astype(np.float32)
        assert np.argsort(-exact, kind="stable").tolist() != np.argsort(-screen, kind="stable").tolist()


class TestScopedRetrieval:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_src=st.integers(3, 80),
        n_tgt=st.integers(3, 400),
        k_csls=st.integers(1, 12),
        top_k=st.integers(1, 20),
        data=st.data(),
    )
    def test_scoped_rows_match_the_full_run(self, seed, n_src, n_tgt, k_csls, top_k, data):
        rng = np.random.default_rng(seed)
        src = unit_space(rng.standard_normal((n_src, 16)))
        tgt = unit_space(rng.standard_normal((n_tgt, 16)))
        params = SimilarityParams(k_csls=min(k_csls, n_tgt), top_k=min(top_k, n_tgt))
        rows = np.array(data.draw(st.lists(st.integers(0, n_src - 1), unique=True, max_size=n_src)), dtype=np.int64)
        full, full_means = retrieve_topk(src, tgt, params)
        for given_means in (None, full_means):  # retrieve --source-words and analyze --words; the semi extension
            scoped, scoped_means = retrieve_topk(src, tgt, params, rows=rows, means=given_means)
            assert scoped.src_ids.tolist() == rows.tolist()
            assert scoped.cand_ids.tolist() == full.cand_ids[rows].tolist()
            assert scoped.scores.tobytes() == full.scores[rows].tobytes()
            assert scoped_means.r_tgt.tobytes() == full_means.r_tgt.tobytes()
            assert scoped_means.r_src.tobytes() == full_means.r_src[rows].tobytes()

    @pytest.mark.parametrize("n_rows", [1, 2, 50])
    def test_scoped_rows_equal_the_full_run_bitwise_at_d300(self, n_rows, monkeypatch):
        # every score and mean comes from the per-pair routine, whatever the block shape and the worker count;
        # 200-row blocks of 2000 targets, so the full run has three
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", 200 * 2000)
        rng = np.random.default_rng(n_rows)
        src = unit_space(rng.standard_normal((600, 300)))
        tgt = unit_space(rng.standard_normal((2000, 300)))
        params = SimilarityParams(k_csls=10, top_k=20)
        full, full_means = retrieve_topk(src, tgt, params)
        rows = rng.choice(len(src), n_rows, replace=False)
        for n_threads in (1, 2, 3):
            again, again_means = retrieve_topk(src, tgt, params, n_threads=n_threads)
            assert again.scores.tobytes() == full.scores.tobytes() and again.cand_ids.tolist() == full.cand_ids.tolist()
            assert again_means.r_tgt.tobytes() == full_means.r_tgt.tobytes()
            for given_means in (None, full_means):
                scoped, scoped_means = retrieve_topk(src, tgt, params, n_threads=n_threads, rows=rows, means=given_means)
                assert scoped.cand_ids.tolist() == full.cand_ids[rows].tolist()
                assert scoped.scores.tobytes() == full.scores[rows].tobytes()
                assert scoped_means.r_src.tobytes() == full_means.r_src[rows].tobytes()

    def test_reused_means_skip_the_neighborhood_pass(self, rng):
        src = unit_space(rng.standard_normal((30, 8)))
        tgt = unit_space(rng.standard_normal((40, 8)))
        params = SimilarityParams(k_csls=5, top_k=6)
        back = np.empty(len(tgt), dtype=np.int64)
        best, means = retrieve_topk(src, tgt, SimilarityParams(k_csls=5, top_k=1), back=back)
        with mock.patch.object(retrieval, "knn_mean_similarity", side_effect=AssertionError("recomputed")):
            again = np.empty(len(tgt), dtype=np.int64)
            retrieve_topk(src, tgt, SimilarityParams(k_csls=5, top_k=1), means=means, back=again)
            retrieve_topk(src, tgt, params, rows=np.array([3, 1]), means=means)
        assert again.tolist() == back.tolist()
        assert mutual_nn_pairs(best, back) == mutual_pairs(src, tgt, 5)


def test_r_tgt_shift_leaves_ordering_invariant(rng):
    # adding a constant to every target's correction shifts scores by -c
    # and cannot change any argsort
    sims = rng.standard_normal((12, 30))
    r_tgt = rng.uniform(-1, 1, 30)
    c = 0.37
    base = 2 * sims - r_tgt[None, :]
    shifted = 2 * sims - (r_tgt + c)[None, :]
    np.testing.assert_allclose(shifted, base - c, atol=1e-12)
    for i in range(12):
        assert rank_desc_with_id_ties(base[i]) == rank_desc_with_id_ties(shifted[i])


class TestProcrustes:
    def test_identity_correspondence(self, rng):
        src = unit_space(rng.standard_normal((30, 6)))
        seed = TranslationDictionary(entries={i: (i,) for i in range(30)})
        W = align_procrustes(src, src, seed)
        np.testing.assert_allclose(W, np.eye(6), atol=1e-6)

    def test_recovers_random_rotation(self, rng):
        Q = random_orthogonal(8, rng)
        src = unit_space(rng.standard_normal((50, 8)))
        tgt = unit_space(src.matrix @ Q)
        seed = TranslationDictionary(entries={i: (i,) for i in range(50)})
        W = align_procrustes(src, tgt, seed)
        assert np.abs(W - Q).max() < 1e-5

    def test_single_pair_matches_angle_grid_search(self, rng):
        # d=2 oracle: scan rotations and reflections over a fine angle grid
        x = unit_space([[0.6, 0.8]])
        y = unit_space([[-0.8, 0.6]])
        seed = TranslationDictionary(entries={0: (0,)})
        W = align_procrustes(x, y, seed)
        ours = np.linalg.norm(x.matrix @ W - y.matrix)

        best = np.inf
        for theta in np.linspace(0, 2 * np.pi, 200001):
            c, s = np.cos(theta), np.sin(theta)
            for M in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
                best = min(best, np.linalg.norm(x.matrix @ M - y.matrix))
        assert ours <= best + 1e-6

    def test_orthogonality_invariant(self, rng):
        for trial in range(5):
            src = unit_space(rng.standard_normal((10, 5)))
            tgt = unit_space(rng.standard_normal((10, 5)))
            seed = TranslationDictionary(entries={i: (i,) for i in range(10)})
            W = align_procrustes(src, tgt, seed)
            assert np.abs(W.T @ W - np.eye(5)).max() < 1e-5

    def test_multi_target_pairs_contribute_rows(self, rng):
        src = unit_space(rng.standard_normal((4, 3)))
        tgt = unit_space(rng.standard_normal((5, 3)))
        seed = TranslationDictionary(entries={0: (0, 1), 1: (2,)})
        W = align_procrustes(src, tgt, seed)
        assert W.shape == (3, 3)

    def test_empty_seed_rejected(self, rng):
        src = unit_space(rng.standard_normal((4, 3)))
        with pytest.raises(ValueError, match="empty seed"):
            align_procrustes(src, src, TranslationDictionary(entries={}))

    def test_dimension_mismatch_rejected(self, rng):
        a = unit_space(rng.standard_normal((4, 3)))
        b = unit_space(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError, match="dimension"):
            align_procrustes(a, b, TranslationDictionary(entries={0: (0,)}))

    @pytest.mark.skipif(retrieval._openblas_threads() is None, reason="numpy's OpenBLAS thread controls not found")
    def test_w_does_not_depend_on_the_blas_thread_count(self, rng, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        src = unit_space(rng.standard_normal((1500, 300)))
        tgt = unit_space(src.matrix @ random_orthogonal(300, rng) + 0.1 * rng.standard_normal((1500, 300)))
        seed = TranslationDictionary(entries={i: (i,) for i in range(1500)})
        get, set_ = retrieval._openblas_threads()
        before = get()
        try:
            runs = []
            for threads in (1, 2):
                set_(threads)
                runs.append(align_procrustes(src, tgt, seed))
                assert get() == threads
            # a set variable leaves BLAS alone: the SVD runs on 2 threads, and its last bits depend on that
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
            assert retrieval.blas_threads() == "2"
            left_alone = align_procrustes(src, tgt, seed)
        finally:
            set_(before)
        assert runs[0].tobytes() == runs[1].tobytes()
        np.testing.assert_allclose(left_alone, runs[0], rtol=0, atol=1e-12)

    @pytest.mark.skipif(retrieval._openblas_threads() is None, reason="numpy's OpenBLAS thread controls not found")
    def test_blas_thread_count_is_restored_after_an_error(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        get, set_ = retrieval._openblas_threads()
        before = get()
        try:
            set_(2)
            with pytest.raises(ZeroDivisionError):
                with retrieval._one_blas_thread():
                    assert get() == 1 and retrieval.blas_threads() == "1"
                    1 / 0
            assert get() == 2
        finally:
            set_(before)

    def test_apply_alignment_preserves_norms(self, rng):
        Q = random_orthogonal(6, rng)
        src = unit_space(rng.standard_normal((10, 6)))
        rotated = apply_alignment(src, Q)
        np.testing.assert_allclose(np.linalg.norm(rotated.matrix, axis=1), 1.0, atol=1e-12)


@pytest.mark.skipif(retrieval._openblas_threads() is None, reason="numpy's OpenBLAS thread controls not found")
class TestPoolBlasThreads:
    """Every pass, at any worker count, runs under one OpenBLAS thread, and the count comes back after it."""

    @pytest.fixture
    def get(self, monkeypatch):
        """OpenBLAS's count getter, the process at 2 threads and OPENBLAS_NUM_THREADS unset; the count is put back."""
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        get, set_ = retrieval._openblas_threads()
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def seen(get, n_rows, n_threads):
        """The OpenBLAS count each block of a 50-column pass sees, in block order (32-row blocks)."""
        with mock.patch.object(retrieval, "BLOCK_CELLS", 32 * 50):
            return retrieval._map_row_blocks(lambda lo, hi, out, pairs: get(), *operands(n_rows, 50), n_threads)

    def test_workers_run_under_one_thread_and_the_count_comes_back(self, get):
        assert self.seen(get, 32 * 6, 2) == [1] * 6
        assert get() == 2
        assert retrieval.blas_threads() == "1"

    def test_the_count_comes_back_when_a_block_raises(self, get):
        def fail(lo, hi, out, pairs):
            assert get() == 1
            raise ZeroDivisionError

        with mock.patch.object(retrieval, "BLOCK_CELLS", 32 * 50), pytest.raises(ZeroDivisionError):
            retrieval._map_row_blocks(fail, *operands(32 * 6, 50), 2)
        assert get() == 2

    def test_one_worker_runs_under_one_thread_too(self, get):
        assert self.seen(get, 32 * 6, 1) == [1] * 6  # one worker, several blocks
        assert self.seen(get, 20, 2) == [1]  # two workers, one block: a pool of one
        assert get() == 2

    def test_a_set_variable_wins(self, get, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert self.seen(get, 32 * 6, 2) == [2] * 6
        assert self.seen(get, 32 * 6, 1) == [2] * 6
        assert retrieval.blas_threads() == "2"


class TestBlockShape:
    @staticmethod
    def outputs(src, tgt, n_threads):
        """Every similarity pass's output, as lists and bytes: the means, the mutual pairs, and retrieve_topk's
        ids, scores and means, CSLS and cosine, full and scoped."""
        params, rows = SimilarityParams(k_csls=4, top_k=6), np.array([299, 7, 64, 3, 150])
        out = [knn_mean_similarity(src, tgt, 4, n_threads).tobytes(), mutual_pairs(src, tgt, 4, n_threads)]
        for metric in ("csls", "cosine"):
            for scope in (None, rows):
                cands, means = retrieve_topk(src, tgt, params, metric, n_threads, rows=scope)
                out.append((
                    cands.src_ids.tolist(), cands.cand_ids.tolist(), cands.scores.tobytes(),
                    means.r_src.tobytes(), means.r_tgt.tobytes(),
                ))
        return out

    def test_no_bit_depends_on_the_block_shape(self, rng, monkeypatch):
        # 500 targets are over 16k columns at k = 4 and 6, so every selection goes through the chunk screen
        src = unit_space(rng.standard_normal((300, 24)))
        tgt = unit_space(rng.standard_normal((500, 24)))
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", 10**9)  # one block per pass
        reference = self.outputs(src, tgt, 1)
        assert len(reference[1]) > 0
        # one block; 32-row blocks; 70-row blocks of 500 columns and 116-row blocks of 300, each pass ending
        # in a short block
        for cells in (10**9, 1, 70 * 500):
            monkeypatch.setattr(retrieval, "BLOCK_CELLS", cells)
            for n_threads in (1, 2):
                assert self.outputs(src, tgt, n_threads) == reference, (cells, n_threads)
        assert (retrieval._block_rows(500), retrieval._block_rows(300)) == (70, 116)


class TestPassFootprint:
    def test_no_pass_holds_a_float32_copy_of_its_queries(self, rng):
        # 16k queries x 128: their float32 copy (7.8 MB) exceeds the slack. Each worker holds one block buffer
        # of 2,560 x 1,000 products (padded to whole chunks) and a float64 rescoring buffer, and casts its block's
        # 2,560 query rows; the index is cast whole.
        queries = unit_space(rng.standard_normal((16_000, 128)))
        index = unit_space(rng.standard_normal((1_000, 128)))
        params = SimilarityParams(k_csls=10, top_k=5)
        _, means = retrieve_topk(queries, index, params)
        rows = retrieval._block_rows(len(index))
        slack = 4 << 20
        assert 16_000 * 128 * 4 > slack and rows == 2_560
        for n_threads in (1, 2):
            passes = {
                "knn_mean_similarity": (10, lambda: knn_mean_similarity(queries, index, 10, n_threads)),
                "retrieve_topk": (5, lambda: retrieve_topk(queries, index, params, n_threads=n_threads, means=means)),
            }
            for name, (k, run_pass) in passes.items():
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    out = run_pass()
                    peak = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
                del out
                padded = -(-len(index) // retrieval._chunk_width(len(index), k)) * retrieval._chunk_width(len(index), k)
                buffers = n_threads * (rows * (padded + 128) * 4 + retrieval.RESCORE_CELLS * 8)
                assert peak <= len(index) * 128 * 4 + buffers + slack, (name, n_threads, peak)


    def test_target_argmax_state_does_not_grow_with_the_blocks(self, rng, monkeypatch):
        # 32-row blocks: 20 for 640 sources, 80 for 2,560. One best per target stays the same whatever the block
        # count; keeping even 4 bytes per target of each block would add 240 KB at 80 blocks
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", 1)
        tgt = unit_space(rng.standard_normal((1_000, 16)))
        params = SimilarityParams(k_csls=5, top_k=1)
        extra = {}
        for n_src in (640, 2_560):
            src = unit_space(rng.standard_normal((n_src, 16)))
            _, means = retrieve_topk(src, tgt, params)  # given, so that the pass is the one top-1 pass
            back = np.empty(len(tgt), dtype=np.int64)
            peaks = []
            for given in (None, back):
                tracemalloc.start()
                try:
                    retrieve_topk(src, tgt, params, means=means, back=given)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            extra[n_src] = peaks[1] - peaks[0]
        assert retrieval._block_rows(len(tgt)) == 32
        # the state is 20 bytes per target; a block's screen adds a few bytes per cell of its 32 x 1,000 product
        assert extra[640] <= 20 * 1_000 + 8 * 32 * 1_000, extra
        assert extra[2_560] <= extra[640] + 32 * 1024, extra


@st.composite
def tied_spaces(draw):
    """Two spaces of rows ±1/4 over 16 dimensions, drawn from small pools so rows repeat.

    Every row has unit norm, every cosine is a multiple of 1/8 and every
    neighborhood mean at k in {1, 2, 4} a multiple of 1/32, so all CSLS
    arithmetic is exact and equal scores are real ties, within rows and
    within columns.
    """
    signs = st.lists(st.sampled_from((-0.25, 0.25)), min_size=16, max_size=16)
    spaces = []
    for _ in range(2):
        pool = draw(st.lists(signs, min_size=1, max_size=6))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=4, max_size=30))
        spaces.append(unit_space([pool[i] for i in picks]))
    return spaces


class TestMutualNN:
    def test_identity_spaces_all_self_pairs(self, rng):
        space = unit_space(rng.standard_normal((10, 6)))
        pairs = mutual_pairs(space, space, 3)
        assert sorted((s, t) for s, t, _ in pairs) == [(i, i) for i in range(10)]

    def test_broken_argmax_chain_excluded(self):
        # s0 leans toward t0 but s1 sits exactly on it: s0's best target is
        # t0 while t0's best source is s1, so s0 never forms a mutual pair
        a = np.deg2rad(25.0)
        src = unit_space([[np.cos(a), np.sin(a), 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        tgt = unit_space(np.eye(3))
        sims = src.matrix @ tgt.matrix.T
        r_src = np.sort(sims, axis=1)[:, -1:].mean(axis=1)
        r_tgt = np.sort(sims.T, axis=1)[:, -1:].mean(axis=1)
        full = 2 * sims - r_src[:, None] - r_tgt[None, :]
        assert full[0].argmax() == 0  # s0 -> t0
        assert full[:, 0].argmax() == 1  # t0 -> s1, chain broken
        pairs = mutual_pairs(src, tgt, 1)
        assert all(s != 0 for s, _, _ in pairs)
        assert (1, 0) in {(s, t) for s, t, _ in pairs}

    def test_scores_sorted_descending(self, rng):
        src = unit_space(rng.standard_normal((20, 8)))
        tgt = unit_space(rng.standard_normal((20, 8)))
        pairs = mutual_pairs(src, tgt, 5)
        scores = [p[2] for p in pairs]
        assert scores == sorted(scores, reverse=True)

    def test_symmetric_under_role_swap(self, rng):
        src = unit_space(rng.standard_normal((25, 8)))
        tgt = unit_space(rng.standard_normal((30, 8)))
        fwd = {(s, t) for s, t, _ in mutual_pairs(src, tgt, 4)}
        rev = {(s, t) for t, s, _ in mutual_pairs(tgt, src, 4)}
        assert fwd == rev

    @settings(max_examples=60, deadline=None)
    @given(spaces=tied_spaces(), k_csls=st.sampled_from((1, 2, 4)), n_threads=st.sampled_from((1, 2)))
    def test_pairs_are_the_brute_force_row_and_column_argmax(self, spaces, k_csls, n_threads):
        src, tgt = spaces
        full, _, _ = brute_force_csls(src, tgt, k_csls)
        best_t = full.argmax(axis=1)  # np.argmax keeps the lowest id of tied maxima
        best_s = full.argmax(axis=0)
        want = sorted(
            ((s, int(best_t[s]), full[s, best_t[s]]) for s in range(len(src)) if best_s[best_t[s]] == s),
            key=lambda p: (-p[2], p[0]),
        )
        got = mutual_pairs(src, tgt, k_csls, n_threads)
        assert [(s, t) for s, t, _ in got] == [(s, t) for s, t, _ in want]
        np.testing.assert_allclose([v for _, _, v in got], [v for _, _, v in want], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_to_two_top1_retrievals(self, seed, n_threads):
        # noisy copies of targets among the sources give strong mutual pairs, random sources weak ones
        rng = np.random.default_rng(seed)
        tgt = unit_space(rng.standard_normal((300, 24)))
        noisy = tgt.matrix[rng.permutation(300)[:200]] + 0.3 * rng.standard_normal((200, 24))
        src = unit_space(np.vstack([noisy, rng.standard_normal((150, 24))]))
        want, want_back = mutual_pairs_two_passes(src, tgt, 5, n_threads)
        back = np.full(len(tgt), -1, dtype=np.int64)
        best, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=5, top_k=1), n_threads=n_threads, back=back)
        assert back.tolist() == want_back.tolist()
        assert mutual_nn_pairs(best, back) == want and len(want) > 100

    def test_largest_norms_are_taken_once_per_space_and_pass(self, rng):
        # the means pass over the targets takes its two, the forward pass its own two: every margin and the bound
        # on r_src come from those
        src = unit_space(rng.standard_normal((40, 8)))
        tgt = unit_space(rng.standard_normal((50, 8)))
        back = np.empty(len(tgt), dtype=np.int64)
        with mock.patch.object(retrieval, "_max_norm", wraps=retrieval._max_norm) as max_norm:
            retrieve_topk(src, tgt, SimilarityParams(k_csls=3, top_k=1), back=back)
        assert max_norm.call_count == 4

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_equal_to_two_top1_retrievals_over_many_small_blocks(self, rng, monkeypatch, n_threads):
        # 32-row blocks: 8 for 250 sources, the last one short, merged into the targets' bests in any order
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", 1)
        src = unit_space(rng.standard_normal((250, 12)))
        tgt = unit_space(rng.standard_normal((90, 12)))
        want, want_back = mutual_pairs_two_passes(src, tgt, 3, n_threads)
        back = np.full(len(tgt), -1, dtype=np.int64)
        stats = retrieval.ScanStats()
        best, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=3, top_k=1), n_threads=n_threads, stats=stats, back=back)
        assert back.tolist() == want_back.tolist()
        assert mutual_nn_pairs(best, back) == want
        assert stats.back_rescored >= len(tgt)

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_a_tie_for_a_target_goes_to_the_lower_source(self, rng, monkeypatch, n_threads):
        # sources 5 and 290 are one vector, target 0's nearest: equal CSLS values to the last bit. 32-row blocks
        # put them in different blocks, which two workers may merge in either order
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", 1)
        X, Y = rng.standard_normal((300, 16)), rng.standard_normal((100, 16))
        X[5] = X[290] = Y[0]
        src, tgt = unit_space(X), unit_space(Y)
        back = np.full(len(tgt), -1, dtype=np.int64)
        best, means = retrieve_topk(src, tgt, SimilarityParams(k_csls=4, top_k=1), n_threads=n_threads, back=back)
        assert means.r_src[5] == means.r_src[290]
        assert back[0] == 5 and mutual_pairs_two_passes(src, tgt, 4, n_threads)[1][0] == 5
        assert (5, 0) in {(s, t) for s, t, _ in mutual_nn_pairs(best, back)}

    @pytest.mark.parametrize("reverse", [False, True])
    def test_back_argmax_merges_slices_in_any_order(self, rng, reverse):
        # the column screen alone, on a product laid out as retrieve_topk lays it out, fed blocks of one or of 8
        # rows, first to last or last to first: with one row, every source row is merged into the bests alone;
        # queries 7 and 40 are one vector, equal to index row 3
        Q, I = rng.standard_normal((60, 12)), rng.standard_normal((30, 12))
        Q[7] = Q[40] = I[3]
        Q, I = unit_space(Q).matrix, unit_space(I).matrix
        r = rng.uniform(0.1, 0.4, 60)
        r[40] = r[7]
        chunks = retrieval._Chunks.build(len(I), 1)
        sims = np.full((60, chunks.count * chunks.width), -np.inf, dtype=np.float32)
        sims[:, : len(I)] = Q.astype(np.float32) @ I[chunks.ids].astype(np.float32).T
        margin = retrieval._screen_margin(12, retrieval._max_norm(I), retrieval._max_norm(Q), 2.0)
        value = 2.0 * np.array([[retrieval._pair_dots(I[t : t + 1], Q[s : s + 1])[0] for s in range(60)] for t in range(30)])
        value -= r
        want = [min(range(60), key=lambda s: (-row[s], s)) for row in value]
        pairs = np.empty(retrieval.RESCORE_CELLS)
        for span in (1, 8):
            columns = retrieval._BackArgmax(chunks, Q, I, margin)
            spans = [(lo, min(lo + span, 60)) for lo in range(0, 60, span)]
            for lo, hi in spans[::-1] if reverse else spans:
                columns.add(lo, sims[lo:hi], r[lo:hi], pairs, None)
            got = np.full(len(I), -1, dtype=np.int64)
            columns.argmax(got)
            assert got.tolist() == want and got[3] == 7, span

    def test_scoped_candidates_refused(self, rng):
        src = unit_space(rng.standard_normal((10, 4)))
        tgt = unit_space(rng.standard_normal((12, 4)))
        params, back = SimilarityParams(k_csls=3, top_k=1), np.empty(12, dtype=np.int64)
        best, _ = retrieve_topk(src, tgt, params, rows=np.arange(9, -1, -1))
        with pytest.raises(ValueError, match="every source"):
            mutual_nn_pairs(best, back)
        # the target-side argmax needs a CSLS run over every source
        for kwargs in ({"rows": np.arange(10)}, {"metric": "cosine"}):
            with pytest.raises(ValueError, match="every source"):
                retrieve_topk(src, tgt, params, back=back, **kwargs)


class TestAugmentDictionary:
    def test_n_aug_zero_is_identity(self):
        seed = TranslationDictionary(entries={0: (1,)})
        out = augment_dictionary(seed, [(2, 3, 0.9)], 0)
        assert out.entries == seed.entries

    def test_existing_sources_excluded(self):
        seed = TranslationDictionary(entries={0: (5,)})
        mined = [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)]
        out = augment_dictionary(seed, mined, 1)
        assert out.entries == {0: (5,), 1: (2,)}

    def test_supply_exhaustion(self, caplog):
        import logging

        seed = TranslationDictionary(entries={})
        mined = [(0, 0, 0.9), (1, 1, 0.8), (2, 2, 0.7)]
        with caplog.at_level(logging.WARNING):
            out = augment_dictionary(seed, mined, 4000)
        assert len(out.entries) == 3
        assert any("only 3" in r.message for r in caplog.records)


class TestMineHardNegatives:
    def make_cands(self, n_src, top_k):
        src_ids = np.arange(n_src)
        cand_ids = np.tile(np.arange(top_k), (n_src, 1))
        scores = np.tile(np.linspace(1, 0, top_k), (n_src, 1))
        return CandidateSet.from_arrays(src_ids, cand_ids, scores)

    def test_twenty_negatives_per_positive(self):
        cands = self.make_cands(3, 50)
        dic = TranslationDictionary(entries={0: (7,), 1: (0,), 2: (49,)})
        pairs = mine_hard_negatives(dic, cands, n_neg=20)
        for s in range(3):
            rows = [p for p in pairs if p[0] == s]
            positives = [p for p in rows if p[2] == 1]
            negatives = [p for p in rows if p[2] == 0]
            assert len(positives) == 1
            assert len(negatives) == 20
            assert all(t not in dic.entries[s] for _, t, lab in negatives)

    def test_gold_saturation_warns(self, caplog):
        import logging

        cands = self.make_cands(1, 3)
        dic = TranslationDictionary(entries={0: (0, 1, 2)})
        with caplog.at_level(logging.WARNING):
            pairs = mine_hard_negatives(dic, cands, n_neg=20)
        assert all(lab == 1 for _, _, lab in pairs)
        assert any("no non-gold" in r.message for r in caplog.records)

    def test_two_golds_share_the_same_negatives(self):
        cands = self.make_cands(1, 10)
        dic = TranslationDictionary(entries={0: (2, 5)})
        pairs = mine_hard_negatives(dic, cands, n_neg=3)
        expected_negs = [0, 1, 3]  # top non-gold candidates in score order
        want = []
        for g in (2, 5):
            want.append((0, g, 1))
            want.extend((0, c, 0) for c in expected_negs)
        assert sorted(pairs) == sorted(want)

    def test_missing_source_fatal(self):
        from bilex.corpus import DataFormatError

        cands = self.make_cands(1, 5)
        dic = TranslationDictionary(entries={3: (0,)})
        with pytest.raises(DataFormatError, match="no candidate list"):
            mine_hard_negatives(dic, cands)


class TestHubness:
    def test_constant_k_occurrence_zero_skew(self):
        space = unit_space(np.eye(6))
        assert skew(space, space, 1, "cosine") == 0.0

    def test_hub_positive_skew(self):
        # one target near every source, the rest orthogonal
        d = 20
        src_rows = np.eye(d)[:10]
        hub = src_rows.mean(axis=0)
        tgt_rows = np.vstack([hub, np.eye(d)[10:19]])
        src = unit_space(src_rows)
        tgt = unit_space(tgt_rows)
        assert skew(src, tgt, 1, "cosine") > 0.0

    def test_skewness_matches_three_pass_oracle(self, rng):
        src = unit_space(rng.standard_normal((200, 16)))
        tgt = unit_space(rng.standard_normal((200, 16)))
        for metric in ("cosine", "csls"):
            cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=10, top_k=5), metric)
            got = hubness_skew(cands, 5, len(tgt))
            counts = k_occurrence(cands, 5, len(tgt)).astype(np.float64)
            mean = counts.sum() / counts.size
            m2 = ((counts - mean) ** 2).sum() / counts.size
            m3 = ((counts - mean) ** 3).sum() / counts.size
            assert got == pytest.approx(m3 / m2**1.5, abs=1e-9)

    def test_k_occurrence_mean(self, rng):
        src = unit_space(rng.standard_normal((40, 8)))
        tgt = unit_space(rng.standard_normal((30, 8)))
        cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=10, top_k=5), "cosine")
        counts = k_occurrence(cands, 5, len(tgt))
        assert counts.sum() == 40 * 5
        assert counts.mean() == pytest.approx(5 * 40 / 30)

    def test_planted_hub_csls_below_cosine(self):
        from bilex.retrieval import apply_alignment
        from bilex.synth import SynthConfig, gen_bilingual_world

        world = gen_bilingual_world(
            SynthConfig(vocab_n=1000, dim=48, noise_sigma=0.25, hub_count=15, mean_offset=1.0, seed=3)
        )
        src = apply_alignment(world.src, world.rotation)
        s_cos = skew(src, world.tgt, 10, "cosine")
        s_csls = skew(src, world.tgt, 10, "csls")
        assert s_csls < s_cos

    def test_invalid_k(self):
        space = unit_space(np.eye(3))
        cands, _ = retrieve_topk(space, space, SimilarityParams(k_csls=1, top_k=2))
        for k in (0, 3):  # k counts the first columns of the lists, which hold 2
            with pytest.raises(ValueError):
                hubness_skew(cands, k, len(space))

    def test_skewness_degenerate(self):
        assert skewness(np.array([2.0, 2.0, 2.0])) == 0.0


class TestCandidateFiles:
    def test_roundtrip(self, tmp_path, rng):
        src = unit_space(rng.standard_normal((6, 8)))
        tgt = unit_space(rng.standard_normal((9, 8)))
        cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=2, top_k=4))
        path = tmp_path / "cands.tsv"
        write_candidates(cands, src.vocab, tgt.vocab, path)
        back = load_candidates(path, src.vocab, tgt.vocab)
        np.testing.assert_array_equal(back.cand_ids, cands.cand_ids)
        np.testing.assert_allclose(back.scores, cands.scores, atol=5e-7)
        # six decimal places in the export
        first = path.read_text().splitlines()[0].split("\t")
        assert len(first[2].split(".")[1]) == 6

    def test_rows_equal_the_per_value_format(self, tmp_path):
        v = Vocabulary.from_words(["a", "b", "c"])
        scores = np.array([[-0.0, 5e-7, -5e-7], [1e300, 0.1 + 0.2, -1.0]])
        cands = CandidateSet.from_arrays(np.array([2, 0]), np.array([[0, 1, 2], [2, 1, 0]]), scores)
        path = tmp_path / "cands.tsv"
        write_candidates(cands, v, v, path)
        # one f-string per numpy value, as the export was written before it joined whole rows
        want = "".join(
            f"{v.word(int(s))}\t{v.word(int(c))}\t{x:.6f}\n"
            for row, s in enumerate(cands.src_ids)
            for c, x in zip(cands.cand_ids[row], cands.scores[row])
        )
        assert path.read_text() == want
        assert "\t-0.000000\n" in want and max(map(len, want.splitlines())) > 300

    def test_rows_of_many_sources_equal_the_per_value_format(self, tmp_path, rng):
        # 600 sources: the export formats 256 sources at a time, the last block short
        v = Vocabulary.from_words([f"w{i}" for i in range(700)])
        scores = rng.standard_normal((600, 3)) * 10.0 ** rng.integers(-8, 8, (600, 3))
        cands = CandidateSet.from_arrays(rng.permutation(700)[:600], rng.integers(0, 700, (600, 3)), scores)
        path = tmp_path / "cands.tsv"
        write_candidates(cands, v, v, path)
        want = "".join(
            f"{v.word(int(s))}\t{v.word(int(c))}\t{x:.6f}\n"
            for row, s in enumerate(cands.src_ids)
            for c, x in zip(cands.cand_ids[row], cands.scores[row])
        )
        assert path.read_text() == want

    def test_unknown_word_fatal(self, tmp_path):
        from bilex.corpus import DataFormatError

        path = tmp_path / "cands.tsv"
        path.write_text("mystery\tw0\t0.500000\n")
        v = Vocabulary.from_words(["w0"])
        with pytest.raises(DataFormatError, match="unknown source word"):
            load_candidates(path, v, v)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_fatal_with_line(self, tmp_path, score):
        from bilex.corpus import DataFormatError

        path = tmp_path / "cands.tsv"
        path.write_text(f"w0\tw0\t0.500000\nw1\tw0\t{score}\n")
        v = Vocabulary.from_words(["w0", "w1"])
        with pytest.raises(DataFormatError, match="line 2: non-finite score"):
            load_candidates(path, v, v)


class TestAtomicCandidateWrite:
    def cands_with_unknown_target(self, rng):
        src = unit_space(rng.standard_normal((6, 8)))
        tgt = unit_space(rng.standard_normal((9, 8)))
        cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=2, top_k=4))
        cands.cand_ids[3, 1] = 99  # no such target word: the export fails on row 3
        return cands, src, tgt

    def test_failed_write_leaves_no_file(self, tmp_path, rng):
        cands, src, tgt = self.cands_with_unknown_target(rng)
        with pytest.raises(IndexError):
            write_candidates(cands, src.vocab, tgt.vocab, tmp_path / "candidates.tsv")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_existing_file(self, tmp_path, rng):
        cands, src, tgt = self.cands_with_unknown_target(rng)
        path = tmp_path / "candidates.tsv"
        path.write_text("previous\trun\t1.000000\n")
        with pytest.raises(IndexError):
            write_candidates(cands, src.vocab, tgt.vocab, path)
        assert path.read_text() == "previous\trun\t1.000000\n"
        assert [p.name for p in tmp_path.iterdir()] == ["candidates.tsv"]


def load_error(path, src, tgt):
    from bilex.corpus import DataFormatError

    with pytest.raises(DataFormatError) as caught:
        load_candidates(path, src, tgt)
    return str(caught.value)


class TestCandidateFileErrors:
    """Each load_candidates fault: its exact text and the file line it names."""

    SRC = Vocabulary.from_words(["s0", "s1"])
    TGT = Vocabulary.from_words(["t0", "t1", "t2"])
    HEAD = "# candidates\n\ns0\tt0\t0.500000\ns0\tt1\t0.250000\n"  # lines 1-4

    def error_for(self, tmp_path, rows):
        path = tmp_path / "cands.tsv"
        path.write_text(self.HEAD + rows, encoding="utf-8")
        return path, load_error(path, self.SRC, self.TGT)

    def test_wrong_field_count(self, tmp_path):
        path, msg = self.error_for(tmp_path, "s1\tt0\n")
        assert msg == f"{path}: line 5: expected 'src<TAB>cand<TAB>score'"

    def test_short_row_balanced_by_a_long_one(self, tmp_path):
        # the six fields of lines 5 and 6 would read as two good rows
        path, msg = self.error_for(tmp_path, "s1\tt0\n0.1\ts1\tt1\t0.2\n")
        assert msg == f"{path}: line 5: expected 'src<TAB>cand<TAB>score'"

    def test_unknown_source_word(self, tmp_path):
        path, msg = self.error_for(tmp_path, "s9\tt0\t0.1\n")
        assert msg == f"{path}: line 5: unknown source word 's9'"

    def test_unknown_candidate_word(self, tmp_path):
        path, msg = self.error_for(tmp_path, "s1\tt9\t0.1\n")
        assert msg == f"{path}: line 5: unknown candidate word 't9'"

    def test_non_numeric_score(self, tmp_path):
        path, msg = self.error_for(tmp_path, "s1\tt0\t0.1x\n")
        assert msg == f"{path}: line 5: non-numeric score '0.1x'"

    def test_non_finite_score(self, tmp_path):
        path, msg = self.error_for(tmp_path, "s1\tt0\t-inf\n")
        assert msg == f"{path}: line 5: non-finite score '-inf'"

    def test_non_contiguous_source(self, tmp_path):
        path, msg = self.error_for(tmp_path, "s1\tt0\t0.1\ns1\tt1\t0.1\ns0\tt2\t0.1\n")
        assert msg == f"{path}: line 7: rows for 's0' are not contiguous"

    def test_mixed_widths(self, tmp_path):
        path, msg = self.error_for(tmp_path, "s1\tt0\t0.1\n")
        assert msg == f"{path}: candidate lists have mixed lengths [1, 2]"

    def test_first_failing_check_of_a_line_is_reported(self, tmp_path):
        # unknown source and non-numeric score on one line: the source is checked first
        path, msg = self.error_for(tmp_path, "s9\tt0\tx\n")
        assert msg == f"{path}: line 5: unknown source word 's9'"
        # non-contiguous and non-numeric: the score is checked first
        path, msg = self.error_for(tmp_path, "s1\tt0\t0.1\ns0\tt2\tx\n")
        assert msg == f"{path}: line 6: non-numeric score 'x'"

    def test_repeated_candidate_names_second_occurrence(self, tmp_path):
        path, msg = self.error_for(tmp_path, "s1\tt2\t0.9\ns1\tt2\t0.8\n")
        assert msg == f"{path}: line 6: candidate 't2' repeated for 's1'"


def reference_load_candidates(path, src_vocab, tgt_vocab):
    """The line-by-line loader: one row at a time, each check in turn, then the
    whole-file checks (mixed widths, then a candidate repeated within a list)."""
    from bilex.corpus import DataFormatError

    src_ids, cand_rows, score_rows, line_rows = [], [], [], []
    seen = set()
    current = -1
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataFormatError(f"{path}: line {line_no}: expected 'src<TAB>cand<TAB>score'")
            sw, cw = unicodedata.normalize("NFC", fields[0]), unicodedata.normalize("NFC", fields[1])
            if sw not in src_vocab:
                raise DataFormatError(f"{path}: line {line_no}: unknown source word {sw!r}")
            if cw not in tgt_vocab:
                raise DataFormatError(f"{path}: line {line_no}: unknown candidate word {cw!r}")
            try:
                score = float(fields[2])
            except ValueError:
                raise DataFormatError(f"{path}: line {line_no}: non-numeric score {fields[2]!r}") from None
            if not math.isfinite(score):
                raise DataFormatError(f"{path}: line {line_no}: non-finite score {fields[2]!r}")
            s = src_vocab.id(sw)
            if s != current:
                if s in seen:
                    raise DataFormatError(f"{path}: line {line_no}: rows for {sw!r} are not contiguous")
                seen.add(s)
                current = s
                src_ids.append(s)
                cand_rows.append([])
                score_rows.append([])
                line_rows.append([])
            cand_rows[-1].append(tgt_vocab.id(cw))
            score_rows[-1].append(score)
            line_rows[-1].append(line_no)
    if not src_ids:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0))
    widths = {len(r) for r in cand_rows}
    if len(widths) != 1:
        raise DataFormatError(f"{path}: candidate lists have mixed lengths {sorted(widths)}")
    for s, row, lines in zip(src_ids, cand_rows, line_rows):
        for j, c in enumerate(row):
            if c in row[:j]:
                raise DataFormatError(
                    f"{path}: line {lines[j]}: candidate {tgt_vocab.word(c)!r} repeated for {src_vocab.word(s)!r}"
                )
    return np.array(src_ids, dtype=np.int64), np.array(cand_rows, dtype=np.int64), np.array(score_rows, dtype=np.float64)


# \x85, \u2028 and \x1c break lines for str.splitlines but not for the file format;
# e + combining acute and \u00e9 are one word after NFC, as are n + tilde and \u00f1
CAND_SRC = Vocabulary.from_words(["s0", "s\x85x", "s\u2028y", "\u00e9", "s\x1cz"])
CAND_TGT = Vocabulary.from_words(["t0", "t1", "t\x85", "t\u2028", "\u00f1", "t\x1c"])
SPELLINGS = {"\u00e9": ["\u00e9", "e\u0301"], "\u00f1": ["\u00f1", "n\u0303"]}
SCORE_TEXTS = st.one_of(
    st.floats(min_value=-10, max_value=10).map(lambda v: f"{v:.6f}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_0", " 0.5", "0.5 ", "\x850.5", "-0.000000", "\u0661\u0662", "+.5"]),
)
# np.loadtxt would accept the \x1c and \x1f spellings; float() refuses them
BAD_SCORE_TEXTS = st.sampled_from(["x", "", "nan", "-inf", "1e999", "0x1", "1,5", "\x1c0.5", "0.5\x1f"])


def spelled(draw, word):
    return draw(st.sampled_from(SPELLINGS.get(word, [word])))


@st.composite
def candidate_files(draw):
    """Text of a candidate file: grouped rows of one width, then a few faults, comments and blanks."""
    width = draw(st.integers(1, 4))
    sources = draw(st.lists(st.sampled_from(range(len(CAND_SRC))), unique=True, max_size=len(CAND_SRC)))
    rows = []
    for s in sources:
        cands = draw(st.lists(st.sampled_from(range(len(CAND_TGT))), unique=True, min_size=width, max_size=width))
        for c in cands:
            rows.append([CAND_SRC.word(s), CAND_TGT.word(c), draw(SCORE_TEXTS)])
    lines = [[spelled(draw, sw), spelled(draw, cw), score] for sw, cw, score in rows]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["comment", "blank", "fields", "src", "cand", "score", "drop", "repeat", "move"]))
        if kind == "comment":
            lines.insert(at, "#" + draw(st.sampled_from(["", " c", "\tx\ty", "s0\tt0\t1"])))
        elif kind == "blank":
            lines.insert(at, "")
        elif kind == "fields":
            lines.insert(at, "\t".join(draw(st.sampled_from([["s0"], ["s0", "t0"], ["s0", "t0", "1", "2"]]))))
        elif lines and at < len(lines) and isinstance(lines[at], list):
            row = lines[at]
            if kind == "src":
                row[0] = draw(st.sampled_from(["zz", "s0", "s\x85", CAND_SRC.word(len(CAND_SRC) - 1)]))
            elif kind == "cand":
                row[1] = draw(st.sampled_from(["zz", "t0", "t\u2028", "t"]))
            elif kind == "score":
                row[2] = draw(BAD_SCORE_TEXTS)
            elif kind == "drop":
                del lines[at]
            elif kind == "repeat":  # an earlier candidate of the same list, else one more row
                earlier = [line for line in lines[:at] if isinstance(line, list) and line[0] == row[0]]
                if earlier:
                    row[1] = earlier[-1][1]
                else:
                    lines.insert(at + 1, [row[0], row[1], "0.1"])
            else:
                lines.insert(draw(st.integers(0, len(lines))), lines.pop(at))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join("\t".join(line) if isinstance(line, list) else line for line in lines)
    return text + (eol if lines and draw(st.booleans()) else "")


class TestCandidateLoaderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(text=candidate_files(), block_bytes=st.sampled_from([1, 2, 7, 30, 100, 1 << 20]))
    def test_matches_line_by_line_reference(self, tmp_path_factory, text, block_bytes):
        from bilex import corpus
        from bilex.corpus import DataFormatError

        path = tmp_path_factory.mktemp("cands") / "cands.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = reference_load_candidates(path, CAND_SRC, CAND_TGT)
        except DataFormatError as e:
            expected = str(e)
        with mock.patch.object(corpus, "READ_BLOCK_BYTES", block_bytes):
            if isinstance(expected, str):
                assert load_error(path, CAND_SRC, CAND_TGT) == expected
                return
            got = load_candidates(path, CAND_SRC, CAND_TGT)
        src_ids, cand_ids, scores = expected
        assert got.src_ids.dtype == np.int64 and got.src_ids.tolist() == src_ids.tolist()
        assert got.cand_ids.dtype == np.int64 and got.cand_ids.shape == cand_ids.shape
        assert got.cand_ids.tolist() == cand_ids.tolist()
        assert got.scores.dtype == np.float64 and got.scores.shape == scores.shape
        assert got.scores.tobytes() == scores.tobytes()
        assert got.rows_for(src_ids).tolist() == list(range(len(src_ids)))
        assert all(int(s) in got and got.for_source(int(s))[0].tolist() == cand_ids[i].tolist()
                   for i, s in enumerate(src_ids))
        absent = [s for s in range(-1, len(CAND_SRC) + 1) if s not in src_ids.tolist()]
        assert not any(s in got for s in absent) and (got.rows_for(absent) == -1).all()
