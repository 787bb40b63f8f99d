import logging
import math
import random
import re
import unicodedata
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilex import cli, corpus, evaluation, features, retrieval
from bilex.corpus import (
    DataFormatError,
    TranslationDictionary,
    Vocabulary,
    frequency_table_from_counts,
    load_dictionary,
    load_embeddings,
    load_frequency_table,
    load_pos_table,
    load_vocabulary,
    write_embeddings,
)
from conftest import grid, space_from, unit_space, write


def vocab(*words):
    return Vocabulary.from_words(list(words))


def unit_rows(rows):
    """The rows divided by their norms over the whole matrix; zero rows stay zero."""
    return unit_space(rows).matrix


class TestVocabulary:
    def test_ids_dense_and_consistent(self):
        v = vocab("a", "b", "c")
        assert [v.id(w) for w in v.words] == [0, 1, 2]
        assert v.word(1) == "b"
        assert "a" in v and "z" not in v

    def test_duplicates_rejected(self):
        with pytest.raises(DataFormatError):
            vocab("a", "a")


class TestLoadEmbeddings:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path / "e.vec", "3 4\na 1 2 3 4\nb 5 6 7 8\nc 9 10 11 12\n")
        space = load_embeddings(p)
        assert len(space) == 3 and space.dim == 4
        assert space.vocab.words == ["a", "b", "c"]
        assert space.matrix.tobytes() == unit_rows([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]).tobytes()
        assert space.normalized and space.zero_row_count == 0

    def test_three_four_five(self, tmp_path):
        space = load_embeddings(write(tmp_path / "e.vec", "1 2\na 3 4\n"))
        np.testing.assert_array_equal(space.matrix[0], [0.6, 0.8])

    def test_zero_rows_left_and_counted_once_per_file(self, tmp_path, caplog):
        # the duplicate zero row is dropped, so it is not counted
        p = write(tmp_path / "e.vec", "4 2\na 0 0\nb 1 0\nc 0 -0\na 0 0\n")
        with mock.patch.object(corpus, "PARSE_CHUNK_ROWS", 1), caplog.at_level(logging.WARNING):
            space = load_embeddings(p)
        np.testing.assert_array_equal(space.matrix, [[0, 0], [1, 0], [0, 0]])
        assert space.zero_row_count == 2 and space.duplicate_count == 1
        assert [r.getMessage() for r in caplog.records if "zero rows" in r.getMessage()] == [
            f"{p}: 2 zero rows left unnormalized"
        ]

    def test_unit_norms(self, tmp_path, rng):
        p = tmp_path / "e.vec"
        write_embeddings(space_from(rng.standard_normal((20, 6))), p)
        np.testing.assert_allclose(np.linalg.norm(load_embeddings(p).matrix, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("text, line", [
        ("2 4\na 1e200 1e200 1 1\nb 1 2 3 4\n", 2),
        ("2 2\na 1 0\na 1e200 1e200\n", 3),  # a duplicate row is checked too
        ("3 2\na 1 0\nb -1e155 1e155\nc 1 x\n", 3),  # before a later bad value in its chunk
        ("2 2\na 1e155 1e155\nb 1\n", 2),  # before a later row-shape fault
    ])
    def test_overflowing_norm_names_line(self, tmp_path, text, line):
        p = write(tmp_path / "e.vec", text)
        with pytest.raises(DataFormatError, match=re.escape(f"{p}: line {line}: norm of the row for")):
            load_embeddings(p)

    def test_bad_value_before_overflowing_norm(self, tmp_path):
        p = write(tmp_path / "e.vec", "2 2\na 1 x\nb 1e200 1e200\n")
        with pytest.raises(DataFormatError, match="line 2: non-numeric"):
            load_embeddings(p)

    def test_row_count_mismatch_names_counts(self, tmp_path):
        p = write(tmp_path / "e.vec", "5 4\na 1 2 3 4\nb 5 6 7 8\nc 9 10 11 12\n")
        with pytest.raises(DataFormatError, match=r"5.*3|declares 5"):
            load_embeddings(p)

    def test_duplicate_token_keeps_first(self, tmp_path, caplog):
        p = write(tmp_path / "e.vec", "2 2\na 1 0\na 0 1\n")
        with caplog.at_level(logging.WARNING):
            space = load_embeddings(p)
        assert len(space) == 1
        assert space.duplicate_count == 1
        np.testing.assert_array_equal(space.matrix[0], [1, 0])
        assert any("duplicate" in r.message for r in caplog.records)

    def test_malformed_header(self, tmp_path):
        p = write(tmp_path / "e.vec", "3\na 1 2\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_embeddings(p)

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = write(tmp_path / "e.vec", "2 3\na 1 2 3\nb 1 2\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_embeddings(p)

    def test_non_numeric_value_names_line(self, tmp_path):
        p = write(tmp_path / "e.vec", "1 2\na 1 x\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_embeddings(p)

    def test_max_vocab_truncates(self, tmp_path):
        p = write(tmp_path / "e.vec", "3 2\na 1 2\nb 3 4\nc 5 6\n")
        space = load_embeddings(p, max_vocab=2)
        assert space.vocab.words == ["a", "b"]

    def test_roundtrip_is_exact(self, tmp_path, rng):
        space = space_from(rng.standard_normal((7, 5)))
        p = tmp_path / "rt.vec"
        write_embeddings(space, p)
        back = load_embeddings(p)
        assert back.vocab.words == space.vocab.words
        assert back.matrix.tobytes() == unit_rows(space.matrix).tobytes()

    def test_trailing_space_and_blank_lines(self, tmp_path):
        p = write(tmp_path / "e.vec", "2 2\na 1 2 \n\nb 3 4\n")
        space = load_embeddings(p)
        assert space.vocab.words == ["a", "b"]
        assert space.matrix.tobytes() == unit_rows([[1, 2], [3, 4]]).tobytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        p = write(tmp_path / "e.vec", f"2 2\na 1 2\nb 3 {value}\n")
        with pytest.raises(DataFormatError, match="line 3: non-finite value"):
            load_embeddings(p)

    def test_float_only_spellings_parse_exactly(self, tmp_path):
        # np.loadtxt rejects these; the chunk falls back to float()
        p = write(tmp_path / "e.vec", "2 2\na 1_0 0.5\nb ١٢ -2\n")
        space = load_embeddings(p)
        assert space.matrix.tobytes() == unit_rows([[10.0, 0.5], [12.0, -2.0]]).tobytes()

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_around_number_refused_as_float_does(self, tmp_path, sep):
        # np.loadtxt would strip these characters; float() refuses them
        p = write(tmp_path / "e.vec", f"2 2\na 1 2\nb 3 4{sep}\n")
        with pytest.raises(DataFormatError, match="line 3: non-numeric"):
            load_embeddings(p)

    @pytest.mark.parametrize("bad", ["x", "nan"])
    def test_bad_value_past_first_chunk_names_true_line(self, tmp_path, bad):
        n = corpus.PARSE_CHUNK_ROWS + 50
        bad_row = corpus.PARSE_CHUNK_ROWS + 20  # 0-based; the file line is bad_row + 2
        rows = [f"w{i} {i} 0.5" if i != bad_row else f"w{i} {bad} 0.5" for i in range(n)]
        p = write(tmp_path / "e.vec", f"{n} 2\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=f"line {bad_row + 2}:"):
            load_embeddings(p)

    def test_bad_value_reported_before_later_row_fault(self, tmp_path):
        # the value fault on line 2 comes first, even though line 3 is a row-shape fault
        p = write(tmp_path / "e.vec", "2 2\na 1 x\nb 1\n")
        with pytest.raises(DataFormatError, match="line 2: non-numeric"):
            load_embeddings(p)
        with pytest.raises(DataFormatError, match="line 3: expected 2 values"):
            load_vocabulary(p)

    def test_overstated_header_count_is_a_format_error(self, tmp_path):
        p = write(tmp_path / "e.vec", "1000000000000 2\na 1 2\n")
        with pytest.raises(DataFormatError, match="declares 1000000000000 rows, found 1"):
            load_embeddings(p)

    def test_matrix_spans_chunks(self, tmp_path, rng):
        # each row's norm has the same bits in a chunk as over the whole matrix
        for dim, chunk_rows in ((3, corpus.PARSE_CHUNK_ROWS), (300, 7)):
            space = space_from(rng.standard_normal((2 * chunk_rows + 3, dim)))
            p = tmp_path / f"big{dim}.vec"
            write_embeddings(space, p)
            with mock.patch.object(corpus, "PARSE_CHUNK_ROWS", chunk_rows):
                back = load_embeddings(p)
            assert back.matrix.tobytes() == unit_rows(space.matrix).tobytes()


class TestLoadVocabulary:
    def test_words_only(self, tmp_path):
        p = write(tmp_path / "e.vec", "3 2\na 1 2\nb x y\na 5 6\n")
        v = load_vocabulary(p)
        assert v.words == ["a", "b"] and v.index == {"a": 0, "b": 1}

    def test_max_vocab_and_nfc(self, tmp_path):
        p = write(tmp_path / "e.vec", "3 1\ne\u0301 1\n\u00e9 2\nc 3\n")  # two spellings of one word
        v = load_vocabulary(p, max_vocab=2)
        assert v.words == ["\u00e9"]

    def test_row_count_mismatch(self, tmp_path):
        p = write(tmp_path / "e.vec", "3 1\na 1\n")
        with pytest.raises(DataFormatError, match="declares 3 rows, found 1"):
            load_vocabulary(p)


def reference_load(path, max_vocab=None):
    """The one-value-at-a-time loader that load_embeddings must match bit for bit.

    Its rows are normalized over the whole matrix, which checks load_embeddings' chunk-by-chunk normalization.
    """
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    header = lines[0].split()
    if len(header) != 2:
        raise DataFormatError(f"{path}: line 1: malformed header {lines[0].strip()!r}, expected '<count> <dim>'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise DataFormatError(f"{path}: line 1: non-integer header fields {lines[0].strip()!r}") from None
    if count < 0 or dim <= 0:
        raise DataFormatError(f"{path}: line 1: invalid header values count={count} dim={dim}")
    expected = count if max_vocab is None else min(count, max_vocab)
    words, index, rows, read, duplicates = [], {}, [], 0, 0
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        read += 1
        if read > expected:
            continue
        parts = line.split(" ")
        token, values = unicodedata.normalize("NFC", parts[0]), parts[1:]
        if values and values[-1] == "":
            values = values[:-1]
        if len(values) != dim:
            raise DataFormatError(f"{path}: line {line_no}: expected {dim} values for {token!r}, found {len(values)}")
        try:
            vec = [float(v) for v in values]
        except ValueError:
            raise DataFormatError(f"{path}: line {line_no}: non-numeric value in row for {token!r}") from None
        if not all(math.isfinite(v) for v in vec):
            raise DataFormatError(f"{path}: line {line_no}: non-finite value in row for {token!r}")
        if not math.isfinite(sum(v * v for v in vec)):
            raise DataFormatError(f"{path}: line {line_no}: norm of the row for {token!r} overflows")
        if token in index:
            duplicates += 1
            continue
        index[token] = len(words)
        words.append(token)
        rows.append(vec)
    if max_vocab is None and read != count:
        raise DataFormatError(f"{path}: header declares {count} rows, found {read}")
    if max_vocab is not None and read < expected:
        raise DataFormatError(f"{path}: expected at least {expected} rows, found {read}")
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    zero_rows = int((np.linalg.norm(matrix, axis=1) == 0.0).sum())
    return words, unit_rows(matrix), duplicates, zero_rows


# the faults that only a loader reading the values finds
VALUE_FAULT = "non-numeric|non-finite|overflows"


def outcome(load, *args):
    try:
        return load(*args)
    except DataFormatError as e:
        return str(e)


def fault_line(message):
    found = re.search(r": line (\d+):", message)
    return int(found.group(1)) if found else math.inf


# NFC merges e + combining acute with \u00e9, and the angstrom sign and A + ring with \u00c5
TOKENS = ["a", "b", "", "e\u0301", "\u00e9", "\u212b", "A\u030a", "\u00c5", "\ufb01"]
GOOD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-10, max_value=10).map(lambda v: f"{v:.6f}"),
    st.from_regex(r"[+-]?[0-9]{1,25}(\.[0-9]{0,30})?([eE][+-]?[0-9]{1,2})?", fullmatch=True),
    st.sampled_from(["1_0", "١٢", "\t1", "1\xa0", "+.5", "-0"]),
)
BAD_VALUES = st.sampled_from(["x", "", "nan", "-inf", "1e999", "1\x1c", "0x1", "1,5"])


def rarely(n):
    """True about once in n draws (a middle value, since hypothesis favours the ends of a range)."""
    return st.integers(0, n - 1).map(lambda i: i == n // 2)


@st.composite
def vec_files(draw):
    """Text of a vector file, valid or carrying a header, row-shape or value fault."""
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(rarely(6)):
            lines.append("")
        width = draw(st.integers(0, dim + 1)) if draw(rarely(25)) else dim
        values = [draw(BAD_VALUES) if draw(rarely(60)) else draw(GOOD_VALUES) for _ in range(width)]
        trailing = " " if draw(st.booleans()) else ""
        lines.append(" ".join([draw(st.sampled_from(TOKENS))] + values) + trailing)
    rows = sum(1 for line in lines if line)
    count = draw(st.integers(0, rows + 2)) if draw(rarely(10)) else rows
    header = draw(st.sampled_from([f"{count}", f"{count} x", "1 0"])) if draw(rarely(20)) else f"{count} {dim}"
    return "\n".join([header] + lines) + "\n"


class TestLoaderEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(text=vec_files(), max_vocab=st.one_of(st.none(), st.integers(0, 8)), chunk_rows=st.integers(1, 4))
    def test_loaders_agree_with_float_reference(self, tmp_path_factory, text, max_vocab, chunk_rows):
        p = tmp_path_factory.mktemp("vec") / "e.vec"
        p.write_text(text, encoding="utf-8")
        with mock.patch.object(corpus, "PARSE_CHUNK_ROWS", chunk_rows):
            space = outcome(load_embeddings, p, max_vocab)
        vocab_only = outcome(load_vocabulary, p, max_vocab)
        expected = outcome(reference_load, p, max_vocab)

        if isinstance(expected, str):
            assert space == expected
        else:
            words, matrix, duplicates, zero_rows = expected
            assert space.vocab.words == words
            assert space.vocab.index == {w: i for i, w in enumerate(words)}
            assert space.matrix.tobytes() == matrix.tobytes() and space.matrix.shape == matrix.shape
            assert space.duplicate_count == duplicates and space.zero_row_count == zero_rows

        if isinstance(vocab_only, str):
            # a header, row-count or row-shape fault: load_embeddings names the same
            # fault, unless a bad value on an earlier line came first
            assert space == vocab_only or (
                re.search(VALUE_FAULT, space) and fault_line(space) < fault_line(vocab_only)
            )
        elif isinstance(space, str):
            assert re.search(VALUE_FAULT, space)
        else:
            assert vocab_only.words == space.vocab.words and vocab_only.index == space.vocab.index


class TestLoadDictionary:
    def test_grouping(self, tmp_path):
        p = write(tmp_path / "d.tsv", "a\tx\na\ty\nb\tx\n")
        d = load_dictionary(p, vocab("a", "b"), vocab("x", "y"))
        assert d.entries == {0: (0, 1), 1: (0,)}

    def test_oov_skipped_and_counted(self, tmp_path):
        p = write(tmp_path / "d.tsv", "a\tx\nc\tz\n")
        d = load_dictionary(p, vocab("a", "b"), vocab("x", "y"))
        assert d.entries == {0: (0,)}
        assert d.oov_src == 1

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "d.tsv", "")
        d = load_dictionary(p, vocab("a"), vocab("x"))
        assert d.entries == {} and len(d) == 0

    def test_bad_line_fatal_with_number(self, tmp_path):
        p = write(tmp_path / "d.tsv", "a\tx\nnotabs\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_dictionary(p, vocab("a"), vocab("x"))

    def test_order_insensitive(self, tmp_path):
        lines = ["a\tx", "a\ty", "b\tx", "b\ty", "a\tz"]
        shuffled = lines[:]
        random.Random(7).shuffle(shuffled)
        p1 = write(tmp_path / "d1.tsv", "\n".join(lines) + "\n")
        p2 = write(tmp_path / "d2.tsv", "\n".join(shuffled) + "\n")
        sv, tv = vocab("a", "b"), vocab("x", "y", "z")
        assert load_dictionary(p1, sv, tv).entries == load_dictionary(p2, sv, tv).entries

    def test_comments_ignored(self, tmp_path):
        p = write(tmp_path / "d.tsv", "# header\na\tx\n")
        d = load_dictionary(p, vocab("a"), vocab("x"))
        assert d.entries == {0: (0,)}


class TestLoadFrequencyTable:
    def test_zipf_formula(self, tmp_path):
        p = write(tmp_path / "f.tsv", "w\t1000\nrest\t999000\n")
        table = load_frequency_table(p, vocab("w", "rest"))
        assert table.total_tokens == 10**6
        assert table.zipf[0] == pytest.approx(6.0, abs=1e-12)

    def test_rank_order(self, tmp_path):
        p = write(tmp_path / "f.tsv", "b\t10\na\t100\nc\t1\n")
        table = load_frequency_table(p, vocab("a", "b", "c"))
        assert table.rank.tolist() == [1, 2, 3]

    def test_missing_word_defaults(self, tmp_path):
        p = write(tmp_path / "f.tsv", "a\t10\n")
        table = load_frequency_table(p, vocab("a", "b", "c"))
        assert table.zipf[1] == 0.0
        assert table.rank[1] == 3 and table.rank[2] == 3

    def test_rank_ties_break_by_vocab_order(self, tmp_path):
        p = write(tmp_path / "f.tsv", "b\t5\na\t5\n")
        table = load_frequency_table(p, vocab("a", "b"))
        assert table.rank.tolist() == [1, 2]

    def test_non_positive_count_fatal(self, tmp_path):
        p = write(tmp_path / "f.tsv", "a\t0\n")
        with pytest.raises(DataFormatError):
            load_frequency_table(p, vocab("a"))

    def test_non_numeric_count_fatal(self, tmp_path):
        p = write(tmp_path / "f.tsv", "a\tmany\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_frequency_table(p, vocab("a"))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=40))
    def test_rank_bijective_and_zipf_monotone(self, counts):
        words = [f"w{i}" for i in range(len(counts))]
        table = frequency_table_from_counts(dict(zip(words, counts)), Vocabulary.from_words(words))
        ranks = sorted(table.rank.tolist())
        assert ranks == list(range(1, len(counts) + 1))
        by_rank = sorted(range(len(counts)), key=lambda i: table.rank[i])
        zipfs = [table.zipf[i] for i in by_rank]
        assert all(a >= b - 1e-12 for a, b in zip(zipfs, zipfs[1:]))


class TestLoadPosTable:
    def test_parse_and_defaults(self, tmp_path):
        p = write(tmp_path / "p.tsv", "apple\tNOUN\n")
        table = load_pos_table(p, vocab("apple", "mystery"))
        assert table.tag(0) == "NOUN"
        assert table.tag(1) == "UNK"

    def test_unknown_tag_maps_to_x(self, tmp_path):
        p = write(tmp_path / "p.tsv", "a\tFOO\n")
        table = load_pos_table(p, vocab("a"))
        assert table.tag(0) == "X"
        assert table.unknown_tag_count == 1

    def test_malformed_rows_not_fatal(self, tmp_path):
        p = write(tmp_path / "p.tsv", "bad row no tab\na\tVERB\n")
        table = load_pos_table(p, vocab("a"))
        assert table.tag(0) == "VERB"


def test_zipf_floor_at_zero(tmp_path):
    # one token out of a huge corpus would be negative on the raw scale
    p = write(tmp_path / "f.tsv", f"rare\t1\ncommon\t{10**10}\n")
    table = load_frequency_table(p, vocab("rare", "common"))
    assert table.zipf[0] == 0.0
    assert table.zipf[1] > 0.0
    assert math.isfinite(table.zipf[0])



class Midway(Exception):
    """Raised by a row source partway through a writer's rows."""


def rows_then_fail(rows):
    yield from rows
    raise Midway


class MidwayList(list):
    """Iterates over its first item, then raises."""

    def __iter__(self):
        return rows_then_fail([self[0]])


class MidwayVocab:
    """Names the first word asked for, then raises."""

    def __init__(self):
        self.calls = 0

    def word(self, i):
        self.calls += 1
        if self.calls > 1:
            raise Midway
        return f"w{i}"


class MidwayDict(dict):
    """Serves its first row, then raises at the next row or lookup."""

    def items(self):
        return rows_then_fail(list(super().items())[:1])

    def __getitem__(self, key):
        if key != next(iter(self)):
            raise Midway
        return super().__getitem__(key)


def space_failing_after_row_0():
    space = space_from(np.eye(2), ["a", "b"])
    space.vocab.words = MidwayList(space.vocab.words)
    return space


EXPLANATION = dict(src="a", pred="b", rank_src=1, rank_pred=2, pos_src="X", pos_pred="X", score=0.5, correct=1)

# each writer, fed a row source that raises after its first row
ATOMIC_WRITERS = {
    "write_embeddings": lambda path: write_embeddings(space_failing_after_row_0(), path),
    "write_dictionary": lambda path: corpus.write_dictionary(
        TranslationDictionary(entries={0: (0,), 1: (1,)}), vocab("s0", "s1"), MidwayVocab(), path
    ),
    "write_frequency_counts": lambda path: corpus.write_frequency_counts(MidwayDict(a=3, b=2), path),
    "write_pos_tags": lambda path: corpus.write_pos_tags(MidwayDict(a="NOUN", b="VERB"), path),
    "write_labeled_pairs": lambda path: retrieval.write_labeled_pairs(
        rows_then_fail([(0, 0, 1)]), vocab("s0"), vocab("t0"), path
    ),
    "cli._write_kv": lambda path: cli._write_kv(path, rows_then_fail([("round", "train_map"), (0, "0.500000")])),
    "write_per_pos": lambda path: evaluation.write_per_pos(MidwayDict(NOUN=(3, 0.5), VERB=(2, 1.0)), path),
    "write_correlation_grid": lambda path: evaluation.write_correlation_grid(
        MidwayDict(NOUN=(12, 0.5), VERB=(11, None)), "src-tgt", path
    ),
    "write_explanations": lambda path: evaluation.write_explanations(rows_then_fail([EXPLANATION]), path),
    "write_pca_coordinates": lambda path: evaluation.write_pca_coordinates(
        rows_then_fail([("a", "source", 0.0, 1.0)]), path
    ),
    "write_feature_matrix": lambda path: features.write_feature_matrix(
        grid([[1, 0]]), vocab("s0"), MidwayVocab(), path
    ),
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_writer_failing_midway_leaves_no_file(tmp_path, writer):
    with pytest.raises(Midway):
        ATOMIC_WRITERS[writer](tmp_path / "out.tsv")
    assert list(tmp_path.iterdir()) == []  # neither out.tsv nor a .out.tsv.<pid>.tmp
