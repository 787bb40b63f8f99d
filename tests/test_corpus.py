import contextlib
import io
import logging
import math
import mmap
import os
import random
import re
import signal
import tracemalloc
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

    def test_tiny_rows_become_unit_rows(self, tmp_path):
        # squares below the normal range: a 1e-160 square is subnormal, a 1e-200 square is 0
        space = load_embeddings(write(tmp_path / "e.vec", "3 2\na 1e-160 0\nb 1e-200 1e-200\nc 3 4\n"))
        assert space.zero_row_count == 0
        assert space.matrix.tolist() == [[1.0, 0.0], [0.5**0.5, 0.5**0.5], [0.6, 0.8]]

    def test_rows_above_the_tiny_bound_keep_their_bits(self, tmp_path, rng):
        # a norm of 2**-511 or more takes the plain division, beside a tiny row in the same chunk. Each row's
        # largest |value| is 2**-510 and the others down to 1e-12 of it, so some squares are subnormal: about
        # one row in ten then differs from the same row scaled first
        raw = rng.standard_normal((100, 5)) * 10.0 ** -rng.uniform(0, 12, (100, 5))
        raw *= 2.0**-510 / np.abs(raw).max(axis=1, keepdims=True)
        lines = [f"w{i} " + " ".join(map(repr, row)) for i, row in enumerate(raw.tolist())] + ["t 1e-170 0 0 0 0"]
        space = load_embeddings(write(tmp_path / "e.vec", f"{len(lines)} 5\n" + "\n".join(lines) + "\n"))
        plain = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        assert space.matrix[:100].tobytes() == plain.tobytes()
        assert space.matrix[100].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

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
    # a row whose sum of squares leaves the normal range is scaled first, its largest |value| into [0.5, 1)
    for i in np.flatnonzero((np.linalg.norm(matrix, axis=1) < 2.0**-511) & (matrix != 0).any(axis=1)):
        exponent = math.frexp(max(abs(v) for v in matrix[i]))[1]
        matrix[i] = [math.ldexp(v, -exponent) for v in matrix[i]]
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


def parts_outcome(path, max_vocab, parts, caplog):
    """What load_embeddings(path, max_vocab, parts) returns, or its error message, and the warnings it logs."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="bilex"):
        try:
            space = load_embeddings(path, max_vocab, parts)
        except DataFormatError as e:
            result = str(e)
        else:
            m = space.matrix
            result = (space.vocab.words, m.tobytes(), m.shape, space.duplicate_count, space.zero_row_count)
    return result, [r.getMessage() for r in caplog.records]


# equal-length rows, so that 2 parts cut after the third row and 3 parts after the second and fourth
SIX_ROWS = "a 1 2\nb 3 4\nc 5 6\nd 7 8\ne 9 1\nf 2 3\n"
PART_CASES = {
    "duplicate_each_side_of_a_cut": ("6 2\na 1 2\nb 3 4\nc 5 6\na 7 8\nb 9 1\nc 2 3\n", None),
    "blank_lines": ("4 2\n\na 1 2\n\n\nb 3 4\n\nc 5 6\n \nd 7 8\n\n", None),
    "crlf": ("6 2\r\n" + SIX_ROWS.replace("\n", "\r\n"), None),
    "lone_cr": ("6 2\ra 1 2\rb 3 4\nc 5 6\rd 7 8\ne 9 1\rf 2 3\r", None),
    "trailing_spaces": ("6 2\n" + SIX_ROWS.replace("\n", " \n"), None),
    "no_final_newline": ("6 2\n" + SIX_ROWS.rstrip("\n"), None),
    "zero_and_tiny_rows": ("6 2\na 0 0\nb 1e-200 1e-200\nc 0 -0\nd 3 4\na 0 0\ne 1e-170 0\n", None),
    "value_faults_in_two_parts": ("6 2\na 1 2\nb 3 4\nc 5 x\nd 7 8\ne 9 y\nf 2 3\n", None),
    "shape_fault_before_value_fault": ("6 2\na 1 2\nb 3 4\nc 5 6\nd 7\ne 9 y\nf 2 3\n", None),
    "value_fault_before_shape_fault": ("6 2\na 1 2\nb 3 x\nc 5 6\nd 7 8\ne 9\nf 2 3\n", None),
    "overflow_in_a_later_part": ("6 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\ne 1e200 1e200\nf 2 3\n", None),
    "duplicates_before_a_fault": ("6 2\na 1 2\nb 3 4\na 5 6\nb 7 8\nc 9 z\na 2 3\n", None),
    "header_overstates": ("8 2\n" + SIX_ROWS, None),
    "header_understates": ("4 2\n" + SIX_ROWS, None),
    "faults_past_an_understated_count": ("4 2\na 1 2\nb 3 4\nc 5 6\nd 7 8\ne 9 x\nf 2\n", None),
    "max_vocab_below_count": ("6 2\na 1 2\nb 3 4\nc 5 6\nd 7 x\ne 9\nf 2 3\n", 3),
    "max_vocab_above_count": ("4 2\na 1 2\nb 3 4\nc 5 6\na 7 8\ne 9 x\nf 2\n", 9),
    "max_vocab_below_count_above_rows": ("8 2\n" + SIX_ROWS, 7),
    "max_vocab_above_count_and_rows": ("6 2\n" + SIX_ROWS[:-6], 9),
}


class TestParallelParse:
    """load_embeddings gives the same result, error message and warnings for any number of parts."""

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("case", sorted(PART_CASES))
    def test_parts_agree_with_one_part(self, tmp_path, caplog, split_small, case, parts):
        text, max_vocab = PART_CASES[case]
        p = tmp_path / "e.vec"
        p.write_bytes(text.encode("utf-8"))
        one = parts_outcome(p, max_vocab, 1, caplog)
        assert split_small == []
        assert parts_outcome(p, max_vocab, parts, caplog) == one
        # the rows past a max_vocab below the header count are never read, so such a file is not split
        below = max_vocab is not None and max_vocab < int(text.split()[0])
        assert len(split_small) == (0 if below else parts - 1)

    def test_cuts_fall_where_the_cases_expect(self, tmp_path):
        p = write(tmp_path / "e.vec", "6 2\n" + SIX_ROWS)
        with open(p, "rb") as fh:
            assert corpus._cut_points(fh.fileno(), 4, 40, 2) == [4, 22, 40]
            assert corpus._cut_points(fh.fileno(), 4, 40, 3) == [4, 16, 28, 40]

    def test_lone_cr_lines_are_cut_into_parts_and_blocks(self, tmp_path, rng, split_small):
        # lines that end in a lone "\r" only: cut into three parts, and read a block at a time, as "\n" lines are
        lf, cr = tmp_path / "lf.vec", tmp_path / "cr.vec"
        write_embeddings(space_from(rng.standard_normal((3 * corpus.PARSE_CHUNK_ROWS, 40))), lf)
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        assert b"\n" not in cr.read_bytes() and cr.stat().st_size > 40 * corpus.READ_BLOCK_BYTES
        one = load_embeddings(lf)
        three = load_embeddings(cr, None, 3)
        assert three.parse_workers == 3 and len(split_small) == 2
        assert three.vocab.words == one.vocab.words and three.matrix.tobytes() == one.matrix.tobytes()
        peaks = []
        for path in (lf, cr):
            tracemalloc.start()
            try:
                assert load_vocabulary(path).words == one.vocab.words
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the same blocks as "\n" lines, not one block of the whole file
        assert peaks[1] <= peaks[0] + 4 * corpus.READ_BLOCK_BYTES and peaks[1] < cr.stat().st_size / 2, peaks

    def test_a_cut_never_splits_crlf(self, tmp_path):
        # "\r\n" across the 4 KB probe's end, and a lone "\r" as the last byte of a range
        p = tmp_path / "e.txt"
        p.write_bytes(b"x" * 4095 + b"\r\nab\rcd\r")
        with open(p, "rb") as fh:
            fd = fh.fileno()
            assert corpus._next_line_start(fd, 0, 4104) == 4097
            assert corpus._next_line_start(fd, 4097, 4104) == 4100
            assert corpus._next_line_start(fd, 4100, 4104) == 4103
            assert corpus._next_line_start(fd, 4100, 4102) == 4102  # no line end inside the range
            assert corpus._next_line_start(fd, 4103, 4104) == 4104

    def test_parts_agree_on_a_large_file(self, tmp_path, rng, split_small):
        p = tmp_path / "e.vec"
        write_embeddings(space_from(rng.standard_normal((3 * corpus.PARSE_CHUNK_ROWS, 4))), p)
        one = load_embeddings(p)
        three = load_embeddings(p, None, 3)
        assert three.parse_workers == 3 and len(split_small) == 2
        assert three.vocab.words == one.vocab.words and three.matrix.tobytes() == one.matrix.tobytes()

    def test_each_child_part_is_given_back_as_it_is_copied(self, tmp_path, rng, split_small, monkeypatch):
        # 100-row copy chunks over parts of about 1,000 rows of 64 values; a duplicate in the last part turns
        # its copy into a gather of the rows kept
        monkeypatch.setattr(corpus, "PARSE_CHUNK_ROWS", 100)
        slabs = []

        class Recorded(corpus._Slab):
            def __init__(self, *args):
                super().__init__(*args)
                slabs.append(self)

        monkeypatch.setattr(corpus, "_Slab", Recorded)
        values = rng.standard_normal((3000, 64))
        words = [f"w{i}" for i in range(3000)]
        words[2990] = "w10"
        p = write(tmp_path / "e.vec", "3000 64\n" + "".join(
            f"{w} {' '.join(map(repr, row.tolist()))}\n" for w, row in zip(words, values)
        ))
        one = load_embeddings(p)
        assert slabs == []
        three = load_embeddings(p, None, 3)
        assert three.parse_workers == 3 and three.duplicate_count == one.duplicate_count == 1
        assert three.vocab.words == one.vocab.words and three.matrix.tobytes() == one.matrix.tobytes()
        assert len(slabs) == 2 and all(slab.mapping.closed and slab.rows is None for slab in slabs)
        if hasattr(mmap, "MADV_REMOVE"):  # every whole page below the last row copied was given back early
            assert all(slab.released >= 900 * 64 * 8 // mmap.PAGESIZE * mmap.PAGESIZE for slab in slabs)

    @pytest.mark.parametrize("case, parts", [("duplicate_each_side_of_a_cut", 2), ("value_faults_in_two_parts", 3)])
    def test_every_slab_is_closed_copied_or_not(self, tmp_path, split_small, monkeypatch, case, parts):
        # a second part made of duplicates keeps no rows; a fault in the second part stops the merge before
        # the third part's rows are copied
        slabs = []

        class Recorded(corpus._Slab):
            def __init__(self, *args):
                super().__init__(*args)
                slabs.append(self)

        monkeypatch.setattr(corpus, "_Slab", Recorded)
        p = tmp_path / "e.vec"
        p.write_bytes(PART_CASES[case][0].encode("utf-8"))
        with contextlib.suppress(DataFormatError):
            load_embeddings(p, None, parts)
        assert len(slabs) == parts - 1 and all(slab.mapping.closed and slab.rows is None for slab in slabs)

    def test_one_part_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "MIN_PART_BYTES", 1)
        monkeypatch.delattr(os, "fork", raising=False)
        p = write(tmp_path / "e.vec", "6 2\n" + SIX_ROWS)
        assert load_embeddings(p, None, 4).parse_workers == 1

    def test_large_parts_only(self, tmp_path, monkeypatch):
        p = write(tmp_path / "e.vec", "6 2\n" + SIX_ROWS)  # 36 bytes of rows
        monkeypatch.setattr(corpus, "MIN_PART_BYTES", 13)
        assert load_embeddings(p, None, 8).parse_workers == 2
        monkeypatch.setattr(corpus, "MIN_PART_BYTES", 37)
        assert load_embeddings(p, None, 8).parse_workers == 1

    def test_decoding_error_in_a_later_part(self, tmp_path, split_small):
        # a byte that is not UTF-8 is a fault at its line, after a row fault a few lines above it in the same block
        p = tmp_path / "e.vec"
        rows = "".join(f"w{i} 1 2\n" for i in range(2000)).encode("utf-8").replace(b"w1990 ", b"\xff ")
        cases = [
            (rows.replace(b"w1985 1 2\n", b"w1985 1\n"), "line 1987: expected 2 values for 'w1985', found 1"),
            (rows, "line 1992: invalid UTF-8"),
        ]
        for body, message in cases:
            p.write_bytes(b"2000 2\n" + body)
            for parts in (1, 2, 3):
                with pytest.raises(DataFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
                    load_embeddings(p, None, parts)
            with pytest.raises(DataFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
                load_vocabulary(p)
        assert len(split_small) == 2 * (1 + 2)

    def test_child_killed_is_an_internal_error(self, tmp_path, monkeypatch, split_small):
        parent, real = os.getpid(), corpus._parse_part

        def killed_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(corpus, "_parse_part", killed_in_child)
        p = write(tmp_path / "e.vec", "6 2\n" + SIX_ROWS)
        with pytest.raises(corpus.ParseWorkerError, match=re.escape(f"{p}: the process parsing bytes 22-40 was killed by signal SIGKILL")):
            load_embeddings(p, None, 2)
        assert len(split_small) == 1


def reference_lines(data):
    """The lines of data as a file opened in text mode gives them, each ending in "\\n", and the 1-based line
    holding the first byte that is not UTF-8 (None if every byte is); only the lines above that one are given."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape").read()
    lines = [line + "\n" for line in text.split("\n")]
    if lines[-1] == "\n":  # after a final line break, or of an empty file
        lines.pop()
    for i, line in enumerate(lines):
        if any("\udc80" <= c <= "\udcff" for c in line):
            return lines[:i], i + 1
    return lines, None


def reader_lines(path):
    """What _text_lines gives over the whole of path, in the shape of reference_lines."""
    lines = []
    with corpus._opened(path) as (fd, size):
        try:
            for first, block, data in corpus._text_lines(fd, 0, size):
                assert first == len(lines) + 1 and data == "".join(line + "\n" for line in block).encode("utf-8")
                lines += [line + "\n" for line in block]
        except corpus._Undecodable as e:
            return lines, e.args[0]
    return lines, None


# line breaks, characters that break lines only for str.splitlines, and bytes that are not UTF-8 (a lone
# continuation byte, a lead byte without its continuation, an encoded surrogate)
TEXT_PIECES = st.sampled_from([
    b"a", b" ", b"\t", b"#", b"\n", b"\r", b"\r\n", "\u00e9".encode(), "\u20ac".encode(), "\x85".encode(),
    "\u2028".encode(), b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff",
])


class TestTextReader:
    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(TEXT_PIECES, max_size=40), block_bytes=st.sampled_from([1, 2, 3, 5, 1 << 16]))
    def test_lines_as_text_mode_reads_them(self, tmp_path_factory, pieces, block_bytes):
        data = b"".join(pieces)
        p = tmp_path_factory.mktemp("text") / "t.txt"
        p.write_bytes(data)
        with mock.patch.object(corpus, "READ_BLOCK_BYTES", block_bytes):
            assert reader_lines(p) == reference_lines(data)

    def test_bad_byte_in_the_header(self, tmp_path):
        p = tmp_path / "e.vec"
        p.write_bytes(b"1 2\xff\na 1 2\n")
        for load in (load_embeddings, load_vocabulary):
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: line 1: invalid UTF-8$"):
                load(p)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_path_that_is_not_a_regular_file(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        loaders = (load_embeddings, load_vocabulary, lambda p: load_dictionary(p, vocab("a"), vocab("b")))
        for path in (tmp_path, fifo):  # a directory; a FIFO, which no process writes to
            for load in loaders:
                with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: not a regular file$"):
                    load(path)


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


def test_zipf_when_a_huge_count_underflows_the_other_shares(tmp_path):
    # next to a 401-digit count every other share of the total underflows to 0, whose log10 does not exist
    p = write(tmp_path / "f.tsv", f"huge\t{10**400}\nrare\t1\n")
    table = load_frequency_table(p, vocab("huge", "rare"))
    assert table.zipf.tolist() == [9.0, 0.0]
    assert table.rank.tolist() == [1, 2]



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
