"""Lexical resource loading: embeddings, dictionaries, frequency and POS tables.

All loaders NFC-normalize tokens and never lowercase. Loaded structures are
treated as immutable after construction and are safe to share across threads.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import stat
import unicodedata
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)

UPOS_TAGS = (
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)
UNK_TAG = "UNK"
ALL_TAGS = UPOS_TAGS + (UNK_TAG,)
TAG_INDEX = {t: i for i, t in enumerate(ALL_TAGS)}


class DataFormatError(ValueError):
    """A resource file violates its format contract."""


def _nfc(token: str) -> str:
    return unicodedata.normalize("NFC", token)


@dataclass
class Vocabulary:
    """Ordered word inventory with dense 0-based ids."""

    words: list[str]
    index: dict[str, int]

    @classmethod
    def from_words(cls, words: list[str]) -> "Vocabulary":
        index = {w: i for i, w in enumerate(words)}
        if len(index) != len(words):
            raise DataFormatError("duplicate words in vocabulary")
        return cls(words=list(words), index=index)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def id(self, word: str) -> int:
        return self.index[word]

    def word(self, word_id: int) -> str:
        return self.words[word_id]


@dataclass
class EmbeddingSpace:
    """Vocabulary plus a row-major vector matrix (row i = vector of word i)."""

    vocab: Vocabulary
    matrix: np.ndarray
    dim: int
    normalized: bool = False
    duplicate_count: int = 0
    zero_row_count: int = 0

    def __len__(self) -> int:
        return len(self.vocab)


@dataclass
class TranslationDictionary:
    """source id -> tuple of target ids (deduplicated, sorted ascending)."""

    entries: dict[int, tuple[int, ...]]
    oov_src: int = 0
    oov_tgt: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def sources(self) -> list[int]:
        return sorted(self.entries)

    def pair_count(self) -> int:
        return sum(len(t) for t in self.entries.values())


@dataclass
class FrequencyTable:
    """Per-word-id Zipf scores and frequency ranks.

    zipf(w) = max(0, log10(count_w / total_tokens * 1e9)); words missing from
    the source counts get zipf 0 and rank len(vocab) (worst). Ranks over
    listed words are 1..m by descending count, ties broken by vocabulary
    order.
    """

    zipf: np.ndarray
    rank: np.ndarray
    total_tokens: int
    listed: int
    oov: int = 0


@dataclass
class PosTable:
    """Per-word-id Universal POS tag; words without an entry map to UNK."""

    tag_ids: np.ndarray
    unknown_tag_count: int = 0
    oov: int = 0

    def tag(self, word_id: int) -> str:
        return ALL_TAGS[self.tag_ids[word_id]]


def _data_lines(path: Path):
    """Yield (1-based line number, stripped line), skipping blanks and # comments."""
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            yield line_no, line


# Rows per np.loadtxt call in load_embeddings: enough to amortize the call,
# few enough that a chunk's text stays a few megabytes.
PARSE_CHUNK_ROWS = 2048

# np.loadtxt strips these separators around a number; float() refuses them.
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


class _VectorRows:
    """Row reader of the text vector format, the one home of its tokenizing rules.

    Construction checks the header "<count> <dim>". Iteration yields
    (line_no, token, values, word_id) for each non-blank row within
    max_vocab. token is NFC-normalized. values is the text after the token,
    less one trailing space (common in fastText exports), and holds exactly
    dim space-separated fields. word_id is the token's id in self.vocab, or
    -1 for a duplicate token, which keeps its first occurrence (warned and
    counted). Rows past max_vocab are counted but not read; after the last
    row the count is checked against the header.
    """

    def __init__(self, fh, path: Path, max_vocab: int | None):
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise DataFormatError(f"{path}: line 1: malformed header {header.strip()!r}, expected '<count> <dim>'")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataFormatError(f"{path}: line 1: non-integer header fields {header.strip()!r}") from None
        if count < 0 or dim <= 0:
            raise DataFormatError(f"{path}: line 1: invalid header values count={count} dim={dim}")
        self.fh = fh
        self.path = path
        self.count = count
        self.dim = dim
        self.max_vocab = max_vocab
        self.expected = count if max_vocab is None else min(count, max_vocab)
        self.vocab = Vocabulary(words=[], index={})
        self.duplicates = 0

    def __iter__(self):
        path, dim = self.path, self.dim
        words, index = self.vocab.words, self.vocab.index
        read = 0
        for line_no, raw in enumerate(self.fh, start=2):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            read += 1
            if read > self.expected:
                continue
            token, _, values = line.partition(" ")
            token = _nfc(token)
            if values.endswith(" "):  # trailing space, common in fastText exports
                values = values[:-1]
                found = values.count(" ") + 1
            else:
                found = values.count(" ") + 1 if values else 0
            if found != dim:
                raise DataFormatError(f"{path}: line {line_no}: expected {dim} values for {token!r}, found {found}")
            if token in index:
                self.duplicates += 1
                log.warning("%s: line %d: duplicate token %r, keeping first occurrence", path, line_no, token)
                word_id = -1
            else:
                word_id = index[token] = len(words)
                words.append(token)
            yield line_no, token, values, word_id

        if self.max_vocab is None and read != self.count:
            raise DataFormatError(f"{path}: header declares {self.count} rows, found {read}")
        if self.max_vocab is not None and read < self.expected:
            raise DataFormatError(f"{path}: expected at least {self.expected} rows, found {read}")


def load_vocabulary(path: str | Path, max_vocab: int | None = None) -> Vocabulary:
    """Read only the words of a text vector file; no value is converted.

    Words, ids and format checks are those of load_embeddings(path,
    max_vocab).vocab. Value fields are counted but not parsed, so a
    non-numeric or non-finite value, or a row whose norm overflows, is not
    detected here: only the commands that read vector values catch these.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        rows = _VectorRows(fh, path, max_vocab)
        for _ in rows:
            pass
    return rows.vocab


def _parse_values(texts: list[str], width: int, delimiter: str, fault: Callable[[int, str], str]) -> np.ndarray:
    """(len(texts), width) values, bitwise equal to float() of each field.

    Each text holds width fields joined by delimiter. np.loadtxt parses the
    texts in C. Texts it rejects, or that hold a non-finite value, are parsed
    again with float() one text at a time, which accepts whatever float()
    accepts (such as "1_0") and raises DataFormatError(fault(i, kind)) for
    the first bad text i, kind being "non-numeric" or "non-finite".
    """
    joined = "".join(texts)
    if not any(c in joined for c in _LOADTXT_ONLY_SPACES):
        try:
            with warnings.catch_warnings():  # texts that are all empty warn; the shape check below refuses them
                warnings.simplefilter("ignore", UserWarning)
                parsed = np.loadtxt(texts, dtype=np.float64, delimiter=delimiter, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if parsed.shape == (len(texts), width) and np.isfinite(parsed).all():
                return parsed
    parsed = np.empty((len(texts), width), dtype=np.float64)
    for i, text in enumerate(texts):
        try:
            parsed[i] = [float(v) for v in text.split(delimiter)]
        except ValueError:
            raise DataFormatError(fault(i, "non-numeric")) from None
        if not np.isfinite(parsed[i]).all():
            raise DataFormatError(fault(i, "non-finite"))
    return parsed


def _store_chunk(path: Path, chunk: list[tuple], matrix: np.ndarray) -> int:
    """Parse a chunk, check every row (duplicates too) and write the kept rows, scaled to unit length, to matrix.

    Returns the number of zero rows written; they stay zero.
    """
    if not chunk:
        return 0
    faulty: list[int] = []

    def fault(i: int, kind: str) -> str:
        faulty.append(i)
        return f"{path}: line {chunk[i][0]}: {kind} value in row for {chunk[i][1]!r}"

    try:
        parsed = _parse_values([values for _, _, values, _ in chunk], matrix.shape[1], " ", fault)
    except DataFormatError:
        _store_chunk(path, chunk[: faulty[0]], matrix)  # an overflow above the bad value comes first
        raise
    # a row's norm has the same bits in any chunk of rows as in the whole matrix
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(parsed, axis=1)
    for i in np.flatnonzero(~np.isfinite(norms))[:1]:
        raise DataFormatError(f"{path}: line {chunk[i][0]}: norm of the row for {chunk[i][1]!r} overflows")
    nonzero = norms > 0.0
    np.divide(parsed, norms[:, None], out=parsed, where=nonzero[:, None])
    ids = np.fromiter((word_id for _, _, _, word_id in chunk), dtype=np.int64, count=len(chunk))
    kept = ids >= 0
    matrix[ids[kept]] = parsed[kept]
    return int((kept & ~nonzero).sum())


def load_embeddings(path: str | Path, max_vocab: int | None = None) -> EmbeddingSpace:
    """Load text-format word vectors as unit rows: header "<count> <dim>", then one word per line.

    Duplicate tokens keep their first occurrence (warned and counted). If
    max_vocab is given only the first max_vocab rows are read. Values are
    parsed PARSE_CHUNK_ROWS rows at a time into a matrix sized from the
    header, and each row is divided by its norm as it is stored; zero rows
    stay zero and are counted. A non-numeric or non-finite value, or a row
    whose norm overflows, is an error naming its line.
    """
    path = Path(path)
    zero_rows = 0
    with open(path, encoding="utf-8") as fh:
        rows = _VectorRows(fh, path, max_vocab)
        capacity = rows.expected
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            # a parsable row takes at least 2 * dim bytes, so an overstated count cannot over-allocate
            capacity = min(capacity, st.st_size // (2 * rows.dim) + 1)
        matrix = np.empty((capacity, rows.dim), dtype=np.float64)
        chunk: list[tuple] = []
        try:
            for row in rows:
                chunk.append(row)
                if len(chunk) == PARSE_CHUNK_ROWS:
                    full, chunk = chunk, []
                    zero_rows += _store_chunk(path, full, matrix)
        except DataFormatError:
            # a bad value above the faulty row is the file's first fault
            _store_chunk(path, chunk, matrix)
            raise
        zero_rows += _store_chunk(path, chunk, matrix)
    if zero_rows:
        log.warning("%s: %d zero rows left unnormalized", path, zero_rows)
    return EmbeddingSpace(
        vocab=rows.vocab,
        matrix=matrix[: len(rows.vocab)],
        dim=rows.dim,
        normalized=True,
        duplicate_count=rows.duplicates,
        zero_row_count=zero_rows,
    )


def load_dictionary(path: str | Path, src: Vocabulary, tgt: Vocabulary) -> TranslationDictionary:
    """Load a tab-separated translation dictionary, skipping OOV pairs.

    Targets are stored deduplicated and sorted by id, so the result does not
    depend on input line order.
    """
    path = Path(path)
    grouped: dict[int, set[int]] = {}
    oov_src = 0
    oov_tgt = 0
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataFormatError(f"{path}: line {line_no}: expected exactly one tab, got {len(fields) - 1}")
        s, t = _nfc(fields[0]), _nfc(fields[1])
        if s not in src:
            oov_src += 1
            continue
        if t not in tgt:
            oov_tgt += 1
            continue
        grouped.setdefault(src.id(s), set()).add(tgt.id(t))
    if oov_src or oov_tgt:
        log.info("%s: skipped %d pairs with OOV source, %d with OOV target", path, oov_src, oov_tgt)
    entries = {s: tuple(sorted(ts)) for s, ts in grouped.items()}
    return TranslationDictionary(entries=entries, oov_src=oov_src, oov_tgt=oov_tgt)


def frequency_table_from_counts(counts: dict[str, int], vocab: Vocabulary) -> FrequencyTable:
    """Build zipf scores and ranks for vocab from a word -> raw count mapping."""
    n = len(vocab)
    total = sum(counts.values())
    zipf = np.zeros(n, dtype=np.float64)
    rank = np.full(n, n, dtype=np.int64)
    listed: list[tuple[int, int]] = []  # (word id, count)
    oov = 0
    for word, c in counts.items():
        if word in vocab:
            listed.append((vocab.id(word), c))
        else:
            oov += 1
    if total > 0:
        for wid, c in listed:
            zipf[wid] = max(0.0, math.log10(c / total * 1e9))
    # descending count, ties by vocabulary order
    listed.sort(key=lambda wc: (-wc[1], wc[0]))
    for r, (wid, _) in enumerate(listed, start=1):
        rank[wid] = r
    return FrequencyTable(zipf=zipf, rank=rank, total_tokens=total, listed=len(listed), oov=oov)


def load_frequency_table(path: str | Path, vocab: Vocabulary) -> FrequencyTable:
    """Load "word<TAB>count" rows; counts must be positive integers."""
    path = Path(path)
    counts: dict[str, int] = {}
    duplicates = 0
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataFormatError(f"{path}: line {line_no}: expected 'word<TAB>count'")
        word = _nfc(fields[0])
        try:
            c = int(fields[1])
        except ValueError:
            raise DataFormatError(f"{path}: line {line_no}: non-numeric count {fields[1]!r}") from None
        if c <= 0:
            raise DataFormatError(f"{path}: line {line_no}: non-positive count {c}")
        if word in counts:
            duplicates += 1
            log.warning("%s: line %d: duplicate word %r, last value wins", path, line_no, word)
        counts[word] = c
    if duplicates:
        log.info("%s: %d duplicate rows", path, duplicates)
    return frequency_table_from_counts(counts, vocab)


def pos_table_from_tags(tags: dict[str, str], vocab: Vocabulary) -> PosTable:
    """Build a PosTable from word -> tag; unknown tag strings fall back to X
    and are counted in its unknown_tag_count."""
    n = len(vocab)
    tag_ids = np.full(n, TAG_INDEX[UNK_TAG], dtype=np.int8)
    unknown = 0
    oov = 0
    for word, tag in tags.items():
        if word not in vocab:
            oov += 1
            continue
        if tag not in TAG_INDEX or tag == UNK_TAG:
            unknown += 1
            tag = "X"
        tag_ids[vocab.id(word)] = TAG_INDEX[tag]
    return PosTable(tag_ids=tag_ids, unknown_tag_count=unknown, oov=oov)


def load_pos_table(path: str | Path, vocab: Vocabulary) -> PosTable:
    """Load "word<TAB>UPOS" rows. Nothing here is fatal: bad rows are skipped,
    unknown tags become X with a warning, absent words stay UNK."""
    path = Path(path)
    tags: dict[str, str] = {}
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            log.warning("%s: line %d: skipping malformed row", path, line_no)
            continue
        tags[_nfc(fields[0])] = fields[1]
    table = pos_table_from_tags(tags, vocab)
    if table.unknown_tag_count:
        log.warning("%s: %d unknown tag strings mapped to X", path, table.unknown_tag_count)
    return table


@contextlib.contextmanager
def atomic_writer(path: str | Path):
    """Text handle whose content replaces path only once the block completes.

    The text goes to a temporary file beside path, which is renamed over path
    on success. On any failure the temporary file is removed and path keeps
    its old content (or stays absent), so no reader sees a truncated file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_embeddings(space: EmbeddingSpace, path: str | Path) -> None:
    """Write the text format back out with shortest-roundtrip float rendering."""
    with atomic_writer(path) as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for i, word in enumerate(space.vocab.words):
            coords = " ".join(repr(float(v)) for v in space.matrix[i])
            fh.write(f"{word} {coords}\n")


def write_dictionary(dic: TranslationDictionary, src: Vocabulary, tgt: Vocabulary, path: str | Path) -> None:
    with atomic_writer(path) as fh:
        for s in sorted(dic.entries):
            for t in dic.entries[s]:
                fh.write(f"{src.word(s)}\t{tgt.word(t)}\n")


def write_frequency_counts(counts: dict[str, int], path: str | Path) -> None:
    with atomic_writer(path) as fh:
        for word in counts:
            fh.write(f"{word}\t{counts[word]}\n")


def write_pos_tags(tags: dict[str, str], path: str | Path) -> None:
    with atomic_writer(path) as fh:
        for word in tags:
            fh.write(f"{word}\t{tags[word]}\n")
