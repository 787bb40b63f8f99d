"""Lexical resource loading: embeddings, dictionaries, frequency and POS tables.

All loaders read text through one reader, _text_lines, which decodes blocks of
whole lines as UTF-8, lines ending at "\\n", "\\r\\n" or a lone "\\r"; a byte that
is not UTF-8 is a fault at its line, raised after the lines above it. They
NFC-normalize tokens and never lowercase. Loaded structures are treated as
immutable after construction and are safe to share across threads.

A vector file is read in parts. Its body, the rows after the "<count> <dim>"
header, is cut at line starts into up to `workers` byte ranges of at least
MIN_PART_BYTES. The first part is parsed in this
process straight into the final matrix, and each other one in a forked child
that writes its unit rows into a shared anonymous mapping of its own (_Slab)
and sends back, down a pipe, its tokens, row, line and zero-row counts and
its first fault. The rules for a row live in _parse_part and _store_chunk,
which read one part, in this process or in a child alike. One merge pass
(_merge, also run by load_vocabulary on its single part) then numbers the
words in file order, keeping the first occurrence of a duplicate and warning
once per duplicate, raises the first fault in file order, copies the kept
rows into place, giving each child's pages back as they are copied, and
checks the row count against the header.
So ids, bits, messages and warnings do not depend on the number of parts.
When max_vocab is below the header count, the file is read in one part, so
that the rows past max_vocab are counted but never parsed.
"""

from __future__ import annotations

import contextlib
import logging
import math
import mmap
import os
import pickle
import signal
import stat
import unicodedata
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

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
    parse_workers: int = 1  # processes that parsed the vector file

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


# Bytes per read of a text input, extended to the end of a line: enough to amortize the per-block calls, few
# enough that a block's strings stay near a megabyte (larger candidate chunks raised the peak RSS of a later stage).
READ_BLOCK_BYTES = 1 << 16

# Rows per np.loadtxt call in load_embeddings: enough to amortize the call,
# few enough that a chunk's text stays a few megabytes.
PARSE_CHUNK_ROWS = 2048

# Smallest share of a vector file's body worth a process of its own: about 80 ms of parsing, against a few
# milliseconds to fork, send the tokens back and copy the rows.
MIN_PART_BYTES = 4 << 20

# np.loadtxt strips these separators around a number; float() refuses them.
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


class ParseWorkerError(RuntimeError):
    """A process parsing part of a vector file died or sent no result."""


class _Undecodable(Exception):
    """args[0]: the line, counted from 1 at the start of the bytes read, that holds the first byte not UTF-8."""


@contextlib.contextmanager
def _opened(path: Path):
    """(descriptor, size) of a regular file opened for reading; any other file is a DataFormatError."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))  # so that opening a FIFO does not wait
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise DataFormatError(f"{path}: not a regular file")
        yield fd, st.st_size
    finally:
        os.close(fd)


def _next_line_start(fd: int, at: int, end: int) -> int:
    """The position after the first line end in [at, end), else end: after a "\\n", or after a "\\r" that no
    "\\n" follows, so that "\\r\\n" stays one line end (the byte after a "\\r" is read even past a 4 KB probe)."""
    while at < end:
        block = os.pread(fd, min(1 << 12, end - at), at)
        if not block:
            break
        ends = [i for i in (block.find(b"\n"), block.find(b"\r")) if i >= 0]
        if ends:
            i = at + min(ends)
            if block[i - at] == 0x0D and i + 1 < end and os.pread(fd, 1, i + 1) == b"\n":
                return i + 2
            return i + 1
        at += len(block)
    return end


def _text_lines(fd: int, start: int, end: int) -> Iterator[tuple[int, list[str], bytes]]:
    """(number of the first line, the lines, their UTF-8 bytes) per block of whole lines of the bytes [start, end).

    The one decoding rule of every text input. A block, READ_BLOCK_BYTES on to a line end, is read with pread, so
    that processes can share the descriptor, and decoded at once. Lines end at "\\n", "\\r\\n" or a lone "\\r", as in
    text mode, and are given without it; in the bytes each ends in "\\n" (str.splitlines would also break at
    "\\x85"). Past a byte that is not UTF-8, only the lines above its line are given; then _Undecodable names it.
    """
    line = 1
    while start < end:
        cut = _next_line_start(fd, min(start + READ_BLOCK_BYTES, end) - 1, end)
        data, start = os.pread(fd, cut - start, start), cut
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not data.endswith(b"\n"):  # the last line of a file without a final newline
            data += b"\n"
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            data = data[: data.rfind(b"\n", 0, e.start) + 1]  # the lines above the bad byte's line
            if data:
                yield line, data.decode("utf-8").split("\n")[:-1], data
            raise _Undecodable(line + data.count(b"\n")) from None
        lines = text.split("\n")[:-1]  # not the empty string after the last line break
        yield line, lines, data
        line += len(lines)


def _data_blocks(path: Path) -> Iterator[tuple[list[str], np.ndarray, np.ndarray]]:
    """Yield (lines, their UTF-8 bytes, each line ending in "\\n", their 1-based numbers) per block of a table's
    lines, less blank lines and # comments. In UTF-8 no other character holds a \\n, \\t or # byte."""
    with _opened(path) as (fd, size):
        try:
            for first, lines, data in _text_lines(fd, 0, size):
                raw = np.frombuffer(data, dtype=np.uint8)
                heads = raw[np.concatenate(([0], np.flatnonzero(raw == 10)[:-1] + 1))]  # first byte of each line
                kept = np.flatnonzero((heads != 10) & (heads != 35))
                if kept.size < len(lines):
                    lines = [lines[i] for i in kept.tolist()]
                    raw = np.frombuffer("".join([line + "\n" for line in lines]).encode("utf-8"), dtype=np.uint8)
                if lines:
                    yield lines, raw, first + kept
        except _Undecodable as e:
            raise DataFormatError(f"{path}: line {e.args[0]}: invalid UTF-8") from None


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) of a table's data lines, skipping blanks and # comments."""
    for lines, _, numbers in _data_blocks(path):
        yield from zip(numbers.tolist(), lines)


def _read_header(fd: int, path: Path, size: int) -> tuple[int, int, int]:
    """(count, dim, byte offset of the first row) of a vector file, from its "<count> <dim>" line."""
    try:
        _, lines, data = next(_text_lines(fd, 0, size), (1, [""], b"\n"))
    except _Undecodable:
        raise DataFormatError(f"{path}: line 1: invalid UTF-8") from None
    header, length = lines[0], data.index(b"\n")
    body = min(size, length + (2 if os.pread(fd, 2, length) == b"\r\n" else 1))  # the line ending as written
    parts = header.split()
    if len(parts) != 2:
        raise DataFormatError(f"{path}: line 1: malformed header {header.strip()!r}, expected '<count> <dim>'")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataFormatError(f"{path}: line 1: non-integer header fields {header.strip()!r}") from None
    if count < 0 or dim <= 0:
        raise DataFormatError(f"{path}: line 1: invalid header values count={count} dim={dim}")
    return count, dim, body


@dataclass
class _Part:
    """What parsing one part of a vector file's body found. Rows and lines are numbered within the part.

    The fault is (row, line, message after "line N: ") of the first faulty row; rows after it are counted but
    not read. A byte that is not UTF-8 stops the reading: undecodable is its line, a fault whatever the row.
    """

    tokens: list[str] = field(default_factory=list)  # NFC tokens of the rows read, in file order
    line_nos: list[int] = field(default_factory=list)  # their line numbers, from 1
    zero_rows: list[int] = field(default_factory=list)  # rows whose values are all zero
    rows: int = 0  # non-blank lines, also those not read
    lines: int = 0
    fault: tuple[int, int, str] | None = None
    undecodable: int = 0  # 0 if every byte read is UTF-8


class _RowFault(Exception):
    """(row, line, message after "line N: ") of a faulty row, numbered within its part."""


def _parse_part(fd: int, start: int, end: int, dim: int, limit: int, out: np.ndarray | None) -> _Part:
    """Read the rows of the bytes [start, end) of a vector file's body, one part: the one home of the format's row
    rules.

    A row is a non-blank line: a token, NFC-normalized, then exactly dim space-separated values, less one
    trailing space (common in fastText exports). Rows past limit are counted, not read. If out is given, row i's
    values go to out[i] as a unit row (see _store_chunk), else they are counted but not parsed.
    """
    part = _Part()
    tokens, line_nos = part.tokens, part.line_nos
    chunk: list[tuple[int, str, str]] = []  # (line, token, values) of the rows read but not stored

    def store() -> None:
        if out is not None and chunk and part.fault is None:
            try:
                _store_chunk(chunk, out, len(tokens) - len(chunk), part.zero_rows)
            except _RowFault as fault:
                part.fault = fault.args
        chunk.clear()

    rows = line_no = 0
    try:
        for first, lines, _ in _text_lines(fd, start, end):
            for line_no, line in enumerate(lines, start=first):
                if not line:
                    continue
                rows += 1
                if part.fault is not None or rows > limit:
                    continue
                token, _, values = line.partition(" ")
                token = _nfc(token)
                if values.endswith(" "):  # trailing space, common in fastText exports
                    values = values[:-1]
                    found = values.count(" ") + 1
                else:
                    found = values.count(" ") + 1 if values else 0
                if found != dim:
                    store()  # a bad value above this row is the first fault
                    if part.fault is None:
                        part.fault = (rows - 1, line_no, f"expected {dim} values for {token!r}, found {found}")
                    continue
                tokens.append(token)
                line_nos.append(line_no)
                if out is not None:
                    chunk.append((line_no, token, values))
                    if len(chunk) == PARSE_CHUNK_ROWS:
                        store()
    except _Undecodable as e:  # ordered against the faults above it by _merge
        part.undecodable = e.args[0]
    store()
    part.rows, part.lines = rows, line_no
    return part


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


def _store_chunk(chunk: list[tuple[int, str, str]], out: np.ndarray, first: int, zero_rows: list[int]) -> None:
    """Parse and check the rows first, first + 1, ... of a part and write them, scaled to unit length, to out.

    Zero rows stay zero and are added to zero_rows. A faulty row raises _RowFault once the rows above it are
    stored, since an overflow among them comes first.
    """
    if not chunk:
        return
    faulty: list[int] = []

    def fault(i: int, kind: str) -> str:
        faulty.append(i)
        return f"{kind} value in row for {chunk[i][1]!r}"

    try:
        parsed = _parse_values([values for _, _, values in chunk], out.shape[1], " ", fault)
    except DataFormatError as e:
        i = faulty[0]
        _store_chunk(chunk[:i], out, first, zero_rows)
        raise _RowFault(first + i, chunk[i][0], str(e)) from None
    # a row's norm has the same bits in any chunk of rows as in the whole matrix
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(parsed, axis=1)
    for i in np.flatnonzero(~np.isfinite(norms))[:1].tolist():
        raise _RowFault(first + i, chunk[i][0], f"norm of the row for {chunk[i][1]!r} overflows")
    # below 2**-511 the sum of squares has left the normal range and lost bits, or all of them: such a row is
    # first scaled by an exact power of two, its largest |value| into [0.5, 1); an all-zero row stays as it is
    tiny = np.flatnonzero(norms < 2.0**-511)
    if tiny.size:
        _, exponents = np.frexp(np.abs(parsed[tiny]).max(axis=1))
        parsed[tiny] = np.ldexp(parsed[tiny], -exponents[:, None])
        norms[tiny] = np.linalg.norm(parsed[tiny], axis=1)
    nonzero = norms > 0.0
    np.divide(parsed, norms[:, None], out=parsed, where=nonzero[:, None])
    out[first : first + len(chunk)] = parsed
    zero_rows.extend((first + np.flatnonzero(~nonzero)).tolist())


class _Slab:
    """The rows of one part parsed outside the final matrix, in a MAP_SHARED anonymous mapping of its own, so
    that a forked child can write them and the parent can give each page back as soon as it is copied."""

    def __init__(self, rows: int, dim: int):
        self.mapping = mmap.mmap(-1, max(1, rows) * dim * 8)
        self.rows = np.frombuffer(self.mapping, np.float64, rows * dim).reshape(rows, dim)
        self.released = 0  # bytes from the start already given back

    def copy_out(self, matrix: np.ndarray, first: int, rows: np.ndarray) -> None:
        """matrix[first + j] = row rows[j] for ascending rows, PARSE_CHUNK_ROWS at a time, each chunk's whole
        pages given back once copied (MADV_REMOVE), so the parent never holds the part twice; then the slab is
        closed."""
        for lo in range(0, len(rows), PARSE_CHUNK_ROWS):
            chunk = rows[lo : lo + PARSE_CHUNK_ROWS]
            at, end = int(chunk[0]), int(chunk[-1]) + 1
            # a run without duplicates is copied by slice, without a gathered temporary
            matrix[first + lo : first + lo + len(chunk)] = (
                self.rows[at:end] if end - at == len(chunk) else self.rows[chunk]
            )
            self._release(end * self.rows.shape[1] * 8 // mmap.PAGESIZE * mmap.PAGESIZE)
        self.close()

    def close(self) -> None:
        """Let the mapping go, whether or not its rows were copied; closing again does nothing."""
        self.rows = None
        with contextlib.suppress(BufferError):  # a view still held, by a traceback: the mapping goes with it
            self.mapping.close()

    def _release(self, end: int) -> None:
        if end > self.released and hasattr(mmap, "MADV_REMOVE"):
            try:
                self.mapping.madvise(mmap.MADV_REMOVE, self.released, end - self.released)
            except OSError:  # a kernel without it: the pages go when the mapping is closed
                return
            self.released = end


def _merge(path: Path, count: int, max_vocab: int | None, parts: list[tuple[_Part, np.ndarray | _Slab | None]],
           matrix: np.ndarray | None) -> tuple[Vocabulary, int, int]:
    """Vocabulary, duplicate count and zero-row count of a vector file from its parts, in file order.

    Each part comes with the matrix or the _Slab its rows were stored in. Word ids follow file order; a
    duplicate token keeps its first occurrence (warned and counted). Only the first min(count, max_vocab) rows
    are kept, and only faults among them count, but a byte that is not UTF-8 counts anywhere: the first in file
    order is raised. The kept rows are copied to their ids in matrix (the rows of a part stored in matrix itself
    move only past a duplicate), and a slab is closed once its rows are copied. Then the row count is checked
    against the header. The caller closes the slabs this leaves open, those of a part that keeps no rows or
    comes after a fault.
    """
    expected = count if max_vocab is None else min(count, max_vocab)
    words: list[str] = []
    index: dict[str, int] = {}
    duplicates = zero_rows = 0
    rows_before, lines_before = 0, 1  # the header is line 1
    for part, stored in parts:
        take = min(len(part.tokens), max(0, expected - rows_before))
        fault = part.fault if part.fault is not None and rows_before + part.fault[0] < expected else None
        if fault is not None:
            take = min(take, fault[0])
        ids = []
        for r, token in enumerate(part.tokens[:take]):
            if token in index:
                duplicates += 1
                log.warning("%s: line %d: duplicate token %r, keeping first occurrence",
                            path, lines_before + part.line_nos[r], token)
                ids.append(-1)
            else:
                ids.append(len(words))
                index[token] = len(words)
                words.append(token)
        if fault is not None:
            raise DataFormatError(f"{path}: line {lines_before + fault[1]}: {fault[2]}")
        if part.undecodable:
            raise DataFormatError(f"{path}: line {lines_before + part.undecodable}: invalid UTF-8")
        ids = np.array(ids, dtype=np.int64)
        kept = np.flatnonzero(ids >= 0)
        if matrix is not None and kept.size:
            first = ids[kept[0]]  # kept rows take consecutive ids
            if isinstance(stored, _Slab):
                stored.copy_out(matrix, first, kept)
            elif kept.size < take:
                matrix[first : first + kept.size] = stored[kept]
            elif first != 0:
                matrix[first : first + take] = stored[:take]
        zero_rows += sum(1 for r in part.zero_rows if r < take and ids[r] >= 0)
        rows_before += part.rows
        lines_before += part.lines
    if max_vocab is None and rows_before != count:
        raise DataFormatError(f"{path}: header declares {count} rows, found {rows_before}")
    if max_vocab is not None and rows_before < expected:
        raise DataFormatError(f"{path}: expected at least {expected} rows, found {rows_before}")
    return Vocabulary(words=words, index=index), duplicates, zero_rows


def load_vocabulary(path: str | Path, max_vocab: int | None = None) -> Vocabulary:
    """Read only the words of a text vector file; no value is converted.

    Words, ids and format checks are those of load_embeddings(path,
    max_vocab).vocab. Value fields are counted but not parsed, so a
    non-numeric or non-finite value, or a row whose norm overflows, is not
    detected here: only the commands that read vector values catch these.
    """
    path = Path(path)
    with _opened(path) as (fd, size):
        count, dim, body = _read_header(fd, path, size)
        part = _parse_part(fd, body, size, dim, count if max_vocab is None else min(count, max_vocab), None)
    return _merge(path, count, max_vocab, [(part, None)], None)[0]


def _part_count(workers: int, body_bytes: int) -> int:
    """Processes to parse a body of body_bytes with: at most workers, and MIN_PART_BYTES each."""
    if workers <= 1 or not hasattr(os, "fork"):
        return 1
    return max(1, min(workers, body_bytes // MIN_PART_BYTES))


def _cut_points(fd: int, start: int, end: int, n: int) -> list[int]:
    """start, up to n - 1 line starts near n equal shares of the bytes [start, end), then end.

    A cut follows a line end ("\\n", "\\r\\n" or a lone "\\r"), so it starts a line in any decoding.
    """
    cuts = [start]
    for i in range(1, n):
        cut = _next_line_start(fd, max(start + (end - start) * i // n, cuts[-1] + 1) - 1, end)
        if cut < end:
            cuts.append(cut)
    return cuts + [end]


def _fork_part(fd: int, start: int, end: int, dim: int, limit: int, out: np.ndarray, inherited: list[int]):
    """(pid, read end of its pipe) of a child that parses the bytes [start, end) into out; None if fork fails.

    The child sends its _Part down the pipe. Its whole body is in try/except BaseException and ends in os._exit,
    so that it never returns into the caller, whose `finally` blocks and exit handlers (a launcher writing a
    record file, say) are the parent's to run.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        # Python 3.12+ warns when it forks a process with threads, and OpenBLAS's idle pool threads count. The
        # child makes no BLAS call (np.linalg.norm over axis 1 is a ufunc reduction), so it needs none of their locks.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        try:
            os.close(r)
            for other in inherited:
                os.close(other)
            part = _parse_part(fd, start, end, dim, limit, out)
            with open(w, "wb") as pipe:
                pickle.dump(part, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            os._exit(1)
        os._exit(0)
    os.close(w)
    return pid, r


def _child_part(path: Path, pid: int, r: int, start: int, end: int) -> _Part:
    """The _Part a child sends, read to the end of its pipe, once the child is reaped (also if reading fails)."""
    try:
        with open(r, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        why = f"was killed by signal {signal.Signals(os.WTERMSIG(status)).name}"
    elif os.WEXITSTATUS(status):
        why = f"exited with status {os.WEXITSTATUS(status)}"
    elif not data:
        why = "sent no result"
    else:
        return pickle.loads(data)
    raise ParseWorkerError(f"{path}: the process parsing bytes {start}-{end} {why}")


def _parse_parts(path: Path, fd: int, cuts: list[int], dim: int, limit: int, matrix: np.ndarray) -> list:
    """(part, where its rows were stored) for the bytes between consecutive cuts.

    The first part is parsed here into matrix, each other one in a forked child into a _Slab of its own, made
    before the fork (in this process if the fork fails). Every child is reaped before this returns or raises;
    when it raises, every slab is closed.
    """
    # a parsable row takes at least 2 * dim bytes
    slabs = [_Slab(min(limit, (cuts[i + 1] - cuts[i]) // (2 * dim) + 1), dim) for i in range(1, len(cuts) - 1)]
    children: dict[int, tuple[int, int]] = {}  # part -> (pid, read end of its pipe), until reaped
    try:
        for i, slab in enumerate(slabs, start=1):
            child = _fork_part(fd, cuts[i], cuts[i + 1], dim, limit, slab.rows, [r for _, r in children.values()])
            if child is not None:
                children[i] = child
        parts = [(_parse_part(fd, cuts[0], cuts[1], dim, limit, matrix), matrix)]
        for i, slab in enumerate(slabs, start=1):
            if i in children:
                part = _child_part(path, *children.pop(i), cuts[i], cuts[i + 1])
            else:
                part = _parse_part(fd, cuts[i], cuts[i + 1], dim, limit, slab.rows)
            parts.append((part, slab))
        return parts
    except BaseException:
        for slab in slabs:
            slab.close()
        raise
    finally:
        for pid, r in children.values():  # only when raising: stop and reap the children not yet collected
            with contextlib.suppress(OSError):
                os.close(r)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def load_embeddings(path: str | Path, max_vocab: int | None = None, workers: int = 1) -> EmbeddingSpace:
    """Load text-format word vectors as unit rows: header "<count> <dim>", then one word per line.

    Duplicate tokens keep their first occurrence (warned and counted). If
    max_vocab is given only the first max_vocab rows are read. Values are
    parsed PARSE_CHUNK_ROWS rows at a time into a matrix sized from the
    header, and each row is divided by its norm as it is stored; zero rows
    stay zero and are counted. A byte that is not UTF-8, a non-numeric or
    non-finite value, or a row whose norm overflows, is an error naming its
    line.

    Up to `workers` processes parse the file, each a part of its body (see
    the module docstring); one part is used when max_vocab is below the
    header count, so that the rows past it are never read. Every result, error
    message and warning is the same for any number of parts.
    """
    path = Path(path)
    with _opened(path) as (fd, size):
        count, dim, body = _read_header(fd, path, size)
        limit = count if max_vocab is None else min(count, max_vocab)
        # a parsable row takes at least 2 * dim bytes, so an overstated count cannot over-allocate
        matrix = np.empty((min(limit, (size - body) // (2 * dim) + 1), dim), dtype=np.float64)
        n = 1 if limit < count else _part_count(workers, size - body)
        parts = _parse_parts(path, fd, _cut_points(fd, body, size, n), dim, limit, matrix)
    try:
        vocab, duplicates, zero_rows = _merge(path, count, max_vocab, parts, matrix)
    finally:
        for _, stored in parts:
            if isinstance(stored, _Slab):
                stored.close()
    if zero_rows:
        log.warning("%s: %d zero rows left unnormalized", path, zero_rows)
    return EmbeddingSpace(
        vocab=vocab,
        matrix=matrix[: len(vocab)],
        dim=dim,
        normalized=True,
        duplicate_count=duplicates,
        zero_row_count=zero_rows,
        parse_workers=len(parts),
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
            zipf[wid] = math.log10(max(1.0, c / total * 1e9))  # a share that underflows to 0 gets 0 too
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
