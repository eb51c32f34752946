"""Corpus loading, validation, and count-based featurization.

A corpus is a CSV of named samples with numeric attributes; each language has
a token inventory CSV that fixes the feature-vector dimension order.  The
loaded corpus is its columns: ids, languages, attributes and name lengths in
file order, plus one token-count matrix per language.  Tones are ordinary
inventory tokens flagged ``is_tone`` so that tone-excluding name lengths fall
out of the same counts for every language.

``load_inventories`` states each inventory rule once.  Each row has three
columns: a language and a token that are each one whitespace-free word, and
an ``is_tone`` of 0 or 1.  No language repeats a token, and each has a
non-tone token.  ``TokenInventory`` is the plain value it builds.

The loader reads the corpus in one streaming pass into typed arrays and looks
each token up in its inventory once, which both validates the token and gives
its column.  ``_append_chunk`` states the corpus-row rules once and is the
only code that appends rows.  It takes ``CHUNK_ROWS`` rows at a time and
checks them one column at a time: column counts, ids, languages and tokens,
transcriptions, then every attribute cell of the chunk, each parsed once
by ``_number``, in one vectorized range test.  The rows of a chunk it
declines go through it again one row at a time, and the first row it
declines is named with its message.  Both
files are read by ``_open_csv``, which names the file and line of input
that is not UTF-8 or not CSV.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import itemgetter

import numpy as np

ATTRIBUTE_NAMES = ("Attack", "Defend", "Height", "Weight")

# CSV columns, in order, for the two input files.
CORPUS_COLUMNS = ("id", "language", "name", "transcription",
                  *(name.lower() for name in ATTRIBUTE_NAMES))
INVENTORY_COLUMNS = ("language", "token", "is_tone")

# Corpus rows read and checked at a time: enough to run each column's
# checks as one comprehension, few enough that the rows held between the
# CSV reader and the typed arrays stay small.
CHUNK_ROWS = 128


class CorpusError(ValueError):
    """Raised for malformed or internally inconsistent corpus files."""


@dataclass(frozen=True)
class TokenInventory:
    """Ordered token set for one language; order defines feature indices."""

    tokens: tuple[str, ...]
    is_tone: tuple[bool, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True, eq=False)
class Corpus:
    """A corpus file as columns, one row per name in file order.

    ``attributes`` has one column per ``ATTRIBUTE_NAMES`` entry, NaN for a
    blank cell.  ``length`` is each name's count of non-tone tokens.
    ``counts[language]`` is the count matrix of that language's rows, in
    file order; every inventory language has one, empty if it has no rows.
    """

    ids: np.ndarray
    language: np.ndarray
    attributes: np.ndarray
    length: np.ndarray
    counts: dict[str, np.ndarray]

    def __len__(self):
        return len(self.ids)


@contextmanager
def _open_csv(path, columns: tuple[str, ...]):
    """A ``csv.reader`` past the file's header, which must name ``columns``.

    The one place a read error becomes a ``CorpusError`` naming the file
    and line: bytes that are not UTF-8, or a row that is not CSV.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CorpusError(f"{path}: empty file, expected header "
                                  f"{','.join(columns)}")
            if [h.strip() for h in header] != list(columns):
                raise CorpusError(f"{path}: bad header {header!r}, "
                                  f"expected {list(columns)!r}")
            yield reader
        except csv.Error as exc:
            raise CorpusError(f"{path}: line {reader.line_num}: {exc}") \
                from None
        except UnicodeDecodeError:
            # The reader decodes a block ahead of its rows, so count the lines
            # up to the bad byte, ended as it ends them: \n, \r\n or \r.
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = len(data[:exc.start + 1].splitlines())
                raise CorpusError(f"{path}: line {line}: {exc}") from None
            raise   # the file has changed; returning would swallow the error


def load_inventories(inventory_path) -> dict[str, TokenInventory]:
    """Parse the inventory CSV into one :class:`TokenInventory` per language.

    The only check of the inventory rules.  Each ``CorpusError`` names the
    file and the bad row, or the language that has no non-tone token.
    """
    # language -> {token: is_tone}, in file order
    per_lang: dict[str, dict[str, bool]] = {}
    with _open_csv(inventory_path, INVENTORY_COLUMNS) as reader:
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(INVENTORY_COLUMNS):
                raise CorpusError(
                    f"{inventory_path}: row {row_no}: expected "
                    f"{len(INVENTORY_COLUMNS)} columns, got {len(row)}")
            language, token, tone_flag = (c.strip() for c in row)
            tokens = per_lang.setdefault(language, {})
            if not language:
                problem = "empty language"
            elif language.split() != [language]:
                # records.tsv is tab-separated, one record a line
                problem = (f"language {language!r} is not one "
                           "whitespace-free word")
            elif token.split() != [token]:
                # A transcription splits on whitespace, so no name could
                # count such a token.
                problem = f"token {token!r} is not one whitespace-free word"
            elif tone_flag not in ("0", "1"):
                problem = f"is_tone must be 0 or 1, got {tone_flag!r}"
            elif token in tokens:
                problem = (f"duplicate token {token!r} in the {language!r} "
                           "inventory")
            else:
                tokens[token] = tone_flag == "1"
                continue
            raise CorpusError(f"{inventory_path}: row {row_no}: {problem}")
    for language, tokens in per_lang.items():
        if all(tokens.values()):
            raise CorpusError(f"{inventory_path}: inventory for {language!r} "
                              "has no non-tone token")
    return {language: TokenInventory(tokens=tuple(tokens),
                                     is_tone=tuple(tokens.values()))
            for language, tokens in per_lang.items()}


def _number(cell: str) -> float:
    """``float(cell)``, or NaN for a cell that is not a number."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _append_chunk(chunk: list[list[str]], streams, ids, codes,
                  attributes) -> str | None:
    """Check a chunk of corpus rows one column at a time and append it.

    Returns None once the chunk is appended.  Otherwise appends nothing and
    returns what is wrong; for a one-row chunk, that is the row's message
    from the first check it fails, in column order.  Each attribute cell is
    parsed once, by ``_number`` after ``str.strip`` (``float`` alone would
    keep the separators U+001C to U+001F).
    """
    rows = [row for row in chunk if row]
    if bad := [row for row in rows if len(row) != len(CORPUS_COLUMNS)]:
        return f"expected {len(CORPUS_COLUMNS)} columns, got {len(bad[0])}"
    chunk_ids = [row[0].strip() for row in rows]
    if "" in chunk_ids:
        return "empty id"
    new_ids = dict.fromkeys(chunk_ids)
    if len(new_ids) != len(rows) or not ids.keys().isdisjoint(new_ids):
        return "duplicate id " + repr(next(
            i for i in chunk_ids if i in ids or chunk_ids.count(i) > 1))
    languages = [row[1].strip() for row in rows]
    names = [row[3].split() for row in rows]
    # Each run of rows in one language: (its language's stream, the run's
    # token indices, its names' token counts).
    runs = []
    for language, run in groupby(zip(languages, names), itemgetter(0)):
        if language not in streams:
            return f"unknown language {language!r}"
        stream = streams[language]
        index, run = stream[1], [tokens for _, tokens in run]
        try:
            runs.append((stream,
                         [index[token] for tokens in run for token in tokens],
                         [len(tokens) for tokens in run]))
        except KeyError as exc:
            return f"token {exc.args[0]!r} not in the {language!r} inventory"
    if [] in names:
        return (f"entry {chunk_ids[names.index([])]!r} has an empty "
                "transcription")
    values = [_number(cell.strip()) for row in rows for cell in row[4:]]
    checked = np.array(values)
    width = len(ATTRIBUTE_NAMES)
    # NaN fails the range test too: a blank cell's NaN is a missing value,
    # a "nan" cell or one that is not a number is bad input.
    for i in np.flatnonzero(~((checked >= 0) & (checked < math.inf))).tolist():
        row, attr = rows[i // width], ATTRIBUTE_NAMES[i % width]
        if cell := row[4 + i % width].strip():
            try:
                value = float(cell)
            except ValueError:
                return (f"attribute column {attr.lower()!r} is not numeric: "
                        f"{cell!r}")
            return (f"entry {chunk_ids[i // width]!r}: attribute {attr} = "
                    f"{value!r} must be finite and non-negative")
    ids.update(new_ids)
    attributes.fromlist(values)
    for (code, _, token_ids, lengths), run_token_ids, run_lengths in runs:
        codes.fromlist([code] * len(run_lengths))
        token_ids.fromlist(run_token_ids)
        lengths.fromlist(run_lengths)
    return None


def load_corpus(corpus_path, inventory_path
                ) -> tuple[Corpus, dict[str, TokenInventory]]:
    """Load and validate a corpus file against its token inventories.

    Row order is preserved from the file.  Every transcription token must
    exist in its language's inventory; duplicate ids, unknown languages and
    malformed rows are hard errors that name the file and the offending row.

    The file is read in one streaming pass that keeps no Python object per
    row but its id: each row's language code and attributes go into typed
    arrays, and its tokens, looked up once in the inventory, go into its
    language's array of token indices beside the name's token count.  Rows
    go in a chunk at a time; a chunk that fails a check is checked again one
    row at a time, so that the error names its first bad row.  Each language
    is then featurized and measured in one call.
    """
    inventories = load_inventories(inventory_path)
    # language -> (code, token index, token indices, token count per name)
    streams = {language: (code, inventory.index, array("i"), array("i"))
               for code, (language, inventory)
               in enumerate(inventories.items())}
    ids: dict[str, None] = {}
    codes = array("i")
    attributes = array("d")
    with _open_csv(corpus_path, CORPUS_COLUMNS) as reader:
        first_row_no = 2
        while chunk := list(islice(reader, CHUNK_ROWS)):
            if _append_chunk(chunk, streams, ids, codes, attributes):
                # Declined: append it a row at a time, to name the bad row.
                for row_no, row in enumerate(chunk, start=first_row_no):
                    if message := _append_chunk(
                            [row], streams, ids, codes, attributes):
                        raise CorpusError(
                            f"{corpus_path}: row {row_no}: {message}")
            first_row_no += len(chunk)
    id_column = np.array(list(ids), dtype=str)
    code_column = np.asarray(codes)
    # The column's dtype is as wide as the longest language that has rows.
    present, at = np.unique(code_column, return_inverse=True)
    names = list(inventories)
    language_column = np.array([names[c] for c in present], dtype=str)[at]
    length = np.zeros(len(id_column), dtype=np.int64)
    counts = {}
    for language, inventory in inventories.items():
        code, _, token_ids, lengths = streams[language]
        matrix = featurize(token_ids, lengths, inventory)
        rows = code_column == code
        # int16 presorts by radix in boost.train; a cast would wrap silently.
        too_big = np.argwhere(matrix > np.iinfo(np.int16).max)
        if too_big.size:
            row = np.flatnonzero(rows)[too_big[0][0]]
            raise CorpusError(
                f"{corpus_path}: entry {str(id_column[row])!r}: a token "
                f"occurs {matrix[tuple(too_big[0])]} times, more than "
                f"{np.iinfo(np.int16).max}")
        length[rows] = name_length(matrix, inventory)
        counts[language] = matrix.astype(np.int16)
    return Corpus(
        ids=id_column, language=language_column,
        attributes=np.asarray(attributes).reshape(
            len(id_column), len(ATTRIBUTE_NAMES)),
        length=length, counts=counts), inventories


def featurize(token_ids: Sequence[int], lengths: Sequence[int],
              inventory: TokenInventory) -> np.ndarray:
    """Count how many times each inventory token occurs in each name.

    ``token_ids`` holds the names' tokens as inventory indices, one name
    after another, and ``lengths`` each name's number of tokens.  Returns
    one row per name, its columns in the inventory's token order; each row
    sums to its name's length.
    """
    n, width = len(lengths), len(inventory)
    cells = np.repeat(np.arange(n) * width, lengths)
    cells += np.asarray(token_ids, dtype=np.int64)
    return np.bincount(cells, minlength=n * width).reshape(n, width)


def name_length(counts: np.ndarray, inventory: TokenInventory) -> np.ndarray:
    """Each count row's transcription length, counting only non-tone tokens."""
    return counts[:, ~np.array(inventory.is_tone)].sum(axis=1)
