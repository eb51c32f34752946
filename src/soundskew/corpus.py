"""Corpus loading, validation, and count-based featurization.

A corpus is a CSV of named samples with numeric attributes; each language has
a token inventory CSV that fixes the feature-vector dimension order.  Tones
are ordinary inventory tokens flagged ``is_tone`` so that tone-excluding name
lengths fall out of the same representation for every language.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

ATTRIBUTE_NAMES = ("Attack", "Defend", "Height", "Weight")

# CSV columns, in order, for the two input files.
CORPUS_COLUMNS = ("id", "language", "name", "transcription",
                  "attack", "defend", "height", "weight")
INVENTORY_COLUMNS = ("language", "token", "is_tone")


class CorpusError(ValueError):
    """Raised for malformed or internally inconsistent corpus files."""


@dataclass(frozen=True)
class TokenInventory:
    """Ordered token set for one language; order defines feature indices."""

    language: str
    tokens: tuple[str, ...]
    is_tone: tuple[bool, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tokens) != len(self.is_tone):
            raise CorpusError("tokens and is_tone flags must align")
        if len(set(self.tokens)) != len(self.tokens):
            dupes = sorted({t for t in self.tokens if self.tokens.count(t) > 1})
            raise CorpusError(
                f"duplicate tokens in inventory for {self.language!r}: {dupes}")
        if not any(not t for t in self.is_tone):
            raise CorpusError(
                f"inventory for {self.language!r} has no non-tone token")
        object.__setattr__(
            self, "index", {t: i for i, t in enumerate(self.tokens)})

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class NameEntry:
    """One named sample: transcription tokens plus numeric attributes."""

    id: str
    language: str
    name: str
    transcription: tuple[str, ...]
    attributes: dict[str, float | None]

    def __post_init__(self):
        if not self.transcription:
            raise CorpusError(f"entry {self.id!r} has an empty transcription")
        for key, value in self.attributes.items():
            if value is None:
                continue
            if not math.isfinite(value) or value < 0:
                raise CorpusError(
                    f"entry {self.id!r}: attribute {key} = {value!r} "
                    "must be finite and non-negative")


def _parse_attribute(cell: str, column: str) -> float | None:
    cell = cell.strip()
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        raise CorpusError(
            f"attribute column {column!r} is not numeric: {cell!r}") from None


def _check_header(header: list[str] | None, expected: tuple[str, ...],
                  path: str) -> None:
    if header is None:
        raise CorpusError(f"{path}: empty file, expected header "
                          f"{','.join(expected)}")
    if [h.strip() for h in header] != list(expected):
        raise CorpusError(
            f"{path}: bad header {header!r}, expected {list(expected)!r}")


def load_inventories(inventory_path) -> dict[str, TokenInventory]:
    """Parse the inventory CSV into one :class:`TokenInventory` per language."""
    per_lang: dict[str, list[tuple[str, bool]]] = {}
    with open(inventory_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), INVENTORY_COLUMNS, str(inventory_path))
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(INVENTORY_COLUMNS):
                raise CorpusError(
                    f"{inventory_path}: row {row_no}: expected "
                    f"{len(INVENTORY_COLUMNS)} columns, got {len(row)}")
            language, token, tone_flag = (c.strip() for c in row)
            if tone_flag not in ("0", "1"):
                raise CorpusError(
                    f"{inventory_path}: row {row_no}: is_tone must be 0 or 1, "
                    f"got {tone_flag!r}")
            per_lang.setdefault(language, []).append((token, tone_flag == "1"))
    inventories = {}
    for language, pairs in per_lang.items():
        try:
            inventories[language] = TokenInventory(
                language=language,
                tokens=tuple(t for t, _ in pairs),
                is_tone=tuple(f for _, f in pairs))
        except CorpusError as exc:
            raise CorpusError(f"{inventory_path}: {exc}") from None
    return inventories


def load_corpus(corpus_path, inventory_path
                ) -> tuple[list[NameEntry], dict[str, TokenInventory]]:
    """Load and validate a corpus file against its token inventories.

    Entry order is preserved from the file.  Every transcription token must
    exist in its language's inventory; duplicate ids, unknown languages, and
    malformed rows are hard errors that name the file and the offending row.
    """
    inventories = load_inventories(inventory_path)
    entries: list[NameEntry] = []
    seen_ids: set[str] = set()
    with open(corpus_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), CORPUS_COLUMNS, str(corpus_path))
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CORPUS_COLUMNS):
                raise CorpusError(
                    f"{corpus_path}: row {row_no}: expected "
                    f"{len(CORPUS_COLUMNS)} columns, got {len(row)}")
            entry_id, language, name, transcription = (
                row[0].strip(), row[1].strip(), row[2], row[3])
            if entry_id in seen_ids:
                raise CorpusError(
                    f"{corpus_path}: row {row_no}: duplicate id {entry_id!r}")
            seen_ids.add(entry_id)
            if language not in inventories:
                raise CorpusError(
                    f"{corpus_path}: row {row_no}: unknown language "
                    f"{language!r}")
            inventory = inventories[language]
            tokens = tuple(transcription.split())
            for token in tokens:
                if token not in inventory.index:
                    raise CorpusError(
                        f"{corpus_path}: row {row_no}: token {token!r} not in "
                        f"the {language!r} inventory")
            try:
                attributes = {
                    attr: _parse_attribute(row[4 + i], attr.lower())
                    for i, attr in enumerate(ATTRIBUTE_NAMES)}
                entries.append(NameEntry(
                    id=entry_id, language=language, name=name,
                    transcription=tokens, attributes=attributes))
            except CorpusError as exc:
                raise CorpusError(
                    f"{corpus_path}: row {row_no}: {exc}") from None
    return entries, inventories


def featurize(entry: NameEntry, inventory: TokenInventory) -> np.ndarray:
    """Count how many times each inventory token occurs in the transcription.

    Returns a dense integer vector aligned to the inventory's token order;
    its sum equals the transcription length.
    """
    if entry.language != inventory.language:
        raise CorpusError(
            f"entry {entry.id!r} is {entry.language!r} but inventory is "
            f"{inventory.language!r}")
    counts = np.zeros(len(inventory), dtype=np.int64)
    for token in entry.transcription:
        counts[inventory.index[token]] += 1
    return counts


def name_length(entry: NameEntry, inventory: TokenInventory) -> int:
    """Transcription length counting only non-tone tokens."""
    if entry.language != inventory.language:
        raise CorpusError(
            f"entry {entry.id!r} is {entry.language!r} but inventory is "
            f"{inventory.language!r}")
    return sum(1 for token in entry.transcription
               if not inventory.is_tone[inventory.index[token]])
