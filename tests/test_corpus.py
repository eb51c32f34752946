import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from soundskew import corpus as corpus_mod
from soundskew.corpus import (
    ATTRIBUTE_NAMES,
    CHUNK_ROWS,
    CORPUS_COLUMNS,
    INVENTORY_COLUMNS,
    CorpusError,
    TokenInventory,
    featurize,
    load_corpus,
    load_inventories,
    name_length,
)
from tests.conftest import (
    CORPUS_CSV,
    INVENTORY_CSV,
    csv_rows,
    oracle_counts,
    oracle_load_corpus,
)

TOY_INVENTORY = [
    "xx,a,0", "xx,i,0", "xx,k,0", "xx,p,0", "xx,T:4,1",
]

# Two interleaved languages with repeated tokens and tone tokens, and a
# third inventory language with no rows.
TOY_CORPUS = [
    "n1,xx,kaka,k a k a T:4,1,2,3,4",
    "n2,yy,ta,t a T:1 T:1,5,,7,8",
    "n3,xx,pi,p i,9,10,,12",
    "n4,yy,tat,t a t,13,14,15,",
    "n5,xx,aaa,a T:4 a a T:4,17,18,19,20",
]
TOY_INVENTORIES = TOY_INVENTORY + [
    "yy,t,0", "yy,a,0", "yy,T:1,1", "zz,o,0"]


def make_inventory():
    return TokenInventory(tokens=("a", "i", "k", "p", "T:4"),
                          is_tone=(False, False, False, False, True))


def featurize_names(names, inventory) -> np.ndarray:
    """``featurize`` of token-string names: their inventory indices, one
    name after another, and each name's token count."""
    return featurize([inventory.index[t] for name in names for t in name],
                     [len(name) for name in names], inventory)


def transcriptions_by_language(corpus_path) -> dict[str, list[list[str]]]:
    """Each language's transcriptions, in file order, read with csv."""
    out: dict[str, list[list[str]]] = {}
    for row in csv_rows(corpus_path):
        out.setdefault(row[1], []).append(row[3].split())
    return out


@pytest.fixture(params=["fixture", "toy"])
def loaded(request, write_corpus):
    """(corpus, inventories, transcriptions by language) of one input."""
    if request.param == "fixture":
        paths = CORPUS_CSV, INVENTORY_CSV
    else:
        paths = write_corpus(TOY_CORPUS, TOY_INVENTORIES)
    corpus, inventories = load_corpus(*paths)
    return corpus, inventories, transcriptions_by_language(paths[0])


class TestTokenInventory:
    def test_order_defines_indices(self):
        inv = make_inventory()
        assert inv.index == {"a": 0, "i": 1, "k": 2, "p": 3, "T:4": 4}


class TestMatrices:
    def test_counts_match_oracle(self, loaded):
        corpus, inventories, transcriptions = loaded
        assert set(corpus.counts) == set(inventories)
        for language, inventory in inventories.items():
            expected = oracle_counts(transcriptions.get(language, []),
                                     inventory)
            assert corpus.counts[language].dtype == np.int16
            assert corpus.counts[language].shape == expected.shape
            assert (corpus.counts[language] == expected).all()

    def test_rows_sum_to_transcription_length(self, loaded):
        corpus, _, transcriptions = loaded
        for language, rows in transcriptions.items():
            assert corpus.counts[language].sum(axis=1).tolist() \
                == [len(tokens) for tokens in rows]

    def test_length_is_the_non_tone_slice(self, loaded):
        corpus, inventories, _ = loaded
        for language, inventory in inventories.items():
            non_tone = [i for i, tone in enumerate(inventory.is_tone)
                        if not tone]
            in_language = corpus.language == language
            assert corpus.length[in_language].tolist() \
                == corpus.counts[language][:, non_tone].sum(axis=1).tolist()

    def test_toy_columns_in_file_order(self, write_corpus):
        corpus, _ = load_corpus(*write_corpus(TOY_CORPUS, TOY_INVENTORIES))
        assert len(corpus) == 5
        assert corpus.ids.tolist() == ["n1", "n2", "n3", "n4", "n5"]
        assert corpus.language.tolist() == ["xx", "yy", "xx", "yy", "xx"]
        assert corpus.length.tolist() == [4, 2, 2, 3, 3]
        assert corpus.counts["xx"].tolist() == [
            [2, 0, 2, 0, 1], [0, 1, 0, 1, 0], [3, 0, 0, 0, 2]]
        assert corpus.counts["yy"].tolist() == [[1, 1, 2], [2, 1, 0]]
        assert corpus.counts["zz"].shape == (0, 1)
        assert corpus.attributes.shape == (5, len(ATTRIBUTE_NAMES))
        assert np.isnan(corpus.attributes).sum(axis=0).tolist() \
            == [0, 1, 1, 1]


class TestLoadCorpus:
    def test_fixture_loads_fully(self, fixture_corpus):
        corpus, inventories = fixture_corpus
        assert len(corpus) == 900
        assert set(inventories) == {"jpn", "cmn", "kor"}
        assert {lang: len(m) for lang, m in corpus.counts.items()} \
            == {"jpn": 300, "cmn": 300, "kor": 300}
        # order preserved from file
        assert corpus.ids[0] == "jpn-0000"

    def test_empty_corpus_ok(self, write_corpus):
        corpus, inventory = write_corpus([], TOY_INVENTORY)
        loaded, inventories = load_corpus(corpus, inventory)
        assert len(loaded) == 0
        assert "xx" in inventories
        assert loaded.counts["xx"].shape == (0, 5)
        assert loaded.attributes.shape == (0, len(ATTRIBUTE_NAMES))
        assert loaded.length.shape == loaded.language.shape == (0,)

    @pytest.mark.parametrize("rows, message", [
        (["xx,a,0", "xx,b,0", "xx,a,0"],
         "row 4: duplicate token 'a' in the 'xx' inventory"),
        (["xx,T:1,1"], "inventory for 'xx' has no non-tone token"),
        (["xx,a,0", "xx,b"], "row 3: expected 3 columns, got 2"),
        (["xx,a,0", "", "xx,b"], "row 4: expected 3 columns, got 2"),
        (["xx,a,0", "xx,b,yes"], "row 3: is_tone must be 0 or 1, got 'yes'"),
        (["xx,a,0", "xx,b,0", "xx,a b,0"],
         "row 4: token 'a b' is not one whitespace-free word"),
        (["xx,a,0", "xx,b,0", "xx,,0"],
         "row 4: token '' is not one whitespace-free word"),
        (["xx,a,0", " ,b,0"], "row 3: empty language"),
        (["xx,a,0", '"x\tx",b,0'],
         "row 3: language 'x\\tx' is not one whitespace-free word"),
    ], ids=["duplicate", "all-tone", "columns", "columns-after-blank-line",
            "is-tone", "spaced-token", "empty-token", "empty-language",
            "spaced-language"])
    def test_inventory_error_names_file(self, write_corpus, rows, message):
        corpus, inventory = write_corpus([], rows)
        with pytest.raises(CorpusError) as info:
            load_corpus(corpus, inventory)
        assert str(info.value) == f"{inventory}: {message}"

    @pytest.mark.parametrize("which, columns", [
        (0, CORPUS_COLUMNS), (1, INVENTORY_COLUMNS)],
        ids=["corpus", "inventory"])
    def test_empty_file_names_its_header(self, write_corpus, which, columns):
        paths = write_corpus([], TOY_INVENTORY)
        open(paths[which], "w").close()
        with pytest.raises(CorpusError) as info:
            load_corpus(*paths)
        assert str(info.value) == (f"{paths[which]}: empty file, expected "
                                   f"header {','.join(columns)}")

    def test_blank_inventory_line_is_skipped(self, write_corpus):
        _, inventory = write_corpus([], ["xx,a,0", "", "xx,T:4,1"])
        assert load_inventories(inventory) == {"xx": TokenInventory(
            tokens=("a", "T:4"), is_tone=(False, True))}

    def test_empty_attribute_cell_is_missing(self, write_corpus):
        corpus, inventory = write_corpus(["n1,xx,ka,k a,,2,3,4"],
                                         TOY_INVENTORY)
        loaded, _ = load_corpus(corpus, inventory)
        assert np.isnan(loaded.attributes[0, 0])
        assert loaded.attributes[0, 1:].tolist() == [2, 3, 4]

    def test_reload_is_byte_stable(self, fixture_corpus):
        again, inventories = load_corpus(CORPUS_CSV, INVENTORY_CSV)
        first = fixture_corpus[0]
        for column in ("ids", "language", "attributes", "length"):
            a, b = getattr(again, column), getattr(first, column)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert again.counts.keys() == first.counts.keys()
        for language, matrix in again.counts.items():
            assert matrix.tobytes() == first.counts[language].tobytes()
        assert inventories == fixture_corpus[1]


# "zzzz" never has a row; "yyy" is wider than "xx", so the language
# column's dtype depends on whether any "yyy" row loads.
ORACLE_INVENTORY = {"xx": ("a", "k", "T:4"), "yyy": ("t", "a", "T:1"),
                    "zzzz": ("o",)}


@st.composite
def corpus_files(draw):
    """(corpus rows, inventory rows) of a random corpus, malformed or not.

    Every corpus may have blank lines, padded cells (control-character
    padding too), blank attributes and an inventory language with no rows.
    Most corpora add one kind of fault (duplicate or blank ids, unknown
    languages, unknown tokens, empty transcriptions, bad attribute cells or
    wrong column counts), some all of them and some none.
    """
    kinds = ("id", "language", "token", "empty", "attribute", "columns")
    faults = draw(st.sampled_from(
        [(), ()] + [(kind,) for kind in kinds] + [kinds]))

    def pick(good, bad, fault):
        return draw(st.sampled_from(good + bad if fault in faults else good))

    inventory = [[language, token, int(token.startswith("T:"))]
                 for language, tokens in ORACLE_INVENTORY.items()
                 for token in tokens]
    rows = []
    for i in range(draw(st.integers(0, 12))):
        kind = pick(["row", "row", "blank"], ["short", "long"], "columns")
        if kind == "blank":
            rows.append([])
            continue
        language = pick(["xx", " xx", "yyy", "yyy "], ["q", "", "zz"],
                        "language")
        tokens = ORACLE_INVENTORY.get(language.strip(), ("a",))
        if "token" in faults:
            tokens += ("zz", "o")
        transcription = draw(st.lists(
            st.sampled_from(tokens), max_size=5,
            min_size=0 if "empty" in faults else 1))
        j = draw(st.integers(0, i)) if "id" in faults else i
        cells = [pick([f"n{j}", f" n{j} "], ["", " "], "id"), language,
                 "nm", draw(st.sampled_from(["", " "]))
                 + draw(st.sampled_from([" ", "  "])).join(transcription)]
        cells += [pick(["1", "2.5", " 3 ", "", " ", "0", "-0", "+4", "1_000",
                        "1e3", "\u0663", "2\x1c", "\x1f3"],
                       ["nan", "inf", "-1", "abc", "0x10", "1 2", "1e"],
                       "attribute") for _ in ATTRIBUTE_NAMES]
        rows.append({"row": cells, "short": cells[:-1],
                     "long": cells + ["x"]}[kind])
    return rows, inventory


def loaded_columns(load, paths):
    """A loader's result as (name, dtype, shape, bytes) of every column and
    matrix plus the inventories, or its ``CorpusError`` text."""
    try:
        corpus, inventories = load(*paths)
    except CorpusError as exc:
        return str(exc)
    arrays = [(name, getattr(corpus, name)) for name in
              ("ids", "language", "attributes", "length")]
    arrays += list(corpus.counts.items())
    return [(name, a.dtype.str, a.shape, a.tobytes())
            for name, a in arrays], inventories


class TestLoaderOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(files=corpus_files())
    # CSV errors: Python 3.10 refuses a NUL, and every version a field over
    # the size limit
    @example(files=(["n1,xx,nm,k\x00a,1,2,3,4"], TOY_INVENTORY))
    @example(files=([f"n1,xx,{'n' * 140_000},k a,1,2,3,4"], TOY_INVENTORY))
    def test_matches_per_row_loader(self, write_corpus, files):
        paths = write_corpus(*files)
        assert loaded_columns(load_corpus, paths) \
            == loaded_columns(oracle_load_corpus, paths)

    def test_fixture_matches_per_row_loader(self):
        paths = CORPUS_CSV, INVENTORY_CSV
        assert loaded_columns(load_corpus, paths) \
            == loaded_columns(oracle_load_corpus, paths)


BOUNDARIES = (CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS)


@st.composite
def chunked_corpus_files(draw):
    """(corpus rows, inventory rows) of a corpus over two chunks long.

    A drawn block of good rows repeats with renamed ids; its attribute
    cells may be padded, with control characters too.  Rows at the chunk
    boundaries may be blank lines or have blank attribute cells.  Most
    corpora then get one fault, in the first or last row of a chunk or
    anywhere after the first chunk; a duplicate id repeats an earlier row's,
    most often one of an earlier chunk.
    """
    inventory = [[language, token, int(token.startswith("T:"))]
                 for language, tokens in ORACLE_INVENTORY.items()
                 for token in tokens]
    block = []
    for _ in range(draw(st.integers(1, 12))):
        language = draw(st.sampled_from(["xx", " xx", "yyy", "yyy "]))
        transcription = draw(st.lists(
            st.sampled_from(ORACLE_INVENTORY[language.strip()]),
            min_size=1, max_size=5))
        block.append([language, "nm", " ".join(transcription)] + [
            draw(st.sampled_from(["1", "2.5", " 3 ", "0", "-0", "1e3",
                                  "2\x1c", "\x1f3"]))
            for _ in ATTRIBUTE_NAMES])
    size = draw(st.integers(2 * CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 2))
    rows = [[f"r{i}", *block[i % len(block)]] for i in range(size)]
    for i in draw(st.sets(st.sampled_from(BOUNDARIES))):
        rows[i] = draw(st.sampled_from([
            [], rows[i][:4] + [draw(st.sampled_from(["", " "]))
                               for _ in ATTRIBUTE_NAMES]]))
    fault = draw(st.sampled_from(
        [None, "id", "id", "language", "token", "empty", "nan", "negative",
         "text", "short", "long"]))
    at = draw(st.sampled_from(BOUNDARIES) | st.integers(CHUNK_ROWS, size - 1))
    row = rows[at] = [f"r{at}", *block[at % len(block)]]
    if fault == "id":
        # the first row, the last row before this row's chunk, or any row
        start = at // CHUNK_ROWS * CHUNK_ROWS or at
        source = draw(st.sampled_from([0, start - 1])
                      | st.integers(0, at - 1))
        row[0] = draw(st.sampled_from([f"r{source}", f" r{source} "]))
    elif fault == "language":
        row[1] = "zz"
    elif fault == "token":
        row[3] += " o"
    elif fault == "empty":
        row[3] = " "
    elif fault in ("nan", "negative", "text"):
        row[4 + draw(st.integers(0, len(ATTRIBUTE_NAMES) - 1))] = {
            "nan": "nan", "negative": "-1", "text": "abc"}[fault]
    elif fault in ("short", "long"):
        rows[at] = row[:-1] if fault == "short" else row + ["x"]
    return rows, inventory


class TestLoaderChunks:
    """The loader checks whole chunks of rows; the rows of a failing chunk
    are checked one at a time, which must name the same row as the per-row
    loader."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(files=chunked_corpus_files())
    def test_matches_per_row_loader(self, write_corpus, files):
        paths = write_corpus(*files)
        assert loaded_columns(load_corpus, paths) \
            == loaded_columns(oracle_load_corpus, paths)

    @pytest.mark.parametrize("source, at", [
        (0, 1), (0, 2 * CHUNK_ROWS), (CHUNK_ROWS - 1, CHUNK_ROWS),
        (CHUNK_ROWS, 2 * CHUNK_ROWS + 1)])
    def test_duplicate_of_an_earlier_chunk(self, write_corpus, source, at):
        """An id that repeats one in an earlier chunk, or in its own."""
        ids = [f"n{source}" if i == at else f"n{i}"
               for i in range(3 * CHUNK_ROWS)]
        paths = write_corpus([f"{i},xx,nm,k a,1,2,3,4" for i in ids],
                             TOY_INVENTORY)
        with pytest.raises(CorpusError) as info:
            load_corpus(*paths)
        assert str(info.value) == (
            f"{paths[0]}: row {at + 2}: duplicate id 'n{source}'")

    @pytest.mark.parametrize("row_no", [2, CHUNK_ROWS + 3])
    @pytest.mark.parametrize("row, message", [
        ("{id},xx,nm,k a,1,1,nan,abc",
         "entry '{id}': attribute Height = nan must be finite and "
         "non-negative"),
        ("{id},xx,nm,k a,abc,-1,1,1",
         "attribute column 'attack' is not numeric: 'abc'"),
        ("{id},zz,nm, ,1,2,3,4", "unknown language 'zz'"),
        ("{id},xx,nm,k q,abc,2,3,4", "token 'q' not in the 'xx' inventory"),
        ("{id},xx,nm, ,abc,2,3,4", "entry '{id}' has an empty transcription"),
        ("n0,xx,nm,k a,1,2,3", "expected 8 columns, got 7"),
        (" ,zz,nm,k a,1,2,3,4", "empty id"),
    ], ids=["nan-then-text", "text-then-negative", "language-then-empty",
            "token-then-text", "empty-then-text", "columns-then-id",
            "empty-id-then-language"])
    def test_first_check_a_row_fails_names_it(self, write_corpus, row_no,
                                             row, message):
        """A row that breaks several rules is named by the first of its
        checks, in column order, in the first chunk and in a later one."""
        rows = [f"n{i},xx,nm,k a,1,2,3,4" for i in range(3 * CHUNK_ROWS)]
        entry = f"n{row_no - 2}"
        rows[row_no - 2] = row.format(id=entry)
        paths = write_corpus(rows, TOY_INVENTORY)
        with pytest.raises(CorpusError) as info:
            load_corpus(*paths)
        assert str(info.value) \
            == f"{paths[0]}: row {row_no}: {message.format(id=entry)}"

    def test_blank_cells_stay_on_the_chunk_path(self, write_corpus,
                                                monkeypatch):
        # "1\x1c" is 1 once stripped, as the row check strips it.
        rows = [f"n{i},xx,nm,k a,, ,1\x1c,"
                for i in range(2 * CHUNK_ROWS + 1)]
        sizes = []
        append_chunk = corpus_mod._append_chunk

        def sized(chunk, *args):
            sizes.append(len(chunk))
            return append_chunk(chunk, *args)
        monkeypatch.setattr(corpus_mod, "_append_chunk", sized)
        corpus, _ = load_corpus(*write_corpus(rows, TOY_INVENTORY))
        # One call per chunk, the last of one row, and no row-by-row check.
        assert sizes == [CHUNK_ROWS, CHUNK_ROWS, 1]
        assert np.isnan(corpus.attributes).sum(axis=0).tolist() \
            == [len(rows), len(rows), 0, len(rows)]
        assert corpus.attributes[:, 2].tolist() == [1.0] * len(rows)

    def test_declined_chunks_load_one_row_at_a_time(self, monkeypatch):
        """The rows of a declined chunk are appended one at a time, and a
        load whose every chunk is declined gives the same columns."""
        paths = CORPUS_CSV, INVENTORY_CSV
        expected = loaded_columns(load_corpus, paths)
        sizes = []
        append_chunk = corpus_mod._append_chunk

        def decline_chunks(chunk, *args):
            sizes.append(len(chunk))
            return "declined" if len(chunk) > 1 \
                else append_chunk(chunk, *args)
        monkeypatch.setattr(corpus_mod, "_append_chunk", decline_chunks)
        assert loaded_columns(load_corpus, paths) == expected
        # 900 rows: seven chunks of 128 and one of 4, each row then alone.
        assert sizes == [size for chunk in [CHUNK_ROWS] * 7 + [4]
                         for size in [chunk] + [1] * chunk]


class TestLoaderMemory:
    def test_peak_per_row(self, write_corpus):
        """The loader keeps no Python object per row but its id.

        Four renamed copies of the fixture, 3,600 rows in 12 languages.  A
        loader that holds each row's tokens, language and attributes as
        Python objects peaks at about 850 B per row; the streaming loader
        at about 310 B.
        """
        copies = 4
        rows, inventory = csv_rows(CORPUS_CSV), csv_rows(INVENTORY_CSV)
        paths = write_corpus(
            [[f"{r[0]}-{c}", f"{r[1]}{c}", *r[2:]]
             for c in range(copies) for r in rows],
            [[f"{r[0]}{c}", *r[1:]] for c in range(copies) for r in inventory])
        tracemalloc.start()
        try:
            corpus, _ = load_corpus(*paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus) == copies * len(rows) >= 3000
        assert peak / len(corpus) < 450


class TestFeaturize:
    def test_each_token_once(self):
        inv = TokenInventory(("p", "i", "k", "a", "tɕ", "u"), (False,) * 6)
        counts = featurize_names([["p", "i", "k", "a", "tɕ", "u"]], inv)
        assert counts.tolist() == [[1, 1, 1, 1, 1, 1]]

    def test_indices_name_after_name(self):
        counts = featurize([0, 0, 4, 2, 3], [3, 0, 2], make_inventory())
        assert counts.dtype == np.int64
        assert counts.tolist() == [
            [2, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 1, 1, 0]]

    def test_repeated_tokens(self):
        counts = featurize_names([["a", "a", "T:4"]], make_inventory())
        assert counts.tolist() == [[2, 0, 0, 0, 1]]

    def test_counts_sum_to_transcription_length_corpus_wide(
            self, fixture_corpus):
        corpus, _ = fixture_corpus
        for language, rows in transcriptions_by_language(CORPUS_CSV).items():
            counts = corpus.counts[language]
            assert counts.sum(axis=1).tolist() == [len(t) for t in rows]
            assert (counts >= 0).all()


class TestNameLength:
    def test_tone_excluded(self):
        inv = make_inventory()
        counts = featurize_names([["a", "a", "T:4"]], inv)
        assert name_length(counts, inv).tolist() == [2]

    def test_no_tones_is_identity(self):
        inv = make_inventory()
        counts = featurize_names([["k", "a", "p", "i"]], inv)
        assert name_length(counts, inv).tolist() == [4]

    def test_corpus_wide_bound(self, fixture_corpus):
        corpus, inventories = fixture_corpus
        for language, rows in transcriptions_by_language(CORPUS_CSV).items():
            inv = inventories[language]
            lengths = corpus.length[corpus.language == language]
            assert lengths.tolist() \
                == name_length(corpus.counts[language], inv).tolist()
            for n, tokens in zip(lengths, rows):
                tones = sum(1 for t in tokens if inv.is_tone[inv.index[t]])
                assert n <= len(tokens)
                assert (n == len(tokens)) == (tones == 0)
