import numpy as np
import pytest

from soundskew.corpus import (
    CorpusError,
    NameEntry,
    TokenInventory,
    featurize,
    load_corpus,
    name_length,
)

TOY_INVENTORY = [
    "xx,a,0", "xx,i,0", "xx,k,0", "xx,p,0", "xx,T:4,1",
]


def make_inventory():
    return TokenInventory(language="xx",
                          tokens=("a", "i", "k", "p", "T:4"),
                          is_tone=(False, False, False, False, True))


class TestTokenInventory:
    def test_duplicate_tokens_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            TokenInventory("xx", ("a", "a"), (False, False))

    def test_all_tone_rejected(self):
        with pytest.raises(CorpusError, match="non-tone"):
            TokenInventory("xx", ("T:1", "T:2"), (True, True))

    def test_order_defines_indices(self):
        inv = make_inventory()
        assert inv.index == {"a": 0, "i": 1, "k": 2, "p": 3, "T:4": 4}


class TestLoadCorpus:
    def test_fixture_loads_fully(self, fixture_corpus):
        entries, inventories = fixture_corpus
        assert len(entries) == 900
        assert set(inventories) == {"jpn", "cmn", "kor"}
        # order preserved from file
        assert entries[0].id == "jpn-0000"

    def test_empty_corpus_ok(self, write_corpus):
        corpus, inventory = write_corpus([], TOY_INVENTORY)
        entries, inventories = load_corpus(corpus, inventory)
        assert entries == []
        assert "xx" in inventories

    def test_unknown_token_names_token_and_row(self, write_corpus):
        corpus, inventory = write_corpus(
            ["n1,xx,ka,k a,1,2,3,4", "n2,xx,zz,z z,1,2,3,4"], TOY_INVENTORY)
        with pytest.raises(CorpusError, match=r"row 3.*'z'"):
            load_corpus(corpus, inventory)

    def test_duplicate_id_rejected(self, write_corpus):
        corpus, inventory = write_corpus(
            ["n1,xx,ka,k a,1,2,3,4", "n1,xx,pa,p a,1,2,3,4"], TOY_INVENTORY)
        with pytest.raises(CorpusError, match="duplicate id"):
            load_corpus(corpus, inventory)

    def test_bad_column_count_rejected(self, write_corpus):
        corpus, inventory = write_corpus(["n1,xx,ka,k a,1,2,3"], TOY_INVENTORY)
        with pytest.raises(CorpusError, match="row 2"):
            load_corpus(corpus, inventory)

    def test_non_numeric_attribute_rejected(self, write_corpus):
        corpus, inventory = write_corpus(
            ["n1,xx,ka,k a,abc,2,3,4"], TOY_INVENTORY)
        with pytest.raises(CorpusError, match="not numeric"):
            load_corpus(corpus, inventory)

    @pytest.mark.parametrize("rows, message", [
        (["xx,a,0", "xx,a,0"], "duplicate tokens"),
        (["xx,T:1,1"], "no non-tone token"),
    ], ids=["duplicate", "all-tone"])
    def test_inventory_error_names_file(self, write_corpus, rows, message):
        corpus, inventory = write_corpus([], rows)
        with pytest.raises(CorpusError) as info:
            load_corpus(corpus, inventory)
        assert str(info.value).startswith(f"{inventory}: ")
        assert message in str(info.value)

    def test_empty_attribute_cell_is_missing(self, write_corpus):
        corpus, inventory = write_corpus(["n1,xx,ka,k a,,2,3,4"],
                                         TOY_INVENTORY)
        entries, _ = load_corpus(corpus, inventory)
        assert entries[0].attributes["Attack"] is None
        assert entries[0].attributes["Defend"] == 2

    def test_reload_is_byte_stable(self, fixture_corpus):
        from tests.conftest import CORPUS_CSV, INVENTORY_CSV
        again = load_corpus(CORPUS_CSV, INVENTORY_CSV)
        assert again[0] == fixture_corpus[0]
        assert again[1] == fixture_corpus[1]


class TestFeaturize:
    def test_each_token_once(self):
        inv = TokenInventory("xx", ("p", "i", "k", "a", "tɕ", "u"),
                             (False,) * 6)
        entry = NameEntry("e1", "xx", "pikatɕu",
                          ("p", "i", "k", "a", "tɕ", "u"), {})
        assert featurize(entry, inv).tolist() == [1, 1, 1, 1, 1, 1]

    def test_repeated_tokens(self):
        inv = make_inventory()
        entry = NameEntry("e1", "xx", "aa4", ("a", "a", "T:4"), {})
        assert featurize(entry, inv).tolist() == [2, 0, 0, 0, 1]

    def test_language_mismatch(self):
        entry = NameEntry("e1", "yy", "a", ("a",), {})
        with pytest.raises(CorpusError, match="inventory"):
            featurize(entry, make_inventory())

    def test_counts_sum_to_transcription_length_corpus_wide(
            self, fixture_corpus):
        entries, inventories = fixture_corpus
        for entry in entries:
            counts = featurize(entry, inventories[entry.language])
            assert counts.sum() == len(entry.transcription)
            assert (counts >= 0).all()


class TestNameLength:
    def test_tone_excluded(self):
        entry = NameEntry("e1", "xx", "aa4", ("a", "a", "T:4"), {})
        assert name_length(entry, make_inventory()) == 2

    def test_no_tones_is_identity(self):
        entry = NameEntry("e1", "xx", "kapi", ("k", "a", "p", "i"), {})
        assert name_length(entry, make_inventory()) == 4

    def test_corpus_wide_bound(self, fixture_corpus):
        entries, inventories = fixture_corpus
        for entry in entries:
            inv = inventories[entry.language]
            n = name_length(entry, inv)
            tones = sum(1 for t in entry.transcription
                        if inv.is_tone[inv.index[t]])
            assert n <= len(entry.transcription)
            assert (n == len(entry.transcription)) == (tones == 0)
            # agreement with the non-tone slice of the count vector
            counts = featurize(entry, inv)
            non_tone = [i for i, tone in enumerate(inv.is_tone) if not tone]
            assert n == counts[non_tone].sum()
