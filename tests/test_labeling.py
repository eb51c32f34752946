import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soundskew.labeling import (
    HIGH,
    LOW,
    OMITTED,
    BinaryLabeledSet,
    LabelingError,
    balance,
    label_group,
    make_folds,
    median_split,
    subseed,
)
from tests.conftest import sorted_median_labels


def make_set(n_low, n_high):
    """Rows 0..n_low-1 are low, the next n_high rows are high."""
    samples = [(i, LOW) for i in range(n_low)]
    samples += [(n_low + i, HIGH) for i in range(n_high)]
    return BinaryLabeledSet(tuple(samples))


def high_of(labeled):
    """A labeled set's classes as the bool array ``make_folds`` takes."""
    return np.array([lab == HIGH for _, lab in labeled.samples], dtype=bool)


def oracle_make_folds(labeled, k, seed):
    """The earlier make_folds, on (row, label) tuples and keyed by row, kept
    as a reference, with the same error for a class smaller than ``k``."""
    rng = np.random.default_rng(seed)
    assignment = {}
    for label in (LOW, HIGH):
        ids = [sid for sid, lab in labeled.samples if lab == label]
        if len(ids) < k:
            raise LabelingError(f"make_folds: class {label!r} has "
                                f"{len(ids)} samples, need at least k={k}")
        order = rng.permutation(len(ids))
        for pos, idx in enumerate(order):
            assignment[ids[idx]] = pos % k
    return assignment


def oracle_label_group(values, language, variable, k, seed):
    """The runner's chain before ``label_group``, on (row, label) tuples."""
    present = dict(filter(lambda rv: not math.isnan(rv[1]),
                          zip(range(len(values)), values.tolist())))
    split = median_split(list(present.items()))
    labeled = balance(
        BinaryLabeledSet(tuple((i, lab) for i, lab in split.items()
                               if lab != OMITTED)),
        subseed(seed, language, variable, "balance"))
    folds = oracle_make_folds(labeled, k,
                              subseed(seed, language, variable, "folds"))
    return ([i for i, _ in labeled.samples],
            [lab == HIGH for _, lab in labeled.samples],
            [folds[i] for i, _ in labeled.samples])


def outcome(chain, *args):
    """A chain's result, or its ``LabelingError`` text."""
    try:
        return chain(*args)
    except LabelingError as exc:
        return str(exc)


class TestMedianSplit:
    def test_odd_count(self):
        values = [(str(v), float(v)) for v in [1, 2, 3, 4, 5]]
        split = median_split(values)
        assert split == {"1": LOW, "2": LOW, "3": OMITTED,
                         "4": HIGH, "5": HIGH}

    def test_even_count_midpoint(self):
        values = [(str(v), float(v)) for v in [1, 2, 3, 4]]
        split = median_split(values)
        assert split == {"1": LOW, "2": LOW, "3": HIGH, "4": HIGH}

    def test_even_count_midpoint_near_float_max(self):
        values = list(enumerate([1.0e308, 1.1e308, 1.6e308, 1.7e308]))
        assert median_split(values) == {0: LOW, 1: LOW, 2: HIGH, 3: HIGH}

    def test_empty_input(self):
        with pytest.raises(LabelingError):
            median_split([])

    def test_matches_sort_oracle_on_random_multisets(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            vals = rng.integers(0, 10, size=n)
            values = [(str(i), float(v)) for i, v in enumerate(vals)]
            assert median_split(values) == sorted_median_labels(values)


class TestBalance:
    def test_majority_downsampled_minority_untouched(self):
        labeled = make_set(8, 10)
        balanced = balance(labeled, seed=1)
        lows = [s for s in balanced.samples if s[1] == LOW]
        highs = [s for s in balanced.samples if s[1] == HIGH]
        assert len(lows) == len(highs) == 8
        assert [s[0] for s in lows] == [s[0] for s in labeled.samples
                                        if s[1] == LOW]

    def test_already_balanced_unchanged(self):
        labeled = make_set(5, 5)
        assert balance(labeled, seed=3).samples == labeled.samples

    def test_order_preserved(self):
        labeled = make_set(4, 9)
        balanced = balance(labeled, seed=9)
        ids = [s[0] for s in balanced.samples]
        original = [s[0] for s in labeled.samples]
        assert ids == [i for i in original if i in set(ids)]

    def test_empty_class_rejected(self):
        samples = tuple((i, HIGH) for i in range(4))
        labeled = BinaryLabeledSet(samples)
        with pytest.raises(LabelingError):
            balance(labeled, seed=0)

    def test_same_seed_same_result_different_seed_differs(self):
        labeled = make_set(50, 100)
        a = balance(labeled, seed=7)
        b = balance(labeled, seed=7)
        assert [s[0] for s in a.samples] == [s[0] for s in b.samples]
        # different seeds must disagree with overwhelming probability
        c = balance(labeled, seed=8)
        assert [s[0] for s in a.samples] != [s[0] for s in c.samples]


class TestMakeFolds:
    def test_stratified_sizes(self):
        labeled = make_set(6, 6)
        folds = make_folds(high_of(labeled), k=3, seed=0)
        labels = np.array([lab for _, lab in labeled.samples])
        for fold in range(3):
            assert np.sum(folds == fold) == 4
            assert np.sum((folds == fold) & (labels == HIGH)) == 2

    def test_partition_property(self):
        labeled = make_set(10, 10)
        folds = make_folds(high_of(labeled), k=3, seed=5)
        all_ids = {s[0] for s in labeled.samples}
        union = set()
        for fold in range(3):
            ids = {sid for (sid, _), f in zip(labeled.samples, folds)
                   if f == fold}
            assert not (union & ids)
            union |= ids
        assert union == all_ids

    def test_fold_sizes_within_one_per_class(self):
        labeled = make_set(10, 10)
        folds = make_folds(high_of(labeled), k=3, seed=5)
        labels = np.array([lab for _, lab in labeled.samples])
        for label in (LOW, HIGH):
            sizes = [np.sum((folds == f) & (labels == label))
                     for f in range(3)]
            assert max(sizes) - min(sizes) <= 1

    def test_same_seed_identical(self):
        labeled = make_set(9, 9)
        assert np.array_equal(make_folds(high_of(labeled), 3, 11),
                              make_folds(high_of(labeled), 3, 11))

    def test_k_too_large_rejected(self):
        labeled = make_set(2, 5)
        with pytest.raises(LabelingError):
            make_folds(high_of(labeled), k=3, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(LabelingError):
            make_folds(high_of(make_set(5, 5)), k=1, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(2, 6), extra=st.tuples(st.integers(0, 20),
                                                 st.integers(0, 20)),
           order_seed=st.integers(0, 2 ** 32 - 1),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_matches_id_dict_oracle(self, k, extra, order_seed, seed):
        # Classes interleaved in a random order, keyed by arbitrary rows.
        labels = [LOW] * (k + extra[0]) + [HIGH] * (k + extra[1])
        rng = np.random.default_rng(order_seed)
        rng.shuffle(labels)
        rows = rng.permutation(10 * len(labels))[:len(labels)]
        labeled = BinaryLabeledSet(tuple(zip(rows.tolist(), labels)))
        folds = make_folds(high_of(labeled), k, seed)
        oracle = oracle_make_folds(labeled, k, seed)
        assert [int(f) for f in folds] \
            == [oracle[row] for row, _ in labeled.samples]


class TestLabelGroup:
    # A drawn length keeps long columns common, so that most draws get
    # through every stage; the cells are blanks and ties of ten values.
    @settings(max_examples=300, deadline=None)
    @given(values=st.integers(0, 80).flatmap(lambda n: st.lists(
               st.sampled_from([math.nan] + [float(v) for v in range(10)]),
               min_size=n, max_size=n)),
           k=st.integers(2, 6),
           language=st.sampled_from(["jpn", "kor"]),
           variable=st.sampled_from(["Attack", "Size"]),
           seed=st.integers())
    def test_matches_tuple_oracle(self, values, k, language, variable, seed):
        column = np.array(values, dtype=float)
        expected = outcome(oracle_label_group, column, language, variable,
                           k, seed)
        got = outcome(label_group, column, language, variable, k, seed)
        if isinstance(expected, str):
            assert got == expected
            return
        rows, high, folds = got
        assert rows.dtype.kind == "i" and high.dtype == bool
        assert (rows.tolist(), high.tolist(), folds.tolist()) == expected
        assert np.all(np.diff(rows) > 0)

    @pytest.mark.parametrize("values, message", [
        ([math.nan] * 6, "median_split: empty input"),
        ([2.0, math.nan, 2.0, 2.0], "balance: class with zero samples"),
        ([1.0, math.nan, 2.0, 8.0, 9.0],
         "make_folds: class 'low' has 2 samples, need at least k=3"),
    ], ids=["all-nan", "all-tied", "class-below-k"])
    def test_degenerate_column_fails_as_the_oracle(self, values, message):
        column = np.array(values)
        assert outcome(label_group, column, "jpn", "Attack", 3, 0) \
            == outcome(oracle_label_group, column, "jpn", "Attack", 3, 0) \
            == message


class TestSubseed:
    def test_stable(self):
        assert subseed(1, "jpn", "Attack") == subseed(1, "jpn", "Attack")

    def test_distinct_across_parts_and_master(self):
        seeds = {subseed(1, "jpn", "Attack"), subseed(1, "jpn", "Defend"),
                 subseed(1, "kor", "Attack"), subseed(2, "jpn", "Attack")}
        assert len(seeds) == 4

    def test_64_bit_range(self):
        s = subseed(123, "a", "b")
        assert 0 <= s < 2 ** 64
