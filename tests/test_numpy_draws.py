"""numpy's ``Generator.choice(replace=False)`` and ``permutation``, replayed
from the raw words of the bit generator.

Every pin depends on these two methods: ``boost.train``'s row subsample
and per-node column draw, ``labeling.balance`` and ``labeling.make_folds``.
NEP 19 keeps bit-generator streams stable across numpy versions, but not
the algorithms of ``Generator`` methods.  If a numpy release changes one,
these tests fail under their own names, beside the pins' hashes.
"""

import math
import random

import numpy as np
import pytest

MASK32 = 0xFFFF_FFFF


class Draws:
    """numpy's draw algorithms, driven only by ``PCG64.random_raw``."""

    def __init__(self, seed):
        self.bits = np.random.PCG64(seed)
        self.has_uint32 = self.uinteger = 0
        self.rejections = 0         # Lemire draws taken again

    def uint32(self):
        # numpy's next_uint32: a word's low half, then its high half
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = int(self.bits.random_raw())
        self.has_uint32, self.uinteger = 1, word >> 32
        return word & MASK32

    @property
    def state(self):
        return dict(self.bits.state, has_uint32=self.has_uint32,
                    uinteger=self.uinteger)

    def lemire(self, bound):
        """Uniform in [0, bound]: Lemire's multiply, rejecting the low
        products that would bias it (Lemire 2019, ACM TOMACS 29(1))."""
        if bound == 0:
            return 0
        span = bound + 1
        m = self.uint32() * span
        if m & MASK32 < span:
            threshold = (1 << 32) % span
            while m & MASK32 < threshold:
                self.rejections += 1
                m = self.uint32() * span
        return m >> 32

    def masked(self, bound):
        """Uniform in [0, bound] for ``bound >= 1``: draws under the
        smallest all-ones mask, until one is not above ``bound``."""
        mask = (1 << bound.bit_length()) - 1
        while (value := self.uint32() & mask) > bound:
            pass
        return value

    def shuffle(self, data, first, draw):
        """Fisher-Yates, from the last position down to ``first``."""
        for i in range(len(data) - 1, first - 1, -1):
            j = draw(i)
            data[i], data[j] = data[j], data[i]
        return data

    def permutation(self, n):
        return self.shuffle(list(range(n)), 1, self.masked)

    def choice(self, n, size):
        """``choice(n, size, replace=False)``."""
        if n > 10_000 and size > n // 50:       # shuffle the tail
            return self.shuffle(list(range(n)), n - size,
                                self.lemire)[n - size:]
        # Floyd's algorithm.  numpy keeps its set as a linear-probe hash
        # table; only membership decides a draw, so a set gives the same.
        seen, out = set(), []
        for j in range(n - size, n):
            value = self.lemire(j)
            value = j if value in seen else value
            seen.add(value)
            out.append(value)
        return self.shuffle(out, 1, self.lemire)


NUMPY = {"choice": lambda rng, n, size: rng.choice(n, size, replace=False),
         "permutation": lambda rng, n: rng.permutation(n)}


def replay(seed, calls):
    """Make ``calls`` on ``default_rng(seed)`` and on the replica; check
    each draw and the generator state it leaves.  Returns the replica's
    count of Lemire rejections."""
    rng, replica = np.random.default_rng(seed), Draws(seed)
    for name, *args in calls:
        assert getattr(replica, name)(*args) \
            == NUMPY[name](rng, *args).tolist(), (seed, name, args)
        assert replica.state == rng.bit_generator.state, (seed, name, args)
    return replica.rejections


def balance(shape):
    """``labeling.balance``: the majority class cut to the minority's size,
    on a generator of its own."""
    majority = shape.randrange(1, 500)
    return [("choice", majority, shape.randint(1, majority))]


def train_rounds(shape):
    """``boost.train`` at its default 0.8 subsamples: each round draws its
    rows, then each node its columns, on one generator."""
    rows, columns = shape.randrange(2, 1500), shape.randrange(1, 60)
    return ([("choice", rows, math.floor(0.8 * rows))]
            + [("choice", columns, math.ceil(0.8 * columns))] * 7) * 3


def make_folds(shape):
    """``labeling.make_folds``: one shuffle per class, on one generator."""
    return [("permutation", shape.randrange(2, 500)) for _ in ("low", "high")]


def tail_shuffle(shape):
    """Rows above 10,000, on each side of the switch to the tail shuffle
    (more than ``n // 50`` of ``n``)."""
    return [("choice", 12_000, 9_600), ("choice", 10_001, 201),
            ("choice", 10_001, 200), ("choice", 10_000, 9_000)]


@pytest.mark.parametrize("calls, seeds", [
    pytest.param(balance, range(300), id="balance"),
    pytest.param(train_rounds, range(100), id="train-rows-and-columns"),
    pytest.param(make_folds, range(300), id="make-folds"),
    pytest.param(tail_shuffle, range(5), id="tail-shuffle"),
])
def test_draws_match_numpy(calls, seeds):
    for seed in seeds:
        replay(seed, calls(random.Random(seed)))


def test_lemire_rejection_is_replayed():
    """Seed 2294's draw of 1,600 of 2,000 rows takes Lemire's rejection
    branch once, at its 1,316th bounded draw.  About 1 seed in 2,400 takes
    it on this call, and none of the other cases here do."""
    assert replay(2294, [("choice", 2000, 1600)]) == 1
