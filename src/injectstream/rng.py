"""Seedable randomness for reproducible experiments.

Two generator flavors share one tiny interface: ``randbelow(m)`` and its
bulk form ``randbelow_many(highs)``, which returns exactly the draws of
``[randbelow(m) for m in highs]``:

* :class:`PhiloxRNG` wraps numpy's counter-based Philox bit generator.  The
  same (seed, draw sequence) replays bit-exactly across runs and platforms,
  which is what the experiment harness needs.
* :class:`MixedRadixRNG` decodes its seed in a mixed-radix (factorial) number
  system.  Driving Fisher-Yates with it makes seeds 0 .. n!-1 enumerate all
  n! permutations exactly once, so exhaustive-permutation tests can address
  a permutation by seed.
"""

from __future__ import annotations

from typing import Protocol, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: fewer bounds than this draw one by one: one numpy call over an array of
#: bounds costs about as much as three scalar draws
_BULK_MIN = 4

_LOW_WORD = 2**64 - 1
#: Philox's zero counter and empty buffer; setting the state copies them
_ZEROS = np.zeros(4, dtype=np.uint64)


class CounterRNG(Protocol):
    def randbelow(self, m: int) -> int:
        """Return an integer in [0, m)."""
        ...

    def randbelow_many(self, highs: Sequence[int]) -> list[int]:
        """``[randbelow(m) for m in highs]``, in one call."""
        ...


class PhiloxRNG:
    """Counter-based production RNG (numpy Philox under the hood)."""

    def __init__(self, seed: int) -> None:
        self._bits = np.random.Philox(key=seed)
        self._gen = np.random.Generator(self._bits)

    def reseed(self, seed: int) -> None:
        """Restart as ``PhiloxRNG(seed)`` would start, without building a new one.

        Sets the bit generator's state to (key = seed as two uint64 words,
        low word first; counter 0; empty buffer; no cached uint32), which is
        the state ``Philox(key=seed)`` starts in.  NumPy does not promise
        this state layout; tests/test_rng.py pins it.
        """
        if not 0 <= seed < 2**128:
            raise ValueError("key must be positive and less than 2**128.")
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS,
                      "key": np.array([seed & _LOW_WORD, seed >> 64], dtype=np.uint64)},
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def randbelow(self, m: int) -> int:
        if m <= 0:
            raise ValueError("randbelow needs m >= 1")
        return int(self._gen.integers(0, m))

    def randbelow_many(self, highs: Sequence[int]) -> list[int]:
        """One ``Generator.integers`` call over an array of bounds.

        Its draws equal the scalar calls' in order, because numpy draws each
        element of an array of bounds as it draws a scalar bound;
        tests/test_rng.py guards that equality.
        """
        if len(highs) < _BULK_MIN:
            return [self.randbelow(m) for m in highs]
        bounds = np.asarray(highs, dtype=np.int64)
        if bounds.min() <= 0:
            raise ValueError("randbelow needs m >= 1")
        return self._gen.integers(0, bounds).tolist()


class MixedRadixRNG:
    """Deterministic test RNG: draw i returns seed's i-th mixed-radix digit.

    ``randbelow(m)`` returns ``seed % m`` and divides the remaining seed by
    ``m``.  For the Fisher-Yates draw sequence (radices n, n-1, ..., 2) this
    is the factorial number system, a bijection between seeds 0 .. n!-1 and
    permutations.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._state = seed

    def randbelow(self, m: int) -> int:
        if m <= 0:
            raise ValueError("randbelow needs m >= 1")
        digit = self._state % m
        self._state //= m
        return digit

    def randbelow_many(self, highs: Sequence[int]) -> list[int]:
        return [self.randbelow(m) for m in highs]


def fisher_yates(items: Sequence[T], rng: CounterRNG) -> list[T]:
    """Uniform shuffle (given a uniform ``randbelow``), deterministic in rng state.

    Standard backward Fisher-Yates: position i swaps with a uniform
    j in [0, i], for i = n-1 down to 1.  Each of the n! outcomes arises from
    exactly one draw sequence, so uniform draws give a uniform permutation.
    """
    out = list(items)
    n = len(out)
    draws = rng.randbelow_many(range(n, 1, -1))
    for i, j in zip(range(n - 1, 0, -1), draws):
        out[i], out[j] = out[j], out[i]
    return out
