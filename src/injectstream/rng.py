"""Seedable randomness for reproducible experiments.

Two generator flavors share one tiny interface, ``randbelow(m)``:

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


class CounterRNG(Protocol):
    def randbelow(self, m: int) -> int:
        """Return an integer in [0, m)."""
        ...


class PhiloxRNG:
    """Counter-based production RNG (numpy Philox under the hood)."""

    def __init__(self, seed: int) -> None:
        self._gen = np.random.Generator(np.random.Philox(key=seed))

    def randbelow(self, m: int) -> int:
        if m <= 0:
            raise ValueError("randbelow needs m >= 1")
        return int(self._gen.integers(0, m))


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


def fisher_yates(items: Sequence[T], rng: CounterRNG) -> list[T]:
    """Uniform shuffle (given a uniform ``randbelow``), deterministic in rng state.

    Standard backward Fisher-Yates: position i swaps with a uniform
    j in [0, i], for i = n-1 down to 1.  Each of the n! outcomes arises from
    exactly one draw sequence, so uniform draws give a uniform permutation.
    """
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out
