"""The adversarial-injections input model.

An instance is split into a good set and a noise set.  The good elements are
permuted uniformly at random; the adversary commits, before seeing that
permutation, to an injection plan that places each noise element at a slot
relative to the good sequence.  Realizing (permutation, plan) yields the
stream the algorithm actually consumes: a flat element order with no
good/noise labels.

Slot convention: slot i means "inject before the (i+1)-th good element", so
slot 0 is the stream front and slot len(good) is the end.  Noise elements
assigned to the same slot appear in the plan's list order.

A trial's permuted streams are realized in one call: :func:`build_streams`
validates the plan and groups its noise by slot once, then reseeds one
Philox generator per permutation seed.  :func:`build_stream` is its
one-seed case.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import InvalidInstanceError, PlanValidationError, SizeLimitError
from .rng import MixedRadixRNG, PhiloxRNG, fisher_yates

ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class Element:
    """A stream element: an opaque id plus a role-specific payload.

    The payload is a ground-set member reference for submodular instances and
    a :class:`~injectstream.matching.Edge` for matching instances.  It must be
    hashable and is never mutated.
    """

    id: Hashable
    payload: Any = None


@dataclass(frozen=True)
class InstanceSplit:
    """The good/noise split of an instance (good doubles as the optimum)."""

    good: tuple[Element, ...]
    noise: tuple[Element, ...] = ()

    def __post_init__(self) -> None:
        ids = [e.id for e in self.good] + [e.id for e in self.noise]
        if len(set(ids)) != len(ids):
            raise InvalidInstanceError("element ids must be unique across good and noise")

    @property
    def n_good(self) -> int:
        return len(self.good)

    def noise_by_id(self) -> dict[Hashable, Element]:
        return {e.id: e for e in self.noise}


@dataclass(frozen=True)
class InjectionPlan:
    """Adversary's committed injections: (slot, noise id) pairs in injection order.

    The plan may only depend on the number of good elements, the noise set,
    and the adversary's own randomness.  Nothing here references the
    permutation, which is what makes the adversary blind.
    """

    entries: tuple[tuple[int, Hashable], ...] = ()

    def validate(self, split: InstanceSplit) -> None:
        noise_ids = [e.id for e in split.noise]
        planned = [nid for _, nid in self.entries]
        if Counter(planned) != Counter(noise_ids):
            raise PlanValidationError(
                "plan must place every noise element exactly once "
                f"(planned {planned!r}, noise {noise_ids!r})"
            )
        for slot, nid in self.entries:
            if not 0 <= slot <= split.n_good:
                raise PlanValidationError(
                    f"slot {slot} for noise {nid!r} outside [0, {split.n_good}]"
                )


@dataclass(frozen=True)
class InjectedStream:
    """A realized stream.

    ``order`` is what algorithms consume: elements only, no labels.  ``seed``
    is the RNG seed that drew the good elements' permutation (the index of
    the permutation for enumerated streams).
    """

    order: tuple[Element, ...]
    seed: Optional[int] = None

    def __iter__(self) -> Iterator[Element]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)


def build_streams(
    split: InstanceSplit, plan: InjectionPlan, seeds: Iterable[int]
) -> list[InjectedStream]:
    """``[build_stream(split, plan, seed) for seed in seeds]``, in one call.

    The plan is validated and its noise grouped by slot once, and one
    Philox generator is reseeded per seed instead of built anew.
    """
    if split.n_good == 0:
        raise InvalidInstanceError("cannot permute an empty good set")
    per_slot = _noise_by_slot(split, plan)
    rng: Optional[PhiloxRNG] = None
    streams = []
    for seed in seeds:
        if rng is None:
            rng = PhiloxRNG(seed)
        else:
            rng.reseed(seed)
        streams.append(_interleave(per_slot, fisher_yates(split.good, rng), seed))
    return streams


def build_stream(split: InstanceSplit, plan: InjectionPlan, seed: int) -> InjectedStream:
    """Sample a permutation for the split and realize the plan against it."""
    return build_streams(split, plan, (seed,))[0]


def _noise_by_slot(split: InstanceSplit, plan: InjectionPlan) -> list[list[Element]]:
    """Validate the plan; per_slot[i] is slot i's noise, in plan order."""
    plan.validate(split)
    noise_of = split.noise_by_id()
    per_slot: list[list[Element]] = [[] for _ in range(split.n_good + 1)]
    for slot, nid in plan.entries:
        per_slot[slot].append(noise_of[nid])
    return per_slot


def _interleave(
    per_slot: list[list[Element]], permutation: Sequence[Element], seed: Optional[int]
) -> InjectedStream:
    """Slot i's noise before the permutation's i-th element; the last slot's at the end."""
    order: list[Element] = []
    for noise, g in zip(per_slot, permutation):
        order.extend(noise)
        order.append(g)
    order.extend(per_slot[-1])
    return InjectedStream(order=tuple(order), seed=seed)


def enumerate_streams(split: InstanceSplit, plan: InjectionPlan) -> list[InjectedStream]:
    """One realized stream per permutation of the good set, in seed order.

    Stream i is the one :func:`build_stream` would produce under the
    mixed-radix test RNG with seed i, so the list covers all |good|!
    permutations exactly once.  Guarded to |good| <= 8.
    """
    n = split.n_good
    if n > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"enumerate_streams is limited to |good| <= {ENUMERATION_LIMIT}, got {n}"
        )
    if n == 0:
        raise InvalidInstanceError("cannot enumerate permutations of an empty good set")
    per_slot = _noise_by_slot(split, plan)
    return [
        _interleave(per_slot, fisher_yates(split.good, MixedRadixRNG(seed)), seed)
        for seed in range(math.factorial(n))
    ]
