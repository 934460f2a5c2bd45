"""One permutation, one realized stream: a short reference ``build_streams``
is tested against.

``realize_stream`` places the noise by walking the plan once per slot, not
through ``stream_model``'s slot grouping, so a fault there shows as a
difference.  Test-only.
"""

from typing import Optional, Sequence

from injectstream.errors import InvalidInstanceError
from injectstream.rng import CounterRNG, PhiloxRNG, fisher_yates
from injectstream.stream_model import Element, InjectedStream, InjectionPlan, InstanceSplit


def sample_permutation(
    good: Sequence[Element],
    seed: int,
    rng_factory: type[CounterRNG] = PhiloxRNG,
) -> tuple[Element, ...]:
    """Uniformly permute the good elements, deterministically in the seed.

    ``rng_factory`` defaults to the counter-based production generator; tests
    pass :class:`MixedRadixRNG` to enumerate permutations by seed.
    """
    if len(good) == 0:
        raise InvalidInstanceError("cannot permute an empty good set")
    return tuple(fisher_yates(good, rng_factory(seed)))


def realize_stream(
    split: InstanceSplit,
    plan: InjectionPlan,
    permutation: Sequence[Element],
    seed: Optional[int] = None,
) -> InjectedStream:
    """Interleave a concrete permutation with a validated plan: before the
    i-th good element, the noise of slot i in plan order; the noise of slot
    len(permutation) at the end."""
    plan.validate(split)
    noise_of = split.noise_by_id()
    order = []
    for slot in range(len(permutation) + 1):
        order += [noise_of[nid] for s, nid in plan.entries if s == slot]
        order += permutation[slot : slot + 1]
    return InjectedStream(order=tuple(order), seed=seed)
