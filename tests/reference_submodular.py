"""The scalar exact optimum: a short reference ``brute_force_opt`` is tested against.

One ``evaluate`` per subset, sizes in order and ``itertools.combinations``
order within a size over the repr-sorted members; a set replaces the best
only when it is strictly better.  Test-only.
"""

import itertools

from injectstream.submodular import Solution


def ref_brute_force_opt(oracle, ground, k):
    k = min(k, ground.n)
    members = sorted(ground.members, key=repr)
    best_ids: tuple = ()
    best_val = oracle.evaluate(())
    for size in range(1, k + 1):
        for combo in itertools.combinations(members, size):
            val = oracle.evaluate(combo)
            if val > best_val:
                best_ids, best_val = combo, val
    return Solution(elements=frozenset(best_ids), value=best_val)
