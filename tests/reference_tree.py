"""The object prefix tree: a short reference the array tree is tested against.

One Python object per node, one ``marginal_from`` per (live node, element),
the keyer's scalar ``key``; the same skip, dedup and tie rules as
``injectstream.tree_stream``.  Also the interval-greedy leaf trace, an
analysis oracle whose path provably appears in the exact-mode tree.
Test-only.
"""

from dataclasses import dataclass
from typing import Hashable

from injectstream.errors import InvalidInstanceError, InvariantError, PreconditionError
from injectstream.geomgrid import snap_ceil_log, snap_floor_log
from injectstream.stream_model import Element, InjectedStream
from injectstream.submodular import Solution, SubmodularOracle
from injectstream.tree_stream import IncreaseBuckets, RunStats


def marginal_from(oracle: SubmodularOracle, e: Hashable, ids: frozenset, base):
    """f(e | ids) given base = f(ids); exactly one new evaluation."""
    if e in ids:
        raise PreconditionError(f"element {e!r} already in the set")
    return oracle.evaluate(ids | {e}) - base


class RefNode:
    __slots__ = ("element", "gain", "value", "depth", "children", "path_ids")

    def __init__(self, element, gain, value, depth, path_ids):
        self.element, self.gain, self.value = element, gain, value
        self.depth, self.path_ids, self.children = depth, path_ids, {}


class RefTree:
    def __init__(self, k, keyer):
        self.k, self.keyer = k, keyer
        self.root = RefNode(None, 0, 0, 0, frozenset())
        self.nodes = [self.root]


def ref_process(tree, e, oracle):
    for node in list(tree.nodes):  # children made for e are not extended by e
        if node.depth >= tree.k or e.id in node.path_ids:
            continue
        gain = marginal_from(oracle, e.id, node.path_ids, node.value)
        key = tree.keyer.key(gain)
        if key not in node.children:
            child = RefNode(e, gain, node.value + gain, node.depth + 1, node.path_ids | {e.id})
            node.children[key] = child
            tree.nodes.append(child)


def ref_best(tree):
    best = tree.root
    for node in tree.nodes[1:]:
        if node.value > best.value:  # ties: the earliest-created node wins
            best = node
    return Solution(elements=best.path_ids, value=best.value)


def ref_run(stream, k, keyer, oracle):
    """Known-guess (or exact) run: (solution, stats, tree)."""
    tree, calls0, nodes_max = RefTree(k, keyer), oracle.call_counter, 1
    for e in stream:
        ref_process(tree, e, oracle)
        nodes_max = max(nodes_max, len(tree.nodes))
    stats = RunStats(nodes_max, 1, oracle.call_counter - calls0)
    return ref_best(tree), stats, tree


def ref_guess_run(stream, k, delta, oracle):
    """Guessed run: one reference tree per exponent j with
    m/(1+delta) <= (1+delta)**j <= (k/delta)*m, by the snapped logs, not by
    ``geomgrid.window``; (solution, stats, trees by exponent)."""
    trees, m, calls0, nodes_max, guesses_max = {}, 0, oracle.call_counter, 0, 0
    base = 1.0 + delta
    for e in stream:
        m = max(m, oracle.evaluate((e.id,)))
        if m > 0:
            lo, hi = snap_ceil_log(base, m / base), snap_floor_log(base, k / delta * m)
            trees = {j: trees[j] if j in trees else RefTree(k, IncreaseBuckets(base**j, k, delta))
                     for j in range(lo, hi + 1)}
        guesses_max = max(guesses_max, len(trees))
        for tree in trees.values():
            ref_process(tree, e, oracle)
        nodes_max = max(nodes_max, sum(len(t.nodes) for t in trees.values()))
    best = Solution(elements=frozenset(), value=0)
    for j in sorted(trees):
        sol = ref_best(trees[j])
        if sol.value > best.value:
            best = sol
    stats = RunStats(nodes_max, guesses_max, oracle.call_counter - calls0)
    return best, stats, trees


@dataclass(frozen=True)
class LeafTrace:
    """The interval-greedy selection r_1..r_k and its prefix values."""

    elements: tuple[Element, ...]
    prefix_values: tuple  # f(R_0)=0 .. f(R_k)
    positions: tuple[int, ...]  # stream indices of the r_i

    @property
    def final_value(self):
        return self.prefix_values[-1]


def analysis_leaf_trace(
    stream: InjectedStream,
    opt_ids: set,
    oracle: SubmodularOracle,
    k: int,
) -> LeafTrace:
    """Reproduce the warm-up selection: r_{i+1} maximizes the marginal over
    the stream interval (r_i, o_{i+1}], ties to the earliest stream position.

    o_1..o_k are the first k optimum elements in arrival order (the
    optimum's ids make them well defined; this is a test oracle, algorithms
    never see those labels).  The selected path exists in the exact-mode tree.
    """
    order = list(stream.order)
    opt_positions = [i for i, e in enumerate(order) if e.id in opt_ids]
    if len(opt_positions) < k:
        raise InvalidInstanceError(
            f"stream holds {len(opt_positions)} optimum elements, need {k}"
        )
    chosen: list[Element] = []
    positions: list[int] = []
    values = [0]
    current = frozenset()
    current_value = 0
    lo = -1  # window starts strictly after this index
    for i in range(k):
        hi = opt_positions[i]
        best_gain = None
        best_pos = None
        for pos in range(lo + 1, hi + 1):
            e = order[pos]
            if e.id in current:
                continue
            gain = marginal_from(oracle, e.id, current, current_value)
            if best_gain is None or gain > best_gain:
                best_gain, best_pos = gain, pos
        if best_pos is None:
            raise InvariantError("empty selection window")  # cannot happen: o_i inside
        e = order[best_pos]
        chosen.append(e)
        positions.append(best_pos)
        current = current | {e.id}
        current_value = current_value + best_gain
        values.append(current_value)
        lo = best_pos
    return LeafTrace(
        elements=tuple(chosen),
        prefix_values=tuple(values),
        positions=tuple(positions),
    )
