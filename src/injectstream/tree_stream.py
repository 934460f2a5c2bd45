"""Prefix-tree streaming submodular maximization.

The streaming algorithm keeps a rooted tree of height at most k.  Each
root-to-node path is a candidate solution; a node's children are keyed by the
(possibly bucketed) marginal gain their element had on arrival, and a node
gains a child for an arriving element only if no child with that gain key
exists yet.  After the stream, the best value over all nodes is the output.

Gain keying comes in two flavors: exact (raw marginal values, for small exact
tests) and bucketed (the gain range 0..g is split into ceil(k/delta) buckets
of width delta*g/k, plus one clamp bucket for marginals at or above the top,
which can happen when the guess g undershoots OPT).

The tree lives in node arrays, one row per node in creation order: the
oracle state of the node's set, its value and gain, depth, parent row, the
arrival that created it, the interned element ids of its path, and a bitset
of the child keys already present.  One arriving element is one vectorized
pass over the rows: the live rows (depth < k, element not on the path) are
extended in one batch through the oracle's ``extend_states`` (one counted
call per row), their gains are keyed by the keyer's vectorized ``keys``,
rows that already hold that key are dropped, and the rest get a child whose
value is its parent's value plus its gain.  ``tree.root``, ``tree.nodes``
and ``node.children`` are lazy views built from the arrays.

When OPT is unknown, a guess manager runs one tree per active geometric
guess g = (1+delta)^j, keyed to the running maximum singleton value m: the
shared window of ``geomgrid.update_window`` dismisses guesses outside
[m/(1+delta), (k/delta)*m], new guesses start fresh at the current stream
position, and the best surviving tree wins.

The interval-greedy leaf trace is an analysis oracle, not part of the
algorithm: it reads the recorded permutation to reproduce the half-floor
selection argument, and its path provably appears in the exact-mode tree.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Optional, Union

import numpy as np

from . import geomgrid
from .errors import InvalidInstanceError, InvariantError, PreconditionError
from .stream_model import Element, InjectedStream
from .submodular import SubmodularOracle, Solution

INITIAL_ROWS = 64
_BIT = np.array([1 << i for i in range(8)], dtype=np.uint8)


class ExactKeys:
    """Child keying by the raw marginal value (dedup on exact equality).

    ``keys`` interns each distinct gain into a dense id, so exact keys share
    the bucketed trees' presence bitsets; use one ExactKeys per tree.
    """

    def __init__(self) -> None:
        self._ids: dict = {}

    @property
    def key_count(self) -> int:
        return len(self._ids)

    def key(self, gain) -> Hashable:
        return gain

    def keys(self, gains: np.ndarray) -> np.ndarray:
        ids = self._ids
        return np.array([ids.setdefault(g, len(ids)) for g in gains.tolist()], dtype=np.int64)


def delta_fraction(delta: Union[float, str, Fraction]) -> Fraction:
    """``delta`` as the exact rational the trees read; a float goes through its repr."""
    return Fraction(str(delta)) if isinstance(delta, float) else Fraction(delta)


class IncreaseBuckets:
    """Bucketed gain keying: index = min(floor(gain / width), bucket_count).

    width = delta*g/k and bucket_count = ceil(k/delta), computed in exact
    rational arithmetic (delta read by ``delta_fraction``) whenever the
    guess g is an int or Fraction, so integer-valued oracles bucket exactly:
    with width = p/q an int or Fraction gain keys to gain*q // p in integer
    arithmetic.  A float gain, or a float guess (float width), keys by float
    floor division gain // float(width); a float guess whose width
    underflows to 0 is rejected.  Index bucket_count is the clamp
    bucket for gains at or above the range top; gains <= 0 key to 0.
    """

    def __init__(self, g, k: int, delta: Union[float, str, Fraction]) -> None:
        d = delta_fraction(delta)
        if not 0 < d <= 1:
            raise PreconditionError(f"delta must lie in (0, 1], got {delta!r}")
        if g <= 0:
            raise InvariantError("bucketing needs a positive guess g")
        self.bucket_count = math.ceil(k / d)
        self.key_count = self.bucket_count + 1
        if isinstance(g, (int, Fraction)):
            self.width = d * g / k
            self._p, self._q = self.width.numerator, self.width.denominator
            # gains at or above top all key to the clamp bucket; clamped to
            # [0, top], gain*q stays inside int64 unless top*q does not
            top = -(-self.bucket_count * self._p // self._q)
            self._top = top if top * self._q < 2**63 else None
        else:
            self.width = float(d) * g / k
            if self.width == 0:
                raise PreconditionError(
                    f"guess g={g!r} gives bucket width delta*g/k = {self.width!r} (underflow)"
                )
            self._p = None

    def key(self, gain) -> int:
        if gain <= 0:
            return 0
        if self._p is not None and isinstance(gain, (int, Fraction)):
            return min(int(gain * self._q // self._p), self.bucket_count)
        return min(int(gain // self.width), self.bucket_count)  # float floor division

    def keys(self, gains: np.ndarray) -> np.ndarray:
        """``key`` over an array of gains, elementwise identical."""
        kind = gains.dtype.kind
        if kind == "f" or (kind == "i" and self._p is None):
            raw = gains // float(self.width)
        elif kind == "i" and self._top is not None:
            clamped = np.minimum(np.maximum(gains, 0), self._top)
            return np.minimum(clamped * self._q // self._p, self.bucket_count)
        else:  # exact rationals, and widths too fine for int64
            return np.array([self.key(g) for g in gains.tolist()], dtype=np.int64)
        return np.minimum(np.maximum(raw, 0), self.bucket_count).astype(np.int64)


class NodeView:
    """One tree node, read lazily from the tree's arrays."""

    __slots__ = ("tree", "index")

    def __init__(self, tree: "PrefixTree", index: int) -> None:
        self.tree = tree
        self.index = index

    @property
    def depth(self) -> int:
        return int(self.tree.depth[self.index])

    @property
    def value(self):
        return self.tree.value(self.index)

    @property
    def gain(self):
        return 0 if self.tree.gains is None else self.tree.gains.item(self.index)

    @property
    def element(self) -> Optional[Element]:
        """The arrival that created this node (None for the root)."""
        a = int(self.tree.origin[self.index])
        return self.tree.arrivals[a] if a >= 0 else None

    @property
    def path_ids(self) -> frozenset:
        return self.tree.path_ids(self.index)

    @property
    def children(self) -> dict:
        """Child views by gain key, in creation order."""
        tree = self.tree
        rows = np.flatnonzero(tree.parent[: tree.size] == self.index)
        views = [NodeView(tree, int(r)) for r in rows]
        return {tree.keyer.key(c.gain): c for c in views}


class NodeList(Sequence):
    """``tree.nodes``: node views in creation order, built on access."""

    def __init__(self, tree: "PrefixTree") -> None:
        self.tree = tree

    def __len__(self) -> int:
        return self.tree.size

    def __getitem__(self, i: int) -> NodeView:
        return NodeView(self.tree, range(self.tree.size)[i])


class PrefixTree:
    """The bounded-height solution tree for one (guess, stream) run.

    Row arrays, one row per node in creation order (row 0 is the root):
    ``states``/``values`` in the layout of the oracle's ``empty_states``
    (allocated on the first ``tree_process``, which binds the tree to that
    oracle), ``gains`` (the marginal each node's element had on arrival),
    ``depth``, ``parent`` (-1 for the root), ``origin`` (index into
    ``arrivals`` of the element that created the node, -1 for the root),
    ``path`` (interned element ids of the path in ``path[i, :depth[i]]``, -1
    after it), and ``presence`` (bit ``key`` of row i is set when row i has a
    child with that gain key).
    """

    def __init__(self, k: int, keyer=None) -> None:
        if k < 0:
            raise PreconditionError("k must be >= 0")
        self.k = k
        self.keyer = keyer if keyer is not None else ExactKeys()
        self.size = 1
        self.states = self.values = self.gains = None
        self.depth = np.zeros(INITIAL_ROWS, dtype=np.int32)
        self.parent = np.full(INITIAL_ROWS, -1, dtype=np.int32)
        self.origin = np.full(INITIAL_ROWS, -1, dtype=np.int32)
        self.path = np.full((INITIAL_ROWS, k), -1, dtype=np.int32)
        self.presence = np.zeros((INITIAL_ROWS, 1), dtype=np.uint8)
        self.arrivals: list[Element] = []  # one entry per arrival that made children
        self.ids: list = []                # interned id -> element id
        self.element_index: dict = {}      # element id -> interned id

    @property
    def nodes(self) -> NodeList:
        # built per access: a stored view would make a reference cycle, and a
        # dismissed guess's tree would then wait for the cyclic collector
        return NodeList(self)

    @property
    def root(self) -> NodeView:
        return NodeView(self, 0)

    @property
    def live_node_count(self) -> int:
        return self.size

    def value(self, i: int):
        return 0 if self.values is None else self.values.item(i)

    def path_ids(self, i: int) -> frozenset:
        return frozenset(self.ids[x] for x in self.path[i, : self.depth[i]].tolist())

    def _reserve(self, rows: int, keys: int) -> None:
        """Room for ``rows`` nodes and ``keys`` presence bits per node."""
        cap = len(self.depth)
        if rows > cap:
            extra = max(rows, 2 * cap) - cap
            for name in ("states", "values", "gains", "depth", "parent", "origin", "path",
                         "presence"):
                a = getattr(self, name)
                fill = -1 if name in ("parent", "origin", "path") else 0
                pad = np.full((extra,) + a.shape[1:], fill, dtype=a.dtype)
                setattr(self, name, np.concatenate([a, pad]))
        words = -(-keys // 8)
        if words > self.presence.shape[1]:
            pad = np.zeros((len(self.presence), words - self.presence.shape[1]), np.uint8)
            self.presence = np.concatenate([self.presence, pad], axis=1)

    def _append(self, parents: np.ndarray, states, values, gains, e: Element, x: int) -> None:
        """Children of rows ``parents`` for arrival e, interned as x (room reserved)."""
        n, m = self.size, len(parents)
        d = self.depth[parents]
        self.states[n : n + m] = states
        self.values[n : n + m] = values
        self.gains[n : n + m] = gains
        self.depth[n : n + m] = d + 1
        self.parent[n : n + m] = parents
        self.origin[n : n + m] = len(self.arrivals)
        self.arrivals.append(e)
        path = self.path[parents]
        path[np.arange(m), d] = x
        self.path[n : n + m] = path
        self.size = n + m


def tree_process(tree: PrefixTree, e: Element, oracle: SubmodularOracle) -> PrefixTree:
    """Feed one stream element to the tree.

    Every node at depth < k without a child for this element's gain key gets
    one.  Only the rows that exist before e are read, so children created
    for e are not themselves extended by e.  An element already on a node's
    path is skipped there (its marginal is zero and a duplicate id cannot
    enlarge the solution).
    """
    if tree.values is None:
        tree.states, tree.values = oracle.empty_states(len(tree.depth))
        tree.gains = np.zeros_like(tree.values)
    n = tree.size
    live = (tree.depth[:n] < tree.k).nonzero()[0]
    x = tree.element_index.get(e.id)
    if x is not None:  # e is on some path already
        live = live[(tree.path[live] != x).all(axis=1)]
    if not live.size:
        return tree
    base = tree.values[live]
    states, values = oracle.extend_states(tree.states[live], base, e.id)
    gains = values - base
    keys = tree.keyer.keys(gains)
    tree._reserve(n + live.size, tree.keyer.key_count)
    word, bit = keys >> 3, _BIT[keys & 7]
    new = ((tree.presence[live, word] & bit) == 0).nonzero()[0]
    if not new.size:
        return tree
    parents = live[new]
    tree.presence[parents, word[new]] |= bit[new]
    if x is None:
        x = tree.element_index[e.id] = len(tree.ids)
        tree.ids.append(e.id)
    # a child's value is its parent's value plus its gain: with float values
    # that can differ in the last bits from f(S + e) summed in another order
    gains = gains[new]
    tree._append(parents, states[new], base[new] + gains, gains, e, x)
    return tree


def best_solution(tree: PrefixTree) -> Solution:
    """Best value over all nodes; ties go to the earliest-created node.

    The root counts, so an empty stream yields (empty set, 0).  Scanning all
    nodes rather than only depth-k leaves is safe by monotonicity and covers
    trees that never filled (short streams).
    """
    best = 0 if tree.values is None else int(np.argmax(tree.values[: tree.size]))
    return Solution(elements=tree.path_ids(best), value=tree.value(best))


def node_count_bound(k: int, delta: Union[float, str, Fraction]) -> int:
    """Sum over depths i <= k of (ceil(k/delta)+2)^i; independent of the stream."""
    branch = math.ceil(k / delta_fraction(delta)) + 2
    return sum(branch**i for i in range(k + 1))


@dataclass
class RunStats:
    nodes_live_max: int = 0
    guesses_live_max: int = 0
    oracle_calls: int = 0


class GuessManager:
    """Parallel trees for the active geometric guesses of OPT.

    Active guesses are the exact powers (1+delta)^j, j integer, inside
    [m/(1+delta), (k/delta)*m] where m is the running maximum singleton
    value.  The absolute-grid anchoring means a guess that stays in the
    window keeps its tree across m updates; a guess that falls out is
    dismissed along with its tree, and a newly admitted guess starts a fresh
    tree at the current stream position.
    """

    def __init__(self, k: int, delta: float) -> None:
        if not 0 < delta < 1:
            raise PreconditionError("guessing delta must lie in (0, 1)")
        self.k = k
        self.delta = delta
        self.m = 0
        self.runs: dict[int, PrefixTree] = {}
        self.guesses_live_max = 0
        self.nodes_live_max = 0

    def observe(self, singleton_value) -> None:
        """Update m and the active guess set for an arriving element."""
        if singleton_value > self.m:
            self.m = singleton_value
        if self.m <= 0:
            return
        base = 1.0 + self.delta
        geomgrid.update_window(
            self.runs, self.m, base, self.k / self.delta,
            lambda j: PrefixTree(self.k, IncreaseBuckets(base**j, self.k, self.delta)),
        )
        self.guesses_live_max = max(self.guesses_live_max, len(self.runs))

    def process(self, e: Element, oracle: SubmodularOracle) -> None:
        for tree in self.runs.values():
            tree_process(tree, e, oracle)
        self.nodes_live_max = max(
            self.nodes_live_max, sum(t.live_node_count for t in self.runs.values())
        )

    def best(self) -> Solution:
        best = Solution(elements=frozenset(), value=0)
        for j in sorted(self.runs):
            sol = best_solution(self.runs[j])
            if sol.value > best.value:
                best = sol
        return best


def run_tree_stream(
    stream: Iterable[Element],
    k: int,
    delta: Union[float, str, Fraction],
    oracle: SubmodularOracle,
    mode: str = "bucketed",
    g=None,
    stats: Optional[RunStats] = None,
) -> Solution:
    """One full streaming run with a known guess (or exact gains).

    mode "exact" dedups children on raw gains; mode "bucketed" requires the
    guess g.  For unknown OPT use :func:`guess_run`.
    """
    if mode == "exact":
        tree = PrefixTree(k, ExactKeys())
    elif mode == "bucketed":
        if g is None:
            raise PreconditionError("bucketed mode needs a guess g")
        tree = PrefixTree(k, IncreaseBuckets(g, k, delta))
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    calls0 = oracle.call_counter
    nodes_max = 1
    for e in stream:
        tree_process(tree, e, oracle)
        nodes_max = max(nodes_max, tree.live_node_count)
    if stats is not None:
        stats.nodes_live_max = nodes_max
        stats.guesses_live_max = 1
        stats.oracle_calls = oracle.call_counter - calls0
    return best_solution(tree)


def guess_run(
    stream: Iterable[Element],
    k: int,
    delta: Union[float, str, Fraction],
    oracle: SubmodularOracle,
    stats: Optional[RunStats] = None,
) -> Solution:
    """Streaming run without knowing OPT: parallel geometric guesses.

    Returns the best solution over the runs surviving at stream end.
    """
    manager = GuessManager(k, float(delta_fraction(delta)))
    calls0 = oracle.call_counter
    for e in stream:
        singleton = oracle.evaluate((e.id,))
        manager.observe(singleton)
        manager.process(e, oracle)
    if stats is not None:
        stats.nodes_live_max = manager.nodes_live_max
        stats.guesses_live_max = manager.guesses_live_max
        stats.oracle_calls = oracle.call_counter - calls0
    return manager.best()


def live_guess_bound(k: int, delta: float) -> int:
    """Ceiling of log base (1+delta) of k(1+delta)/delta, the guess-count cap."""
    return geomgrid.live_guess_bound(1.0 + delta, k / delta)


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

    o_1..o_k are the first k optimum elements in arrival order (the recorded
    permutation makes them well defined; this is a test oracle, algorithms
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
            gain = oracle.marginal_from(e.id, current, current_value)
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
