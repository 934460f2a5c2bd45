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

Trees live in a forest of node arrays: one row per node in creation order,
with a ``tree`` column naming the tree the row belongs to.  A row holds the
oracle state of the node's set, its value and gain, depth, parent row, the
arrival that created it, the interned element ids of its path, and a bitset
of the child keys already present.  The forest is bound to one oracle.  One
stream position is one vectorized pass over the rows of every tree, each tree
reading its own element (or all of them the same one): the live rows (depth <
k, element not on the path) are grouped by element and extended through the
oracle's ``extend_states`` once per distinct element (one call per row),
their gains are keyed row-wise by the keyer's vectorized ``keys``, rows that
already hold that key are dropped, and the rest get a child whose value is
its parent's value plus its gain.  The pass returns each tree's calls, a
``bincount`` over the ``tree`` column of the live rows; a tree's node count
is such a ``bincount`` too, and its best node is its earliest row of maximum
value.  ``tree.root``, ``tree.nodes`` and ``node.children`` are lazy views
built from the arrays.

Three runs share the one forest.  ``run_tree_streams`` advances several
streams together, one tree per stream and one keyer for all of them (the
harness runs a trial's permutations this way), and ``run_tree_stream`` is its
one-stream case.  When OPT is unknown, a guess manager runs the active
geometric guesses g = (1+delta)^j, the exponents j of ``geomgrid.window``
around the running maximum singleton value m, which holds g in [m/(1+delta),
(k/delta)*m] and only moves up.  Each tree serves a class of guesses, a
contiguous range of exponents keyed as its representative, the highest one.
With integer value rows every gain at a pass lies in 0..m, so the guesses
whose keys of the integers 0..m cut them alike share a class; other rows keep
one guess per class.  When m grows, one ``take_trees`` call reshapes the
forest: a class emptied by dismissals loses its tree, a class whose members
now split 0..m differently is split, each lower part getting a copy of the
tree, and the admitted guesses get fresh roots at the current stream
position.  The best surviving tree wins.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise, zip_longest
from typing import Hashable, Iterable, Optional, Union

import numpy as np

from . import geomgrid
from .errors import PreconditionError
from .stream_model import Element
from .submodular import SubmodularOracle, Solution

INITIAL_ROWS = 64
_BIT = np.array([1 << i for i in range(8)], dtype=np.uint8)
_ABSENT = -2  # interned id of an element on no path (paths pad with -1)
_ROWS = ("tree", "states", "values", "gains", "depth", "parent", "origin", "path", "presence")


class ExactKeys:
    """Child keying by the raw marginal value (dedup on exact equality).

    ``keys`` interns each distinct gain into a dense id, so exact keys share
    the bucketed trees' presence bitsets; one ExactKeys serves every tree of
    a forest.
    """

    def __init__(self) -> None:
        self._ids: dict = {}

    @property
    def key_count(self) -> int:
        return len(self._ids)

    def key(self, gain) -> Hashable:
        return gain

    def keys(self, gains: np.ndarray, trees=None) -> np.ndarray:
        """Dense ids of ``gains``; the ids do not depend on the ``trees`` of the rows."""
        ids = self._ids
        return np.array([ids.setdefault(g, len(ids)) for g in gains.tolist()], dtype=np.int64)


def delta_fraction(delta: Union[float, str, Fraction]) -> Fraction:
    """``delta`` as the exact rational the trees read; a float goes through its repr."""
    return Fraction(str(delta)) if isinstance(delta, float) else Fraction(delta)


def _float_width(g: float, k: int, d: Fraction) -> float:
    """The width delta*g/k of a float guess g, rejected if it underflows to 0."""
    width = float(d) * g / k
    if width == 0:
        raise PreconditionError(f"guess g={g!r} gives bucket width delta*g/k = {width!r} (underflow)")
    return width


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
            raise PreconditionError(f"bucketing needs a positive guess g; got g={g!r}")
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
            self.width = _float_width(g, k, d)
            self._p = None

    def key(self, gain) -> int:
        if gain <= 0:
            return 0
        if self._p is not None and isinstance(gain, (int, Fraction)):
            return min(int(gain * self._q // self._p), self.bucket_count)
        return min(int(gain // self.width), self.bucket_count)  # float floor division

    def keys(self, gains: np.ndarray, trees=None) -> np.ndarray:
        """``key`` over an array of gains, elementwise identical; one guess
        serves every tree, so the ``trees`` of the rows do not matter."""
        kind = gains.dtype.kind
        if kind == "f" or (kind == "i" and self._p is None):
            raw = gains // float(self.width)
        elif kind == "i" and self._top is not None:
            clamped = np.minimum(np.maximum(gains, 0), self._top)
            return np.minimum(clamped * self._q // self._p, self.bucket_count)
        else:  # exact rationals, and widths too fine for int64
            return np.array([self.key(g) for g in gains.tolist()], dtype=np.int64)
        return np.minimum(np.maximum(raw, 0), self.bucket_count).astype(np.int64)


class GuessBuckets:
    """Row-wise keying for the guess forest: tree i is the guess (1+delta)**exponents[i].

    Every guess is a float power, so a row keys to min(max(gain //
    widths[tree], 0), bucket_count), as that guess's ``IncreaseBuckets``
    keys it; an int or Fraction gain floor-divides by a float as its float.
    """

    def __init__(self, k: int, delta: Union[float, str, Fraction]) -> None:
        self.k, self.delta = k, delta_fraction(delta)
        self.bucket_count = math.ceil(k / self.delta)
        self.key_count = self.bucket_count + 1
        self.use(())

    def _widths(self, exponents: Sequence[int]) -> np.ndarray:
        base = 1.0 + float(self.delta)
        return np.array([_float_width(base**j, self.k, self.delta) for j in exponents],
                        dtype=np.float64)

    def use(self, exponents: Sequence[int]) -> None:
        """Key tree i as the guess of exponent ``exponents[i]`` from now on."""
        self.widths = self._widths(exponents)

    def _keys(self, gains: np.ndarray, widths: np.ndarray) -> np.ndarray:
        raw = gains.astype(np.float64, copy=False) // widths
        return np.minimum(np.maximum(raw, 0), self.bucket_count).astype(np.int64)

    def keys(self, gains: np.ndarray, trees: np.ndarray) -> np.ndarray:
        return self._keys(gains, self.widths[trees])

    def splits(self, exponents: Sequence[int], m: int) -> np.ndarray:
        """Whether guesses ``exponents[i]`` and ``exponents[i + 1]`` split the
        integers 0..m differently, for each adjacent pair.

        A guess splits 0..m at the x in 1..m whose key differs from x - 1's,
        as ``keys`` keys them.  Guesses with equal splits make the same child
        decisions on integer gains in 0..m.  One guess is keyed at a time, so
        at most two rows of m cuts are held.
        """
        gains = np.arange(m + 1, dtype=np.float64)
        cuts = (np.diff(self._keys(gains, width)) != 0 for width in self._widths(exponents))
        return np.array([not np.array_equal(a, b) for a, b in pairwise(cuts)], dtype=bool)


class NodeView:
    """One tree node, read lazily from the forest's arrays."""

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
        return self.tree.gains.item(self.index)

    @property
    def element(self) -> Optional[Element]:
        """The arrival that created this node (None for a root)."""
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
        if not rows.size:
            return {}
        keys = tree.keyer.keys(tree.gains[rows], tree.tree[rows])
        return {key: NodeView(tree, r) for key, r in zip(keys.tolist(), rows.tolist())}


class NodeList(Sequence):
    """``tree.nodes``: node views in creation order, built on access."""

    def __init__(self, tree: "PrefixTree") -> None:
        self.tree = tree

    def __len__(self) -> int:
        return self.tree.size

    def __getitem__(self, i: int) -> NodeView:
        return NodeView(self.tree, range(self.tree.size)[i])


class PrefixTree:
    """A forest of bounded-height solution trees, one per (guess, stream) run.

    It starts with ``trees`` trees, each a root row (the empty set), and
    ``take_trees`` reshapes it.  With one tree, row 0 is its root.  Every
    pass extends rows through ``oracle``.  Row arrays, one row per node in
    creation order: ``tree`` (the index of the node's tree, 0 .. trees-1),
    ``states`` and ``values`` in the layout of the oracle's
    ``empty_states``, ``gains`` (the marginal each node's element had on
    arrival), ``depth``, ``parent`` (-1 for a root), ``origin`` (index into
    ``arrivals`` of the element that created the node, -1 for a root),
    ``path`` (interned element ids of the path in ``path[i, :depth[i]]``,
    -1 after it), and ``presence`` (bit ``key`` of row i is set when row i
    has a child with that gain key; rows at or past ``size`` have none).
    ``keyer.keys(gains, trees)`` keys gains of rows of any trees.
    """

    def __init__(self, k: int, oracle: SubmodularOracle, keyer=None, trees: int = 1) -> None:
        if k < 0:
            raise PreconditionError("k must be >= 0")
        self.k = k
        self.oracle = oracle
        self.keyer = keyer if keyer is not None else ExactKeys()
        self.size = self.trees = 0
        rows = max(INITIAL_ROWS, trees)
        self.states, self.values = oracle.empty_states(rows)
        self.gains = np.zeros_like(self.values)
        self.tree = np.zeros(rows, dtype=np.int32)
        self.depth = np.zeros(rows, dtype=np.int32)
        self.parent = np.full(rows, -1, dtype=np.int32)
        self.origin = np.full(rows, -1, dtype=np.int32)
        self.path = np.full((rows, k), -1, dtype=np.int32)
        self.presence = np.zeros((rows, 1), dtype=np.uint8)
        self.arrivals: list[Element] = []  # arrivals that made children, one per tree if trees differ
        self.ids: list = []                # interned id -> element id
        self.element_index: dict = {}      # element id -> interned id
        self.take_trees([-1] * trees)

    @property
    def nodes(self) -> NodeList:
        # built per access: a stored view would make a reference cycle, and a
        # dropped forest would then wait for the cyclic collector
        return NodeList(self)

    @property
    def root(self) -> NodeView:
        return NodeView(self, 0)

    def node_counts(self) -> np.ndarray:
        """Nodes per tree."""
        return np.bincount(self.tree[: self.size], minlength=self.trees)

    def value(self, i: int):
        return self.values.item(i)

    def path_ids(self, i: int) -> frozenset:
        return frozenset(self.ids[x] for x in self.path[i, : self.depth[i]].tolist())

    def take_trees(self, sources: Sequence[int]) -> None:
        """Reshape the forest: new tree i holds the rows of old tree
        ``sources[i]``, or a fresh root row where ``sources[i]`` is -1.

        The last new tree naming an old tree keeps that tree's rows, compacted
        in row order.  Each earlier one gets a copy, appended in its source's
        row order, whose presence bits are rebuilt from its children's stored
        gains by ``keyer``, which must already key the new numbering.  An old
        tree no entry names is compacted away, with the arrivals and interned
        ids only its rows used.  Every tree keeps its rows in creation order.
        """
        n, owner = self.size, self.tree[: self.size]
        keeper = np.full(self.trees, -1, dtype=np.int32)  # old tree -> new tree keeping its rows
        for i, t in enumerate(sources):
            if t >= 0:
                keeper[t] = i
        blocks = [(keeper[owner] >= 0).nonzero()[0]]
        trees = [keeper[owner[blocks[0]]]]
        for i, t in enumerate(sources):
            if t >= 0 and keeper[t] != i:
                blocks.append((owner == t).nonzero()[0])
                trees.append(np.full(blocks[-1].size, i, dtype=np.int32))
        take = np.concatenate(blocks)
        kept, m = blocks[0].size, take.size
        roots = [i for i, t in enumerate(sources) if t < 0]
        size = m + len(roots)
        self._reserve(size, self.keyer.key_count)
        for name in _ROWS:
            getattr(self, name)[:m] = getattr(self, name)[take]
        self.tree[:m] = np.concatenate(trees)
        moved, start = np.full(n, -1, dtype=np.int32), 0
        for rows in blocks:  # a parent lies in its child's block
            moved[rows] = np.arange(start, start + rows.size)
            parent = self.parent[start : start + rows.size]
            parent[parent >= 0] = moved[parent[parent >= 0]]
            start += rows.size
        new = slice(m, size)
        self.tree[new] = roots
        self.depth[new] = 0
        self.parent[new] = self.origin[new] = self.path[new] = -1
        self.states[new], self.values[new] = self.oracle.empty_states(len(roots))
        self.gains[new] = 0
        self.presence[kept : max(n, size)] = 0
        self.size, self.trees = size, len(sources)
        kids = kept + (self.parent[kept:m] >= 0).nonzero()[0]
        if kids.size:
            keys = self.keyer.keys(self.gains[kids], self.tree[kids])
            np.bitwise_or.at(self.presence, (self.parent[kids], keys >> 3), _BIT[keys & 7])
        for name, refs in (("arrivals", self.origin[:size]), ("ids", self.path[:size])):
            used = np.zeros(len(getattr(self, name)), dtype=bool)
            used[refs[refs >= 0]] = True
            refs[refs >= 0] = (np.cumsum(used) - 1)[refs[refs >= 0]]
            setattr(self, name, [getattr(self, name)[x] for x in used.nonzero()[0].tolist()])
        self.element_index = {eid: x for x, eid in enumerate(self.ids)}

    def _reserve(self, rows: int, keys: int) -> None:
        """Room for ``rows`` nodes and ``keys`` presence bits per node."""
        cap = len(self.depth)
        if rows > cap:
            extra = max(rows, 2 * cap) - cap
            for name in _ROWS:
                a = getattr(self, name)
                # zeroed pages stay untouched, and so out of RSS, until rows
                # reach them; a row past ``size`` is written in full before use
                grown = np.zeros((cap + extra,) + a.shape[1:], dtype=a.dtype)
                grown[:cap] = a
                setattr(self, name, grown)
        words = -(-keys // 8)
        if words > self.presence.shape[1]:
            pad = np.zeros((len(self.presence), words - self.presence.shape[1]), np.uint8)
            self.presence = np.concatenate([self.presence, pad], axis=1)

    def _append(self, parents: np.ndarray, states, values, gains, x, origin) -> None:
        """Children of rows ``parents``, for elements interned as ``x`` and
        created by ``arrivals[origin]`` (room reserved)."""
        n, m = self.size, len(parents)
        d = self.depth[parents]
        self.tree[n : n + m] = self.tree[parents]
        self.states[n : n + m] = states
        self.values[n : n + m] = values
        self.gains[n : n + m] = gains
        self.depth[n : n + m] = d + 1
        self.parent[n : n + m] = parents
        self.origin[n : n + m] = origin
        path = self.path[parents]
        path[np.arange(m), d] = x
        self.path[n : n + m] = path
        self.size = n + m


def tree_process(tree: PrefixTree, e) -> np.ndarray:
    """Feed one stream position to every tree of the forest; returns each
    tree's oracle calls in this pass (int64).

    ``e`` is one Element, which every tree reads, or a sequence with one
    entry per tree: that tree's Element, or None when its stream has ended.
    A sequence of another length is rejected.
    In each tree, every node at depth < k without a child for the gain key
    of its element gets one.  Only the rows that exist before this pass are
    read, so children created for e are not themselves extended by e.  An
    element already on a node's path is skipped there (its marginal is zero
    and a duplicate id cannot enlarge the solution).  The live rows are
    grouped by element, one ``extend_states`` call per distinct element.
    """
    n = tree.size
    live = (tree.depth[:n] < tree.k).nonzero()[0]
    index = tree.element_index
    if isinstance(e, Element):
        ids, group = [e.id], None
    else:
        if len(e) != tree.trees:
            raise PreconditionError(f"tree_process got {len(e)} elements for {tree.trees} trees")
        slots: dict = {}
        of_tree = np.array([-1 if a is None else slots.setdefault(a.id, len(slots)) for a in e],
                           dtype=np.int64)
        ids, group = list(slots), of_tree[tree.tree[live]]
        live, group = live[group >= 0], group[group >= 0]
    xs = [index.get(i, _ABSENT) for i in ids]
    if max(xs, default=_ABSENT) >= 0:  # an element is on some path already
        if group is None:
            live = live[(tree.path[live] != xs[0]).all(axis=1)]
        else:
            off = (tree.path[live] != np.array(xs)[group][:, None]).all(axis=1)
            live, group = live[off], group[off]
    calls = np.bincount(tree.tree[live], minlength=tree.trees)
    if not live.size:
        return calls
    if len(ids) > 1:  # contiguous rows per element; each tree keeps its row order
        order = np.argsort(group, kind="stable")
        live, group = live[order], group[order]
    oracle, states, base = tree.oracle, tree.states[live], tree.values[live]
    if len(ids) == 1:
        states, values = oracle.extend_states(states, base, ids[0])
    else:
        ends = np.cumsum(np.bincount(group, minlength=len(ids))).tolist()
        parts = [oracle.extend_states(states[a:b], base[a:b], ids[g])
                 for g, (a, b) in enumerate(zip([0] + ends, ends)) if b > a]
        states = np.concatenate([s for s, _ in parts])
        values = np.concatenate([v for _, v in parts])
    owner = tree.tree[live]
    gains = values - base
    keys = tree.keyer.keys(gains, owner)
    tree._reserve(n + live.size, tree.keyer.key_count)
    word, bit = keys >> 3, _BIT[keys & 7]
    new = ((tree.presence[live, word] & bit) == 0).nonzero()[0]
    if not new.size:
        return calls
    parents = live[new]
    tree.presence[parents, word[new]] |= bit[new]
    for g in [0] if group is None else np.bincount(group[new]).nonzero()[0].tolist():
        if xs[g] < 0:
            xs[g] = index[ids[g]] = len(tree.ids)
            tree.ids.append(ids[g])
    if group is None:
        x, origin = xs[0], len(tree.arrivals)
        tree.arrivals.append(e)
    else:  # one arrival per tree that made children
        x = np.array(xs)[group[new]]
        made = np.bincount(owner[new], minlength=tree.trees) > 0
        origin = len(tree.arrivals) + (np.cumsum(made) - 1)[owner[new]]
        tree.arrivals.extend(e[t] for t in made.nonzero()[0].tolist())
    # a child's value is its parent's value plus its gain: with float values
    # that can differ in the last bits from f(S + e) summed in another order
    gains = gains[new]
    tree._append(parents, states[new], base[new] + gains, gains, x, origin)
    return calls


def best_solutions(tree: PrefixTree) -> list[Solution]:
    """Each tree's best value over all its nodes; ties go to its
    earliest-created node.

    The root counts, so an empty stream yields (empty set, 0).  Scanning all
    nodes rather than only depth-k leaves is safe by monotonicity and covers
    trees that never filled (short streams).
    """
    n, owner = tree.size, tree.tree[: tree.size]
    best = np.full(tree.trees, n)
    np.minimum.at(best, owner, np.arange(n))  # each tree's root
    values = tree.values[:n]
    top = values[best]
    np.maximum.at(top, owner, values)
    hit = (values == top[owner]).nonzero()[0]
    best[:] = n
    np.minimum.at(best, owner[hit], hit)
    return [Solution(elements=tree.path_ids(r), value=tree.value(r)) for r in best.tolist()]


def best_solution(tree: PrefixTree) -> Solution:
    """The best solution of a one-tree forest (see ``best_solutions``)."""
    (sol,) = best_solutions(tree)
    return sol


def node_count_bound(k: int, delta: Union[float, str, Fraction]) -> int:
    """Sum over depths i <= k of (ceil(k/delta)+2)^i; independent of the stream."""
    branch = math.ceil(k / delta_fraction(delta)) + 2
    return sum(branch**i for i in range(k + 1))


@dataclass
class RunStats:
    """Counts of one run, per guess for ``guess_run``.

    ``nodes_live_max`` is the most nodes held after a stream position, and
    ``oracle_calls`` counts the singleton evaluations and the extensions,
    the latter as the passes of ``tree_process`` return them.  In
    ``guess_run`` a tree serves a class of guesses, and both count each
    guess as if it had its own tree: a class's rows and each pass's
    extensions count once per member, as one tree per guess would make them.
    """

    nodes_live_max: int = 0
    guesses_live_max: int = 0
    oracle_calls: int = 0


class GuessManager:
    """Parallel trees for the active geometric guesses of OPT, in one forest.

    Active guesses are the exact powers (1+delta)^j for j in ``window``:
    (1+delta)^j in [m/(1+delta), (k/delta)*m], where m is the running
    maximum singleton value.  Each tree of ``forest`` serves a class of
    guesses, a contiguous range of exponents keyed as its representative,
    its highest exponent: tree i serves the exponents of ``window`` in
    (tops[i-1], tops[i]], ``members[i]`` of them, in exponent order.

    A class shares one tree only when the value rows of ``oracle`` are
    integers.  A monotone submodular oracle's gains at a pass then lie in
    0..m, and guesses whose keys split the integers 0..m alike
    (``GuessBuckets.splits``) make the same child decisions.  Object,
    ``Fraction`` and float rows keep one guess per class.

    When m grows, ``observe`` walks the old classes and then the admitted
    guesses, as one more class on a fresh root.  It skips a class left
    without members (m only grows, so dismissals take the lowest exponents
    and a representative stays until its class is empty), and splits a
    class of two or more guesses whose members now split 0..m differently
    into runs of equal splits (classes never merge).  Each run names its
    class's tree in the ``sources`` of one ``PrefixTree.take_trees`` call:
    the top run keeps the tree, and each lower run gets a copy, rekeyed
    under its own representative.  ``calls`` counts each pass's extensions
    once per member of the class that made them.
    """

    def __init__(self, k: int, delta: float, oracle: SubmodularOracle) -> None:
        if k < 1:
            raise PreconditionError(f"guessing needs k >= 1; got k={k!r}")
        if not 0 < delta < 1:
            raise PreconditionError("guessing delta must lie in (0, 1)")
        self.k = k
        self.delta = delta
        self.m = 0
        self.window = range(0)
        self.tops: list[int] = []
        self.members = np.zeros(0, dtype=np.int64)
        self.forest = PrefixTree(k, oracle, GuessBuckets(k, delta), trees=0)
        self.shared = self.forest.values.dtype.kind == "i"
        self.guesses_live_max = 0
        self.nodes_live = self.nodes_live_max = 0
        self.calls = 0

    def observe(self, singleton_value) -> None:
        """Update m, the active guesses and their classes for an arriving element.

        The window depends on m alone, so it moves only when m grows.
        """
        if not singleton_value > self.m:
            return
        self.m = singleton_value
        window = geomgrid.window(self.m, 1.0 + self.delta, self.k / self.delta)
        forest, tops, sources, low = self.forest, self.tops, [], window.start
        self.tops = []
        for i, top in enumerate(tops + [window.stop - 1]):  # old classes, then the admitted one
            if top < low:  # every member dismissed, or nothing new to admit
                continue
            parts = np.arange(low, top)  # without sharing, every guess splits off
            if self.shared and parts.size:
                parts = parts[forest.keyer.splits(range(low, top + 1), self.m)]
            self.tops += parts.tolist() + [top]
            sources += [i if i < len(tops) else -1] * (parts.size + 1)
            low = top + 1
        forest.keyer.use(self.tops)
        forest.take_trees(sources)
        self.window = window
        self.members = np.diff([window.start - 1] + self.tops)
        self.nodes_live = int(forest.node_counts() @ self.members)
        self.guesses_live_max = max(self.guesses_live_max, len(window))

    def process(self, e: Element) -> None:
        forest = self.forest
        n = forest.size
        self.calls += int(tree_process(forest, e) @ self.members)
        self.nodes_live += int(self.members[forest.tree[n : forest.size]].sum())
        self.nodes_live_max = max(self.nodes_live_max, self.nodes_live)

    def best(self) -> Solution:
        """The best surviving class's solution; ties go to the smallest guess."""
        best = Solution(elements=frozenset(), value=0)
        for sol in best_solutions(self.forest):
            if sol.value > best.value:
                best = sol
        return best


def _keyer(mode: str, k: int, delta, g):
    if mode == "exact":
        return ExactKeys()
    if mode == "bucketed":
        if g is None:
            raise PreconditionError("bucketed mode needs a guess g")
        return IncreaseBuckets(g, k, delta)
    raise PreconditionError(f"unknown mode {mode!r}")


def run_tree_streams(
    streams: Sequence[Iterable[Element]],
    k: int,
    delta: Union[float, str, Fraction],
    oracle: SubmodularOracle,
    mode: str = "bucketed",
    g=None,
) -> list[tuple[Solution, RunStats]]:
    """Streaming runs with a known guess (or exact gains), one tree per
    stream, all in one forest with one keyer; (best solution, stats) per
    stream, in order.

    mode "exact" dedups children on raw gains; mode "bucketed" requires the
    guess g.  Position i of every stream is one ``tree_process`` pass, so
    each stream is read one element at a time, element i+1 only after
    position i has been processed; streams may differ in length.  For
    unknown OPT use :func:`guess_run`.
    """
    tree = PrefixTree(k, oracle, _keyer(mode, k, delta, g), trees=len(streams))
    calls = np.zeros(len(streams), dtype=np.int64)
    for elements in zip_longest(*streams):
        calls += tree_process(tree, elements if len(elements) > 1 else elements[0])
    nodes = tree.node_counts().tolist()
    return [(sol, RunStats(nodes_live_max=n, guesses_live_max=1, oracle_calls=c))
            for sol, n, c in zip(best_solutions(tree), nodes, calls.tolist())]


def run_tree_stream(
    stream: Iterable[Element],
    k: int,
    delta: Union[float, str, Fraction],
    oracle: SubmodularOracle,
    mode: str = "bucketed",
    g=None,
    stats: Optional[RunStats] = None,
) -> Solution:
    """One full streaming run: ``run_tree_streams`` on the one stream."""
    ((sol, run_stats),) = run_tree_streams([stream], k, delta, oracle, mode=mode, g=g)
    if stats is not None:
        vars(stats).update(vars(run_stats))
    return sol


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
    manager = GuessManager(k, float(delta_fraction(delta)), oracle)
    singletons = 0
    for e in stream:
        manager.observe(oracle.evaluate((e.id,)))
        singletons += 1
        manager.process(e)
    if stats is not None:
        stats.nodes_live_max = manager.nodes_live_max
        stats.guesses_live_max = manager.guesses_live_max
        stats.oracle_calls = singletons + manager.calls
    return manager.best()


def live_guess_bound(k: int, delta: float) -> int:
    """The guess-count cap: floor(log base (1+delta) of k(1+delta)/delta) + 1."""
    return geomgrid.live_guess_bound(1.0 + delta, k / delta)
