"""Semi-streaming maximum matching under adversarial injections.

The two-branch algorithm runs a full greedy maximal matching M1.  Branch 2
would match greedily on the same stream until it holds
``phase1_threshold(m_star)`` = ceil((1/2 - EPS) * m_star) edges, so its
matching is a prefix of M1 and branch 2 is described by that prefix's size
F alone: from the first edge where |M1| reaches F, that edge included, it
collects vertex-disjoint 3-augmenting paths for the first F edges of M1,
read in place from the shared M1, which only grows.  At stream end branch
2's size is F plus its collected paths; its augmentations are applied only
when that beats M1, and the larger branch is the output.  When m_star is
unknown, branch 2 is replicated for geometric guesses of it, one per
exponent of ``geomgrid.window`` around the live size of M1; the window is
looked up again only at the size where ``geomgrid.window_and_recheck`` says
it can move.  Every run reads its stream once, edge by edge.

One loop serves both runs; ``match_run`` is its case of one guess.  Each edge
is dispatched once, to only the branches it can feed.  Let lo and hi be the
smaller and larger M1 index of its endpoints (``Matching.index``; a vertex
outside M1 counts as |M1|).  The edge is a wing of the prefix of size S
exactly when lo < S <= hi: one end inside the prefix, one outside.  An edge
greedy has just taken has lo = hi and feeds no branch.  The live prefix sizes
are nondecreasing in exponent order: a guess joins only at the top of the
window, with S = max(|M1| at admission, its threshold), and both of those
only grow.  So the branches an edge feeds are one slice of them, found by two
``bisect_right`` calls over the sorted sizes.

EPS = 1/50 and BETA = (4 - 43 EPS) / (4 - 8 EPS) are the certified
constants of the analysis; they are fixed, not settings.

The path collector is a bounded-memory stand-in for the cited 3-Aug-Paths
subroutine, built to its contract: if the suffix holds BETA*|M| disjoint
3-augmenting paths it must return at least (BETA^2/32)*|M| of them using
O(|M|) space.  Internals: per matched vertex it stores the first two wing
edges with distinct free endpoints, in two dicts keyed by that vertex (its
first wing, its second wing) that hold the edges themselves: a wing's free
endpoint is its end that is not the key, so a stored wing makes no
container of its own.  It commits a path greedily as soon as both sides
of a center hold wings with unused distinct free endpoints.  Every wing
pair is tried when its later wing arrives and used vertices stay used, so
a final sweep over the centers would never commit a path.  Free-free edges
are ignored (they are not wings), as are edges between two matched
vertices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Hashable, Iterable, KeysView, Optional, Sequence

from . import geomgrid
from .errors import (
    InvalidInstanceError,
    InvariantError,
    PreconditionError,
    SizeLimitError,
)
from .values import _set, value_type

GENERAL_EXACT_LIMIT = 20
BIPARTITE_EXACT_LIMIT = 10**4
#: most live guesses, ``live_guess_bound(delta_guess)``, a guessed run may hold
GUESS_LIMIT = 10_000
#: wing slots per matched edge (2 per endpoint) plus the edge itself
COLLECTOR_SLOTS_PER_EDGE = 5


@value_type
class Edge:
    """Undirected edge; endpoints are normalized so u <= v."""

    u: Hashable
    v: Hashable

    def __init__(self, u: Hashable, v: Hashable) -> None:
        if u == v:
            raise InvalidInstanceError(f"self-loop at vertex {u!r}")
        try:
            swap = v < u
        except TypeError:
            swap = repr(v) < repr(u)
        if swap:
            u, v = v, u
        _set(self, "u", u)
        _set(self, "v", v)

    def other(self, w: Hashable) -> Hashable:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise PreconditionError(f"{w!r} is not an endpoint of {self}")

    def __repr__(self) -> str:
        return f"({self.u!r},{self.v!r})"


class Matching:
    """A set of vertex-disjoint edges with O(1) endpoint lookups and edits.

    Edges are kept in insertion order: a removed edge drops out and an added
    edge goes to the end, as with a list.  ``index`` maps each matched vertex
    to the number of edges held when its edge was added; while a matching
    only grows, that is the edge's position in ``edges``.
    """

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        self._edges: dict[Edge, None] = {}
        self.matched: dict[Hashable, Edge] = {}
        self.index: dict[Hashable, int] = {}
        for e in edges:
            self.add(e)

    @property
    def edges(self) -> KeysView[Edge]:
        """Read-only view of the edges in insertion order."""
        return self._edges.keys()

    def is_free(self, w: Hashable) -> bool:
        return w not in self.matched

    def add(self, e: Edge) -> None:
        if e.u in self.matched or e.v in self.matched:
            raise InvariantError(f"adding {e} would share a vertex")
        self.index[e.u] = self.index[e.v] = len(self._edges)
        self._edges[e] = None
        self.matched[e.u] = e
        self.matched[e.v] = e

    def remove(self, e: Edge) -> None:
        if self.matched.get(e.u) != e or self.matched.get(e.v) != e:
            raise InvariantError(f"{e} is not in the matching")
        del self._edges[e]
        del self.matched[e.u]
        del self.matched[e.v]
        del self.index[e.u]
        del self.index[e.v]

    def copy(self) -> "Matching":
        out = Matching()
        out._edges = dict(self._edges)
        out.matched = dict(self.matched)
        out.index = dict(self.index)
        return out

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, e: Edge) -> bool:
        return self.matched.get(e.u) is not None and self.matched[e.u] == e

    def __iter__(self):
        return iter(self._edges)

    def __repr__(self) -> str:
        return f"Matching({list(self._edges)!r})"


def validate_matching(m: Matching) -> None:
    seen: set = set()
    for e in m.edges:
        if e.u in seen or e.v in seen:
            raise InvariantError(f"matching shares vertex on {e}")
        seen.add(e.u)
        seen.add(e.v)


#: branch 2 freezes M1 at ceil((1/2 - EPS) * m_star) edges
EPS = Fraction(1, 50)
#: the collector contract's parameter
BETA = (4 - 43 * EPS) / (4 - 8 * EPS)


def phase1_threshold(m_star: int) -> int:
    """Size of the M1 prefix that branch 2 freezes: ceil((1/2 - EPS) * m_star)."""
    return math.ceil((Fraction(1, 2) - EPS) * m_star)


def greedy_step(M: Matching, e: Edge) -> Matching:
    """Add e iff both endpoints are free; otherwise leave M unchanged."""
    matched = M.matched
    if e.u not in matched and e.v not in matched:
        M.add(e)
    return M


def greedy_matching(stream: Iterable[Edge]) -> Matching:
    M = Matching()
    for e in stream:
        greedy_step(M, e)
    return M


@value_type
class AugPath:
    """A 3-augmenting path x - a - b - y: wings to free x, y around center in M."""

    wing_a: Edge
    center: Edge
    wing_b: Edge

    def __init__(self, wing_a: Edge, center: Edge, wing_b: Edge) -> None:
        _set(self, "wing_a", wing_a)
        _set(self, "center", center)
        _set(self, "wing_b", wing_b)

    def free_endpoints(self) -> tuple[Hashable, Hashable]:
        """x and y; InvariantError if a wing does not touch its end of the center."""
        try:
            return self.wing_a.other(self.center.u), self.wing_b.other(self.center.v)
        except PreconditionError:
            raise InvariantError(f"augmenting path wing off its center: {self}") from None


class AugPathStore:
    """Bounded-memory collector of vertex-disjoint 3-augmenting paths.

    Its frozen matching is the first ``size`` edges of M, all of M by
    default: in the two-branch algorithm, the prefix of M1 that branch 2
    froze, read in place.  M may keep growing while the store reads it, but
    edges are offered only once M holds ``size`` edges.  Per frozen vertex
    it keeps at most the first 2 wing edges with distinct free endpoints:
    ``first[vertex]`` and ``second[vertex]``, each the wing edge itself,
    whose free endpoint is its other end.  So stored edges never exceed
    COLLECTOR_SLOTS_PER_EDGE * size, independent of the stream length.
    """

    def __init__(self, M: Matching, size: Optional[int] = None) -> None:
        self.M = M
        self.size = len(M) if size is None else size
        # frozen vertex -> its first, its second wing; its center is M.matched[vertex]
        self.first: dict[Hashable, Edge] = {}
        self.second: dict[Hashable, Edge] = {}
        self.committed: dict[Edge, AugPath] = {}
        self.used: set = set()
        self.stored_wings = 0

    @property
    def max_slots(self) -> int:
        """Most edges held at once: the frozen matching's plus every stored wing.

        Wings are never dropped and the frozen prefix never changes, so the
        current count is the peak.
        """
        return self.size + self.stored_wings

    def offer(self, e: Edge) -> None:
        """One stream edge: store as a wing if eligible, then try to commit.

        Only pairs with the new wing are tried: every other pair of its
        center was tried when its own later wing arrived, and failed then
        for good, since ``used`` and ``committed`` only grow.  The first
        pair found is the one ``_try_commit`` would find.
        """
        u, v = e.u, e.v
        index, size = self.M.index, self.size
        if index.get(u, size) < size:
            if index.get(v, size) < size:
                return  # frozen-frozen: not a wing
            side, free = u, v
        elif index.get(v, size) < size:
            side, free = v, u
        else:
            return  # free-free: not a wing
        first, second = self.first, self.second
        held = first.get(side)
        if held is None:
            first[side] = e
        elif side not in second and (held.v if held.u == side else held.u) != free:
            second[side] = e
        else:
            return  # two wings already, or one to the same free end
        self.stored_wings += 1
        used = self.used
        if free in used:
            return
        center = self.M.matched[side]
        new_at_u = side == center.u
        other = center.v if new_at_u else center.u
        for wing in (first.get(other), second.get(other)):
            if wing is None:
                return
            y = wing.v if wing.u == other else wing.u
            if y in used or y == free:
                continue
            committed = self.committed
            if center not in committed:
                wing_a, wing_b = (e, wing) if new_at_u else (wing, e)
                committed[center] = AugPath(wing_a, center, wing_b)
                used.add(free)
                used.add(y)
            return

    def _try_commit(self, center: Edge) -> None:
        if center in self.committed:
            return
        a, b = center.u, center.v
        for wa in (self.first.get(a), self.second.get(a)):
            if wa is None:
                return
            x = wa.v if wa.u == a else wa.u
            if x in self.used:
                continue
            for wb in (self.first.get(b), self.second.get(b)):
                if wb is None:
                    break
                y = wb.v if wb.u == b else wb.u
                if y in self.used or y == x:
                    continue
                path = AugPath(wing_a=wa, center=center, wing_b=wb)
                self.committed[center] = path
                self.used.add(x)
                self.used.add(y)
                return

    def sweep(self) -> None:
        """Final pass over the frozen centers, in matching order; it commits nothing.

        ``offer`` tries every wing pair of a center when the later wing
        arrives, and ``used`` and ``committed`` only grow, so a pair that
        failed then fails here too.
        """
        for center in islice(self.M.edges, self.size):
            self._try_commit(center)

    def paths(self) -> list[AugPath]:
        """The committed paths in the frozen matching's order."""
        return [self.committed[c] for c in islice(self.M.edges, self.size) if c in self.committed]


def apply_augmentations(M: Matching, paths: Sequence[AugPath]) -> Matching:
    """Swap each path's center for its two wings; +1 edge per path."""
    out = M.copy()
    for p in paths:
        x, y = p.free_endpoints()
        if not (out.is_free(x) and out.is_free(y)):
            raise InvariantError(f"augmenting path endpoints not free: {p}")
        out.remove(p.center)
        out.add(p.wing_a)
        out.add(p.wing_b)
    validate_matching(out)
    return out


def _check_paths(store: AugPathStore) -> None:
    """Raise InvariantError unless the committed paths augment the frozen
    prefix: each center lies in it, each wing touches its center, and the
    free endpoints lie outside the prefix and are pairwise distinct.  These
    are the conditions ``apply_augmentations`` checks, in O(paths) instead
    of O(prefix)."""
    index, matched, size = store.M.index, store.M.matched, store.size
    free: set = set()
    for center, path in store.committed.items():
        a = center.u
        held = matched[a] if index.get(a, size) < size else None
        if not ((held is center or held == center)
                and (path.center is center or path.center == center)):
            raise InvariantError(f"augmenting path center not in the frozen matching: {path}")
        x, y = path.free_endpoints()
        if (index.get(x, size) < size or index.get(y, size) < size
                or x == y or x in free or y in free):
            raise InvariantError(f"augmenting path endpoints not free: {path}")
        free.add(x)
        free.add(y)


def _finish(m1: Matching, stores: Iterable[AugPathStore]) -> Matching:
    """The largest of M1 and the branches' augmented frozen prefixes.

    A branch's augmented size is its prefix size plus its committed paths,
    so only the winner is built: the earliest branch of the largest size,
    and M1 unless some branch beats it.  Every branch's paths are checked.
    """
    best, best_size = None, len(m1)
    for store in stores:
        if len(m1) < store.size:
            continue  # M1 never reached the prefix: branch 2 never froze
        _check_paths(store)
        augmented = store.size + len(store.committed)
        if augmented > best_size:
            best, best_size = store, augmented
    if best is None:
        return m1
    return apply_augmentations(Matching(islice(m1.edges, best.size)), best.paths())


def match_run(stream: Iterable[Edge], m_star: int) -> Matching:
    """The two-branch algorithm with known optimum size m_star.

    Branch 1 is plain greedy.  Branch 2 is the prefix of M1 of size
    phase1_threshold(m_star): from the edge where |M1| reaches it, it
    collects 3-augmenting paths for that prefix and augments the prefix at
    stream end.  Output: the larger branch.  The stream is read once, edge
    by edge.  It is the one-guess case of ``geometric_guess_run``'s loop.
    """
    if m_star < 1:
        raise PreconditionError("m_star must be >= 1")
    return _two_branch_run(stream, lambda size: (range(1), math.inf),
                           lambda i: phase1_threshold(m_star))[0]


@dataclass
class GuessRunStats:
    guesses_live_max: int = 0


def geometric_guess_run(
    stream: Iterable[Edge],
    delta_guess: float,
    stats: Optional[GuessRunStats] = None,
) -> Matching:
    """Two-branch runs for geometric guesses of m_star, windowed by |M1|.

    Active guesses are powers (1+delta)^i inside
    [|M1|/(1+delta), 4|M1|/(1-2 EPS)]; the window moves when |M1| grows.
    Each guess runs its own branch 2 on the shared M1: the prefix of M1 at
    that guess's threshold, or all of M1 if it already reaches the threshold
    when the guess is admitted.  A guess leaving the window is dismissed.
    Returns the best final matching over greedy and all surviving guesses:
    the lowest guess of the largest size, or M1 if no guess beats it.
    Time and memory grow as 1/delta_guess, so a delta_guess allowing more
    than ``GUESS_LIMIT`` live guesses is rejected.
    """
    if not 0 < delta_guess < 1:
        raise PreconditionError("delta_guess must lie in (0, 1)")
    guesses = live_guess_bound(delta_guess)
    if guesses > GUESS_LIMIT:
        raise SizeLimitError(f"delta_guess={delta_guess!r} allows {guesses} live guesses; "
                             f"guessed matching is guarded to {GUESS_LIMIT}")
    base, upper_coef = 1.0 + delta_guess, 4.0 / float(1 - 2 * EPS)
    out, live_max = _two_branch_run(stream,
                                    lambda size: geomgrid.window_and_recheck(size, base, upper_coef),
                                    lambda i: phase1_threshold(math.ceil(base**i)))
    if stats is not None:
        stats.guesses_live_max = live_max
    return out


def _two_branch_run(stream: Iterable[Edge], live_range: Callable[[int], tuple[range, float]],
                    threshold: Callable[[int], int]) -> tuple[Matching, int]:
    """One read of the stream: greedy M1, and a branch 2 for each exponent i
    of the live range at |M1|, admitted with prefix size max(|M1|, threshold(i))
    and dismissed when i leaves the range.  ``live_range(size)`` gives that
    range and a larger size below which it stays the same, so it is called
    again only from there.  Returns ``_finish``'s output and the most
    branches live at once."""
    m1 = Matching()
    index = m1.index
    window = range(0)             # the live exponents
    live: list[AugPathStore] = []  # their branches 2, in exponent order
    sizes: list[int] = []          # their prefix sizes, nondecreasing
    live_max = size = 0
    recheck = 1                    # the next |M1| at which the range may move
    for e in stream:
        greedy_step(m1, e)
        lo, hi = index.get(e.u, size), index.get(e.v, size)
        if lo > hi:
            lo, hi = hi, lo
        if lo == size:  # greedy took e: both ends got index size, so no wing
            size += 1
            if size < recheck:
                continue
            grown, recheck = live_range(size)
            if grown != window:
                kept = dict(zip(window, live))
                window = grown
                live = [kept[i] if i in kept else AugPathStore(m1, max(size, threshold(i)))
                        for i in window]
                sizes = [store.size for store in live]
                if any(a > b for a, b in zip(sizes, sizes[1:])):
                    raise InvariantError(f"guess prefix sizes decrease in exponent order: {sizes}")
                live_max = max(live_max, len(live))
            continue
        for store in live[bisect_right(sizes, lo):bisect_right(sizes, hi)]:
            store.offer(e)  # lo < store.size <= hi: e is a wing of its prefix
    return _finish(m1, live), live_max


def live_guess_bound(delta_guess: float) -> int:
    """The guess-count cap: floor(log base (1+delta) of 4(1+delta)/(1-2 EPS)) + 1."""
    return geomgrid.live_guess_bound(1.0 + delta_guess, 4.0 / float(1 - 2 * EPS))


# ---------------------------------------------------------------------------
# exact oracles


def exact_max_matching(edges: Iterable[Edge]) -> Matching:
    """Maximum-cardinality matching: Hopcroft-Karp on bipartite graphs
    (up to 10^4 vertices), subset DP on general graphs (up to 20 vertices).
    """
    edge_list = _dedup(edges)
    vertices = sorted({w for e in edge_list for w in (e.u, e.v)}, key=repr)
    if not edge_list:
        return Matching()
    coloring = _two_color(vertices, edge_list)
    if coloring is not None:
        if len(vertices) > BIPARTITE_EXACT_LIMIT:
            raise SizeLimitError(
                f"bipartite exact matching guarded to {BIPARTITE_EXACT_LIMIT} vertices"
            )
        return _bipartite_max_matching(vertices, edge_list, coloring)
    if len(vertices) > GENERAL_EXACT_LIMIT:
        raise SizeLimitError(
            f"general exact matching guarded to {GENERAL_EXACT_LIMIT} vertices"
        )
    return _max_matching_dp(vertices, edge_list)


def _dedup(edges: Iterable[Edge]) -> list[Edge]:
    seen: set = set()
    out = []
    for e in edges:
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def _two_color(vertices: list, edges: list[Edge]) -> Optional[dict]:
    adj: dict = {w: [] for w in vertices}
    for e in edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    color: dict = {}
    for start in vertices:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            w = queue.pop()
            for nb in adj[w]:
                if nb not in color:
                    color[nb] = 1 - color[w]
                    queue.append(nb)
                elif color[nb] == color[w]:
                    return None
    return color


def _bipartite_max_matching(vertices: list, edges: list[Edge], color: dict) -> Matching:
    """Bipartite maximum matching via scipy's csgraph routine."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    left = [w for w in vertices if color[w] == 0]
    right = [w for w in vertices if color[w] == 1]
    li = {w: i for i, w in enumerate(left)}
    ri = {w: i for i, w in enumerate(right)}
    rows, cols = [], []
    for e in edges:
        l, r = (e.u, e.v) if color[e.u] == 0 else (e.v, e.u)
        rows.append(li[l])
        cols.append(ri[r])
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(len(left), len(right)),
    )
    col_of_row = maximum_bipartite_matching(graph, perm_type="column")
    out = Matching()
    for i, j in enumerate(col_of_row):
        if j >= 0:
            out.add(Edge(left[i], right[int(j)]))
    return out


def _max_matching_dp(vertices: list, edges: list[Edge]) -> Matching:
    """Subset DP over vertices; reconstruction by walking the dp table."""
    import numpy as np

    n = len(vertices)
    idx = {w: i for i, w in enumerate(vertices)}
    adj_mask = [0] * n
    for e in edges:
        iu, iv = idx[e.u], idx[e.v]
        adj_mask[iu] |= 1 << iv
        adj_mask[iv] |= 1 << iu
    dp = np.zeros(1 << n, dtype=np.int8)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        best = dp[rest]  # leave v unmatched
        cand = adj_mask[v] & rest
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            u = ubit.bit_length() - 1
            val = 1 + dp[rest ^ ubit]
            if val > best:
                best = val
        dp[mask] = best
    out = Matching()
    mask = (1 << n) - 1
    while mask:
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        if dp[mask] == dp[rest]:
            mask = rest
            continue
        cand = adj_mask[v] & rest
        while cand:
            ubit = cand & -cand
            cand ^= ubit
            if dp[mask] == 1 + dp[rest ^ ubit]:
                u = ubit.bit_length() - 1
                out.add(Edge(vertices[v], vertices[u]))
                mask = rest ^ ubit
                break
        else:
            raise InvariantError("dp reconstruction failed")
    return out


@dataclass
class RobustGreedyReport:
    base_size: int
    deleted_sizes: list[int]
    violations: list[int]  # deletion positions where | |M| - |M'| | > 1

    @property
    def ok(self) -> bool:
        return not self.violations


def robust_greedy_check(stream: Sequence[Edge]) -> RobustGreedyReport:
    """Rerun greedy with each single edge deleted; sizes may differ by <= 1."""
    edges = list(stream)
    base = len(greedy_matching(edges))
    sizes = []
    violations = []
    for i in range(len(edges)):
        size = len(greedy_matching(edges[:i] + edges[i + 1 :]))
        sizes.append(size)
        if abs(size - base) > 1:
            violations.append(i)
    return RobustGreedyReport(base_size=base, deleted_sizes=sizes, violations=violations)
