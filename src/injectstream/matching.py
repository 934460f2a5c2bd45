"""Semi-streaming maximum matching under adversarial injections.

The two-branch algorithm runs a full greedy maximal matching M1.  Branch 2
would match greedily on the same stream until it holds
``phase1_threshold(m_star)`` = ceil((1/2 - EPS) * m_star) edges, so its
matching is a prefix of M1 and branch 2 is described by that prefix's size
F alone: from the first edge where |M1| reaches F, that edge included, it
collects vertex-disjoint 3-augmenting paths for the first F edges of M1,
read in place from the shared M1, which only grows.  The collected
augmentations are applied at stream end and the larger of the two branches
is the output.  When m_star is unknown, branch 2 is replicated for
geometric guesses of it, kept in the shared window of
``geomgrid.update_window`` around the live size of M1.  Every run reads its
stream once, edge by edge.

EPS = 1/50 and BETA = (4 - 43 EPS) / (4 - 8 EPS) are the certified
constants of the analysis; they are fixed, not settings.

The path collector is a bounded-memory stand-in for the cited 3-Aug-Paths
subroutine, built to its contract: if the suffix holds BETA*|M| disjoint
3-augmenting paths it must return at least (BETA^2/32)*|M| of them using
O(|M|) space.  Internals: per matched vertex it stores the first two wing
edges with distinct free endpoints and commits a path greedily as soon as
both sides of a center hold wings with unused distinct free endpoints.
Every wing pair is tried when its later wing arrives and used vertices stay
used, so a final sweep over the centers would never commit a path.
Free-free edges are ignored (they are not wings), as are edges between two
matched vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Hashable, Iterable, KeysView, Optional, Sequence

from . import geomgrid
from .errors import (
    InvalidInstanceError,
    InvariantError,
    PreconditionError,
    SizeLimitError,
)

GENERAL_EXACT_LIMIT = 20
BIPARTITE_EXACT_LIMIT = 10**4
#: wing slots per matched edge (2 per endpoint) plus the edge itself
COLLECTOR_SLOTS_PER_EDGE = 5


@dataclass(frozen=True)
class Edge:
    """Undirected edge; endpoints are normalized so u <= v."""

    u: Hashable
    v: Hashable

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise InvalidInstanceError(f"self-loop at vertex {self.u!r}")
        a, b = self.u, self.v
        try:
            swap = b < a
        except TypeError:
            swap = repr(b) < repr(a)
        if swap:
            object.__setattr__(self, "u", b)
            object.__setattr__(self, "v", a)

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
    if M.is_free(e.u) and M.is_free(e.v):
        M.add(e)
    return M


def greedy_matching(stream: Iterable[Edge]) -> Matching:
    M = Matching()
    for e in stream:
        greedy_step(M, e)
    return M


@dataclass(frozen=True)
class AugPath:
    """A 3-augmenting path x - a - b - y: wings to free x, y around center in M."""

    wing_a: Edge
    center: Edge
    wing_b: Edge

    def free_endpoints(self) -> tuple[Hashable, Hashable]:
        x = self.wing_a.other(self.center.u)
        y = self.wing_b.other(self.center.v)
        return x, y

    def vertices(self) -> frozenset:
        x, y = self.free_endpoints()
        return frozenset({x, self.center.u, self.center.v, y})


class AugPathStore:
    """Bounded-memory collector of vertex-disjoint 3-augmenting paths.

    Its frozen matching is the first ``size`` edges of M, all of M by
    default: in the two-branch algorithm, the prefix of M1 that branch 2
    froze, read in place.  M may keep growing while the store reads it, but
    edges are offered only once M holds ``size`` edges.  Per frozen vertex
    it keeps at most the first 2 wing edges with distinct free endpoints,
    so stored edges never exceed COLLECTOR_SLOTS_PER_EDGE * size,
    independent of the stream length.
    """

    def __init__(self, M: Matching, size: Optional[int] = None) -> None:
        self.M = M
        self.size = len(M) if size is None else size
        # wings[frozen vertex] -> list of (wing edge, free endpoint), made on
        # the vertex's first wing; its center is M.matched[vertex]
        self.wings: dict[Hashable, list] = {}
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
        """One stream edge: store as a wing if eligible, then try to commit."""
        index, size = self.M.index, self.size
        u_frozen = index.get(e.u, size) < size
        if u_frozen == (index.get(e.v, size) < size):
            return  # free-free or frozen-frozen: not a wing
        side, free = (e.u, e.v) if u_frozen else (e.v, e.u)
        slots = self.wings.get(side)
        if slots is None:
            slots = self.wings[side] = []
        elif len(slots) >= 2 or any(w == free for _, w in slots):
            return
        slots.append((e, free))
        self.stored_wings += 1
        self._try_commit(self.M.matched[side])

    def _try_commit(self, center: Edge) -> None:
        if center in self.committed:
            return
        for wa, x in self.wings.get(center.u, ()):
            if x in self.used:
                continue
            for wb, y in self.wings.get(center.v, ()):
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


def three_aug_paths(M: Matching, suffix: Iterable[Edge]) -> list[AugPath]:
    """Collect vertex-disjoint 3-augmenting paths for frozen M from a stream."""
    store = AugPathStore(M)
    for e in suffix:
        store.offer(e)
    return store.paths()


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


def _finish(m1: Matching, store: AugPathStore) -> Matching:
    """The larger of M1 and the store's augmented frozen prefix (M1 on ties)."""
    if len(m1) < store.size:
        return m1  # M1 never reached the prefix: branch 2 never froze
    m2 = apply_augmentations(Matching(islice(m1.edges, store.size)), store.paths())
    return m2 if len(m2) > len(m1) else m1


def match_run(stream: Iterable[Edge], m_star: int) -> Matching:
    """The two-branch algorithm with known optimum size m_star.

    Branch 1 is plain greedy.  Branch 2 is the prefix of M1 of size
    phase1_threshold(m_star): from the edge where |M1| reaches it, it
    collects 3-augmenting paths for that prefix and augments the prefix at
    stream end.  Output: the larger branch.  The stream is read once, edge
    by edge.
    """
    if m_star < 1:
        raise PreconditionError("m_star must be >= 1")
    m1 = Matching()
    store = AugPathStore(m1, phase1_threshold(m_star))
    for e in stream:
        greedy_step(m1, e)
        if len(m1) >= store.size:
            store.offer(e)
    return _finish(m1, store)


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
    Returns the best final matching over greedy and all surviving guesses.
    """
    if not 0 < delta_guess < 1:
        raise PreconditionError("delta_guess must lie in (0, 1)")
    base = 1.0 + delta_guess
    upper_coef = 4.0 / float(1 - 2 * EPS)
    m1 = Matching()
    stores: dict[int, AugPathStore] = {}
    live_max = size = 0
    for e in stream:
        greedy_step(m1, e)
        if len(m1) > size:
            size = len(m1)
            geomgrid.update_window(
                stores, size, base, upper_coef,
                lambda i: AugPathStore(m1, max(size, phase1_threshold(math.ceil(base**i)))),
            )
            live_max = max(live_max, len(stores))
        for store in stores.values():
            if size >= store.size:
                store.offer(e)
    if stats is not None:
        stats.guesses_live_max = live_max
    best = m1
    for i in sorted(stores):
        out = _finish(m1, stores[i])
        if len(out) > len(best):
            best = out
    return best


def live_guess_bound(delta_guess: float) -> int:
    """Ceiling of log base (1+delta) of 4(1+delta)/(1-2 EPS)."""
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


# ---------------------------------------------------------------------------
# analysis oracles


def count_3_augmentable(M: Matching, M_star: Matching) -> int:
    """Number of M-edges that are middles of M*-M-M* 3-augmenting paths.

    An edge (a,b) of M qualifies iff both endpoints have M*-partners and
    both partners are M-free.  Requires M maximal in the union graph (the
    Lemma's hypothesis); violations raise.
    """
    validate_matching(M)
    validate_matching(M_star)
    for e in M_star.edges:
        if M.is_free(e.u) and M.is_free(e.v):
            raise PreconditionError(f"M not maximal in the union graph: {e} is free-free")
    count = 0
    for e in M.edges:
        pa = M_star.matched.get(e.u)
        pb = M_star.matched.get(e.v)
        if pa is None or pb is None:
            continue
        x = pa.other(e.u)
        y = pb.other(e.v)
        if M.is_free(x) and M.is_free(y):
            count += 1
    return count


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
