"""Ground sets, submodular oracles, and exact baselines.

Shipped function families: coverage (count points covered by a union of
point sets), weighted coverage, and additive.  Coverage and additive oracles
return exact integers (or exact rationals if the weights are), which the tree
algorithm's dedup-by-gain rule relies on in tests; a float-valued oracle works
too but comparisons then use a 1e-9 tolerance where the library compares
values.

Every oracle counts its evaluations, one counter per oracle instance.  A
run reports the difference of two readings (``RunStats.oracle_calls``), so
one oracle can serve every run of a trial.

Besides ``evaluate`` on a set, every oracle offers the batched extension the
prefix tree and the exact optimum ``brute_force_opt`` run on:
``empty_states(n)`` gives n rows of per-set state for the empty set, and
``extend_states(states, values, e)`` maps rows (S, f(S)) to (S + e,
f(S + e)), counting one call per row.  Coverage keeps its rows as bit-packed
point masks; the other oracles use the base class, which keeps frozensets
and calls ``_eval``, so any subclass works.  ``brute_force_opt`` builds the
subsets one size at a time on these rows; ``evaluate`` on an arbitrary set
is left to the axiom checks (and the optimum's one f(empty)).
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from .errors import InvariantError, PreconditionError, SizeLimitError

FLOAT_TOL = 1e-9
AXIOM_EXHAUSTIVE_LIMIT = 12
BRUTE_FORCE_GUARD = 10**6


@dataclass(frozen=True)
class GroundSet:
    members: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise InvariantError("ground set ids must be unique")

    @property
    def n(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Solution:
    """A feasible set together with its cached oracle value."""

    elements: frozenset
    value: object  # int, Fraction, or float depending on the oracle

    def __repr__(self) -> str:  # stable ordering for logs
        ids = ", ".join(repr(e) for e in sorted(self.elements, key=repr))
        return f"Solution({{{ids}}}, value={self.value})"


class SubmodularOracle:
    """Base oracle: normalized (f(empty)=0), monotone, submodular by contract.

    Subclasses implement ``_eval`` on a frozenset of element ids.  ``evaluate``
    counts calls; ``marginal_from`` lets a caller reuse an already-known f(S)
    so one new evaluation suffices, which is how the prefix tree keeps its
    per-element oracle cost at one call per node.
    """

    #: True when values are exact (int / Fraction); enables tolerance-free tests.
    exact = True

    def __init__(self) -> None:
        self.call_counter = 0

    def _eval(self, ids: frozenset):
        raise NotImplementedError

    def evaluate(self, ids: Iterable[Hashable]):
        s = frozenset(ids)
        self.call_counter += 1
        return self._eval(s)

    def marginal_from(self, e: Hashable, ids: frozenset, base):
        """f(e | ids) given base = f(ids); exactly one new evaluation."""
        if e in ids:
            raise PreconditionError(f"element {e!r} already in the set")
        return self.evaluate(ids | {e}) - base

    def empty_states(self, n: int):
        """(states, values): n rows holding the empty set and f(empty) = 0.

        Row i of ``states`` is whatever per-set state ``extend_states``
        needs; the fallback keeps the set itself as a frozenset.
        """
        return _frozenset_rows(n), np.zeros(n, dtype=object)

    def extend_states(self, states, values, e: Hashable):
        """Batched extension: rows (S, f(S)) -> (S + e, f(S + e)).

        ``states``/``values`` are row arrays in the layout of
        :meth:`empty_states`; e must not be in any row's set.  Counts one
        oracle call per row, as one ``marginal_from`` per row would.
        """
        self.call_counter += len(values)
        new_states = _frozenset_rows(len(values))
        new_values = np.empty(len(values), dtype=object)
        for i, s in enumerate(states):
            new_states[i] = s | {e}
            new_values[i] = self._eval(new_states[i])
        return new_states, new_values


def _frozenset_rows(n: int) -> np.ndarray:
    rows = np.empty(n, dtype=object)
    rows.fill(frozenset())
    return rows


def marginal(oracle: SubmodularOracle, e: Hashable, S: Iterable[Hashable]):
    """f(e | S) = f(S + e) - f(S).  Two evaluations (one if you cache f(S))."""
    s = frozenset(S)
    if e in s:
        raise PreconditionError(f"element {e!r} already in the set")
    return oracle.evaluate(s | {e}) - oracle.evaluate(s)


@dataclass(frozen=True)
class CoverageInstance:
    """Rectangles-and-dots style coverage: element id -> set of covered points."""

    rect_of: Mapping[Hashable, frozenset]

    @property
    def universe(self) -> frozenset:
        out: set = set()
        for pts in self.rect_of.values():
            out |= pts
        return frozenset(out)

    def ground_set(self) -> GroundSet:
        return GroundSet(tuple(self.rect_of.keys()))


class CoverageOracle(SubmodularOracle):
    """f(S) = number of points covered by the union of S's point sets.

    Points are bit-packed so an evaluation is an integer-or and a popcount,
    which keeps the long-stream memory experiments cheap.  Batched states are
    the same masks as rows of ``words`` uint64 words, so one extension is a
    row-wise or and ``np.bitwise_count``.
    """

    def __init__(self, instance: CoverageInstance) -> None:
        super().__init__()
        points = sorted(instance.universe, key=repr)
        bit = {p: 1 << i for i, p in enumerate(points)}
        self._mask = {
            eid: sum(bit[p] for p in pts) for eid, pts in instance.rect_of.items()
        }
        self.words = max(1, -(-len(points) // 64))
        packed = b"".join(m.to_bytes(8 * self.words, "little") for m in self._mask.values())
        table = np.frombuffer(packed, dtype="<u8").reshape(len(self._mask), self.words)
        self._row = dict(zip(self._mask, table))

    def _eval(self, ids: frozenset) -> int:
        m = 0
        for e in ids:
            m |= self._mask[e]
        return m.bit_count()

    def empty_states(self, n: int):
        return np.zeros((n, self.words), dtype=np.uint64), np.zeros(n, dtype=np.int64)

    def extend_states(self, states, values, e: Hashable):
        self.call_counter += len(values)
        covered = states | self._row[e]
        counts = np.bitwise_count(covered)
        return covered, counts[:, 0] if self.words == 1 else counts.sum(axis=1, dtype=np.int64)


def _check_weight(w, what: str) -> None:
    """InvariantError unless ``w`` is finite and >= 0; ints and Fractions of any size pass."""
    if not w >= 0 or w == math.inf:          # NaN fails every comparison
        raise InvariantError(f"weight for {what} must be finite and >= 0, got {w!r}")


class WeightedCoverageOracle(SubmodularOracle):
    """f(S) = total weight of points covered by S; weights must be finite and >= 0."""

    def __init__(self, instance: CoverageInstance, weights: Mapping[Hashable, object]) -> None:
        super().__init__()
        self.instance = instance
        self.weights = dict(weights)
        for p in instance.universe:
            _check_weight(self.weights.get(p, 0), f"point {p!r}")
        self.exact = not any(isinstance(w, float) for w in self.weights.values())

    def _eval(self, ids: frozenset):
        covered: set = set()
        for e in ids:
            covered |= self.instance.rect_of[e]
        total = 0
        for p in covered:
            total += self.weights.get(p, 0)
        return total


class AdditiveOracle(SubmodularOracle):
    """f(S) = sum of per-element weights (modular; weights finite and >= 0)."""

    def __init__(self, weights: Mapping[Hashable, object]) -> None:
        super().__init__()
        self.weights = dict(weights)
        for e, w in self.weights.items():
            _check_weight(w, f"element {e!r}")
        self.exact = not any(isinstance(w, float) for w in self.weights.values())

    def _eval(self, ids: frozenset):
        total = 0
        for e in ids:
            total += self.weights[e]
        return total


def brute_force_opt(oracle: SubmodularOracle, ground: GroundSet, k: int) -> Solution:
    """Exhaustive optimum over subsets of size <= k, one size at a time.

    Members are sorted by repr.  Level j, the j-subsets, is a block of the
    oracle's batched rows (``empty_states``/``extend_states``) in
    ``itertools.combinations`` order, so it is grouped by least member and
    the rows whose least member is above i are a suffix.  Member i extends
    that suffix of level j with one ``extend_states`` call, which gives
    group i of level j + 1.  A row's parent sits at the same offset in that
    suffix, so rows carry no member lists: a winner is read back from the
    offsets where each level's groups start.  Rows of least member 0 are
    never extended and are not kept, and level k is reduced group by group
    and not kept, so a pass over m members holds at most
    R = max_{j < k} C(m, j) rows at once, besides the group being extended
    (at most R more).

    Peak memory does not grow with the row width (a coverage row is one
    uint64 word per 64 points): when R rows would take more than
    ``8 * BRUTE_FORCE_GUARD`` bytes (8 MB, one word per subset the guard
    admits), the search splits on the least member instead: it extends the
    prefix's row by each member in turn and searches the members above it,
    splitting again while they are too many, so the rows held stay under
    about 16 MB however wide they are.

    Deterministic tie-break, as a scan of the sizes in order and of the
    combinations within a size that keeps a set only when it is strictly
    better: among maximum-value sets the smallest size wins, then the
    lexicographically smallest tuple of sorted ids (so the empty set beats
    any equal-valued nonempty set); a NaN value never wins.  Float values
    match the scan's within ``FLOAT_TOL`` but may come from a different
    near-tied set, since a set's floats may be summed in another order.
    Values are Python scalars.  Counts 1 + sum over 1 <= j <= k of C(n, j)
    oracle calls.  Guarded by C(n, k) <= 10^6; ``k`` must be an int.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise PreconditionError(f"k must be an int; got k={k!r}")
    n = ground.n
    k = min(int(k), n)
    if k < 0:
        raise PreconditionError("k must be >= 0")
    if math.comb(n, k) > BRUTE_FORCE_GUARD:
        raise SizeLimitError(f"C({n}, {k}) exceeds the brute-force guard {BRUTE_FORCE_GUARD}")
    # best[j]: the first maximum among the j-sets, as (value, members)
    best = [(oracle.evaluate(()), [])] + [(-math.inf, [])] * k
    states, values = oracle.empty_states(1)
    _search(oracle, states, values, [], sorted(ground.members, key=repr), k, best)
    best_val, ids = best[0]
    for val, found in best[1:]:
        if val > best_val:
            best_val, ids = val, found
    if isinstance(best_val, np.generic):
        best_val = best_val.item()
    return Solution(elements=frozenset(ids), value=best_val)


def _search(oracle, states, values, prefix: list, members: list, k: int, best: list) -> None:
    """Offer every set ``prefix`` + S to ``best``, S a nonempty subset of
    ``members`` of size <= k, sizes one at a time and each in combinations
    order; ``states``/``values`` is the one row of ``prefix``."""
    n = len(members)
    k = min(k, n)
    t = len(prefix)
    row_bytes = states.nbytes + values.itemsize
    if k > 1 and math.comb(n, min(k - 1, n // 2)) * row_bytes > 8 * BRUTE_FORCE_GUARD:
        for i, e in enumerate(members):
            child_states, child_values = oracle.extend_states(states, values, e)
            _, val = _first_max(child_values)
            if val > best[t + 1][0]:
                best[t + 1] = (val, prefix + [e])
            _search(oracle, child_states, child_values, prefix + [e], members[i + 1 :], k - 1, best)
        return
    starts = [[0] * (n + 1)]  # level 0: the prefix row lies past every member
    base = 0  # row number of states[0]; rows of least member 0 are never extended
    for j in range(1, k + 1):
        prev = starts[-1]
        total = base + len(values)
        here = list(itertools.accumulate((total - prev[i + 1] for i in range(n)), initial=0))
        keep = j < k
        if keep:
            level_states = np.empty_like(states, shape=(here[n] - here[1],) + states.shape[1:])
            level_values = np.empty_like(values, shape=here[n] - here[1])
        for i in range(n - j + 1):
            lo = prev[i + 1] - base
            new_states, new_values = oracle.extend_states(states[lo:], values[lo:], members[i])
            at, val = _first_max(new_values)
            if val > best[t + j][0]:
                best[t + j] = (val, prefix + _rebuild(j, i, at, starts, members))
            if keep and i:
                level_states[here[i] - here[1] : here[i + 1] - here[1]] = new_states
                level_values[here[i] - here[1] : here[i + 1] - here[1]] = new_values
            del new_states, new_values  # before the next group's extension
        if keep:
            states, values, base = level_states, level_values, here[1]
            starts.append(here)


def _first_max(values):
    """(index, value) of the first maximum of a row array; NaN rows never win."""
    if values.dtype.kind in "fO":
        nan = values != values
        if nan.any():
            values = np.where(nan, -math.inf, values)
    at = int(values.argmax())
    return at, values[at]


def _rebuild(j: int, i: int, at: int, starts: list, members: list) -> list:
    """The members of row ``at`` of group i (least member i) of level j,
    read back through the levels' group ``starts``."""
    ids: list = []
    while True:
        ids.append(members[i])
        row = starts[j - 1][i + 1] + at
        j -= 1
        if j == 0:
            return ids
        i = bisect.bisect_right(starts[j], row) - 1
        at = row - starts[j][i]


@dataclass
class AxiomReport:
    """Violations found by :func:`verify_axioms`; all lists empty means pass."""

    n: int
    exhaustive: bool
    normalization_violation: bool
    monotonicity_violations: list
    submodularity_violations: list

    @property
    def ok(self) -> bool:
        return (
            not self.normalization_violation
            and not self.monotonicity_violations
            and not self.submodularity_violations
        )

    def __str__(self) -> str:
        if self.ok:
            mode = "exhaustive" if self.exhaustive else "sampled"
            return f"axioms ok (n={self.n}, {mode})"
        return (
            f"axiom violations: normalization={self.normalization_violation}, "
            f"monotone={len(self.monotonicity_violations)}, "
            f"submodular={len(self.submodularity_violations)}"
        )


def verify_axioms(
    oracle: SubmodularOracle,
    ground: GroundSet,
    sample_pairs: int = 2000,
    seed: int = 0,
) -> AxiomReport:
    """Check f(empty)=0, monotonicity, and submodularity.

    Exhaustive over all (S, T) pairs for n <= 12 (vectorized over bitmask
    tables); for larger ground sets a seeded sample of pairs is checked.
    Exact oracles are compared exactly, float-valued ones with a 1e-9 slack.
    """
    n = ground.n
    members = sorted(ground.members, key=repr)
    tol = 0 if oracle.exact else FLOAT_TOL
    exhaustive = n <= AXIOM_EXHAUSTIVE_LIMIT

    def subset(mask: int) -> frozenset:
        return frozenset(members[i] for i in range(n) if mask >> i & 1)

    norm_bad = oracle.evaluate(()) != 0
    mono: list = []
    sub: list = []
    if exhaustive:
        raw = [oracle.evaluate(subset(m)) for m in range(1 << n)]
        if oracle.exact:
            # scale rationals onto a common integer grid so the vectorized
            # comparisons stay exact (float64 would round thirds etc.)
            fracs = [Fraction(v) for v in raw]
            denom = 1
            for f in fracs:
                denom = math.lcm(denom, f.denominator)
            scaled = [f.numerator * (denom // f.denominator) for f in fracs]
            if max((abs(x) for x in scaled), default=0) < 2**62:
                vals = np.array(scaled, dtype=np.int64)
            else:
                vals = np.array(fracs, dtype=object)
        else:
            vals = np.array([float(v) for v in raw])
        masks = np.arange(1 << n)
        t = masks[None, :]
        # row blocks keep the 2^n x 2^n pair tables at a few MB
        block = 512
        for lo in range(0, 1 << n, block):
            s = masks[lo : lo + block, None]
            is_subset = (s & t) == s
            mono_bad = is_subset & (vals[s] > vals[t] + tol)
            sub_bad = vals[s] + vals[t] < vals[s | t] + vals[s & t] - tol
            for i, j in zip(*np.nonzero(mono_bad)):
                if len(mono) < 20:
                    mono.append((subset(int(i) + lo), subset(int(j))))
            for i, j in zip(*np.nonzero(sub_bad)):
                if int(i) + lo <= int(j) and len(sub) < 20:
                    sub.append((subset(int(i) + lo), subset(int(j))))
    else:
        rng = np.random.Generator(np.random.Philox(key=seed))
        for _ in range(sample_pairs):
            bits_s = int(rng.integers(0, 1 << n))
            bits_t = int(rng.integers(0, 1 << n))
            S, T = subset(bits_s), subset(bits_t)
            fS, fT = oracle.evaluate(S), oracle.evaluate(T)
            if S <= T and fS > fT + tol:
                mono.append((S, T))
            if fS + fT < oracle.evaluate(S | T) + oracle.evaluate(S & T) - tol:
                sub.append((S, T))
    return AxiomReport(
        n=n,
        exhaustive=exhaustive,
        normalization_violation=bool(norm_bad),
        monotonicity_violations=mono,
        submodularity_violations=sub,
    )


def figure2_instance() -> tuple[CoverageInstance, int]:
    """The four-rectangles, six-dots coverage instance with k=2.

    Rectangle A covers 2 dots, B covers 4 (one shared with A), C covers 2
    (one shared with B), D covers 1 (shared with C).  The best pair covers 5.
    """
    rects = {
        "A": frozenset({"d5", "d6"}),
        "B": frozenset({"d1", "d2", "d4", "d5"}),
        "C": frozenset({"d2", "d3"}),
        "D": frozenset({"d3"}),
    }
    return CoverageInstance(rect_of=rects), 2
