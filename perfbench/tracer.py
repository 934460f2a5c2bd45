"""Span tracer that wraps injectstream's public functions from the outside.

Wrappers replace module and class attributes that callers look up at call
time (for example ``harness.build_stream`` or ``SubmodularOracle.evaluate``),
so the library itself is never edited.  Each call records a span: name,
start, end, parent span and the current run id.  Calls of the hot leaf
functions (one oracle evaluation, one bucket key, one greedy step, ...) are
folded into per-(parent span, name) aggregates of count and total time, which
keeps memory bounded while still giving every parent its exact child time.
Spans stay in memory until the run ends.

Count hooks read public fields at the same boundaries: ``RunStats`` and
``GuessRunStats`` handed to the algorithms, the tree's node list, the path
collector's ``stored_wings``/``committed``, and the recurrence table's
``exact_comparisons``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Callable, Optional

ROOT = None  # parent span id of top-level spans


class Tracer:
    """Records spans and counts; ``install``/``uninstall`` patch the library."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.run_id: tuple = (workload, None, None, None)
        self.spans: list[tuple] = []        # (id, name, parent, run_id, start, end)
        self.folded: dict = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name,
        *,
        leaf: bool = False,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or, for non-leaf spans, a callable
        (args, kwargs) -> name.  A ``leaf`` is folded into its parent's
        aggregate instead of recording a span per call.
        ``pre(args, kwargs)`` runs before the call and its result is handed
        to ``post(token, args, kwargs, result)`` after it.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        clock = time.perf_counter

        if leaf:
            def wrapper(*args, **kwargs):
                token = pre(args, kwargs) if pre else None
                start = clock()
                result = original(*args, **kwargs)
                agg = tracer.folded[(tracer._stack[-1] if tracer._stack else ROOT, name)]
                agg[0] += 1
                agg[1] += clock() - start
                if post:
                    post(token, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                token = pre(args, kwargs) if pre else None
                span_name = name if isinstance(name, str) else name(args, kwargs)
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = tracer._stack[-1] if tracer._stack else ROOT
                run_id = tracer.run_id
                tracer._stack.append(span_id)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    tracer._stack.pop()
                    tracer.spans.append((span_id, span_name, parent, run_id, start, end))
                if post:
                    post(token, args, kwargs, result)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the public functions of every layer (see README.md, Tracing)."""
        from injectstream import (
            cli, generators, harness, matching, stream_model, submodular, tree_stream,
        )

        # harness / cli
        self.wrap(cli, "run_experiment", "harness.run_experiment",
                  pre=self._enter_experiment, post=self._count_csv)
        self.wrap(harness, "run_experiment", "harness.run_experiment",
                  pre=self._enter_experiment, post=self._count_csv)
        self.wrap(harness, "compute_table", _table_span, post=self._count_table)

        # stream_model (with rng)
        for owner in (harness, stream_model):
            self.wrap(owner, "build_stream", "stream_model.build_stream",
                      pre=self._enter_stream, post=self._count_stream)

        # generators and the submodular checks they run
        for owner in (harness, generators):
            self.wrap(owner, "generate_submod_instance", "generators.generate_submod_instance")
            self.wrap(owner, "make_plan", "generators.make_plan")
            self.wrap(owner, "brute_force_opt", "submodular.brute_force_opt")
        self.wrap(generators, "verify_axioms", "submodular.verify_axioms")
        self.wrap(harness, "generate_matching_instance", "generators.generate_matching_instance")
        self.wrap(harness, "edges_from_stream", "generators.edges_from_stream")

        # submodular oracle
        self.wrap(submodular.SubmodularOracle, "evaluate", "submodular.evaluate", leaf=True)

        # tree_stream (with geomgrid, reached through the guess manager)
        for owner in (harness, tree_stream):
            self.wrap(owner, "run_tree_stream", "tree_stream.run_tree_stream",
                      post=self._count_run_stats)
            self.wrap(owner, "guess_run", "tree_stream.guess_run", post=self._count_run_stats)
        self.wrap(tree_stream, "tree_process", "tree_stream.tree_process",
                  pre=_node_count, post=self._count_nodes)
        self.wrap(tree_stream.IncreaseBuckets, "key", "tree_stream.bucket_key", leaf=True)
        self.wrap(tree_stream.GuessManager, "observe", "tree_stream.guess_observe")
        self.wrap(tree_stream, "best_solution", "tree_stream.best_solution")

        # matching
        self.wrap(harness, "greedy_matching", "matching.greedy_matching")
        self.wrap(harness, "match_run", "matching.match_run")
        self.wrap(harness, "geometric_guess_run", "matching.geometric_guess_run",
                  post=self._count_guess_stats)
        self.wrap(matching, "greedy_step", "matching.greedy_step", leaf=True)
        self.wrap(matching.AugPathStore, "offer", "matching.offer", leaf=True,
                  pre=_collector_state, post=self._count_collector)
        self.wrap(matching.AugPathStore, "sweep", "matching.sweep",
                  pre=_collector_state, post=self._count_collector)
        self.wrap(matching.Matching, "remove", "matching.remove", leaf=True)
        self.wrap(matching.Matching, "copy", "matching.copy")
        self.wrap(matching, "apply_augmentations", "matching.apply_augmentations")

    # -- run ids and count hooks ------------------------------------------

    def set_run(self, *parts) -> None:
        """Run id = (workload, trial seed, perm index, mode)."""
        self.run_id = (self.workload, *parts)

    def _enter_experiment(self, args, kwargs) -> None:
        config = args[0] if args else kwargs["config"]
        mode = {
            "submod": config.mode if config.guess == "known" else "auto",
            "matching": config.match_mode,
            "recurrence": config.table_mode,
        }.get(config.problem)
        self.set_run(config.seed, None, mode)

    def _enter_stream(self, args, kwargs) -> None:
        seed = args[2] if len(args) > 2 else kwargs["seed"]
        # inverts harness.perm_seed(trial, index) = trial * 1_000_003 + index
        trial, perm = divmod(seed, 1_000_003)
        self.set_run(trial, perm, self.run_id[3])

    def _count_csv(self, _token, _args, _kwargs, result) -> None:
        if result.csv_path is not None and os.path.exists(result.csv_path):
            self.counts["harness.csv_bytes"] += os.path.getsize(result.csv_path)

    def _count_table(self, _token, _args, _kwargs, table) -> None:
        self.counts["recurrence.exact_comparisons"] += table.exact_comparisons

    def _count_stream(self, _token, _args, _kwargs, stream) -> None:
        self.counts["stream_model.elements"] += len(stream)

    def _count_run_stats(self, _token, _args, kwargs, _result) -> None:
        stats = kwargs.get("stats")
        if stats is not None:
            self.counts["tree_stream.oracle_calls"] += stats.oracle_calls
            self._max("tree_stream.nodes_live_max", stats.nodes_live_max)
            self._max("tree_stream.guesses_live_max", stats.guesses_live_max)

    def _count_guess_stats(self, _token, _args, kwargs, _result) -> None:
        stats = kwargs.get("stats")
        if stats is not None:
            self._max("matching.guesses_live_max", stats.guesses_live_max)

    def _count_nodes(self, before, args, _kwargs, _result) -> None:
        self.counts["tree_stream.nodes_created"] += len(args[0].nodes) - before

    def _count_collector(self, before, args, _kwargs, _result) -> None:
        store = args[0]
        self.counts["matching.stored_wings"] += store.stored_wings - before[0]
        self.counts["matching.paths_committed"] += len(store.committed) - before[1]

    def _max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    # -- results ----------------------------------------------------------

    def layer_times(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time: dict = defaultdict(float)
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span_id, name, parent, _run, start, end in self.spans:
            child_time[parent] += end - start
        for (parent, name), (calls, secs) in self.folded.items():
            child_time[parent] += secs
            row = out[name]
            row["calls"] += calls
            row["s"] += secs
            row["self_s"] += secs
        for span_id, name, parent, _run, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        return dict(out)

    def tree_oracle_calls(self) -> int:
        """Oracle evaluations made directly inside ``tree_process`` spans."""
        tree_spans = {s[0] for s in self.spans if s[1] == "tree_stream.tree_process"}
        return sum(
            calls for (parent, name), (calls, _s) in self.folded.items()
            if name == "submodular.evaluate" and parent in tree_spans
        )

    def write(self, path: str) -> None:
        """Dump spans and folded aggregates as JSON lines."""
        with open(path, "w") as fh:
            for span_id, name, parent, run_id, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "run": list(run_id), "start": start, "end": end,
                }) + "\n")
            for (parent, name), (calls, secs) in self.folded.items():
                fh.write(json.dumps({
                    "folded": name, "parent": parent, "calls": calls, "s": secs,
                }) + "\n")


def _table_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "float")
    return f"recurrence.compute_table.{mode}"


def _node_count(args, _kwargs) -> int:
    return len(args[0].nodes)


def _collector_state(args, _kwargs) -> tuple[int, int]:
    store = args[0]
    return store.stored_wings, len(store.committed)
