"""One execution of one workload in a fresh process; prints one JSON line.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --t0 MONOTONIC --tmp DIR [--params JSON] [--spans FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers process start, imports and input generation.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--params", default=None, help="JSON overrides of the workload params")
    parser.add_argument("--spans", default=None, help="JSON-lines file for the spans")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import workloads  # imports injectstream and its layers
    import_s = time.perf_counter() - started

    wl = workloads.WORKLOADS[args.workload]
    params = dict(wl.params)
    if args.params:
        params.update(json.loads(args.params))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(wl.name)
        tracer.install()
    try:
        ctx = wl.setup(params, args.seed, args.tmp)
        if tracer is not None:
            ctx["mark"] = tracer.set_run
        gc.collect()
        setup_s = time.monotonic() - args.t0
        started = time.perf_counter()
        raw = wl.run(ctx)
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome = wl.check(ctx, raw)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "params": params,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": rss_kib / 1024,
        "import_s": import_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "ratio_mean": outcome.ratio_mean,
        "digests": outcome.digests,
        "counts": outcome.counts,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_times()
        result["trace_counts"] = {
            **tracer.counts,
            **tracer.maxima,
            "tree_stream.tree_oracle_calls": tracer.tree_oracle_calls(),
            "trace.spans": len(tracer.spans),
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
