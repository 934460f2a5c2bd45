"""injectstream benchmark: four workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload submod-tree --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload executes in fresh single-threaded worker processes (BLAS and
OpenMP pinned to one thread), one after another, until ``--seconds`` have
passed and at least MIN_EXECUTIONS have run; every metric is the median over
those executions.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced executions and reports the per-layer metrics,
with the tracing overhead as traced minus untraced ``wall_s``.  Outputs are
checked in every execution; the last stdout line is one JSON object, and the
exit code is 1 when a check fails.  A results file with the environment
block, the per-execution records and the digests goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("submod-harness", "submod-tree", "matching-trap", "recurrence-cert")
MIN_EXECUTIONS = 3
MIN_TRACED = 2
HARD_LIMIT_S = 170  # a whole run, set-up included, ends within this

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ratio_mean", "ratio", "higher"),
)
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _span(name: str, field: str):
    return lambda layers, counts: layers.get(name, {}).get(field, 0)


def _count(name: str):
    return lambda layers, counts: counts.get(name, 0)


def _rate(num: str, den: str):
    return lambda layers, counts: counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


# name, unit, better, value from (span table, trace counts) of one traced execution
PER_LAYER = (
    ("submodular.verify_axioms.s", "s", "lower", _span("submodular.verify_axioms", "s")),
    ("submodular.verify_axioms.calls", "count", "lower", _span("submodular.verify_axioms", "calls")),
    ("submodular.brute_force_opt.s", "s", "lower", _span("submodular.brute_force_opt", "s")),
    ("submodular.brute_force_opt.calls", "count", "lower",
     _span("submodular.brute_force_opt", "calls")),
    ("generators.generate_submod_instance.s", "s", "lower",
     _span("generators.generate_submod_instance", "s")),
    ("submodular.evaluate.s", "s", "lower", _span("submodular.evaluate", "s")),
    ("submodular.evaluate.calls", "count", "lower", _span("submodular.evaluate", "calls")),
    ("tree_stream.oracle_calls", "count", "lower", _count("tree_stream.oracle_calls")),
    ("tree_stream.tree_process.self_s", "s", "lower", _span("tree_stream.tree_process", "self_s")),
    ("tree_stream.tree_process.calls", "count", "lower", _span("tree_stream.tree_process", "calls")),
    ("tree_stream.bucket_key.s", "s", "lower", _span("tree_stream.bucket_key", "s")),
    ("tree_stream.guess_observe.s", "s", "lower", _span("tree_stream.guess_observe", "s")),
    ("tree_stream.best_solution.s", "s", "lower", _span("tree_stream.best_solution", "s")),
    ("tree_stream.nodes_live_max", "count", "lower", _count("tree_stream.nodes_live_max")),
    ("tree_stream.nodes_created", "count", "lower", _count("tree_stream.nodes_created")),
    ("tree_stream.guesses_live_max", "count", "lower", _count("tree_stream.guesses_live_max")),
    ("tree_stream.child_rate", "ratio", "higher",
     _rate("tree_stream.nodes_created", "tree_stream.tree_oracle_calls")),
    ("stream_model.build_stream.s", "s", "lower", _span("stream_model.build_stream", "s")),
    ("stream_model.build_stream.calls", "count", "lower", _span("stream_model.build_stream", "calls")),
    ("stream_model.elements", "count", "lower", _count("stream_model.elements")),
    ("generators.make_plan.s", "s", "lower", _span("generators.make_plan", "s")),
    ("generators.generate_matching_instance.s", "s", "lower",
     _span("generators.generate_matching_instance", "s")),
    ("generators.edges_from_stream.s", "s", "lower", _span("generators.edges_from_stream", "s")),
    ("matching.greedy_step.s", "s", "lower", _span("matching.greedy_step", "s")),
    ("matching.greedy_step.calls", "count", "lower", _span("matching.greedy_step", "calls")),
    ("matching.offer.s", "s", "lower", _span("matching.offer", "s")),
    ("matching.offer.calls", "count", "lower", _span("matching.offer", "calls")),
    ("matching.remove.s", "s", "lower", _span("matching.remove", "s")),
    ("matching.remove.calls", "count", "lower", _span("matching.remove", "calls")),
    ("matching.copy.s", "s", "lower", _span("matching.copy", "s")),
    ("matching.copy.calls", "count", "lower", _span("matching.copy", "calls")),
    ("matching.apply_augmentations.s", "s", "lower", _span("matching.apply_augmentations", "s")),
    ("matching.stored_wings", "count", "lower", _count("matching.stored_wings")),
    ("matching.paths_committed", "count", "higher", _count("matching.paths_committed")),
    ("matching.commit_rate", "ratio", "higher",
     _rate("matching.paths_committed", "matching.stored_wings")),
    ("matching.guesses_live_max", "count", "lower", _count("matching.guesses_live_max")),
    ("recurrence.compute_table.exact_s", "s", "lower",
     _span("recurrence.compute_table.exact", "s")),
    ("recurrence.compute_table.float_s", "s", "lower",
     _span("recurrence.compute_table.float", "s")),
    ("recurrence.exact_comparisons", "count", "lower", _count("recurrence.exact_comparisons")),
    ("harness.run_experiment.self_s", "s", "lower", _span("harness.run_experiment", "self_s")),
    ("harness.csv_bytes", "bytes", "lower", _count("harness.csv_bytes")),
    ("trace.spans", "count", "lower", _count("trace.spans")),
)
# measured outside the traced executions (see layer_metrics)
EXTRA_LAYER = (("cli.import_s", "s", "lower"), ("trace.overhead_s", "s", "lower"))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    env.pop("INJECTSTREAM_OUT_DIR", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, trace: int, tmp: str, timeout: float,
              params: dict | None = None, spans: str | None = None) -> dict:
    """One worker process; returns its JSON record, or one with an ``error``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--tmp", tmp]
    if params:
        cmd += ["--params", json.dumps(params)]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unparsable worker output: {lines[-1][:200]!r}"}


def execute(workload: str, seed: int, seconds: float, trace: int,
            params: dict | None = None) -> tuple[list, list]:
    """Untraced (and, with trace, traced) executions until the time is up."""
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    try:
        while True:
            plain.append(run_child(workload, seed, 0, tmp,
                                   hard_deadline - time.monotonic(), params))
            if trace:
                spans = str(OUT / f"spans-{workload}-seed{seed}-{len(traced)}.jsonl")
                traced.append(run_child(workload, seed, 1, tmp,
                                        hard_deadline - time.monotonic(), params, spans))
            if any("error" in r for r in plain + traced):
                break
            enough = len(traced) >= MIN_TRACED if trace else len(plain) >= MIN_EXECUTIONS
            if enough and time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return plain, traced


def consistency_errors(plain: list, traced: list) -> list[str]:
    """Every execution of one seed must replay the same digests and counts."""
    errors = [r["error"] for r in plain + traced if "error" in r]
    if errors:
        return errors
    first = plain[0]
    for r in plain[1:] + traced:
        kind = "traced" if r["trace"] else "untraced"
        if r["digests"] != first["digests"]:
            errors.append(f"{kind} digests differ from the first untraced execution")
        if r["counts"] != first["counts"]:
            errors.append(f"{kind} counts differ from the first untraced execution")
    for r in traced[1:]:
        if r["trace_counts"] != traced[0]["trace_counts"]:
            errors.append("trace counts differ between traced executions")
    return errors


def end_to_end_metrics(plain: list) -> dict:
    return {
        name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
        for name, unit, _ in END_TO_END
    }


def layer_metrics(plain: list, traced: list) -> dict:
    median = statistics.median
    metrics = {
        name: {"value": median(value(r["layers"], r["trace_counts"]) for r in traced),
               "unit": unit}
        for name, unit, _, value in PER_LAYER
    }
    metrics["cli.import_s"] = {"value": median(r["import_s"] for r in plain), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in plain),
        "unit": "s",
    }
    return metrics


def environment(seed: int) -> dict:
    def version(pkg: str):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_one(workload: str, seed: int, seconds: float, trace: int,
            params: dict | None = None) -> dict:
    plain, traced = execute(workload, seed, seconds, trace, params)
    errors = consistency_errors(plain, traced)
    done = [r for r in plain + traced if "error" not in r]
    attempted = sum(r["attempted"] for r in done) or 1
    failed = sum(r["failed"] for r in done)
    for r in done:
        errors += [f"{run}: {'; '.join(why)}" for run, why in sorted(r["failures"].items())]
    if errors and not failed:
        failed = 1
    metrics = {}
    if not any("error" in r for r in plain + traced):
        metrics = layer_metrics(plain, traced) if trace else end_to_end_metrics(plain)
    return {
        "workload": workload,
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "params": done[0]["params"] if done else None,
        "executions": plain + traced,
    }


def report(res: dict, trace: int) -> None:
    print(f"== {res['workload']}: {len(res['executions'])} executions, "
          f"medians; correct={res['correct']}")
    rows = [(n, u, b) for n, u, b, _ in PER_LAYER] + list(EXTRA_LAYER) if trace else END_TO_END
    for name, unit, better in rows:
        if name in res["metrics"]:
            print(f"  {name:42s} {res['metrics'][name]['value']:<14.6g} {unit:6s} "
                  f"({better} is better)")
    print(f"  {'failed_frac':42s} {res['failed'] / res['attempted']:<14.6g} ratio  "
          f"(lower is better; {res['failed']}/{res['attempted']} runs)")
    for err in res["errors"][:20]:
        print(f"  CHECK FAILED: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "injectstream" / "__init__.py").is_file():
        print(f"injectstream sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    for res in results:
        report(res, args.trace)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump({"environment": environment(args.seed), "seconds": args.seconds,
                   "trace": args.trace, "results": results}, fh, indent=1, sort_keys=True)
    print(f"results: {out_file.relative_to(ROOT)}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
