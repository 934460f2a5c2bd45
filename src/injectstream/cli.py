"""Command-line interface.

Subcommands: `submod run`, `matching run`, `recurrence`, `gen`, `verify`.
Runs can load a JSON config file (--config); explicit flags override config
values.  Relative output paths respect the INJECTSTREAM_OUT_DIR env var.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .generators import (
    ADVERSARY_STRATEGIES,
    generate_matching_instance,
    generate_submod_instance,
    make_plan,
    random_edge_stream,
)
from .harness import (
    ExperimentConfig,
    config_from_dict,
    resolve_out,
    run_experiment,
    write_instance_file,
)
from .matching import robust_greedy_check, write_edge_stream
from .submodular import (
    AdditiveOracle,
    CoverageOracle,
    GroundSet,
    WeightedCoverageOracle,
    figure2_instance,
    verify_axioms,
)
from .tree_stream import node_count_bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="injectstream",
        description="Streaming algorithms under adversarial injections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submod = sub.add_parser("submod", help="prefix-tree submodular maximization")
    submod_sub = p_submod.add_subparsers(dest="action", required=True)
    p_srun = submod_sub.add_parser("run", help="run streaming trials")
    _common_run_flags(p_srun)
    p_srun.add_argument("--k", type=int, default=None)
    p_srun.add_argument("--delta", type=float, default=None)
    p_srun.add_argument("--mode", choices=("exact", "bucketed"), default=None)
    p_srun.add_argument("--guess", choices=("known", "auto"), default=None)

    p_matching = sub.add_parser("matching", help="semi-streaming maximum matching")
    matching_sub = p_matching.add_subparsers(dest="action", required=True)
    p_mrun = matching_sub.add_parser("run", help="run streaming trials")
    _common_run_flags(p_mrun)
    p_mrun.add_argument("--mode", choices=("greedy", "match", "guessed"), default=None)
    p_mrun.add_argument("--mstar", choices=("known", "auto"), default=None)
    p_mrun.add_argument("--delta-guess", type=float, default=None, dest="delta_guess")

    p_rec = sub.add_parser("recurrence", help="R(k, h) table tools")
    p_rec.add_argument("--t", type=float, default=0.8)
    p_rec.add_argument("--kmax", type=int, default=1000)
    p_rec.add_argument("--emit", default=None, metavar="CSV")
    p_rec.add_argument("--mode", choices=("float", "exact"), default="float")
    p_rec.add_argument("--certify", type=int, default=None, metavar="K")
    p_rec.add_argument("--bound", default=None)

    p_gen = sub.add_parser("gen", help="emit an instance file")
    p_gen.add_argument("--problem", choices=("submod", "matching"), required=True)
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--params", default="{}", help="JSON object of generator params")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--plan", choices=ADVERSARY_STRATEGIES, default=None,
                       help="bake an injection plan into the file")
    p_gen.add_argument("--plan-seed", type=int, default=0, dest="plan_seed")
    p_gen.add_argument("--format", choices=("jsonl", "edges"), default="jsonl",
                       help="'edges' writes a plain u-v list (matching only)")
    p_gen.add_argument("--out", required=True)

    sub.add_parser("verify", help="axiom and property suites")
    return parser


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file; flags override")
    p.add_argument("--instance", default=None, metavar="F")
    p.add_argument("--kind", default=None, help="generator kind when no --instance")
    p.add_argument("--params", default=None, help="JSON object of generator params")
    p.add_argument("--adversary", choices=ADVERSARY_STRATEGIES, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--perms", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


class FlagError(Exception):
    """A flag value that cannot be used; ``main`` prints it and exits 2."""


def _json_object(text: str, where: str) -> dict:
    """Parse a flag's JSON text, which must hold an object."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FlagError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise FlagError(f"{where}: expected a JSON object")
    return value


def _load_config(args: argparse.Namespace, problem: str) -> ExperimentConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise FlagError(f"--config {args.config}: {exc.strerror}") from None
        raw = _json_object(text, f"--config {args.config}")
    raw["problem"] = problem
    if args.instance is not None:
        raw["instance"] = {"file": args.instance}
    elif args.kind is not None:
        raw["instance"] = {
            "kind": args.kind,
            "params": _json_object(args.params, "--params") if args.params else {},
        }
    if args.adversary is not None:
        raw["adversary"] = {"strategy": args.adversary}
    for flag in ("trials", "perms", "seed", "out"):
        value = getattr(args, flag)
        if value is not None:
            raw[flag] = value
    return config_from_dict(raw)


def _cmd_submod_run(args: argparse.Namespace) -> int:
    config = _load_config(args, "submod")
    for src, dst in (("k", "k"), ("delta", "delta"), ("mode", "mode"), ("guess", "guess")):
        value = getattr(args, src)
        if value is not None:
            setattr(config, dst, value)
    result = run_experiment(config)
    _print_run(result)
    return result.exit_code


def _cmd_matching_run(args: argparse.Namespace) -> int:
    config = _load_config(args, "matching")
    if args.mode is not None:
        config.match_mode = args.mode
    if args.mstar is not None:
        config.mstar = args.mstar
    if args.delta_guess is not None:
        config.delta_guess = args.delta_guess
    result = run_experiment(config)
    _print_run(result)
    return result.exit_code


def _print_run(result) -> None:
    if result.csv_path:
        print(f"wrote {result.csv_path}")
    if result.summary is not None:
        print(f"ratio: {result.summary}")
    for rec in result.records:
        if rec.error:
            print(f"trial failed: {rec.error}", file=sys.stderr)


def _cmd_recurrence(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        problem="recurrence",
        t=args.t,
        kmax=args.kmax,
        table_mode=args.mode,
        certify_k=args.certify,
        bound=args.bound,
        out=args.emit,
    )
    result = run_experiment(config)
    cols = result.records[0].columns
    if args.certify is not None:
        verdict = "holds" if cols["certified"] else "VIOLATED"
        print(
            f"R(k,k) >= {cols['bound']} for k <= {args.certify}: {verdict} "
            f"(min diagonal {cols['min_diagonal']:.10f})"
        )
    elif result.csv_path is not None:
        print(f"wrote {result.csv_path} (min diagonal {cols['min_diagonal']:.10f})")
    else:
        print(f"min diagonal over k <= {args.kmax}: {cols['min_diagonal']:.10f}")
    return result.exit_code


def _cmd_gen(args: argparse.Namespace) -> int:
    params = _json_object(args.params, "--params")
    out = resolve_out(args.out)
    if args.problem == "submod":
        if args.format == "edges":
            print("--format edges applies to matching only", file=sys.stderr)
            return 2
        _, split = generate_submod_instance(args.kind, params, seed=args.seed)
    else:
        split, _ = generate_matching_instance(args.kind, params, seed=args.seed)
    plan = None
    if args.plan is not None:
        plan = make_plan(split, args.plan, seed=args.plan_seed)
    if args.format == "edges":
        if plan is not None:
            print("a plan needs the jsonl format", file=sys.stderr)
            return 2
        from .matching import Edge

        edges = [Edge(*el.payload) for el in list(split.good) + list(split.noise)]
        write_edge_stream(out, edges)
    else:
        write_instance_file(out, split, plan)
    print(f"wrote {out}")
    return 0


def _cmd_verify(_args: argparse.Namespace) -> int:
    """Axiom suite over the shipped oracle families plus quick property checks."""
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        mark = "ok" if ok else "FAIL"
        line = f"[{mark}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    instance, _ = figure2_instance()
    report = verify_axioms(CoverageOracle(instance), instance.ground_set())
    check("coverage axioms (figure2)", report.ok, str(report))

    rand_inst, _ = generate_submod_instance(
        "random", {"n": 9, "k": 3, "universe": 14, "max_points": 4}, seed=17
    )
    report = verify_axioms(CoverageOracle(rand_inst), rand_inst.ground_set())
    check("coverage axioms (random n=9)", report.ok, str(report))

    weights = {
        pt: 0.5 + (i % 7) / 7 for i, pt in enumerate(sorted(rand_inst.universe, key=repr))
    }
    report = verify_axioms(
        WeightedCoverageOracle(rand_inst, weights), rand_inst.ground_set()
    )
    check("weighted coverage axioms", report.ok, str(report))

    add = AdditiveOracle({i: 1 + (i % 5) for i in range(10)})
    report = verify_axioms(add, GroundSet(members=frozenset(range(10))))
    check("additive axioms", report.ok, str(report))

    bound = node_count_bound(3, "0.2")
    check("node_count_bound(3, 0.2)", bound == 5220, f"= {bound}")

    bad = 0
    for seed in range(20):
        if not robust_greedy_check(random_edge_stream(seed)).ok:
            bad += 1
    check("robust greedy (20 random streams)", bad == 0, f"{bad} violations")

    print("verify:", "all ok" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "submod":
            return _cmd_submod_run(args)
        if args.command == "matching":
            return _cmd_matching_run(args)
        if args.command == "recurrence":
            return _cmd_recurrence(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except FlagError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
