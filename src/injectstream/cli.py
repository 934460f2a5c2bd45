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

from .errors import InjectStreamError, PreconditionError
from .generators import (
    ADVERSARY_STRATEGIES,
    generate_matching_instance,
    generate_submod_instance,
    make_plan,
    random_edge_stream,
)
from .harness import (
    CHOICES,
    ExperimentConfig,
    check_seed,
    config_from_dict,
    resolve_out,
    run_experiment,
    write_instance_file,
)
from .matching import robust_greedy_check
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
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submod = sub.add_parser(
        "submod", help="prefix-tree submodular maximization", allow_abbrev=False
    )
    submod_sub = p_submod.add_subparsers(dest="action", required=True)
    p_srun = submod_sub.add_parser("run", help="run streaming trials", allow_abbrev=False)
    _common_run_flags(p_srun)
    p_srun.add_argument("--k", type=int)
    p_srun.add_argument("--delta", type=float)
    p_srun.add_argument("--mode", choices=CHOICES["mode"])
    p_srun.add_argument("--guess", choices=CHOICES["guess"])

    p_matching = sub.add_parser(
        "matching", help="semi-streaming maximum matching", allow_abbrev=False
    )
    matching_sub = p_matching.add_subparsers(dest="action", required=True)
    p_mrun = matching_sub.add_parser("run", help="run streaming trials", allow_abbrev=False)
    _common_run_flags(p_mrun)
    p_mrun.add_argument("--mode", choices=CHOICES["match_mode"], dest="match_mode")
    p_mrun.add_argument("--delta-guess", type=float, dest="delta_guess")

    p_rec = sub.add_parser("recurrence", help="R(k, h) table tools", allow_abbrev=False)
    p_rec.add_argument("--t", type=float)
    p_rec.add_argument("--kmax", type=int)
    p_rec.add_argument("--emit", metavar="CSV", dest="out")
    p_rec.add_argument("--mode", choices=CHOICES["table_mode"], dest="table_mode")
    p_rec.add_argument("--certify", type=int, metavar="K", dest="certify_k")
    p_rec.add_argument("--bound")

    p_gen = sub.add_parser("gen", help="emit an instance file", allow_abbrev=False)
    p_gen.add_argument("--problem", choices=("submod", "matching"), required=True)
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--params", default="{}", help="JSON object of generator params")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--plan", choices=ADVERSARY_STRATEGIES, default=None,
                       help="bake an injection plan into the file")
    p_gen.add_argument("--plan-seed", type=int, default=0, dest="plan_seed")
    p_gen.add_argument("--out", required=True)

    sub.add_parser("verify", help="axiom and property suites", allow_abbrev=False)
    return parser


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--instance", metavar="F", dest="instance_file")
    p.add_argument("--kind", help="generator kind when no --instance")
    p.add_argument("--params", help="JSON object of generator params")
    p.add_argument("--adversary", choices=ADVERSARY_STRATEGIES, dest="strategy")
    p.add_argument("--trials", type=int)
    p.add_argument("--perms", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def _json_object(text: str, where: str) -> dict:
    """Parse a flag's JSON text, which must hold an object."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{where}: invalid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise PreconditionError(f"{where}: expected a JSON object")
    return value


def _load_config(args: argparse.Namespace, **fixed) -> ExperimentConfig:
    """The checked config: the --config file, then ``fixed``, then every flag given.

    A flag whose ``dest`` names a config field sets that field.
    """
    raw = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise PreconditionError(f"--config {args.config}: {exc.strerror}") from None
        raw = _json_object(text, f"--config {args.config}")
    raw.update(fixed)
    if getattr(args, "instance_file", None) is not None:
        raw["instance"] = {"file": args.instance_file}
    elif getattr(args, "kind", None) is not None:
        raw["instance"] = {
            "kind": args.kind,
            "params": _json_object(args.params, "--params") if args.params else {},
        }
    if getattr(args, "strategy", None) is not None:
        raw["adversary"] = {"strategy": args.strategy}
    fields = ExperimentConfig.__dataclass_fields__
    raw.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    return config_from_dict(raw)


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(_load_config(args, problem=args.command))
    if result.csv_path:
        print(f"wrote {result.csv_path}")
    if result.summary is not None:
        print(f"ratio: {result.summary}")
    for rec in result.records:
        if rec.error:
            print(f"trial failed: {rec.error}", file=sys.stderr)
    return result.exit_code


def _cmd_recurrence(args: argparse.Namespace) -> int:
    if args.certify_k is not None and args.out is not None:
        raise PreconditionError("--certify prints a verdict and writes no CSV; drop --emit")
    # without --emit no CSV is written, so ``out`` is None, not the default
    config = _load_config(args, problem="recurrence", out=None)
    result = run_experiment(config)
    cols = result.records[0].columns
    if config.certify_k is not None:
        print(
            f"R(k,k) >= {cols['bound']} for k <= {config.certify_k}: {cols['verdict']} "
            f"(min diagonal {cols['min_diagonal']:.10f})"
        )
    elif result.csv_path is not None:
        print(f"wrote {result.csv_path} (min diagonal {cols['min_diagonal']:.10f})")
    else:
        print(f"min diagonal over k <= {config.kmax}: {cols['min_diagonal']:.10f}")
    return result.exit_code


def _cmd_gen(args: argparse.Namespace) -> int:
    check_seed("seed", args.seed)
    check_seed("plan seed", args.plan_seed)
    params = _json_object(args.params, "--params")
    out = resolve_out(args.out)
    if args.problem == "submod":
        _, split = generate_submod_instance(args.kind, params, seed=args.seed)
    else:
        split, _ = generate_matching_instance(args.kind, params, seed=args.seed)
    plan = None if args.plan is None else make_plan(split, args.plan, seed=args.plan_seed)
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


COMMANDS = {
    "submod": _cmd_run,
    "matching": _cmd_run,
    "recurrence": _cmd_recurrence,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a library error outside the trial loop is one line, exit 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except InjectStreamError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
