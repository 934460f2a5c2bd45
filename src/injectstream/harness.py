"""Experiment orchestration: configs, trials, CSV emission, statistics.

A config plus its master seed replays bit-exactly: per-trial seeds derive
from (master seed, trial index), permutation seeds from (trial seed, perm
index), each index below ``SEED_STRIDE``, and CSV rows carry no wall-clock
data (timings live only on the in-memory records).  Every row ends with
``config_fp``, a fingerprint of the canonical config JSON: it covers every
config value except ``out``, so result files are self-identifying and one
experiment written to two paths gives byte-identical files.

Instance files are JSON lines: one object per element with fields id, role
("good" | "noise") and payload (a point list for coverage, a [u, v] pair
with u != v for edges, read as an undirected Edge), optionally one trailing
object {"slots": [[slot, noise_id], ...]} fixing the injection plan.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from .errors import InvalidInstanceError, InvariantError, PlanValidationError, PreconditionError
from .generators import (
    ADVERSARY_STRATEGIES,
    edges_from_stream,
    generate_matching_instance,
    generate_submod_instance,
    kind_params,
    make_plan,
)
from .matching import (
    GUESS_LIMIT,
    Edge,
    GuessRunStats,
    exact_max_matching,
    geometric_guess_run,
    greedy_matching,
    live_guess_bound,
    match_run,
)
from .recurrence import (
    _bound_as_fraction, _t_as_fraction, certify_diagonal, compute_table, min_diagonal,
)
from .stream_model import Element, InjectionPlan, InstanceSplit, build_streams
from .stream_model import build_stream  # noqa: F401 - perfbench's tracer wraps it by this name
from .submodular import CoverageInstance, CoverageOracle, brute_force_opt
from .tree_stream import RunStats, delta_fraction, guess_run, run_tree_streams
from .tree_stream import run_tree_stream  # noqa: F401 - perfbench's tracer wraps it by this name

OUT_DIR_ENV = "INJECTSTREAM_OUT_DIR"

#: most permutations of one trial realized and run together in one forest;
#: this alone bounds a forest's memory
FOREST_STREAMS = 256

#: seeds step by this per master seed and per trial seed; ``trials`` and
#: ``perms`` are capped at it, since a larger index would replay another run's seed
SEED_STRIDE = 1_000_003

SUBMOD_COLUMNS = (
    "seed", "perm_index", "guess_mode", "best_value", "opt_value",
    "ratio", "nodes_live_max", "oracle_calls", "config_fp",
)
MATCHING_COLUMNS = (
    "seed", "perm_index", "algo", "size", "opt_size", "ratio", "config_fp",
)
RECURRENCE_COLUMNS = ("k", "R(k,k)", "argmin_tag_at_diag", "config_fp")

TAG_NAMES = {0: "none", 1: "first", 2: "second", 3: "third"}

#: config field -> its allowed values; the CLI's flag choices read this too
CHOICES = {
    "problem": ("submod", "matching", "recurrence"),
    "mode": ("exact", "bucketed"),
    "guess": ("known", "auto"),
    "match_mode": ("greedy", "match", "guessed"),
    "table_mode": ("float", "exact"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: what to run, on what, how often, and where to write.

    instance: {"file": path} or {"kind": name, "params": {...}}.
    adversary: {"strategy": one of ADVERSARY_STRATEGIES, "seed": int} (the
    seed defaults to the trial seed; irrelevant for non-random strategies).
    Both seeds are integers in [0, 2**64).  Submod knobs: k, delta, mode,
    guess; guess "auto" always runs bucketed guess trees, so it ignores mode
    (which still enters the fingerprint), and a generated instance's params
    k, if given, must equal k.  Matching knobs: match_mode, delta_guess.
    Recurrence knobs: t, kmax, table_mode, certify_k, bound.  ``CHOICES``
    lists the allowed values of the named fields; construction raises
    PreconditionError for any value the experiment could not run.  ``out``
    is where the CSV goes; it is the one field the fingerprint leaves out.
    """

    problem: str = "submod"
    instance: dict = field(default_factory=lambda: {"kind": "random", "params": {}})
    adversary: dict = field(default_factory=lambda: {"strategy": "random"})
    trials: int = 1
    perms: int = 1
    seed: int = 0
    out: str = "results.csv"
    # submod
    k: int = 3
    delta: float = 0.1
    mode: str = "exact"
    guess: str = "known"
    # matching
    match_mode: str = "greedy"
    delta_guess: float = 0.1
    # recurrence
    t: float = 0.8
    kmax: int = 1000
    table_mode: str = "float"
    certify_k: Optional[int] = None
    bound: Optional[str] = None

    def __post_init__(self) -> None:
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            _check(value in allowed, name, value, "one of " + ", ".join(allowed))
        src, adv = self.instance, self.adversary
        keys = set(src) if isinstance(src, dict) else None
        _check(keys == {"file"} and isinstance(src["file"], str)
               or keys in ({"kind"}, {"kind", "params"})
               and isinstance(src.get("params", {}), dict),
               "instance", src, "{'file': path} or {'kind': name, 'params': {...}}")
        _check(isinstance(adv, dict) and set(adv) <= {"strategy", "seed"},
               "adversary", adv, "a dict with keys among strategy, seed")
        strategy = adv.get("strategy", "random")
        _check(strategy in ADVERSARY_STRATEGIES, "adversary strategy", strategy,
               "one of " + ", ".join(ADVERSARY_STRATEGIES))
        check_seed("seed", self.seed)
        check_seed("adversary seed", adv.get("seed", 0))
        _check(self.out is None or isinstance(self.out, str), "out", self.out, "a path or null")
        for name in ("trials", "perms", "k", "kmax", "certify_k"):
            value = getattr(self, name)
            if name != "certify_k" or value is not None:
                _check(type(value) is int and value >= 1, name, value, "an integer >= 1")
        for name in ("trials", "perms"):
            _check(getattr(self, name) <= SEED_STRIDE, name, getattr(self, name),
                   f"at most {SEED_STRIDE}")
        for name in ("t", "delta", "delta_guess"):     # JSON true must not read as 1
            _check(not isinstance(getattr(self, name), bool), name, getattr(self, name), "a number")
        if "kind" in src and self.problem != "recurrence":
            kind_params(self.problem, src["kind"], _generator_params(self))
        _t_as_fraction(self.t)
        delta = _parsed(delta_fraction, self.delta)
        _check(delta is not None and 0 < delta <= 1, "delta", self.delta, "a number in (0, 1]")
        _check(self.guess != "auto" or delta < 1, "delta", self.delta, "below 1 with guess auto")
        _check(isinstance(self.delta_guess, (int, float)) and 0 < self.delta_guess < 1,
               "delta_guess", self.delta_guess, "a number in (0, 1)")
        _check(live_guess_bound(self.delta_guess) <= GUESS_LIMIT, "delta_guess", self.delta_guess,
               f"large enough for at most {GUESS_LIMIT} live guesses")
        if self.bound is not None:
            _bound_as_fraction(self.bound)
            if self.certify_k is None:
                raise PreconditionError("bound is read only by the certificate; "
                                        "set certify_k (--certify K) or drop bound")

    def canonical_json(self) -> str:
        """Every value except ``out``: where the rows go does not change them."""
        values = asdict(self)
        del values["out"]
        return json.dumps(values, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def _generator_params(config: ExperimentConfig) -> dict:
    """The params a generated instance gets: a submod instance takes the
    config's k, and a params k that differs from it is rejected."""
    params = dict(config.instance.get("params", {}))
    if config.problem == "submod":
        if params.setdefault("k", config.k) != config.k:
            raise PreconditionError(f"k must equal the instance params' k; "
                                    f"got k={config.k!r}, params k={params['k']!r}")
    return params


def _check(ok: bool, name: str, value, wanted: str) -> None:
    if not ok:
        raise PreconditionError(f"{name} must be {wanted}; got {value!r}")


def check_seed(name: str, value) -> None:
    """PreconditionError unless ``value`` is a seed: an integer in [0, 2**64)."""
    _check(type(value) is int and 0 <= value < 2**64, name, value, "an integer in [0, 2**64)")


def _parsed(parse, value):
    """``parse(value)``, or None if it cannot read ``value`` as a number."""
    try:
        return parse(value)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def config_from_dict(raw: dict) -> ExperimentConfig:
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    bad = set(raw) - known
    if bad:
        raise PreconditionError(f"unknown config keys: {sorted(bad)}")
    return ExperimentConfig(**raw)


@dataclass
class TrialRecord:
    """One algorithm run; `columns` mirrors the CSV row for its problem.

    A failed run keeps its error text and only the ``seed`` and
    ``perm_index`` columns (``perm_index`` None when the trial's load or
    plan failed); ``invariant`` marks a failure that raised
    :class:`InvariantError`.  ``wall_time_s`` is the run's share,
    1/P, of the time to realize and run the P streams of its batch (P = 1
    outside the known-guess submod modes); see ``_run_trials``.
    """

    columns: dict
    wall_time_s: float = 0.0
    memory: dict = field(default_factory=dict)
    error: Optional[str] = None
    invariant: bool = False


@dataclass
class Summary:
    n: int
    failures: int
    mean: float
    stddev: float
    ci95: tuple[float, float]

    def __str__(self) -> str:
        lo, hi = self.ci95
        return (
            f"n={self.n} failures={self.failures} mean={self.mean:.6f} "
            f"stddev={self.stddev:.6f} ci95=[{lo:.6f}, {hi:.6f}]"
        )


@dataclass
class ExperimentResult:
    """``exit_code``: 0 ok, 1 a run or the certificate failed, 3 a run broke an invariant."""

    records: list[TrialRecord]
    summary: Optional[Summary]
    csv_path: Optional[str]
    exit_code: int = 0


def trial_seed(master: int, index: int) -> int:
    return master * SEED_STRIDE + index


def perm_seed(trial: int, index: int) -> int:
    return trial * SEED_STRIDE + index


def resolve_out(path: Optional[str]) -> Optional[str]:
    """Where ``path`` is written; PreconditionError if it names no file (it is
    empty or a directory) or its directory is missing."""
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, path)
    if not path or os.path.isdir(path):
        raise PreconditionError(f"output path must name a file; got {path!r}")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise PreconditionError(f"output directory {folder} does not exist")
    return path


def summarize(ratios: list[float], failures: int) -> Optional[Summary]:
    if not ratios:
        return None
    n = len(ratios)
    mean = sum(ratios) / n
    if n > 1:
        var = sum((r - mean) ** 2 for r in ratios) / (n - 1)
        sd = math.sqrt(var)
    else:
        sd = 0.0
    half = 1.96 * sd / math.sqrt(n)
    return Summary(
        n=n, failures=failures, mean=mean, stddev=sd, ci95=(mean - half, mean + half)
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials, write the CSV, and aggregate the ratio column."""
    if config.problem == "recurrence":
        return _run_recurrence(config)
    columns, load, run = PROBLEMS[config.problem]
    path = resolve_out(config.out)
    records = _run_trials(config, load, run)
    if path is not None:
        rows = ([r.columns[c] for c in columns] for r in records if r.error is None)
        _write_csv(path, columns, rows)
    ratios = [r.columns["ratio"] for r in records if r.error is None]
    failures = sum(1 for r in records if r.error is not None)
    return ExperimentResult(
        records=records,
        summary=summarize(ratios, failures),
        csv_path=path,
        exit_code=3 if any(r.invariant for r in records) else 1 if failures else 0,
    )


def _write_csv(path: str, columns: tuple, rows) -> None:
    """A header of ``columns``, then one line per list of row values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _run_trials(config: ExperimentConfig, load, run) -> list[TrialRecord]:
    """Every (trial, permutation) run of a streaming problem, one record each.

    ``load(config, t_seed)`` returns one trial's (split, fixed plan or None,
    trial data); without a fixed plan the configured adversary makes one
    from the trial seed.  An instance file is loaded once, before the first
    trial, and every trial gets the same (split, plan, trial data); a bad
    file raises.  A trial whose load or plan fails gets one failed record.
    ``run(config, streams, trial data)`` runs the algorithm on realized
    streams and returns, per stream, (CSV columns other than seed,
    perm_index and config_fp; memory counters).

    A trial's perms go in batches: up to ``FOREST_STREAMS`` in the
    known-guess submod modes, which run them as one forest, else one.  A
    batch's streams are realized in one ``build_streams`` call and run in
    one ``run`` call.  They permute one element set under one plan and are
    read by one oracle and keyer, so a failure is the whole batch's: if
    either call raises, every perm of the batch gets a failed record with
    that error.  A record's ``wall_time_s`` is 1/len(batch) of the batch's
    time.
    """
    fp = config.fingerprint()
    loaded = load(config, None) if "file" in config.instance else None
    batch = FOREST_STREAMS if config.problem == "submod" and config.guess == "known" else 1
    records = []
    for t_idx in range(config.trials):
        t_seed = trial_seed(config.seed, t_idx)
        try:
            split, plan, trial = loaded or load(config, t_seed)
            if plan is None:
                plan = make_plan(
                    split,
                    config.adversary.get("strategy", "random"),
                    seed=config.adversary.get("seed", t_seed),
                )
        except Exception as exc:  # noqa: BLE001 - record and move on
            records.append(_failed(exc, t_seed, None))
            continue
        for lo in range(0, config.perms, batch):
            perms = range(lo, min(lo + batch, config.perms))
            started = time.perf_counter()
            try:
                streams = build_streams(split, plan, [perm_seed(t_seed, p) for p in perms])
                done = [
                    TrialRecord(
                        columns={"seed": t_seed, "perm_index": p_idx, **columns, "config_fp": fp},
                        memory=memory,
                    )
                    for p_idx, (columns, memory) in zip(perms, run(config, streams, trial))
                ]
            except Exception as exc:  # noqa: BLE001 - record and move on
                done = [_failed(exc, t_seed, p_idx) for p_idx in perms]
            share = (time.perf_counter() - started) / len(perms)
            for rec in done:
                rec.wall_time_s = share
            records += done
    return records


def _failed(exc: Exception, seed: int, perm_index: Optional[int]) -> TrialRecord:
    return TrialRecord(
        columns={"seed": seed, "perm_index": perm_index},
        error=f"{type(exc).__name__}: {exc}",
        invariant=isinstance(exc, InvariantError),
    )


# ---------------------------------------------------------------------------
# submod experiments


def _load_submod_trial(
    config: ExperimentConfig, t_seed: Optional[int]
) -> tuple[InstanceSplit, Optional[InjectionPlan], tuple]:
    """(split, fixed plan, (oracle, OPT value)); the trial's runs share the oracle.

    An instance file ignores ``t_seed``: ``_run_trials`` loads it once.
    Its good set must be an optimum, as a generated one is by construction.
    """
    src = config.instance
    if "file" in src:
        instance, split, plan = read_submod_instance_file(src["file"])
    else:
        instance, split = generate_submod_instance(
            src["kind"], _generator_params(config), seed=t_seed
        )
        plan = None
    oracle = CoverageOracle(instance)
    opt = brute_force_opt(oracle, instance.ground_set(), config.k)
    if "file" in src:
        good = oracle.evaluate(el.id for el in split.good)
        if good != opt.value:
            raise InvalidInstanceError(
                f"{src['file']}: the good set must be an optimum {config.k}-set; "
                f"it is worth {good}, the optimum {opt.value}"
            )
    return split, plan, (oracle, opt.value)


def _submod_run(config: ExperimentConfig, streams: list, trial: tuple) -> list[tuple[dict, dict]]:
    oracle, opt_value = trial
    if config.guess == "auto":
        results = []
        for stream in streams:
            stats = RunStats()
            results.append((guess_run(stream, config.k, config.delta, oracle, stats=stats), stats))
    else:  # exact mode ignores the guess g
        results = run_tree_streams(
            streams, config.k, config.delta, oracle, mode=config.mode, g=opt_value,
        )
    return [(
        {
            "guess_mode": config.guess,
            "best_value": sol.value,
            "opt_value": opt_value,
            "ratio": sol.value / opt_value if opt_value else 0.0,
            "nodes_live_max": stats.nodes_live_max,
            "oracle_calls": stats.oracle_calls,
        },
        {"nodes_live_max": stats.nodes_live_max, "guesses_live_max": stats.guesses_live_max},
    ) for sol, stats in results]


# ---------------------------------------------------------------------------
# matching experiments


def _load_matching_trial(
    config: ExperimentConfig, t_seed: Optional[int]
) -> tuple[InstanceSplit, Optional[InjectionPlan], int]:
    """(split, fixed plan, m*); an instance file ignores ``t_seed``, and its
    good edges must hold a maximum matching, as generated ones do."""
    src = config.instance
    if "file" in src:
        split, plan = read_matching_instance_file(src["file"])
        m_star = len(exact_max_matching(edges_from_stream(split.good + split.noise)))
        good = len(exact_max_matching(edges_from_stream(split.good)))
        if good != m_star:
            raise InvalidInstanceError(
                f"{src['file']}: the good edges must hold a maximum matching; "
                f"their largest matching has size {good}, the instance's {m_star}"
            )
        return split, plan, m_star
    split, m_star = generate_matching_instance(
        src["kind"], src.get("params", {}), seed=t_seed
    )
    return split, None, m_star


def _matching_run(config: ExperimentConfig, streams: list, m_star: int) -> list[tuple[dict, dict]]:
    return [_match_stream(config, stream, m_star) for stream in streams]


def _match_stream(config: ExperimentConfig, stream, m_star: int) -> tuple[dict, dict]:
    algo = config.match_mode
    edges = (el.payload for el in stream)  # every algorithm reads its stream once
    memory: dict = {}
    if algo == "greedy":
        out = greedy_matching(edges)
    elif algo == "match":
        out = match_run(edges, m_star)
    else:
        gstats = GuessRunStats()
        out = geometric_guess_run(edges, config.delta_guess, stats=gstats)
        memory["guesses_live_max"] = gstats.guesses_live_max
    columns = {
        "algo": algo,
        "size": len(out),
        "opt_size": m_star,
        "ratio": len(out) / m_star if m_star else 0.0,
    }
    return columns, memory


#: problem -> (CSV columns, trial loader, run over realized streams) for ``_run_trials``
PROBLEMS = {
    "submod": (SUBMOD_COLUMNS, _load_submod_trial, _submod_run),
    "matching": (MATCHING_COLUMNS, _load_matching_trial, _matching_run),
}


# ---------------------------------------------------------------------------
# recurrence experiments


def _run_recurrence(config: ExperimentConfig) -> ExperimentResult:
    """Certify R(k,k) >= bound for k <= certify_k, or build the table to kmax.

    The certificate encloses the diagonal in outward-rounded float intervals
    (``certify_diagonal``), whatever ``table_mode`` says; ``table_mode``
    picks the arithmetic of the emitted table and of its minimum.  Only the
    verdict "holds" exits 0.
    """
    fp = config.fingerprint()
    records: list[TrialRecord] = []
    exit_code = 0
    path = None
    if config.certify_k is not None:
        bound = config.bound if config.bound is not None else "0.5506"
        cert = certify_diagonal(config.t, config.certify_k, bound)
        exit_code = 0 if cert.verdict == "holds" else 1
        records.append(
            TrialRecord(
                columns={
                    "verdict": cert.verdict,
                    "min_diagonal": cert.lo,
                    "bound": str(bound),
                    "config_fp": fp,
                }
            )
        )
    else:
        path = resolve_out(config.out)
        table = compute_table(t=config.t, k_max=config.kmax, mode=config.table_mode)
        if path is not None:
            rows = zip(range(1, config.kmax + 1), table.diagonal[1:].tolist(),
                       table.diag_tags[1:].tolist())
            _write_csv(path, RECURRENCE_COLUMNS, (
                [k, repr(value), TAG_NAMES[tag], fp] for k, value, tag in rows
            ))
        records.append(
            TrialRecord(
                columns={
                    "min_diagonal": float(min_diagonal(table, 1, config.kmax)),
                    "kmax": config.kmax,
                    "config_fp": fp,
                }
            )
        )
    return ExperimentResult(records=records, summary=None, csv_path=path, exit_code=exit_code)


# ---------------------------------------------------------------------------
# instance files


def _payload_to_json(payload):
    if isinstance(payload, frozenset):
        return sorted(payload, key=repr)
    if isinstance(payload, Edge):
        return [payload.u, payload.v]
    return payload


def write_instance_file(
    path: str, split: InstanceSplit, plan: Optional[InjectionPlan] = None
) -> None:
    """JSON-lines element records plus an optional trailing plan record."""
    with open(path, "w") as fh:
        for role, elements in (("good", split.good), ("noise", split.noise)):
            for el in elements:
                fh.write(
                    json.dumps(
                        {"id": el.id, "role": role, "payload": _payload_to_json(el.payload)},
                        sort_keys=True,
                    )
                    + "\n"
                )
        if plan is not None:
            fh.write(
                json.dumps({"slots": [[s, i] for s, i in plan.entries]}) + "\n"
            )


def _read_split(path: str, parse_payload) -> tuple[InstanceSplit, Optional[InjectionPlan]]:
    """The split of a JSON-lines instance file, in file order, and its plan.

    ``parse_payload`` turns a record's JSON payload into the element payload
    and raises TypeError or ValueError on a malformed one.  A malformed line
    (NaN, Infinity and numbers out of float range included), a repeated id,
    a second slots record, or a slots record that does not fit the elements
    raises InvalidInstanceError naming ``path:line``; a file that cannot be
    opened, or that has no good element, raises it naming ``path``.
    """
    elements: dict = {"good": [], "noise": []}
    id_lines: dict = {}              # element id -> line of its record
    plan = plan_line = None
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InvalidInstanceError(f"{path}: {exc.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise InvalidInstanceError(f"{where}: not UTF-8 text") from None
            if not line or line.startswith("#"):
                continue
            try:
                rec = json.loads(line, parse_constant=_no_constant, parse_float=_finite_float)
            except json.JSONDecodeError as exc:
                raise InvalidInstanceError(f"{where}: not JSON ({exc.msg})") from None
            except ValueError as exc:
                raise InvalidInstanceError(f"{where}: {exc}") from None
            if not isinstance(rec, dict):
                raise InvalidInstanceError(f"{where}: expected a JSON object")
            if "slots" in rec:
                if plan_line is not None:
                    raise InvalidInstanceError(f"{where}: a second slots record; "
                                               f"the first is on line {plan_line}")
                try:
                    plan = InjectionPlan(entries=tuple(_slot(*e) for e in rec["slots"]))
                except (TypeError, ValueError):
                    raise InvalidInstanceError(f"{where}: slots must be [slot, noise_id] "
                                               "pairs of an integer and a number or string") from None
                plan_line = lineno
                continue
            missing = [name for name in ("id", "role", "payload") if name not in rec]
            if missing:
                raise InvalidInstanceError(f"{where}: missing {', '.join(missing)}")
            try:
                _scalar(rec["id"], "id")
            except ValueError as exc:
                raise InvalidInstanceError(f"{where}: {exc}") from None
            if rec["id"] in id_lines:
                raise InvalidInstanceError(f"{where}: element id {rec['id']!r} repeats "
                                           f"the record on line {id_lines[rec['id']]}")
            id_lines[rec["id"]] = lineno
            if rec["role"] not in ("good", "noise"):
                raise InvalidInstanceError(
                    f"{where}: role must be 'good' or 'noise', got {rec['role']!r}"
                )
            try:
                payload = parse_payload(rec["payload"])
            except (TypeError, ValueError) as exc:
                raise InvalidInstanceError(f"{where}: {exc}") from None
            elements[rec["role"]].append(Element(id=rec["id"], payload=payload))
    if not elements["good"] and not elements["noise"]:
        raise InvalidInstanceError(f"{path}: no element records")
    if not elements["good"]:
        raise InvalidInstanceError(f"{path}: no good element; a stream needs at least one")
    split = InstanceSplit(good=tuple(elements["good"]), noise=tuple(elements["noise"]))
    if plan is not None:
        try:
            plan.validate(split)
        except PlanValidationError as exc:
            raise InvalidInstanceError(f"{path}:{plan_line}: {exc}") from None
    return split, plan


def _no_constant(name: str):
    """``json.loads`` hook for NaN, Infinity and -Infinity, which JSON lacks."""
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    """``json.loads`` hook for a JSON number with a fraction or exponent;
    ValueError for one out of float range, such as 1e400."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"number {text} is out of float range")
    return x


def _scalar(x, what: str):
    """``x`` if it is a JSON number or string; ValueError naming ``what``
    for true, false, null, an array or an object."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ValueError(f"{what} must be a number or a string, got {json.dumps(x)}")
    return x


def _slot(slot, noise_id) -> tuple:
    if type(slot) is not int:
        raise ValueError("not a slot entry")
    return slot, _scalar(noise_id, "noise id")


def _point_set(payload) -> frozenset:
    if not isinstance(payload, list):
        raise ValueError(f"payload must be a list of points, got {payload!r}")
    return frozenset(_scalar(p, "point") for p in payload)


def _edge(payload) -> Edge:
    """A [u, v] pair as an undirected Edge; list vertices become tuples."""
    if not isinstance(payload, list) or len(payload) != 2:
        raise ValueError(f"payload must be a [u, v] pair, got {payload!r}")
    u, v = (tuple(x) if isinstance(x, list) else _scalar(x, "vertex") for x in payload)
    hash((u, v))  # a JSON object inside a list vertex raises TypeError here, not in a run
    return Edge(u, v)


def read_submod_instance_file(
    path: str,
) -> tuple[CoverageInstance, InstanceSplit, Optional[InjectionPlan]]:
    split, plan = _read_split(path, _point_set)
    rects = {el.id: el.payload for el in split.good + split.noise}
    return CoverageInstance(rect_of=rects), split, plan


def read_matching_instance_file(path: str) -> tuple[InstanceSplit, Optional[InjectionPlan]]:
    return _read_split(path, _edge)
