"""Command-line interface; every subcommand prints JSON to stdout.

Exit status: 0 on success, 1 when an experiment gate fails, 2 for bad
usage, bad input files, infeasible configuration, or an overflowing value.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import bounds as bounds_mod
from . import instance as instance_mod
from .harness import METHODS, ConfigError, ExperimentConfig
from .harness import run_experiment, write_outputs
from .matching import Matching, find_blocking_pairs, stable_husbands
from .oracle import enumerate_stable
from .random_model import audit_window, audit_window_stats, run as run_process

GIRL_LETTERS = "ABCD"
BOY_LETTERS = "WXYZ"


def _emit(doc: object) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_matching(path: str, n: int) -> Matching:
    """A matching file: a list of n husband entries, or an object holding
    it under "husband_of"; each entry a boy index or null."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("matching document is nested too deep to parse")
    if isinstance(doc, dict) and "husband_of" not in doc:
        raise ValueError("matching document has no 'husband_of' list")
    rows = doc["husband_of"] if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f"matching must list exactly {n} husband entries")
    for g, b in enumerate(rows):
        if b is not None and (not isinstance(b, int) or isinstance(b, bool)):
            raise ValueError(
                f"husband_of[{g}] must be a boy index or null, got {json.dumps(b)}"
            )
    return Matching(rows)


def _letters(inst: instance_mod.PreferenceInstance) -> bool:
    """Letter display applies only to the canonical 4x4 example."""
    return inst == instance_mod.fixture_4x4()


def _matching_letters(m: Matching) -> str:
    return ",".join(
        f"{GIRL_LETTERS[g]}{BOY_LETTERS[b]}" for g, b in m.pairs()
    )


def _cmd_husbands(args: argparse.Namespace) -> int:
    inst = instance_mod.load(args.instance)
    enum = stable_husbands(inst, args.girl, keep_trace=args.trace)
    doc: dict = {
        "girl": args.girl,
        "husbands": enum.husbands,
        "matchings": [list(m.husband_of) for m in enum.matchings],
    }
    if args.trace:
        doc["trace"] = [asdict(e) for e in enum.trace or []]
    if _letters(inst):
        doc["display"] = {
            "girl": GIRL_LETTERS[args.girl],
            "husbands": [BOY_LETTERS[b] for b in enum.husbands],
            "matchings": [_matching_letters(m) for m in enum.matchings],
        }
    _emit(doc)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    inst = instance_mod.load(args.instance)
    matching = _load_matching(args.matching, inst.n)
    pairs = find_blocking_pairs(inst, matching)
    # The payload is the blocking-pair list itself; empty means stable.
    _emit([{"girl": p.girl, "boy": p.boy} for p in pairs])
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    inst = instance_mod.load(args.instance)
    stable = enumerate_stable(inst)
    _emit(
        {
            "count": len(stable.matchings),
            "matchings": [list(m.husband_of) for m in stable.matchings],
            "husband_sets": [sorted(s) for s in stable.husband_sets],
        }
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    audited = args.audit is not None
    # The parser's stop group admits at most one of the four rules.
    cap = audit_window(args.n, args.audit) if audited else args.cap
    if cap is None:
        stop = rule = "first_output" if args.first_output else "natural"
    else:
        stop, rule = cap, "cap"
    outputs, stats = run_process(args.n, args.girl, args.seed, stop, audited)
    doc = {
        "n": args.n,
        "girl": args.girl,
        "seed": args.seed,
        "stop": rule,
        "outputs": [[b, t] for b, t in outputs],
        "husband_count": len(outputs),
        "first_output_time": stats.first_output_time,
        "proposals": stats.t,
        "redundant_proposals": stats.redundant_proposals,
        "acceptances_by_girl": stats.acceptances_by_girl,
        "pre_output_acceptances": stats.pre_output_acceptances,
    }
    if audited:
        doc["audit"] = audit_window_stats(stats, args.audit).to_dict()
    _emit(doc)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    spec = args.pgf
    if spec[0] == "binom":
        if len(spec) != 3:
            raise ConfigError("--pgf binom needs two integers: cells trials")
        pgf: bounds_mod.Pgf = bounds_mod.BinomialPowerPgf(int(spec[1]), int(spec[2]))
    elif spec[0] == "accept":
        if len(spec) != 2:
            raise ConfigError("--pgf accept needs one integer: offers")
        pgf = bounds_mod.RisingProductPgf(int(spec[1]))
    else:
        raise ConfigError(f"unknown pgf family {spec[0]!r}; use binom or accept")
    if args.optimize:
        tb = bounds_mod.optimize_tail(pgf, args.tail, args.r)
    else:
        if args.x is None:
            raise ConfigError("provide --x VALUE or --optimize")
        tb = bounds_mod.tail_bound(pgf, args.tail, args.r, args.x)
    _emit(tb.to_dict())
    return 0


def _cmd_envelope(args: argparse.Namespace) -> int:
    env = bounds_mod.husband_count_envelope(
        args.n, args.c, args.C, args.delta, args.eps
    )
    _emit(env.to_dict())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.config:
        config = ExperimentConfig.from_json_file(args.config)
    else:
        if args.kind is None or args.n is None or args.trials is None or args.seed is None:
            raise ConfigError(
                "either --config FILE or all of --kind --n --trials --seed"
            )
        params = {}
        for item in args.param or []:
            key, _, value = item.partition("=")
            if not _:
                raise ConfigError(f"--param needs key=value, got {item!r}")
            try:
                params[key] = json.loads(value)
            except (json.JSONDecodeError, RecursionError):
                raise ConfigError(f"--param value for {key!r} is not valid JSON")
        config = ExperimentConfig.from_dict(
            {
                "kind": args.kind,
                "n": args.n,
                "trials": args.trials,
                "master_seed": args.seed,
                "girl": args.girl,
                "method": args.method,
                "params": params,
            }
        )
    if args.workers is not None:
        config.workers = args.workers
    if args.out is not None:
        config.out_dir = args.out
    report, rows = run_experiment(config)
    write_outputs(config, report, rows)
    _emit(report)
    return 1 if report["gate_failures"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablematch",
        description="Stable-husband enumeration, its randomized model, and "
        "Monte Carlo experiments over both.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("husbands", help="all stable husbands of one girl")
    p.add_argument("--instance", required=True)
    p.add_argument("--girl", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_husbands)

    p = sub.add_parser("check", help="list blocking pairs of a matching")
    p.add_argument("--instance", required=True)
    p.add_argument("--matching", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="brute-force all stable matchings")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("simulate", help="run the randomized proposal process")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--girl", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cap", type=int, help="stop after this many proposals")
    group.add_argument("--natural", action="store_true", help="default stop rule")
    group.add_argument("--first-output", dest="first_output", action="store_true")
    group.add_argument(
        "--audit", type=float, metavar="DELTA",
        help="stop after floor(n^(1+DELTA)) proposals and audit them",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="evaluate or optimize a tail bound")
    p.add_argument(
        "--pgf",
        nargs="+",
        required=True,
        metavar="SPEC",
        help="'binom CELLS TRIALS' or 'accept OFFERS'",
    )
    p.add_argument("--tail", choices=("lower", "upper"), required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--x", type=float)
    p.add_argument("--optimize", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("envelope", help="husband-count envelope for constants")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_envelope)

    p = sub.add_parser("experiment", help="run a seeded experiment campaign")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--kind")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--girl", type=int, default=0)
    p.add_argument("--method", choices=tuple(METHODS), default="a")
    p.add_argument("--param", action="append", metavar="KEY=JSON")
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ConfigError, InstanceLoadError, OracleScaleError and JSONDecodeError
    # are all ValueErrors.
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a value is too large to compute with: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
