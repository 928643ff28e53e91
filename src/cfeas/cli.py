"""Command-line harness: gen, solve, bench, oracle-check."""
from __future__ import annotations

import argparse
import json
import sys

from .bench import ExperimentConfig, run_matrix, write_trace_csv
from .errors import CfeasError, InvalidSpec
from .oracles import SUITES, oracle_check
from .problems import (
    CONFIG_FIELDS,
    CONFIG_SCHEMA,
    GENERATORS,
    SCHEDULES,
    generate,
    pair_from_json,
    pair_to_json,
    read_json,
    read_number,
    read_seed,
    schedule_from_json,
)
from .solver import METHODS, STATUS_CONVERGED, SolverConfig, solve

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2


# every generator parameter of any family, with its reader
_PARAMS = {key: read for _, fields in GENERATORS.values() for key, read, *_ in fields}


def _add_generator_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    """--family, one flag per parameter in _PARAMS, and --seed.  No flag has
    a default: generate() fills in a family's defaults and seed 0, and names
    a parameter that is missing or that the family does not take."""
    p.add_argument("--family", choices=list(GENERATORS), required=required)
    flag_type = {"integer": int, "number": float}  # by the reader's JSON type
    for key, read in _PARAMS.items():
        p.add_argument("--" + key.replace("_", "-"), type=flag_type[read.schema["type"]])
    p.add_argument("--seed", type=int)


def _generator_params(args) -> dict:
    """The generator flags given, --family and --seed included."""
    given = {key: getattr(args, key) for key in ("family", "seed", *_PARAMS)}
    return {key: value for key, value in given.items() if value is not None}


def _generate(args):
    params = _generator_params(args)
    return generate(params.pop("family"), params.pop("seed", 0), **params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfeas",
        description="Two-set convex feasibility: circumcentered solvers and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="materialize an instance as JSON")
    gen.set_defaults(run=_cmd_gen)
    _add_generator_args(gen)
    gen.add_argument("--out", required=True)

    slv = sub.add_parser("solve", help="solve one instance and dump its trace")
    slv.set_defaults(run=_cmd_solve)
    slv.add_argument("--instance", help="instance JSON from `gen`")
    _add_generator_args(slv, required=False)
    slv.add_argument("--method", choices=METHODS, default=SolverConfig.method)
    slv.add_argument("--kernel", help="crm only: a word over X and Y")
    slv.add_argument("--schedule", help="crm only: constant:A | vanishing | table:A,B,...")
    eps = next(field[2] for field in CONFIG_FIELDS if field[0] == "eps")  # a bench config's
    slv.add_argument("--eps", type=float, default=eps)
    slv.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    slv.add_argument("--trace-out")

    ben = sub.add_parser("bench", help="run an experiment matrix from a config file")
    ben.set_defaults(run=_cmd_bench)
    ben.add_argument("--config")
    ben.add_argument("--print-schema", action="store_true")
    ben.add_argument("--jobs", type=int, default=1)
    ben.add_argument("--out", help="override output directory")
    ben.add_argument("--seed-range", help="A..B inclusive, overrides config seeds")
    ben.add_argument("--eps", type=float)
    ben.add_argument("--max-iter", type=int)

    orc = sub.add_parser("oracle-check", help="run brute-force oracle comparisons")
    orc.set_defaults(run=_cmd_oracle_check)
    orc.add_argument("suite", choices=list(SUITES))
    orc.add_argument("--seed-range", default="0..9")

    return parser


def _parse_schedule(text: str):
    """constant:A | vanishing | table:A,B,... read as a schedule document.
    The values fill the named kind's field, or 'value' for a kind that has
    none, which its reader then rejects as an unknown field."""
    kind, _, rest = text.partition(":")
    doc = {"kind": kind}
    try:
        if rest and kind in SCHEDULES:
            values = [float(v) for v in rest.split(",")]
            for key, read, *_ in SCHEDULES[kind][1] or [("value", None)]:
                doc[key] = values[0] if len(values) == 1 and read is read_number else values
        return schedule_from_json(doc)
    except ValueError as exc:  # InvalidSpec included
        raise InvalidSpec(f"--schedule {text!r}: {exc}") from None


def _parse_seed_range(text: str):
    lo, _, hi = text.partition("..")
    try:
        seeds = list(range(read_seed(int(lo)), read_seed(int(hi)) + 1))
    except (ValueError, OverflowError) as exc:  # InvalidSpec included; too many seeds to list
        raise InvalidSpec(f"--seed-range {text!r}: expected A..B of seeds ({exc})") from None
    if not seeds:
        raise InvalidSpec(f"--seed-range {text!r}: empty, A must not exceed B")
    return seeds


def _cmd_gen(args) -> int:
    pair = _generate(args)
    with open(args.out, "w") as fh:
        json.dump(pair_to_json(pair), fh)
    print(f"wrote {args.out} ({args.family}, seed {pair.metadata['seed']}, dim {pair.dim})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    flags = ["--" + key.replace("_", "-") for key in _generator_params(args)]
    if args.instance and flags:
        raise InvalidSpec(f"--instance takes no generator flags, got {' '.join(flags)}")
    if args.instance:
        pair = pair_from_json(read_json(args.instance, "instance"))
    elif args.family:
        pair = _generate(args)
    else:
        raise InvalidSpec("solve needs --instance or --family")
    cfg = SolverConfig(
        method=args.method,
        kernel=args.kernel,
        schedule=_parse_schedule(args.schedule) if args.schedule else None,
        eps=args.eps,
        max_iter=args.max_iter,
    )
    trace = solve(pair, cfg)
    if args.trace_out:
        write_trace_csv(trace, args.trace_out)
    print(
        f"status={trace.status} iterations={trace.iterations} "
        f"final_delta={trace.final_delta:.3e} "
        f"projections={trace.total_algorithmic_projections}"
    )
    return EXIT_OK if trace.status == STATUS_CONVERGED else EXIT_RUN_FAILURE


def _cmd_bench(args) -> int:
    if args.print_schema:
        json.dump(CONFIG_SCHEMA, sys.stdout, indent=2)
        print()
        return EXIT_OK
    if not args.config:
        raise InvalidSpec("bench needs --config (or --print-schema)")
    doc = read_json(args.config, "bench config")
    if not isinstance(doc, dict):
        raise InvalidSpec(f"bench config {args.config}: not a JSON object")
    if args.seed_range:
        doc["seeds"] = _parse_seed_range(args.seed_range)
    if args.eps is not None:
        doc["eps"] = args.eps
    if args.max_iter is not None:
        doc["max_iter"] = args.max_iter
    if args.out:
        doc["output_dir"] = args.out
    config = ExperimentConfig.from_json(doc)
    summary, report = run_matrix(config, jobs=args.jobs)
    for row in summary:
        print(
            f"{row['method']}: mean_iters={row['mean_iters']:.1f} "
            f"mean_final_delta={row['mean_final_delta']:.3e} "
            f"mean_projections={row['mean_projections']:.1f}"
        )
    if report["failures"]:
        print(f"{len(report['failures'])} failed runs:", file=sys.stderr)
        for f in report["failures"]:
            print(f"  {f['method']} seed {f['seed']}: {f['error']}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    report = oracle_check(args.suite, _parse_seed_range(args.seed_range))
    json.dump(report, sys.stdout, indent=2)
    print()
    return EXIT_OK if report["ok"] else EXIT_RUN_FAILURE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InvalidSpec as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a path given on the command line cannot be used
        print(f"usage error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except CfeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
