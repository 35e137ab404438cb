"""Command-line front end.

Subcommands: solve, reduce, oracle, experiment, verify. Exit codes are fixed:
0 success, 1 infeasible / not controllable, 2 invalid input (an unreadable
input or an unwritable output path included), 3 internal or numeric error.
Output payloads are JSON with a ``schema_version`` field and go to --out
when given, stdout otherwise. The rank backend is ``--backend``, "exact"
unless given, and seeds default to a fixed constant, never the clock, so a
command's output depends only on its arguments and input files.

The command modules are bound as modules and called through when a command
runs, so a process executes only the modules its command uses (see
``minctrl.__init__``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from minctrl import (
    DEFAULT_SEED,
    RANK_BACKENDS,
    experiments,
    greedy,
    matrices,
    oracles,
    reductions,
)
from minctrl.errors import InvalidInputError, MinctrlError

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def _emit(payload: dict, out: str | Path | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _check_output_paths(*paths: str | None) -> None:
    """Reject an output path that is a directory or lies in a missing one,
    before any work."""
    for path in paths:
        if path and Path(path).is_dir():
            raise InvalidInputError(f"cannot write {path}: is a directory")
        if path and not Path(path).parent.is_dir():
            raise InvalidInputError(f"cannot write {path}: no such directory")


def _cmd_solve(args) -> int:
    matrix = matrices.load_matrix(args.matrix)
    if args.mode == "diagonal":
        result = greedy.greedy_diagonal(matrix, args.backend)
    elif args.algo == "rand":
        result = greedy.randomized_greedy_vector(matrix, args.seed, args.backend)
    else:
        result = greedy.deterministic_greedy_vector(matrix, args.backend)
    payload = result.to_json_dict()
    payload["mode"] = args.mode
    payload["algorithm"] = "diagonal" if args.mode == "diagonal" else args.algo
    _emit(payload, args.out)
    return EXIT_OK if result.controllable else EXIT_INFEASIBLE


def _cmd_reduce(args) -> int:
    inst = reductions.load_instance(args.instance)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    red = reductions.build_reduction(inst)
    matrices.save_matrix(red.left_eigenvectors, out_dir / "V.json")
    matrices.save_matrix(red.system_matrix, out_dir / "A.json")
    index_map = {"schema_version": 1, **red.to_json_dict()}
    written = ["V.json", "A.json"]
    if args.symmetric:
        sym = reductions.build_symmetric_extension(inst)
        matrices.save_matrix(sym.left_eigenvectors, out_dir / "V_hat.json")
        matrices.save_matrix(sym.system_matrix, out_dir / "A_hat.json")
        index_map["symmetric"] = sym.to_json_dict()
        written += ["V_hat.json", "A_hat.json"]
    _emit(index_map, out_dir / "index_map.json")
    written.append("index_map.json")
    _emit(
        {"schema_version": 1, "out_dir": str(out_dir), "written": written},
        args.out,
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    # only the hitting-set search reads an instance, and executes reductions
    if args.kind == "hitting-set":
        target = reductions.load_instance(args.target)
        search = oracles.brute_force_hitting_set
    else:
        # min-vector and min-diagonal: one search (see ``oracles``)
        target = matrices.as_rational(matrices.load_matrix(args.target))
        search = oracles.brute_force_min_vector_support
    result = search(target, allow_large=args.allow_large)
    payload = result.to_json_dict()
    payload["kind"] = args.kind
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    base = matrices.load_json_object(args.config, "object") if args.config else {}
    overrides = {
        "n_values": tuple(args.n_values) if args.n_values else None,
        "trials_per_n": args.trials,
        "edge_probability": args.edge_probability,
        "seed": args.seed,
        "solver": args.solver,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    if "n_values" not in base:
        raise InvalidInputError("n_values required (config file or --n-values)")
    if "trials_per_n" not in base:
        raise InvalidInputError("trials_per_n required (config file or --trials)")
    cfg = experiments.ExperimentConfig.from_json_dict(base)
    report = experiments.run_experiment(cfg)
    _emit(report.to_json_dict(), args.out)
    if args.csv:
        Path(args.csv).write_text(report.records_to_csv())
    return EXIT_OK


def _cmd_verify(args) -> int:
    matrix = matrices.load_matrix(args.matrix)
    b = matrices.load_matrix(args.b)
    n = matrix.rows
    if sorted((b.rows, b.cols)) != sorted((n, 1)):
        raise InvalidInputError(f"b must be an {n}-vector, got {b.rows}x{b.cols}")
    if b.rows == 1 and n != 1:
        b = b.transpose()
    rank = greedy.controllability_rank(matrix, b, args.backend)  # also rejects a non-square A
    payload = {
        "schema_version": 1,
        "n": n,
        "backend": args.backend,
        "controllable": rank == n,
    }
    if args.backend == "pbh":
        payload["rank"] = rank
    _emit(payload, args.out)
    return EXIT_OK if rank == n else EXIT_INFEASIBLE


@functools.cache  # once per process; subcommands look up their helpers when run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minctrl",
        description="Sparse actuator selection for linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="greedy sparse-input solve")
    p_solve.add_argument("matrix", help="system matrix (JSON or CSV)")
    p_solve.add_argument("--mode", choices=("vector", "diagonal"), default="vector")
    p_solve.add_argument("--algo", choices=("rand", "det"), default="det")
    p_solve.add_argument("--backend", choices=RANK_BACKENDS, default="exact")
    p_solve.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=_cmd_solve)

    p_reduce = sub.add_parser(
        "reduce", help="compile a hitting-set instance to a controllability instance"
    )
    p_reduce.add_argument("instance", help="instance JSON file")
    p_reduce.add_argument("--symmetric", action="store_true")
    p_reduce.add_argument("--out-dir", default="reduction_out")
    p_reduce.add_argument("--out")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_oracle = sub.add_parser("oracle", help="exact brute-force optimum")
    p_oracle.add_argument("target", help="instance or eigenvector-matrix file")
    p_oracle.add_argument(
        "--kind",
        required=True,
        choices=("hitting-set", "min-vector", "min-diagonal"),
    )
    p_oracle.add_argument("--allow-large", action="store_true")
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_exp = sub.add_parser("experiment", help="random-graph experiment run")
    p_exp.add_argument("config", nargs="?", help="config JSON file")
    p_exp.add_argument("--n-values", type=int, nargs="+", dest="n_values")
    p_exp.add_argument("--trials", type=int)
    p_exp.add_argument("--edge-probability", type=float)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--solver", choices=("randomized", "deterministic"))
    p_exp.add_argument("--csv", help="also write flattened trial records")
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=_cmd_experiment)

    p_verify = sub.add_parser("verify", help="check controllability of (A, b)")
    p_verify.add_argument("matrix")
    p_verify.add_argument("b")
    p_verify.add_argument("--backend", choices=RANK_BACKENDS, default="exact")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_paths(args.out, getattr(args, "csv", None))
        return args.func(args)
    except (InvalidInputError, OSError) as exc:  # OSError: an unusable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MinctrlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # internal bug or numeric blowup
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
