"""Command-line entry point wiring the solvers and simulators to JSON files.

Every command reads a game document, emits one result document
{"command", "inputs_digest", "result"} on stdout, and exits 0 on
success, 2 on validation errors, 3 on numerical failure.  Output is
byte-identical for identical inputs and --seed.  Formats and defaults
are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from typing import Optional

import numpy as np

from . import bruteforce, general_commitment, maximin, nr_commitment, playback
from .approachability import test_assignment_valid
from .core import BimatrixGame, CspAssignment
from .errors import GridTooLarge, InvalidInput, MenuOptError, NumericalFailure
from .menus import no_regret_menu
from .stackelberg import type_leader_values

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _digest(game_bytes: bytes, args: argparse.Namespace) -> str:
    h = hashlib.sha256()
    h.update(game_bytes)
    rel = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "game")}
    h.update(json.dumps(rel, sort_keys=True, default=str).encode())
    return h.hexdigest()


def _emit(command: str, digest: str, result: dict) -> None:
    doc = {"command": command, "inputs_digest": digest, "result": result}
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 12)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _round_floats(float(obj))
    return obj


def _load_game(path: str) -> tuple[BimatrixGame, bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read game file: {exc}") from exc
    return BimatrixGame.from_json(text), raw


def _load_assignment(path: Optional[str], game: BimatrixGame) -> CspAssignment:
    if path is None:
        raise InvalidInput("--assignment is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            assign = CspAssignment.from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read assignment file: {exc}") from exc
    if len(assign) != game.k or assign[0].weights.size != game.m * game.n:
        raise InvalidInput("assignment dimensions do not match the game")
    return assign


def cmd_stackelberg(game: BimatrixGame, args) -> dict:
    if args.type is not None and not 0 <= args.type < game.k:
        raise InvalidInput(f"type index {args.type} out of range")
    v, csps = type_leader_values(game)
    types = range(game.k) if args.type is None else [args.type]
    out = []
    for i in types:
        mat = csps[i].weights.reshape(game.m, game.n)
        li, oj = np.unravel_index(int(np.argmax(mat)), mat.shape)
        out.append(
            {
                "type": i,
                "value": float(v[i]),
                "csp": csps[i].weights.tolist(),
                "outcome": {"learner_action": int(li), "optimizer_action": int(oj)},
            }
        )
    result = out[0] if args.type is not None else {"per_type": out}
    return result


def cmd_commit_nr(game: BimatrixGame, args) -> dict:
    res = nr_commitment.optimal_no_regret_commitment(game)
    return {
        "value": res.value,
        "assignment": [p.weights.tolist() for p in res.assignment.profiles],
        "stackelberg_values": res.stackelberg_values.tolist(),
        "nsr_baseline": nr_commitment.nsr_baseline_value(game),
    }


def cmd_commit_general(game: BimatrixGame, args) -> dict:
    res = general_commitment.optimize_general(
        game, eps=args.eps, delta=args.delta, max_iters=args.max_iters
    )
    return {
        "value_lower_bound": res.value_lower_bound,
        "assignment": [p.weights.tolist() for p in res.assignment.profiles],
        "menu": json.loads(res.menu.to_json()),
        "converged": res.converged,
        "iterations": res.iterations,
        "menu_certified": res.verdict_approachable,
    }


def cmd_maximin(game: BimatrixGame, args) -> dict:
    factory = maximin.ADVERSARIES.get(args.adversary)
    if factory is None:
        raise InvalidInput(f"unknown adversary {args.adversary!r}")
    run = maximin.run_maximin(game, args.eps, factory(), args.T, seed=args.seed)
    return {
        "final_V": run.final_V,
        "abort_count": run.abort_count,
        "learner_avg": run.learner_avg,
        "per_type_avg": run.per_type_avg.tolist(),
        "epochs": [
            {"V": e.V, "start_round": e.start_round} for e in run.epochs
        ],
    }


def cmd_check_menu(game: BimatrixGame, args) -> dict:
    assign = _load_assignment(args.assignment, game)
    verdict = test_assignment_valid(assign, game, args.delta)
    return {
        "outcome": verdict.outcome,
        "approachable": verdict.approachable,
        "delta": verdict.delta,
        "direction": None if verdict.direction is None else verdict.direction.tolist(),
        "certificate_y": None
        if verdict.certificate_y is None
        else verdict.certificate_y.tolist(),
    }


def cmd_simulate(game: BimatrixGame, args) -> dict:
    if not 0 <= args.type < game.k:
        raise InvalidInput(f"type index {args.type} out of range")
    if args.learner == "commit-nr":
        res = nr_commitment.optimal_no_regret_commitment(game)
        menu, extra = res.nsr_menu, res.extra_points
        hull, fallback = no_regret_menu(game), res.nsr_menu
    elif args.learner == "commit-general":
        gen = general_commitment.optimize_general(game, eps=args.eps, delta=args.delta)
        menu, extra = gen.menu, gen.extra_points
        hull, fallback = gen.menu, gen.menu
    else:
        raise InvalidInput(f"unknown learner {args.learner!r}")
    chosen, opp_policy, picked = playback.optimizer_best_response_policy(
        menu, extra, game.u_O(args.type), game.u_L, game
    )
    learner = playback.MenuScheduleLearner(hull, list(extra) + [chosen], fallback)
    stream = None
    if args.stream:

        def stream(t, x, y):
            print(
                json.dumps(
                    {"t": t, "x": _round_floats(x), "y": _round_floats(y)},
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )

    report = playback.simulate(
        game,
        learner,
        opp_policy,
        args.T,
        type_index=args.type,
        chosen_target=len(extra),
        menu=hull,
        on_round=stream,
    )
    return {
        "learner_avg": report.learner_avg,
        "opponent_avg": report.opponent_avg,
        "per_type_avg": report.per_type_avg.tolist(),
        "chosen_csp": chosen.weights.tolist(),
        "picked_extra_point": picked,
        "final_csp": report.final_csp.weights.tolist(),
        "max_menu_violation": report.max_menu_violation,
    }


def cmd_oracle(game: BimatrixGame, args) -> dict:
    if args.oracle == "nr":
        return {"value": bruteforce.grid_bruteforce_nr(game, args.resolution)}
    if args.oracle == "validity":
        assign = _load_assignment(args.assignment, game)
        ok, y = bruteforce.grid_menu_validity(assign, game, args.resolution)
        return {"valid_on_grid": ok, "certificate_y": None if y is None else y.tolist()}
    if args.oracle == "maximin":
        return {
            "value": bruteforce.grid_maximin_opt(
                game, args.resolution, 0.02 if args.delta is None else args.delta
            )
        }
    raise InvalidInput(f"unknown oracle {args.oracle!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="menuopt",
        description="Optimal commitment menus for repeated bimatrix games "
        "against a finite prior over opponent payoffs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name):
        p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--game", required=True, help="path to a game JSON document")
        # a name, looked up when the command runs: the parser outlives rebinding
        p.set_defaults(func="cmd_" + name.replace("-", "_"))
        return p

    p = add("stackelberg")
    p.add_argument("--type", type=int, default=None, help="opponent type index (default: all)")

    add("commit-nr")

    p = add("commit-general")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=None, help="default eps/(8*sqrt(mn))")
    p.add_argument("--max-iters", type=int, default=None, dest="max_iters")

    p = add("maximin")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--T", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--adversary",
        default="bestresponse",
        choices=sorted(maximin.ADVERSARIES),
        help="bestresponse is an alias of schedule",
    )

    p = add("check-menu")
    p.add_argument("--assignment", required=True, help="path to an assignment JSON document")
    p.add_argument("--delta", type=float, default=0.05)

    p = add("simulate")
    p.add_argument("--learner", default="commit-nr", choices=["commit-nr", "commit-general"])
    p.add_argument("--type", type=int, default=0)
    p.add_argument("--T", type=int, default=10_000)
    p.add_argument(
        "--seed", type=int, default=0, help="enters inputs_digest only; simulate draws no randomness"
    )
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--stream", action="store_true", help="emit per-round JSON lines")

    p = add("oracle")
    p.add_argument("oracle", choices=["nr", "validity", "maximin"])
    p.add_argument("--resolution", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--assignment", default=None)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: `parse_args` leaves it unchanged."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    try:
        game, raw = _load_game(args.game)
        result = globals()[args.func](game, args)
    except (InvalidInput, GridTooLarge) as exc:
        print(json.dumps({"error": {"kind": "validation", "message": str(exc)}}, sort_keys=True))
        return EXIT_VALIDATION
    except (NumericalFailure, MenuOptError) as exc:
        print(json.dumps({"error": {"kind": "numerical", "message": str(exc)}}, sort_keys=True))
        return EXIT_NUMERICAL
    _emit(args.command, _digest(raw, args), _round_floats(result))
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
