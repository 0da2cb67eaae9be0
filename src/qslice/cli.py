"""Command-line interface: slice, max-sharpe, count and compare subcommands.

JSON on stdout is the stable machine interface and is byte-identical for
identical (arguments, seed). Diagnostics go to stderr. Exit codes: 0 on
success (an empty selection is a success); 2 when slicing's searches could
not collect the solutions counting reported (``SearchDisagreement``); 1 on
every other error, input and capacity errors included, after one ``error:``
line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

import numpy as np

from . import portfolio as pf
from .comparators import ComparatorLayout, eq_circuit, gt_circuit, lt_circuit
from .search import SearchDisagreement, t_for_resolution
from .sim import apply, new_basis_state


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: usage, one ``error:`` line, exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused after."""
    parser = _Parser(
        prog="qslice",
        description="Grover-based portfolio slicing and maximum-Sharpe selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="frontier CSV path")
        p.add_argument("--resolution", type=float, default=0.01,
                       help="resolving power d (default 0.01)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--backend", choices=("dense", "effective"),
                       default="effective")
        p.add_argument("--output", choices=("json", "text"), default="json")

    p = sub.add_parser("slice", help="select ids by return/risk thresholds")
    common(p)
    p.add_argument("--return-min", type=float, required=True)
    p.add_argument("--risk-max", type=float, required=True)

    p = sub.add_parser("max-sharpe", help="find the maximum-Sharpe id")
    common(p)
    p.add_argument("--repeat", type=int, default=3,
                   help="adaptive-search repetitions (default 3)")
    p.add_argument("--rf", type=float, default=0.0,
                   help="risk-free rate (default 0)")

    p = sub.add_parser("count", help="count ids matching a threshold condition")
    common(p)
    p.add_argument("--return-min", type=float, default=None)
    p.add_argument("--risk-max", type=float, default=None)
    p.add_argument("--mode", choices=("exact", "detect"), default="exact")

    p = sub.add_parser("compare", help="debug an n-bit comparator on (a, b)")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--output", choices=("json", "text"), default="json")
    return parser


def _emit(payload: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load(args: argparse.Namespace) -> pf.FrontierTable:
    """Check the resolution and any thresholds, then read and quantize the input."""
    t = t_for_resolution(args.resolution)
    for name in ("return_min", "risk_max"):
        v = getattr(args, name, None)
        if v is not None and not 0.0 <= v < 1.0:
            raise ValueError(f"--{name.replace('_', '-')} must lie in [0, 1)")
    with open(args.input, "r", encoding="utf-8", newline="") as handle:
        return pf.load_frontier(handle, t)


def _count_payload(est) -> dict:
    return {
        "m": est.m,
        "b": est.b,
        "M_est": est.m_est,
        "M_rounded": est.m_rounded,
        "delta_m_bound": est.bound,
    }


def _slice(args: argparse.Namespace, table: pf.FrontierTable, rng: np.random.Generator):
    result = pf.slice_portfolios(table, args.return_min, args.risk_max, rng, args.backend)
    return result, {
        "selected_ids": sorted(result.ids),
        "count_estimate": _count_payload(result.enumeration.count_estimate),
        "oracle_calls": result.enumeration.oracle_calls,
    }


def _max_sharpe(args: argparse.Namespace, table: pf.FrontierTable, rng: np.random.Generator):
    result = pf.max_sharpe(table, args.rf, rng, args.repeat, args.backend)
    return result, {
        "id": result.id,
        "sharpe_raw": result.sharpe_raw,
        "oracle_calls_total": result.gas.oracle_calls,
        "repetitions": args.repeat,
    }


def _count(args: argparse.Namespace, table: pf.FrontierTable, rng: np.random.Generator):
    result = pf.count_portfolios(
        table, args.return_min, args.risk_max, rng, args.mode, args.backend
    )
    est = result.estimate
    fields = _count_payload(est)
    fields["m_used"] = fields.pop("m")
    fields.update(mode=args.mode, doubled=result.doubled)
    fields["class"] = est.classify()
    return result, fields


def cmd_compare(args: argparse.Namespace) -> int:
    n, a, b = args.n, args.a, args.b
    if n < 1:
        return _fail("n must be >= 1")
    if not (0 <= a < (1 << n) and 0 <= b < (1 << n)):
        return _fail(f"a and b must fit in {n} bits")
    layout = ComparatorLayout(n)
    simulated = {}
    for name, builder in (("gt", gt_circuit), ("lt", lt_circuit), ("eq", eq_circuit)):
        circuit = builder(n)
        basis = a | (b << n)
        state = apply(new_basis_state(circuit.num_qubits, basis), circuit)
        outcome = int(np.argmax(state.probabilities()))
        simulated[name] = (outcome >> layout.outcome_qubit) & 1
    classical = {"gt": int(a > b), "lt": int(a < b), "eq": int(a == b)}
    agree = simulated == classical
    payload = {
        "n": n,
        "a": a,
        "b": b,
        "simulated": simulated,
        "classical": classical,
        "agree": agree,
        "qubit_layout": {"num_qubits": layout.num_qubits},
    }
    _emit(payload, args.output)
    return 0 if agree else 1


#: The data commands. Each runs its driver on the loaded table and returns
#: the result (for its qubit layout) and the payload fields particular to it.
_COMMANDS = {"slice": _slice, "max-sharpe": _max_sharpe, "count": _count}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "count" and args.return_min is None and args.risk_max is None:
            raise ValueError("count needs --return-min and/or --risk-max")
        table = _load(args)
        if args.command == "max-sharpe" and args.repeat < 1:
            raise ValueError("--repeat must be >= 1")
        rng = np.random.default_rng(args.seed)
        result, payload = _COMMANDS[args.command](args, table, rng)
        payload.update(qubit_layout=result.layout, seed=args.seed, backend=args.backend)
        _emit(payload, args.output)
        return 0
    except SearchDisagreement as exc:
        _fail(str(exc))
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
