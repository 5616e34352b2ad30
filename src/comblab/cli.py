"""Command-line front end.

Subcommands::

    comblab run <config>                     # experiment from a key=value file
                                             # (--help lists the spec strings)
    comblab equiv-check <dag-file> [...]     # certify OMD/Hedge iterate match
    comblab props [--scope S] [--seed N]     # run the invariant suite
    comblab lb-demo <theorem-id> [--seed N]  # one-shot lower-bound experiment

A :class:`ComblabError` (an input file it cannot open is a PreconditionError)
prints one line ``comblab: <Type>: <message>`` on stderr and exits with 2.
"""

import argparse
import json
import sys

from .adversaries import GaussianFeasibleStream
from .domain import DagPathSet, load_dag
from .errors import ComblabError, PreconditionError
from .harness import (LB_DEMOS, check_iterate_equivalence, lb_demo,
                      parse_config, run_experiment, spec_table)
from .properties import PROPERTIES, run_property_suite
from .sampling import RngStream


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="comblab",
        description="Online learning over combinatorial decision sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config",
                           epilog=spec_table(),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    p_run.add_argument("config")

    p_eq = sub.add_parser("equiv-check",
                          help="compare numeric mirror descent with "
                               "weight-pushing Hedge on a DAG")
    p_eq.add_argument("dag_file")
    p_eq.add_argument("--eta", type=float, default=0.3)
    p_eq.add_argument("--T", type=int, default=50)
    p_eq.add_argument("--tol", type=float, default=1e-6)
    p_eq.add_argument("--seed", type=int, default=0)

    p_props = sub.add_parser("props", help="run the invariant suite")
    p_props.add_argument("--scope", default=None,
                         choices=list(dict.fromkeys(
                             scope for scope, _ in PROPERTIES)))
    p_props.add_argument("--seed", type=int, default=0)

    p_lb = sub.add_parser("lb-demo", help="reproduce a lower-bound experiment")
    p_lb.add_argument("theorem_id", choices=sorted(LB_DEMOS))
    p_lb.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        return _run(args)
    except ComblabError as err:
        print(f"comblab: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def _join_negative_values(argv):
    """``--opt -1e-9`` as ``--opt=-1e-9``.  argparse takes a token that
    starts with ``-`` for an option unless it reads as ``-1`` or ``-0.5``,
    so ``--tol -1e-9`` would stop there with "expected one argument"
    instead of reaching the value's own check."""
    joined = []
    for token in argv:
        if (token.startswith("-") and joined and joined[-1].startswith("--")
                and "=" not in joined[-1] and _is_number(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _run(args):
    """Run the parsed subcommand; return its exit code."""
    if args.command == "run":
        config = _read(parse_config, args.config)
        result = run_experiment(config)
        print(result.summary_json())
        if config.out:
            print(f"per-round ledger written to {config.out}", file=sys.stderr)
        return 0

    if args.command == "equiv-check":
        dag = _read(load_dag, args.dag_file)
        stream = GaussianFeasibleStream(DagPathSet(dag), args.T,
                                        RngStream(args.seed, 0))
        report = check_iterate_equivalence(dag, stream, args.eta, tol=args.tol)
        status = "PASS" if report.passed else "FAIL"
        print(f"{status}: max per-round policy gap {report.max_gap:.3e} "
              f"(tolerance {report.tolerance:.1e}, {args.T} rounds)")
        return 0 if report.passed else 1

    if args.command == "props":
        results = run_property_suite(scope=args.scope, seed=args.seed)
        for res in results:
            print(res.line())
        failed = [r for r in results if not r.passed]
        print(f"{len(results) - len(failed)}/{len(results)} invariants passed")
        return 0 if not failed else 1

    if args.command == "lb-demo":
        report = lb_demo(args.theorem_id, seed=args.seed)
        print(json.dumps(report, indent=2))
        return 0

    return 2


def _read(load, path):
    """``load(path)``; a file it cannot open is a PreconditionError."""
    try:
        return load(path)
    except OSError as err:
        raise PreconditionError(str(err)) from None


if __name__ == "__main__":
    sys.exit(main())
