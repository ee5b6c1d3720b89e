"""Command-line entry point.

Subcommands: ``run <config> -o <dir>``, ``verify <suite>``,
``list-models``, ``list-solutions``.  The flags ``--paths``, ``--dt``,
``--seed`` and ``--refine`` override the corresponding config settings.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance, geometry, harness, solutions
from .errors import EntroflowError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="entropy functionals along Brownian motion on evolving metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a scenario .cfg file")
    p_run.add_argument("-o", "--outdir", required=True, help="output directory")
    p_run.add_argument("--paths", type=int, help="override mc.paths")
    p_run.add_argument("--dt", type=float, help="override mc.dt")
    p_run.add_argument("--seed", type=int, help="override mc.seed")
    p_run.add_argument("--refine", type=int, help="override the refinement level")

    p_verify = sub.add_parser("verify", help="run an acceptance suite")
    p_verify.add_argument(
        "suite", nargs="?", default="all",
        choices=["paper-examples", "properties", "all"],
    )

    sub.add_parser("list-models", help="print the metric model catalog")
    sub.add_parser("list-solutions", help="print the solution catalog")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {}
            for key in harness.OVERRIDE_KEYS:
                val = getattr(args, key)
                if val is not None:
                    overrides[key] = val
            manifest = harness.run(args.config, args.outdir, overrides=overrides)
            print(f"wrote {', '.join(manifest.outputs)} to {args.outdir}")
            return 0
        if args.command == "verify":
            rows, elapsed = acceptance.verify(args.suite)
            print(acceptance.format_rows(rows))
            print(f"elapsed: {elapsed:.1f}s")
            return 0 if all(r.passed for r in rows) else 1
        if args.command == "list-models":
            for ident in geometry.CATALOG_IDS:
                print(ident)
            return 0
        if args.command == "list-solutions":
            for ident in solutions.CATALOG_IDS:
                print(ident)
            return 0
    except EntroflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
