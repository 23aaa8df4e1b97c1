"""Command-line entry points.

Three subcommands: ``generate`` writes a synthetic dataset CSV with its
manifest, ``pipeline`` runs a full clustering job (simulated or over TCP),
``report`` tabulates result files into a CSV. The JSON config file is the
source of truth; flags override individual fields.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import HashClustError
from .pipeline import apply_overrides, config_from_file, run_generate, run_pipeline, run_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hashclust",
        description="Distributed hash-code clustering: train, encode, cut, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV + manifest")
    gen.add_argument("--config", required=True, help="JSON config file")
    gen.add_argument("--seed", type=int, help="override the config's master seed")
    gen.add_argument("--out", help="output directory (overrides config)")

    pipe = sub.add_parser("pipeline", help="run the full clustering pipeline")
    pipe.add_argument("--config", required=True, help="JSON config file")
    pipe.add_argument("--mode", choices=["sim", "wire"], help="override the config's mode")
    pipe.add_argument("--listen", metavar="HOST:PORT", help="coordinator: the one port every site dials")
    pipe.add_argument("--connect", metavar="HOST:PORT", help="wire site: the coordinator's port to dial")
    pipe.add_argument("--site", type=int, help="wire site: the index it names in its hello")
    pipe.add_argument("--seed", type=int, help="override the config's master seed")
    pipe.add_argument("--out", help="output directory (overrides config)")

    rep = sub.add_parser("report", help="tabulate result JSONs into a CSV")
    rep.add_argument("results", nargs="+", help="results.json files")
    rep.add_argument("--out", help="CSV path (defaults to stdout)")
    return parser


def _cmd_generate(args) -> int:
    cfg = apply_overrides(config_from_file(args.config), seed=args.seed, out=args.out)
    csv_path, manifest_path = run_generate(cfg)
    print(f"wrote {csv_path}")
    print(f"wrote {manifest_path}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = apply_overrides(
        config_from_file(args.config),
        mode=args.mode,
        listen=args.listen,
        connect=args.connect,
        site=args.site,
        seed=args.seed,
        out=args.out,
    )
    results = run_pipeline(cfg)
    if results.get("role") == "site":
        print(f"site {results['site']} finished")
        return 0
    ledger = results["ledger"]
    print(f"purity {results['purity']:.4f}  nmi {results['nmi']:.4f}")
    print(
        f"codebook {results['codebook_size']} codes, "
        f"total {ledger['total_bits']} bits "
        f"({ledger['total_bits'] / (8 * 2 ** 20):.3f} MB)"
    )
    if "measured_paper_bits" in ledger:
        print(f"measured on wire: {ledger['measured_paper_bits']} bits")
    if cfg.out is not None:
        print(f"wrote {cfg.out}/results.json")
    return 0


def _cmd_report(args) -> int:
    rows = run_report(args.results, out_path=args.out)
    if args.out is None:
        print(json.dumps(rows, indent=2))
    else:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"generate": _cmd_generate, "pipeline": _cmd_pipeline, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except HashClustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
