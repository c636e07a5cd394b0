"""Command line entry points: run one variant, run ablations, compare reports.

Usage sketch:

    zotune run --variant full --n-seeds 10 --rounds 30 --out results/
    zotune ablate --rounds 30 --out ablation/
    zotune compare ablation/report_full.json ablation/report_raw-metric.json

Experiment flags set the ``ExperimentConfig`` field of the same name; a
JSON config file (--config) supplies fields by name and takes precedence
over individual flags.  Unknown or wrongly typed fields are refused, and so
is a ``variant`` in the config of ``ablate``, which sets it per run.  ``run``
is ``ablate`` with one variant: both check the whole request first, save each
report as its campaign ends and write every file once.  The process exits 0
only when every requested run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .deltastats import TaylorMode
from .harness import (
    DEFAULT_SEED_POOL,
    VARIANTS,
    ExperimentConfig,
    HarnessConfigError,
    RunReport,
    compare_variants,
    comparison_reference,
    emit_series,
    run_experiment,
)


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that set ``ExperimentConfig`` fields; a flag left out leaves its
    field at the default (``parser`` suppresses unset flags)."""
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument(
        "--seeds", type=int, nargs="+", metavar="SEED", help="explicit seed list"
    )
    seeds.add_argument(
        "--n-seeds",
        type=int,
        metavar="N",
        help="use the first N seeds of the built-in pool",
    )
    parser.add_argument("--rounds", "-T", type=int, help="wall rounds per seed")
    parser.add_argument(
        "--select-count", "-K", type=int, help="Thompson repetitions per decision"
    )
    parser.add_argument(
        "--proposal-samples", "-N", type=int,
        help="random box samples scored per proposal",
    )
    parser.add_argument(
        "--proposal-prob", "-p", type=float,
        help="per-round probability of proposing a new candidate",
    )
    parser.add_argument(
        "--control-fraction", type=float, help="traffic share held by the control group"
    )
    parser.add_argument(
        "--taylor-mode", choices=[m.value for m in TaylorMode],
        help="hourly lift estimator variant",
    )
    parser.add_argument(
        "--tau", "--fixed-delay", dest="fixed_delay", type=int,
        help="fixed feedback delay in rounds",
    )
    parser.add_argument("--xi-mean", type=float, help="extra-delay location")
    parser.add_argument("--xi-sd", type=float, help="extra-delay spread")
    parser.add_argument(
        "--init", dest="bucket_init", choices=("random", "grid"),
        help="initial candidate bucket layout",
    )
    parser.add_argument("--bucket-size", type=int, help="random init size")
    parser.add_argument("--grid-nodes", type=int, help="grid init nodes per axis")
    parser.add_argument("--sigma", type=float, help="per-user reward spread")
    parser.add_argument("--users", type=int, help="users per round")
    parser.add_argument(
        "--draws", dest="draws_per_step", type=int,
        help="observation draws per group per round",
    )
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--config", help="JSON config file; its fields override flags")


def _config_from_args(args: argparse.Namespace, **fixed: object) -> ExperimentConfig:
    """``ExperimentConfig()`` overridden by the flags given, then by
    ``fixed``, then by the ``--config`` file, which may not set a field of
    ``fixed``."""
    given = vars(args)
    d = ExperimentConfig().to_dict()
    d.update((name, value) for name, value in given.items() if name in d)
    if "n_seeds" in given:
        if not 1 <= args.n_seeds <= len(DEFAULT_SEED_POOL):
            raise HarnessConfigError(
                f"--n-seeds must lie in 1..{len(DEFAULT_SEED_POOL)}"
            )
        d["seeds"] = list(DEFAULT_SEED_POOL[: args.n_seeds])
    d.update(fixed)
    if "config" in given:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise HarnessConfigError("config file must hold a JSON object")
        clash = sorted(set(fixed) & set(overrides))
        if clash:
            raise HarnessConfigError(
                f"config file sets {', '.join(clash)}, which this command sets itself"
            )
        d.update(overrides)
    return ExperimentConfig.from_dict(d)


def _cmd_campaigns(args: argparse.Namespace) -> int:
    if "variants" in args:
        comparison_reference(args.variants, args.reference)    # refused before any run
        configs = [_config_from_args(args, variant=variant) for variant in args.variants]
    else:
        configs = [_config_from_args(args)]
    out_dir = configs[0].out_dir    # the configs differ only in variant
    reports = []
    for cfg in configs:
        report = run_experiment(cfg)
        gm, gs = report.final_gain_summary()
        vm, _ = report.final_violation_summary()
        print(
            f"{report.variant}: seeds={len(report.seeds)} rounds={report.rounds} "
            f"final_gain={gm * 100:.3f}% (se {gs * 100:.3f}%) violation={vm:.5f}"
        )
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"report_{report.variant}.json")
            report.save(path)
            print(f"wrote {path}")
        reports.append(report)
    if out_dir:
        emit_series(reports, out_dir)    # summary.csv: one row per variant
    if len(reports) >= 2:
        comparison = compare_variants(reports, reference=args.reference)
        print(comparison.to_text())
        if out_dir:
            comparison.to_csv(os.path.join(out_dir, "comparison.csv"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    reports = [RunReport.load(path) for path in args.reports]
    comparison = compare_variants(reports, args.reference, args.threshold_fraction)
    print(comparison.to_text())
    if args.out:
        comparison.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zotune",
        description="Closed-loop constrained hyperparameter tuning studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one variant across seeds", argument_default=argparse.SUPPRESS
    )
    run.add_argument("--variant", choices=VARIANTS, help="study variant")
    _add_experiment_flags(run)
    run.set_defaults(fn=_cmd_campaigns)

    ablate = sub.add_parser(
        "ablate", help="run several variants and compare",
        argument_default=argparse.SUPPRESS,
    )
    ablate.add_argument(
        "--variants", nargs="+", choices=VARIANTS, default=list(VARIANTS),
        help="variants to run",
    )
    ablate.add_argument("--reference", default=None, help="comparison reference")
    _add_experiment_flags(ablate)
    ablate.set_defaults(fn=_cmd_campaigns)

    compare = sub.add_parser("compare", help="compare saved report files")
    compare.add_argument("reports", nargs="+", help="report JSON paths")
    compare.add_argument("--reference", default=None, help="reference variant")
    compare.add_argument(
        "--threshold-fraction", type=float, default=None,
        help="fraction of the reference final gain used as speed target",
    )
    compare.add_argument("--out", default=None, help="write comparison CSV here")
    compare.set_defaults(fn=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HarnessConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
