"""Command-line entry point.

One binary, subcommand style. Every invocation resolves its configuration
up front, records it (plus artifact versions and the seed) in a
run-manifest.json under --out-dir, and only then runs. All randomness
flows from the single recorded seed, so reruns with identical inputs are
byte-identical. The default seed comes from $EPISCORE_SEED when the flag
is omitted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, config as configio, evaluation, gradcheck, pipeline, scorer, training
from .episodes import (
    _record, read_episodes, read_pair_tiers, read_pairs, read_segments, write_episodes, write_jsonl, write_pairs
)
from .errors import EmptySetError, EpiscoreError, ManifestParseError

SEED_ENV_VAR = "EPISCORE_SEED"


def _resolve(out_dir: str, path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(out_dir) / p


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_run_manifest(args: argparse.Namespace, out_dir: Path) -> None:
    # Keys in sorted order at every level.
    record = {
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func", "subcommand") and v is not None
        },
        "subcommand": args.subcommand,
        "versions": {
            "episcore": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    _write_json(out_dir / "run-manifest.json", record)


def _write_training(out_dir: Path, scorer_cfg: scorer.ScorerConfig, result: training.TrainResult) -> Path:
    write_jsonl((vars(report) for report in result.history), out_dir / "history.jsonl")
    best_path = out_dir / "best.ckpt"
    scorer.save_checkpoint(best_path, scorer_cfg, result.best_params)
    return best_path


def _write_report(out_dir: Path, scored: list[evaluation.ScoredPair]) -> evaluation.EvalReport:
    report = evaluation.build_report(scored)
    _write_json(out_dir / "report.json", report.to_dict())
    (out_dir / "report.csv").write_text(evaluation.report_csv(report), encoding="utf-8")
    return report


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    (cfg,) = configio.load(args.config, pipeline.SynthConfig, seed=args.seed)
    pairs = pipeline.synth_pairs(cfg, args.n, split=args.split)
    out = _resolve(args.out_dir, args.out)
    write_pairs(pairs, out)
    print(f"wrote {len(pairs)} pairs to {out}")
    return 0


def cmd_pipeline_group(args) -> int:
    manifest = read_segments(args.manifest)
    (cfg,) = configio.load(args.config, pipeline.GroupingConfig)
    episodes = pipeline.group_segments(manifest, cfg, source_tier=args.tier)
    out = _resolve(args.out_dir, args.out)
    write_episodes(episodes, out)
    print(f"grouped {len(manifest.records)} segments into {len(episodes)} episodes at {out}")
    return 0


def cmd_pipeline_filter(args) -> int:
    episodes = read_episodes(args.input)
    kept, rejected = pipeline.filter_structural(episodes)
    out = _resolve(args.out_dir, args.out)
    write_episodes(kept, out)
    rejects_path = _resolve(args.out_dir, args.rejects)
    write_jsonl(({"episode_id": ep.episode_id, "violations": codes} for ep, codes in rejected), rejects_path)
    print(f"kept {len(kept)}, rejected {len(rejected)} (codes in {rejects_path})")
    return 0


def cmd_pipeline_stratify(args) -> int:
    pairs = read_pairs(args.input)
    train_ids = frozenset()
    if args.train_ids:
        train_ids = frozenset(
            line.strip() for line in Path(args.train_ids).read_text(encoding="utf-8").splitlines() if line.strip()
        )
    bench = pipeline.stratify_bench(pairs, cap=args.cap, seed=args.seed, train_ids=train_ids)
    out = _resolve(args.out_dir, args.out)
    write_pairs(bench, out)
    print(f"stratified {len(pairs)} pairs into a benchmark of {len(bench)} at {out}")
    return 0


def cmd_train(args) -> int:
    scorer_cfg, train_cfg = configio.load(args.config, scorer.ScorerConfig, training.TrainConfig, seed=args.seed)
    pairs = read_pairs(args.pairs)
    val_pairs = read_pairs(args.val) if args.val else []
    out_dir = Path(args.out_dir)
    result = training.train(pairs, val_pairs, scorer_cfg, train_cfg, checkpoint_dir=out_dir / "checkpoints")
    best_path = _write_training(out_dir, scorer_cfg, result)
    print(
        f"trained {train_cfg.total_steps} steps; best val loss {result.best_val_loss:.6f} "
        f"at step {result.best_step}; checkpoint at {best_path}"
    )
    return 0


def _scored_pairs(pairs, r_chosen, r_rejected) -> list[evaluation.ScoredPair]:
    return [
        evaluation.ScoredPair(p.pair_id, float(c), float(r), p.source_tier, p.criterion.value)
        for p, c, r in zip(pairs, r_chosen, r_rejected)
    ]


def cmd_score(args) -> int:
    pairs = read_pairs(args.pairs)
    cfg, params = scorer.load_checkpoint(args.checkpoint)
    scored = _scored_pairs(pairs, *training.score_pairs(training.pair_chunks(pairs, cfg), cfg, params))
    out = _resolve(args.out_dir, args.out)
    evaluation.write_scores(scored, out)
    print(f"scored {len(scored)} pairs to {out}")
    return 0


def cmd_eval(args) -> int:
    scored = evaluation.read_scores(args.scores)
    if not scored:
        raise EmptySetError(f"score file {args.scores} is empty")
    if args.pairs:
        tiers = read_pair_tiers(args.pairs)
        for s in scored:
            tier = tiers.get(s.pair_id)
            if tier is None:
                raise ManifestParseError(f"scored pair {s.pair_id} not present in {args.pairs}")
            if tier != s.subset:
                raise ManifestParseError(
                    f"pair {s.pair_id}: subset {s.subset!r} does not match manifest tier {tier!r}"
                )
    out_dir = Path(args.out_dir)
    report = _write_report(out_dir, scored)
    print(
        f"evaluated {len(scored)} pairs: overall micro "
        f"{evaluation.format_percent(report.overall_micro)}%, reports in {out_dir}"
    )
    return 0


def cmd_agreement(args) -> int:
    rows = []
    with open(args.rows, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for cells in reader:
            with _record(f"{args.rows} row", reader.line_num):
                row = (cells["subset"], int(cells["count"]), float(cells["avg_margin"]), float(cells["agree_rate"]))
                evaluation.AgreementRow(*row)  # range checks
            rows.append(row)
    per_subset, overall = evaluation.agreement_stats(rows)
    out_dir = Path(args.out_dir)
    payload = {
        "rows": [dataclasses.asdict(r) for r in per_subset],
        "overall": dataclasses.asdict(overall),
    }
    _write_json(out_dir / "agreement.json", payload)
    with open(out_dir / "agreement.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subset", "count", "avg_margin", "agree_rate", "se"])
        for r in per_subset + [overall]:
            writer.writerow([r.subset_name, r.count, r.avg_margin, r.agree_rate, f"{r.se:.6f}"])
    print(
        f"overall agreement {evaluation.format_percent(overall.agree_rate)}% "
        f"(se {evaluation.format_percent(overall.se)}%) over {overall.count} pairs"
    )
    return 0


def cmd_gradcheck(args) -> int:
    report = gradcheck.run_gradcheck(
        n_draws=args.draws,
        seed=args.seed,
        tol=args.tol,
    )
    out = _resolve(args.out_dir, args.out)
    _write_json(out, report.to_dict())
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"gradcheck {verdict}: max rel err {report.max_rel_err:.3e} "
        f"(worst group {report.worst_group}) over {report.n_draws} draws; report at {out}"
    )
    return 0 if report.passed else 1


def cmd_e2e(args) -> int:
    out_dir = Path(args.out_dir)
    synth_cfg = pipeline.synth_config(d_in=args.d_in, seed=args.seed, noise_std=args.noise_std)
    train_pairs = pipeline.synth_pairs(synth_cfg, args.n_train, split="train")
    val_cfg = dataclasses.replace(synth_cfg, seed=synth_cfg.seed + 1)
    val_pairs = pipeline.synth_pairs(val_cfg, args.n_val, split="val")
    write_pairs(train_pairs, out_dir / "train.jsonl")
    write_pairs(val_pairs, out_dir / "val.jsonl")

    scorer_cfg = scorer.ScorerConfig(d_in=args.d_in, pooling=args.pooling)
    train_cfg = training.TrainConfig(
        total_steps=args.steps,
        lambda_center=args.lambda_center,
        seed=args.seed,
    )
    result = training.train(train_pairs, val_pairs, scorer_cfg, train_cfg, checkpoint_dir=out_dir / "checkpoints")
    _write_training(out_dir, scorer_cfg, result)

    rc, rr = training.score_pairs(training.pair_chunks(val_pairs, scorer_cfg), scorer_cfg, result.best_params)
    scored = _scored_pairs(val_pairs, rc, rr)
    evaluation.write_scores(scored, out_dir / "val-scores.jsonl")
    _write_report(out_dir, scored)

    summary = {
        "seed": args.seed,
        "lambda_center": args.lambda_center,
        "steps": args.steps,
        "best_step": result.best_step,
        "best_val_loss": result.best_val_loss,
        "val_accuracy": float(np.mean(rc > rr)),
        "drift": float(np.mean(rc + rr)),
        "mean_margin": float(np.mean(rc - rr)),
    }
    _write_json(out_dir / "summary.json", summary)
    print(
        f"e2e done: val accuracy {summary['val_accuracy']:.4f}, "
        f"drift {summary['drift']:+.4f}, margin {summary['mean_margin']:.4f} (summary in {out_dir})"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, seed: bool = True) -> None:
    parser.add_argument("--out-dir", default=".", help="directory for outputs and run-manifest.json")
    if seed:
        parser.add_argument(
            "--seed",
            type=int,
            default=os.environ.get(SEED_ENV_VAR, "0"),  # a string default goes through type=int
            help=f"random seed (default: ${SEED_ENV_VAR} or 0)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="episcore", description=__doc__)
    parser.add_argument("--version", action="version", version=f"episcore {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate synthetic planted-signature preference pairs")
    p.add_argument("--config", help="flat key-value synthesis config file")
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--out", required=True, help="output pair manifest (JSONL)")
    p.add_argument("--split", default="train", choices=("train", "val", "bench"))
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    pipe = sub.add_parser("pipeline", help="episode construction and dataset curation")
    pipe_sub = pipe.add_subparsers(dest="pipeline_command", required=True)

    p = pipe_sub.add_parser("group", help="group raw segments into candidate episodes")
    p.add_argument("--manifest", required=True, help="segment manifest (JSONL)")
    p.add_argument("--config", help="flat key-value grouping config file")
    p.add_argument("--out", required=True, help="output episode manifest (JSONL)")
    p.add_argument("--tier", default="wild", help="source tier recorded on grouped episodes")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_pipeline_group)

    p = pipe_sub.add_parser("filter", help="partition episodes by the structural rules")
    p.add_argument("--in", dest="input", required=True, help="input episode manifest")
    p.add_argument("--out", required=True, help="output manifest of kept episodes")
    p.add_argument("--rejects", required=True, help="output JSONL of rejected ids + violation codes")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_pipeline_filter)

    p = pipe_sub.add_parser("stratify", help="balanced per-bucket benchmark sampling")
    p.add_argument("--in", dest="input", required=True, help="input pair manifest")
    p.add_argument("--cap", type=int, default=50, help="per-bucket retention cap")
    p.add_argument("--out", required=True, help="output benchmark pair manifest")
    p.add_argument("--train-ids", help="file of train pair ids to exclude (one per line)")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline_stratify)

    p = sub.add_parser("train", help="train the scorer on a pair manifest")
    p.add_argument("--pairs", required=True, help="training pair manifest")
    p.add_argument("--val", help="validation pair manifest")
    p.add_argument("--config", help="flat key-value scorer + training config file")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a pair manifest with a checkpoint")
    p.add_argument("--pairs", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output score file (JSONL)")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="build accuracy/margin reports from a score file")
    p.add_argument("--scores", required=True, help="score file (JSONL)")
    p.add_argument("--pairs", help="optional pair manifest to cross-check ids and subsets")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("agreement", help="human-agreement table with binomial standard errors")
    p.add_argument("--rows", required=True, help="CSV with subset,count,avg_margin,agree_rate columns")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("gradcheck", help="finite-difference verification of the scorer gradients")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--tol", type=float, default=gradcheck.DEFAULT_TOL)
    p.add_argument("--out", default="gradcheck-report.json")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("e2e", help="synth -> train -> score -> eval in one seeded run")
    p.add_argument("--n-train", type=int, default=800)
    p.add_argument("--n-val", type=int, default=200)
    p.add_argument("--steps", type=int, default=training.TrainConfig.total_steps)
    p.add_argument("--lambda-center", type=float, default=training.TrainConfig.lambda_center)
    p.add_argument("--noise-std", type=float, default=pipeline.SynthConfig.noise_std)
    p.add_argument("--d-in", type=int, default=scorer.ScorerConfig.d_in)
    p.add_argument("--pooling", default=scorer.ScorerConfig.pooling, choices=scorer.POOLING_MODES)
    _add_common(p)
    p.set_defaults(func=cmd_e2e)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(getattr(args, "out_dir", "."))
    try:
        _write_run_manifest(args, out_dir)
        return args.func(args)
    except EpiscoreError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO_ERROR]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
