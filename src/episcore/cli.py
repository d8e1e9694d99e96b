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
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, config as configio, evaluation, gradcheck, pipeline, scorer, training
from .episodes import (
    SPLITS, _read_text, _record, _replace_file, iter_pairs, read_episodes, read_pair_tiers, read_pairs,
    read_segments, write_episodes, write_jsonl, write_pairs,
)
from .errors import EmptySetError, EpiscoreError, ManifestParseError

SEED_ENV_VAR = "EPISCORE_SEED"


def _resolve(out_dir: str, path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(out_dir) / p


def _write_json(path: Path, payload) -> None:
    _replace_file(path, [(json.dumps(payload, indent=2) + "\n").encode()])


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


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    (cfg,) = configio.load(args.config, pipeline.SynthConfig, seed=args.seed)
    _synth(cfg, args.n, args.split, _resolve(args.out_dir, args.out))
    return 0


def _synth(cfg: pipeline.SynthConfig, n: int, split: str, out: Path) -> None:
    pairs = pipeline.synth_pairs(cfg, n, split=split)
    write_pairs(pairs, out)
    print(f"wrote {len(pairs)} pairs to {out}")


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
        train_ids = frozenset(line.strip() for line in _read_text(args.train_ids).splitlines() if line.strip())
    bench = pipeline.stratify_bench(pairs, cap=args.cap, seed=args.seed, train_ids=train_ids)
    out = _resolve(args.out_dir, args.out)
    write_pairs(bench, out)
    print(f"stratified {len(pairs)} pairs into a benchmark of {len(bench)} at {out}")
    return 0


def cmd_train(args) -> int:
    scorer_cfg, train_cfg = configio.load(args.config, scorer.ScorerConfig, training.TrainConfig, seed=args.seed)
    _train(args.pairs, args.val, Path(args.out_dir), scorer_cfg, train_cfg)
    return 0


def _train(pairs_path, val_path, out_dir: Path, scorer_cfg, train_cfg) -> training.TrainResult:
    pairs = iter_pairs(pairs_path)
    val_pairs = iter_pairs(val_path) if val_path else ()
    result = training.train(pairs, val_pairs, scorer_cfg, train_cfg, checkpoint_dir=out_dir / "checkpoints")
    write_jsonl((vars(report) for report in result.history), out_dir / "history.jsonl")
    best_path = out_dir / "best.ckpt"
    scorer.save_checkpoint(best_path, scorer_cfg, result.best_params)
    print(
        f"trained {train_cfg.total_steps} steps; best val loss {result.best_val_loss:.6f} "
        f"at step {result.best_step}; checkpoint at {best_path}"
    )
    return result


def cmd_score(args) -> int:
    _score_manifest(args.pairs, args.checkpoint, _resolve(args.out_dir, args.out))
    return 0


def _score_manifest(pairs_path, checkpoint, out: Path) -> None:
    """Score the pairs of a manifest one :func:`training.pair_chunks` page
    at a time, keeping only each pair's header."""
    pairs = iter_pairs(pairs_path)  # opens the manifest: a missing one fails before the checkpoint is read
    cfg, params = scorer.load_checkpoint(checkpoint)
    heads = []

    def noted(pairs):
        for p in pairs:
            heads.append((p.pair_id, p.source_tier, p.criterion.value))
            yield p

    r_chosen, r_rejected = training.score_pairs(training.pair_chunks(noted(pairs), cfg), cfg, params)
    scored = [
        evaluation.ScoredPair(pair_id, float(c), float(r), tier, criterion)
        for (pair_id, tier, criterion), c, r in zip(heads, r_chosen, r_rejected)
    ]
    evaluation.write_scores(scored, out)
    print(f"scored {len(scored)} pairs to {out}")


def cmd_eval(args) -> int:
    _eval(args.scores, args.pairs, Path(args.out_dir))
    return 0


def _eval(scores_path, pairs_path, out_dir: Path) -> list[evaluation.ScoredPair]:
    """Write the reports of a score file and return its scored pairs."""
    scored = evaluation.read_scores(scores_path)
    if not scored:
        raise EmptySetError(f"score file {scores_path} is empty")
    if pairs_path:
        tiers = read_pair_tiers(pairs_path)
        for s in scored:
            tier = tiers.get(s.pair_id)
            if tier is None:
                raise ManifestParseError(f"scored pair {s.pair_id} not present in {pairs_path}")
            if tier != s.subset:
                raise ManifestParseError(
                    f"pair {s.pair_id}: subset {s.subset!r} does not match manifest tier {tier!r}"
                )
        if len(scored) < len(tiers):  # score ids are unique and all in the manifest, so some pair is unscored
            scored_ids = {s.pair_id for s in scored}
            missing = next(pair_id for pair_id in tiers if pair_id not in scored_ids)
            raise ManifestParseError(
                f"{scores_path} scores {len(scored)} of the {len(tiers)} pairs in {pairs_path}; "
                f"first unscored pair: {missing}"
            )
    report = evaluation.build_report(scored)
    _write_json(out_dir / "report.json", dataclasses.asdict(report))
    _replace_file(out_dir / "report.csv", [evaluation.report_csv(report).encode()])
    print(
        f"evaluated {len(scored)} pairs: overall micro "
        f"{evaluation.format_percent(report.overall_micro)}%, reports in {out_dir}"
    )
    return scored


def cmd_agreement(args) -> int:
    rows = []
    reader = csv.DictReader(io.StringIO(_read_text(args.rows), newline=""))
    for cells in reader:
        with _record(f"{args.rows} row", reader.line_num):
            row = (cells["subset"], int(cells["count"]), float(cells["avg_margin"]), float(cells["agree_rate"]))
            evaluation.AgreementRow(*row)  # range checks
        rows.append(row)
    try:
        per_subset, overall = evaluation.agreement_stats(rows)
    except ValueError as exc:  # the count-weighted overall row, e.g. a margin sum that overflows
        raise ManifestParseError(f"{args.rows}: overall row: {exc}") from exc
    out_dir = Path(args.out_dir)
    payload = {
        "rows": [dataclasses.asdict(r) for r in per_subset],
        "overall": dataclasses.asdict(overall),
    }
    _write_json(out_dir / "agreement.json", payload)
    _replace_file(out_dir / "agreement.csv", [evaluation.agreement_csv(per_subset, overall).encode()])
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
    """The bodies of ``synth`` (train split at the seed, val split at the
    seed + 1), ``train``, ``score`` and ``eval --pairs``, run on the files
    each one wrote; ``summary.json`` is the only file of its own."""
    out_dir = Path(args.out_dir)
    # Every config is built and checked before the first write.
    synth_cfg, scorer_cfg, train_cfg = configio.load(
        None, pipeline.SynthConfig, scorer.ScorerConfig, training.TrainConfig, d_in=args.d_in,
        noise_std=args.noise_std, pooling=args.pooling, total_steps=args.steps, lambda_center=args.lambda_center,
        seed=args.seed,
    )
    train, val = out_dir / "train.jsonl", out_dir / "val.jsonl"
    _synth(synth_cfg, args.n_train, "train", train)
    _synth(dataclasses.replace(synth_cfg, seed=synth_cfg.seed + 1), args.n_val, "val", val)
    result = _train(train, val, out_dir, scorer_cfg, train_cfg)
    _score_manifest(val, out_dir / "best.ckpt", out_dir / "val-scores.jsonl")
    scored = _eval(out_dir / "val-scores.jsonl", val, out_dir)

    rc, rr = np.array([(s.r_chosen, s.r_rejected) for s in scored]).T
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


def _positive_int(text: str) -> int:
    """An argparse type for counts: an integer >= 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


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
    p.add_argument("--n", type=_positive_int, required=True, help="number of pairs")
    p.add_argument("--out", required=True, help="output pair manifest (JSONL)")
    p.add_argument("--split", default="train", choices=SPLITS)
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
    p.add_argument("--cap", type=_positive_int, default=50, help="per-bucket retention cap")
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
    p.add_argument("--pairs", help="optional pair manifest; every one of its pairs must be scored, with its tier")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("agreement", help="human-agreement table with binomial standard errors")
    p.add_argument("--rows", required=True, help="CSV with subset,count,avg_margin,agree_rate columns")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("gradcheck", help="finite-difference verification of the scorer gradients")
    p.add_argument("--draws", type=_positive_int, default=100)
    p.add_argument("--tol", type=float, default=gradcheck.DEFAULT_TOL)
    p.add_argument("--out", default="gradcheck-report.json")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("e2e", help="synth -> train -> score -> eval in one seeded run")
    p.add_argument("--n-train", type=_positive_int, default=800)
    p.add_argument("--n-val", type=_positive_int, default=200)
    p.add_argument("--steps", type=_positive_int, default=training.TrainConfig.total_steps)
    p.add_argument("--lambda-center", type=float, default=training.TrainConfig.lambda_center)
    p.add_argument("--noise-std", type=float, default=pipeline.SynthConfig.noise_std)
    p.add_argument("--d-in", type=_positive_int, default=scorer.ScorerConfig.d_in)
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
