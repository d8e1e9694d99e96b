"""The benchmark's workloads: inputs, one round of CLI jobs, checks.

Each workload has a ``setup`` (input synthesis and manifest/checkpoint
writes, timed as set-up), a ``run_round`` that runs whole CLI jobs through
``episcore.cli.main`` and returns their exit codes, and a ``check`` that
verifies the round's outputs against :mod:`reference` and :mod:`checks`.

Library calls go through the module attributes (``pipeline.synth_pairs``)
so that the traced run sees them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from episcore import episodes, pipeline, scorer, training
from episcore.episodes import Segment, SegmentManifest

import checks
import reference
from reference import CheckFailed


def tree_digest(root: Path) -> tuple[str, dict[str, int]]:
    """sha256 over every file under ``root`` (relative path, then bytes),
    and each file's modification time in ns."""
    h = hashlib.sha256()
    mtimes = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = Path(dirpath) / name
            rel = path.relative_to(root).as_posix()
            h.update(rel.encode() + b"\0")
            h.update(path.read_bytes())
            mtimes[rel] = path.stat().st_mtime_ns
    return h.hexdigest(), mtimes


def _pair_turns(pair):
    return reference.episode_turns(pair.chosen), reference.episode_turns(pair.rejected)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class Train:
    """`episcore train` at the default scorer and training config on a
    planted-signature train/val manifest (the e2e subcommand's sizes)."""

    name = "train"
    n_train, n_val = 800, 200
    min_val_accuracy = 0.95

    def __init__(self, seed: int):
        self.seed = seed
        defaults = training.TrainConfig()
        self.items_per_round = defaults.total_steps * defaults.batch_size

    def setup(self, d: Path) -> None:
        train = pipeline.synth_pairs(pipeline.synth_config(seed=self.seed), self.n_train, split="train")
        self.val = pipeline.synth_pairs(pipeline.synth_config(seed=self.seed + 1), self.n_val, split="val")
        episodes.write_pairs(train, d / "train.jsonl")
        episodes.write_pairs(self.val, d / "val.jsonl")
        self.inputs = d

    def run_round(self, out: Path, cli) -> list[int]:
        argv = ["train", "--pairs", str(self.inputs / "train.jsonl"), "--val", str(self.inputs / "val.jsonl"),
                "--out-dir", str(out), "--seed", str(self.seed)]
        return [cli("train", argv)]

    def check(self, out: Path) -> None:
        pooling, params = reference.read_checkpoint(out / "best.ckpt")
        cfg, loaded = scorer.load_checkpoint(out / "best.ckpt")
        correct = 0
        for pair in self.val:
            ref = [reference.forward(t, pair.criterion.value, params, pooling) for t in _pair_turns(pair)]
            got = [scorer.score(ep, pair.criterion, cfg, loaded)[0] for ep in (pair.chosen, pair.rejected)]
            if max(abs(g - r) for g, r in zip(got, ref)) > 1e-12:
                raise CheckFailed(f"{pair.pair_id}: reloaded best checkpoint scores {got}, reference {ref}")
            correct += ref[0] > ref[1]
        accuracy = correct / len(self.val)
        if accuracy < self.min_val_accuracy:
            raise CheckFailed(f"held-out accuracy {accuracy:.4f} below {self.min_val_accuracy}")
        if not (out / "history.jsonl").is_file():
            raise CheckFailed("no history.jsonl")


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


class Score:
    """`episcore score` with a fixed attention-pooling checkpoint over a
    stratified pair manifest, then `episcore eval --pairs`."""

    name = "score"
    n_synth, cap = 1320, 100  # 12 buckets of 110 pairs, capped to 100 each
    params_seed = 77

    def __init__(self, seed: int):
        self.seed = seed
        self.items_per_round = None  # the stratified size, known after setup

    def setup(self, d: Path) -> None:
        pool = pipeline.synth_pairs(pipeline.synth_config(seed=self.seed), self.n_synth, split="val")
        self.pairs = pipeline.stratify_bench(pool, cap=self.cap, seed=self.seed)
        episodes.write_pairs(self.pairs, d / "bench.jsonl")
        cfg = scorer.ScorerConfig(d_in=8, pooling="attention")
        scorer.save_checkpoint(d / "model.ckpt", cfg, scorer.init_params(cfg, seed=self.params_seed))
        self.items_per_round = len(self.pairs)
        self.inputs = d

    def run_round(self, out: Path, cli) -> list[int]:
        manifest = str(self.inputs / "bench.jsonl")
        rc = cli("score", ["score", "--pairs", manifest, "--checkpoint", str(self.inputs / "model.ckpt"),
                           "--out", "scores.jsonl", "--out-dir", str(out)])
        return [rc, cli("eval", ["eval", "--scores", str(out / "scores.jsonl"), "--pairs", manifest,
                                 "--out-dir", str(out)])]

    def check(self, out: Path) -> None:
        pooling, params = reference.read_checkpoint(self.inputs / "model.ckpt")
        lines = reference.read_jsonl(out / "scores.jsonl")
        if [r["pair_id"] for r in lines] != [p.pair_id for p in self.pairs]:
            raise CheckFailed("score file does not hold exactly one line per manifest pair, in order")
        tally: dict[str, list[int]] = {}
        for pair, rec in zip(self.pairs, lines):
            ref = [reference.forward(t, pair.criterion.value, params, pooling) for t in _pair_turns(pair)]
            got = [rec["r_chosen"], rec["r_rejected"]]
            if max(abs(g - r) for g, r in zip(got, ref)) > 1e-12:
                raise CheckFailed(f"{pair.pair_id}: scored {got}, reference {ref}")
            if rec["subset"] != pair.source_tier or rec["criterion"] != pair.criterion.value:
                raise CheckFailed(f"{pair.pair_id}: subset or criterion differs from the manifest")
            counts = tally.setdefault(rec["subset"], [0, 0])
            counts[0] += rec["r_chosen"] > rec["r_rejected"]
            counts[1] += 1
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        want_acc = {s: c / n for s, (c, n) in tally.items()}
        want_counts = {s: n for s, (_, n) in tally.items()}
        if report["per_subset_acc"] != want_acc or report["counts"] != want_counts:
            raise CheckFailed(f"report accuracies {report['per_subset_acc']} differ from the score file's {want_acc}")


# ---------------------------------------------------------------------------
# curate
# ---------------------------------------------------------------------------

FRAMES_PER_SECOND = 4
_WORDS = "yeah so i think we should go there tomorrow right okay well maybe not really sure about that one".split()
_BACKCHANNELS = ("yeah", "mm hmm", "right", "okay", "uh huh", "oh")

# Segment kinds per regime: (kind, probability, duration range in s). The
# chatty regime trades short turns and back-channels, so its groups hold
# dozens of segments; the monologue regime holds long turns (some over the
# 60 s turn limit, a few over the 90 s group cap).
_REGIMES = {
    "chatty": (
        ("backchannel", 0.45, (0.3, 1.5)),
        ("turn", 0.44, (0.8, 4.0)),
        ("continuation", 0.07, (0.5, 3.0)),
        ("third", 0.04, (0.3, 1.5)),
    ),
    "monologue": (
        ("long", 0.50, (20.0, 75.0)),
        ("turn", 0.25, (2.0, 12.0)),
        ("backchannel", 0.15, (0.3, 1.5)),
        ("continuation", 0.05, (5.0, 20.0)),
        ("overlong", 0.05, (92.0, 120.0)),
    ),
}


def make_segments(rng: np.random.Generator, n: int):
    """A diarized stream of ``n`` (speaker, start, end, transcript) segments,
    sorted by start. Two speakers alternate; a continuation repeats the last
    speaker and a third speaker chimes in now and then. The regime switches
    with probability 0.05 per segment, a new pair of speakers takes over with
    probability 0.01. Gaps are short pauses, except that one segment in
    twenty overlaps the previous one (which cuts a group).

    There are no long silences: with one, ``group_segments`` can emit an
    episode below its own density floor (it checks density before dropping
    an odd trailing turn), and the check of that bound would fail on some
    seeds."""
    conv, last, regime = 0, 0, "chatty"
    prev_start, prev_end = None, 0.0
    out = []
    for _ in range(n):
        if rng.random() < 0.01:
            conv += 1
        if rng.random() < 0.05:
            regime = "monologue" if regime == "chatty" else "chatty"
        kinds = _REGIMES[regime]
        kind, _, (lo, hi) = kinds[int(rng.choice(len(kinds), p=[p for _, p, _ in kinds]))]
        duration = round(float(rng.uniform(lo, hi)), 3)
        if kind == "third":
            speaker = f"c{conv}-x"
        else:
            if kind != "continuation":
                last = 1 - last
            speaker = f"c{conv}-{'ab'[last]}"
        if kind == "backchannel":
            transcript = _BACKCHANNELS[int(rng.integers(len(_BACKCHANNELS)))]
        else:
            n_words = max(1, int(duration * 2.5))
            transcript = " ".join(_WORDS[i] for i in rng.integers(len(_WORDS), size=n_words))
        if prev_start is not None and rng.random() < 0.05:
            start = prev_end - min(float(rng.uniform(0.1, 0.5)), 0.5 * (prev_end - prev_start))
        else:
            start = prev_end + float(rng.uniform(0.05, 0.8))
        start = round(start, 3)
        end = round(start + duration, 3)
        out.append((speaker, start, end, transcript))
        prev_start, prev_end = start, max(end, prev_end)
    return out


class Curate:
    """`episcore pipeline group`, `pipeline filter` and `pipeline stratify`
    over a segment manifest and a pair manifest."""

    name = "curate"
    n_segments, n_pairs, cap = 2000, 300, 15
    d_in = 8
    group_cfg = {"min_interval_s": 0.0, "min_overlap_ratio": 0.1,
                 "max_group_duration_s": 90.0, "max_secondary_speaker_frac": 0.1}

    def __init__(self, seed: int):
        self.seed = seed
        self.items_per_round = self.n_segments + self.n_pairs

    def setup(self, d: Path) -> None:
        rng = np.random.default_rng([self.seed, 1])
        feats_dir = d / "segments_features"
        records, self.source = [], {}
        for i, (speaker, start, end, transcript) in enumerate(make_segments(rng, self.n_segments)):
            frames = max(1, int(round((end - start) * FRAMES_PER_SECOND)))
            noise = np.round(rng.standard_normal((frames, self.d_in)) * 1024.0) / 1024.0
            path = feats_dir / f"seg-{i:05d}.f32"
            episodes.write_features(path, noise.astype(np.float32))
            records.append(Segment(speaker, start, end, transcript, f"segments_features/{path.name}"))
            self.source[(speaker, start, end)] = path
        episodes.write_segments(SegmentManifest(records), d / "segments.jsonl")
        pairs = pipeline.synth_pairs(pipeline.synth_config(seed=self.seed), self.n_pairs, split="val")
        pairs = [dataclasses.replace(p, split="train") if i % 5 == 0 else p for i, p in enumerate(pairs)]
        episodes.write_pairs(pairs, d / "pairs.jsonl")
        (d / "group.cfg").write_text("".join(f"{k} = {v}\n" for k, v in self.group_cfg.items()), encoding="utf-8")
        self.inputs = d

    def run_round(self, out: Path, cli) -> list[int]:
        d, o = self.inputs, str(out)
        return [
            cli("pipeline_group", ["pipeline", "group", "--manifest", str(d / "segments.jsonl"),
                                   "--config", str(d / "group.cfg"), "--out", "episodes.jsonl", "--out-dir", o]),
            cli("pipeline_filter", ["pipeline", "filter", "--in", str(out / "episodes.jsonl"), "--out", "kept.jsonl",
                                    "--rejects", "rejects.jsonl", "--out-dir", o]),
            cli("pipeline_stratify", ["pipeline", "stratify", "--in", str(d / "pairs.jsonl"), "--cap", str(self.cap),
                                      "--seed", str(self.seed), "--out", "bench.jsonl", "--out-dir", o]),
        ]

    def check(self, out: Path) -> None:
        grouped = checks.check_groups(
            out / "episodes.jsonl", self.group_cfg["max_group_duration_s"], self.group_cfg["min_overlap_ratio"]
        )
        checks.check_filter(grouped, out, out / "kept.jsonl", out / "rejects.jsonl", self.source)
        checks.check_stratify(reference.read_jsonl(self.inputs / "pairs.jsonl"), out / "bench.jsonl", self.cap)


# ---------------------------------------------------------------------------
# curate_score
# ---------------------------------------------------------------------------


class CurateScore:
    """The curate jobs, then the score jobs, each on its own inputs and
    output directory. One workload rather than two, so that each run of the
    benchmark can measure for longer within the same total time."""

    name = "curate_score"

    def __init__(self, seed: int):
        self.parts = (Curate(seed), Score(seed))
        self.items_per_round = None  # the score part's size is known after setup

    def setup(self, d: Path) -> None:
        for part in self.parts:
            (d / part.name).mkdir(exist_ok=True)
            part.setup(d / part.name)
        self.items_per_round = sum(part.items_per_round for part in self.parts)

    def run_round(self, out: Path, cli) -> list[int]:
        return [code for part in self.parts for code in part.run_round(out / part.name, cli)]

    def check(self, out: Path) -> None:
        for part in self.parts:
            part.check(out / part.name)


WORKLOADS = {w.name: w for w in (Train, CurateScore)}
