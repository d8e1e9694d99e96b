"""Episode construction, filtering, stratified sampling, and synthesis.

``group_segments`` turns a diarized segment stream into candidate episodes
by cutting at rule violations: a gap below the minimum interval, the group
duration cap, or the two-dominant-speaker assumption breaking. Finalized
groups keep only their two dominant speakers, get an odd trailing turn
dropped so the turn count is even, and must then not be too sparse
(speech time / wall-clock span below the overlap ratio floor).

``synth_pairs`` is the desk-scale oracle generator: chosen and rejected
episodes share transcripts, structure, and a per-tier channel offset (the
domain confounder); the chosen side's final-turn frames additionally get a
planted signature vector. With the signature zeroed, labels carry no
feature information and no scorer can beat coin-flip accuracy; with zero
noise, the final-turn frame means differ by exactly the signature.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .episodes import (
    Criterion,
    Episode,
    PreferencePair,
    Segment,
    SegmentManifest,
    Turn,
    read_features,
    validate_episode,
)
from .errors import EmptyManifestError, FeatureIOError, MissingMetadataError

JUDGE_KEEP_THRESHOLD = 3


@dataclass
class GroupingConfig:
    min_interval_s: float = 0.0
    min_overlap_ratio: float = 0.1
    max_group_duration_s: float = 90.0
    max_secondary_speaker_frac: float = 0.10

    def __post_init__(self):
        if min(self.min_interval_s, self.max_group_duration_s, self.max_secondary_speaker_frac) < 0:
            raise ValueError("grouping bounds must be non-negative")
        if not 0 <= self.min_overlap_ratio <= 1:
            raise ValueError("min_overlap_ratio must be in [0, 1]")


@dataclass
class JudgeScores:
    """Per-pair ratings from an (external) episode-quality judge."""

    final_turn_content: int
    final_turn_naturalness_prosody: int
    dialog_context_coherence: int
    preference: str
    justification: str = ""

    def __post_init__(self):
        for name in ("final_turn_content", "final_turn_naturalness_prosody", "dialog_context_coherence"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 1 <= v <= 5:
                raise ValueError(f"{name} must be an integer in [1, 5], got {v!r}")
        if self.preference not in ("chosen", "rejected"):
            raise ValueError(f"preference must be 'chosen' or 'rejected', got {self.preference!r}")


Judge = Callable[[PreferencePair], JudgeScores]


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def _secondary_fraction(by_speaker: dict[str, float]) -> float:
    if len(by_speaker) <= 2:
        return 0.0
    durations = sorted(by_speaker.values(), reverse=True)
    total = sum(durations)
    return (total - durations[0] - durations[1]) / total


def group_segments(
    manifest: SegmentManifest,
    cfg: GroupingConfig,
    source_tier: str = "wild",
) -> list[Episode]:
    """Group raw segments into candidate episodes ``grp-0000``, ``grp-0001``, ...

    Emitted episodes always satisfy the config bounds: total speech time
    at most the group duration cap, gaps between retained segments at
    least the minimum interval, at most two speakers, an even turn count,
    and speech density at least the overlap-ratio floor. A single segment
    longer than the duration cap cannot be split and is dropped.

    Each kept segment's turn reads its own array of its feature file's
    rows (its path under ``manifest.base_dir``); an empty file is FEATURE_IO.
    """
    if not manifest.records:
        raise EmptyManifestError("segment manifest has no records")

    # Each group carries its speaker -> speech-time tally, summed in segment
    # order, so the cut test and the dominant-speaker choice share one count.
    groups: list[tuple[list[Segment], dict[str, float]]] = []
    cur: list[Segment] = []
    tally: dict[str, float] = {}
    cur_speech = 0.0
    for seg in manifest.records:
        if seg.duration_s > cfg.max_group_duration_s:
            if cur:
                groups.append((cur, tally))
            cur, tally, cur_speech = [], {}, 0.0
            continue
        grown = {**tally, seg.speaker_id: tally.get(seg.speaker_id, 0.0) + seg.duration_s}
        if cur and (
            seg.start_s - cur[-1].end_s < cfg.min_interval_s
            or cur_speech + seg.duration_s > cfg.max_group_duration_s
            or _secondary_fraction(grown) > cfg.max_secondary_speaker_frac
        ):
            groups.append((cur, tally))
            cur, grown, cur_speech = [], {seg.speaker_id: seg.duration_s}, 0.0
        cur.append(seg)
        tally = grown
        cur_speech += seg.duration_s
    if cur:
        groups.append((cur, tally))

    episodes = []
    counter = 0
    for group, tally in groups:
        top = set(sorted(tally, key=lambda s: (-tally[s], s))[:2])
        kept = [seg for seg in group if seg.speaker_id in top]
        if len(kept) % 2 != 0:
            kept = kept[:-1]  # repair: drop the trailing turn
        if len(kept) < 2:
            continue
        speech = sum(seg.duration_s for seg in kept)
        span = kept[-1].end_s - kept[0].start_s
        if span <= 0 or speech / span < cfg.min_overlap_ratio:
            continue
        turns = []
        for seg in kept:
            features = read_features(path := os.path.join(manifest.base_dir, seg.features_path))
            if not features.size:
                raise FeatureIOError(
                    f"feature file {path} of the segment at start_s {seg.start_s} is empty: shape {features.shape}"
                )
            turns.append(Turn(seg.speaker_id, seg.transcript, seg.duration_s, features, seg.start_s, seg.end_s))
        episodes.append(Episode(f"grp-{counter:04d}", turns, source_tier))
        counter += 1
    return episodes


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


def filter_structural(episodes: list[Episode]) -> tuple[list[Episode], list[tuple[Episode, list[str]]]]:
    """Exact partition into (valid, rejected-with-violation-codes)."""
    kept, rejected = [], []
    for ep in episodes:
        codes = validate_episode(ep)
        if codes:
            rejected.append((ep, codes))
        else:
            kept.append(ep)
    return kept, rejected


def filter_by_judge(pairs: list[PreferencePair], judge: Judge) -> list[PreferencePair]:
    """Keep pairs whose content and coherence ratings both reach 3.

    Naturalness is recorded by judges but is not a retention axis. Judge
    failures (JUDGE_UNAVAILABLE) propagate; a pair is never kept silently.
    The judge must be a pure function of the pair, so results do not
    depend on call order.
    """
    kept = []
    for pair in pairs:
        scores = judge(pair)
        if (
            scores.final_turn_content >= JUDGE_KEEP_THRESHOLD
            and scores.dialog_context_coherence >= JUDGE_KEEP_THRESHOLD
        ):
            kept.append(pair)
    return kept


_FILLERS = frozenset({"um", "uh", "yeah", "oh", "hmm", "huh", "well", "like", "right"})


class HeuristicJudge:
    """Deterministic rule-based stand-in for an external quality judge.

    Content tracks the final turn's word count, naturalness counts filler
    words, coherence tracks how much of the context has transcripts.
    """

    def __call__(self, pair: PreferencePair) -> JudgeScores:
        final = pair.chosen.turns[-1]
        words = final.transcript.split()
        if not words:
            content = 1
        elif len(words) < 3:
            content = 3
        elif len(words) < 6:
            content = 4
        else:
            content = 5
        fillers = sum(w.strip(".,?!").casefold() in _FILLERS for w in words)
        naturalness = 1 if not words else min(5, 2 + fillers)
        context = pair.chosen.turns[:-1]
        nonempty = sum(bool(t.transcript.strip()) for t in context)
        coherence = 1 + (4 * nonempty) // max(1, len(context))
        rejected_words = pair.rejected.turns[-1].transcript.split()
        preference = "chosen" if len(words) >= len(rejected_words) else "rejected"
        return JudgeScores(
            final_turn_content=content,
            final_turn_naturalness_prosody=naturalness,
            dialog_context_coherence=coherence,
            preference=preference,
            justification=f"{len(words)} words, {fillers} fillers, {nonempty}/{max(1, len(context))} context turns",
        )


# ---------------------------------------------------------------------------
# Stratified benchmark sampling
# ---------------------------------------------------------------------------


def _bucket_rng(seed: int, tier: str, secondary: str) -> np.random.Generator:
    # Named per-bucket substream: SHA-256 of the bucket key feeds a PCG64
    # stream alongside the user seed, so selections are portable and
    # adding a bucket never perturbs another bucket's sample.
    digest = hashlib.sha256(f"{tier}|{secondary}".encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), key])))


def stratify_bench(
    pairs: list[PreferencePair],
    cap: int = 50,
    seed: int = 0,
    train_ids: frozenset[str] | set[str] = frozenset(),
) -> list[PreferencePair]:
    """Balanced benchmark sample: per (tier, secondary_dimension) bucket,
    keep everything up to ``cap``, otherwise sample ``cap`` uniformly
    without replacement.

    Pairs labeled train, and any pair whose id appears in ``train_ids``,
    are excluded up front so the benchmark is disjoint from training data.
    Output pairs are relabeled split="bench".
    """
    buckets: dict[tuple[str, str], list[PreferencePair]] = {}
    for pair in pairs:
        if pair.split == "train" or pair.pair_id in train_ids:
            continue
        secondary = pair.chosen.metadata.get("secondary_dimension")
        if not secondary:
            raise MissingMetadataError(
                f"pair {pair.pair_id} lacks secondary_dimension metadata required for stratification"
            )
        buckets.setdefault((pair.source_tier, secondary), []).append(pair)

    bench = []
    for key in sorted(buckets):
        bucket = buckets[key]
        if len(bucket) > cap:
            rng = _bucket_rng(seed, *key)
            chosen_idx = sorted(rng.choice(len(bucket), size=cap, replace=False).tolist())
            bucket = [bucket[i] for i in chosen_idx]
        bench.extend(replace(p, split="bench") for p in bucket)
    return bench


# ---------------------------------------------------------------------------
# Synthetic preference pairs
# ---------------------------------------------------------------------------

FEATURE_GRID = 1024.0  # features land on a 1/1024 grid: exact in float32


def _quantize(x: np.ndarray) -> np.ndarray:
    return np.round(x * FEATURE_GRID) / FEATURE_GRID


_SYNTH_VOCAB = (
    "yeah okay so well right um really kind of thing maybe sure good know "
    "i you we that was about little bit more just uh"
).split()

_SYNTH_SECONDARY = ("laughter", "filled-pauses", "no-feature")
_SYNTH_PRIMARY = ("neutral", "happiness", "surprise")


@dataclass
class SynthConfig:
    d_in: int = 8
    signature: np.ndarray | None = None  # default_signature(d_in)
    channel_offsets: dict[str, np.ndarray] = field(default_factory=dict)
    noise_std: float = 0.25
    frames_per_turn: tuple[int, int] = (4, 8)
    turns: tuple[int, int] = (2, 6)
    words_per_turn: tuple[int, int] = (3, 6)
    seed: int = 0

    def __post_init__(self):
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if self.signature is None:
            self.signature = default_signature(self.d_in)
        self.signature = np.asarray(self.signature, dtype=np.float64)
        if self.signature.shape != (self.d_in,):
            raise ValueError(f"signature must have shape ({self.d_in},), got {self.signature.shape}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        lo, hi = self.turns
        if lo % 2 or hi % 2 or not 2 <= lo <= hi <= 16:
            raise ValueError("turns range must be even values within [2, 16]")
        if not 1 <= self.frames_per_turn[0] <= self.frames_per_turn[1]:
            raise ValueError("frames_per_turn range must be positive and ordered")
        if not 0 <= self.words_per_turn[0] <= self.words_per_turn[1]:
            raise ValueError("words_per_turn range must be non-negative and ordered")
        if not self.channel_offsets:
            self.channel_offsets = default_channel_offsets(self.d_in)
        self.channel_offsets = {
            tier: np.asarray(vec, dtype=np.float64) for tier, vec in self.channel_offsets.items()
        }
        for tier, vec in self.channel_offsets.items():
            if vec.shape != (self.d_in,):
                raise ValueError(f"channel offset for {tier!r} must have shape ({self.d_in},)")


def default_channel_offsets(d_in: int) -> dict[str, np.ndarray]:
    """Per-tier offsets on the lower feature dims, orthogonal to the
    default signature (which lives on the upper half).

    All tiers share a common bias on dim 0 (think "every channel is shifted
    the same way") plus a tier-specific component. The ranking objective is
    indifferent to the shared part because both sides of a pair carry it,
    so an uncentered run keeps whatever response to it the init happened to
    have; the centering term actively drives that response to zero.
    """
    offsets = {}
    for i, tier in enumerate(("wild", "semi-wild", "scripted", "colloquial")):
        vec = np.zeros(d_in)
        vec[0] = 1.0
        dim = (1 + i // 2) % max(1, d_in // 2)
        vec[dim] += 0.75 if i % 2 == 0 else -0.75
        offsets[tier] = vec
    return offsets


def default_signature(d_in: int, scale: float = 0.5) -> np.ndarray:
    sig = np.zeros(d_in)
    sig[d_in // 2 :] = scale
    return sig


def synth_config(d_in: int = 8, seed: int = 0, noise_std: float = 0.25) -> SynthConfig:
    return SynthConfig(d_in=d_in, noise_std=noise_std, seed=seed)


def synth_pairs(cfg: SynthConfig, n: int, split: str = "train") -> list[PreferencePair]:
    """Generate ``n`` planted-signature preference pairs, deterministically.

    Within a pair the two episodes share transcripts, turn structure, and
    the tier channel offset; each side draws its own feature noise. The
    chosen side's final-turn frames get the signature added on top. With
    the default quantized offsets and zero noise the final-turn frame
    means differ by exactly the signature.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tiers = sorted(cfg.channel_offsets)
    pairs = []
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, i])))
        tier = tiers[i % len(tiers)]
        offset = cfg.channel_offsets[tier]
        criterion = Criterion.COLLOQUIALNESS if tier == "colloquial" else Criterion.MODALITY
        lo, hi = cfg.turns
        n_turns = int(rng.integers(lo // 2, hi // 2 + 1)) * 2
        metadata = {
            "primary_dimension": _SYNTH_PRIMARY[i % len(_SYNTH_PRIMARY)],
            "secondary_dimension": _SYNTH_SECONDARY[i % len(_SYNTH_SECONDARY)],
        }

        chosen_turns, rejected_turns = [], []
        for t in range(n_turns):
            n_frames = int(rng.integers(cfg.frames_per_turn[0], cfg.frames_per_turn[1] + 1))
            n_words = int(rng.integers(cfg.words_per_turn[0], cfg.words_per_turn[1] + 1))
            words = rng.choice(len(_SYNTH_VOCAB), size=n_words, replace=True)
            transcript = " ".join(_SYNTH_VOCAB[w] for w in words)
            speaker = "spk-a" if t % 2 == 0 else "spk-b"
            duration = n_frames * 0.5

            def draw_frames():
                noise = rng.standard_normal((n_frames, cfg.d_in)) * cfg.noise_std
                return offset + _quantize(noise)

            chosen_feats = draw_frames()
            rejected_feats = draw_frames()
            if t == n_turns - 1:
                chosen_feats = chosen_feats + cfg.signature
            chosen_turns.append(Turn(speaker, transcript, duration, chosen_feats))
            rejected_turns.append(Turn(speaker, transcript, duration, rejected_feats))

        pair_id = f"synth-{i:05d}"
        pairs.append(
            PreferencePair(
                pair_id=pair_id,
                chosen=Episode(f"{pair_id}-c", chosen_turns, tier, dict(metadata)),
                rejected=Episode(f"{pair_id}-r", rejected_turns, tier, dict(metadata)),
                criterion=criterion,
                split=split,
            )
        )
    return pairs
