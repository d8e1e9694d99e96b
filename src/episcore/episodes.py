"""Episode and preference-pair domain types, validation, and manifest IO.

An episode is an ordered multi-turn dialogue between exactly two speakers.
Per-turn feature matrices (the audio proxy) live in sidecar binary files
next to each manifest; the JSONL manifests themselves carry only metadata,
which keeps them small and diffable.

All types are plain immutable-by-convention dataclasses; none of them
enforce the episode-level structural rules at construction time. Those
rules are checked by :func:`validate_episode`, which reports every violated
rule instead of failing fast, so pipeline diagnostics see the full picture.

Every manifest reader parses a record the same way. Each field is read with
:func:`_get`, which accepts only that field's JSON type (a string, an array,
an object, or a number that is not a bool; never null), and :func:`_record`
turns any KeyError, TypeError, ValueError or OverflowError raised while
building one record into PARSE_ERROR with the record's line number.
"""

from __future__ import annotations

import json
import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DuplicateIdError, FeatureIOError, InvariantError, ManifestParseError

SOURCE_TIERS = ("wild", "semi-wild", "scripted", "colloquial")
MODALITY_TIERS = ("wild", "semi-wild", "scripted")
SPLITS = ("train", "val", "bench")

MAX_TURNS = 16
MAX_TURN_SECONDS = 60.0

# Violation codes emitted by validate_episode / read_pairs.
ODD_TURNS = "ODD_TURNS"
TOO_MANY_TURNS = "TOO_MANY_TURNS"
TURN_TOO_LONG = "TURN_TOO_LONG"
SPEAKER_ALTERNATION = "SPEAKER_ALTERNATION"
NONFINITE_FEATURE = "NONFINITE_FEATURE"
TURN_COUNT_MISMATCH = "TURN_COUNT_MISMATCH"
TIER_MISMATCH = "TIER_MISMATCH"


class Criterion(Enum):
    """Which preference dimension the scorer is asked to judge."""

    MODALITY = "modality"
    COLLOQUIALNESS = "colloquialness"

    @property
    def index(self) -> int:
        """Row of this criterion in the learned criterion-embedding table."""
        return 0 if self is Criterion.MODALITY else 1


@dataclass(eq=False)
class Turn:
    """One dialogue turn: transcript plus an (F, d_in) frame matrix.

    Features are stored as float32, matching the sidecar file format, so a
    write/read round trip is bit-exact. ``start_s``/``end_s`` are present
    only for turns that came out of the segment-grouping pipeline.
    """

    speaker_id: str
    transcript: str
    duration_s: float
    features: np.ndarray
    start_s: float | None = None
    end_s: float | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float32)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be (F, d_in) with F >= 1, got shape {feats.shape}")
        self.features = feats
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be non-negative, got {self.duration_s}")
        if self.start_s is not None and self.end_s is not None and self.end_s < self.start_s:
            raise ValueError(f"end_s {self.end_s} precedes start_s {self.start_s}")

    @property
    def n_frames(self) -> int:
        return int(self.features.shape[0])

    @property
    def d_in(self) -> int:
        return int(self.features.shape[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Turn):
            return NotImplemented
        return (
            self.speaker_id == other.speaker_id
            and self.transcript == other.transcript
            and self.duration_s == other.duration_s
            and self.start_s == other.start_s
            and self.end_s == other.end_s
            and self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
        )


@dataclass
class Episode:
    """An ordered multi-turn dialogue; the unit the reward model scores.

    The final turn is by convention the evaluated candidate and the turns
    before it are its context.
    """

    episode_id: str
    turns: list[Turn]
    source_tier: str
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.source_tier not in SOURCE_TIERS:
            raise ValueError(f"unknown source_tier {self.source_tier!r}, expected one of {SOURCE_TIERS}")

    @property
    def n_turns(self) -> int:
        return len(self.turns)

    @property
    def total_speech_s(self) -> float:
        return float(sum(t.duration_s for t in self.turns))


@dataclass
class PreferencePair:
    """A (chosen, rejected) episode pair: the unit of supervision and eval.

    Both sides must have the same turn count and source tier so that the
    comparison isolates the final-turn realization rather than structure.
    """

    pair_id: str
    chosen: Episode
    rejected: Episode
    criterion: Criterion
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        codes = validate_pair(self.chosen, self.rejected)
        if codes:
            raise ValueError(f"pair {self.pair_id}: {', '.join(codes)}")

    @property
    def source_tier(self) -> str:
        return self.chosen.source_tier


@dataclass
class Segment:
    """One diarized/VAD-style raw segment consumed by episode grouping."""

    speaker_id: str
    start_s: float
    end_s: float
    transcript: str
    features_path: str

    def __post_init__(self):
        if self.end_s <= self.start_s:
            raise ValueError(f"segment end_s {self.end_s} must exceed start_s {self.start_s}")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class SegmentManifest:
    """Ordered raw segments; the episode-construction pipeline's input."""

    records: list[Segment]

    def __post_init__(self):
        for prev, cur in zip(self.records, self.records[1:]):
            if cur.start_s < prev.start_s:
                raise ValueError("segment records must be sorted by start_s")


def validate_episode(e: Episode) -> list[str]:
    """Check every structural rule and return the codes of those violated.

    Returns an empty list iff the episode is valid. Reporting is
    exhaustive (one code per violated rule, in a fixed order), never
    fail-fast, and never raises.
    """
    codes = []
    n = e.n_turns
    if n % 2 != 0:
        codes.append(ODD_TURNS)
    if n > MAX_TURNS:
        codes.append(TOO_MANY_TURNS)
    if any(t.duration_s > MAX_TURN_SECONDS for t in e.turns):
        codes.append(TURN_TOO_LONG)
    if not _alternates_two_speakers(e.turns):
        codes.append(SPEAKER_ALTERNATION)
    if any(not np.isfinite(t.features).all() for t in e.turns):
        codes.append(NONFINITE_FEATURE)
    return codes


def _alternates_two_speakers(turns: list[Turn]) -> bool:
    # Exactly two distinct speakers in a strict ABAB... pattern.
    if len(turns) < 2:
        return False
    a, b = turns[0].speaker_id, turns[1].speaker_id
    if a == b:
        return False
    return all(t.speaker_id == (a if i % 2 == 0 else b) for i, t in enumerate(turns))


def validate_pair(chosen: Episode, rejected: Episode) -> list[str]:
    """Pair-level violations on top of the per-episode ones: both sides
    must have the same turn count and source tier."""
    codes = []
    if chosen.n_turns != rejected.n_turns:
        codes.append(TURN_COUNT_MISMATCH)
    if chosen.source_tier != rejected.source_tier:
        codes.append(TIER_MISMATCH)
    return codes


# ---------------------------------------------------------------------------
# Feature sidecar files: header = two little-endian uint64 (F, d_in),
# followed by F * d_in little-endian float32 values, row-major.
# ---------------------------------------------------------------------------

_SIDECAR_HEADER = struct.Struct("<QQ")


def write_features(path: str | Path, features: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(features, dtype="<f4"))
    if arr.ndim != 2:
        raise FeatureIOError(f"features must be 2-D, got shape {arr.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_SIDECAR_HEADER.pack(arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_features(path: str | Path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FeatureIOError(f"cannot read feature sidecar {path}: {exc}") from exc
    if len(raw) < _SIDECAR_HEADER.size:
        raise FeatureIOError(f"feature sidecar {path} is truncated (no header)")
    n_frames, d_in = _SIDECAR_HEADER.unpack_from(raw)
    expected = _SIDECAR_HEADER.size + n_frames * d_in * 4
    if len(raw) != expected:
        raise FeatureIOError(
            f"feature sidecar {path}: expected {expected} bytes for ({n_frames}, {d_in}), got {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=_SIDECAR_HEADER.size)
    return flat.reshape(n_frames, d_in).copy()


# ---------------------------------------------------------------------------
# JSONL manifests. One object per line, fixed key order, so identical
# inputs always serialize to identical bytes.
# ---------------------------------------------------------------------------


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """Write one compact JSON object per line, keys in the order given."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n" for rec in records]
    path.write_text("".join(lines), encoding="utf-8")


def _reject_constant(token: str):
    raise json.JSONDecodeError(f"{token} is not a number", token, 0)


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)  # NaN, Infinity, -Infinity are not numbers


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line; a line that
    is not a strict JSON object raises PARSE_ERROR with its line number."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = _DECODER.decode(raw)
            except json.JSONDecodeError as exc:
                raise ManifestParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(rec, dict):
                raise ManifestParseError("expected a JSON object", line=lineno)
            yield lineno, rec


_JSON_TYPE_NAMES = {str: "a string", float: "a number", list: "an array", dict: "an object"}


def _get(rec: dict, key: str, kind: type):
    """``rec[key]`` if its value has the JSON type ``kind``: ``str``,
    ``list`` or ``dict``, or ``float`` for a number (an int counts and is
    returned as a float; a bool does not). Any other value, null included,
    raises TypeError naming the key and the value."""
    value = rec[key]
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise TypeError(f"{key!r} must be {_JSON_TYPE_NAMES[kind]}, not {value!r}")


@contextmanager
def _record(kind: str, line: int):
    """A KeyError, TypeError, ValueError or OverflowError (an int too large
    for a float) raised while parsing one record is PARSE_ERROR at ``line``."""
    try:
        yield
    except KeyError as exc:
        raise ManifestParseError(f"{kind} missing key {exc}", line=line) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ManifestParseError(f"bad {kind}: {exc}", line=line) from exc


def _claim_id(seen: set[str], owner_id: str, kind: str, line: int | None = None) -> None:
    """Add an id to ``seen``; raise DUPLICATE_ID if it is already there."""
    if owner_id in seen:
        raise DuplicateIdError(f"duplicate {kind} {owner_id!r}", line=line)
    seen.add(owner_id)


def _sidecar_name(owner_id: str, index: int) -> str:
    # Percent-escaping "%" first keeps the mapping injective, so distinct
    # owners never share a sidecar file.
    safe = owner_id.replace("%", "%25").replace("/", "%2F").replace("\\", "%5C")
    return f"{safe}.{index:02d}.f32"


def _turn_record(turn: Turn, features_path: str) -> dict:
    rec = {
        "speaker_id": turn.speaker_id,
        "transcript": turn.transcript,
        "duration_s": turn.duration_s,
        "features_path": features_path,
    }
    if turn.start_s is not None:
        rec["start_s"] = turn.start_s
    if turn.end_s is not None:
        rec["end_s"] = turn.end_s
    return rec


def _episode_record(ep: Episode, manifest_path: Path, owner_prefix: str) -> dict:
    features_dir = f"{manifest_path.stem}_features"
    turns = []
    for i, turn in enumerate(ep.turns):
        rel = f"{features_dir}/{_sidecar_name(owner_prefix, i)}"
        write_features(manifest_path.parent / rel, turn.features)
        turns.append(_turn_record(turn, rel))
    return {
        "episode_id": ep.episode_id,
        "metadata": {k: ep.metadata[k] for k in sorted(ep.metadata)},
        "turns": turns,
    }


def _parse_turn(rec: dict, base_dir: str) -> Turn:
    return Turn(
        speaker_id=_get(rec, "speaker_id", str),
        transcript=_get(rec, "transcript", str),
        duration_s=_get(rec, "duration_s", float),
        features=read_features(os.path.join(base_dir, _get(rec, "features_path", str))),
        start_s=_get(rec, "start_s", float) if "start_s" in rec else None,
        end_s=_get(rec, "end_s", float) if "end_s" in rec else None,
    )


def _parse_episode(rec: dict, base_dir: str, source_tier: str) -> Episode:
    metadata = _get(rec, "metadata", dict) if "metadata" in rec else {}
    return Episode(
        episode_id=_get(rec, "episode_id", str),
        turns=[_parse_turn(t, base_dir) for t in _get(rec, "turns", list)],
        source_tier=source_tier,
        metadata={k: _get(metadata, k, str) for k in metadata},
    )


def write_pairs(pairs: list[PreferencePair], path: str | Path) -> None:
    """Write a pair manifest plus feature sidecars.

    Sidecars go to ``<stem>_features/`` next to the manifest, one file per
    turn, named deterministically and injectively from (pair_id, side,
    turn index), so rewriting the same pairs produces byte-identical
    output. Raises DUPLICATE_ID, before writing anything, when two pairs
    share a pair_id.
    """
    seen: set[str] = set()
    for pair in pairs:
        _claim_id(seen, pair.pair_id, "pair_id")
    path = Path(path)
    write_jsonl(
        (
            {
                "pair_id": pair.pair_id,
                "criterion": pair.criterion.value,
                "split": pair.split,
                "source_tier": pair.source_tier,
                "chosen": _episode_record(pair.chosen, path, f"{pair.pair_id}.chosen"),
                "rejected": _episode_record(pair.rejected, path, f"{pair.pair_id}.rejected"),
            }
            for pair in pairs
        ),
        path,
    )


def _pair_headers(path: str | Path) -> Iterator[tuple[int, dict, str, Criterion, str, str]]:
    """Yield (line number, record, pair_id, criterion, split, source_tier)
    for each record of a pair manifest whose keys and header values are
    valid; a pair_id seen on an earlier line raises DUPLICATE_ID."""
    seen: set[str] = set()
    for lineno, rec in read_jsonl(path):
        with _record("pair record", lineno):
            pair_id = _get(rec, "pair_id", str)
            criterion = Criterion(_get(rec, "criterion", str))
            split = _get(rec, "split", str)
            source_tier = _get(rec, "source_tier", str)
            _get(rec, "chosen", dict), _get(rec, "rejected", dict)  # both sides must be objects
        _claim_id(seen, pair_id, "pair_id", lineno)
        if split not in SPLITS:
            raise ManifestParseError(f"unknown split {split!r}", line=lineno)
        if source_tier not in SOURCE_TIERS:
            raise ManifestParseError(f"unknown source_tier {source_tier!r}", line=lineno)
        yield lineno, rec, pair_id, criterion, split, source_tier


def read_pairs(path: str | Path) -> list[PreferencePair]:
    """Read a pair manifest, rejecting records that violate invariants.

    Raises :class:`ManifestParseError` (with the line number) for records
    that do not match the schema, :class:`DuplicateIdError` (with the line
    number) for a pair_id seen on an earlier line, and
    :class:`InvariantError` (with the violation codes) for records whose
    episodes fail validation or whose sides disagree on turn count or tier.
    """
    base_dir = os.path.dirname(path)
    pairs = []
    for lineno, rec, pair_id, criterion, split, source_tier in _pair_headers(path):
        with _record("pair record", lineno):
            chosen = _parse_episode(rec["chosen"], base_dir, source_tier)
            rejected = _parse_episode(rec["rejected"], base_dir, source_tier)
        codes = validate_episode(chosen) + validate_episode(rejected)
        codes += validate_pair(chosen, rejected)
        if codes:
            raise InvariantError(sorted(set(codes)), message=f"pair {pair_id}", line=lineno)
        pairs.append(PreferencePair(pair_id, chosen, rejected, criterion, split))
    return pairs


def read_pair_tiers(path: str | Path) -> dict[str, str]:
    """pair_id -> source_tier of a pair manifest, from the JSONL alone: each
    record's header is checked as in :func:`read_pairs`, but no feature
    sidecar is read and no episode is validated."""
    return {pair_id: source_tier for _, _, pair_id, _, _, source_tier in _pair_headers(path)}


def write_episodes(episodes: list[Episode], path: str | Path) -> None:
    """Write an episode manifest (pipeline intermediate) plus sidecars.

    Raises DUPLICATE_ID, before writing anything, when two episodes share
    an episode_id.
    """
    seen: set[str] = set()
    for ep in episodes:
        _claim_id(seen, ep.episode_id, "episode_id")
    path = Path(path)
    # Record keys: episode_id, source_tier, metadata, turns.
    write_jsonl(
        (
            {"episode_id": ep.episode_id, "source_tier": ep.source_tier, **_episode_record(ep, path, ep.episode_id)}
            for ep in episodes
        ),
        path,
    )


def read_episodes(path: str | Path) -> list[Episode]:
    """Read an episode manifest without validating structural rules.

    Episode files are pipeline intermediates, so invalid episodes must be
    representable here; run :func:`validate_episode` (or the structural
    filter) downstream. An episode_id seen on an earlier line raises
    DUPLICATE_ID with the line number.
    """
    base_dir = os.path.dirname(path)
    episodes = []
    seen: set[str] = set()
    for lineno, rec in read_jsonl(path):
        with _record("episode record", lineno):
            ep = _parse_episode(rec, base_dir, _get(rec, "source_tier", str))
        _claim_id(seen, ep.episode_id, "episode_id", lineno)
        episodes.append(ep)
    return episodes


def write_segments(manifest: SegmentManifest, path: str | Path) -> None:
    write_jsonl((asdict(seg) for seg in manifest.records), path)


def read_segments(path: str | Path) -> SegmentManifest:
    """Read a raw segment manifest; feature paths join onto its directory.
    The first record that starts before its predecessor is PARSE_ERROR."""
    base_dir = os.path.dirname(path)
    records: list[Segment] = []
    for lineno, rec in read_jsonl(path):
        with _record("segment record", lineno):
            seg = Segment(
                speaker_id=_get(rec, "speaker_id", str),
                start_s=_get(rec, "start_s", float),
                end_s=_get(rec, "end_s", float),
                transcript=_get(rec, "transcript", str),
                features_path=os.path.join(base_dir, _get(rec, "features_path", str)),
            )
            if records and seg.start_s < records[-1].start_s:
                raise ValueError("segment records must be sorted by start_s")
        records.append(seg)
    return SegmentManifest(records)
