"""Episode and preference-pair domain types, validation, and manifest IO.

An episode is an ordered multi-turn dialogue between exactly two speakers.
Per-turn feature matrices (the audio proxy) live in binary feature files
next to each manifest, whose JSONL records carry only metadata. Every turn
is a row range of a feature file (a pair manifest's shard, or an episode
manifest's per-turn sidecar), and every layout loads through one reader,
:class:`_FeatureFiles`. Every file the package writes is committed whole by
:func:`_replace_file`, except per-turn feature files, which
:func:`_write_sidecar` rewrites in place without truncating them.

All types are plain immutable-by-convention dataclasses; none of them
enforce the episode-level structural rules at construction time. Those
rules are checked by :func:`validate_episode`, which reports every violated
rule instead of failing fast, so pipeline diagnostics see the full picture.

Every manifest reader parses a record the same way. Each field is read with
:func:`_get`, which accepts only that field's JSON type (a string, an array,
an object, or a number that is not a bool; never null), and every check of
one record runs in :func:`_record`, which gives each error raised there the
record's line number.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from collections.abc import Iterable, Iterator
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DuplicateIdError, EpiscoreError, FeatureIOError, InvariantError, ManifestParseError
from .errors import ShapeMismatchError

SOURCE_TIERS = ("wild", "semi-wild", "scripted", "colloquial")
MODALITY_TIERS = ("wild", "semi-wild", "scripted")
SPLITS = ("train", "val", "bench")

MAX_TURNS = 16
MAX_TURN_SECONDS = 60.0

# Violation codes emitted by validate_episode / iter_pairs.
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


def _check_times(start_s: float | None, end_s: float | None, duration_s: float | None = None) -> None:
    """The time rule of turns and segments, which the writers check again:
    every time is finite, ``end_s`` does not precede ``start_s``, a turn's
    ``duration_s`` is not negative, and a segment (no ``duration_s``) ends
    after it starts. ValueError otherwise."""
    for t in (start_s, end_s, duration_s):  # a loop, not all(): this runs for every turn read
        if t is not None and not math.isfinite(t):
            raise ValueError(f"times must be finite, got start_s {start_s}, end_s {end_s}, duration_s {duration_s}")
    if duration_s is None:
        if not end_s > start_s:
            raise ValueError(f"segment end_s {end_s} must exceed start_s {start_s}")
    elif duration_s < 0:
        raise ValueError(f"duration_s must be non-negative, got {duration_s}")
    if start_s is not None and end_s is not None and end_s < start_s:
        raise ValueError(f"end_s {end_s} precedes start_s {start_s}")


def _check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """ValueError naming the field ``name`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}, expected one of {choices}")


@dataclass(eq=False, slots=True)
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
            raise ValueError(f"features must be (F, d_in) with F >= 1 and d_in >= 1, got shape {feats.shape}")
        self.features = feats
        _check_times(self.start_s, self.end_s, self.duration_s)

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


@dataclass(slots=True)
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
        _check_choice("source_tier", self.source_tier, SOURCE_TIERS)

    @property
    def n_turns(self) -> int:
        return len(self.turns)

    @property
    def total_speech_s(self) -> float:
        return float(sum(t.duration_s for t in self.turns))


@dataclass(slots=True)
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
        _check_pair(self)

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
        _check_times(self.start_s, self.end_s)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class SegmentManifest:
    """Ordered raw segments, the pipeline's input; each ``features_path`` is relative to ``base_dir``."""

    records: list[Segment]
    base_dir: str = ""

    def __post_init__(self):
        _check_start_order(self.records)


def _check_start_order(records: list[Segment]) -> None:
    """The order rule of segment manifests: no record starts before the one above it. ValueError otherwise."""
    for prev, seg in zip(records, records[1:]):
        if seg.start_s < prev.start_s:
            raise ValueError(f"segment records must be sorted by start_s; {seg.start_s} follows {prev.start_s}")


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


def _check_pair(pair: PreferencePair) -> None:
    """A pair's own rules, which it may break once built: its split, then INVARIANT_ERROR for :func:`validate_pair`."""
    _check_choice("split", pair.split, SPLITS)
    codes = validate_pair(pair.chosen, pair.rejected)
    if codes:
        raise InvariantError(codes, message=f"pair {pair.pair_id}")


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
# Feature files (a per-turn sidecar or a manifest's shard): header = two
# little-endian uint64 (rows, d_in), followed by rows * d_in little-endian
# float32 values, row-major.
# ---------------------------------------------------------------------------

_SIDECAR_HEADER = struct.Struct("<QQ")
_FRAME_DTYPE = np.dtype("<f4")  # the byte order of feature files, which readinto copies as is
_POISON = b"\xff" * _SIDECAR_HEADER.size  # rows = d_in = 2**64 - 1: no file is that long, so it reads as FEATURE_IO


def _replace_file(path: str | Path, chunks: Iterable) -> None:
    """Commit the byte chunks as ``path``: make its directory, write them
    into ``.<name>.<pid>.tmp`` beside it, then ``os.replace`` that over
    ``path``. A process that dies mid-write leaves the old file or the new
    one (power loss is not covered: nothing is fsynced), and if a chunk
    raises, the temporary file goes and ``path`` is untouched. The only
    file written otherwise is a per-turn feature file (:func:`_write_sidecar`)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _feature_chunks(rows: int, d_in: int, blocks: Iterable[np.ndarray]) -> Iterator:
    """A feature file's bytes: the header, then each block's rows in order."""
    yield _SIDECAR_HEADER.pack(rows, d_in)
    for block in blocks:
        yield np.ascontiguousarray(block, dtype=_FRAME_DTYPE)


def _write_sidecar(path: str | Path, features: np.ndarray) -> None:
    """Write a per-turn feature file in place, without truncating it first:
    a curation round rewrites thousands, a temporary file plus a rename each
    halves its throughput, and truncation frees the file's blocks, which
    waits on a disk that discards them. An empty or new file gets its header
    and rows in order: cut short, it holds fewer rows than its header says.
    Over an old file, a header that no file size matches (``_POISON``) goes
    first, then the rows, a truncate to their end when the old file is
    longer, and the real header last, so a rewrite that raises or dies reads
    as FEATURE_IO, never as a same-size mix of old and new rows."""
    chunks = _feature_chunks(*features.shape, [features])
    header = next(chunks)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:  # "wb" on a descriptor does not truncate
        old_size = os.fstat(fh.fileno()).st_size
        fh.write(_POISON if old_size else header)
        fh.writelines(chunks)
        if old_size > fh.tell():
            fh.truncate()
        if old_size:
            fh.seek(0)
            fh.write(header)


def write_features(path: str | Path, features: np.ndarray) -> None:
    """Write a 2-D array as one feature file, in place, creating its directory."""
    arr = np.asarray(features, dtype=_FRAME_DTYPE)
    if arr.ndim != 2:
        raise FeatureIOError(f"features must be 2-D, got shape {arr.shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_sidecar(path, arr)


def _open_features(path: str | Path):
    """Open a feature file and check its size against its header: (file,
    rows, d_in). A file that cannot be opened, or is truncated or
    over-long, is FEATURE_IO."""
    try:
        fh = open(path, "rb")
        try:
            size = os.fstat(fh.fileno()).st_size
            if size < _SIDECAR_HEADER.size:
                raise FeatureIOError(f"feature sidecar {path} is truncated (no header)")
            n_frames, d_in = _SIDECAR_HEADER.unpack(fh.read(_SIDECAR_HEADER.size))
            expected = _SIDECAR_HEADER.size + n_frames * d_in * _FRAME_DTYPE.itemsize
            if size != expected:
                raise FeatureIOError(
                    f"feature sidecar {path}: expected {expected} bytes for ({n_frames}, {d_in}), got {size}"
                )
        except BaseException:
            fh.close()
            raise
    except OSError as exc:
        raise FeatureIOError(f"cannot read feature sidecar {path}: {exc}") from exc
    return fh, n_frames, d_in


def read_features(path: str | Path) -> np.ndarray:
    """Read a feature file into a writable ``(rows, d_in)`` float32 array
    with one :func:`_read_rows`. A missing, truncated or over-long file is
    FEATURE_IO."""
    fh, n_frames, d_in = _open_features(path)
    with fh:
        return _read_rows(fh, path, 0, n_frames, d_in)


def _read_rows(fh, path: str | Path, row: int, frames: int, d_in: int) -> np.ndarray:
    """Rows ``[row, row + frames)`` of the feature file ``fh`` (opened by
    :func:`_open_features`) as a new writable ``(frames, d_in)`` float32
    array, read with one seek and one ``readinto`` of the buffered file,
    which reads on until the rows are in or the file ends. A read that
    comes back short is FEATURE_IO. Rows leave a feature file only here."""
    out = np.empty((frames, d_in), dtype=_FRAME_DTYPE)
    try:
        fh.seek(_SIDECAR_HEADER.size + row * d_in * _FRAME_DTYPE.itemsize)
        got = fh.readinto(out)
    except OSError as exc:
        raise FeatureIOError(f"cannot read feature sidecar {path}: {exc}") from exc
    if got != out.nbytes:
        raise FeatureIOError(f"feature sidecar {path}: read {got} of {out.nbytes} bytes at row {row}")
    return out


# ---------------------------------------------------------------------------
# JSONL manifests. One object per line, fixed key order, so identical
# inputs always serialize to identical bytes.
# ---------------------------------------------------------------------------


_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """Write one compact JSON object per line, keys in the order given, as
    UTF-8, committed by :func:`_replace_file`: if producing the records
    raises, ``path`` is untouched."""
    _replace_file(path, ((_ENCODER.encode(rec) + "\n").encode() for rec in records))


def _reject_constant(token: str):
    raise json.JSONDecodeError(f"{token} is not a number", token, 0)


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)  # NaN, Infinity, -Infinity are not numbers


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line (LF or CRLF
    ends one); a line that is not UTF-8 or not a strict JSON object raises
    PARSE_ERROR with its line number.

    The file is opened by the call, not at the first record, so a missing
    file raises OSError here; it is closed when the records run out or the
    iterator is dropped."""
    records = _jsonl_records(path)
    next(records)  # runs up to the open
    return records


def _jsonl_records(path: str | Path) -> Iterator:
    with open(path, "rb") as fh:
        yield None
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ManifestParseError(f"not UTF-8: {exc}", line=lineno) from exc
            if not raw:
                continue
            try:
                rec = _DECODER.decode(raw)
            except json.JSONDecodeError as exc:
                raise ManifestParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(rec, dict):
                raise ManifestParseError("expected a JSON object", line=lineno)
            yield lineno, rec


_JSON_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer", list: "an array", dict: "an object"}


def _get(rec: dict, key: str, kind: type):
    """``rec[key]`` if its value has the JSON type ``kind``: ``str``,
    ``list`` or ``dict``, ``int`` for an integer (``1.0`` does not count),
    or ``float`` for a number (an int counts and is returned as a float; a
    bool counts as neither). Any other value, null included, raises
    TypeError naming the key and the value."""
    value = rec[key]
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise TypeError(f"{key!r} must be {_JSON_TYPE_NAMES[kind]}, not {value!r}")


@contextmanager
def _record(kind: str, line: int):
    """Number the errors of the record at ``line``: a toolkit error gets
    ``line`` if it has none, and a KeyError, TypeError, ValueError or
    OverflowError (an int too large for a float) is PARSE_ERROR at ``line``."""
    try:
        yield
    except EpiscoreError as exc:  # before ValueError: InvariantError and CheckpointError are ValueErrors
        if exc.line is None:
            exc.line = line
        raise
    except KeyError as exc:
        raise ManifestParseError(f"{kind} missing key {exc}", line=line) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ManifestParseError(f"bad {kind}: {exc}", line=line) from exc


def _read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; any other bytes are PARSE_ERROR naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestParseError(f"{path} is not UTF-8: {exc}") from exc


def _claim_id(seen: set[str], owner_id: str, kind: str) -> None:
    """Add an id to ``seen``; raise DUPLICATE_ID if it is already there."""
    if owner_id in seen:
        raise DuplicateIdError(f"duplicate {kind} {owner_id!r}")
    seen.add(owner_id)


def _check_written(ep: Episode) -> None:
    """The rules that the readers check again on an episode record, which an
    episode may break once built: its source_tier, metadata keys and values
    that are strings, and each turn's times (:func:`_check_times`).
    ValueError naming the field otherwise."""
    _check_choice("source_tier", ep.source_tier, SOURCE_TIERS)
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in ep.metadata.items()):
        raise ValueError(f"episode {ep.episode_id!r}: metadata keys and values must be strings")
    for turn in ep.turns:
        _check_times(turn.start_s, turn.end_s, turn.duration_s)


def _sidecar_paths(ep: Episode, features_dir: str) -> list[str]:
    """Each turn's sidecar, relative to the manifest's directory. Escaping "%"
    first keeps the naming injective, so distinct episodes never share a file."""
    safe = ep.episode_id.replace("%", "%25").replace("/", "%2F").replace("\\", "%5C")
    return [f"{features_dir}/{safe}.{i:02d}.f32" for i in range(ep.n_turns)]


def _turn_record(turn: Turn, features_path: str, row: int | None = None) -> dict:
    rec = {
        "speaker_id": turn.speaker_id,
        "transcript": turn.transcript,
        "duration_s": turn.duration_s,
        "features_path": features_path,
    }
    if row is not None:
        rec["row"] = row
        rec["frames"] = turn.n_frames
    if turn.start_s is not None:
        rec["start_s"] = turn.start_s
    if turn.end_s is not None:
        rec["end_s"] = turn.end_s
    return rec


def _episode_record(ep: Episode, turns: list[dict]) -> dict:
    return {
        "episode_id": ep.episode_id,
        "metadata": {k: ep.metadata[k] for k in sorted(ep.metadata)},
        "turns": turns,
    }


class _FeatureFiles:
    """The reader of the feature files one manifest names. A turn is its
    ``row`` and ``frames`` (a pair manifest's shard), or all rows of the
    file when the record has neither (a per-turn sidecar), read by one
    :func:`_read_rows` into an array of its own as the turn is parsed.
    Only the file the last turn named is open, and no rows are kept, so a
    stream of pairs holds the rows of the pairs it has not dropped, and
    nothing more. Errors get their line from :func:`_record`.

    Row ranges tile their file: each starts where the last one in that file
    ended (at 0 for the first), and the last ends at its end (:meth:`tiled`).
    A pair manifest's own ``shard`` (a name in ``base_dir``) that no row
    range names must hold no rows.
    """

    def __init__(self, base_dir: str = "", shard: str | None = None):
        self.base_dir = base_dir
        self.shard = shard and os.path.normpath(os.path.join(base_dir, shard))
        self.path: str | None = None  # the file the last turn named
        self.file: tuple | None = None  # (open file, rows, d_in) of self.path
        self.ends: dict[str, tuple[int, int]] = {}  # path -> (end of its last row range, its rows)

    def rows(self, path: str, row: int | None = None, frames: int | None = None) -> np.ndarray:
        path = os.path.join(self.base_dir, path)
        if path != self.path:
            self.close()
            self.file, self.path = _open_features(path), path
        fh, n_rows, d_in = self.file
        if d_in == 0:
            raise FeatureIOError(f"feature file {path} has d_in 0; a turn needs d_in >= 1")
        if row is None:
            if n_rows == 0:
                raise FeatureIOError(f"feature file {path} has no rows; a turn needs at least one")
            row, frames = 0, n_rows
        elif row + frames > n_rows:
            raise FeatureIOError(f"feature file {path}: rows [{row}, {row + frames}) past its {n_rows} rows")
        else:
            end, _ = self.ends.get(path, (0, n_rows))
            if row != end:
                raise FeatureIOError(f"feature file {path}: a turn starts at row {row}, not at row {end}")
            self.ends[path] = (row + frames, n_rows)
        return _read_rows(fh, path, row, frames, d_in)

    def tiled(self, records: Iterator[tuple[int, dict]]) -> Iterator[tuple[int, dict]]:
        """Yield ``records``; once they run out, a file whose row ranges end
        before its last row, or an own shard with rows that no range names,
        is FEATURE_IO at the last record's line."""
        line = None
        for line, rec in records:
            yield line, rec
        for path, (end, n_rows) in self.ends.items():
            if end != n_rows:
                raise FeatureIOError(f"feature file {path}: its turns end at row {end} of its {n_rows} rows", line)
        if self.shard and self.shard not in map(os.path.normpath, self.ends) and os.path.exists(self.shard):
            fh, n_rows, _ = _open_features(self.shard)
            fh.close()
            if n_rows:
                raise FeatureIOError(f"feature file {self.shard}: no turn names any of its {n_rows} rows", line)

    def close(self) -> None:
        """Close the open file."""
        if self.file:
            self.file[0].close()
        self.path, self.file = None, None


def _parse_turn(rec: dict, files: _FeatureFiles) -> Turn:
    speaker_id, transcript = _get(rec, "speaker_id", str), _get(rec, "transcript", str)
    duration_s, path = _get(rec, "duration_s", float), _get(rec, "features_path", str)
    row = frames = None  # a record with neither names all rows of its file
    if "row" in rec or "frames" in rec:
        row, frames = _get(rec, "row", int), _get(rec, "frames", int)
        if row < 0 or frames < 1:
            raise ValueError(f"'row' must be >= 0 and 'frames' >= 1, not {row} and {frames}")
    return Turn(
        speaker_id, transcript, duration_s, files.rows(path, row, frames),
        start_s=_get(rec, "start_s", float) if "start_s" in rec else None,
        end_s=_get(rec, "end_s", float) if "end_s" in rec else None,
    )


def _parse_episode(rec: dict, files: _FeatureFiles, source_tier: str) -> Episode:
    metadata = _get(rec, "metadata", dict) if "metadata" in rec else {}
    return Episode(
        episode_id=_get(rec, "episode_id", str),
        turns=[_parse_turn(t, files) for t in _get(rec, "turns", list)],
        source_tier=source_tier,
        metadata={k: _get(metadata, k, str) for k in metadata},
    )


def shard_path(manifest: str | Path) -> Path:
    """The feature shard of a pair manifest: ``<manifest file name>.f32``
    in the same directory (``train.jsonl`` -> ``train.jsonl.f32``)."""
    manifest = Path(manifest)
    return manifest.with_name(manifest.name + ".f32")


def write_pairs(pairs: list[PreferencePair], path: str | Path) -> None:
    """Write a pair manifest plus its feature shard (:func:`shard_path`),
    the shard committed first, each by :func:`_replace_file`. The shard
    holds every turn's frames in manifest order (each pair's chosen turns,
    then its rejected ones), each straight from its array, and each turn
    record names the shard and its rows, ``row`` a running sum of frames.
    Rewriting the same pairs produces byte-identical files. Before writing
    anything, raises DUPLICATE_ID when two pairs share a pair_id,
    SHAPE_MISMATCH when the turns' ``d_in`` differ, and ValueError when a
    pair breaks :func:`_check_pair` or a side breaks :func:`_check_written`.
    """
    seen: set[str] = set()
    for pair in pairs:
        _claim_id(seen, pair.pair_id, "pair_id")
        _check_written(pair.chosen)
        _check_written(pair.rejected)
        _check_pair(pair)
    turns = [turn for pair in pairs for turn in (*pair.chosen.turns, *pair.rejected.turns)]
    d_ins = {turn.d_in for turn in turns}
    if len(d_ins) > 1:
        raise ShapeMismatchError(f"turn features have d_in {sorted(d_ins)}; a pair manifest's shard holds one d_in")
    shard = shard_path(path)
    starts = list(itertools.accumulate((turn.n_frames for turn in turns), initial=0))
    _replace_file(shard, _feature_chunks(starts[-1], d_ins.pop() if d_ins else 0, (t.features for t in turns)))
    records = map(_turn_record, turns, itertools.repeat(shard.name), starts)
    write_jsonl(
        (
            {
                "pair_id": pair.pair_id,
                "criterion": pair.criterion.value,
                "split": pair.split,
                "source_tier": pair.source_tier,
                "chosen": _episode_record(pair.chosen, list(itertools.islice(records, pair.chosen.n_turns))),
                "rejected": _episode_record(pair.rejected, list(itertools.islice(records, pair.rejected.n_turns))),
            }
            for pair in pairs
        ),
        path,
    )


def _pair_header(rec: dict, seen: set[str]) -> tuple[str, Criterion, str, str]:
    """(pair_id, criterion, split, source_tier) of a pair record whose keys
    and header values are valid; a pair_id already in ``seen`` raises
    DUPLICATE_ID."""
    pair_id = _get(rec, "pair_id", str)
    criterion = Criterion(_get(rec, "criterion", str))
    split = _get(rec, "split", str)
    source_tier = _get(rec, "source_tier", str)
    _get(rec, "chosen", dict), _get(rec, "rejected", dict)  # both sides must be objects
    _claim_id(seen, pair_id, "pair_id")
    if split not in SPLITS:
        raise ManifestParseError(f"unknown split {split!r}")
    if source_tier not in SOURCE_TIERS:
        raise ManifestParseError(f"unknown source_tier {source_tier!r}")
    return pair_id, criterion, split, source_tier


def iter_pairs(path: str | Path) -> Iterator[PreferencePair]:
    """Yield the pairs of a pair manifest one at a time, in file order,
    each validated once before it is yielded: the episode rules here, the
    pair rules by :class:`PreferencePair`.

    The manifest is opened by the call, so a missing file raises OSError
    here; a bad record raises, with its line number, when the iteration
    reaches it: PARSE_ERROR if it does not match the schema, FEATURE_IO
    for a feature file that cannot be read or row ranges that do not tile
    it (:class:`_FeatureFiles`), DUPLICATE_ID for a pair_id seen on an
    earlier line, and INVARIANT_ERROR, with the violation codes, for a pair
    that fails validation. A dropped pair's rows are freed, as each turn's
    rows are an array of its own.
    """
    return _pairs(read_jsonl(path), _FeatureFiles(os.path.dirname(path), shard_path(path).name))


def _pairs(records: Iterator[tuple[int, dict]], files: _FeatureFiles) -> Iterator[PreferencePair]:
    seen: set[str] = set()
    with closing(files):
        for lineno, rec in files.tiled(records):
            with _record("pair record", lineno):
                pair_id, criterion, split, source_tier = _pair_header(rec, seen)
                chosen = _parse_episode(rec["chosen"], files, source_tier)
                rejected = _parse_episode(rec["rejected"], files, source_tier)
                codes = validate_episode(chosen) + validate_episode(rejected)
                try:
                    pair = PreferencePair(pair_id, chosen, rejected, criterion, split)  # validates the pair
                except InvariantError as exc:
                    codes += exc.codes
                if codes:
                    raise InvariantError(sorted(set(codes)), message=f"pair {pair_id}")
            yield pair


def read_pairs(path: str | Path) -> list[PreferencePair]:
    """Every pair of a pair manifest, as :func:`iter_pairs` yields them."""
    return list(iter_pairs(path))


def read_pair_tiers(path: str | Path) -> dict[str, str]:
    """pair_id -> source_tier of a pair manifest, from the JSONL alone: each
    record's header is checked as in :func:`iter_pairs`, but no feature
    file is read and no episode is validated."""
    seen: set[str] = set()
    tiers = {}
    for lineno, rec in read_jsonl(path):
        with _record("pair record", lineno):
            pair_id, _, _, source_tier = _pair_header(rec, seen)
            tiers[pair_id] = source_tier
    return tiers


def write_episodes(episodes: list[Episode], path: str | Path) -> None:
    """Write an episode manifest plus one sidecar per turn, named
    injectively from (episode_id, turn index) in ``<manifest file
    name>_features/`` beside it, all written in place by
    :func:`_write_sidecar` before the JSONL.
    Once the JSONL is committed, every other file in that directory goes.
    Before writing anything, raises DUPLICATE_ID when two episodes share an
    episode_id, and ValueError when an episode breaks :func:`_check_written`.
    """
    seen: set[str] = set()
    for ep in episodes:
        _claim_id(seen, ep.episode_id, "episode_id")
        _check_written(ep)
    path = Path(path)
    features_dir = f"{path.name}_features"
    sidecars = [_sidecar_paths(ep, features_dir) for ep in episodes]
    if any(ep.turns for ep in episodes):
        (path.parent / features_dir).mkdir(parents=True, exist_ok=True)
    for ep, rels in zip(episodes, sidecars):
        for turn, rel in zip(ep.turns, rels):
            _write_sidecar(path.parent / rel, turn.features)
    # Record keys: episode_id, source_tier, metadata, turns.
    write_jsonl(
        (
            {
                "episode_id": ep.episode_id,
                "source_tier": ep.source_tier,
                **_episode_record(ep, list(map(_turn_record, ep.turns, rels))),
            }
            for ep, rels in zip(episodes, sidecars)
        ),
        path,
    )
    named = {rel for rels in sidecars for rel in rels}
    if (path.parent / features_dir).is_dir():
        with os.scandir(path.parent / features_dir) as entries:
            stale = [e.path for e in entries if f"{features_dir}/{e.name}" not in named and not e.is_dir()]
        for file in stale:
            os.unlink(file)


def read_episodes(path: str | Path) -> list[Episode]:
    """Read an episode manifest without validating structural rules: these
    are pipeline intermediates, so invalid episodes must be representable
    (run :func:`validate_episode` downstream). An episode_id seen on an
    earlier line is DUPLICATE_ID with the line number."""
    episodes = []
    seen: set[str] = set()
    files = _FeatureFiles(os.path.dirname(path))
    with closing(files):
        for lineno, rec in files.tiled(read_jsonl(path)):
            with _record("episode record", lineno):
                ep = _parse_episode(rec, files, _get(rec, "source_tier", str))
                _claim_id(seen, ep.episode_id, "episode_id")
            episodes.append(ep)
    return episodes


# Segment-record fields in record order, with their JSON types.
_SEGMENT_FIELDS = {"speaker_id": str, "start_s": float, "end_s": float, "transcript": str, "features_path": str}


def write_segments(manifest: SegmentManifest, path: str | Path) -> None:
    """Write a raw segment manifest once its records pass :func:`_check_times` and :func:`_check_start_order`.
    Written into a directory other than its ``base_dir`` (when that is set), each relative
    ``features_path`` is rebased to stay relative to the new manifest, naming the same file."""
    for seg in manifest.records:
        _check_times(seg.start_s, seg.end_s)
    _check_start_order(manifest.records)
    base, target = manifest.base_dir, os.path.dirname(path) or os.curdir
    moved = base and os.path.abspath(base) != os.path.abspath(target)

    def record(seg: Segment) -> dict:
        # Shallow, in field order: dataclasses.asdict deep-copies every field.
        rec = {k: getattr(seg, k) for k in _SEGMENT_FIELDS}
        if moved and not os.path.isabs(seg.features_path):
            rec["features_path"] = os.path.relpath(os.path.join(base, seg.features_path), target)
        return rec

    write_jsonl(map(record, manifest.records), path)


def read_segments(path: str | Path) -> SegmentManifest:
    """Read a raw segment manifest, its directory as ``base_dir``. The first
    record that starts before its predecessor is PARSE_ERROR."""
    records: list[Segment] = []
    for lineno, rec in read_jsonl(path):
        with _record("segment record", lineno):
            records.append(Segment(**{k: _get(rec, k, kind) for k, kind in _SEGMENT_FIELDS.items()}))
            _check_start_order(records[-2:])
    return SegmentManifest(records, os.path.dirname(path) or os.curdir)
