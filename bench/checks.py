"""Property checks of the curation outputs, made from the files alone.

Each function reads what a ``pipeline`` subcommand wrote and raises
:class:`reference.CheckFailed` on the first property that does not hold.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from reference import CheckFailed, read_jsonl, read_sidecar, structural_codes

# Slack for comparing sums of float durations against a bound.
EPS = 1e-9


def check_groups(episodes_path, max_group_duration_s: float, min_overlap_ratio: float) -> list[dict]:
    """Every grouped episode meets the documented bounds of group_segments:
    speech <= the cap, at most two speakers, an even turn count and speech
    density (speech / wall-clock span) >= the floor. Returns the records."""
    records = read_jsonl(episodes_path)
    ids = [r["episode_id"] for r in records]
    if len(set(ids)) != len(ids):
        raise CheckFailed(f"{episodes_path}: duplicate episode ids")
    for rec in records:
        turns = rec["turns"]
        eid = rec["episode_id"]
        speech = sum(t["duration_s"] for t in turns)
        span = turns[-1]["end_s"] - turns[0]["start_s"] if turns else 0.0
        if speech > max_group_duration_s + EPS:
            raise CheckFailed(f"{eid}: {speech:.3f} s of speech exceeds the {max_group_duration_s} s cap")
        if len({t["speaker_id"] for t in turns}) > 2:
            raise CheckFailed(f"{eid}: more than two speakers")
        if len(turns) < 2 or len(turns) % 2:
            raise CheckFailed(f"{eid}: {len(turns)} turns, expected an even count >= 2")
        if span <= 0 or speech / span < min_overlap_ratio - EPS:
            raise CheckFailed(f"{eid}: speech density {speech / span if span > 0 else 0:.4f} below the floor")
    return records


def _without_paths(turns: list[dict]) -> list[dict]:
    return [{k: v for k, v in t.items() if k != "features_path"} for t in turns]


def _finite(rec: dict, base: Path) -> bool:
    return all(np.isfinite(read_sidecar(base / t["features_path"])).all() for t in rec["turns"])


def check_filter(grouped: list[dict], grouped_base: Path, kept_path, rejects_path, source_sidecar: dict) -> int:
    """kept + rejected is exactly the grouped set; every kept episode breaks
    no structural rule, every rejected one carries exactly the codes of the
    rules it breaks; kept turn features equal their source segment's sidecar
    bit for bit (``source_sidecar`` maps (speaker, start, end) to a path).
    Returns the number of kept episodes."""
    kept = read_jsonl(kept_path)
    rejects = read_jsonl(rejects_path)
    by_id = {r["episode_id"]: r for r in grouped}
    kept_ids = [r["episode_id"] for r in kept]
    reject_ids = [r["episode_id"] for r in rejects]
    both = Counter(kept_ids + reject_ids)
    if set(both) != set(by_id) or any(n != 1 for n in both.values()):
        raise CheckFailed("kept and rejected episodes are not an exact partition of the grouped set")
    for rec in rejects:
        src = by_id[rec["episode_id"]]
        want = structural_codes(
            [t["speaker_id"] for t in src["turns"]],
            [t["duration_s"] for t in src["turns"]],
            _finite(src, grouped_base),
        )
        if not rec["violations"] or rec["violations"] != want:
            raise CheckFailed(f"{rec['episode_id']}: rejected with {rec['violations']}, rules give {want}")
    kept_base = Path(kept_path).parent
    for rec in kept:
        turns = rec["turns"]
        codes = structural_codes(
            [t["speaker_id"] for t in turns], [t["duration_s"] for t in turns], _finite(rec, kept_base)
        )
        if codes:
            raise CheckFailed(f"{rec['episode_id']}: kept but breaks {codes}")
        if _without_paths(turns) != _without_paths(by_id[rec["episode_id"]]["turns"]):
            raise CheckFailed(f"{rec['episode_id']}: kept turns differ from the grouped ones")
        for t in turns:
            source = source_sidecar.get((t["speaker_id"], t["start_s"], t["end_s"]))
            if source is None:
                raise CheckFailed(f"{rec['episode_id']}: turn at {t['start_s']} s has no source segment")
            if (kept_base / t["features_path"]).read_bytes() != Path(source).read_bytes():
                raise CheckFailed(f"{rec['episode_id']}: turn at {t['start_s']} s differs from its source sidecar")
    return len(kept)


def check_stratify(input_records: list[dict], bench_path, cap: int) -> None:
    """Each (tier, secondary dimension) bucket of the non-train input pairs
    holds min(size, cap) pairs of its own in the output, all labelled bench."""
    buckets: dict[tuple[str, str], set[str]] = {}
    for rec in input_records:
        if rec["split"] != "train":
            key = (rec["source_tier"], rec["chosen"]["metadata"]["secondary_dimension"])
            buckets.setdefault(key, set()).add(rec["pair_id"])
    out = read_jsonl(bench_path)
    got: Counter = Counter()
    seen = set()
    for rec in out:
        key = (rec["source_tier"], rec["chosen"]["metadata"]["secondary_dimension"])
        if rec["split"] != "bench":
            raise CheckFailed(f"{rec['pair_id']}: stratified pair labelled {rec['split']!r}")
        if rec["pair_id"] in seen or rec["pair_id"] not in buckets.get(key, ()):
            raise CheckFailed(f"{rec['pair_id']}: duplicated, or not a non-train input pair of bucket {key}")
        seen.add(rec["pair_id"])
        got[key] += 1
    for key, members in buckets.items():
        if got[key] != min(len(members), cap):
            raise CheckFailed(f"bucket {key}: {got[key]} pairs, expected min({len(members)}, {cap})")
