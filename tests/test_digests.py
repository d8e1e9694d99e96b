"""Pinned bytes of the commands whose outputs use no BLAS.

``synth``, ``pipeline group``, ``pipeline filter`` and ``pipeline stratify``
run through ``cli.main`` on fixed seeds, and the sha256 of every file each
one writes (manifests, shards and sidecars; not ``run-manifest.json``) must
equal its pinned digest. The digests follow numpy's ``Generator`` streams and
were taken with numpy 2.4.6, as the golden scores were. A change that means
to move these bytes updates the digests and says why.
"""

import hashlib
from pathlib import Path

import numpy as np

from episcore.cli import main
from episcore.episodes import Segment, SegmentManifest, write_features, write_segments


def _segment_stream(root: Path) -> Path:
    """A seeded segment manifest of two speakers; one speaker talks twice in a row, and one segment has a NaN."""
    rng = np.random.default_rng(11)
    records, end = [], 0.0
    for i, speaker in enumerate("abababbaabab"):
        start = round(end + float(rng.uniform(0.05, 0.8)), 3)
        end = round(start + float(rng.uniform(0.5, 3.0)), 3)
        feats = np.round(rng.standard_normal((1 + int(end - start), 4)) * 64.0) / 64.0
        if i == 10:
            feats[0, 1] = np.nan
        write_features(root / "segs" / f"s{i:02d}.f32", feats)
        records.append(Segment(f"spk-{speaker}", start, end, f"turn {i}", f"segs/s{i:02d}.f32"))
    write_segments(SegmentManifest(records), root / "segments.jsonl")
    (root / "group.cfg").write_text("max_group_duration_s = 7\n", encoding="utf-8")
    return root / "segments.jsonl"


def _written(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir`` but the run manifest, by relative path."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "run-manifest.json"
    }


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


PINNED = {
    "synth": {
        "p.jsonl": "8572c9ab17d5a077fb13b3176f7cf4355b3a0c7fc5fb7928d3bf9bcea7dccfe2",
        "p.jsonl.f32": "a9d1516ca5d50e6cd520250b0f7617d7740a5cadfad02cf4c065ff423eaaf1c2",
    },
    "group": {
        "episodes.jsonl": "24b7b25ebc3a3fc0285f6139d5324fffb6c7a7018a22ed98616c48661d68f444",
        "episodes.jsonl_features/grp-0000.00.f32": "9ab093e20fdd27a3b34d3ff92d5330c6b556ef9ec7b144dd229a787e92ad89df",
        "episodes.jsonl_features/grp-0000.01.f32": "7562d09e3f16bb5df9277069c319d63a362025bbfc1afce87117c873eea91724",
        "episodes.jsonl_features/grp-0000.02.f32": "2f0bd41c9b44dc25911c2601e281cdc49f84a8ad3a93b131ce227e1b2230f35e",
        "episodes.jsonl_features/grp-0000.03.f32": "37fa3132a73325feac616e5018b0af12dff1335a42a97b54e28ead6fc804328f",
        "episodes.jsonl_features/grp-0001.00.f32": "bc94949d1aa5b07cfb9d7d0743a588014913ed5db5999cdb8246e0869661625c",
        "episodes.jsonl_features/grp-0001.01.f32": "6190eac9d0b5a63392d00477ad359a8c9a7a0767ffbab638572bea6af1e6ea52",
        "episodes.jsonl_features/grp-0001.02.f32": "fb177f964daf7ab62991cb9e5c1dc4734b2d8e3d9dd70a944417df6015296120",
        "episodes.jsonl_features/grp-0001.03.f32": "52f1e7f5a473a598ab012e1113dc62c78ff19f36a871c2f95bb13319ba6a1db2",
        "episodes.jsonl_features/grp-0002.00.f32": "045e106b64cec4eb3172a472ff36b7d134586f6c53590a56ff1e4b0cadf7780b",
        "episodes.jsonl_features/grp-0002.01.f32": "3ba0977ee87287bd241cf94f4957fde273d09ac8305fc32226cc7256f8750e22",
    },
    "filter": {
        "kept.jsonl": "f934d285ac3a3b79eb0161ccae6aa05343a95255857d08f8311c2b9436ec728f",
        "kept.jsonl_features/grp-0000.00.f32": "9ab093e20fdd27a3b34d3ff92d5330c6b556ef9ec7b144dd229a787e92ad89df",
        "kept.jsonl_features/grp-0000.01.f32": "7562d09e3f16bb5df9277069c319d63a362025bbfc1afce87117c873eea91724",
        "kept.jsonl_features/grp-0000.02.f32": "2f0bd41c9b44dc25911c2601e281cdc49f84a8ad3a93b131ce227e1b2230f35e",
        "kept.jsonl_features/grp-0000.03.f32": "37fa3132a73325feac616e5018b0af12dff1335a42a97b54e28ead6fc804328f",
        "rejects.jsonl": "de3657563b621959143c033b3280cd063814372538f4a16c61b9ae26bd1ce4e9",
    },
    "stratify": {
        "bench.jsonl": "0d3dd72f037de0d60f9169418f622f05ab4954cadb44078247f119cac7c88ef4",
        "bench.jsonl.f32": "f2843c4c51edddbbf38e447932dad1a0972fe18940783e433e6f9b3d29797576",
    },
}


def test_outputs_that_use_no_blas_keep_their_bytes(tmp_path):
    segments, out = _segment_stream(tmp_path / "in"), tmp_path / "out"
    (tmp_path / "in" / "train-ids.txt").write_text("synth-00001\nsynth-00004\n", encoding="utf-8")
    _run("synth", "--n", 30, "--split", "val", "--seed", 3, "--out", "p.jsonl", "--out-dir", out / "synth")
    _run("pipeline", "group", "--manifest", segments, "--config", tmp_path / "in" / "group.cfg",
         "--out", "episodes.jsonl", "--out-dir", out / "group")
    _run("pipeline", "filter", "--in", out / "group" / "episodes.jsonl", "--out", "kept.jsonl",
         "--rejects", "rejects.jsonl", "--out-dir", out / "filter")
    _run("pipeline", "stratify", "--in", out / "synth" / "p.jsonl", "--cap", 1, "--seed", 5,
         "--train-ids", tmp_path / "in" / "train-ids.txt", "--out", "bench.jsonl", "--out-dir", out / "stratify")
    written = {command: _written(out / command) for command in ("synth", "group", "filter", "stratify")}
    assert written == PINNED
