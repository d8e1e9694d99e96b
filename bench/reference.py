"""Computations made apart from episcore, used to check its outputs.

Everything here is written from the documented formats and formulas, not
by calling the package:

* the scorer forward pass, from the layout in ``episcore.scorer``'s module
  docstring: row 0 is the criterion embedding passed through unencoded;
  then, per turn, one hashed row per case-folded whitespace token followed
  by the turn's audio frames truncated to ``max_frames_per_turn``; every
  non-criterion row is encoded as tanh(W_enc f + b_enc); the sequence is
  pooled (last / mean / softmax(H q / sqrt(d)) attention) and a one-layer
  tanh MLP head gives the reward. All arithmetic is float64;
* readers of the checkpoint, feature-sidecar and JSONL formats described
  in the README's "File formats" section;
* the structural episode rules from the README's "Conventions" section.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# Seed of the token hash embedding. It is part of the model definition, so
# a checkpoint scores the same in any implementation that uses it.
TOKEN_EMBED_SEED = 0x70CEA5
# Frame truncation a checkpoint does not record; loaders fall back to it.
DEFAULT_MAX_FRAMES = 60

POOLING_BY_CODE = {0: "last", 1: "mean", 2: "attention"}
CRITERION_ROW = {"modality": 0, "colloquialness": 1}

MAX_TURNS = 16
MAX_TURN_SECONDS = 60.0


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


# ---------------------------------------------------------------------------
# Scorer forward pass
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def token_row(token: str, d_in: int) -> np.ndarray:
    """Hash embedding of one token: an 8-byte blake2b digest, read little
    endian, keys a PCG64 stream seeded with (TOKEN_EMBED_SEED, key, d_in)."""
    key = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "little")
    seq = np.random.SeedSequence([TOKEN_EMBED_SEED, key, d_in])
    return np.random.Generator(np.random.PCG64(seq)).standard_normal(d_in)


def input_rows(turns, d_in: int, max_frames: int) -> np.ndarray:
    """Non-criterion input rows of an episode given as (transcript, frames) turns."""
    rows = []
    for transcript, frames in turns:
        rows.extend(token_row(tok, d_in) for tok in transcript.casefold().split())
        rows.extend(np.asarray(frames[:max_frames], dtype=np.float64))
    return np.array(rows, dtype=np.float64).reshape(len(rows), d_in)


def forward(turns, criterion: str, params: dict, pooling: str, max_frames: int = DEFAULT_MAX_FRAMES) -> float:
    """Reward of one episode; ``turns`` is a list of (transcript, frames)."""
    d_in = params["w_enc"].shape[1]
    x = input_rows(turns, d_in, max_frames)
    body = np.tanh(x @ params["w_enc"].T + params["b_enc"][None, :])
    h = np.concatenate([params["e_crit"][CRITERION_ROW[criterion]][None, :], body], axis=0)
    if pooling == "last":
        pooled = h[-1]
    elif pooling == "mean":
        pooled = h.sum(axis=0) / h.shape[0]
    elif pooling == "attention":
        z = (h @ params["q"]) / math.sqrt(h.shape[1])
        e = np.exp(z - z.max())
        pooled = (e[:, None] * h).sum(axis=0) / e.sum()
    else:
        raise ValueError(f"unknown pooling {pooling!r}")
    hidden = np.tanh(params["w1"] @ pooled + params["b1"])
    return float(params["w2"][0] @ hidden + params["b2"][0])


def episode_turns(episode) -> list[tuple[str, np.ndarray]]:
    """(transcript, frames) turns of an in-memory ``episcore.Episode``."""
    return [(t.transcript, t.features) for t in episode.turns]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_CKPT_HEADER = struct.Struct("<5Q")


def read_checkpoint(path) -> tuple[str, dict]:
    """(pooling, params) of a version-1 checkpoint: five little-endian uint64
    (version, d_in, d, head_hidden, pooling code), then float64 tensors."""
    raw = Path(path).read_bytes()
    version, d_in, d, hh, code = _CKPT_HEADER.unpack_from(raw)
    if version != 1:
        raise CheckFailed(f"{path}: checkpoint version {version}, expected 1")
    shapes = [
        ("w_enc", (d, d_in)), ("b_enc", (d,)), ("e_crit", (2, d)), ("q", (d,)),
        ("w1", (hh, d)), ("b1", (hh,)), ("w2", (1, hh)), ("b2", (1,)),
    ]
    params, offset = {}, _CKPT_HEADER.size
    for name, shape in shapes:
        count = int(np.prod(shape))
        params[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    if offset != len(raw):
        raise CheckFailed(f"{path}: {len(raw) - offset} bytes after the last tensor")
    return POOLING_BY_CODE[code], params


def read_sidecar(path) -> np.ndarray:
    """Feature sidecar: uint64 (F, d_in) header, then F*d_in float32, little endian."""
    raw = Path(path).read_bytes()
    n_frames, d_in = struct.unpack_from("<QQ", raw)
    if len(raw) != 16 + 4 * n_frames * d_in:
        raise CheckFailed(f"{path}: size does not match its ({n_frames}, {d_in}) header")
    return np.frombuffer(raw, dtype="<f4", offset=16).reshape(n_frames, d_in)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Structural rules
# ---------------------------------------------------------------------------


def structural_codes(speakers: list[str], durations: list[float], finite: bool) -> list[str]:
    """Violation codes of an episode, in the order the README lists the rules."""
    n = len(speakers)
    codes = []
    if n % 2:
        codes.append("ODD_TURNS")
    if n > MAX_TURNS:
        codes.append("TOO_MANY_TURNS")
    if any(d > MAX_TURN_SECONDS for d in durations):
        codes.append("TURN_TOO_LONG")
    pattern = speakers[:2]
    if n < 2 or pattern[0] == pattern[1] or any(s != pattern[i % 2] for i, s in enumerate(speakers)):
        codes.append("SPEAKER_ALTERNATION")
    if not finite:
        codes.append("NONFINITE_FEATURE")
    return codes
