"""Score a hand-built two-turn dialogue under both criteria.

Walks through the core objects: turns with frame matrices, an episode,
the scorer config/params, and the three pooling modes.
"""

import dataclasses

import numpy as np

from episcore import Criterion, Episode, ScorerConfig, Turn, init_params, score

rng = np.random.default_rng(0)
d_in = 8

# Two alternating turns; the second one is the candidate being scored.
episode = Episode(
    episode_id="demo-0",
    turns=[
        Turn("user", "hey how was the trip", 4.0, rng.standard_normal((8, d_in))),
        Turn("assistant", "oh yeah it was really something", 5.0, rng.standard_normal((10, d_in))),
    ],
    source_tier="wild",
)

cfg = ScorerConfig(d_in=d_in, d=16, head_hidden=16, pooling="mean")
params = init_params(cfg, seed=42)

# The encoded sequence: criterion row + per-turn (text tokens, audio frames).
# score() returns the reward and the Activations of its forward pass.
h = score(episode, Criterion.MODALITY, cfg, params)[1].h
n_tokens = sum(len(t.transcript.split()) for t in episode.turns)
n_frames = sum(t.features.shape[0] for t in episode.turns)
print(f"sequence length L = {h.shape[0]} (1 criterion row + {n_tokens} tokens + {n_frames} frames)")

for mode in ("last", "mean", "attention"):
    pooled = score(episode, Criterion.MODALITY, dataclasses.replace(cfg, pooling=mode), params)[1].pooled[0]
    print(f"{mode:>9} pooling -> first pooled dims {np.round(pooled[:3], 4)}")

for criterion in (Criterion.MODALITY, Criterion.COLLOQUIALNESS):
    r, _ = score(episode, criterion, cfg, params)
    print(f"reward under {criterion.value:>15}: {r:+.6f}")

# Conditioning is a single prepended embedding row, so swapping the
# criterion changes row 0 of H and nothing else.
h_mod = score(episode, Criterion.MODALITY, cfg, params)[1].h
h_col = score(episode, Criterion.COLLOQUIALNESS, cfg, params)[1].h
print("rows that differ between criteria:", int((h_mod != h_col).any(axis=1).sum()))
