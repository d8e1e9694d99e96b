import numpy as np
import pytest

from episcore import Criterion, Episode, PreferencePair, Turn

D_IN = 4


def make_turn(speaker="spk-a", transcript="yeah okay", duration=5.0, n_frames=3, d_in=D_IN, fill=0.5, **kw):
    feats = np.full((n_frames, d_in), fill, dtype=np.float32)
    return Turn(speaker, transcript, duration, feats, **kw)


def make_episode(n_turns=2, episode_id="ep-0", tier="wild", duration=5.0, metadata=None, d_in=D_IN):
    turns = [
        make_turn(speaker="spk-a" if i % 2 == 0 else "spk-b", duration=duration, d_in=d_in)
        for i in range(n_turns)
    ]
    return Episode(episode_id, turns, tier, metadata or {})


def make_pair(pair_id="pair-0", n_turns=2, tier="wild", criterion=Criterion.MODALITY, split="train", metadata=None):
    meta = metadata or {"primary_dimension": "neutral", "secondary_dimension": "laughter"}
    return PreferencePair(
        pair_id=pair_id,
        chosen=make_episode(n_turns, f"{pair_id}-c", tier, metadata=dict(meta)),
        rejected=make_episode(n_turns, f"{pair_id}-r", tier, metadata=dict(meta)),
        criterion=criterion,
        split=split,
    )


@pytest.fixture
def tiny_pair():
    return make_pair()


def sequence_rows(episode, cfg):
    """The rows of an episode's sequence as the scorer defines them
    (``episode_input_matrix``), after a zero row at the criterion position."""
    import episcore.scorer as sc

    return np.concatenate([np.zeros((1, cfg.d_in)), sc.episode_input_matrix(episode, cfg)])


def sequence_oracle(episode, criterion, cfg, params):
    """The scorer's definition, one row at a time in float64: the rows of
    :func:`sequence_rows`, each encoded on its own, the criterion embedding
    at row 0, pooled over the whole sequence and fed to the head.
    Returns (x, h, pooled, r): the (L, d_in) rows, their (L, d) encodings,
    the pooled vector and the reward."""
    x = sequence_rows(episode, cfg)
    h = [params.e_crit[criterion.index]] + [np.tanh(params.w_enc @ row + params.b_enc) for row in x[1:]]
    pooled = oracle_pool(h, cfg.pooling, params.q)
    r = float(params.w2[0] @ np.tanh(params.w1 @ pooled + params.b1) + params.b2[0])
    return x, np.array(h), pooled, r


def oracle_pool(h, mode, q):
    """Pool the rows ``h`` of one sequence, summing them one by one."""
    if mode == "last":
        return h[-1]
    z = [row @ q / np.sqrt(len(q)) for row in h] if mode == "attention" else [0.0] * len(h)
    e = [np.exp(zi - max(z)) for zi in z]
    total = np.zeros(len(h[0]))
    for ei, row in zip(e, h):
        total += ei * row
    return total / sum(e)
