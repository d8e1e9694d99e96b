"""Finite-difference verification of the scorer's reverse-mode gradients.

Central differences with h = 1e-5 in float64 give truncation error around
1e-10 for O(1) rewards, so a relative tolerance of 1e-4 has orders of
magnitude of headroom; any real gradient bug lands far outside it. The
relative error uses a small scale floor so components whose true gradient
is exactly zero (for example the attention query under mean pooling) do
not divide by zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import scorer
from .episodes import Criterion, Episode, Turn
from .scorer import PARAM_FIELDS, POOLING_MODES, ScorerConfig, ScorerParams

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
REL_ERR_FLOOR = 1e-4


def relative_error(analytic, numeric):
    """|analytic - numeric| / max(|analytic|, |numeric|, REL_ERR_FLOOR), elementwise."""
    return np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERR_FLOOR)


def numerical_gradient(f, params: ScorerParams, h: float = DEFAULT_STEP) -> ScorerParams:
    """Central finite differences of scalar f(params) w.r.t. every entry."""
    flat = params.flat
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = f(params)
        flat[i] = original - h
        down = f(params)
        flat[i] = original
        grad[i] = (up - down) / (2.0 * h)
    return params.like(grad)


def random_case(rng: np.random.Generator) -> tuple[ScorerConfig, ScorerParams, Episode, Criterion]:
    """A small random (config, params, episode, criterion) draw."""
    d_in = int(rng.integers(3, 7))
    cfg = ScorerConfig(
        d_in=d_in,
        d=int(rng.integers(4, 9)),
        head_hidden=int(rng.integers(3, 8)),
        max_frames_per_turn=6,
    )
    params = scorer.init_params(cfg, seed=int(rng.integers(0, 2**31)))
    vocab = ["yeah", "so", "okay", "right", "well", "um"]
    turns = []
    n_turns = int(rng.integers(1, 4))
    for t in range(n_turns):
        n_frames = int(rng.integers(1, 5))
        n_words = int(rng.integers(0, 4))
        words = " ".join(vocab[int(w)] for w in rng.integers(0, len(vocab), size=n_words))
        feats = rng.standard_normal((n_frames, d_in))
        turns.append(Turn(f"spk-{t % 2}", words, n_frames * 0.5, feats))
    episode = Episode("gradcheck-ep", turns, "wild")
    criterion = Criterion.MODALITY if rng.integers(0, 2) == 0 else Criterion.COLLOQUIALNESS
    return cfg, params, episode, criterion


@dataclass
class GroupResult:
    max_rel_err: float = 0.0
    worst_draw: int = -1
    worst_mode: str = ""
    worst_index: int = -1


@dataclass
class GradcheckReport:  # the fields in the order of the report's JSON keys
    passed: bool
    tolerance: float
    n_draws: int
    modes: tuple[str, ...]
    max_rel_err: float
    worst_group: str
    groups: dict[str, GroupResult]

    def to_dict(self) -> dict:
        return asdict(self)


def run_gradcheck(
    n_draws: int = 100,
    seed: int = 0,
    h: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
) -> GradcheckReport:
    """Compare reverse-mode and finite-difference gradients over random
    draws of (params, episode, criterion) for every pooling mode."""
    rng = np.random.default_rng(seed)
    groups = {name: GroupResult() for name in PARAM_FIELDS}
    for draw in range(n_draws):
        cfg, params, episode, criterion = random_case(rng)
        batch = scorer.pack_episodes([episode], [criterion], cfg)
        for mode in POOLING_MODES:
            mode_cfg = replace(cfg, pooling=mode)
            acts = scorer.score_batch(batch, mode_cfg, params)
            analytic = scorer.backward_batch(acts, np.ones(1))
            numeric = numerical_gradient(lambda p: scorer.score_batch(batch, mode_cfg, p).r[0], params, h=h)
            for name in PARAM_FIELDS:
                err = relative_error(getattr(analytic, name), getattr(numeric, name)).reshape(-1)
                err[np.isnan(err)] = np.inf  # a NaN gradient fails, it is not skipped
                i = int(np.argmax(err))  # the first worst entry
                if err[i] > groups[name].max_rel_err:
                    groups[name] = GroupResult(float(err[i]), draw, mode, i)
    passed = all(g.max_rel_err < tol for g in groups.values())
    worst = max(groups, key=lambda name: groups[name].max_rel_err)
    return GradcheckReport(passed, tol, n_draws, POOLING_MODES, groups[worst].max_rel_err, worst, groups)
