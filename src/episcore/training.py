"""Pairwise preference training: losses, optimizer, and the train loop.

The objective on a batch of (chosen, rejected) pairs is

    total = mean_i softplus(-(r+_i - r-_i)) + lambda * mean_i (r+_i + r-_i)^2

The first term is the pairwise ranking loss (negative log-likelihood of
the chosen side winning under a logistic preference model); it is
invariant under a common shift of all scores, which is exactly why the
second, centering term exists: it anchors the score scale near zero so
domain shifts cannot drift the rewards without bound.

A batch is scored in one ragged forward pass (:func:`episcore.scorer.score_batch`)
and gradients flow back in one pass (:func:`episcore.scorer.backward_batch`),
taken at the params that scored the batch, with the per-pair upstreams

    dL/dr+ = (1/n) * (-sigmoid(-(r+ - r-)) + 2 lambda (r+ + r-))
    dL/dr- = (1/n) * (+sigmoid(-(r+ - r-)) + 2 lambda (r+ + r-))

which are verified against finite differences at the loss level in the
test suite. Each layer takes one input type, an
:class:`~episcore.scorer.EpisodeBatch` of pairs (the chosen sides, then
the rejected sides), and every such batch is a gather from a
:func:`pair_table`, the :class:`~episcore.scorer.RowTable` of a pair set.
:func:`train` reads its train and val pairs once each into two tables,
from any iterable (``episcore train`` passes manifest streams, so the
pairs are never held as objects); each step is a :func:`pair_batch`
gather for :func:`total_loss` (a whole pair set as one batch is the
:func:`pair_batch` of all its pairs). Forward-only scoring is
:func:`score_pairs`, one pass per ``SCORE_CHUNK`` consecutive pairs of a
table: train validation (:func:`evaluate_loss`) scores its val table, and
``episcore score`` pages a manifest into tables of ``SCORE_CHUNK`` pairs,
one pass each, so the two give a pair the same bits.

Determinism: the same params and the same batch composition give a
bitwise-identical :class:`BatchLoss`, so a training run is bitwise
reproducible from its seed. A pair scored in another batch composition
agrees within 1e-15, not bitwise.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import scorer
from .episodes import PreferencePair
from .errors import EmptyBatchError
from .scorer import EpisodeBatch, RowTable, ScorerConfig, ScorerParams

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    total_steps: int = 1200
    lambda_center: float = 1e-2
    peak_lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_frac: float = 0.15
    clip_norm: float = 1.0
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 50

    def __post_init__(self):
        if min(self.total_steps, self.batch_size, self.eval_every) < 1:
            raise ValueError("total_steps, batch_size and eval_every must be >= 1")
        if self.lambda_center < 0:
            raise ValueError("lambda_center must be >= 0")
        if not 0 <= self.warmup_frac < 1:
            raise ValueError("warmup_frac must be in [0, 1)")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")


@dataclass
class StepReport:
    step: int
    loss_pref: float
    loss_center: float
    loss_total: float
    grad_norm_preclip: float
    lr: float
    mean_chosen_r: float
    mean_rejected_r: float
    batch_margin: float
    val_loss: float | None = None
    val_accuracy: float | None = None


def bt_loss(r_plus, r_minus):
    """Ranking loss softplus(-(r_plus - r_minus)) = -log sigmoid(r_plus - r_minus).

    Computed as max(x, 0) + log1p(exp(-|x|)) with x = -(r_plus - r_minus),
    which neither overflows for large |x| nor underflows to 0 for margins
    as wide as float64 can represent. Accepts scalars or arrays.
    """
    x = -(np.asarray(r_plus, dtype=np.float64) - np.asarray(r_minus, dtype=np.float64))
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def center_loss(r_plus, r_minus):
    """Squared sum (r_plus + r_minus)^2; zero only for antisymmetric scores."""
    s = np.asarray(r_plus, dtype=np.float64) + np.asarray(r_minus, dtype=np.float64)
    out = s * s
    return float(out) if out.ndim == 0 else out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with e = e^-|x|:
    # neither branch overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class BatchLoss:
    value: float
    loss_pref: float
    loss_center: float
    grads: ScorerParams
    r_chosen: np.ndarray
    r_rejected: np.ndarray


def pair_table(pairs: Iterable[PreferencePair], cfg: ScorerConfig) -> RowTable:
    """The :class:`~episcore.scorer.RowTable` of a pair set, built in one
    pass over ``pairs``; its episodes are ordered chosen0, rejected0,
    chosen1, ..."""
    return RowTable.build(((ep, p.criterion) for p in pairs for ep in (p.chosen, p.rejected)), cfg)


def pair_batch(table: RowTable, index) -> EpisodeBatch:
    """The pairs ``index`` of a :func:`pair_table`, gathered into one batch:
    their chosen sides in that order, then their rejected sides."""
    chosen = 2 * np.asarray(index, dtype=np.intp)
    return table.batch(np.concatenate([chosen, chosen + 1]))


# Pairs per forward pass when scoring a whole pair set; bounds the memory
# of the pass.
SCORE_CHUNK = 32


def score_pairs(table: RowTable, cfg: ScorerConfig, params: ScorerParams) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only (chosen, rejected) scores of every pair of a
    :func:`pair_table`, one forward pass per ``SCORE_CHUNK`` consecutive
    pairs (the last pass may be shorter). This chunk rule fixes the bits
    of every forward-only score."""
    n = len(table) // 2
    scores = [
        scorer.score_batch(pair_batch(table, np.arange(lo, min(lo + SCORE_CHUNK, n))), cfg, params).r.reshape(2, -1)
        for lo in range(0, n, SCORE_CHUNK)
    ]
    r = np.concatenate(scores, axis=1) if scores else np.empty((2, 0))
    return r[0], r[1]


def _objective(r_chosen: np.ndarray, r_rejected: np.ndarray, lambda_center: float) -> tuple[float, float, float]:
    """(total, ranking term, centering term) of the objective above."""
    n = r_chosen.size
    loss_pref = float(bt_loss(r_chosen, r_rejected).sum() / n)
    loss_center = float(center_loss(r_chosen, r_rejected).sum() / n)
    return loss_pref + lambda_center * loss_center, loss_pref, loss_center


def total_loss(
    batch: EpisodeBatch, cfg: ScorerConfig, params: ScorerParams, lambda_center: float = 1e-2
) -> BatchLoss:
    """Objective of a :func:`pair_batch` batch and its exact parameter gradients.

    Both sides of every pair are scored in the same pass so the centering
    term couples them pairwise, exactly as written above.
    """
    if len(batch) == 0:
        raise EmptyBatchError("cannot compute a loss over an empty batch")
    acts = scorer.score_batch(batch, cfg, params)
    r_chosen, r_rejected = acts.r.reshape(2, -1)
    n = r_chosen.size
    sig = _sigmoid(r_rejected - r_chosen)  # = 1 - sigmoid(r+ - r-), the miss probability
    ssum = r_chosen + r_rejected
    value, loss_pref, loss_center = _objective(r_chosen, r_rejected, lambda_center)
    up_c = (-sig + 2.0 * lambda_center * ssum) / n
    up_r = (sig + 2.0 * lambda_center * ssum) / n
    grads = scorer.backward_batch(acts, np.concatenate([up_c, up_r]))
    return BatchLoss(value, loss_pref, loss_center, grads, r_chosen, r_rejected)


# ---------------------------------------------------------------------------
# Optimizer: linear warmup into a cosine decay, global-norm clipping,
# decoupled weight decay on every tensor.
# ---------------------------------------------------------------------------


def warmup_steps(cfg: TrainConfig) -> int:
    return int(round(cfg.warmup_frac * cfg.total_steps))


def lr_at_step(step: int, cfg: TrainConfig) -> float:
    """Learning rate at 1-based ``step``; peak at warmup end, 0 at the end."""
    wu = warmup_steps(cfg)
    if step >= cfg.total_steps:
        return 0.0
    if wu > 0 and step <= wu:
        return cfg.peak_lr * step / wu
    span = max(cfg.total_steps - wu, 1)
    progress = (step - wu) / span
    return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def clip_gradients(grads: ScorerParams, clip_norm: float) -> tuple[ScorerParams, float]:
    """Scale grads to global L2 norm <= clip_norm; direction is unchanged."""
    norm = scorer.params_norm(grads)
    if norm > clip_norm:
        return grads.like(grads.flat * (clip_norm / norm)), norm
    return grads, norm


@dataclass
class AdamState:
    m: np.ndarray  # first moment, laid out like ScorerParams.flat
    v: np.ndarray  # second moment
    t: int = 0

    @classmethod
    def init(cls, params: ScorerParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def optimizer_step(
    params: ScorerParams, grads: ScorerParams, state: AdamState, cfg: TrainConfig, lr: float
) -> ScorerParams:
    """One AdamW update with learning rate ``lr`` on already clipped
    gradients (see :func:`clip_gradients`), elementwise over the flat
    parameter vector; returns new params, mutates ``state``."""
    state.t += 1
    g, theta = grads.flat, params.flat
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    return params.like(theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS) - lr * cfg.weight_decay * theta)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    best_params: ScorerParams
    best_step: int
    best_val_loss: float
    history: list[StepReport]


def evaluate_loss(
    table: RowTable, cfg: ScorerConfig, params: ScorerParams, lambda_center: float
) -> tuple[float, float]:
    """(total loss, pairwise accuracy) on the held-out :func:`pair_table`
    ``table``, scored by :func:`score_pairs`."""
    rc, rr = score_pairs(table, cfg, params)
    return _objective(rc, rr, lambda_center)[0], float(np.mean(rc > rr))


CHECKPOINT_WINDOW = 20


def train(
    pairs: Iterable[PreferencePair],
    val_pairs: Iterable[PreferencePair],
    scorer_cfg: ScorerConfig,
    cfg: TrainConfig,
    checkpoint_dir: str | Path | None = None,
) -> TrainResult:
    """Run the pairwise training loop and return the best checkpoint.

    ``pairs`` and then ``val_pairs`` are read once each, in one pass, into
    a :func:`pair_table`; a stream is never held as pair objects. Each step
    gathers its batch from the train table, and each validation pass
    scores the val table by :func:`evaluate_loss`.

    Deterministic given ``cfg.seed``: parameter init and the shuffling
    stream both derive from it. Validation loss is measured every
    ``eval_every`` steps (and at the last step); the returned params are
    the ones with minimal validation loss. When ``checkpoint_dir`` is
    given, a rolling window of the 20 most recent eval-point checkpoints
    is kept on disk, and at the end every other ``step-*.ckpt`` there (an
    earlier run's) is removed; a ``scorer_cfg`` that a checkpoint cannot
    store is BAD_CHECKPOINT before anything is read or written.
    """
    if checkpoint_dir is not None:
        scorer.check_storable(scorer_cfg)
    train_table = pair_table(pairs, scorer_cfg)
    val_table = pair_table(val_pairs, scorer_cfg)
    n = len(train_table) // 2
    if n == 0:
        raise EmptyBatchError("training requires a non-empty pair set")
    has_val = len(val_table) > 0
    root = np.random.SeedSequence(cfg.seed)
    init_ss, shuffle_ss = root.spawn(2)
    params = scorer.init_params(scorer_cfg, seed=int(init_ss.generate_state(1)[0]))
    shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_ss))

    state = AdamState.init(params)
    bs = min(cfg.batch_size, n)
    order = shuffle_rng.permutation(n)
    pos = 0

    history: list[StepReport] = []
    best_params = scorer.clone_params(params)
    best_step = 0
    best_val = math.inf
    window: list[Path] = []
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    for step in range(1, cfg.total_steps + 1):
        if pos + bs > n:
            order = shuffle_rng.permutation(n)
            pos = 0
        idx = order[pos : pos + bs]
        pos += bs

        result = total_loss(pair_batch(train_table, idx), scorer_cfg, params, cfg.lambda_center)
        grads, preclip = clip_gradients(result.grads, cfg.clip_norm)
        lr = lr_at_step(step, cfg)
        params = optimizer_step(params, grads, state, cfg, lr)

        report = StepReport(
            step=step,
            loss_pref=result.loss_pref,
            loss_center=result.loss_center,
            loss_total=result.value,
            grad_norm_preclip=preclip,
            lr=lr,
            mean_chosen_r=float(result.r_chosen.sum() / bs),
            mean_rejected_r=float(result.r_rejected.sum() / bs),
            batch_margin=float((result.r_chosen - result.r_rejected).sum() / bs),
        )

        if has_val and (step % cfg.eval_every == 0 or step == cfg.total_steps):
            val_loss, val_acc = evaluate_loss(val_table, scorer_cfg, params, cfg.lambda_center)
            report.val_loss = val_loss
            report.val_accuracy = val_acc
            if val_loss < best_val:
                best_val = val_loss
                best_step = step
                best_params = scorer.clone_params(params)
            if ckpt_dir is not None:
                path = ckpt_dir / f"step-{step:06d}.ckpt"
                scorer.save_checkpoint(path, scorer_cfg, params)
                window.append(path)
                if len(window) > CHECKPOINT_WINDOW:
                    window.pop(0).unlink(missing_ok=True)

        history.append(report)

    if ckpt_dir is not None:
        for stale in set(ckpt_dir.glob("step-*.ckpt")) - set(window):
            stale.unlink()
    if not has_val:
        best_params = scorer.clone_params(params)
        best_step = cfg.total_steps
        best_val = math.nan
    return TrainResult(best_params=best_params, best_step=best_step, best_val_loss=best_val, history=history)
