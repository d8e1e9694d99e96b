"""The reward scorer: frame encoder, criterion conditioning, pooling, head.

One episode is laid out as a single sequence of d_in-dimensional input
frames:

    row 0:               the criterion embedding (a learned table row,
                         passed through to H unchanged)
    per turn, in order:  one row per transcript token, then one row per
                         audio frame (truncated to ``max_frames_per_turn``)

so L = 1 + sum_t min(F_t, max_frames_per_turn) + sum_t tokens(x_t).
Token rows are deterministic hash embeddings of the case-folded,
whitespace-split token strings; no external tokenizer is involved.

Every non-criterion row is encoded as h = tanh(W_enc f + b_enc), the
sequence is pooled (last / mean / attention), and a one-hidden-layer tanh
MLP maps the pooled vector to a scalar reward.

The layout is stated once, by :class:`RowTable`: it keeps each kept
frame row once at its file precision (float32) and each distinct token
embedding once (float64), plus the table row of each position of each
episode's sequence, and builds the float64 rows of any batch of its
episodes with one gather. Scoring takes one input type, a
ragged :class:`EpisodeBatch` (segment starts derive from lengths):
:func:`pack_episodes` is the table batch of a list of episodes,
:func:`score_batch` scores a batch in one forward pass, and
:func:`backward_batch` produces exact gradients of any weighted sum of
their rewards w.r.t. every parameter tensor, which the test suite
verifies against central finite differences. Backward takes only what
the forward pass produced: its :class:`Activations` hold the encoded rows
(``h``), the pooled vector, the pooling mode and the params that scored,
and the gradients are taken at those params. :func:`score` and
:func:`backward` are the same code on a batch of one.

Parameters and gradients each live in one float64 vector whose named
tensors are views of it (:class:`ScorerParams`).

All arithmetic is float64 for clean gradient checks. Determinism: the
same params and the same batch composition (the same episodes, criteria
and order) give bitwise-identical rewards and gradients. The same episode
scored as a batch of one and inside a larger batch agrees within 1e-15,
not bitwise.
"""

from __future__ import annotations

import hashlib
import math
import struct
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .episodes import Criterion, Episode, _replace_file
from .errors import CheckpointError, ShapeMismatchError

POOLING_MODES = ("last", "mean", "attention")  # a checkpoint stores the mode's index here

# Fixed seed of the token hash embedding; part of the model definition.
TOKEN_EMBED_SEED = 0x70CEA5


@dataclass
class ScorerConfig:
    d_in: int = 8
    d: int = 16
    pooling: str = "mean"
    head_hidden: int = 16
    max_frames_per_turn: int = 60

    def __post_init__(self):
        if min(self.d_in, self.d, self.head_hidden, self.max_frames_per_turn) < 1:
            raise ValueError("all scorer dimensions must be >= 1")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"unknown pooling {self.pooling!r}, expected one of {POOLING_MODES}")


# Field order doubles as the tensor order in checkpoints and gradients.
PARAM_FIELDS = ("w_enc", "b_enc", "e_crit", "q", "w1", "b1", "w2", "b2")


class ScorerParams:
    """All learnable tensors, stored as one contiguous float64 vector.

    ``flat`` holds every parameter. Each name of ``PARAM_FIELDS`` is an
    attribute that is a view of its slice of ``flat``, in that order,
    row-major, with its shape from ``shapes`` (:func:`param_shapes`), so
    writing through a view (``p.w1[...] = x``, ``p.w2 *= 2``) writes
    ``flat``; rebinding an attribute would not. ``flat`` is the body of a
    checkpoint. The same container holds gradients.
    """

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self.flat = flat
        self.shapes = shapes
        offset = 0
        for name in PARAM_FIELDS:
            end = offset + math.prod(shapes[name])
            setattr(self, name, flat[offset:end].reshape(shapes[name]))
            offset = end
        if offset != flat.size:
            raise ShapeMismatchError(f"flat params have {flat.size} entries, the shapes need {offset}")

    def like(self, flat: np.ndarray) -> "ScorerParams":
        return ScorerParams(flat, self.shapes)

    def tensors(self):
        return [(name, getattr(self, name)) for name in PARAM_FIELDS]


def param_shapes(cfg: ScorerConfig) -> dict[str, tuple[int, ...]]:
    return {
        "w_enc": (cfg.d, cfg.d_in),  # frame encoder weight
        "b_enc": (cfg.d,),  # frame encoder bias
        "e_crit": (2, cfg.d),  # criterion embeddings
        "q": (cfg.d,),  # attention-pooling query
        "w1": (cfg.head_hidden, cfg.d),  # head
        "b1": (cfg.head_hidden,),
        "w2": (1, cfg.head_hidden),
        "b2": (1,),
    }


def _param_count(shapes: dict[str, tuple[int, ...]]) -> int:
    return sum(math.prod(shape) for shape in shapes.values())


def init_params(cfg: ScorerConfig, seed: int = 0) -> ScorerParams:
    rng = np.random.default_rng(seed)
    shapes = param_shapes(cfg)
    p = ScorerParams(np.zeros(_param_count(shapes)), shapes)
    p.w_enc[...] = rng.standard_normal((cfg.d, cfg.d_in)) / math.sqrt(cfg.d_in)
    p.e_crit[...] = 0.1 * rng.standard_normal((2, cfg.d))
    p.q[...] = 0.1 * rng.standard_normal(cfg.d)
    p.w1[...] = rng.standard_normal((cfg.head_hidden, cfg.d)) / math.sqrt(cfg.d)
    p.w2[...] = rng.standard_normal((1, cfg.head_hidden)) / math.sqrt(cfg.head_hidden)
    return p


def zeros_like_params(params: ScorerParams) -> ScorerParams:
    return params.like(np.zeros_like(params.flat))


def clone_params(params: ScorerParams) -> ScorerParams:
    return params.like(params.flat.copy())


def check_shapes(cfg: ScorerConfig, params: ScorerParams) -> None:
    want = param_shapes(cfg)
    if params.shapes != want:
        raise ShapeMismatchError(f"params have shapes {params.shapes}, config expects {want}")


# ---------------------------------------------------------------------------
# Input construction
# ---------------------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    return text.casefold().split()


@lru_cache(maxsize=1 << 16)
def token_embedding(token: str, d_in: int) -> np.ndarray:
    """Deterministic hash embedding of one token into R^d_in (cached, read-only)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([TOKEN_EMBED_SEED, key, d_in])))
    vec = rng.standard_normal(d_in)
    vec.setflags(write=False)
    return vec


def episode_input_matrix(episode: Episode, cfg: ScorerConfig) -> np.ndarray:
    """The non-criterion input rows of an episode, in layout order."""
    return pack_episodes([episode], [Criterion.MODALITY], cfg).x[1:]


def _segment_starts(lengths: np.ndarray) -> np.ndarray:
    return np.cumsum(lengths) - lengths


@dataclass(eq=False)
class EpisodeBatch:
    """The input rows of B episodes, packed for one ragged forward pass.

    Episode i owns the segment ``x[starts[i] : starts[i] + lengths[i]]``:
    its sequence in the layout of :class:`RowTable`. The segment's first
    row is a zero placeholder at the position of the criterion row (the
    encoder output there is replaced by the criterion embedding). So every
    segment has at least one row, and lengths[i] is the episode's sequence
    length L. ``starts`` is derived from ``lengths``, so the two cannot
    disagree.
    """

    x: np.ndarray         # (R, d_in) float64, R = lengths.sum()
    lengths: np.ndarray   # (B,) rows per segment, >= 1
    criteria: np.ndarray  # (B,) criterion-embedding row of each episode
    starts: np.ndarray = field(init=False)  # (B,) first row of each segment

    def __post_init__(self):
        self.starts = _segment_starts(self.lengths)

    def __len__(self) -> int:
        return int(self.lengths.size)


@dataclass(eq=False)
class RowTable:
    """The one statement of the sequence layout: the distinct input rows
    of a set of episodes, and the row at each position of each sequence.

    The rows are held once each, in two tables numbered as one row space.
    ``frames`` holds a zero row, then each kept frame row once (the first
    ``max_frames_per_turn`` frames of each turn, in episode and turn
    order) at its file precision, float32. ``tokens`` holds each distinct
    token's float64 embedding once, in order of first use; token k is row
    ``len(frames) + k``. Episode i's sequence is the rows ``row_of[starts[i]
    : starts[i] + lengths[i]]`` (int32): the zero row (the criterion
    position), then per turn its token rows and its kept frame rows.
    :meth:`batch` gathers the sequences of any episodes into float64 rows;
    widening float32 to float64 is exact, so a batch holds the very values
    a float64 table would give.
    """

    frames: np.ndarray    # (F, d_in) float32: the zero row, then the kept frame rows
    tokens: np.ndarray    # (T, d_in) float64: the distinct token embeddings
    row_of: np.ndarray    # (P,) int32 row of each sequence position, episodes back to back
    lengths: np.ndarray   # (E,) sequence length of each episode, >= 1
    criteria: np.ndarray  # (E,) criterion-embedding row of each episode
    starts: np.ndarray = field(init=False)  # (E,) first position of each episode in row_of

    def __post_init__(self):
        self.starts = _segment_starts(self.lengths)

    def __len__(self) -> int:
        return int(self.lengths.size)

    @classmethod
    def build(cls, items: Iterable[tuple[Episode, Criterion]], cfg: ScorerConfig) -> "RowTable":
        """The table of ``items`` (each episode scored under its criterion),
        built in one pass: each turn's kept frame rows are copied into the
        frame table as the turn passes, so a stream of episodes is never
        held whole, and nothing but the table keeps their rows."""
        frames = array("f", bytes(4 * cfg.d_in))  # the zero row, then the kept frames of each turn
        n_rows = 1
        tokens: dict[str, int] = {}  # token -> its number among the distinct tokens
        row_of = array("i")  # a frame row, or ~k for the k-th distinct token
        lengths, criteria = array("q"), array("q")
        for ep, criterion in items:
            start = len(row_of)
            row_of.append(0)
            for turn in ep.turns:
                if turn.d_in != cfg.d_in:
                    raise ShapeMismatchError(f"turn features have d_in={turn.d_in}, config expects {cfg.d_in}")
                row_of.extend([~tokens.setdefault(tok, len(tokens)) for tok in tokenize(turn.transcript)])
                kept = turn.features[: cfg.max_frames_per_turn]
                frames.frombytes(kept.astype(np.float32, copy=False).tobytes())
                row_of.extend(range(n_rows, n_rows + len(kept)))
                n_rows += len(kept)
            lengths.append(len(row_of) - start)
            criteria.append(criterion.index)
        row_of = np.frombuffer(row_of, dtype=np.int32)
        token_rows = row_of < 0
        row_of[token_rows] = n_rows + ~row_of[token_rows]
        return cls(
            np.frombuffer(frames, dtype=np.float32).reshape(-1, cfg.d_in),
            np.array([token_embedding(tok, cfg.d_in) for tok in tokens]).reshape(-1, cfg.d_in),
            row_of,
            np.array(lengths, dtype=np.intp),
            np.array(criteria, dtype=np.intp),
        )

    def batch(self, index) -> EpisodeBatch:
        """The batch of episodes ``index`` (in that order; repeats allowed).

        One gather from the frame table (token rows clip to its last row),
        widened to float64; then the token positions are overwritten from
        the token table."""
        index = np.asarray(index, dtype=np.intp)
        lengths = self.lengths[index]
        positions = np.repeat(self.starts[index] - _segment_starts(lengths), lengths) + np.arange(int(lengths.sum()))
        rows = self.row_of[positions]
        n_frames = len(self.frames)
        x = self.frames.take(rows, axis=0, mode="clip").astype(np.float64)
        token_at = np.flatnonzero(rows >= n_frames)
        x[token_at] = self.tokens.take(rows[token_at] - n_frames, axis=0)
        return EpisodeBatch(x, lengths, self.criteria[index])


def pack_episodes(episodes: list[Episode], criteria: list[Criterion], cfg: ScorerConfig) -> EpisodeBatch:
    """Pack episodes (each scored under its criterion) into one batch, in order."""
    table = RowTable.build(zip(episodes, criteria, strict=True), cfg)
    return table.batch(np.arange(len(table)))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Activations:
    """Cached intermediates of one batched forward pass, consumed by backward_batch()."""

    batch: EpisodeBatch
    h: np.ndarray            # (R, d) encoded rows; criterion embeddings at batch.starts
    attention: np.ndarray | None  # (R,) attention-pooling weights; None for last and mean
    pooled: np.ndarray       # (B, d)
    a1: np.ndarray           # (B, head_hidden) head hidden activation
    r: np.ndarray            # (B,) rewards
    pooling: str             # the pooling mode that scored
    params: ScorerParams     # the params that scored; backward_batch() differentiates at them


def _encode(batch: EpisodeBatch, cfg: ScorerConfig, params: ScorerParams) -> np.ndarray:
    check_shapes(cfg, params)
    if batch.x.shape[1] != cfg.d_in:
        raise ShapeMismatchError(f"inputs have d_in={batch.x.shape[1]}, config expects {cfg.d_in}")
    h = batch.x @ params.w_enc.T
    h += params.b_enc
    np.tanh(h, out=h)
    h[batch.starts] = params.e_crit[batch.criteria]
    return h


def _segment_pool(
    h: np.ndarray, starts: np.ndarray, lengths: np.ndarray, mode: str, params: ScorerParams
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pool every segment of ``h`` to one row; also return the attention
    weights (None for last and mean pooling).

    last: the segment's last row. mean: the arithmetic mean of its rows.
    attention: softmax(H q / sqrt(d)) weights over its rows. With q = 0 the
    weights are exactly uniform, so attention pooling reproduces mean
    pooling bit for bit.
    """
    if mode == "last":
        return h[starts + lengths - 1], None
    if mode == "mean":
        return np.add.reduceat(h, starts, axis=0) / lengths[:, None], None
    if mode == "attention":
        z = h @ params.q / math.sqrt(h.shape[1])
        z -= np.repeat(np.maximum.reduceat(z, starts), lengths)
        e = np.exp(z, out=z)
        esum = np.add.reduceat(e, starts)
        pooled = np.add.reduceat(e[:, None] * h, starts, axis=0) / esum[:, None]
        return pooled, e / np.repeat(esum, lengths)
    raise ValueError(f"unknown pooling {mode!r}")


def score_batch(batch: EpisodeBatch, cfg: ScorerConfig, params: ScorerParams) -> Activations:
    """Rewards of every episode of ``batch`` (``.r``) in one forward pass.

    The encoder is one matmul over all rows, pooling reduces each segment,
    and the head runs on all pooled rows at once. Bitwise reproducible for
    the same params and batch composition; an episode scored in a batch of
    one and inside a larger batch agrees within 1e-15, not bitwise (the
    matmul kernels may sum in another order for another row count).
    """
    h = _encode(batch, cfg, params)
    pooled, attention = _segment_pool(h, batch.starts, batch.lengths, cfg.pooling, params)
    a1 = np.tanh(pooled @ params.w1.T + params.b1)
    r = a1 @ params.w2[0] + params.b2[0]
    return Activations(batch, h, attention, pooled, a1, r, cfg.pooling, params)


def score(
    episode: Episode, criterion: Criterion, cfg: ScorerConfig, params: ScorerParams
) -> tuple[float, Activations]:
    """Scalar reward for one episode under one criterion (a batch of one)."""
    acts = score_batch(pack_episodes([episode], [criterion], cfg), cfg, params)
    return float(acts.r[0]), acts


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward_batch(acts: Activations, upstream: np.ndarray) -> ScorerParams:
    """Exact gradients of sum_i upstream[i] * r_i w.r.t. every parameter
    tensor, taken at the params that scored ``acts`` (``acts.params``),
    under the pooling they were scored with (``acts.pooling``). The params
    are held, not copied: a caller moves on by making new params (as
    :func:`episcore.training.optimizer_step` does), never by writing into
    these ones between the two passes."""
    u = np.asarray(upstream, dtype=np.float64)
    batch, h, params = acts.batch, acts.h, acts.params
    starts, lengths = batch.starts, batch.lengths

    grads = zeros_like_params(params)

    # Head: r = w2 tanh(w1 p + b1) + b2
    du1 = np.outer(u, params.w2[0]) * (1.0 - acts.a1**2)
    dpooled = du1 @ params.w1
    grads.w1[...] = du1.T @ acts.pooled
    grads.b1[...] = du1.sum(axis=0)
    grads.w2[0] = u @ acts.a1
    grads.b2[0] = u.sum()

    # Pooling: each segment's upstream row is broadcast over its rows.
    if acts.pooling == "last":
        dh = np.zeros_like(h)
        dh[starts + lengths - 1] = dpooled
    elif acts.pooling == "mean":
        dh = np.repeat(dpooled / lengths[:, None], lengths, axis=0)
    else:
        # p = sum_i w_i h_i with w = softmax(z), z_i = h_i . q / sqrt(d).
        w = acts.attention
        scale = 1.0 / math.sqrt(h.shape[1])
        dh = np.repeat(dpooled, lengths, axis=0)
        dw = np.einsum("ij,ij->i", h, dh)
        dz = w * (dw - np.repeat(np.add.reduceat(w * dw, starts), lengths))
        dh *= w[:, None]
        dh += np.outer(dz, params.q) * scale
        grads.q[...] = scale * (dz @ h)

    # Criterion rows pass through the encoder unchanged.
    np.add.at(grads.e_crit, batch.criteria, dh[starts])

    # Body rows: h = tanh(w_enc x + b_enc). The derivative 1 - h^2 is
    # formed in one buffer: this is the largest temporary of a step.
    dtanh = np.square(h)
    np.subtract(1.0, dtanh, out=dtanh)
    dh *= dtanh
    dh[starts] = 0.0
    grads.w_enc[...] = dh.T @ batch.x
    grads.b_enc[...] = dh.sum(axis=0)
    return grads


def backward(acts: Activations, upstream: float) -> ScorerParams:
    """Exact gradients of (upstream * r) for the batch of one from :func:`score`."""
    return backward_batch(acts, np.full(acts.r.shape, float(upstream)))


# ---------------------------------------------------------------------------
# Checkpoint format: 5 little-endian uint64 header fields
# (version, d_in, d, head_hidden, pooling code), then ScorerParams.flat
# (every tensor in PARAM_FIELDS order, row-major) as little-endian float64.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<QQQQQ")


def check_storable(cfg: ScorerConfig) -> None:
    """BAD_CHECKPOINT unless ``cfg`` is what a checkpoint means: it stores no ``max_frames_per_turn``, so 60."""
    if cfg.max_frames_per_turn != ScorerConfig.max_frames_per_turn:
        raise CheckpointError(f"a checkpoint stores only max_frames_per_turn 60, not {cfg.max_frames_per_turn}")


def save_checkpoint(path: str | Path, cfg: ScorerConfig, params: ScorerParams) -> None:
    check_storable(cfg)
    check_shapes(cfg, params)
    header = _HEADER.pack(CHECKPOINT_VERSION, cfg.d_in, cfg.d, cfg.head_hidden, POOLING_MODES.index(cfg.pooling))
    _replace_file(path, [header, np.ascontiguousarray(params.flat, dtype="<f8")])


def load_checkpoint(path: str | Path) -> tuple[ScorerConfig, ScorerParams]:
    """Load a checkpoint; max_frames_per_turn is not serialized and is
    the default (:func:`check_storable`). Every malformed file raises BAD_CHECKPOINT."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"checkpoint {path} is truncated (no header)")
    version, d_in, d, head_hidden, pool_code = _HEADER.unpack_from(raw)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if pool_code >= len(POOLING_MODES):
        raise CheckpointError(f"unknown pooling code {pool_code}")
    try:
        cfg = ScorerConfig(
            d_in=int(d_in), d=int(d), pooling=POOLING_MODES[pool_code], head_hidden=int(head_hidden)
        )
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    shapes = param_shapes(cfg)
    size = _HEADER.size + 8 * _param_count(shapes)
    if len(raw) != size:
        raise CheckpointError(f"checkpoint {path} has {len(raw)} bytes, its header dimensions need {size}")
    flat = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    return cfg, ScorerParams(flat, shapes)


def params_dot(a: ScorerParams, b: ScorerParams) -> float:
    # Summed tensor by tensor, not as one vdot over ``flat``: the order of
    # the sum fixes the clip norm to the last bit.
    return float(sum(np.vdot(getattr(a, n), getattr(b, n)) for n in PARAM_FIELDS))


def params_norm(a: ScorerParams) -> float:
    return math.sqrt(params_dot(a, a))
