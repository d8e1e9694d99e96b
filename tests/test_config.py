"""Config files round-trip: a dataclass written as ``key = value`` lines
loads back through ``config.load`` as an equal dataclass."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from episcore import GroupingConfig, ScorerConfig, SynthConfig, TrainConfig
from episcore import config as configio
from episcore.episodes import SOURCE_TIERS
from episcore.scorer import POOLING_MODES

finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(1, 10**6)
fractions = st.floats(0.0, 1.0)


def _value(value) -> str:
    if isinstance(value, np.ndarray):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, tuple):
        return f"{value[0]},{value[1]}"
    return repr(value) if isinstance(value, float) else str(value)


def to_file(*configs) -> str:
    """The config file of ``configs``: every field but the seed, which
    comes from the command line."""
    lines = []
    for cfg in configs:
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if f.name == "seed":
                continue
            if f.name == "channel_offsets":
                lines += [f"{configio.CHANNEL_OFFSET_PREFIX}{tier} = {_value(v)}" for tier, v in value.items()]
            else:
                lines.append(f"{f.name} = {_value(value)}")
    return "".join(line + "\n" for line in lines)


def load_text(text: str, *classes, **fixed) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return configio.load(path, *classes, **fixed)


scorer_configs = st.builds(
    ScorerConfig, d_in=counts, d=counts, pooling=st.sampled_from(POOLING_MODES), head_hidden=counts,
    max_frames_per_turn=counts,
)
train_configs = st.builds(
    TrainConfig, total_steps=counts, lambda_center=st.floats(0.0, 1e300), peak_lr=finite, weight_decay=finite,
    warmup_frac=st.floats(0.0, 1.0, exclude_max=True), clip_norm=st.floats(1e-300, 1e300), batch_size=counts,
    seed=st.integers(0, 2**32 - 1), eval_every=counts,
)
grouping_configs = st.builds(
    GroupingConfig, min_interval_s=st.floats(0.0, 1e300), min_overlap_ratio=fractions,
    max_group_duration_s=st.floats(0.0, 1e300), max_secondary_speaker_frac=st.floats(0.0, 1e300),
)


@st.composite
def synth_configs(draw):
    d_in = draw(st.integers(1, 8))
    vectors = st.lists(finite, min_size=d_in, max_size=d_in).map(np.array)
    lo = draw(st.integers(1, 8))
    turns = sorted(draw(st.lists(st.sampled_from(range(2, 17, 2)), min_size=2, max_size=2)))
    words = sorted(draw(st.lists(st.integers(0, 20), min_size=2, max_size=2)))
    return SynthConfig(
        d_in=d_in,
        signature=draw(vectors),
        channel_offsets=draw(st.dictionaries(st.sampled_from(SOURCE_TIERS), vectors)),
        noise_std=draw(st.floats(0.0, 1e300)),
        frames_per_turn=(lo, draw(st.integers(lo, 16))),
        turns=tuple(turns),
        words_per_turn=tuple(words),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@given(scorer_configs, train_configs)
@settings(max_examples=100, deadline=None)
def test_train_config_round_trips(scorer_cfg, train_cfg):
    assert load_text(to_file(scorer_cfg, train_cfg), ScorerConfig, TrainConfig, seed=train_cfg.seed) == (
        scorer_cfg, train_cfg
    )


@given(grouping_configs)
@settings(max_examples=100, deadline=None)
def test_grouping_config_round_trips(cfg):
    assert load_text(to_file(cfg), GroupingConfig) == (cfg,)


@given(synth_configs())
@settings(max_examples=100, deadline=None)
def test_synth_config_round_trips(cfg):
    (back,) = load_text(to_file(cfg), SynthConfig, seed=cfg.seed)
    for f in dataclasses.fields(SynthConfig):
        want, got = getattr(cfg, f.name), getattr(back, f.name)
        if f.name == "channel_offsets":
            assert list(got) == list(want)
            assert all(np.array_equal(got[tier], want[tier]) for tier in want)
        elif f.name == "signature":
            assert np.array_equal(got, want)
        else:
            assert got == want, f.name
