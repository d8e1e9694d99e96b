"""The batched scorer against the batch-of-one path, and the batched loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import episcore.scorer as sc
from episcore import Criterion, Episode, ScorerConfig, Turn, init_params, synth_config, synth_pairs, total_loss
from episcore.gradcheck import relative_error
from episcore.training import SCORE_CHUNK, evaluate_loss, pack_pairs, pair_chunks, score_pairs, take_pairs

VOCAB = ["yeah", "so", "okay", "right", "well", "um"]


@st.composite
def ragged_batches(draw):
    """Episodes of 0-4 turns, 1-6 frames per turn (truncated above
    max_frames_per_turn), 0-3 words per turn, each under a drawn criterion."""
    d_in = draw(st.integers(1, 5))
    max_frames = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    episodes, criteria = [], []
    for _ in range(draw(st.integers(1, 6))):
        turns = []
        for t in range(draw(st.integers(0, 4))):
            words = " ".join(draw(st.lists(st.sampled_from(VOCAB), max_size=3)))
            n_frames = draw(st.integers(1, 6))
            turns.append(Turn(f"spk-{t % 2}", words, 1.0, rng.standard_normal((n_frames, d_in))))
        episodes.append(Episode("ep", turns, "wild"))
        criteria.append(draw(st.sampled_from(list(Criterion))))
    return d_in, max_frames, episodes, criteria, rng.standard_normal(len(episodes))


@given(ragged_batches(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_scores_and_gradients_match_batch_of_one(case, seed):
    d_in, max_frames, episodes, criteria, upstream = case
    for mode in sc.POOLING_MODES:
        cfg = ScorerConfig(d_in=d_in, d=5, pooling=mode, head_hidden=4, max_frames_per_turn=max_frames)
        params = init_params(cfg, seed=seed)
        acts = sc.score_batch(sc.pack_episodes(episodes, criteria, cfg), cfg, params)
        grads = sc.backward_batch(acts, upstream, cfg, params)
        singles = []
        for ep, crit, u, r in zip(episodes, criteria, upstream, acts.r):
            r1, acts1 = sc.score(ep, crit, cfg, params)
            assert abs(r - r1) <= 1e-15
            singles.append(sc.backward(acts1, u, cfg, params))
        for name in sc.PARAM_FIELDS:
            want = sum(getattr(g, name) for g in singles)
            np.testing.assert_allclose(getattr(grads, name), want, rtol=0, atol=1e-12, err_msg=name)


def test_take_gathers_the_same_rows_as_packing_those_episodes():
    pairs = synth_pairs(synth_config(seed=3), 5)
    cfg = ScorerConfig(d_in=8, max_frames_per_turn=5)
    taken = take_pairs(pack_pairs(pairs, cfg), [3, 0, 3])
    packed = pack_pairs([pairs[3], pairs[0], pairs[3]], cfg)
    for field in ("x", "starts", "lengths", "criteria"):
        assert np.array_equal(getattr(taken, field), getattr(packed, field)), field


def test_take_composes_and_starts_derive_from_lengths():
    pairs = synth_pairs(synth_config(seed=3), 5)
    cfg = ScorerConfig(d_in=8, max_frames_per_turn=5)
    packed = sc.pack_episodes([p.chosen for p in pairs], [p.criterion for p in pairs], cfg)
    twice = packed.take([4, 1, 3, 0]).take([2, 0, 2, 1])
    once = packed.take([3, 4, 3, 1])
    for field in ("x", "starts", "lengths", "criteria"):
        assert np.array_equal(getattr(twice, field), getattr(once, field)), field
    for batch in (packed, twice):
        assert np.array_equal(batch.starts, np.cumsum(batch.lengths) - batch.lengths)


def test_packing_no_episodes_gives_an_empty_batch():
    batch = sc.pack_episodes([], [], ScorerConfig(d_in=6))
    assert len(batch) == 0 and batch.x.shape == (0, 6)


@pytest.mark.parametrize("mode", sc.POOLING_MODES)
def test_loss_gradients_of_a_gathered_batch_match_finite_differences(mode):
    cfg = ScorerConfig(d_in=8, d=3, pooling=mode, head_hidden=3)
    params = init_params(cfg, seed=6)
    pairs = synth_pairs(synth_config(seed=12), 6)
    batch = take_pairs(pack_pairs(pairs, cfg), [4, 1, 5])
    assert len(set(batch.criteria.tolist())) == 2
    out = total_loss(batch, cfg, params, lambda_center=0.1)
    h = 1e-5
    for name in sc.PARAM_FIELDS:
        flat = getattr(params, name).reshape(-1)
        analytic = getattr(out.grads, name).reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = total_loss(batch, cfg, params, lambda_center=0.1).value
            flat[i] = original - h
            down = total_loss(batch, cfg, params, lambda_center=0.1).value
            flat[i] = original
            assert relative_error(analytic[i], (up - down) / (2 * h)) < 1e-4, name


@pytest.mark.parametrize("mode", sc.POOLING_MODES)
def test_same_batch_composition_gives_bitwise_identical_loss(mode):
    cfg = ScorerConfig(d_in=8, pooling=mode)
    params = init_params(cfg, seed=2)
    pairs = synth_pairs(synth_config(seed=4), 9)
    a = total_loss(pack_pairs(pairs[2:7], cfg), cfg, params)
    b = total_loss(take_pairs(pack_pairs(pairs, cfg), range(2, 7)), cfg, params)
    assert (a.value, a.loss_pref, a.loss_center) == (b.value, b.loss_pref, b.loss_center)
    assert np.array_equal(a.r_chosen, b.r_chosen) and np.array_equal(a.r_rejected, b.r_rejected)
    for name in sc.PARAM_FIELDS:
        assert np.array_equal(getattr(a.grads, name), getattr(b.grads, name)), name


@pytest.mark.parametrize("n_pairs", [1, 7, SCORE_CHUNK])
def test_validation_loss_of_one_chunk_is_the_trained_loss_bitwise(n_pairs):
    cfg = ScorerConfig(d_in=8, pooling="attention")
    params = init_params(cfg, seed=3)
    pairs = synth_pairs(synth_config(seed=6), n_pairs)
    val_loss, _ = evaluate_loss(pair_chunks(pairs, cfg), cfg, params, 0.1)
    assert val_loss == total_loss(pack_pairs(pairs, cfg), cfg, params, lambda_center=0.1).value


def test_scoring_a_list_and_its_pack_agree_bitwise():
    # The chunks of a list, packed one at a time (``episcore score``), and
    # the same chunks gathered from one pack of the whole list: same bits.
    cfg = ScorerConfig(d_in=8, pooling="attention")
    params = init_params(cfg, seed=2)
    pairs = synth_pairs(synth_config(seed=5), 70)  # three chunks, the last one partial
    packed = pack_pairs(pairs, cfg)
    gathered = (take_pairs(packed, range(lo, min(lo + SCORE_CHUNK, 70))) for lo in range(0, 70, SCORE_CHUNK))
    from_list = score_pairs(pair_chunks(pairs, cfg), cfg, params)
    from_pack = score_pairs(gathered, cfg, params)
    assert all(np.array_equal(a, b) for a, b in zip(from_list, from_pack))
    assert from_list[0].shape == (70,)
    assert [len(chunk) // 2 for chunk in pair_chunks(pairs, cfg)] == [32, 32, 6]
