import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import episcore.scorer as sc
from episcore import Criterion, Episode, ScorerConfig, Turn, init_params, score
from episcore.errors import CheckpointError, ShapeMismatchError
from episcore.scorer import load_checkpoint, save_checkpoint, zeros_like_params

from conftest import make_episode, make_turn, oracle_pool, sequence_oracle

D_IN = 4


def one_turn_episode(n_frames=3, transcript="hello there", d_in=D_IN):
    return Episode("ep", [make_turn(transcript=transcript, n_frames=n_frames, d_in=d_in)], "wild")


class TestLayout:
    def test_sequence_length_formula(self):
        # 1 criterion row + 3 text tokens + 3 audio frames. The batch holds
        # the criterion and frame rows, a token used once as a row, and a
        # token used twice once, with its count.
        cfg = ScorerConfig(d_in=D_IN)
        params = init_params(cfg, seed=0)
        ep = one_turn_episode(transcript="hello there hello")
        r, acts = score(ep, Criterion.MODALITY, cfg, params)
        x, h, _, want = sequence_oracle(ep, Criterion.MODALITY, cfg, params)
        assert x.shape == (7, D_IN) and h.shape == (7, cfg.d)
        assert acts.batch.lengths.tolist() == [7] and acts.h.shape == (5, cfg.d)
        assert acts.batch.rows.tolist() == [5]
        assert acts.batch.counts.tolist() == [[2.0]] and acts.ht.shape == (1, cfg.d)
        assert r == pytest.approx(want, rel=0, abs=1e-15)

    def test_per_turn_truncation(self):
        cfg = ScorerConfig(d_in=D_IN, max_frames_per_turn=2)
        params = init_params(cfg, seed=0)
        r, acts = score(one_turn_episode(n_frames=9), Criterion.MODALITY, cfg, params)
        x, _, _, want = sequence_oracle(one_turn_episode(n_frames=9), Criterion.MODALITY, cfg, params)
        assert len(x) == acts.batch.lengths[0] == 1 + 2 + 2
        assert acts.batch.rows[0] == acts.h.shape[0] == 1 + 2 + 2
        assert r == pytest.approx(want, rel=0, abs=1e-15)

    def test_text_tokens_precede_audio_within_a_turn(self):
        cfg = ScorerConfig(d_in=D_IN)
        x = sc.episode_input_matrix(one_turn_episode(n_frames=2, transcript="yeah"), cfg)
        assert np.array_equal(x[0], sc.token_embedding("yeah", D_IN))
        assert np.array_equal(x[1:], np.full((2, D_IN), 0.5))

    def test_tokens_fold_case(self):
        assert np.array_equal(sc.token_embedding("YeAh", D_IN), sc.token_embedding("YeAh", D_IN))
        assert sc.tokenize("YeAh OKAY") == ["yeah", "okay"]

    def test_criterion_row_passes_through_unencoded(self):
        cfg = ScorerConfig(d_in=D_IN)
        params = init_params(cfg, seed=0)
        h = score(one_turn_episode(), Criterion.MODALITY, cfg, params)[1].h
        assert np.array_equal(h[0], params.e_crit[0])

    def test_zero_frame_encodes_to_tanh_bias(self):
        cfg = ScorerConfig(d_in=D_IN)
        params = init_params(cfg, seed=0)
        params.b_enc[...] = 0.3
        ep = Episode("ep", [Turn("spk-a", "", 1.0, np.zeros((1, D_IN), dtype=np.float32))], "wild")
        h = score(ep, Criterion.MODALITY, cfg, params)[1].h
        assert np.allclose(h[1], np.tanh(params.b_enc), rtol=0, atol=0)

    def test_criterion_swap_changes_only_row_zero(self):
        cfg = ScorerConfig(d_in=D_IN)
        params = init_params(cfg, seed=0)
        ep = make_episode(4)
        ha = sequence_oracle(ep, Criterion.MODALITY, cfg, params)[1]
        hb = sequence_oracle(ep, Criterion.COLLOQUIALNESS, cfg, params)[1]
        assert not np.array_equal(ha[0], hb[0])
        assert np.array_equal(ha[1:], hb[1:])
        acts_a = score(ep, Criterion.MODALITY, cfg, params)[1]
        acts_b = score(ep, Criterion.COLLOQUIALNESS, cfg, params)[1]
        assert np.array_equal(acts_a.h[0], ha[0]) and np.array_equal(acts_b.h[0], hb[0])
        assert np.array_equal(acts_a.h[1:], acts_b.h[1:]) and np.array_equal(acts_a.ht, acts_b.ht)

    def test_d_in_mismatch_raises(self):
        cfg = ScorerConfig(d_in=D_IN + 1)
        params = init_params(cfg, seed=0)
        with pytest.raises(ShapeMismatchError):
            score(make_episode(2), Criterion.MODALITY, cfg, params)

    def test_params_of_another_config_raise(self):
        params = init_params(ScorerConfig(d_in=D_IN, d=6), seed=0)
        with pytest.raises(ShapeMismatchError, match="config expects"):
            score(make_episode(2), Criterion.MODALITY, ScorerConfig(d_in=D_IN), params)


def pool_one(h, mode, params, ht=None, counts=()):
    """Pool the rows of ``h`` and the token rows ``ht``, token t
    ``counts[t]`` times, as one sequence."""
    ht = np.zeros((0, h.shape[1])) if ht is None else np.asarray(ht, dtype=float)
    counts = np.array([counts], dtype=float).reshape(1, len(ht))
    n = np.array([len(h)])
    batch = sc.EpisodeBatch(np.zeros((len(h), 1)), n, ht, counts, n + int(counts.sum()), np.array([0]))
    pooled, _ = sc._pool(h, ht, batch, mode, params)
    return pooled[0]


class TestPool:
    def test_mean_of_two_rows(self):
        params = init_params(ScorerConfig(d_in=1, d=1), seed=0)
        assert pool_one(np.array([[1.0], [3.0]]), "mean", params) == np.array([2.0])
        assert pool_one(np.array([[1.0]]), "mean", params, ht=[[3.0]], counts=[1]) == np.array([2.0])
        assert pool_one(np.array([[1.0]]), "mean", params, ht=[[3.0], [4.0]], counts=[2, 0]) == np.array([7.0 / 3.0])

    def test_last_takes_last_unmasked(self):
        params = init_params(ScorerConfig(d_in=1, d=1), seed=0)
        assert pool_one(np.array([[1.0], [3.0], [9.0]]), "last", params) == np.array([9.0])
        # A sequence's last row is a frame row, never a token row.
        assert pool_one(np.array([[1.0], [9.0]]), "last", params, ht=[[3.0]], counts=[2]) == np.array([9.0])

    @pytest.mark.parametrize("mode", ["mean", "attention"])
    def test_token_counts_pool_as_the_whole_sequence_does(self, mode):
        params = init_params(ScorerConfig(d_in=D_IN), seed=1)
        rng = np.random.default_rng(4)
        h, ht = rng.standard_normal((3, params.q.size)), rng.standard_normal((3, params.q.size))
        counts = [2, 0, 3]
        sequence = [h[0], ht[0], h[1], ht[2], ht[0], ht[2], ht[2], h[2]]
        want = oracle_pool(sequence, mode, params.q)
        np.testing.assert_allclose(pool_one(h, mode, params, ht, counts), want, rtol=0, atol=1e-15)

    def test_attention_with_zero_query_equals_mean_bitwise(self):
        params = init_params(ScorerConfig(d_in=D_IN), seed=1)
        params.q[...] = 0.0
        # Repeated tokens are counted, a token used once in the batch is a row.
        episodes, criteria = [make_episode(4), one_turn_episode(transcript="so so well")], list(Criterion)
        batch = sc.pack_episodes(episodes, criteria, ScorerConfig(d_in=D_IN))
        assert batch.counts.any() and any(np.array_equal(row, sc.token_embedding("well", D_IN)) for row in batch.x)
        pooled = {
            mode: sc.score_batch(batch, ScorerConfig(d_in=D_IN, pooling=mode), params).pooled
            for mode in ("attention", "mean")
        }
        assert np.array_equal(pooled["attention"], pooled["mean"])

    def test_single_unmasked_row_identical_across_modes(self):
        cfg = ScorerConfig(d_in=D_IN)
        params = init_params(cfg, seed=1)
        h = np.random.default_rng(0).standard_normal((1, cfg.d))
        for mode in sc.POOLING_MODES:
            assert np.array_equal(pool_one(h, mode, params), h[0])


class TestScore:
    def test_zero_params_score_zero(self):
        cfg = ScorerConfig(d_in=D_IN)
        params = zeros_like_params(init_params(cfg, seed=0))
        r, _ = score(make_episode(2), Criterion.MODALITY, cfg, params)
        assert r == 0.0

    def test_head_output_scales_with_w2(self):
        cfg = ScorerConfig(d_in=D_IN)
        params = init_params(cfg, seed=3)
        params.b2[...] = 0.0
        r1, _ = score(make_episode(2), Criterion.MODALITY, cfg, params)
        params2 = sc.clone_params(params)
        params2.w2 *= 2.5
        r2, _ = score(make_episode(2), Criterion.MODALITY, cfg, params2)
        assert np.isclose(r2, 2.5 * r1, rtol=1e-15)

    def test_scoring_is_deterministic(self):
        cfg = ScorerConfig(d_in=D_IN, pooling="attention")
        params = init_params(cfg, seed=3)
        ep = make_episode(4)
        r1, _ = score(ep, Criterion.MODALITY, cfg, params)
        r2, _ = score(ep, Criterion.MODALITY, cfg, params)
        assert r1 == r2

    @pytest.mark.parametrize("mode", sc.POOLING_MODES)
    def test_episodes_with_no_turns_or_no_words_score_as_the_oracle(self, mode):
        cfg = ScorerConfig(d_in=D_IN, pooling=mode)
        params = init_params(cfg, seed=4)
        episodes = [Episode("none", [], "wild"), make_episode(2), one_turn_episode(transcript="")]
        acts = sc.score_batch(sc.pack_episodes(episodes, [Criterion.MODALITY] * 3, cfg), cfg, params)
        want = [sequence_oracle(ep, Criterion.MODALITY, cfg, params)[3] for ep in episodes]
        np.testing.assert_allclose(acts.r, want, rtol=0, atol=1e-15)
        assert np.isfinite(sc.backward_batch(acts, np.ones(3)).flat).all()

    def test_golden_values_pinned(self):
        # Frozen regression fixture: synthetic episode seed 123, params seed 77.
        import episcore as ec

        pair = ec.synth_pairs(ec.synth_config(seed=123), 1)[0]
        params = init_params(ScorerConfig(d_in=8, d=12, head_hidden=10), seed=77)
        expected = {
            "attention": 0.14990656353747547,
            "mean": 0.1441165350166444,
            "last": 0.31285841889258015,
        }
        for mode, want in expected.items():
            cfg = ScorerConfig(d_in=8, d=12, head_hidden=10, pooling=mode)
            r, _ = score(pair.chosen, pair.criterion, cfg, params)
            assert r == pytest.approx(want, rel=0, abs=1e-15)

    def test_criterion_swap_moves_pooled_vector_by_rank_one(self):
        # Under mean pooling the swap shifts the pooled vector by exactly
        # (E[a] - E[b]) / L (up to float summation order).
        cfg = ScorerConfig(d_in=D_IN)
        params = init_params(cfg, seed=5)
        ep = make_episode(4)
        _, acts_a = score(ep, Criterion.MODALITY, cfg, params)
        _, acts_b = score(ep, Criterion.COLLOQUIALNESS, cfg, params)
        L = len(sequence_oracle(ep, Criterion.MODALITY, cfg, params)[0])
        assert L == acts_a.batch.lengths[0] == 1 + 4 * (2 + 3)
        want = (params.e_crit[0] - params.e_crit[1]) / L
        assert np.allclose(acts_a.pooled - acts_b.pooled, want, rtol=0, atol=1e-12)


class TestSameBits:
    """Faster forms of the scorer's arithmetic against the calls they replaced."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 5000), width=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_einsum_column_sums_are_axis_0_sums_bit_for_bit_from_width_2(self, rows, width, seed):
        # Width 1 is not covered: sum(axis=0) then sums one contiguous run pairwise.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, width)) * np.exp(rng.uniform(-30, 30, width))
        x[:, rng.integers(0, width)] = -0.0
        assert np.einsum("ij->j", x).tobytes() == x.sum(axis=0).tobytes()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = ScorerConfig(d_in=5, d=7, pooling="attention", head_hidden=3)
        params = init_params(cfg, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params)
        cfg2, params2 = load_checkpoint(path)
        assert (cfg2.d_in, cfg2.d, cfg2.head_hidden, cfg2.pooling) == (5, 7, 3, "attention")
        for name, tensor in params.tensors():
            assert np.array_equal(tensor, getattr(params2, name))

    @settings(max_examples=60, deadline=None)
    @given(
        d_in=st.integers(1, 9),
        d=st.integers(1, 9),
        head_hidden=st.integers(1, 9),
        pooling=st.sampled_from(sc.POOLING_MODES),
        data=st.data(),
    )
    def test_round_trip_property(self, d_in, d, head_hidden, pooling, data):
        cfg = ScorerConfig(d_in=d_in, d=d, head_hidden=head_hidden, pooling=pooling)
        params = init_params(cfg, seed=0)
        # Any float64 bits survive, NaN payloads and signed zeros included.
        params.flat[...] = data.draw(arrays(np.float64, params.flat.size, elements=st.floats(width=64)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, cfg, params)
            raw = path.read_bytes()
            cfg2, params2 = load_checkpoint(path)
        header = struct.pack("<5Q", 1, d_in, d, head_hidden, {"last": 0, "mean": 1, "attention": 2}[pooling])
        assert raw == header + params.flat.astype("<f8").tobytes()
        assert (cfg2.d_in, cfg2.d, cfg2.head_hidden, cfg2.pooling) == (d_in, d, head_hidden, pooling)
        assert params2.flat.tobytes() == params.flat.tobytes()
        for name, tensor in params2.tensors():
            assert np.shares_memory(tensor, params2.flat) and tensor.shape == getattr(params, name).shape

    def test_a_config_that_version_1_cannot_store_is_refused_before_writing(self, tmp_path):
        cfg = ScorerConfig(d_in=8, max_frames_per_turn=2)
        with pytest.raises(CheckpointError, match="max_frames_per_turn 60, not 2"):
            save_checkpoint(tmp_path / "model.ckpt", cfg, init_params(cfg, seed=0))
        assert not any(tmp_path.iterdir())

    @pytest.mark.xfail(strict=True, reason="checkpoint version 1 does not store max_frames_per_turn")
    @pytest.mark.parametrize("pooling", sc.POOLING_MODES)
    def test_round_trip_keeps_max_frames_per_turn(self, tmp_path, pooling):
        cfg = ScorerConfig(d_in=8, pooling=pooling, max_frames_per_turn=2)
        save_checkpoint(tmp_path / "model.ckpt", cfg, init_params(cfg, seed=0))
        assert load_checkpoint(tmp_path / "model.ckpt")[0] == cfg

    def test_truncated_checkpoint_rejected(self, tmp_path):
        cfg = ScorerConfig(d_in=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, seed=0))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw[:20],  # truncated header
            lambda raw: raw[:-8],  # truncated tensor
            lambda raw: bytes([99]) + raw[1:],  # version
            lambda raw: raw[:32] + bytes([7]) + raw[33:],  # pooling code
            lambda raw: raw[:8] + bytes(8) + raw[16:],  # d_in = 0
            lambda raw: raw + bytes(8),  # trailing bytes
        ],
    )
    def test_malformed_checkpoint_raises_coded_error(self, tmp_path, corrupt):
        cfg = ScorerConfig(d_in=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, seed=0))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert exc.value.code == "BAD_CHECKPOINT"

    def test_bad_version_rejected(self, tmp_path):
        cfg = ScorerConfig(d_in=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, init_params(cfg, seed=0))
        raw = bytearray(path.read_bytes())
        raw[0] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(path)
