import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import episcore.scorer as sc
from episcore import (
    ScorerConfig,
    TrainConfig,
    bt_loss,
    center_loss,
    clip_gradients,
    init_params,
    lr_at_step,
    optimizer_step,
    synth_config,
    synth_pairs,
    total_loss,
    train,
)
from episcore.errors import CheckpointError, EmptyBatchError
from episcore.gradcheck import relative_error
from episcore.training import (
    AdamState, _objective, _sigmoid, evaluate_loss, pair_batch, pair_table, score_pairs, warmup_steps,
)

finite_scores = st.floats(min_value=-50, max_value=50, allow_nan=False)


def softplus_oracle(x: float) -> float:
    mpmath.mp.dps = 60
    return float(mpmath.log(1 + mpmath.exp(mpmath.mpf(x))))


class TestBtLoss:
    def test_symmetric_zero_scores(self):
        assert bt_loss(0.0, 0.0) == pytest.approx(math.log(2), rel=0, abs=1e-12)

    def test_unit_margin_matches_high_precision_oracle(self):
        assert bt_loss(1.0, -1.0) == pytest.approx(softplus_oracle(-2.0), rel=1e-14)

    def test_wide_margin_neither_overflows_nor_underflows(self):
        value = bt_loss(10.0, -10.0)
        assert value > 0.0
        assert value == pytest.approx(softplus_oracle(-20.0), rel=1e-12)
        # the mirrored ordering must not overflow either
        assert math.isfinite(bt_loss(-400.0, 400.0))

    def test_vectorized_form_matches_scalar(self):
        a = np.array([0.0, 1.0, 10.0])
        b = np.array([0.0, -1.0, -10.0])
        out = bt_loss(a, b)
        assert np.allclose(out, [bt_loss(x, y) for x, y in zip(a, b)], rtol=0, atol=0)

    @given(finite_scores, finite_scores)
    @settings(max_examples=200, deadline=None)
    def test_convexity_bound(self, a, b):
        total = bt_loss(a, b) + bt_loss(b, a)
        assert total >= 2 * math.log(2) - 1e-12
        if a == b:
            assert total == pytest.approx(2 * math.log(2), rel=0, abs=1e-12)

    @given(finite_scores, finite_scores, st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, a, b, c):
        assert bt_loss(a + c, b + c) == pytest.approx(bt_loss(a, b), rel=1e-9, abs=1e-12)

    @given(finite_scores, finite_scores, st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_center_loss_is_not_shift_invariant(self, a, b, c):
        # Complements shift invariance of bt_loss: shifting both scores by c
        # moves the squared sum by 4c(a + b + c), so any shift with
        # c(a + b + c) bounded away from zero must change the value.
        shift_effect = 4.0 * c * (a + b + c)
        if abs(shift_effect) > 1e-6:
            assert abs(center_loss(a + c, b + c) - center_loss(a, b)) > 1e-8


class TestCenterLoss:
    def test_antisymmetric_pair_is_zero(self):
        assert center_loss(1.0, -1.0) == 0.0

    def test_direct_square(self):
        assert center_loss(2.0, 3.0) == 25.0

    def test_batch_mean(self):
        values = center_loss(np.array([1.0, 2.0]), np.array([-1.0, 3.0]))
        assert float(np.mean(values)) == 12.5


class TestTotalLoss:
    def test_zero_lambda_reduces_to_mean_bt(self, tiny_pair):
        cfg = ScorerConfig(d_in=4)
        params = init_params(cfg, seed=0)
        out = total_loss(pair_batch(pair_table([tiny_pair], cfg), [0]), cfg, params, lambda_center=0.0)
        assert out.value == out.loss_pref

    def test_zero_params_gives_ln2(self, tiny_pair):
        cfg = ScorerConfig(d_in=4)
        params = sc.zeros_like_params(init_params(cfg, seed=0))
        out = total_loss(pair_batch(pair_table([tiny_pair], cfg), [0]), cfg, params, lambda_center=1e-2)
        assert out.value == pytest.approx(math.log(2), rel=0, abs=1e-12)
        assert out.loss_center == 0.0

    def test_empty_batch_raises(self):
        cfg = ScorerConfig(d_in=4)
        with pytest.raises(EmptyBatchError):
            total_loss(pair_batch(pair_table([], cfg), []), cfg, init_params(cfg, seed=0))

    @pytest.mark.parametrize("mode", sc.POOLING_MODES)
    def test_loss_gradients_match_finite_differences(self, mode):
        cfg = ScorerConfig(d_in=8, d=6, pooling=mode, head_hidden=5)
        params = init_params(cfg, seed=4)
        batch = pair_batch(pair_table(synth_pairs(synth_config(seed=9), 3), cfg), range(3))
        out = total_loss(batch, cfg, params, lambda_center=1e-2)
        h = 1e-5
        for name in sc.PARAM_FIELDS:
            tensor = getattr(params, name)
            analytic = getattr(out.grads, name)
            flat = tensor.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                up = total_loss(batch, cfg, params, lambda_center=1e-2).value
                flat[i] = original - h
                down = total_loss(batch, cfg, params, lambda_center=1e-2).value
                flat[i] = original
                fd = (up - down) / (2 * h)
                assert relative_error(analytic.reshape(-1)[i], fd) < 1e-4, name


class TestSameBits:
    """Faster forms of the loss arithmetic against the calls they replaced."""

    @staticmethod
    def four_mask_sigmoid(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        out[~pos] = e / (1.0 + e)
        return out

    @given(arrays(np.float64, st.integers(0, 300), elements=st.floats(width=64)))
    @example(np.array([0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 710.0, -710.0, 1e308, -1e308, 5e-324, -5e-324]))
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_is_the_four_mask_form_bit_for_bit(self, x):
        got, want = _sigmoid(x), self.four_mask_sigmoid(x)
        nan = np.isnan(want)  # a NaN in is a NaN out; its payload is not part of the claim
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @given(st.integers(1, 5000), st.integers(0, 2**32 - 1), st.floats(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_means_are_sums_over_n_bit_for_bit(self, n, seed, lambda_center):
        rng = np.random.default_rng(seed)
        rc, rr = rng.standard_normal((2, n)) * np.exp(rng.uniform(-30, 30, (2, 1)))
        assert (rc.sum() / n).tobytes() == np.mean(rc).tobytes()
        loss_pref, loss_center = float(np.mean(bt_loss(rc, rr))), float(np.mean(center_loss(rc, rr)))
        assert _objective(rc, rr, lambda_center) == (loss_pref + lambda_center * loss_center, loss_pref, loss_center)


class TestSchedule:
    def test_peak_at_warmup_end(self):
        cfg = TrainConfig(total_steps=1000, warmup_frac=0.15, peak_lr=1e-3)
        assert lr_at_step(warmup_steps(cfg), cfg) == cfg.peak_lr

    def test_zero_at_final_step(self):
        cfg = TrainConfig(total_steps=1000)
        assert lr_at_step(1000, cfg) == 0.0

    def test_warmup_is_linear(self):
        cfg = TrainConfig(total_steps=1000, warmup_frac=0.10, peak_lr=2e-3)
        wu = warmup_steps(cfg)
        for step in (1, wu // 2, wu):
            assert lr_at_step(step, cfg) == pytest.approx(cfg.peak_lr * step / wu)

    def test_cosine_decreases_after_warmup(self):
        cfg = TrainConfig(total_steps=200, warmup_frac=0.15)
        wu = warmup_steps(cfg)
        lrs = [lr_at_step(s, cfg) for s in range(wu, 201)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestClipping:
    def test_norm_ten_clips_to_one(self):
        cfg = ScorerConfig(d_in=4)
        grads = sc.zeros_like_params(init_params(cfg, seed=0))
        grads.w_enc[0, 0] = 10.0
        clipped, preclip = clip_gradients(grads, 1.0)
        assert preclip == pytest.approx(10.0)
        assert sc.params_norm(clipped) == pytest.approx(1.0)

    def test_direction_preserved(self):
        cfg = ScorerConfig(d_in=4)
        grads = sc.clone_params(init_params(cfg, seed=2))
        clipped, preclip = clip_gradients(grads, 0.5)
        cos = sc.params_dot(clipped, grads) / (sc.params_norm(clipped) * sc.params_norm(grads))
        assert cos == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_small_gradients_untouched(self):
        cfg = ScorerConfig(d_in=4)
        grads = sc.zeros_like_params(init_params(cfg, seed=0))
        grads.b2[0] = 0.25
        clipped, preclip = clip_gradients(grads, 1.0)
        assert preclip == 0.25
        assert clipped is grads


class TestOptimizerStep:
    def test_first_step_matches_hand_derivation(self):
        cfg = ScorerConfig(d_in=1, d=1, head_hidden=1)
        train_cfg = TrainConfig(total_steps=10, warmup_frac=0.0, peak_lr=1e-2, weight_decay=0.1, clip_norm=100.0)
        params = sc.zeros_like_params(init_params(cfg, seed=0))
        params.b2[0] = 1.0
        grads = sc.zeros_like_params(params)
        grads.b2[0] = 0.5
        state = AdamState.init(params)
        new = optimizer_step(params, grads, state, train_cfg, lr=lr_at_step(5, train_cfg))
        lr = lr_at_step(5, train_cfg)
        # bias-corrected first/second moments on step one equal the gradient
        expected = 1.0 - lr * (0.5 / (0.5 + 1e-8)) - lr * 0.1 * 1.0
        assert new.b2[0] == pytest.approx(expected, rel=1e-12)

    def test_weight_decay_is_decoupled(self):
        cfg = ScorerConfig(d_in=1, d=1, head_hidden=1)
        train_cfg = TrainConfig(total_steps=10, warmup_frac=0.0, peak_lr=1e-2, weight_decay=0.5, clip_norm=100.0)
        params = sc.zeros_like_params(init_params(cfg, seed=0))
        params.w1[0, 0] = 2.0
        grads = sc.zeros_like_params(params)  # zero gradient: only decay acts
        state = AdamState.init(params)
        new = optimizer_step(params, grads, state, train_cfg, lr=lr_at_step(1, train_cfg))
        assert new.w1[0, 0] == pytest.approx(2.0 * (1.0 - lr_at_step(1, train_cfg) * 0.5))


class TestTrainLoop:
    def _tiny_sets(self):
        cfg = synth_config(seed=31)
        train_pairs = synth_pairs(cfg, 48, split="train")
        val_pairs = synth_pairs(dataclasses.replace(cfg, seed=32, signature=cfg.signature.copy()), 16, split="val")
        return train_pairs, val_pairs

    def test_same_seed_gives_identical_history(self):
        train_pairs, val_pairs = self._tiny_sets()
        scfg = ScorerConfig(d_in=8, d=8, head_hidden=8)
        tcfg = TrainConfig(total_steps=30, eval_every=10, batch_size=16, seed=5)
        h1 = train(train_pairs, val_pairs, scfg, tcfg).history
        h2 = train(train_pairs, val_pairs, scfg, tcfg).history
        assert h1 == h2

    def test_report_total_is_pref_plus_lambda_center(self):
        train_pairs, val_pairs = self._tiny_sets()
        scfg = ScorerConfig(d_in=8, d=8, head_hidden=8)
        tcfg = TrainConfig(total_steps=10, eval_every=5, batch_size=16, seed=5, lambda_center=1e-2)
        for report in train(train_pairs, val_pairs, scfg, tcfg).history:
            assert report.loss_total == pytest.approx(
                report.loss_pref + tcfg.lambda_center * report.loss_center, rel=0, abs=1e-12
            )

    def test_best_checkpoint_has_minimal_validation_loss(self):
        train_pairs, val_pairs = self._tiny_sets()
        scfg = ScorerConfig(d_in=8, d=8, head_hidden=8)
        tcfg = TrainConfig(total_steps=40, eval_every=10, batch_size=16, seed=5)
        result = train(train_pairs, val_pairs, scfg, tcfg)
        val_losses = [r.val_loss for r in result.history if r.val_loss is not None]
        assert result.best_val_loss == min(val_losses)
        best_loss, _ = evaluate_loss(pair_table(val_pairs, scfg), scfg, result.best_params, tcfg.lambda_center)
        assert best_loss == pytest.approx(result.best_val_loss, rel=0, abs=0)

    def test_rolling_checkpoint_window(self, tmp_path):
        train_pairs, val_pairs = self._tiny_sets()
        scfg = ScorerConfig(d_in=8, d=4, head_hidden=4)
        tcfg = TrainConfig(total_steps=25, eval_every=1, batch_size=8, seed=5)
        train(train_pairs, val_pairs, scfg, tcfg, checkpoint_dir=tmp_path)
        ckpts = sorted(tmp_path.glob("step-*.ckpt"))
        assert len(ckpts) == 20
        assert ckpts[0].name == "step-000006.ckpt"
        assert ckpts[-1].name == "step-000025.ckpt"

    def test_a_rerun_leaves_only_its_own_rolling_checkpoints(self, tmp_path):
        # A longer run's higher-numbered checkpoints must not outlive a shorter rerun into the same directory.
        train_pairs, val_pairs = self._tiny_sets()
        scfg = ScorerConfig(d_in=8, d=4, head_hidden=4)
        train(train_pairs, val_pairs, scfg, TrainConfig(total_steps=30, eval_every=1, batch_size=8, seed=5),
              checkpoint_dir=tmp_path)
        (tmp_path / "best.ckpt").write_bytes(b"kept")
        train(train_pairs, val_pairs, scfg, TrainConfig(total_steps=8, eval_every=2, batch_size=8, seed=5),
              checkpoint_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"] + [f"step-{s:06d}.ckpt" for s in (2, 4, 6, 8)]

    def test_a_config_that_a_checkpoint_cannot_store_fails_before_reading_or_writing(self, tmp_path):
        scfg = ScorerConfig(d_in=8, d=4, head_hidden=4, max_frames_per_turn=5)
        read = []
        pairs = (read.append(p) or p for p in self._tiny_sets()[0])
        with pytest.raises(CheckpointError, match="max_frames_per_turn"):
            train(pairs, [], scfg, TrainConfig(total_steps=3, batch_size=8), checkpoint_dir=tmp_path / "ckpt")
        assert read == [] and not any(tmp_path.iterdir())
        assert train(self._tiny_sets()[0], [], scfg, TrainConfig(total_steps=3, batch_size=8)).best_step == 3

    def test_learnability_smoke(self):
        cfg = synth_config(seed=41)
        train_pairs = synth_pairs(cfg, 200, split="train")
        val_pairs = synth_pairs(dataclasses.replace(cfg, seed=42, signature=cfg.signature.copy()), 60, split="val")
        scfg = ScorerConfig(d_in=8)
        tcfg = TrainConfig(total_steps=150, eval_every=50, seed=0)
        result = train(train_pairs, val_pairs, scfg, tcfg)
        rc, rr = score_pairs(pair_table(val_pairs, scfg), scfg, result.best_params)
        assert float(np.mean(rc > rr)) >= 0.8

    def test_hundred_step_moving_average_of_loss_decreases(self):
        cfg = synth_config(seed=51)
        train_pairs = synth_pairs(cfg, 300, split="train")
        scfg = ScorerConfig(d_in=8)
        tcfg = TrainConfig(total_steps=300, eval_every=1000, seed=0)
        history = train(train_pairs, [], scfg, tcfg).history
        losses = np.array([r.loss_total for r in history])
        moving = np.convolve(losses, np.ones(100) / 100, mode="valid")
        assert moving[-1] < moving[0]
        assert losses[-100:].mean() < losses[:100].mean()

    def test_empty_train_set_raises(self):
        with pytest.raises(EmptyBatchError):
            train([], [], ScorerConfig(d_in=8), TrainConfig(total_steps=5))

    def test_generators_give_the_results_of_lists(self, tmp_path):
        train_pairs, val_pairs = self._tiny_sets()
        scfg = ScorerConfig(d_in=8, d=8, head_hidden=8, pooling="attention")  # checkpoints store only the default frames
        tcfg = TrainConfig(total_steps=30, eval_every=7, batch_size=16, seed=5)
        a = train(train_pairs, val_pairs, scfg, tcfg, checkpoint_dir=tmp_path / "a")
        b = train((p for p in train_pairs), (p for p in val_pairs), scfg, tcfg, checkpoint_dir=tmp_path / "b")
        assert a.history == b.history and (a.best_step, a.best_val_loss) == (b.best_step, b.best_val_loss)
        assert a.best_params.flat.tobytes() == b.best_params.flat.tobytes()
        for ckpt in (tmp_path / "a").iterdir():
            assert ckpt.read_bytes() == (tmp_path / "b" / ckpt.name).read_bytes()
        scfg = dataclasses.replace(scfg, max_frames_per_turn=5)  # tables of truncated turns
        listed, streamed = pair_table(train_pairs, scfg), pair_table(iter(train_pairs), scfg)
        for field in ("frames", "tokens", "row_of", "lengths", "criteria"):
            assert getattr(listed, field).tobytes() == getattr(streamed, field).tobytes(), field
        scores = score_pairs(listed, scfg, a.best_params)  # 48 pairs: a full chunk and a partial one
        assert scores[0].shape == (48,)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(scores, score_pairs(streamed, scfg, a.best_params)))
