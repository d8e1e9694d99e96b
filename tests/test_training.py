import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from episcore.errors import EmptyBatchError
from episcore.gradcheck import relative_error
from episcore.training import AdamState, evaluate_loss, pack_pairs, pair_chunks, score_pairs, warmup_steps

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
        out = total_loss(pack_pairs([tiny_pair], cfg), cfg, params, lambda_center=0.0)
        assert out.value == out.loss_pref

    def test_zero_params_gives_ln2(self, tiny_pair):
        cfg = ScorerConfig(d_in=4)
        params = sc.zeros_like_params(init_params(cfg, seed=0))
        out = total_loss(pack_pairs([tiny_pair], cfg), cfg, params, lambda_center=1e-2)
        assert out.value == pytest.approx(math.log(2), rel=0, abs=1e-12)
        assert out.loss_center == 0.0

    def test_empty_batch_raises(self):
        cfg = ScorerConfig(d_in=4)
        with pytest.raises(EmptyBatchError):
            total_loss(pack_pairs([], cfg), cfg, init_params(cfg, seed=0))

    @pytest.mark.parametrize("mode", sc.POOLING_MODES)
    def test_loss_gradients_match_finite_differences(self, mode):
        cfg = ScorerConfig(d_in=8, d=6, pooling=mode, head_hidden=5)
        params = init_params(cfg, seed=4)
        batch = pack_pairs(synth_pairs(synth_config(seed=9), 3), cfg)
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
        best_loss, _ = evaluate_loss(pair_chunks(val_pairs, scfg), scfg, result.best_params, tcfg.lambda_center)
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

    def test_learnability_smoke(self):
        cfg = synth_config(seed=41)
        train_pairs = synth_pairs(cfg, 200, split="train")
        val_pairs = synth_pairs(dataclasses.replace(cfg, seed=42, signature=cfg.signature.copy()), 60, split="val")
        scfg = ScorerConfig(d_in=8)
        tcfg = TrainConfig(total_steps=150, eval_every=50, seed=0)
        result = train(train_pairs, val_pairs, scfg, tcfg)
        rc, rr = score_pairs(pair_chunks(val_pairs, scfg), scfg, result.best_params)
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
