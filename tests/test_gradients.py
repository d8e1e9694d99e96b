"""Reverse-mode gradients against central finite differences."""

import numpy as np
import pytest

import episcore.scorer as sc
from episcore import Criterion, ScorerConfig, backward, init_params, score
from episcore.gradcheck import numerical_gradient, random_case, relative_error, run_gradcheck
from episcore.training import AdamState, TrainConfig, optimizer_step

from conftest import make_episode

D_IN = 4


def test_b2_gradient_is_upstream():
    cfg = ScorerConfig(d_in=D_IN)
    params = init_params(cfg, seed=0)
    _, acts = score(make_episode(2), Criterion.MODALITY, cfg, params)
    g = backward(acts, 3.25)
    assert g.b2[0] == 3.25


def test_attention_query_gradient_zero_under_mean_pooling():
    cfg = ScorerConfig(d_in=D_IN, pooling="mean")
    params = init_params(cfg, seed=0)
    _, acts = score(make_episode(4), Criterion.MODALITY, cfg, params)
    g = backward(acts, 1.0)
    assert np.array_equal(g.q, np.zeros_like(g.q))


def test_unused_criterion_row_gets_zero_gradient():
    cfg = ScorerConfig(d_in=D_IN)
    params = init_params(cfg, seed=0)
    _, acts = score(make_episode(2), Criterion.MODALITY, cfg, params)
    g = backward(acts, 1.0)
    assert np.array_equal(g.e_crit[1], np.zeros(cfg.d))
    assert not np.array_equal(g.e_crit[0], np.zeros(cfg.d))


@pytest.mark.parametrize("mode", sc.POOLING_MODES)
def test_gradients_are_taken_at_the_params_that_scored(mode):
    cfg = ScorerConfig(d_in=D_IN, pooling=mode)
    params = init_params(cfg, seed=0)
    batch = sc.pack_episodes([make_episode(2), make_episode(4)], [Criterion.MODALITY, Criterion.COLLOQUIALNESS], cfg)
    upstream = np.array([0.75, -1.5])
    acts = sc.score_batch(batch, cfg, params)
    want = sc.backward_batch(sc.score_batch(batch, cfg, sc.clone_params(params)), upstream)
    params = optimizer_step(params, want, AdamState.init(params), TrainConfig(), lr=0.1)  # the caller moves on
    got = sc.backward_batch(acts, upstream)
    assert np.array_equal(got.flat, want.flat)
    assert not np.array_equal(got.flat, sc.backward_batch(sc.score_batch(batch, cfg, params), upstream).flat)


@pytest.mark.parametrize("mode", sc.POOLING_MODES)
def test_finite_difference_agreement_per_mode(mode):
    rng = np.random.default_rng(101)
    for _ in range(5):
        cfg, params, episode, criterion = random_case(rng)
        cfg = ScorerConfig(cfg.d_in, cfg.d, mode, cfg.head_hidden, cfg.max_frames_per_turn)
        _, acts = score(episode, criterion, cfg, params)
        analytic = backward(acts, 1.0)
        numeric = numerical_gradient(lambda p: score(episode, criterion, cfg, p)[0], params)
        for name in sc.PARAM_FIELDS:
            a = getattr(analytic, name).ravel()
            n = getattr(numeric, name).ravel()
            worst = max(relative_error(ai, ni) for ai, ni in zip(a, n))
            assert worst < 1e-4, f"{name} rel err {worst}"


def test_gradcheck_harness_detects_corruption(monkeypatch):
    backward_batch = sc.backward_batch

    def corrupt_w1(*args):
        grads = backward_batch(*args)
        grads.w1[...] += 1e-2
        return grads

    monkeypatch.setattr(sc, "backward_batch", corrupt_w1)
    report = run_gradcheck(n_draws=2, seed=7)
    assert not report.passed
    assert report.worst_group == "w1"


def test_gradcheck_fails_a_nan_gradient(monkeypatch):
    backward_batch = sc.backward_batch

    def nan_in_q(*args):
        grads = backward_batch(*args)
        grads.q[1] = np.nan
        return grads

    monkeypatch.setattr(sc, "backward_batch", nan_in_q)
    report = run_gradcheck(n_draws=1, seed=7)
    assert not report.passed
    assert report.worst_group == "q" and report.groups["q"].worst_index == 1


def test_gradcheck_smoke_passes():
    report = run_gradcheck(n_draws=5, seed=7)
    assert report.passed
    assert report.max_rel_err < 1e-4
    payload = report.to_dict()
    assert set(payload["groups"]) == set(sc.PARAM_FIELDS)
