"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (visible with
`pytest -s`, and pytest -v shows the per-test verdicts regardless). The
criteria with runtime budgets assert them with wall-clock measurements.
"""

import dataclasses
import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest

from episcore import (
    ScorerConfig,
    TrainConfig,
    aggregate,
    agreement_stats,
    bt_loss,
    center_loss,
    filter_by_judge,
    filter_structural,
    run_gradcheck,
    stratify_bench,
    synth_config,
    synth_pairs,
    train,
)
from episcore.evaluation import ScoredPair, pairwise_accuracy
from episcore.pipeline import JudgeScores
from episcore.training import pair_table, score_pairs

from conftest import make_episode, make_pair
from test_evaluation import REFERENCE_AGREEMENT_ROWS, REFERENCE_COUNTS, REFERENCE_SCORECARDS


@contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_aggregation_oracle():
    with criterion(1, "aggregation oracle"):
        start = time.perf_counter()
        for card in REFERENCE_SCORECARDS:
            aggs = aggregate(card["acc"], REFERENCE_COUNTS)
            for name, want in card["want"].items():
                assert getattr(aggs, name) == pytest.approx(want, abs=0.01), name
        assert time.perf_counter() - start < 1.0


def test_criterion_2_agreement_oracle():
    with criterion(2, "agreement oracle"):
        start = time.perf_counter()
        rows, overall = agreement_stats(REFERENCE_AGREEMENT_ROWS)
        assert overall.agree_rate * 100 == pytest.approx(83.5, abs=0.1)
        want_se = {
            "high_confidence": 7.2,
            "low_confidence": 9.2,
            "random_sampling": 9.5,
            "model_wrong": 6.5,
        }
        for row in rows:
            assert row.se * 100 == pytest.approx(want_se[row.subset_name], abs=0.1), row.subset_name
        assert overall.se * 100 == pytest.approx(4.3, abs=0.1)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_loss_unit_values():
    with criterion(3, "loss unit values"):
        assert abs(bt_loss(0.0, 0.0) - math.log(2)) < 1e-12
        mpmath.mp.dps = 60
        oracle = float(mpmath.log(1 + mpmath.exp(-20)))
        assert abs(bt_loss(10.0, -10.0) - oracle) / oracle < 1e-12
        assert bt_loss(10.0, -10.0) > 0.0
        assert center_loss(2.0, 3.0) == 25.0


def test_criterion_4_gradient_exactness():
    with criterion(4, "gradient exactness"):
        start = time.perf_counter()
        report = run_gradcheck(n_draws=100, seed=0)
        elapsed = time.perf_counter() - start
        assert report.passed, f"max rel err {report.max_rel_err} in {report.worst_group}"
        assert report.tolerance == 1e-4 and report.max_rel_err < 1e-4
        assert report.n_draws == 100 and set(report.modes) == {"last", "mean", "attention"}
        assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"


def test_criterion_5_desk_scale_learnability():
    with criterion(5, "desk-scale learnability"):
        start = time.perf_counter()
        cfg = synth_config(seed=100)
        train_pairs = synth_pairs(cfg, 2000, split="train")
        val_cfg = dataclasses.replace(cfg, seed=101, signature=cfg.signature.copy())
        val_pairs = synth_pairs(val_cfg, 500, split="val")
        scorer_cfg = ScorerConfig(d_in=8, pooling="mean")
        train_cfg = TrainConfig()  # defaults throughout
        assert train_cfg.total_steps <= 2000
        result = train(train_pairs, val_pairs, scorer_cfg, train_cfg)
        rc, rr = score_pairs(pair_table(val_pairs, scorer_cfg), scorer_cfg, result.best_params)
        accuracy = float(np.mean(rc > rr))
        elapsed = time.perf_counter() - start
        assert accuracy >= 0.95, f"held-out accuracy {accuracy}"
        assert elapsed < 120.0, f"learnability run took {elapsed:.1f}s"


def test_criterion_6_centering_effect():
    with criterion(6, "centering effect"):
        cfg = synth_config(seed=11)
        train_pairs = synth_pairs(cfg, 1200, split="train")
        val_cfg = dataclasses.replace(cfg, seed=12, signature=cfg.signature.copy())
        val_pairs = synth_pairs(val_cfg, 300, split="val")
        scorer_cfg = ScorerConfig(d_in=8, pooling="mean")
        results = {}
        for lam in (0.0, 1e-2):
            train_cfg = TrainConfig(total_steps=400, lambda_center=lam, seed=0)
            result = train(train_pairs, val_pairs, scorer_cfg, train_cfg)
            rc, rr = score_pairs(pair_table(val_pairs, scorer_cfg), scorer_cfg, result.best_params)
            results[lam] = {
                "margin": float(np.mean(rc - rr)),
                "drift": float(np.mean(rc + rr)),
            }
        assert abs(results[1e-2]["drift"]) <= 0.5, results
        assert results[1e-2]["margin"] >= 0.8 * results[0.0]["margin"], results


def test_criterion_7_pipeline_invariants():
    with criterion(7, "pipeline invariants"):
        start = time.perf_counter()

        # structural filter rejects exactly the rule-violating fixtures
        valid = [make_episode(2, "v0"), make_episode(16, "v1"), make_episode(4, "v2", duration=60.0)]
        invalid = [make_episode(5, "i0"), make_episode(18, "i1"), make_episode(2, "i2", duration=60.5)]
        kept, rejected = filter_structural(valid + invalid)
        assert kept == valid
        assert [ep.episode_id for ep, _ in rejected] == ["i0", "i1", "i2"]

        # stratified sampler: min(bucket, 50) per bucket, seed-deterministic
        pairs = []
        sizes = {("wild", "laughter"): 72, ("scripted", "anger"): 31}
        i = 0
        for (tier, secondary), size in sizes.items():
            for _ in range(size):
                pairs.append(
                    make_pair(
                        f"p{i:04d}", tier=tier, split="val",
                        metadata={"primary_dimension": "x", "secondary_dimension": secondary},
                    )
                )
                i += 1
        bench_a = stratify_bench(pairs, cap=50, seed=21)
        bench_b = stratify_bench(pairs, cap=50, seed=21)
        assert [p.pair_id for p in bench_a] == [p.pair_id for p in bench_b]
        per_bucket = {}
        for p in bench_a:
            key = (p.source_tier, p.chosen.metadata["secondary_dimension"])
            per_bucket[key] = per_bucket.get(key, 0) + 1
        assert per_bucket == {k: min(v, 50) for k, v in sizes.items()}

        # judge filter keeps exactly content >= 3 and coherence >= 3
        table = {}
        judged = []
        k = 0
        for content in range(1, 6):
            for coherence in range(1, 6):
                pid = f"j{k:03d}"
                judged.append(make_pair(pid))
                table[pid] = (content, 1, coherence)  # naturalness 1: never a filter axis
                k += 1
        judge = lambda pair: JudgeScores(*table[pair.pair_id], preference="chosen")
        kept_pairs = filter_by_judge(judged, judge)
        kept_ids = {p.pair_id for p in kept_pairs}
        want_ids = {pid for pid, (c, _, coh) in table.items() if c >= 3 and coh >= 3}
        assert kept_ids == want_ids

        assert time.perf_counter() - start < 5.0


def test_criterion_8_metric_properties():
    with criterion(8, "metric properties"):
        # accuracy is a rank statistic: 1000 randomized increasing-transform cases
        rng = np.random.default_rng(8)
        transforms = [
            lambda x, a, b: a * x + b,
            lambda x, a, b: math.exp(a * x),
            lambda x, a, b: math.atan(x) * a + b,
            lambda x, a, b: x**3 + a * x + b,
        ]
        for case in range(1000):
            n = int(rng.integers(1, 20))
            scored = [
                ScoredPair(f"c{case}-{i}", float(c), float(r), "wild", "modality")
                for i, (c, r) in enumerate(rng.standard_normal((n, 2)))
            ]
            a = float(rng.uniform(0.1, 3.0))
            b = float(rng.uniform(-2.0, 2.0))
            f = transforms[case % len(transforms)]
            mapped = [
                ScoredPair(s.pair_id, f(s.r_chosen, a, b), f(s.r_rejected, a, b), s.subset, s.criterion)
                for s in scored
            ]
            assert pairwise_accuracy(mapped) == pairwise_accuracy(scored)

        # micro equals macro whenever subset counts are equal
        for trial in range(50):
            acc = {s: float(rng.uniform(0, 1)) for s in ("wild", "semi-wild", "scripted", "colloquial")}
            n = int(rng.integers(1, 500))
            aggs = aggregate(acc, {s: n for s in acc})
            assert aggs.modality_micro == pytest.approx(aggs.modality_macro, rel=0, abs=1e-12)
            assert aggs.overall_micro == pytest.approx(
                sum(acc.values()) / 4.0, rel=0, abs=1e-12
            )
