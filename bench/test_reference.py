"""Tests of the benchmark's own reference computations and checks.

    PYTHONPATH=src python -m pytest -q bench/test_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import episcore as ec  # noqa: E402
from episcore import cli, episodes, scorer  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from reference import CheckFailed  # noqa: E402
from workloads import Curate, make_segments  # noqa: E402


@pytest.mark.parametrize("pooling", scorer.POOLING_MODES)
def test_reference_forward_matches_scorer_on_golden_fixture(pooling, tmp_path):
    # The fixture of tests/test_scorer.py: synth seed 123, params seed 77.
    pair = ec.synth_pairs(ec.synth_config(seed=123), 1)[0]
    cfg = scorer.ScorerConfig(d_in=8, d=12, head_hidden=10, pooling=pooling)
    params = scorer.init_params(cfg, seed=77)
    scorer.save_checkpoint(tmp_path / "m.ckpt", cfg, params)
    read_pooling, ref_params = reference.read_checkpoint(tmp_path / "m.ckpt")
    assert read_pooling == pooling
    for ep in (pair.chosen, pair.rejected):
        for crit in ec.Criterion:
            want, _ = scorer.score(ep, crit, cfg, params)
            got = reference.forward(reference.episode_turns(ep), crit.value, ref_params, pooling)
            assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_reference_truncates_frames():
    pair = ec.synth_pairs(ec.synth_config(seed=5), 1)[0]
    cfg = scorer.ScorerConfig(d_in=8, max_frames_per_turn=2)
    params = scorer.init_params(cfg, seed=1)
    want, _ = scorer.score(pair.chosen, pair.criterion, cfg, params)
    tensors = {name: t for name, t in params.tensors()}
    got = reference.forward(reference.episode_turns(pair.chosen), pair.criterion.value, tensors, "mean", max_frames=2)
    assert got == pytest.approx(want, rel=0, abs=1e-12)


def _curate_round(tmp_path, seed, n_segments=600, n_pairs=120):
    wl = Curate(seed)
    wl.n_segments, wl.n_pairs = n_segments, n_pairs
    inputs = tmp_path / "in"
    inputs.mkdir()
    wl.setup(inputs)
    out = tmp_path / "out"
    assert wl.run_round(out, lambda sub, argv: cli.main(argv)) == [0, 0, 0]
    return wl, out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_curate_outputs_pass_the_property_checks(tmp_path, seed):
    wl, out = _curate_round(tmp_path, seed)
    grouped = checks.check_groups(out / "episodes.jsonl", 90.0, 0.1)
    kept = checks.check_filter(grouped, out, out / "kept.jsonl", out / "rejects.jsonl", wl.source)
    checks.check_stratify(reference.read_jsonl(wl.inputs / "pairs.jsonl"), out / "bench.jsonl", wl.cap)
    # The stream exercises both sides of the structural filter.
    assert 0 < kept < len(grouped)


def test_checks_catch_tampered_outputs(tmp_path):
    wl, out = _curate_round(tmp_path, 0)
    grouped = checks.check_groups(out / "episodes.jsonl", 90.0, 0.1)
    with pytest.raises(CheckFailed):
        checks.check_groups(out / "episodes.jsonl", 1.0, 0.1)
    rejects = (out / "rejects.jsonl").read_text(encoding="utf-8").splitlines()
    (out / "rejects.jsonl").write_text("\n".join(rejects[1:]) + "\n", encoding="utf-8")
    with pytest.raises(CheckFailed):
        checks.check_filter(grouped, out, out / "kept.jsonl", out / "rejects.jsonl", wl.source)
    bench = reference.read_jsonl(out / "bench.jsonl")
    bench[0]["split"] = "train"
    (out / "bench.jsonl").write_text("".join(json.dumps(r) + "\n" for r in bench), encoding="utf-8")
    with pytest.raises(CheckFailed):
        checks.check_stratify(reference.read_jsonl(wl.inputs / "pairs.jsonl"), out / "bench.jsonl", wl.cap)


def test_kept_features_compared_bit_for_bit(tmp_path):
    wl, out = _curate_round(tmp_path, 1)
    grouped = checks.check_groups(out / "episodes.jsonl", 90.0, 0.1)
    kept = reference.read_jsonl(out / "kept.jsonl")
    sidecar = out / kept[0]["turns"][0]["features_path"]
    frames = episodes.read_features(sidecar)
    frames[0, 0] = np.nextafter(frames[0, 0], np.float32(np.inf))
    episodes.write_features(sidecar, frames)
    with pytest.raises(CheckFailed):
        checks.check_filter(grouped, out, out / "kept.jsonl", out / "rejects.jsonl", wl.source)


def test_segment_stream_is_sorted_and_seeded():
    a = make_segments(np.random.default_rng([3, 1]), 500)
    b = make_segments(np.random.default_rng([3, 1]), 500)
    assert a == b
    assert all(x[1] <= y[1] for x, y in zip(a, a[1:]))
    assert all(end > start for _, start, end, _ in a)
