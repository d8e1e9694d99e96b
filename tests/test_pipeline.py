import dataclasses

import numpy as np
import pytest

from episcore import (
    Criterion,
    GroupingConfig,
    HeuristicJudge,
    JudgeScores,
    Segment,
    SegmentManifest,
    SynthConfig,
    filter_by_judge,
    filter_structural,
    group_segments,
    read_pairs,
    stratify_bench,
    synth_config,
    synth_pairs,
    validate_episode,
    write_pairs,
)
from episcore.episodes import TOO_MANY_TURNS, TURN_TOO_LONG, shard_path, write_features
from episcore.errors import EmptyManifestError, FeatureIOError, JudgeUnavailableError, MissingMetadataError
from episcore.pipeline import default_signature

from conftest import make_episode, make_pair

D_IN = 4


def seg_fixture(tmp_path, spans, d_in=D_IN):
    """spans: list of (speaker, start, end). One shared sidecar per fixture."""
    feat_path = tmp_path / "seg.f32"
    write_features(feat_path, np.full((2, d_in), 0.25, dtype=np.float32))
    records = [
        Segment(spk, float(a), float(b), f"{spk} turn at {a}", str(feat_path)) for spk, a, b in spans
    ]
    return SegmentManifest(records)


class TestGroupSegments:
    def test_four_alternating_segments_make_one_episode(self, tmp_path):
        # Hand trace: contiguous alternating segments, 80 s of speech, no
        # gaps below the minimum interval, two speakers, density 1.0.
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 20), ("b", 20, 40), ("a", 40, 60), ("b", 60, 80)],
        )
        episodes = group_segments(manifest, GroupingConfig())
        assert len(episodes) == 1
        assert episodes[0].n_turns == 4
        assert validate_episode(episodes[0]) == []
        assert episodes[0].total_speech_s == 80.0

    def test_duration_cap_splits_groups(self, tmp_path):
        # 95 s of contiguous speech must split so every group stays <= 90 s.
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 30), ("b", 30, 60), ("a", 60, 85), ("b", 85, 95)],
        )
        episodes = group_segments(manifest, GroupingConfig())
        assert len(episodes) >= 1
        assert all(ep.total_speech_s <= 90.0 for ep in episodes)
        assert episodes[0].n_turns == 2  # 30 + 30 fits, adding 25 would still fit, 10 would not

    def test_third_speaker_window_excluded(self, tmp_path):
        # Speaker c holds ~18% of the window when it arrives: the group is
        # cut before it and c never appears in any emitted episode.
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 10), ("b", 10, 20), ("c", 20, 24.5)],
        )
        episodes = group_segments(manifest, GroupingConfig())
        assert len(episodes) == 1
        speakers = {t.speaker_id for ep in episodes for t in ep.turns}
        assert speakers == {"a", "b"}

    def test_small_minority_speaker_dropped_silently(self, tmp_path):
        # c holds ~4.8% of the group: below the cap, so the group survives
        # and only c's segment is removed when retaining the dominant two.
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 10), ("b", 10, 20), ("c", 20, 21), ("a", 21, 31), ("b", 31, 41)],
        )
        episodes = group_segments(manifest, GroupingConfig())
        assert len(episodes) == 1
        assert [t.speaker_id for t in episodes[0].turns] == ["a", "b", "a", "b"]

    def test_overlapping_segments_cut_group(self, tmp_path):
        # gap of -2 s violates the minimum interval of 0.
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 10), ("b", 8, 18), ("a", 18, 28), ("b", 28, 38)],
        )
        episodes = group_segments(manifest, GroupingConfig())
        assert all(ep.n_turns >= 2 for ep in episodes)
        for ep in episodes:
            for prev, cur in zip(ep.turns, ep.turns[1:]):
                assert cur.start_s - prev.end_s >= 0.0

    def test_sparse_group_dropped_by_overlap_ratio(self, tmp_path):
        # 2 s of speech spread over 40 s: density 0.05 < 0.1.
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 1), ("b", 39, 40)],
        )
        assert group_segments(manifest, GroupingConfig()) == []

    def test_single_oversized_segment_dropped(self, tmp_path):
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 95), ("b", 95, 100), ("a", 100, 105)],
        )
        episodes = group_segments(manifest, GroupingConfig())
        assert all(t.duration_s <= 90.0 for ep in episodes for t in ep.turns)
        assert all("a turn at 0" != t.transcript for ep in episodes for t in ep.turns)

    def test_odd_groups_repaired_to_even(self, tmp_path):
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 10), ("b", 10, 20), ("a", 20, 30)],
        )
        episodes = group_segments(manifest, GroupingConfig())
        assert len(episodes) == 1
        assert episodes[0].n_turns == 2

    def test_density_is_checked_after_the_odd_turn_is_dropped(self, tmp_path):
        # All five turns: 28 s of speech over 125 s (0.224). Without the
        # trailing turn: 8 s over 104.5 s (0.077), below the 0.1 floor.
        manifest = seg_fixture(
            tmp_path,
            [("a", 0, 2), ("b", 2.5, 4.5), ("a", 100, 102), ("b", 102.5, 104.5), ("a", 105, 125)],
        )
        episodes = group_segments(manifest, GroupingConfig())
        assert all(ep.total_speech_s / (ep.turns[-1].end_s - ep.turns[0].start_s) >= 0.1 for ep in episodes)
        assert episodes == []

    def test_dropped_trailing_turn_features_are_not_read(self, tmp_path):
        manifest = seg_fixture(tmp_path, [("a", 0, 10), ("b", 10, 20)])
        manifest.records.append(Segment("a", 20.0, 30.0, "gone", str(tmp_path / "gone.f32")))
        episodes = group_segments(manifest, GroupingConfig())
        assert [ep.n_turns for ep in episodes] == [2]

    def test_segments_sharing_a_file_get_equal_unshared_rows(self, tmp_path):
        # The four segments of tests/test_cli.py::TestPipelineCommands::test_group_filter_stratify_flow.
        feat = tmp_path / "seg.f32"
        write_features(feat, np.full((3, 8), 0.5, dtype=np.float32))
        segments = SegmentManifest(
            [
                Segment("a", 0.0, 10.0, "well yeah", str(feat)),
                Segment("b", 10.0, 20.0, "okay right", str(feat)),
                Segment("a", 20.0, 30.0, "so um", str(feat)),
                Segment("b", 30.0, 40.0, "sure thing", str(feat)),
            ]
        )
        (episode,) = group_segments(segments, GroupingConfig())
        feats = [t.features for t in episode.turns]
        assert all(np.array_equal(f, np.full((3, 8), 0.5)) for f in feats)
        for i, a in enumerate(feats):
            for b in feats[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_empty_manifest_raises(self):
        with pytest.raises(EmptyManifestError):
            group_segments(SegmentManifest([]), GroupingConfig())

    def test_missing_sidecar_raises_feature_io(self, tmp_path):
        records = [
            Segment("a", 0.0, 10.0, "x", str(tmp_path / "gone.f32")),
            Segment("b", 10.0, 20.0, "y", str(tmp_path / "gone.f32")),
        ]
        with pytest.raises(FeatureIOError):
            group_segments(SegmentManifest(records), GroupingConfig())

    def test_emitted_episodes_respect_config_bounds(self, tmp_path):
        # Randomized re-measurement of every grouping guarantee.
        rng = np.random.default_rng(7)
        feat_path = tmp_path / "seg.f32"
        write_features(feat_path, np.zeros((2, D_IN), dtype=np.float32))
        clock = 0.0
        records = []
        for _ in range(120):
            clock += float(rng.uniform(-1.0, 8.0))
            start = max(clock, 0.0)
            dur = float(rng.uniform(0.5, 40.0))
            spk = str(rng.choice(["a", "b", "c"], p=[0.45, 0.45, 0.1]))
            records.append(Segment(spk, start, start + dur, "t", str(feat_path)))
            clock = start + dur
        records.sort(key=lambda s: s.start_s)
        cfg = GroupingConfig()
        episodes = group_segments(SegmentManifest(records), cfg)
        assert episodes
        for ep in episodes:
            assert ep.n_turns % 2 == 0
            assert ep.total_speech_s <= cfg.max_group_duration_s
            assert len({t.speaker_id for t in ep.turns}) <= 2
            for prev, cur in zip(ep.turns, ep.turns[1:]):
                assert cur.start_s - prev.end_s >= cfg.min_interval_s
            span = ep.turns[-1].end_s - ep.turns[0].start_s
            assert ep.total_speech_s / span >= cfg.min_overlap_ratio


class TestFilterStructural:
    def test_partition_is_exact(self):
        valid = make_episode(4, "ok")
        too_many = make_episode(18, "long")
        slow = make_episode(2, "slow", duration=61.0)
        kept, rejected = filter_structural([valid, too_many, slow])
        assert kept == [valid]
        assert [(ep.episode_id, codes) for ep, codes in rejected] == [
            ("long", [TOO_MANY_TURNS]),
            ("slow", [TURN_TOO_LONG]),
        ]

    def test_all_valid(self):
        episodes = [make_episode(2, f"e{i}") for i in range(3)]
        kept, rejected = filter_structural(episodes)
        assert kept == episodes and rejected == []

    def test_empty_input(self):
        assert filter_structural([]) == ([], [])

    def test_idempotent_on_kept(self):
        episodes = [make_episode(2, "a"), make_episode(5, "b")]
        kept, _ = filter_structural(episodes)
        again, rejected = filter_structural(kept)
        assert again == kept and rejected == []


class StubJudge:
    def __init__(self, table):
        self.table = table

    def __call__(self, pair):
        content, naturalness, coherence = self.table[pair.pair_id]
        return JudgeScores(content, naturalness, coherence, "chosen", "stub")


class TestJudgeFilter:
    def test_threshold_rules(self):
        pairs = [make_pair("p1"), make_pair("p2"), make_pair("p3")]
        judge = StubJudge({"p1": (3, 5, 3), "p2": (2, 5, 5), "p3": (5, 1, 3)})
        kept = filter_by_judge(pairs, judge)
        # p1 passes both axes; p2 fails content; p3 passes because
        # naturalness is not a retention axis.
        assert [p.pair_id for p in kept] == ["p1", "p3"]

    def test_judge_failure_propagates(self):
        def broken(pair):
            raise JudgeUnavailableError("judge endpoint down")

        with pytest.raises(JudgeUnavailableError):
            filter_by_judge([make_pair()], broken)

    def test_heuristic_judge_is_deterministic_and_in_range(self):
        judge = HeuristicJudge()
        pair = make_pair()
        s1, s2 = judge(pair), judge(pair)
        assert s1 == s2
        for v in (s1.final_turn_content, s1.final_turn_naturalness_prosody, s1.dialog_context_coherence):
            assert 1 <= v <= 5

    def test_heuristic_judge_keeps_synthetic_pairs(self):
        pairs = synth_pairs(synth_config(seed=2), 8)
        assert filter_by_judge(pairs, HeuristicJudge()) == pairs


class TestStratify:
    def _bucketed_pairs(self, sizes):
        pairs = []
        i = 0
        for (tier, secondary), size in sizes.items():
            for _ in range(size):
                pairs.append(
                    make_pair(
                        f"p{i:04d}",
                        tier=tier,
                        split="val",
                        metadata={"primary_dimension": "x", "secondary_dimension": secondary},
                    )
                )
                i += 1
        return pairs

    def test_small_bucket_fully_retained(self):
        pairs = self._bucketed_pairs({("wild", "laughter"): 30})
        assert len(stratify_bench(pairs, cap=50, seed=0)) == 30

    def test_large_bucket_capped(self):
        pairs = self._bucketed_pairs({("wild", "laughter"): 120})
        bench = stratify_bench(pairs, cap=50, seed=0)
        assert len(bench) == 50
        assert len({p.pair_id for p in bench}) == 50

    def test_every_bucket_is_min_of_size_and_cap(self):
        sizes = {
            ("wild", "laughter"): 120,
            ("wild", "cough"): 7,
            ("scripted", "anger"): 50,
            ("semi-wild", "joy"): 51,
        }
        pairs = self._bucketed_pairs(sizes)
        bench = stratify_bench(pairs, cap=50, seed=0)
        got = {}
        for p in bench:
            key = (p.source_tier, p.chosen.metadata["secondary_dimension"])
            got[key] = got.get(key, 0) + 1
        assert got == {k: min(v, 50) for k, v in sizes.items()}

    def test_same_seed_identical_selection(self):
        pairs = self._bucketed_pairs({("wild", "laughter"): 120, ("scripted", "anger"): 80})
        a = [p.pair_id for p in stratify_bench(pairs, cap=50, seed=9)]
        b = [p.pair_id for p in stratify_bench(pairs, cap=50, seed=9)]
        assert a == b

    def test_different_seed_differs(self):
        pairs = self._bucketed_pairs({("wild", "laughter"): 400})
        a = [p.pair_id for p in stratify_bench(pairs, cap=50, seed=1)]
        b = [p.pair_id for p in stratify_bench(pairs, cap=50, seed=2)]
        assert a != b

    def test_train_pairs_and_listed_ids_excluded(self):
        pairs = self._bucketed_pairs({("wild", "laughter"): 10})
        pairs[0] = dataclasses.replace(pairs[0], split="train")
        bench = stratify_bench(pairs, cap=50, seed=0, train_ids={"p0001"})
        ids = {p.pair_id for p in bench}
        assert "p0000" not in ids and "p0001" not in ids
        assert len(bench) == 8
        assert all(p.split == "bench" for p in bench)

    def test_missing_metadata_raises(self):
        pair = make_pair("p0", split="val", metadata={"primary_dimension": "x"})
        with pytest.raises(MissingMetadataError):
            stratify_bench([pair], cap=50, seed=0)


class TestSynthPairs:
    def test_zero_noise_mean_difference_is_exactly_the_signature(self):
        cfg = synth_config(seed=5, noise_std=0.0)
        for pair in synth_pairs(cfg, 12):
            mc = pair.chosen.turns[-1].features.astype(np.float64).mean(axis=0)
            mr = pair.rejected.turns[-1].features.astype(np.float64).mean(axis=0)
            assert np.array_equal(mc - mr, cfg.signature)

    def test_zero_noise_linear_probe_margin_is_signature_norm_squared(self):
        cfg = synth_config(seed=5, noise_std=0.0)
        s = cfg.signature
        want = float(s @ s)
        for pair in synth_pairs(cfg, 12):
            mc = pair.chosen.turns[-1].features.astype(np.float64).mean(axis=0)
            mr = pair.rejected.turns[-1].features.astype(np.float64).mean(axis=0)
            assert float(s @ mc) - float(s @ mr) == pytest.approx(want, rel=0, abs=1e-12)

    def test_transcripts_and_structure_shared_within_pair(self):
        for pair in synth_pairs(synth_config(seed=6), 8):
            assert [t.transcript for t in pair.chosen.turns] == [t.transcript for t in pair.rejected.turns]
            assert [t.duration_s for t in pair.chosen.turns] == [t.duration_s for t in pair.rejected.turns]
            assert pair.chosen.n_turns == pair.rejected.n_turns
            assert pair.chosen.source_tier == pair.rejected.source_tier
            assert validate_episode(pair.chosen) == []
            assert validate_episode(pair.rejected) == []

    def test_generation_is_deterministic_and_manifests_byte_identical(self, tmp_path):
        cfg = synth_config(seed=17)
        a_path, b_path = tmp_path / "a" / "p.jsonl", tmp_path / "b" / "p.jsonl"
        write_pairs(synth_pairs(cfg, 10), a_path)
        write_pairs(synth_pairs(cfg, 10), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()
        assert shard_path(a_path).read_bytes() == shard_path(b_path).read_bytes()
        assert sorted(p.name for p in a_path.parent.iterdir()) == ["p.jsonl", "p.jsonl.f32"]

    def test_round_trips_through_manifest(self, tmp_path):
        pairs = synth_pairs(synth_config(seed=18), 6)
        path = tmp_path / "p.jsonl"
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs

    def test_all_tiers_and_criteria_covered(self):
        pairs = synth_pairs(synth_config(seed=19), 8)
        assert {p.source_tier for p in pairs} == {"wild", "semi-wild", "scripted", "colloquial"}
        colloq = [p for p in pairs if p.source_tier == "colloquial"]
        assert all(p.criterion == Criterion.COLLOQUIALNESS for p in colloq)
        assert all(
            p.criterion == Criterion.MODALITY for p in pairs if p.source_tier != "colloquial"
        )

    def test_confounder_only_set_is_uninformative(self):
        # With the signature zeroed the label is independent of the
        # features: a probe aligned with any direction, including the one
        # the real generator plants, stays at coin-flip accuracy. The
        # tolerance is approximately 6 standard errors at n = 10000.
        cfg = SynthConfig(
            d_in=2,
            signature=np.zeros(2),
            channel_offsets={"wild": np.array([0.5, 0.0]), "scripted": np.array([-0.5, 0.0])},
            noise_std=0.25,
            frames_per_turn=(2, 3),
            turns=(2, 2),
            words_per_turn=(1, 2),
            seed=77,
        )
        pairs = synth_pairs(cfg, 10_000)
        probe = default_signature(2, 1.0)
        correct = 0
        for pair in pairs:
            mc = pair.chosen.turns[-1].features.astype(np.float64).mean(axis=0)
            mr = pair.rejected.turns[-1].features.astype(np.float64).mean(axis=0)
            correct += float(probe @ mc) > float(probe @ mr)
        assert abs(correct / len(pairs) - 0.5) <= 0.03

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(d_in=4, signature=np.zeros(4), turns=(3, 5))
        with pytest.raises(ValueError):
            SynthConfig(d_in=4, signature=np.zeros(3))
        with pytest.raises(ValueError):
            SynthConfig(d_in=4, signature=np.zeros(4), noise_std=-0.1)
        with pytest.raises(ValueError):
            synth_pairs(synth_config(), 0)
