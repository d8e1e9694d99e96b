import functools
import gc
import io
import json
import math
import operator
import os
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episcore import (
    Criterion,
    Episode,
    PreferencePair,
    Turn,
    iter_pairs,
    read_episodes,
    read_pairs,
    read_segments,
    validate_episode,
    write_episodes,
    write_pairs,
    write_segments,
)
from episcore.episodes import (
    NONFINITE_FEATURE,
    ODD_TURNS,
    SPEAKER_ALTERNATION,
    TIER_MISMATCH,
    TOO_MANY_TURNS,
    TURN_COUNT_MISMATCH,
    TURN_TOO_LONG,
    Segment,
    SegmentManifest,
    read_features,
    read_pair_tiers,
    shard_path,
    write_features,
    write_jsonl,
)
from episcore.errors import DuplicateIdError, EpiscoreError, FeatureIOError, InvariantError, ManifestParseError
from episcore.errors import ShapeMismatchError
from episcore.pipeline import GroupingConfig, group_segments

from conftest import D_IN, make_episode, make_pair, make_turn


class TestValidateEpisode:
    def test_minimal_valid_episode(self):
        ep = make_episode(n_turns=2, duration=10.0)
        assert validate_episode(ep) == []

    def test_odd_turn_count(self):
        ep = make_episode(n_turns=5)
        assert validate_episode(ep) == [ODD_TURNS]

    def test_sixteen_turns_with_one_too_long(self):
        ep = make_episode(n_turns=16)
        ep.turns[7] = make_turn(speaker="spk-b", duration=61.0)
        assert validate_episode(ep) == [TURN_TOO_LONG]

    def test_sixty_second_turn_is_fine(self):
        ep = make_episode(n_turns=2, duration=60.0)
        assert validate_episode(ep) == []

    def test_too_many_turns(self):
        ep = make_episode(n_turns=18)
        assert validate_episode(ep) == [TOO_MANY_TURNS]

    def test_same_speaker_twice(self):
        ep = make_episode(n_turns=2)
        ep.turns[1] = make_turn(speaker="spk-a")
        assert validate_episode(ep) == [SPEAKER_ALTERNATION]

    def test_three_speakers(self):
        ep = make_episode(n_turns=4)
        ep.turns[3] = make_turn(speaker="spk-c")
        assert validate_episode(ep) == [SPEAKER_ALTERNATION]

    def test_abba_pattern_rejected(self):
        ep = make_episode(n_turns=4)
        ep.turns[2] = make_turn(speaker="spk-b")
        ep.turns[3] = make_turn(speaker="spk-a")
        assert validate_episode(ep) == [SPEAKER_ALTERNATION]

    def test_empty_episode(self):
        ep = make_episode(n_turns=2)
        ep.turns = []
        assert validate_episode(ep) == [SPEAKER_ALTERNATION]

    def test_nonfinite_feature(self):
        ep = make_episode(n_turns=2)
        feats = ep.turns[0].features.copy()
        feats[0, 0] = np.nan
        ep.turns[0].features = feats
        assert validate_episode(ep) == [NONFINITE_FEATURE]

    def test_reporting_is_exhaustive(self):
        ep = make_episode(n_turns=5)
        ep.turns[0] = make_turn(duration=61.0)
        feats = ep.turns[1].features.copy()
        feats[0, 0] = np.inf
        ep.turns[1].features = feats
        assert validate_episode(ep) == [ODD_TURNS, TURN_TOO_LONG, NONFINITE_FEATURE]


class TestTurnConstruction:
    def test_empty_feature_matrix_rejected(self):
        for shape in [(0, 4), (3, 0)]:
            with pytest.raises(ValueError, match=r"with F >= 1 and d_in >= 1, got shape \(%d, %d\)$" % shape):
                Turn("spk-a", "hi", 1.0, np.zeros(shape, dtype=np.float32))

    def test_one_dim_features_rejected(self):
        with pytest.raises(ValueError):
            Turn("spk-a", "hi", 1.0, np.zeros(4, dtype=np.float32))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_turn(duration=-1.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            make_turn(start_s=5.0, end_s=4.0)

    def test_features_stored_float32(self):
        t = Turn("spk-a", "hi", 1.0, np.ones((2, 3)))
        assert t.features.dtype == np.float32

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: make_turn(duration=v),
            lambda v: make_turn(start_s=v),
            lambda v: make_turn(end_s=v),
            lambda v: Segment("spk-a", v, 1.0, "yeah", "seg.f32"),
            lambda v: Segment("spk-a", 0.0, v, "yeah", "seg.f32"),
        ],
        ids=["turn_duration_s", "turn_start_s", "turn_end_s", "segment_start_s", "segment_end_s"],
    )
    def test_a_time_that_is_not_finite_is_refused(self, build, value):
        # Refused when built, so no writer puts a token on disk that the readers refuse.
        with pytest.raises(ValueError, match="must be finite"):
            build(value)


class TestPairConstruction:
    def test_turn_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PreferencePair("p", make_episode(2), make_episode(4), Criterion.MODALITY, "train")

    def test_tier_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PreferencePair(
                "p", make_episode(2, tier="wild"), make_episode(2, tier="scripted"), Criterion.MODALITY, "train"
            )


class TestFeatureSidecar:
    def test_round_trip_is_exact(self, tmp_path):
        feats = np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32)
        path = tmp_path / "a.f32"
        write_features(path, feats)
        assert np.array_equal(read_features(path), feats)

    def test_header_records_shape(self, tmp_path):
        path = tmp_path / "a.f32"
        write_features(path, np.zeros((7, 2), dtype=np.float32))
        raw = path.read_bytes()
        assert int.from_bytes(raw[:8], "little") == 7
        assert int.from_bytes(raw[8:16], "little") == 2
        assert len(raw) == 16 + 7 * 2 * 4

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "a.f32"
        write_features(path, np.zeros((7, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FeatureIOError):
            read_features(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FeatureIOError):
            read_features(tmp_path / "nope.f32")


class TestPairManifest:
    def test_round_trip_identity(self, tmp_path):
        pairs = [make_pair(f"pair-{i}", n_turns=2 + 2 * (i % 2)) for i in range(3)]
        path = tmp_path / "pairs.jsonl"
        write_pairs(pairs, path)
        back = read_pairs(path)
        assert back == pairs

    def test_rewrite_is_byte_identical(self, tmp_path):
        pairs = [make_pair(f"pair-{i}") for i in range(3)]
        first = tmp_path / "a" / "pairs.jsonl"
        second = tmp_path / "b" / "pairs.jsonl"
        write_pairs(pairs, first)
        write_pairs(read_pairs(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair()], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(ManifestParseError) as exc:
            read_pairs(path)
        assert exc.value.line == 2

    def test_a_duration_that_overflows_to_inf_is_a_parse_error(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair()], path)
        path.write_text(path.read_text().replace('"duration_s":5.0', '"duration_s":1e999', 1))
        with pytest.raises(ManifestParseError, match="must be finite") as exc:
            read_pairs(path)
        assert type(exc.value) is ManifestParseError and exc.value.line == 1

    def test_too_many_turns_rejected_with_code(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair(n_turns=18)], path)
        with pytest.raises(InvariantError) as exc:
            read_pairs(path)
        assert TOO_MANY_TURNS in exc.value.codes
        assert exc.value.line == 1

    def test_pair_level_mismatches_rejected(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair(n_turns=4)], path)
        rec = json.loads(path.read_text())
        rec["rejected"]["turns"] = rec["rejected"]["turns"][:2]
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(InvariantError) as exc:
            read_pairs(path)
        assert TURN_COUNT_MISMATCH in exc.value.codes

    def test_each_pair_read_is_validated_once(self, tmp_path, monkeypatch):
        import episcore.episodes as episodes

        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair(f"p{i}", n_turns=4) for i in range(3)], path)
        calls, validate = [], episodes.validate_pair
        monkeypatch.setattr(episodes, "validate_pair", lambda c, r: calls.append(c.episode_id) or validate(c, r))
        assert len(read_pairs(path)) == 3 and len(calls) == 3
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["rejected"]["turns"] = rec["rejected"]["turns"][:3]  # odd, and one turn short of the chosen side
        path.write_text("\n".join([lines[0], json.dumps(rec), lines[2]]) + "\n")
        calls.clear()
        with pytest.raises(InvariantError) as exc:
            read_pairs(path)
        assert exc.value.codes == [ODD_TURNS, TURN_COUNT_MISMATCH] and exc.value.line == 2 and len(calls) == 2

    def test_unknown_tier_is_a_parse_error(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair()], path)
        rec = json.loads(path.read_text())
        rec["source_tier"] = "studio"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ManifestParseError):
            read_pairs(path)

    def test_tier_mismatch_code_exists(self):
        # The reader constructs both episodes with the record's tier, so the
        # TIER_MISMATCH code is exercised through validate_pair directly.
        from episcore.episodes import validate_pair

        codes = validate_pair(make_episode(2, tier="wild"), make_episode(2, tier="scripted"))
        assert codes == [TIER_MISMATCH]

    def test_timestamps_survive_round_trip(self, tmp_path):
        pair = make_pair()
        pair.chosen.turns[0].start_s = 1.5
        pair.chosen.turns[0].end_s = 6.5
        path = tmp_path / "pairs.jsonl"
        write_pairs([pair], path)
        back = read_pairs(path)
        assert back[0].chosen.turns[0].start_s == 1.5
        assert back[0].chosen.turns[0].end_s == 6.5

    def test_duplicate_pair_id_rejected_on_write(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        with pytest.raises(DuplicateIdError) as exc:
            write_pairs([make_pair("p"), make_pair("q"), make_pair("p")], path)
        assert exc.value.code == "DUPLICATE_ID"
        assert not path.exists()

    def test_duplicate_pair_id_rejected_on_read_with_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair("p"), make_pair("q"), make_pair("r")], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[2])
        rec["pair_id"] = "p"
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DuplicateIdError) as exc:
            read_pairs(path)
        assert exc.value.code == "DUPLICATE_ID"
        assert exc.value.line == 3

    def test_non_object_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair("p")], path)
        path.write_text(path.read_text(encoding="utf-8") + "[1, 2]\n", encoding="utf-8")
        with pytest.raises(ManifestParseError) as exc:
            read_pairs(path)
        assert exc.value.line == 2

    def test_duplicate_episode_id_rejected_on_write_and_read(self, tmp_path):
        first, second = make_episode(2, episode_id="e"), make_episode(2, episode_id="e")
        first.turns[0].features[...] = 1.0
        second.turns[0].features[...] = 2.0
        path = tmp_path / "episodes.jsonl"
        with pytest.raises(DuplicateIdError):
            write_episodes([first, second], path)
        assert not path.exists() and not (tmp_path / "episodes.jsonl_features").exists()
        write_episodes([first], path)
        line = path.read_text(encoding="utf-8")
        path.write_text(line + line, encoding="utf-8")
        with pytest.raises(DuplicateIdError) as exc:
            read_episodes(path)
        assert exc.value.line == 2

    def test_ids_that_differ_only_in_escaped_characters_keep_their_features(self, tmp_path):
        ids = ["x/1", "x_1", "x%2F1", "x\\1", "x%5C1"]
        pairs = []
        for i, pid in enumerate(ids):
            pair = make_pair(pid)
            pair.chosen.turns[0].features[...] = float(i)
            pairs.append(pair)
        path = tmp_path / "pairs.jsonl"
        write_pairs(pairs, path)
        back = read_pairs(path)
        assert back == pairs
        assert [float(p.chosen.turns[0].features[0, 0]) for p in back] == [float(i) for i in range(len(ids))]
        assert sorted(os.listdir(tmp_path)) == ["pairs.jsonl", "pairs.jsonl.f32"]

    def test_episode_sidecars_make_their_directory_once(self, tmp_path, monkeypatch):
        made, mkdir = [], Path.mkdir
        monkeypatch.setattr(Path, "mkdir", lambda self, *a, **kw: made.append(self) or mkdir(self, *a, **kw))
        episodes_in = [make_episode(4, episode_id=f"ep-{i}") for i in range(5)]
        write_episodes(episodes_in, tmp_path / "episodes.jsonl")
        assert made.count(tmp_path / "episodes.jsonl_features") == 1 and len(made) <= 2  # features dir, manifest's
        assert len(os.listdir(tmp_path / "episodes.jsonl_features")) == 20
        assert read_episodes(tmp_path / "episodes.jsonl") == episodes_in

    def test_plain_ids_keep_their_sidecar_names(self, tmp_path):
        # Episode manifests keep one sidecar per turn, named from the id.
        path = tmp_path / "episodes.jsonl"
        write_episodes([make_episode(2, episode_id="ep-0_a.b")], path)
        rec = json.loads(path.read_text(encoding="utf-8"))
        assert rec["turns"][1]["features_path"] == "episodes.jsonl_features/ep-0_a.b.01.f32"
        assert sorted(os.listdir(tmp_path / "episodes.jsonl_features")) == ["ep-0_a.b.00.f32", "ep-0_a.b.01.f32"]

    def test_manifests_that_share_a_stem_keep_their_own_sidecars(self, tmp_path):
        first, second = make_episode(2, episode_id="e"), make_episode(2, episode_id="e")
        first.turns[0].features[...] = 1.0
        second.turns[0].features[...] = 2.0
        write_episodes([first], tmp_path / "x.jsonl")
        write_episodes([second], tmp_path / "x.json")
        assert read_episodes(tmp_path / "x.jsonl") == [first]
        assert read_episodes(tmp_path / "x.json") == [second]

    def test_a_rewrite_leaves_only_the_sidecars_its_manifest_names(self, tmp_path):
        a, b = make_episode(2, episode_id="a"), make_episode(4, episode_id="b")
        path, features = tmp_path / "episodes.jsonl", tmp_path / "episodes.jsonl_features"
        write_episodes([a, b], path)
        assert len(os.listdir(features)) == 6
        (features / "kept-dir").mkdir()
        old_layout = tmp_path / "episodes_features"  # a directory named from the stem is not this manifest's
        old_layout.mkdir()
        (old_layout / "b.00.f32").write_bytes(b"")
        write_episodes([a], path)
        assert sorted(os.listdir(features)) == ["a.00.f32", "a.01.f32", "kept-dir"]
        assert os.listdir(old_layout) == ["b.00.f32"]
        assert read_episodes(path) == [a]
        write_episodes([], path)
        assert os.listdir(features) == ["kept-dir"] and read_episodes(path) == []


def _turn_records(path: Path) -> list[dict]:
    return [t for line in path.read_text().splitlines() for side in ("chosen", "rejected")
            for t in json.loads(line)[side]["turns"]]


def _rewrite_first_turn(path: Path, line: int, **fields) -> None:
    lines = path.read_text().splitlines()
    rec = json.loads(lines[line - 1])
    rec["chosen"]["turns"][0].update(fields)
    lines[line - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def _write_sidecar_pairs(pairs: list[PreferencePair], path: Path) -> None:
    # The layout written before shards: one sidecar per turn, no row or frames.
    lines = []
    for pair in pairs:
        rec = {"pair_id": pair.pair_id, "criterion": pair.criterion.value, "split": pair.split,
               "source_tier": pair.source_tier}
        for side in ("chosen", "rejected"):
            ep = getattr(pair, side)
            turns = []
            for i, turn in enumerate(ep.turns):
                rel = f"{path.stem}_features/{pair.pair_id}.{side}.{i:02d}.f32"
                write_features(path.parent / rel, turn.features)
                turns.append({"speaker_id": turn.speaker_id, "transcript": turn.transcript,
                              "duration_s": turn.duration_s, "features_path": rel})
            rec[side] = {"episode_id": ep.episode_id, "metadata": ep.metadata, "turns": turns}
        lines.append(json.dumps(rec))
    path.write_text("\n".join(lines) + "\n")


_PAIR_LAYOUTS = {"shard": write_pairs, "sidecars": _write_sidecar_pairs}


class _TrickleFile(io.FileIO):
    """A raw file that moves at most 5 bytes a read: not a multiple of the 16-byte row."""

    reads = 0

    def readinto(self, b):
        self.reads += 1
        return super().readinto(memoryview(b).cast("B")[:5])


class TestFeatureShard:
    """A pair manifest keeps every turn's frames in one shard file."""

    def _pairs(self):
        pairs = [make_pair(f"p{i}", n_turns=2 + 2 * (i % 2)) for i in range(3)]
        for i, pair in enumerate(pairs):
            for j, turn in enumerate(pair.chosen.turns + pair.rejected.turns):
                turn.features = np.arange(turn.features.size, dtype=np.float32).reshape(-1, D_IN) + 100 * i + j
        return pairs

    def test_turns_name_consecutive_rows_of_one_shard(self, tmp_path):
        pairs = self._pairs()
        path = tmp_path / "train.jsonl"
        write_pairs(pairs, path)
        turns = _turn_records(path)
        assert {t["features_path"] for t in turns} == {"train.jsonl.f32"}
        assert [t["row"] for t in turns] == list(np.cumsum([0] + [t["frames"] for t in turns[:-1]]))
        want = np.concatenate([t.features for p in pairs for t in p.chosen.turns + p.rejected.turns])
        assert np.array_equal(read_features(shard_path(path)), want)
        assert sorted(os.listdir(tmp_path)) == ["train.jsonl", "train.jsonl.f32"]

    def test_shard_is_named_from_the_whole_file_name(self, tmp_path):
        first, second = make_pair("a"), make_pair("a")
        second.chosen.turns[0].features[...] = 2.0
        write_pairs([first], tmp_path / "p.jsonl")
        write_pairs([second], tmp_path / "p.json")
        write_pairs([first], tmp_path / "p.f32")
        assert read_pairs(tmp_path / "p.jsonl") == [first]
        assert read_pairs(tmp_path / "p.json") == [second]
        assert read_pairs(tmp_path / "p.f32") == [first]
        assert shard_path(tmp_path / "p.f32") == tmp_path / "p.f32.f32"

    def test_each_feature_file_is_read_once(self, tmp_path, monkeypatch):
        # One read per turn, of the rows it names; together they read each shard row once, in order.
        import episcore.episodes as episodes

        path = tmp_path / "pairs.jsonl"
        pairs = self._pairs()
        write_pairs(pairs, path)
        reads, read_rows = [], episodes._read_rows
        monkeypatch.setattr(episodes, "_read_rows", lambda fh, p, row, frames, *rest: reads.append((row, frames))
                            or read_rows(fh, p, row, frames, *rest))
        monkeypatch.setattr(episodes, "read_features", lambda p: pytest.fail(f"read {p} whole"))
        read_pairs(path)
        frames = [t.n_frames for p in pairs for t in p.chosen.turns + p.rejected.turns]
        assert reads == list(zip(np.cumsum([0] + frames[:-1]).tolist(), frames))
        assert 16 + sum(frames) * 4 * D_IN == os.path.getsize(shard_path(path))

    @pytest.mark.parametrize("layout", _PAIR_LAYOUTS)
    def test_short_reads_continue_where_they_stopped(self, tmp_path, monkeypatch, layout):
        # A read of the file may move fewer bytes than asked (Linux moves at most about 2 GiB a call).
        import episcore.episodes as episodes

        path = tmp_path / "pairs.jsonl"
        pairs = self._pairs()
        _PAIR_LAYOUTS[layout](pairs, path)
        raws, open_features = [], episodes._open_features

        def trickling(path):
            fh, rows, d_in = open_features(path)
            fh.close()
            raws.append(_TrickleFile(path))
            return io.BufferedReader(raws[-1]), rows, d_in

        monkeypatch.setattr(episodes, "_open_features", trickling)
        assert read_pairs(path) == pairs
        turns = [t for p in pairs for t in p.chosen.turns + p.rejected.turns]
        assert sum(raw.reads for raw in raws) >= sum(t.features.nbytes for t in turns) / 5
        if layout == "shard":
            assert np.array_equal(read_features(shard_path(path)), np.concatenate([t.features for t in turns]))

    @pytest.mark.parametrize("first", [0, 5], ids=["nothing", "five-bytes"])
    def test_a_read_that_stops_before_the_end_is_feature_io(self, tmp_path, monkeypatch, first):
        import episcore.episodes as episodes

        path = tmp_path / "pairs.jsonl"
        write_pairs(self._pairs(), path)
        open_features = episodes._open_features

        def truncating(path):  # the file loses all but ``first`` bytes of its rows once its size is checked
            fh, rows, d_in = open_features(path)
            fh.close()
            os.truncate(path, 16 + first)
            return open(path, "rb"), rows, d_in

        monkeypatch.setattr(episodes, "_open_features", truncating)
        want = 3 * 4 * D_IN  # the first turn of p0: three frames
        with pytest.raises(FeatureIOError, match=rf"^line 1: feature sidecar .*pairs.jsonl.f32: read {first} of "
                                                 rf"{want} bytes at row 0$"):
            read_pairs(path)

    def test_reading_needs_no_positioned_read(self, tmp_path, monkeypatch):
        pairs = self._pairs()
        write_pairs(pairs, tmp_path / "pairs.jsonl")
        episodes_in = [make_episode(episode_id=f"ep-{i}") for i in range(2)]
        write_episodes(episodes_in, tmp_path / "episodes.jsonl")
        monkeypatch.delattr(os, "preadv", raising=False)
        assert read_pairs(tmp_path / "pairs.jsonl") == pairs
        assert read_episodes(tmp_path / "episodes.jsonl") == episodes_in
        turns = [t for p in pairs for t in p.chosen.turns + p.rejected.turns]
        assert np.array_equal(read_features(shard_path(tmp_path / "pairs.jsonl")),
                              np.concatenate([t.features for t in turns]))

    @pytest.mark.parametrize("layout", _PAIR_LAYOUTS)
    def test_a_feature_file_of_d_in_0_is_feature_io(self, tmp_path, layout):
        path = tmp_path / "pairs.jsonl"
        _PAIR_LAYOUTS[layout](self._pairs(), path)
        first = tmp_path / _turn_records(path)[0]["features_path"]
        write_features(first, np.zeros((3, 0), dtype=np.float32))
        with pytest.raises(FeatureIOError) as exc:
            read_pairs(path)
        assert str(exc.value) == f"line 1: feature file {first} has d_in 0; a turn needs d_in >= 1"

    @pytest.mark.parametrize("layout", _PAIR_LAYOUTS)
    def test_a_dropped_pair_leaves_none_of_its_rows_behind(self, tmp_path, layout):
        path = tmp_path / "pairs.jsonl"
        _PAIR_LAYOUTS[layout](self._pairs(), path)
        stream = iter_pairs(path)
        first, second = next(stream), next(stream)
        feats = [t.features for t in first.chosen.turns + first.rejected.turns]
        refs = [weakref.ref(f if f.base is None else f.base) for f in feats]
        del first, feats
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert [p.pair_id for p in stream] == ["p2"] and second.pair_id == "p1"

    @pytest.mark.parametrize("read", ["iter_pairs", "read_episodes"])
    def test_at_most_one_feature_file_is_open_at_a_time(self, tmp_path, monkeypatch, read):
        import episcore.episodes as episodes

        opened, most_open = [], []
        open_features = episodes._open_features

        def counting(path):
            fh, rows, d_in = open_features(path)
            opened.append(fh)
            most_open.append(sum(not f.closed for f in opened))
            return fh, rows, d_in

        monkeypatch.setattr(episodes, "_open_features", counting)
        path = tmp_path / "manifest.jsonl"
        if read == "iter_pairs":
            pairs = self._pairs()
            _write_sidecar_pairs(pairs, path)
            back = []
            for pair in iter_pairs(path):
                back.append(pair)
                assert sum(not f.closed for f in opened) == 1
            assert back == pairs
        else:
            episodes_in = [p.chosen for p in self._pairs()]
            for i, ep in enumerate(episodes_in):
                ep.episode_id = f"ep-{i}"
            write_episodes(episodes_in, path)
            assert read_episodes(path) == episodes_in
        # The pre-shard pair layout named its sidecar directory from the stem.
        features_dir = "manifest_features" if read == "iter_pairs" else "manifest.jsonl_features"
        n_turns = len(os.listdir(tmp_path / features_dir))
        assert len(opened) == n_turns and max(most_open) == 1
        assert all(f.closed for f in opened)

    def test_turns_hold_disjoint_writable_rows(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(self._pairs(), path)
        feats = [t.features for p in read_pairs(path) for t in p.chosen.turns + p.rejected.turns]
        assert all(f.flags.writeable and f.dtype == np.float32 for f in feats)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(feats) for b in feats[i + 1 :])

    @pytest.mark.parametrize("shift", [-1, 1], ids=["overlap", "gap"])
    def test_row_ranges_that_do_not_tile_the_shard_are_feature_io(self, tmp_path, shift):
        path = tmp_path / "pairs.jsonl"
        write_pairs(self._pairs(), path)
        row = _turn_records(path)[4]["row"]  # the first turn of line 2
        _rewrite_first_turn(path, 2, row=row + shift)
        with pytest.raises(FeatureIOError) as exc:
            read_pairs(path)
        assert exc.value.line == 2
        assert f"{shard_path(path)}: a turn starts at row {row + shift}, not at row {row}" in str(exc.value)

    def test_a_manifest_cut_at_a_line_boundary_is_feature_io_at_its_last_line(self, tmp_path):
        path, cut = tmp_path / "pairs.jsonl", tmp_path / "cut.jsonl"
        pairs = self._pairs()
        write_pairs(pairs, path)
        cut.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:2]))
        stream = iter_pairs(cut)
        assert [next(stream), next(stream)] == pairs[:2]
        with pytest.raises(FeatureIOError) as exc:
            next(stream)
        rows = sum(t.n_frames for p in pairs for t in p.chosen.turns + p.rejected.turns)
        read = sum(t.n_frames for p in pairs[:2] for t in p.chosen.turns + p.rejected.turns)
        assert exc.value.line == 2
        assert f"{shard_path(path)}: its turns end at row {read} of its {rows} rows" in str(exc.value)
        assert list(read_pair_tiers(cut)) == ["p0", "p1"]  # the header reader reads no feature file

    def test_per_turn_sidecar_pair_manifest_still_reads(self, tmp_path):
        pairs = self._pairs()
        path = tmp_path / "pairs.jsonl"
        _write_sidecar_pairs(pairs, path)
        back = read_pairs(path)
        assert back == pairs
        feats = [t.features for p in back for t in p.chosen.turns + p.rejected.turns]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(feats) for b in feats[i + 1 :])

    def test_a_record_of_more_turns_than_one_read_takes_fails_by_its_rule(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair("long", n_turns=600)], path)
        with pytest.raises(InvariantError) as exc:
            read_pairs(path)
        assert exc.value.codes == [TOO_MANY_TURNS] and exc.value.line == 1

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"row": 3.0}, ManifestParseError),
            ({"row": True}, ManifestParseError),
            ({"row": -1}, ManifestParseError),
            ({"row": "3"}, ManifestParseError),
            ({"frames": 3.0}, ManifestParseError),
            ({"frames": False}, ManifestParseError),
            ({"frames": 0}, ManifestParseError),
            ({"frames": None}, ManifestParseError),
            ({"row": 10**6}, FeatureIOError),
            ({"frames": 10**6}, FeatureIOError),
        ],
        ids=["float_row", "bool_row", "negative_row", "string_row", "float_frames", "bool_frames", "zero_frames",
             "null_frames", "row_past_end", "frames_past_end"],
    )
    def test_bad_row_range_fails_with_code_and_line(self, tmp_path, fields, error):
        path = tmp_path / "pairs.jsonl"
        write_pairs(self._pairs(), path)
        _rewrite_first_turn(path, 2, **fields)
        with pytest.raises(error) as exc:
            read_pairs(path)
        assert type(exc.value) is error and exc.value.line == 2
        if error is FeatureIOError:
            assert str(shard_path(path)) in str(exc.value) and "past its" in str(exc.value)

    def test_row_without_frames_is_a_parse_error(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(self._pairs(), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[0])
        del rec["rejected"]["turns"][1]["frames"]
        path.write_text(json.dumps(rec) + "\n" + "\n".join(lines[1:]) + "\n")
        with pytest.raises(ManifestParseError, match="missing key 'frames'") as exc:
            read_pairs(path)
        assert exc.value.line == 1

    def test_mixed_d_in_is_rejected_before_writing(self, tmp_path):
        odd = make_pair("odd")
        odd.rejected.turns[1] = make_turn(speaker="spk-b", d_in=D_IN + 1)
        with pytest.raises(ShapeMismatchError):
            write_pairs([make_pair("p"), odd], tmp_path / "pairs.jsonl")
        assert not any(tmp_path.iterdir())

    def test_duplicate_pair_id_leaves_no_shard(self, tmp_path):
        with pytest.raises(DuplicateIdError):
            write_pairs([make_pair("p"), make_pair("p")], tmp_path / "pairs.jsonl")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("end", [-4, 10], ids=["rows", "header"])
    def test_truncated_shard_is_a_feature_io_error(self, tmp_path, end):
        path = tmp_path / "pairs.jsonl"
        write_pairs(self._pairs(), path)
        shard = shard_path(path)
        shard.write_bytes(shard.read_bytes()[:end])
        with pytest.raises(FeatureIOError, match="feature sidecar .*pairs.jsonl.f32") as exc:
            read_pairs(path)
        assert exc.value.line == 1  # the size is checked when the first turn opens the shard

    def test_the_shard_is_whole_on_disk_before_the_jsonl_is_written(self, tmp_path, monkeypatch):
        import episcore.episodes as episodes

        pairs, path = self._pairs(), tmp_path / "pairs.jsonl"
        want = np.concatenate([t.features for p in pairs for t in p.chosen.turns + p.rejected.turns])
        seen, write_jsonl_ = [], episodes.write_jsonl

        def checking(records, target):
            seen.append(read_features(shard_path(path)))  # a short or unflushed shard is FEATURE_IO here
            write_jsonl_(records, target)

        monkeypatch.setattr(episodes, "write_jsonl", checking)
        write_pairs(pairs, path)
        assert len(seen) == 1 and np.array_equal(seen[0], want)
        assert read_pairs(path) == pairs

    def test_empty_pair_list_writes_an_empty_shard(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([], path)
        assert read_pairs(path) == []
        assert read_features(shard_path(path)).shape == (0, 0)


class TestIterPairs:
    def test_missing_manifest_raises_at_the_call(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_pairs(tmp_path / "nope.jsonl")

    def test_pairs_before_a_bad_line_are_yielded_first(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        pairs = [make_pair(f"p{i}") for i in range(3)]
        write_pairs(pairs, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        stream = iter_pairs(path)
        assert [next(stream) for _ in pairs] == pairs
        with pytest.raises(ManifestParseError) as err:
            next(stream)
        assert err.value.line == 4

    def test_read_pairs_is_the_whole_stream(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair(f"p{i}") for i in range(3)], path)
        assert read_pairs(path) == list(iter_pairs(path))


class TestJsonlWrites:
    def test_segment_records_keep_their_bytes(self, tmp_path):
        segments = [Segment("spk-a", 0.0, 1.5, "yeah é", "feats/a.f32"), Segment("spk-b", 2, 3.25, "", "b.f32")]
        write_segments(SegmentManifest(segments), tmp_path / "segments.jsonl")
        assert (tmp_path / "segments.jsonl").read_bytes() == (
            '{"speaker_id":"spk-a","start_s":0.0,"end_s":1.5,"transcript":"yeah é","features_path":"feats/a.f32"}\n'
            '{"speaker_id":"spk-b","start_s":2,"end_s":3.25,"transcript":"","features_path":"b.f32"}\n'
        ).encode("utf-8")

    def test_failing_records_leave_the_old_file_and_no_temporary_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl([{"a": 1}], path)

        def records():
            yield {"a": 2}
            yield {"a": 3}
            raise RuntimeError("record source failed")

        with pytest.raises(RuntimeError, match="record source failed"):
            write_jsonl(records(), path)
        assert path.read_bytes() == b'{"a":1}\n'
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_the_old_file_is_replaced_not_rewritten(self, tmp_path):
        # A reader that opened the old file keeps reading the old bytes.
        path = tmp_path / "out.jsonl"
        write_jsonl([{"a": 1}], path)
        with open(path, "rb") as old:
            write_jsonl(({"a": i} for i in range(2, 4)), path)
            assert old.read() == b'{"a":1}\n'
        assert path.read_bytes() == b'{"a":2}\n{"a":3}\n'
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_new_file_has_the_permissions_of_a_plain_open(self, tmp_path):
        write_jsonl([{"a": 1}], tmp_path / "out.jsonl")
        with open(tmp_path / "plain.jsonl", "w", encoding="utf-8"):
            pass
        assert os.stat(tmp_path / "out.jsonl").st_mode == os.stat(tmp_path / "plain.jsonl").st_mode


class TestSegmentManifest:
    def test_a_manifest_written_beside_the_one_it_was_read_from_reads_back_equal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths, as a command line gives them
        write_features("a/f/s0.f32", np.zeros((2, D_IN), dtype=np.float32))
        segments = [Segment("spk-a", 0.0, 1.0, "yeah", "f/s0.f32"), Segment("spk-b", 1.0, 2.0, "ça va", "f/s0.f32")]
        write_segments(SegmentManifest(segments), "a/segments.jsonl")
        manifest = read_segments("a/segments.jsonl")
        assert manifest == SegmentManifest(segments, base_dir="a")  # features_path as written
        write_segments(manifest, "a/again.jsonl")
        assert Path("a/again.jsonl").read_bytes() == Path("a/segments.jsonl").read_bytes()
        again = read_segments("a/again.jsonl")
        assert again == manifest
        (episode,) = group_segments(again, GroupingConfig())
        assert [t.n_frames for t in episode.turns] == [2, 2]

    def test_unsorted_records_are_refused_before_anything_is_written(self, tmp_path):
        manifest = SegmentManifest([Segment("a", 0.0, 1.0, "x", "s.f32"), Segment("b", 2.0, 3.0, "y", "s.f32")])
        manifest.records.reverse()
        with pytest.raises(ValueError, match="sorted by start_s; 0.0 follows 2.0"):
            write_segments(manifest, tmp_path / "segments.jsonl")
        assert not any(tmp_path.iterdir())
        with pytest.raises(ValueError, match="sorted by start_s; 0.0 follows 2.0"):
            SegmentManifest(manifest.records)


class TestJsonlText:
    def test_a_line_that_is_not_utf8_is_a_parse_error_with_its_number(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair("p0"), make_pair("p1")], path)
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + second.replace(b'"p1"', b'"p' + bytes([0xFF]) + b'1"'))
        stream = iter_pairs(path)
        assert next(stream).pair_id == "p0"
        with pytest.raises(ManifestParseError, match="not UTF-8") as exc:
            next(stream)
        assert exc.value.line == 2

    def test_crlf_line_ends_read_as_lf_ones(self, tmp_path):
        pairs = [make_pair("p0"), make_pair("p1", n_turns=4)]
        pairs[1].chosen.turns[0].transcript = "ça va\r\n"
        path = tmp_path / "pairs.jsonl"
        write_pairs(pairs, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert read_pairs(path) == pairs


# Ids and transcripts mix path separators, the escape character, whitespace
# and non-ASCII text, including strings that escape to each other's names.
_ID_TEXT = st.text(alphabet=st.sampled_from(list("aZ0/_%\\.2F5C \t\né中😀")), max_size=10)


def _with_lookalikes(ids: list[str]) -> list[str]:
    """ids plus, for each, the ids a lossy sidecar naming could confuse it with."""
    out = []
    for pid in ids:
        for alt in (pid, pid.replace("/", "_"), pid.replace("/", "%2F"), pid.replace("\\", "%5C")):
            if alt not in out:
                out.append(alt)
    return out


@given(
    ids=st.lists(_ID_TEXT, min_size=1, max_size=3).map(_with_lookalikes),
    transcripts=st.lists(_ID_TEXT, min_size=12, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_manifest_round_trip_over_arbitrary_ids(ids, transcripts):
    pairs = []
    for i, pid in enumerate(ids):
        pair = make_pair(pid)
        pair.chosen.turns[0].transcript = transcripts[i]
        pair.rejected.turns[1].features[...] = float(i)
        pairs.append(pair)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs
        assert sorted(os.listdir(tmp)) == ["pairs.jsonl", "pairs.jsonl.f32"]


def _leaves(value, path=()):
    """Paths to every string and number inside a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path]
    return [leaf for k, v in items for leaf in _leaves(v, path + (k,))]


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__  # str, list or dict


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.fixture(scope="module")
def written_manifests(tmp_path_factory):
    """A pair, an episode and a segment manifest of two records each, with
    their sidecars, and the reader of each; every one reads back cleanly."""
    root = tmp_path_factory.mktemp("manifests")
    write_pairs([make_pair("pair-0"), make_pair("pair-1")], root / "pairs.jsonl")
    turns = [make_turn(speaker=f"spk-{i % 2}", start_s=5.0 * i, end_s=5.0 * i + 4.5) for i in range(2)]
    write_episodes(
        [Episode(f"ep-{i}", turns, "semi-wild", {"source": "grouped"}) for i in range(2)], root / "episodes.jsonl"
    )
    write_features(root / "seg.f32", np.zeros((1, D_IN), dtype=np.float32))
    segments = [Segment(f"spk-{i}", float(i), i + 0.5, "yeah", "seg.f32") for i in range(2)]
    write_segments(SegmentManifest(segments), root / "segments.jsonl")
    readers = {"pairs.jsonl": read_pairs, "episodes.jsonl": read_episodes, "segments.jsonl": read_segments}
    for name, reader in readers.items():
        reader(root / name)
    return root, readers


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_leaf_of_another_json_type_fails_with_parse_error(written_manifests, data):
    root, readers = written_manifests
    name = data.draw(st.sampled_from(sorted(readers)))
    lines = (root / name).read_text().splitlines(keepends=True)
    rec = json.loads(lines[0])
    *parents, key = data.draw(st.sampled_from(_leaves(rec)))
    holder = functools.reduce(operator.getitem, parents, rec)
    old_type = _json_type(holder[key])
    holder[key] = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != old_type))
    edited = root / f"edited-{name}"
    edited.write_text(json.dumps(rec) + "\n" + "".join(lines[1:]))
    with pytest.raises(ManifestParseError) as info:
        readers[name](edited)
    assert info.value.line == 1


@pytest.fixture(scope="module")
def cut_source(tmp_path_factory):
    """A written pair manifest of three pairs, one transcript non-ASCII: (directory, pairs, JSONL bytes)."""
    root = tmp_path_factory.mktemp("cut")
    pairs = [make_pair(f"p{i}", n_turns=2 + 2 * (i % 2)) for i in range(3)]
    pairs[1].rejected.turns[2].transcript = "ça va, 好的"
    write_pairs(pairs, root / "pairs.jsonl")
    return root, pairs, (root / "pairs.jsonl").read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_proper_prefix_of_a_pair_manifest_is_a_coded_error(cut_source, data):
    root, pairs, raw = cut_source
    line_ends = [i + 1 for i, byte in enumerate(raw[:-1]) if byte == ord("\n")]
    in_a_character = [i for i in range(1, len(raw)) if raw[i] & 0xC0 == 0x80]  # before a UTF-8 continuation byte
    end = data.draw(
        st.one_of(st.sampled_from(line_ends), st.sampled_from(in_a_character), st.integers(1, len(raw) - 1))
    )
    cut = root / "cut.jsonl"  # beside the shard its records name
    cut.write_bytes(raw[:end])
    if end == len(raw) - 1:  # only the final newline dropped
        assert list(iter_pairs(cut)) == pairs
        return
    with pytest.raises(EpiscoreError) as exc:
        list(iter_pairs(cut))
    assert exc.value.code in ("PARSE_ERROR", "FEATURE_IO") and exc.value.line is not None
