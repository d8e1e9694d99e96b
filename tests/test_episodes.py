import functools
import json
import operator
import tempfile
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
    write_features,
)
from episcore.errors import DuplicateIdError, FeatureIOError, InvariantError, ManifestParseError

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
        with pytest.raises(ValueError):
            Turn("spk-a", "hi", 1.0, np.zeros((0, 4), dtype=np.float32))

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
        assert not path.exists() and not (tmp_path / "episodes_features").exists()
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
        assert read_pairs(path) == pairs
        assert len(list((tmp_path / "pairs_features").iterdir())) == 4 * len(ids)

    def test_plain_ids_keep_their_sidecar_names(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs([make_pair("pair-0_a.b")], path)
        rec = json.loads(path.read_text(encoding="utf-8"))
        assert rec["chosen"]["turns"][1]["features_path"] == "pairs_features/pair-0_a.b.chosen.01.f32"


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
