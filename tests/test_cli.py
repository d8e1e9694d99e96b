import json

import numpy as np
import pytest

from episcore import read_episodes, read_pairs, scorer, write_episodes, write_pairs, write_segments
from episcore.cli import main
from episcore.episodes import SOURCE_TIERS, Segment, SegmentManifest, shard_path, write_features
from episcore.evaluation import ScoredPair, write_scores

from conftest import make_episode, make_pair
from test_evaluation import REFERENCE_COUNTS


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_manifest(tmp_path):
    out_dir = tmp_path / "synth"
    assert run("synth", "--n", 12, "--out", "pairs.jsonl", "--out-dir", out_dir, "--seed", 3) == 0
    return out_dir / "pairs.jsonl"


class TestSynthCommand:
    def test_writes_manifest_and_run_manifest(self, synth_manifest):
        assert synth_manifest.exists()
        assert len(read_pairs(synth_manifest)) == 12
        manifest = json.loads((synth_manifest.parent / "run-manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["config"]["seed"] == 3
        assert "numpy" in manifest["versions"]

    def test_rerun_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--n", 6, "--out", "p.jsonl", "--out-dir", tmp_path / name, "--seed", 1) == 0
        for name in ("p.jsonl", "p.jsonl.f32"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_env_var_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EPISCORE_SEED", "7")
        assert run("synth", "--n", 4, "--out", "p.jsonl", "--out-dir", tmp_path) == 0
        manifest = json.loads((tmp_path / "run-manifest.json").read_text())
        assert manifest["config"]["seed"] == 7


class TestPipelineCommands:
    def test_group_filter_stratify_flow(self, tmp_path):
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
        seg_path = tmp_path / "segments.jsonl"
        write_segments(segments, seg_path)
        assert run("pipeline", "group", "--manifest", seg_path, "--out", "episodes.jsonl", "--out-dir", tmp_path) == 0
        episodes = read_episodes(tmp_path / "episodes.jsonl")
        assert len(episodes) == 1 and episodes[0].n_turns == 4

        assert (
            run(
                "pipeline", "filter",
                "--in", tmp_path / "episodes.jsonl",
                "--out", "kept.jsonl",
                "--rejects", "rejects.jsonl",
                "--out-dir", tmp_path,
            )
            == 0
        )
        assert len(read_episodes(tmp_path / "kept.jsonl")) == 1
        assert (tmp_path / "rejects.jsonl").read_text() == ""

    def test_group_of_a_segment_with_no_frames_fails_with_feature_io(self, tmp_path, capsys):
        full, empty = tmp_path / "full.f32", tmp_path / "empty.f32"
        write_features(full, np.full((3, 8), 0.5, dtype=np.float32))
        write_features(empty, np.zeros((0, 8), dtype=np.float32))
        segments = [Segment("a", 0.0, 10.0, "x", "full.f32"), Segment("b", 12.5, 20.0, "y", "empty.f32")]
        write_segments(SegmentManifest(segments), tmp_path / "segments.jsonl")
        out_dir = tmp_path / "out"
        argv = ["--manifest", tmp_path / "segments.jsonl", "--out", "episodes.jsonl", "--out-dir", out_dir]
        assert run("pipeline", "group", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[FEATURE_IO]:") and str(empty) in err and "12.5" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["run-manifest.json"]

    def test_filter_of_a_turn_file_with_no_rows_fails_with_feature_io(self, tmp_path, capsys):
        manifest = tmp_path / "episodes.jsonl"
        write_episodes([make_episode(episode_id="e0"), make_episode(episode_id="e1")], manifest)
        empty = tmp_path / json.loads(manifest.read_text().splitlines()[1])["turns"][0]["features_path"]
        write_features(empty, np.zeros((0, 4), dtype=np.float32))
        out_dir = tmp_path / "out"
        argv = ["--in", manifest, "--out", "kept.jsonl", "--rejects", "rejects.jsonl", "--out-dir", out_dir]
        assert run("pipeline", "filter", *argv) == 1
        err = capsys.readouterr().err
        assert err == f"error[FEATURE_IO]: line 2: feature file {empty} has no rows; a turn needs at least one\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["run-manifest.json"]

    def test_filter_of_a_turn_file_of_d_in_0_fails_with_feature_io(self, tmp_path, capsys):
        manifest = tmp_path / "episodes.jsonl"
        write_episodes([make_episode(episode_id="e0"), make_episode(episode_id="e1")], manifest)
        flat = tmp_path / json.loads(manifest.read_text().splitlines()[0])["turns"][1]["features_path"]
        write_features(flat, np.zeros((3, 0), dtype=np.float32))
        out_dir = tmp_path / "out"
        argv = ["--in", manifest, "--out", "kept.jsonl", "--rejects", "rejects.jsonl", "--out-dir", out_dir]
        assert run("pipeline", "filter", *argv) == 1
        err = capsys.readouterr().err
        assert err == f"error[FEATURE_IO]: line 1: feature file {flat} has d_in 0; a turn needs d_in >= 1\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["run-manifest.json"]

    def test_stratify_command(self, tmp_path):
        pairs = [
            make_pair(f"p{i:03d}", split="val", metadata={"primary_dimension": "x", "secondary_dimension": "laughter"})
            for i in range(80)
        ]
        src = tmp_path / "val.jsonl"
        write_pairs(pairs, src)
        assert (
            run("pipeline", "stratify", "--in", src, "--cap", 50, "--seed", 4, "--out", "bench.jsonl", "--out-dir", tmp_path)
            == 0
        )
        bench = read_pairs(tmp_path / "bench.jsonl")
        assert len(bench) == 50
        assert all(p.split == "bench" for p in bench)


class TestTrainScoreEval:
    def test_truncated_checkpoint_fails_with_code(self, synth_manifest, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(bytes(20))
        argv = ["--pairs", synth_manifest, "--checkpoint", ckpt, "--out", "s.jsonl", "--out-dir", tmp_path]
        assert run("score", *argv) == 1
        assert "error[BAD_CHECKPOINT]" in capsys.readouterr().err

    @staticmethod
    def _spoil_last_line(lines, kind):
        last = json.loads(lines[-1])
        if kind == "PARSE_ERROR":
            return lines[:-1] + ["{not json\n"]
        if kind == "DUPLICATE_ID":
            last["pair_id"] = json.loads(lines[0])["pair_id"]
        else:  # the rejected side loses a turn
            last["rejected"]["turns"] = last["rejected"]["turns"][:-1]
        return lines[:-1] + [json.dumps(last) + "\n"]

    @pytest.mark.parametrize("code", ["PARSE_ERROR", "DUPLICATE_ID", "INVARIANT_ERROR"])
    def test_score_of_a_bad_last_line_fails_with_its_code_and_writes_no_scores(self, tmp_path, capsys, code):
        # 40 pairs: the first page of 32 is scored before the bad line is read.
        assert run("synth", "--n", 40, "--out", "p.jsonl", "--out-dir", tmp_path, "--seed", 3) == 0
        manifest = tmp_path / "p.jsonl"
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        manifest.write_text("".join(self._spoil_last_line(lines, code)), encoding="utf-8")
        ckpt = tmp_path / "m.ckpt"
        cfg = scorer.ScorerConfig(d_in=8, pooling="attention")
        scorer.save_checkpoint(ckpt, cfg, scorer.init_params(cfg, seed=1))
        argv = ["--pairs", manifest, "--checkpoint", ckpt, "--out", "s.jsonl", "--out-dir", tmp_path / "out"]
        assert run("score", *argv) == 1
        assert capsys.readouterr().err.startswith(f"error[{code}]: line 40: ")
        assert not (tmp_path / "out" / "s.jsonl").exists()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["run-manifest.json"]

    def test_full_cycle(self, tmp_path):
        train_dir = tmp_path / "run"
        assert run("synth", "--n", 64, "--out", "train.jsonl", "--out-dir", tmp_path, "--seed", 0) == 0
        assert run("synth", "--n", 24, "--out", "val.jsonl", "--out-dir", tmp_path, "--seed", 1, "--split", "val") == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text("d_in = 8\nd = 8\nhead_hidden = 8\ntotal_steps = 40\neval_every = 20\nbatch_size = 16\n")
        assert (
            run(
                "train",
                "--pairs", tmp_path / "train.jsonl",
                "--val", tmp_path / "val.jsonl",
                "--config", cfg,
                "--out-dir", train_dir,
                "--seed", 0,
            )
            == 0
        )
        assert (train_dir / "best.ckpt").exists()
        history = [json.loads(line) for line in (train_dir / "history.jsonl").read_text().splitlines()]
        assert len(history) == 40
        assert history[0]["step"] == 1 and "loss_total" in history[0]
        assert any(h["val_loss"] is not None for h in history)

        assert (
            run(
                "score",
                "--pairs", tmp_path / "val.jsonl",
                "--checkpoint", train_dir / "best.ckpt",
                "--out", "scores.jsonl",
                "--out-dir", tmp_path,
            )
            == 0
        )
        scores = (tmp_path / "scores.jsonl").read_text().splitlines()
        assert len(scores) == 24

        eval_dir = tmp_path / "eval"
        assert (
            run("eval", "--scores", tmp_path / "scores.jsonl", "--pairs", tmp_path / "val.jsonl", "--out-dir", eval_dir)
            == 0
        )
        report = json.loads((eval_dir / "report.json").read_text())
        assert set(report["counts"]) == {"wild", "semi-wild", "scripted", "colloquial"}
        csv_lines = (eval_dir / "report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("wild,semi_wild,")

    def test_eval_is_deterministic(self, tmp_path):
        assert run("synth", "--n", 16, "--out", "v.jsonl", "--out-dir", tmp_path, "--seed", 2) == 0
        pairs = read_pairs(tmp_path / "v.jsonl")
        from episcore import ScoredPair
        from episcore.evaluation import write_scores

        scored = [ScoredPair(p.pair_id, 1.0, 0.0, p.source_tier, p.criterion.value) for p in pairs]
        write_scores(scored, tmp_path / "s.jsonl")
        for name in ("e1", "e2"):
            assert run("eval", "--scores", tmp_path / "s.jsonl", "--out-dir", tmp_path / name) == 0
        assert (tmp_path / "e1" / "report.json").read_bytes() == (tmp_path / "e2" / "report.json").read_bytes()
        assert (tmp_path / "e1" / "report.csv").read_bytes() == (tmp_path / "e2" / "report.csv").read_bytes()

    def test_eval_empty_scores_fails_with_empty_set(self, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        assert run("eval", "--scores", tmp_path / "empty.jsonl", "--out-dir", tmp_path) == 1
        assert "EMPTY_SET" in capsys.readouterr().err

    def test_eval_duplicate_score_id_fails(self, tmp_path, capsys):
        scored = [ScoredPair(f"p{i}", 1.0, 0.0, tier, "modality") for i, tier in enumerate(SOURCE_TIERS)]
        path = tmp_path / "scores.jsonl"
        write_scores(scored, path)  # which refuses a duplicate itself, so the first line is repeated by hand
        path.write_bytes(path.read_bytes() + path.read_bytes().splitlines(keepends=True)[0])
        assert run("eval", "--scores", path, "--out-dir", tmp_path) == 1
        assert "error[DUPLICATE_ID]: line 5: duplicate pair_id 'p0'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_eval_reference_fixture_csv(self, tmp_path):
        # Score file realizing the first reference scorecard by counts.
        from episcore import ScoredPair
        from episcore.evaluation import write_scores

        acc = {"wild": 1.0, "semi-wild": 0.9247, "scripted": 0.9227, "colloquial": 0.972}
        scored = []
        for subset, frac in acc.items():
            n = REFERENCE_COUNTS[subset]
            k = round(frac * n)
            for i in range(n):
                scored.append(ScoredPair(f"{subset}-{i}", 1.0 if i < k else 0.0, 0.5, subset, "modality"))
        write_scores(scored, tmp_path / "scores.jsonl")
        assert run("eval", "--scores", tmp_path / "scores.jsonl", "--out-dir", tmp_path) == 0
        row = (tmp_path / "report.csv").read_text().splitlines()[1]
        got = [float(v) for v in row.split(",")]
        want = [100.00, 92.47, 92.27, 96.61, 94.91, 97.20, 96.70, 96.06]
        assert got == pytest.approx(want, abs=0.015)  # double rounding: raw counts vs rounded scorecard


class TestEvalPairs:
    """`eval --pairs` cross-checks ids and subsets against the manifest JSONL."""

    def _write_scores(self, manifest, edit=lambda rows: rows):
        from episcore import ScoredPair
        from episcore.evaluation import write_scores

        rows = [(p.pair_id, p.source_tier, p.criterion.value) for p in read_pairs(manifest)]
        path = manifest.parent / "scores.jsonl"
        write_scores([ScoredPair(i, 1.0, 0.0, tier, crit) for i, tier, crit in edit(rows)], path)
        return path

    def test_reads_no_feature_sidecars(self, synth_manifest, tmp_path):
        scores = self._write_scores(synth_manifest)
        shard_path(synth_manifest).unlink()
        assert run("eval", "--scores", scores, "--pairs", synth_manifest, "--out-dir", tmp_path / "e") == 0
        assert json.loads((tmp_path / "e" / "report.json").read_text())["counts"]

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda rows: rows + [("ghost", "wild", "modality")], "error[PARSE_ERROR]: scored pair ghost not present"),
            (lambda rows: [(i, "scripted" if t == "wild" else "wild", c) for i, t, c in rows], "does not match"),
        ],
        ids=["unknown_id", "tier_mismatch"],
    )
    def test_score_manifest_mismatch_fails(self, synth_manifest, tmp_path, capsys, edit, needle):
        scores = self._write_scores(synth_manifest, edit)
        assert run("eval", "--scores", scores, "--pairs", synth_manifest, "--out-dir", tmp_path) == 1
        assert needle in capsys.readouterr().err

    def test_every_manifest_pair_must_be_scored(self, synth_manifest, tmp_path, capsys):
        ids = [p.pair_id for p in read_pairs(synth_manifest)]
        scores = self._write_scores(synth_manifest, lambda rows: rows[:1] + rows[2:])
        assert run("eval", "--scores", scores, "--pairs", synth_manifest, "--out-dir", tmp_path / "e") == 1
        err = capsys.readouterr().err
        assert err.startswith("error[PARSE_ERROR]: ")
        assert f"scores 11 of the 12 pairs in {synth_manifest}; first unscored pair: {ids[1]}" in err
        assert not (tmp_path / "e" / "report.json").exists()

    def test_duplicate_manifest_id_fails(self, synth_manifest, tmp_path, capsys):
        scores = self._write_scores(synth_manifest)
        lines = synth_manifest.read_text().splitlines(keepends=True)
        synth_manifest.write_text("".join(lines + lines[:1]))
        assert run("eval", "--scores", scores, "--pairs", synth_manifest, "--out-dir", tmp_path) == 1
        assert f"error[DUPLICATE_ID]: line {len(lines) + 1}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--pairs", "{missing}", "--checkpoint", "{missing}", "--out", "s.jsonl"],
        ["synth", "--config", "{missing}", "--n", "4", "--out", "p.jsonl"],
        ["eval", "--scores", "{missing}"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_input_file_exits_with_io_error(tmp_path, capsys, argv):
    missing = tmp_path / "nope"
    argv = [a.format(missing=missing) for a in argv]
    assert run(*argv, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[IO_ERROR]: ") and str(missing) in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["eval", "--scores", "{bad}"], False),
        (["agreement", "--rows", "{bad}"], True),
        (["synth", "--config", "{bad}", "--n", "4", "--out", "p.jsonl"], True),
        (["pipeline", "stratify", "--in", "{pairs}", "--train-ids", "{bad}", "--out", "b.jsonl"], True),
    ],
    ids=["eval-scores", "agreement-rows", "synth-config", "stratify-train-ids"],
)
def test_an_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, argv, named):
    bad, pairs = tmp_path / "bad.txt", tmp_path / "pairs.jsonl"
    bad.write_bytes(bytes([0xFF]) + b"\n")
    write_pairs([make_pair()], pairs)
    assert run(*[a.format(bad=bad, pairs=pairs) for a in argv], "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[PARSE_ERROR]: ") and "not UTF-8" in err
    assert (f"{bad} is not UTF-8" if named else "line 1: not UTF-8") in err


POSITIVE = "expected a positive integer"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--n", "0", "--out", "p.jsonl"], POSITIVE),
        (["synth", "--n", "two", "--out", "p.jsonl"], POSITIVE),
        (["e2e", "--n-train", "0"], POSITIVE),
        (["e2e", "--n-val", "0"], POSITIVE),
        (["e2e", "--steps", "-3"], POSITIVE),
        (["e2e", "--d-in", "0"], POSITIVE),
        (["gradcheck", "--draws", "0"], POSITIVE),
        (["pipeline", "group", "--manifest", "s.jsonl", "--out", "e.jsonl", "--tier", "bogus"], "invalid choice"),
        (["pipeline", "stratify", "--in", "pairs.jsonl", "--out", "b.jsonl", "--cap", "-1"], POSITIVE),
    ],
    ids=[
        "synth-n-zero", "synth-n-word", "e2e-n-train", "e2e-n-val", "e2e-steps", "e2e-d-in", "gradcheck-draws",
        "group-tier", "stratify-cap",
    ],
)
def test_count_flags_must_be_positive(tmp_path, capsys, argv, message):
    """A count below 1, or a tier outside the source tiers, is a usage
    error: exit 2 before anything is written."""
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out-dir", tmp_path)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--noise-std", "-1", "SynthConfig: noise_std must be >= 0"),
        ("--lambda-center", "-1", "TrainConfig: lambda_center must be >= 0"),
    ],
    ids=["noise_std", "lambda_center"],
)
def test_e2e_bad_config_flag_fails_before_writing(tmp_path, capsys, flag, value, message):
    assert run("e2e", "--n-train", 2, "--n-val", 1, flag, value, "--out-dir", tmp_path) == 1
    assert capsys.readouterr().err == f"error[PARSE_ERROR]: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run-manifest.json"]


def _write_segment_manifest(path):
    write_features(path.parent / "seg.f32", np.zeros((1, 4), dtype=np.float32))
    write_segments(SegmentManifest([Segment("a", 0.0, 1.0, "yeah", "seg.f32")]), path)


def _write_pair_manifest(path):
    write_pairs([make_pair()], path)


def _write_episode_manifest(path):
    write_episodes([make_episode()], path)


def _write_score_file(path):
    write_scores([ScoredPair(f"pair-{tier}", 0.5, -0.5, tier, "modality") for tier in SOURCE_TIERS], path)


def _break_first_record(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[0])
    edit(rec)
    path.write_text(json.dumps(rec) + "\n" + "".join(lines[1:]))


def _null_a_speakers(rec):
    for turn in rec["chosen"]["turns"][::2]:
        turn["speaker_id"] = None


GROUP = ["pipeline", "group", "--out", "out.jsonl", "--manifest"]
STRATIFY = ["pipeline", "stratify", "--out", "out.jsonl", "--in"]


@pytest.mark.parametrize(
    "command, write, edit",
    [
        (GROUP, _write_segment_manifest, lambda rec: rec.update(start_s=None)),
        (GROUP, _write_segment_manifest, lambda rec: rec.update(features_path=5)),
        (STRATIFY, _write_pair_manifest, lambda rec: rec["chosen"].update(turns=3)),
        (STRATIFY, _write_pair_manifest, lambda rec: rec["chosen"].update(metadata=[1])),
        (["pipeline", "filter", "--out", "out.jsonl", "--rejects", "r.jsonl", "--in"], _write_episode_manifest,
         lambda rec: rec.update(turns=None)),
        (STRATIFY, _write_pair_manifest, lambda rec: rec["chosen"]["turns"][0].update(transcript=None)),
        (STRATIFY, _write_pair_manifest, _null_a_speakers),
        (STRATIFY, _write_pair_manifest, lambda rec: rec.update(pair_id=None)),
        (STRATIFY, _write_pair_manifest, lambda rec: rec["chosen"]["metadata"].update(secondary_dimension=None)),
        (STRATIFY, _write_pair_manifest, lambda rec: rec["chosen"]["turns"][0].update(duration_s=10**400)),
        (STRATIFY, _write_pair_manifest, lambda rec: rec["chosen"]["turns"][0].update(duration_s=float("nan"))),
        (GROUP, _write_segment_manifest, lambda rec: rec.update(start_s=float("nan"))),
        (["eval", "--scores"], _write_score_file, lambda rec: rec.update(r_chosen=True)),
        (["eval", "--scores"], _write_score_file, lambda rec: rec.update(r_rejected="0.5")),
    ],
    ids=[
        "null_start", "numeric_features_path", "numeric_turns", "list_metadata", "null_turns",
        "null_transcript", "null_speaker_id", "null_pair_id", "null_metadata_value", "huge_int_duration",
        "nan_duration", "nan_start", "bool_score", "string_score",
    ],
)
def test_malformed_record_fails_with_parse_error(tmp_path, capsys, command, write, edit):
    manifest = tmp_path / "in.jsonl"
    write(manifest)
    _break_first_record(manifest, edit)
    assert run(*command, manifest, "--out-dir", tmp_path) == 1
    assert "error[PARSE_ERROR]: line 1: " in capsys.readouterr().err


def test_unsorted_segments_fail_with_the_line_of_the_first_one_out_of_order(tmp_path, capsys):
    write_features(tmp_path / "seg.f32", np.zeros((1, 4), dtype=np.float32))
    segments = [Segment("a", 2.0, 3.0, "yeah", "seg.f32"), Segment("b", 0.0, 1.0, "okay", "seg.f32")]
    manifest = tmp_path / "in.jsonl"
    manifest.write_text("".join(json.dumps(vars(seg)) + "\n" for seg in segments))
    assert run(*GROUP, manifest, "--out-dir", tmp_path) == 1
    assert "error[PARSE_ERROR]: line 2: " in capsys.readouterr().err


class TestAgreementCommand:
    def test_reference_table(self, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text(
            "subset,count,avg_margin,agree_rate\n"
            "high_confidence,20,1.65,0.883\n"
            "low_confidence,20,0.06,0.783\n"
            "random_sampling,20,0.77,0.767\n"
            "model_wrong,15,-0.19,0.933\n"
        )
        assert run("agreement", "--rows", rows, "--out-dir", tmp_path) == 0
        payload = json.loads((tmp_path / "agreement.json").read_text())
        assert payload["overall"]["agree_rate"] == pytest.approx(0.835, abs=0.001)
        assert payload["overall"]["se"] == pytest.approx(0.043, abs=0.001)
        assert len(payload["rows"]) == 4

    @pytest.mark.parametrize(
        "text, line",
        [
            ("subset,count,avg_margin,agree_rate\nlow,20,0.06,0.783\nhigh,abc,1.0,0.5\n", 3),
            ("subset,count,avg_margin,agree_rate\nhigh,0,1.0,0.5\n", 2),
            ("subset,count,avg_margin\nhigh,20,1.0\n", 2),
            ("subset,count,avg_margin,agree_rate\nlow,20,0.06,0.783\nhigh,20,nan,0.5\n", 3),
            ("subset,count,avg_margin,agree_rate\nhigh,20,inf,0.5\n", 2),
            ("subset,count,avg_margin,agree_rate\nhigh,20,-Infinity,0.5\n", 2),
        ],
        ids=["non_integer_count", "zero_count", "missing_column", "nan_margin", "inf_margin", "minus_inf_margin"],
    )
    def test_bad_rows_fail_with_parse_error(self, tmp_path, capsys, text, line):
        rows = tmp_path / "rows.csv"
        rows.write_text(text)
        assert run("agreement", "--rows", rows, "--out-dir", tmp_path) == 1
        assert f"error[PARSE_ERROR]: line {line}: " in capsys.readouterr().err
        assert not (tmp_path / "agreement.json").exists()

    def test_overflowing_overall_margin_fails_with_parse_error(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("subset,count,avg_margin,agree_rate\nhigh,20,1e308,0.5\nlow,20,1e308,0.5\n")
        assert run("agreement", "--rows", rows, "--out-dir", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[PARSE_ERROR]: ") and "overall row: avg_margin must be finite" in err
        assert not (tmp_path / "agreement.json").exists()


class TestGradcheckCommand:
    def test_clean_build_exits_zero(self, tmp_path):
        assert run("gradcheck", "--draws", 3, "--seed", 5, "--out-dir", tmp_path) == 0
        report = json.loads((tmp_path / "gradcheck-report.json").read_text())
        assert report["passed"] is True
        assert report["max_rel_err"] < 1e-4
        assert set(report["groups"]) == {"w_enc", "b_enc", "e_crit", "q", "w1", "b1", "w2", "b2"}

    def test_corrupted_gradient_exits_nonzero_and_names_offender(self, tmp_path, monkeypatch):
        backward_batch = scorer.backward_batch

        def corrupt_b_enc(*args):
            grads = backward_batch(*args)
            grads.b_enc[...] += 1e-2
            return grads

        monkeypatch.setattr(scorer, "backward_batch", corrupt_b_enc)
        assert run("gradcheck", "--draws", 2, "--seed", 5, "--out-dir", tmp_path) == 1
        report = json.loads((tmp_path / "gradcheck-report.json").read_text())
        assert report["passed"] is False
        assert report["worst_group"] == "b_enc"


class TestEndToEnd:
    def test_small_run_produces_summary(self, tmp_path):
        assert (
            run("e2e", "--n-train", 48, "--n-val", 16, "--steps", 30, "--out-dir", tmp_path, "--seed", 0) == 0
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) >= {"val_accuracy", "drift", "mean_margin", "best_step", "seed", "lambda_center"}
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "val-scores.jsonl").exists()

    def test_equals_the_commands_it_composes(self, tmp_path):
        # e2e is synth x2 -> train -> score -> eval --pairs: every file both
        # trees hold is byte-identical, apart from the run manifests.
        e2e, steps = tmp_path / "e2e", tmp_path / "steps"
        assert run("e2e", "--n-train", 120, "--n-val", 70, "--steps", 60, "--pooling", "attention", "--seed", 1,
                   "--out-dir", e2e) == 0
        assert run("synth", "--n", 120, "--out", "train.jsonl", "--seed", 1, "--out-dir", steps) == 0
        assert run("synth", "--n", 70, "--out", "val.jsonl", "--split", "val", "--seed", 2, "--out-dir", steps) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text("pooling = attention\ntotal_steps = 60\n")
        assert run("train", "--pairs", steps / "train.jsonl", "--val", steps / "val.jsonl", "--config", cfg,
                   "--seed", 1, "--out-dir", steps) == 0
        assert run("score", "--pairs", steps / "val.jsonl", "--checkpoint", steps / "best.ckpt",
                   "--out", "val-scores.jsonl", "--out-dir", steps) == 0
        assert run("eval", "--scores", steps / "val-scores.jsonl", "--pairs", steps / "val.jsonl",
                   "--out-dir", steps) == 0

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        got, want = tree(e2e), tree(steps)
        assert set(got) - set(want) == {"summary.json"} and set(want) <= set(got)
        for name in set(want) - {"run-manifest.json"}:
            assert got[name] == want[name], name
        assert {"best.ckpt", "history.jsonl", "report.json", "val-scores.jsonl", "val.jsonl.f32"} <= set(want)

    def test_seed_changes_summary(self, tmp_path):
        for seed in (0, 1):
            assert (
                run("e2e", "--n-train", 48, "--n-val", 16, "--steps", 30, "--out-dir", tmp_path / str(seed), "--seed", seed)
                == 0
            )
        a = json.loads((tmp_path / "0" / "summary.json").read_text())
        b = json.loads((tmp_path / "1" / "summary.json").read_text())
        assert a["val_accuracy"] != b["val_accuracy"] or a["drift"] != b["drift"]

    def test_lambda_sweep_orders_drift_magnitudes(self, tmp_path):
        # Twin default-length runs differing only in the centering weight:
        # the centered run's score sum must sit closer to zero.
        summaries = {}
        for lam in (0.0, 1e-2):
            out = tmp_path / f"lam-{lam}"
            assert run("e2e", "--lambda-center", lam, "--out-dir", out, "--seed", 0) == 0
            summaries[lam] = json.loads((out / "summary.json").read_text())
        assert abs(summaries[1e-2]["drift"]) <= abs(summaries[0.0]["drift"]), summaries
        for lam, summary in summaries.items():
            assert summary["val_accuracy"] >= 0.9


class TestConfigFiles:
    def test_synth_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(
            "# synthetic generator settings\n"
            "d_in = 4\n"
            "noise_std = 0.0\n"
            "signature = 0,0,0.25,0.25\n"
            "channel_offset.wild = 0.5,0,0,0\n"
            "channel_offset.scripted = -0.5,0,0,0\n"
            "turns = 2,4\n"
            "frames_per_turn = 3,3\n"
        )
        assert run("synth", "--config", cfg, "--n", 6, "--out", "p.jsonl", "--out-dir", tmp_path, "--seed", 2) == 0
        pairs = read_pairs(tmp_path / "p.jsonl")
        assert {p.source_tier for p in pairs} == {"wild", "scripted"}
        assert pairs[0].chosen.turns[0].features.shape == (3, 4)

    def test_malformed_config_line_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("d_in 8\n")
        assert run("synth", "--config", cfg, "--n", 2, "--out", "p.jsonl", "--out-dir", tmp_path) == 1
        assert "PARSE_ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_seed_key_is_rejected_in_favour_of_the_flag(self, tmp_path, capsys, command):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text("d_in = 8\nseed = 7\n")
        args = ["--n", 4, "--out", "p.jsonl"] if command == "synth" else ["--pairs", tmp_path / "none.jsonl"]
        assert run(command, "--config", cfg, *args, "--out-dir", tmp_path, "--seed", 0) == 1
        err = capsys.readouterr().err
        assert "error[PARSE_ERROR]: line 2:" in err and "--seed" in err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("d_in = 8\ntotal_step = 5\n", "line 2: unknown config key 'total_step'"),
            ("# scorer\npoolling = attention\n", "line 2: unknown config key 'poolling'"),
            ("d = 8\nd_in = abc\n", "line 2: bad value for 'd_in'"),
            ("pooling = attn\n", "ScorerConfig: unknown pooling 'attn'"),
            ("eval_every = 0\n", "TrainConfig: total_steps, batch_size and eval_every must be >= 1"),
            ("total_steps = 0\n", "TrainConfig: total_steps, batch_size and eval_every must be >= 1"),
            ("batch_size = 0\n", "TrainConfig: total_steps, batch_size and eval_every must be >= 1"),
        ],
    )
    def test_bad_train_config_exits_with_parse_error(self, tmp_path, capsys, text, needle):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(text)
        assert run("train", "--pairs", tmp_path / "none.jsonl", "--config", cfg, "--out-dir", tmp_path) == 1
        assert f"error[PARSE_ERROR]: {needle}" in capsys.readouterr().err

    def test_zero_d_in_synth_config_exits_with_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("d_in = 0\n")
        assert run("synth", "--config", cfg, "--n", 3, "--out", "p.jsonl", "--out-dir", tmp_path) == 1
        assert "error[PARSE_ERROR]: SynthConfig: d_in must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "p.jsonl").exists()

    def test_a_train_config_that_a_checkpoint_cannot_store_writes_nothing(self, synth_manifest, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("max_frames_per_turn = 2\ntotal_steps = 3\n")
        out = tmp_path / "run"
        assert run("train", "--pairs", synth_manifest, "--config", cfg, "--out-dir", out) == 1
        assert "error[BAD_CHECKPOINT]: " in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["run-manifest.json"]

    def test_words_per_turn_is_a_synth_key(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("words_per_turn = 0,0\n")
        assert run("synth", "--config", cfg, "--n", 3, "--out", "p.jsonl", "--out-dir", tmp_path) == 0
        assert all(t.transcript == "" for p in read_pairs(tmp_path / "p.jsonl") for t in p.chosen.turns)
