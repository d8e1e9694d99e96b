"""One file writer: every file the package writes is committed whole by
``episodes._replace_file``, except per-turn feature files, which
``episodes._write_sidecar`` rewrites in place without truncating them.

The structural test parses the package's sources (it runs nothing) and
fails on any call outside those two functions that writes a file. The
crash tests make each committed artifact's payload raise mid-write and
check that the previous file is intact and no temporary file is left. The
sidecar tests check the in-place writer's contract: a rewrite or a new
file that raises reads as FEATURE_IO, and a finished one holds the bytes
of a fresh write.
"""

import ast
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from episcore import cli, episodes, read_episodes, read_pairs, scorer, write_episodes, write_pairs, write_segments
from episcore.episodes import Segment, SegmentManifest, read_features, shard_path, write_features, write_jsonl
from episcore.errors import FeatureIOError
from episcore.evaluation import ScoredPair, write_scores

from conftest import make_episode, make_pair

SRC = Path(__file__).resolve().parent.parent / "src" / "episcore"
WRITERS = {"episodes.py": {"_replace_file", "_write_sidecar"}}


def _writes_a_file(call: ast.Call) -> bool:
    """True for ``open``/``.open`` in a mode that writes (or a mode that is
    not a literal), ``.write_text``, ``.write_bytes``, ``os.replace`` and
    ``os.rename``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        name, on_os = func.attr, isinstance(func.value, ast.Name) and func.value.id == "os"
    else:
        name, on_os = getattr(func, "id", None), False
    if name in ("write_text", "write_bytes") or on_os and name in ("replace", "rename"):
        return True
    if name != "open":
        return False
    positional = 0 if isinstance(func, ast.Attribute) else 1  # path.open(mode) or open(path, mode)
    mode = call.args[positional] if len(call.args) > positional else None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    if mode is None:  # the default, "r"
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("wax+"))


def _file_writes(source: str) -> list[tuple[str, int]]:
    """(enclosing top-level function or "<module>", line) of each call in ``source`` that writes a file."""
    found = []
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        found += [(owner, n.lineno) for n in ast.walk(node) if isinstance(n, ast.Call) and _writes_a_file(n)]
    return found


@pytest.mark.parametrize(
    "source, writes",
    [
        ("def f(p):\n    open(p, 'w')\n", True),
        ("def f(p):\n    open(p, mode='ab')\n", True),
        ("def f(p):\n    open(p, 'r+b')\n", True),
        ("def f(p, m):\n    open(p, m)\n", True),
        ("def f(p):\n    p.open('x')\n", True),
        ("def f(p):\n    p.write_text('')\n", True),
        ("def f(p):\n    p.write_bytes(b'')\n", True),
        ("import os\nos.replace('a', 'b')\n", True),
        ("import os\ndef f(p):\n    os.open(p, os.O_WRONLY | os.O_CREAT)\n", True),
        ("def f(p):\n    open(p)\n    open(p, 'rb')\n    p.open(encoding='utf-8')\n", False),
        ("def f(s):\n    s.replace('a', 'b')\n", False),
    ],
)
def test_the_scan_finds_each_way_of_writing_a_file(source, writes):
    assert bool(_file_writes(source)) is writes


def test_only_the_two_writers_write_files():
    outside, inside = [], set()
    for path in sorted(SRC.glob("*.py")):
        for owner, line in _file_writes(path.read_text(encoding="utf-8")):
            if owner in WRITERS.get(path.name, ()):
                inside.add(owner)
            else:
                outside.append(f"{path.name}:{line} in {owner}")
    assert outside == [], "files written outside _replace_file and _write_sidecar"
    assert inside == WRITERS["episodes.py"]


# ---------------------------------------------------------------------------
# Crash tests: the previous file survives a payload that raises mid-write.
# ---------------------------------------------------------------------------


class Crash(Exception):
    pass


def _crash_mid_write(monkeypatch, module, name: str) -> None:
    """Make ``module``'s commits of a file called ``name`` write half their
    first chunk, then raise."""
    real = episodes._replace_file

    def replace_file(path, chunks):
        def half_then_crash():
            first = bytes(next(iter(chunks)))
            yield first[: len(first) // 2]
            raise Crash

        real(path, half_then_crash() if Path(path).name == name else chunks)

    monkeypatch.setattr(module, "_replace_file", replace_file)


def _assert_intact(path: Path, before: bytes) -> None:
    assert path.read_bytes() == before
    assert list(path.parent.glob(".*.tmp")) == []


def test_write_jsonl_keeps_the_old_file_when_a_record_raises(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl([{"a": 1}, {"a": 2}], path)
    before = path.read_bytes()

    def records():
        yield {"a": 3}
        raise Crash

    with pytest.raises(Crash):
        write_jsonl(records(), path)
    _assert_intact(path, before)


def test_write_pairs_keeps_the_old_shard_and_jsonl_when_the_shard_raises(tmp_path, monkeypatch):
    path = tmp_path / "pairs.jsonl"
    old = [make_pair("old")]
    write_pairs(old, path)
    jsonl, shard = path.read_bytes(), shard_path(path).read_bytes()
    real = episodes._feature_chunks

    def header_then_crash(*args):
        yield next(real(*args))
        raise Crash

    monkeypatch.setattr(episodes, "_feature_chunks", header_then_crash)
    with pytest.raises(Crash):
        write_pairs([make_pair("new", n_turns=4)], path)
    _assert_intact(path, jsonl)
    _assert_intact(shard_path(path), shard)
    monkeypatch.undo()
    assert read_pairs(path) == old


def test_save_checkpoint_keeps_the_old_file(tmp_path, monkeypatch):
    cfg = scorer.ScorerConfig(d_in=4)
    path = tmp_path / "best.ckpt"
    scorer.save_checkpoint(path, cfg, scorer.init_params(cfg, seed=0))
    before = path.read_bytes()
    _crash_mid_write(monkeypatch, scorer, "best.ckpt")
    with pytest.raises(Crash):
        scorer.save_checkpoint(path, cfg, scorer.init_params(cfg, seed=1))
    _assert_intact(path, before)


def test_write_json_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    cli._write_json(path, {"old": 1})
    before = path.read_bytes()
    _crash_mid_write(monkeypatch, cli, "report.json")
    with pytest.raises(Crash):
        cli._write_json(path, {"new": 2})
    _assert_intact(path, before)


def test_report_csv_keeps_the_old_file(tmp_path, monkeypatch):
    scores = tmp_path / "scores.jsonl"
    tiers = ("wild", "semi-wild", "scripted", "colloquial")
    write_scores([ScoredPair(f"p-{t}", 0.5, -0.5, t, "modality") for t in tiers], scores)
    assert cli.main(["eval", "--scores", str(scores), "--out-dir", str(tmp_path)]) == 0
    before = (tmp_path / "report.csv").read_bytes()
    write_scores([ScoredPair(f"p-{t}", -0.5, 0.5, t, "modality") for t in tiers], scores)
    _crash_mid_write(monkeypatch, cli, "report.csv")
    with pytest.raises(Crash):
        cli.main(["eval", "--scores", str(scores), "--out-dir", str(tmp_path)])
    _assert_intact(tmp_path / "report.csv", before)


def test_agreement_csv_keeps_the_old_file(tmp_path, monkeypatch):
    rows = tmp_path / "rows.csv"
    rows.write_text("subset,count,avg_margin,agree_rate\nhigh,20,1.65,0.883\n")
    assert cli.main(["agreement", "--rows", str(rows), "--out-dir", str(tmp_path)]) == 0
    before = (tmp_path / "agreement.csv").read_bytes()
    rows.write_text("subset,count,avg_margin,agree_rate\nlow,20,0.06,0.783\n")
    _crash_mid_write(monkeypatch, cli, "agreement.csv")
    with pytest.raises(Crash):
        cli.main(["agreement", "--rows", str(rows), "--out-dir", str(tmp_path)])
    _assert_intact(tmp_path / "agreement.csv", before)


# ---------------------------------------------------------------------------
# The sidecar writer rewrites in place: a rewrite or a new file that raises
# reads as FEATURE_IO, and a finished one holds the bytes of a fresh write.
# ---------------------------------------------------------------------------


def _frames(rows: int, fill: float) -> np.ndarray:
    return np.full((rows, 4), fill, dtype=np.float32)


def _raise_after_rows(monkeypatch, rows: int) -> None:
    """Make each feature file written get its header and first ``rows`` rows, then raise."""
    real = episodes._feature_chunks

    def rows_then_crash(*args):
        chunks = real(*args)
        yield next(chunks)
        yield np.concatenate(list(chunks))[:rows]
        raise Crash

    monkeypatch.setattr(episodes, "_feature_chunks", rows_then_crash)


@pytest.mark.parametrize("rows", [0, 3, 7])
def test_a_sidecar_rewrite_that_raises_reads_as_feature_io(tmp_path, monkeypatch, rows):
    # The same shape: had the new header gone first, it would pass the size check over old rows, new or a mix.
    path = tmp_path / "turn.f32"
    write_features(path, _frames(7, 1.0))
    _raise_after_rows(monkeypatch, rows)
    with pytest.raises(Crash):
        write_features(path, _frames(7, 2.0))
    with pytest.raises(FeatureIOError):
        read_features(path)


@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("rows", [0, 3])
def test_a_new_sidecar_that_raises_reads_as_feature_io(tmp_path, monkeypatch, rows, empty):
    # No old rows to mix with: the real header goes first, and the file holds fewer rows than it promises.
    path = tmp_path / "turn.f32"
    if empty:
        path.write_bytes(b"")
    _raise_after_rows(monkeypatch, rows)
    with pytest.raises(Crash):
        write_features(path, _frames(7, 2.0))
    with pytest.raises(FeatureIOError):
        read_features(path)


@pytest.mark.parametrize("old_rows, new_rows", [(0, 3), (7, 3), (4, 3), (3, 7)])
def test_a_sidecar_rewrite_holds_exactly_the_bytes_of_its_rows(tmp_path, old_rows, new_rows):
    path = tmp_path / "turn.f32"
    write_features(path, _frames(old_rows, 1.0))
    write_features(path, _frames(new_rows, 2.0))
    assert path.read_bytes() == struct.pack("<QQ", new_rows, 4) + _frames(new_rows, 2.0).astype("<f4").tobytes()


def test_a_sidecar_rewrite_with_the_same_bytes_still_writes_the_file(tmp_path):
    path = tmp_path / "turn.f32"
    write_features(path, _frames(3, 1.0))
    before = path.read_bytes()
    os.utime(path, ns=(10**18, 10**18))  # 2001: far enough back that clock granularity cannot hide a missing write
    write_features(path, _frames(3, 1.0))
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns > 10**18


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc/self/fd")
def test_a_sidecar_rewrite_that_raises_leaves_no_descriptor_open(tmp_path, monkeypatch):
    # Development mode warns of a file object left open, not of a raw descriptor from os.open.
    path = tmp_path / "turn.f32"
    write_features(path, _frames(7, 1.0))
    before = sorted(os.listdir("/proc/self/fd"))
    _raise_after_rows(monkeypatch, 3)
    with pytest.raises(Crash):
        write_features(path, _frames(7, 2.0))
    assert sorted(os.listdir("/proc/self/fd")) == before


# ---------------------------------------------------------------------------
# The writers check again what the readers refuse: a field set after
# construction is refused before any file is written.
# ---------------------------------------------------------------------------


def _files(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _assert_refused_by_the_writers(tmp_path, pair, episode, match=None) -> None:
    """Writing ``pair`` or (unless None) ``episode`` over a pair and an
    episode manifest raises ValueError, and every file is left intact."""
    pairs_path, episodes_path = tmp_path / "pairs.jsonl", tmp_path / "episodes.jsonl"
    write_pairs([make_pair()], pairs_path)
    write_episodes([make_episode()], episodes_path)
    before = _files(tmp_path)
    with pytest.raises(ValueError, match=match):
        write_pairs([pair], pairs_path)
    if episode is not None:
        with pytest.raises(ValueError, match=match):
            write_episodes([episode], episodes_path)
    assert _files(tmp_path) == before
    assert read_pairs(pairs_path) == [make_pair()] and read_episodes(episodes_path) == [make_episode()]


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_a_turn_time_set_after_construction_is_refused_by_the_writers(tmp_path, value):
    pair, episode = make_pair(), make_episode()
    pair.chosen.turns[1].duration_s = value
    episode.turns[0].duration_s = value
    _assert_refused_by_the_writers(tmp_path, pair, episode)


@pytest.mark.parametrize("field", ["split", "source_tier", "metadata"])
def test_a_field_the_readers_refuse_is_refused_by_the_writers(tmp_path, field):
    pair, episode = make_pair(), make_episode()
    if field == "split":  # episodes have no split
        pair.split, episode = "bogus", None
    elif field == "source_tier":
        pair.chosen.source_tier = episode.source_tier = "bogus"
    else:
        pair.rejected.metadata["k"] = 1
        episode = make_episode(metadata={"k": 1})  # Episode takes it; only the writer checks metadata
    _assert_refused_by_the_writers(tmp_path, pair, episode, match=field)


@pytest.mark.parametrize("rule", ["TIER_MISMATCH", "TURN_COUNT_MISMATCH"])
def test_a_pair_whose_sides_no_longer_match_is_refused_by_write_pairs(tmp_path, rule):
    pair = make_pair(tier="wild")
    if rule == "TIER_MISMATCH":  # the record stores one source_tier, the chosen side's
        pair.rejected.source_tier = "scripted"
    else:
        pair.rejected.turns.pop()
    _assert_refused_by_the_writers(tmp_path, pair, None, match=rule)


@pytest.mark.parametrize("field, value", [("start_s", math.nan), ("end_s", math.inf), ("end_s", 0.0)])
def test_a_segment_time_set_after_construction_is_refused_by_write_segments(tmp_path, field, value):
    path = tmp_path / "segments.jsonl"
    write_features(tmp_path / "seg.f32", np.zeros((1, 4), dtype=np.float32))
    write_segments(SegmentManifest([Segment("a", 0.0, 1.0, "yeah", "seg.f32")]), path)
    before = path.read_bytes()
    segments = [Segment("a", 0.0, 1.0, "yeah", "seg.f32"), Segment("b", 1.0, 2.0, "okay", "seg.f32")]
    setattr(segments[1], field, value)
    with pytest.raises(ValueError):
        write_segments(SegmentManifest(segments), path)
    _assert_intact(path, before)
