"""The batched scorer against the batch-of-one path, and the batched loss."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import episcore.scorer as sc
from episcore import (
    Criterion, Episode, PreferencePair, ScorerConfig, Turn, init_params, read_pairs, save_checkpoint, synth_config,
    synth_pairs, total_loss, write_pairs,
)
from episcore.cli import main
from episcore.evaluation import read_scores
from episcore.gradcheck import relative_error
from episcore.training import SCORE_CHUNK, evaluate_loss, pair_batch, pair_table, score_pairs

from conftest import sequence_oracle, sequence_rows

VOCAB = ["yeah", "so", "okay", "right", "well", "um"]


@st.composite
def ragged_batches(draw):
    """Episodes of 0-4 turns, 1-6 frames per turn (truncated above
    max_frames_per_turn), 0-3 words per turn, each under a drawn criterion."""
    d_in = draw(st.integers(1, 5))
    max_frames = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    episodes, criteria = [], []
    for _ in range(draw(st.integers(1, 6))):
        turns = []
        for t in range(draw(st.integers(0, 4))):
            words = " ".join(draw(st.lists(st.sampled_from(VOCAB), max_size=3)))
            n_frames = draw(st.integers(1, 6))
            turns.append(Turn(f"spk-{t % 2}", words, 1.0, rng.standard_normal((n_frames, d_in))))
        episodes.append(Episode("ep", turns, "wild"))
        criteria.append(draw(st.sampled_from(list(Criterion))))
    return d_in, max_frames, episodes, criteria, rng.standard_normal(len(episodes))


@given(ragged_batches(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_scores_and_gradients_match_batch_of_one(case, seed):
    d_in, max_frames, episodes, criteria, upstream = case
    for mode in sc.POOLING_MODES:
        cfg = ScorerConfig(d_in=d_in, d=5, pooling=mode, head_hidden=4, max_frames_per_turn=max_frames)
        params = init_params(cfg, seed=seed)
        acts = sc.score_batch(sc.pack_episodes(episodes, criteria, cfg), cfg, params)
        grads = sc.backward_batch(acts, upstream)
        singles = []
        for ep, crit, u, r in zip(episodes, criteria, upstream, acts.r):
            r1, acts1 = sc.score(ep, crit, cfg, params)
            assert abs(r - r1) <= 1e-15
            singles.append(sc.backward(acts1, u))
        for name in sc.PARAM_FIELDS:
            want = sum(getattr(g, name) for g in singles)
            np.testing.assert_allclose(getattr(grads, name), want, rtol=0, atol=1e-12, err_msg=name)


@st.composite
def pair_sets_and_indices(draw):
    """0-5 pairs of 1-3 turns a side, 1-70 frames and 0-4 words a turn
    (words shared across pairs), and a drawn list of pair indices: empty,
    repeated and out of order ones included."""
    d_in = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for i in range(draw(st.integers(0, 5))):
        n_turns = draw(st.integers(1, 3))
        sides = [
            Episode(
                f"p{i}-{side}",
                [
                    Turn(
                        f"spk-{t % 2}",
                        " ".join(draw(st.lists(st.sampled_from(VOCAB), max_size=4))),
                        1.0,
                        rng.standard_normal((draw(st.integers(1, 70)), d_in)),
                    )
                    for t in range(n_turns)
                ],
                "wild",
            )
            for side in "cr"
        ]
        pairs.append(PreferencePair(f"p{i}", *sides, draw(st.sampled_from(list(Criterion))), "train"))
    index = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=8)) if pairs else []
    return d_in, pairs, index


def layout_rows(episodes, cfg):
    """What a batch of ``episodes`` holds, read off their sequences
    (:func:`sequence_rows`): per episode its rows, less those of the
    tokens that the batch counts; the counted tokens' rows, in order of
    first use; and each episode's count of each. A token used c times by
    the B episodes is counted when c * d >= B + d."""
    words = {sc.token_embedding(tok, cfg.d_in).tobytes() for ep in episodes for turn in ep.turns
             for tok in sc.tokenize(turn.transcript)}
    sequences = [[row.tobytes() for row in sequence_rows(ep, cfg)] for ep in episodes]
    uses = Counter(row for seq in sequences for row in seq if row in words)
    counted = [row for row in uses if uses[row] * cfg.d >= len(episodes) + cfg.d]
    rows = [np.frombuffer(b"".join(row for row in seq if row not in counted)).reshape(-1, cfg.d_in)
            for seq in sequences]
    tokens = np.frombuffer(b"".join(counted)).reshape(-1, cfg.d_in)
    return rows, tokens, [[seq.count(row) for row in counted] for seq in sequences]


@given(pair_sets_and_indices(), st.integers(1, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_table_batches_hold_the_layout_rows_and_score_as_the_oracle(case, max_frames, seed):
    d_in, pairs, index = case
    episodes = [pairs[i].chosen for i in index] + [pairs[i].rejected for i in index]
    criteria = [pairs[i].criterion for i in index] * 2
    for mode in sc.POOLING_MODES:
        cfg = ScorerConfig(d_in=d_in, d=4, pooling=mode, head_hidden=3, max_frames_per_turn=max_frames)
        got = pair_batch(pair_table(pairs, cfg), index)
        rows, tokens, counts = layout_rows(episodes, cfg)
        assert got.x.tobytes() == b"".join(rs.tobytes() for rs in rows)
        assert got.rows.tolist() == [len(rs) for rs in rows]
        assert got.starts.tolist() == (np.cumsum(got.rows) - got.rows).tolist()
        assert got.tokens.tobytes() == tokens.tobytes() and got.counts.tolist() == counts
        assert got.criteria.tolist() == [c.index for c in criteria]
        if index:
            params = init_params(cfg, seed=seed)
            r = sc.score_batch(got, cfg, params).r
            oracle = [sequence_oracle(ep, crit, cfg, params) for ep, crit in zip(episodes, criteria)]
            assert got.lengths.tolist() == [len(o[0]) for o in oracle]
            np.testing.assert_allclose(r, [o[3] for o in oracle], rtol=0, atol=1e-15)


@given(pair_sets_and_indices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_batch_does_not_depend_on_its_table(case, random):
    # The same pairs gathered from their own table, from a table of a
    # superset and from one of a reordered superset give the same bits.
    d_in, pairs, index = case
    shuffled = random.sample(range(len(pairs)), len(pairs))
    for mode in sc.POOLING_MODES:
        cfg = ScorerConfig(d_in=d_in, d=4, pooling=mode, head_hidden=3)
        batches = [
            pair_batch(pair_table([pairs[i] for i in index], cfg), range(len(index))),
            pair_batch(pair_table(pairs, cfg), index),
            pair_batch(pair_table([pairs[i] for i in shuffled], cfg), [shuffled.index(i) for i in index]),
        ]
        for batch in batches[1:]:
            for field in ("x", "rows", "tokens", "counts", "lengths", "criteria"):
                assert getattr(batch, field).tobytes() == getattr(batches[0], field).tobytes(), field
        if index:
            params = init_params(cfg, seed=len(index))
            want, *others = (total_loss(batch, cfg, params, lambda_center=0.1) for batch in batches)
            for got in others:
                assert (got.value, got.r_chosen.tobytes(), got.r_rejected.tobytes()) == (
                    want.value, want.r_chosen.tobytes(), want.r_rejected.tobytes()
                )
                assert got.grads.flat.tobytes() == want.grads.flat.tobytes()


def test_table_keeps_each_kept_frame_and_each_distinct_token_once():
    turns = [Turn("a", "Yeah yeah so", 1.0, np.arange(12.0).reshape(4, 3)), Turn("b", "so", 1.0, np.ones((1, 3)))]
    cfg = ScorerConfig(d_in=3, max_frames_per_turn=2)
    table = sc.RowTable.build([(Episode("e", turns, "wild"), Criterion.COLLOQUIALNESS)] * 2, cfg)
    # The zero row and 2 + 1 kept frames per episode at file precision; then "yeah" and "so" in float64.
    kept = [[0, 1, 2], [3, 4, 5], [1, 1, 1]]
    assert table.frames.dtype == np.float32 and np.array_equal(table.frames, [[0, 0, 0]] + kept + kept)
    assert table.tokens.dtype == np.float64
    assert np.array_equal(table.tokens, [sc.token_embedding("yeah", 3), sc.token_embedding("so", 3)])
    assert table.row_of.dtype == np.int32 and table.row_of[: table.lengths[0]].tolist() == [0, 7, 7, 8, 1, 2, 8, 3]
    assert table.lengths.tolist() == [8, 8] and table.criteria.tolist() == [1, 1]
    batch = table.batch([0])  # each token is used twice: held once, with its count
    assert batch.x.dtype == np.float64 and np.array_equal(batch.x, [[0, 0, 0]] + kept)
    assert np.array_equal(batch.tokens, table.tokens) and batch.counts.tolist() == [[2.0, 2.0]]


def test_a_token_is_counted_once_its_uses_pay_for_its_column():
    # B = 4 episodes and d = 2: a token is counted from 3 uses (3 * 2 >= 4 + 2).
    cfg = ScorerConfig(d_in=3, d=2, max_frames_per_turn=1)
    episodes = [Episode(f"e{i}", [Turn("a", words, 1.0, np.full((1, 3), i))], "wild")
                for i, words in enumerate(["a a b", "b c", "a", ""])]
    batch = sc.pack_episodes(episodes, [Criterion.MODALITY] * 4, cfg)
    a, b, c = (sc.token_embedding(word, 3) for word in "abc")
    assert np.array_equal(batch.tokens, [a]) and batch.counts.tolist() == [[2.0], [0.0], [1.0], [0.0]]
    # Rows in layout order (a turn's tokens precede its frames), less the counted "a".
    assert batch.rows.tolist() == [3, 4, 2, 2] and batch.lengths.tolist() == [5, 4, 3, 2]
    assert np.array_equal(batch.x[[1, 4, 5]], [b, b, c])


def test_table_batch_gathers_the_same_rows_as_packing_those_pairs():
    pairs = synth_pairs(synth_config(seed=3), 5)
    cfg = ScorerConfig(d_in=8, max_frames_per_turn=5)
    taken = pair_batch(pair_table(pairs, cfg), [3, 0, 3])
    packed = pair_batch(pair_table([pairs[3], pairs[0], pairs[3]], cfg), range(3))
    for field in ("x", "starts", "rows", "tokens", "counts", "lengths", "criteria"):
        assert np.array_equal(getattr(taken, field), getattr(packed, field)), field


def test_table_batches_match_packing_and_starts_derive_from_sizes():
    pairs = synth_pairs(synth_config(seed=3), 5)
    cfg = ScorerConfig(d_in=8, max_frames_per_turn=5)
    episodes, criteria = [p.chosen for p in pairs], [p.criterion for p in pairs]
    table = sc.RowTable.build(zip(episodes, criteria), cfg)
    taken = table.batch([3, 4, 3, 1])
    packed = sc.pack_episodes([episodes[i] for i in (3, 4, 3, 1)], [criteria[i] for i in (3, 4, 3, 1)], cfg)
    for field in ("x", "starts", "rows", "tokens", "counts", "lengths", "criteria"):
        assert np.array_equal(getattr(taken, field), getattr(packed, field)), field
    for starts, sizes in (table.starts, table.lengths), (taken.starts, taken.rows):
        assert np.array_equal(starts, np.cumsum(sizes) - sizes)


def test_packing_no_episodes_gives_an_empty_batch():
    batch = sc.pack_episodes([], [], ScorerConfig(d_in=6))
    assert len(batch) == 0 and batch.x.shape == batch.tokens.shape == (0, 6) and batch.counts.shape == (0, 0)


@pytest.mark.parametrize("mode", sc.POOLING_MODES)
def test_loss_gradients_of_a_gathered_batch_match_finite_differences(mode):
    cfg = ScorerConfig(d_in=8, d=3, pooling=mode, head_hidden=3)
    params = init_params(cfg, seed=6)
    pairs = synth_pairs(synth_config(seed=12), 6)
    batch = pair_batch(pair_table(pairs, cfg), [4, 1, 5])
    assert len(set(batch.criteria.tolist())) == 2
    out = total_loss(batch, cfg, params, lambda_center=0.1)
    h = 1e-5
    for name in sc.PARAM_FIELDS:
        flat = getattr(params, name).reshape(-1)
        analytic = getattr(out.grads, name).reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = total_loss(batch, cfg, params, lambda_center=0.1).value
            flat[i] = original - h
            down = total_loss(batch, cfg, params, lambda_center=0.1).value
            flat[i] = original
            assert relative_error(analytic[i], (up - down) / (2 * h)) < 1e-4, name


@pytest.mark.parametrize("mode", sc.POOLING_MODES)
def test_same_batch_composition_gives_bitwise_identical_loss(mode):
    cfg = ScorerConfig(d_in=8, pooling=mode)
    params = init_params(cfg, seed=2)
    pairs = synth_pairs(synth_config(seed=4), 9)
    a = total_loss(pair_batch(pair_table(pairs[2:7], cfg), range(5)), cfg, params)
    b = total_loss(pair_batch(pair_table(pairs, cfg), range(2, 7)), cfg, params)
    assert (a.value, a.loss_pref, a.loss_center) == (b.value, b.loss_pref, b.loss_center)
    assert np.array_equal(a.r_chosen, b.r_chosen) and np.array_equal(a.r_rejected, b.r_rejected)
    for name in sc.PARAM_FIELDS:
        assert np.array_equal(getattr(a.grads, name), getattr(b.grads, name)), name


@pytest.mark.parametrize("n_pairs", [1, 7, SCORE_CHUNK])
def test_validation_loss_of_one_chunk_is_the_trained_loss_bitwise(n_pairs):
    cfg = ScorerConfig(d_in=8, pooling="attention")
    params = init_params(cfg, seed=3)
    pairs = synth_pairs(synth_config(seed=6), n_pairs)
    val_loss, _ = evaluate_loss(pair_table(pairs, cfg), cfg, params, 0.1)
    batch = pair_batch(pair_table(pairs, cfg), range(n_pairs))
    assert val_loss == total_loss(batch, cfg, params, lambda_center=0.1).value


def test_scoring_a_list_and_its_pack_agree_bitwise(tmp_path, monkeypatch):
    # ``episcore score`` pages a manifest into tables of SCORE_CHUNK pairs;
    # train validation scores one table of the whole list. Both make the
    # same passes, so both give a pair the same bits.
    cfg = ScorerConfig(d_in=8, pooling="attention")
    params = init_params(cfg, seed=2)
    manifest, ckpt = tmp_path / "pairs.jsonl", tmp_path / "s.ckpt"
    write_pairs(synth_pairs(synth_config(seed=5), 70), manifest)  # three chunks, the last one partial
    save_checkpoint(ckpt, cfg, params)
    passes = []
    score_batch = sc.score_batch
    monkeypatch.setattr(sc, "score_batch", lambda batch, *a: passes.append(len(batch) // 2) or score_batch(batch, *a))

    argv = ["score", "--pairs", manifest, "--checkpoint", ckpt, "--out", "s.jsonl", "--out-dir", tmp_path]
    assert main([str(a) for a in argv]) == 0
    assert passes == [32, 32, 6]
    passes.clear()
    rc, rr = score_pairs(pair_table(read_pairs(manifest), cfg), cfg, params)
    assert passes == [32, 32, 6]
    scored = read_scores(tmp_path / "s.jsonl")
    assert np.array([s.r_chosen for s in scored]).tobytes() == rc.tobytes()
    assert np.array([s.r_rejected for s in scored]).tobytes() == rr.tobytes()
