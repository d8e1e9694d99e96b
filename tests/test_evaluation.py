import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from episcore import (
    ScoredPair,
    aggregate,
    agreement_stats,
    build_report,
    confidence_buckets,
    distribution_stats,
    pairwise_accuracy,
)
from episcore.errors import EmptySetError, MissingSubsetError
from episcore.evaluation import format_percent, read_scores, report_csv, write_scores


def sp(pair_id, rc, rr, subset="wild", criterion="modality"):
    return ScoredPair(pair_id, rc, rr, subset, criterion)


# Frozen reference scorecards: per-subset accuracies (percent) with the
# validation pair counts they were computed over, plus every aggregate
# column they imply. Derived by hand from the weighted/unweighted means.
REFERENCE_COUNTS = {"wild": 824, "semi-wild": 186, "scripted": 466, "colloquial": 250}
REFERENCE_SCORECARDS = [
    {
        "acc": {"wild": 100.00, "semi-wild": 92.47, "scripted": 92.27, "colloquial": 97.20},
        "want": {
            "modality_micro": 96.61,
            "modality_macro": 94.91,
            "colloq_acc": 97.20,
            "overall_micro": 96.70,
            "overall_macro": 96.06,
        },
    },
    {
        "acc": {"wild": 99.39, "semi-wild": 55.38, "scripted": 82.83, "colloquial": 92.00},
        "want": {
            "modality_micro": 88.62,
            "modality_macro": 79.20,
            "colloq_acc": 92.00,
            "overall_micro": 89.11,
            "overall_macro": 85.60,
        },
    },
]

# Human-agreement reference rows: (subset, count, avg margin, agree rate).
REFERENCE_AGREEMENT_ROWS = [
    ("high_confidence", 20, 1.65, 0.883),
    ("low_confidence", 20, 0.06, 0.783),
    ("random_sampling", 20, 0.77, 0.767),
    ("model_wrong", 15, -0.19, 0.933),
]


class TestPairwiseAccuracy:
    def test_half_correct(self):
        scored = [sp("a", 1.0, 0.5), sp("b", 0.2, 0.4)]
        assert pairwise_accuracy(scored) == 0.5

    def test_ties_count_as_incorrect(self):
        scored = [sp("a", 1.0, 1.0), sp("b", -2.0, -2.0)]
        assert pairwise_accuracy(scored) == 0.0

    def test_empty_set_raises(self):
        with pytest.raises(EmptySetError):
            pairwise_accuracy([])

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_strictly_increasing_transforms(self, n, which):
        rng = np.random.default_rng(n * 7 + which)
        scored = [sp(f"p{i}", float(a), float(b)) for i, (a, b) in enumerate(rng.standard_normal((n, 2)))]
        transform = [
            lambda x: 3.0 * x + 1.0,
            math.exp,
            math.atan,
            lambda x: x**3 + 0.5 * x,
        ][which]
        mapped = [sp(s.pair_id, transform(s.r_chosen), transform(s.r_rejected)) for s in scored]
        assert pairwise_accuracy(mapped) == pairwise_accuracy(scored)


class TestAggregate:
    @pytest.mark.parametrize("card", REFERENCE_SCORECARDS)
    def test_reference_scorecards_reproduced(self, card):
        aggs = aggregate(card["acc"], REFERENCE_COUNTS)
        for name, want in card["want"].items():
            assert getattr(aggs, name) == pytest.approx(want, abs=0.005), name

    def test_micro_equals_macro_with_equal_counts(self):
        acc = {"wild": 0.9, "semi-wild": 0.7, "scripted": 0.8, "colloquial": 0.6}
        counts = {k: 50 for k in acc}
        aggs = aggregate(acc, counts)
        assert aggs.modality_micro == pytest.approx(aggs.modality_macro, rel=0, abs=1e-12)

    def test_missing_subset_raises(self):
        acc = {"wild": 0.9, "semi-wild": 0.7, "scripted": 0.8}
        counts = {k: 10 for k in acc}
        with pytest.raises(MissingSubsetError):
            aggregate(acc, counts)

    def test_zero_count_raises(self):
        acc = {"wild": 0.9, "semi-wild": 0.7, "scripted": 0.8, "colloquial": 0.6}
        counts = {"wild": 10, "semi-wild": 0, "scripted": 10, "colloquial": 10}
        with pytest.raises(MissingSubsetError):
            aggregate(acc, counts)


class TestDistributionStats:
    def test_symmetric_scores_have_zero_drift(self):
        scored = [sp("a", 1.0, -1.0), sp("b", -1.0, 1.0)]
        stats = distribution_stats(scored)
        assert stats["wild"]["drift"]["mean"] == 0.0

    def test_single_pair(self):
        stats = distribution_stats([sp("a", 0.8, -0.2)])
        assert stats["wild"]["margin"]["mean"] == pytest.approx(1.0)
        assert stats["wild"]["r_chosen"]["median"] == 0.8

    def test_even_n_median_is_midpoint(self):
        scored = [sp("a", 1.0, 0.0), sp("b", 3.0, 0.0)]
        assert distribution_stats(scored)["wild"]["r_chosen"]["median"] == 2.0

    def test_quartiles_use_linear_interpolation(self):
        scored = [sp(str(i), float(v), 0.0) for i, v in enumerate([0.1, 1.0, 2.0, 3.0])]
        stats = distribution_stats(scored)["wild"]["r_chosen"]
        assert stats["q1"] == pytest.approx(0.775)
        assert stats["q3"] == pytest.approx(2.25)

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            distribution_stats([])


class TestAgreementStats:
    def test_reference_rows_reproduced(self):
        rows, overall = agreement_stats(REFERENCE_AGREEMENT_ROWS)
        assert overall.agree_rate == pytest.approx(0.835, abs=0.001)
        assert overall.se == pytest.approx(0.043, abs=0.001)
        assert overall.avg_margin == pytest.approx(0.62, abs=0.005)
        assert overall.count == 75
        ses = {r.subset_name: r.se for r in rows}
        assert ses["high_confidence"] == pytest.approx(0.072, abs=0.001)
        assert ses["low_confidence"] == pytest.approx(0.092, abs=0.001)
        assert ses["random_sampling"] == pytest.approx(0.095, abs=0.001)
        assert ses["model_wrong"] == pytest.approx(0.065, abs=0.001)

    def test_se_formula(self):
        rows, _ = agreement_stats([("x", 20, 0.0, 0.883)])
        assert rows[0].se == pytest.approx(math.sqrt(0.883 * 0.117 / 20), rel=0, abs=1e-15)

    def test_overall_between_min_and_max(self):
        rows = [("a", 10, 0.0, 0.6), ("b", 30, 0.0, 0.9), ("c", 5, 0.0, 0.75)]
        _, overall = agreement_stats(rows)
        assert 0.6 <= overall.agree_rate <= 0.9

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            agreement_stats([])


class TestConfidenceBuckets:
    def test_hand_computed_quartiles(self):
        scored = [sp(str(m), m, 0.0) for m in (3.0, 2.0, 1.0, 0.1)]
        buckets = confidence_buckets(scored)
        assert [s.margin for s in buckets["high_confidence"]] == [3.0]
        assert [s.margin for s in buckets["low_confidence"]] == [0.1]
        assert buckets["mis_ranked"] == []

    def test_equal_margins_leave_tails_empty(self):
        scored = [sp(str(i), 1.0, 0.0) for i in range(5)]
        buckets = confidence_buckets(scored)
        assert buckets["high_confidence"] == [] and buckets["low_confidence"] == []

    def test_negative_margin_is_mis_ranked(self):
        scored = [sp("neg", 0.0, 0.19), sp("pos", 1.0, 0.0)]
        buckets = confidence_buckets(scored)
        assert [s.pair_id for s in buckets["mis_ranked"]] == ["neg"]


class TestReport:
    def _scored_all_subsets(self):
        rng = np.random.default_rng(3)
        scored = []
        for subset in ("wild", "semi-wild", "scripted", "colloquial"):
            for i in range(10):
                rc, rr = sorted(rng.standard_normal(2))[::-1]
                scored.append(sp(f"{subset}-{i}", float(rc), float(rr), subset=subset))
        return scored

    def test_report_counts_match_partition(self):
        report = build_report(self._scored_all_subsets())
        assert report.counts == {"wild": 10, "semi-wild": 10, "scripted": 10, "colloquial": 10}
        assert report.per_subset_acc["wild"] == 1.0
        for value in report.per_subset_acc.values():
            assert 0.0 <= value <= 1.0

    def test_report_dict_is_json_shaped(self):
        import json

        payload = build_report(self._scored_all_subsets()).to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_score_file_round_trip(self, tmp_path):
        scored = self._scored_all_subsets()
        path = tmp_path / "scores.jsonl"
        write_scores(scored, path)
        assert read_scores(path) == scored

    def test_csv_row_formatting(self):
        # A score file whose per-subset correct counts realize the first
        # reference scorecard. Aggregates computed from raw counts can
        # differ from the scorecard (which averages already-rounded
        # per-subset numbers) by up to one unit in the last place, hence
        # the +/-0.01 numeric comparison.
        acc = {"wild": 1.0, "semi-wild": 0.9247, "scripted": 0.9227, "colloquial": 0.972}
        scored = []
        for subset, frac in acc.items():
            n = REFERENCE_COUNTS[subset]
            k = round(frac * n)
            for i in range(n):
                scored.append(sp(f"{subset}-{i}", 1.0 if i < k else 0.0, 0.5, subset=subset))
        report = build_report(scored)
        csv_text = report_csv(report)
        header, row = csv_text.strip().splitlines()
        assert header == "wild,semi_wild,scripted,modality_micro,modality_macro,colloq_acc,overall_micro,overall_macro"
        got = [
            report.per_subset_acc["wild"],
            report.per_subset_acc["semi-wild"],
            report.per_subset_acc["scripted"],
            report.modality_micro,
            report.modality_macro,
            report.colloq_acc,
            report.overall_micro,
            report.overall_macro,
        ]
        want = [100.00, 92.47, 92.27, 96.61, 94.91, 97.20, 96.70, 96.06]
        assert [100 * v for v in got] == pytest.approx(want, abs=0.01)
        assert row.split(",") == [format_percent(v) for v in got]

    def test_format_percent_half_up(self):
        assert format_percent(0.96615) == "96.62"
        assert format_percent(0.5) == "50.00"
        assert format_percent(0.966107) == "96.61"
