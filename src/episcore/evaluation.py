"""Pairwise-accuracy metrics, aggregation, and score-distribution reports.

The harness is score-source agnostic: anything that produces per-pair
(r_chosen, r_rejected) numbers can be evaluated, whether that is the
toolkit's own scorer or an external judge.

Conventions, fixed here and relied on by the report formats:
  * a pair counts as correct only when r_chosen > r_rejected; ties are
    incorrect;
  * modality micro is the pair-count-weighted accuracy over the wild,
    semi-wild, and scripted subsets; modality macro their unweighted mean;
  * overall micro weights all four subsets; overall macro averages the
    modality macro with the colloquial accuracy;
  * quantiles use linear interpolation between order statistics, so the
    even-n median is the midpoint of the central pair;
  * percentages render with two decimals, rounded half-up.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from .episodes import MODALITY_TIERS, SOURCE_TIERS, _get, _record, read_jsonl, write_jsonl
from .errors import EmptySetError, MissingSubsetError

COLLOQUIAL = "colloquial"


@dataclass
class ScoredPair:
    pair_id: str
    r_chosen: float
    r_rejected: float
    subset: str
    criterion: str

    def __post_init__(self):
        if not (math.isfinite(self.r_chosen) and math.isfinite(self.r_rejected)):
            raise ValueError(f"pair {self.pair_id}: scores must be finite")

    @property
    def margin(self) -> float:
        return self.r_chosen - self.r_rejected

    @property
    def drift(self) -> float:
        return self.r_chosen + self.r_rejected


def pairwise_accuracy(scored: list[ScoredPair]) -> float:
    """Fraction of pairs ranked correctly; ties count as incorrect."""
    if not scored:
        raise EmptySetError("cannot compute accuracy over an empty set")
    correct = sum(1 for s in scored if s.r_chosen > s.r_rejected)
    return correct / len(scored)


@dataclass
class Aggregates:
    modality_micro: float
    modality_macro: float
    colloq_acc: float
    overall_micro: float
    overall_macro: float


def aggregate(per_subset_acc: dict[str, float], counts: dict[str, int]) -> Aggregates:
    """Micro/macro aggregation from per-subset accuracies and pair counts.

    Scale-agnostic: feed fractions to get fractions, percents to get
    percents. All four subsets must be present with positive counts.
    """
    for subset in SOURCE_TIERS:
        if subset not in per_subset_acc or subset not in counts:
            raise MissingSubsetError(f"subset {subset!r} missing from aggregation inputs")
        if counts[subset] <= 0:
            raise MissingSubsetError(f"subset {subset!r} has non-positive count {counts[subset]}")
    modality_n = sum(counts[s] for s in MODALITY_TIERS)
    modality_micro = sum(per_subset_acc[s] * counts[s] for s in MODALITY_TIERS) / modality_n
    modality_macro = sum(per_subset_acc[s] for s in MODALITY_TIERS) / len(MODALITY_TIERS)
    colloq_acc = per_subset_acc[COLLOQUIAL]
    total_n = modality_n + counts[COLLOQUIAL]
    overall_micro = (modality_micro * modality_n + colloq_acc * counts[COLLOQUIAL]) / total_n
    overall_macro = (modality_macro + colloq_acc) / 2.0
    return Aggregates(modality_micro, modality_macro, colloq_acc, overall_micro, overall_macro)


def _summary(values: np.ndarray) -> dict[str, float]:
    return {
        "mean": float(values.mean()),
        "median": float(np.percentile(values, 50, method="linear")),
        "q1": float(np.percentile(values, 25, method="linear")),
        "q3": float(np.percentile(values, 75, method="linear")),
    }


def distribution_stats(scored: list[ScoredPair]) -> dict[str, dict[str, dict[str, float]]]:
    """Per-subset order statistics of r_chosen, r_rejected, margin, drift."""
    if not scored:
        raise EmptySetError("cannot compute distribution stats over an empty set")
    out: dict[str, dict[str, dict[str, float]]] = {}
    for group in sorted({s.subset for s in scored}):
        members = [s for s in scored if s.subset == group]
        chosen = np.array([s.r_chosen for s in members])
        rejected = np.array([s.r_rejected for s in members])
        out[group] = {
            "r_chosen": _summary(chosen),
            "r_rejected": _summary(rejected),
            "margin": _summary(chosen - rejected),
            "drift": _summary(chosen + rejected),
        }
    return out


@dataclass
class AgreementRow:
    subset_name: str
    count: int
    avg_margin: float
    agree_rate: float
    se: float = field(init=False)

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError("count must be positive")
        if not 0 <= self.agree_rate <= 1:
            raise ValueError("agree_rate must be a fraction in [0, 1]")
        self.se = math.sqrt(self.agree_rate * (1.0 - self.agree_rate) / self.count)


def agreement_stats(rows: list[tuple[str, int, float, float]]) -> tuple[list[AgreementRow], AgreementRow]:
    """Binomial standard errors per subset plus the weighted overall row.

    Input rows are (subset_name, count, avg_margin, agree_rate) with rates
    as fractions. The overall rate and margin are count-weighted means and
    the overall SE uses the pooled rate with the total count.
    """
    if not rows:
        raise EmptySetError("agreement_stats needs at least one row")
    out = [AgreementRow(name, count, margin, rate) for name, count, margin, rate in rows]
    total = sum(r.count for r in out)
    pooled_rate = sum(r.agree_rate * r.count for r in out) / total
    pooled_margin = sum(r.avg_margin * r.count for r in out) / total
    overall = AgreementRow("overall", total, pooled_margin, pooled_rate)
    return out, overall


def confidence_buckets(scored: list[ScoredPair]) -> dict[str, list[ScoredPair]]:
    """Split pairs by margin: mis-ranked (margin <= 0), then high/low
    confidence as the strict top/bottom quartile tails of the positive
    margins. With all positive margins equal, both tails are empty."""
    mis_ranked = [s for s in scored if s.margin <= 0]
    positive = [s for s in scored if s.margin > 0]
    high, low = [], []
    if positive:
        margins = np.array([s.margin for s in positive])
        lo_thr = float(np.percentile(margins, 25, method="linear"))
        hi_thr = float(np.percentile(margins, 75, method="linear"))
        high = [s for s in positive if s.margin > hi_thr]
        low = [s for s in positive if s.margin < lo_thr]
    return {"high_confidence": high, "low_confidence": low, "mis_ranked": mis_ranked}


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    counts: dict[str, int]
    per_subset_acc: dict[str, float]
    modality_micro: float
    modality_macro: float
    colloq_acc: float
    overall_micro: float
    overall_macro: float
    per_subset_margin: dict[str, dict[str, float]]
    mean_chosen: float
    mean_rejected: float
    drift: float

    def to_dict(self) -> dict:
        return asdict(self)


def build_report(scored: list[ScoredPair]) -> EvalReport:
    """Accuracy, aggregation, and distribution summary in one document."""
    if not scored:
        raise EmptySetError("cannot build a report over an empty set")
    counts: dict[str, int] = {}
    per_subset: dict[str, list[ScoredPair]] = {}
    for s in scored:
        per_subset.setdefault(s.subset, []).append(s)
    per_subset_acc = {}
    for subset, members in sorted(per_subset.items()):
        counts[subset] = len(members)
        per_subset_acc[subset] = pairwise_accuracy(members)
    chosen = np.array([s.r_chosen for s in scored])
    rejected = np.array([s.r_rejected for s in scored])
    return EvalReport(
        counts=counts,
        per_subset_acc=per_subset_acc,
        **asdict(aggregate(per_subset_acc, counts)),
        per_subset_margin={k: v["margin"] for k, v in distribution_stats(scored).items()},
        mean_chosen=float(chosen.mean()),
        mean_rejected=float(rejected.mean()),
        drift=float((chosen + rejected).mean()),
    )


# ---------------------------------------------------------------------------
# Score file and report serialization
# ---------------------------------------------------------------------------


# Score-file fields in record order, with their JSON types.
_SCORE_FIELDS = {"pair_id": str, "r_chosen": float, "r_rejected": float, "subset": str, "criterion": str}


def write_scores(scored: list[ScoredPair], path: str | Path) -> None:
    # Shallow records: dataclasses.asdict deep-copies every field, 30x slower.
    write_jsonl(({k: getattr(s, k) for k in _SCORE_FIELDS} for s in scored), path)


def read_scores(path: str | Path) -> list[ScoredPair]:
    scored = []
    for lineno, rec in read_jsonl(path):
        with _record("score record", lineno):
            scored.append(ScoredPair(**{k: _get(rec, k, kind) for k, kind in _SCORE_FIELDS.items()}))
    return scored


def format_percent(fraction: float) -> str:
    """Render a fraction as a percentage with two decimals, half-up."""
    return str(Decimal(repr(fraction * 100.0)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def report_csv(report: EvalReport) -> str:
    """One CSV row of accuracies (percent, two decimals) in the standard
    benchmark column order."""
    columns = {
        "wild": report.per_subset_acc["wild"],
        "semi_wild": report.per_subset_acc["semi-wild"],
        "scripted": report.per_subset_acc["scripted"],
        "modality_micro": report.modality_micro,
        "modality_macro": report.modality_macro,
        "colloq_acc": report.colloq_acc,
        "overall_micro": report.overall_micro,
        "overall_macro": report.overall_macro,
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns.keys())
    writer.writerow([format_percent(v) for v in columns.values()])
    return buf.getvalue()
