"""episcore: episode-level pairwise preference reward modeling for
multi-turn spoken dialogue, with the full construction, training, and
evaluation harness around it."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .episodes import (
    Criterion,
    Episode,
    PreferencePair,
    Segment,
    SegmentManifest,
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
from .evaluation import (
    AgreementRow,
    Aggregates,
    EvalReport,
    ScoredPair,
    aggregate,
    agreement_stats,
    build_report,
    confidence_buckets,
    distribution_stats,
    pairwise_accuracy,
)
from .gradcheck import run_gradcheck
from .pipeline import (
    GroupingConfig,
    HeuristicJudge,
    JudgeScores,
    SynthConfig,
    filter_by_judge,
    filter_structural,
    group_segments,
    stratify_bench,
    synth_config,
    synth_pairs,
)
from .scorer import (
    Activations,
    EpisodeBatch,
    RowTable,
    ScorerConfig,
    ScorerParams,
    backward,
    backward_batch,
    init_params,
    load_checkpoint,
    pack_episodes,
    save_checkpoint,
    score,
    score_batch,
)
from .training import (
    AdamState,
    StepReport,
    TrainConfig,
    TrainResult,
    bt_loss,
    center_loss,
    clip_gradients,
    lr_at_step,
    optimizer_step,
    total_loss,
    train,
)

# Every public name above but the submodules that the imports bind.
__all__ = ["__version__"] + [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType)]
