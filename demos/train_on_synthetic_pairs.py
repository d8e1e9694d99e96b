"""Train the scorer on planted-signature synthetic pairs.

The generator plants a known feature offset in the chosen side's final
turn, so ground truth is learnable by construction and held-out pairwise
accuracy should approach 1.0.
"""

import dataclasses

import numpy as np

from episcore import ScorerConfig, TrainConfig, synth_config, synth_pairs, train
from episcore.training import pair_chunks, score_pairs

synth = synth_config(seed=0, noise_std=0.25)
train_pairs = synth_pairs(synth, 1000, split="train")
val_pairs = synth_pairs(dataclasses.replace(synth, seed=1, signature=synth.signature.copy()), 250, split="val")
print(f"{len(train_pairs)} train pairs / {len(val_pairs)} val pairs, tiers:",
      sorted({p.source_tier for p in train_pairs}))

scorer_cfg = ScorerConfig(d_in=synth.d_in, pooling="mean")
train_cfg = TrainConfig(total_steps=600, eval_every=50, seed=0)
result = train(train_pairs, val_pairs, scorer_cfg, train_cfg)

print(f"best checkpoint at step {result.best_step} with validation loss {result.best_val_loss:.4f}")
for report in result.history[::100]:
    print(
        f"  step {report.step:4d}  loss {report.loss_total:.4f}  "
        f"batch margin {report.batch_margin:+.3f}  lr {report.lr:.2e}"
    )

rc, rr = score_pairs(pair_chunks(val_pairs, scorer_cfg), scorer_cfg, result.best_params)
print(f"held-out pairwise accuracy: {np.mean(rc > rr):.4f}")
print(f"mean margin: {np.mean(rc - rr):+.4f}   mean drift: {np.mean(rc + rr):+.4f}")
