"""Verify the hand-derived gradients against finite differences.

Every learnable tensor, every pooling mode. Central differences with
h = 1e-5 in float64 sit around 1e-9 relative error when the analytic
gradients are right; a real bug lands orders of magnitude higher.
"""

import time

from episcore import run_gradcheck, scorer

start = time.perf_counter()
report = run_gradcheck(n_draws=25, seed=0)
elapsed = time.perf_counter() - start

print(f"verdict: {'PASS' if report.passed else 'FAIL'} "
      f"({report.n_draws} draws x {len(report.modes)} pooling modes, {elapsed:.2f}s)")
print(f"{'group':>8} {'max rel err':>12}  worst case")
for name, group in report.groups.items():
    print(f"{name:>8} {group.max_rel_err:12.3e}  draw {group.worst_draw}, {group.worst_mode} pooling")

# Fault injection: corrupt one gradient group and watch the check catch it.
backward_batch = scorer.backward_batch


def corrupt_w1(*args):
    grads = backward_batch(*args)
    grads.w1[...] += 1e-2
    return grads


scorer.backward_batch = corrupt_w1
try:
    bad = run_gradcheck(n_draws=2, seed=0)
finally:
    scorer.backward_batch = backward_batch
print(f"\nwith a deliberately corrupted w1 gradient: passed={bad.passed}, "
      f"worst group={bad.worst_group}, rel err={bad.groups['w1'].max_rel_err:.3f}")
