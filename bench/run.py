"""Benchmark of episcore's train, score and curate jobs.

    python3 bench/run.py --workload {train,curate_score} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. One process runs one workload in process through
``episcore.cli.main``:

1. set-up (input synthesis, manifest and checkpoint writes) runs
   ``SETUP_REPEATS`` times into the same directory and is timed each time;
   the first run creates the files, later ones rewrite them;
2. rounds of the workload's CLI jobs run until ``--seconds`` have passed,
   all into the same output directory; the first round creates the output
   files and is checked against the reference computations but not timed,
   and every later one (at least ``MIN_ROUNDS``) must rewrite every output
   file with the same bytes.

Before each timed set-up and round, ``os.sync`` flushes the writes of the
previous one, so that it does not slow the next (see README.md).

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` set-up runs once, and after one untimed round the rounds
alternate between traced and untraced; the line reports the per-layer
metrics of one set-up plus one round (see README.md). Spans go to
``.bench_out/``. BLAS/OpenMP are pinned to one thread, and work files live
under ``.bench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

# Must be set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 2


def fs_type(path: Path) -> str:
    """Filesystem type of the mount that holds ``path``."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    with open("/proc/self/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1].replace("\\040", " ")
            if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def environment(work: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "work_dir_fs": fs_type(work),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def make_cli(main, tracer=None):
    """Call ``main(argv)`` with its console output discarded; a crash counts
    as a failed operation. Traced, the call is a span ``cli.<subcommand>``."""

    def call(sub: str, argv: list[str]) -> int:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    return main(argv)
                return tracer.call(f"cli.{sub}", main, argv)
        except Exception:  # noqa: BLE001 - the run goes on and reports the failure
            traceback.print_exc()
            return 1

    return call


class Rounds:
    """Round bookkeeping shared by both modes: counts, checks, repeatability.

    Every round writes the same output directory, so from the second round
    on the jobs rewrite existing files rather than create them. A file a
    round failed to write would still hold the previous round's bytes, so
    each later round must also have touched every file again.
    """

    def __init__(self, wl, work: Path):
        self.wl, self.out = wl, work / "out"
        self.attempted = self.failed = 0
        self.digest, self.mtimes = None, {}

    def run(self, cli) -> float:
        os.sync()
        start = time.perf_counter()
        codes = self.wl.run_round(self.out, cli)
        wall = time.perf_counter() - start
        self.attempted += len(codes)
        self.failed += sum(code != 0 for code in codes)
        return wall

    def check(self) -> None:
        from reference import CheckFailed
        from workloads import tree_digest

        digest, mtimes = tree_digest(self.out)
        if self.digest is None:
            self.wl.check(self.out)
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("a repeated round did not reproduce the first round's outputs byte for byte")
        else:
            stale = [path for path, t in mtimes.items() if t <= self.mtimes[path]]
            if stale:
                raise CheckFailed(f"a repeated round did not rewrite {stale[0]}")
        self.mtimes = mtimes


def timed_setup(wl, d: Path) -> float:
    """Time one set-up of ``wl`` into ``d``, after flushing earlier writes."""
    os.sync()
    start = time.perf_counter()
    wl.setup(d)
    return time.perf_counter() - start


def run_untraced(wl, work: Path, seconds: float, import_s: float, cli) -> tuple[dict, Rounds]:
    (work / "in").mkdir()
    setups = [timed_setup(wl, work / "in") for _ in range(SETUP_REPEATS)]
    rounds = Rounds(wl, work)
    walls = []
    start = time.perf_counter()
    # The first round creates the output files that later rounds rewrite;
    # it is checked but not timed.
    warmup = rounds.run(cli)
    rounds.check()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        walls.append(rounds.run(cli))
        rounds.check()
    print(json.dumps({"setup_s": setups, "warmup_s": warmup, "round_s": walls, "items_per_round": wl.items_per_round}))
    metrics = {
        "items_per_s": (statistics.median(wl.items_per_round / w for w in walls), "items/s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, rounds


def run_traced(wl, work: Path, seconds: float, main, name: str, seed: int) -> tuple[dict, Rounds]:
    import spans
    from reference import CheckFailed

    tracer = spans.Tracer()
    origin = time.perf_counter()
    (work / "in").mkdir()
    tracer.install()
    timed_setup(wl, work / "in")
    tracer.uninstall()
    setup_self = spans.summarize(tracer, 0, tracer.mark())
    setup_counts = tracer.take_counts()
    keep = None  # spans up to the end of the first traced round are written out

    rounds = Rounds(wl, work)
    plain, traced_cli = make_cli(main), make_cli(main, tracer)
    walls = {False: [], True: []}
    round_self, round_counts = [], []
    start = time.perf_counter()
    # The first round creates the output files that later rounds rewrite;
    # it is left out of the comparison of traced and untraced rounds.
    rounds.run(plain)
    rounds.check()
    while len(walls[True]) + len(walls[False]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = len(walls[True]) <= len(walls[False])
        if traced:
            mark = tracer.mark()
            tracer.install()
            walls[True].append(rounds.run(traced_cli))
            tracer.uninstall()
            round_self.append(spans.summarize(tracer, mark, tracer.mark()))
            round_counts.append(tracer.take_counts())
            if keep is None:
                keep = tracer.mark()
            else:
                del tracer.spans[mark:]
        else:
            walls[False].append(rounds.run(plain))
        rounds.check()
    if any(c != round_counts[0] for c in round_counts):
        raise CheckFailed("per-layer counts differ between identical rounds")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl", origin, keep)

    counts = round_counts[0]
    metrics = {}
    for metric, unit in spans.METRICS:
        layer, stat = metric.rsplit(".", 1)
        if metric == "trace.overhead_s":
            value = statistics.median(walls[True]) - statistics.median(walls[False])
        elif metric == "pipeline.kept_ratio":
            grouped = counts.get(("pipeline.group_segments", "episodes"), 0)
            value = counts.get(("pipeline.filter_structural", "kept"), 0) / grouped if grouped else 0.0
        elif stat == "s":
            value = setup_self.get(layer, 0.0) + statistics.median(r.get(layer, 0.0) for r in round_self)
        else:
            value = setup_counts.get((layer, stat), 0) + counts.get((layer, stat), 0)
        metrics[metric] = (value, unit)
    return metrics, rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "curate_score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "episcore" / "cli.py").is_file():
        print(f"error: no episcore sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import episcore.cli
    import workloads

    import_s = time.perf_counter() - start

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        print(json.dumps({"env": environment(work)}))
        try:
            if args.trace:
                metrics, rounds = run_traced(wl, work, args.seconds, episcore.cli.main, args.workload, args.seed)
            else:
                metrics, rounds = run_untraced(wl, work, args.seconds, import_s, make_cli(episcore.cli.main))
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    result = {
        "correct": True,  # a failed check exits above
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
