"""flexcbs benchmark: one workload per call, driven through the public API.

    python3 perfbench/run.py --workload open64-plain --seed 1 --seconds 60 --trace 0

The run writes the workload's corpus as MovingAI files under .perfbench/,
then solves it round after round while the next instance would still end
within --seconds (the first round always completes). Each instance is
loaded with `load_instance`, set up with `Solver(...)` and solved with
`Solver.solve()`; every solution is checked. Per-instance set-up times are
medians and solve times means over the rounds.

--trace 0 prints the end-to-end metrics. --trace 1 runs exactly one round,
whatever --seconds says: it solves each instance once untraced and once with
spans recorded around the package's public call sites (see tracing.py),
prints the per-layer metrics of the traced round and writes the spans to
.perfbench/. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A correctness breach prints it with "correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

DEFAULT_CORPUS_SEED = 1
HOLDOUT_CORPUS_SEED = 2
W = 1.05
EPS = 1e-6
# The solver checks its deadline once per CT expansion, and one expansion can
# run far past it. A solve still running this long after its time limit is
# stopped by the benchmark and counted as a failure ("overrun"), so that one
# instance cannot stall a run.
OVERRUN_GRACE_S = 20.0


def _import_program():
    """Import flexcbs from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "flexcbs")):
        sys.exit(f"perfbench: no flexcbs package under {SRC}")
    sys.path.insert(0, SRC)
    import flexcbs
    if os.path.dirname(os.path.dirname(os.path.abspath(flexcbs.__file__))) != SRC:
        sys.exit(f"perfbench: imported flexcbs from {flexcbs.__file__}, not {SRC}")


_import_program()
sys.path.insert(0, HERE)

from flexcbs import FlexMode, Solver, SolverConfig, load_instance, validate  # noqa: E402

from corpus import CorpusSpec, InstanceFiles, bfs_distances, write_corpus  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    n: int                 # instances per corpus
    time_limit: float      # per solve, seconds
    config: dict = field(default_factory=dict)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(w=W, flex_mode=FlexMode.MFD,
                            time_limit=self.time_limit, **self.config)


WORKLOADS = {
    "open64-plain": Workload(CorpusSpec(64, 0.1, 100, 100), n=4, time_limit=20.0,
                             config=dict(low_level="focal", prioritize=False,
                                         symmetry=False)),
    # 1.6 s sits between the slowest solved instance (0.5-1.1 s) and the
    # fastest failing one (2.5-5 s), so outcomes hold on this noisy machine
    "warehouse-fastar": Workload(CorpusSpec(0, 0.0, 12, 12), n=40, time_limit=1.6,
                                 config=dict(low_level="fastar")),
    # Not in BENCHMARK.json: some of its instances run 10-25 s past their
    # time limit inside one CT expansion (ROADMAP item 4), which swamps every
    # figure. Run it by name to see that defect.
    "dense32-mfd": Workload(CorpusSpec(32, 0.1, 40, 60), n=8, time_limit=10.0,
                            config=dict(low_level="focal")),
}


class Breach(Exception):
    """A returned solution or run that breaks the solver's guarantees."""


class Overrun(Exception):
    """A solve ran OVERRUN_GRACE_S past its own time limit."""


def _overrun(_signum, _frame):
    raise Overrun()


def _no_span(_name):
    return nullcontext()


@dataclass
class Sample:
    setup_s: float
    solve_s: float
    outcome: str
    soc: int | None = None
    generated: int = 0
    expanded: int = 0
    depth: int = 0
    gb_generated: int = 0

    def behaviour(self) -> tuple:
        """What a pure speed-up must leave unchanged. Unsolved runs stop at
        the wall-clock limit, so only their outcome is deterministic."""
        if self.outcome != "solved":
            return (self.outcome,)
        gb = self.gb_generated / self.generated if self.generated else 1.0
        return (self.outcome, self.soc, self.generated, self.expanded,
                round(gb, 12))


def run_instance(files: InstanceFiles, workload: Workload, dist_sum: int,
                 tracer: Tracer | None = None) -> Sample:
    """Load, set up, solve and check one instance."""
    span = _no_span if tracer is None else tracer.span
    if tracer is not None:
        tracer.instance = files.name
    gc.collect()  # no garbage of the previous instance is collected in its time
    t0 = time.perf_counter()
    with span("map_io.load"):
        instance = load_instance(files.map_path, files.scen_path, files.k)
    with span("highlevel.setup"):
        solver = Solver(instance, workload.solver_config())
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, workload.time_limit + OVERRUN_GRACE_S)
    t1 = time.perf_counter()
    try:
        result = solver.solve()
    except Overrun:
        return Sample(t1 - t0, time.perf_counter() - t1, "overrun")
    except Exception as exc:  # a crash is a failed solve, reported with its cause
        print(f"# {files.name}: solve raised {exc!r}", file=sys.stderr)
        return Sample(t1 - t0, time.perf_counter() - t1, "error")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    t2 = time.perf_counter()
    m = result.metrics
    sample = Sample(t1 - t0, t2 - t1, result.outcome, m.soc, m.generated,
                    m.expanded, m.depth, m.gb_generated)
    if m.violations:
        raise Breach(f"{files.name}: bound violations {m.violations[:3]}")
    if result.outcome == "solved":
        with span("oracle.validate"):
            problems = validate(result.paths, instance)
        if problems:
            raise Breach(f"{files.name}: invalid solution {problems[:3]}")
        if m.soc > W * m.lb_final + EPS:
            raise Breach(f"{files.name}: SOC {m.soc} > w * LB {W * m.lb_final:.3f}")
        if m.soc < dist_sum:
            raise Breach(f"{files.name}: SOC {m.soc} below the sum of "
                         f"shortest distances {dist_sum}")
    return sample


def distance_sum(files: InstanceFiles) -> int:
    """Sum of single-agent shortest distances, by the benchmark's own BFS."""
    with open(files.map_path) as f:
        rows = f.read().split("\n")[4:-1]
    with open(files.scen_path) as f:
        entries = [line.split("\t") for line in f.read().splitlines()[1:]]
    total = 0
    for e in entries[:files.k]:
        sx, sy, gx, gy = (int(v) for v in e[4:8])
        total += bfs_distances(rows, (gy, gx), (sy, sx))[(sy, sx)]
    return total


def fingerprint(per_instance: list[tuple]) -> str:
    return hashlib.sha256(repr(per_instance).encode()).hexdigest()[:16]


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    above it, or None below eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def check_repeat(name: str, first: Sample, again: Sample):
    if (first.outcome == again.outcome == "solved"
            and first.behaviour() != again.behaviour()):
        raise Breach(f"{name}: repeated solve differs: {first.behaviour()} "
                     f"vs {again.behaviour()}")


def measure(workload_name: str, place_seed: int, corpus_seed: int,
            seconds: float, trace: bool, n: int | None = None) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    workload = WORKLOADS[workload_name]
    n = n or workload.n
    out_dir = os.path.join(WORK, f"{workload_name}-c{corpus_seed}-s{place_seed}")
    files = write_corpus(workload.corpus, corpus_seed, place_seed, n, out_dir,
                         workload_name)
    dists = [distance_sum(f) for f in files]
    lines = [f"workload {workload_name}: corpus seed {corpus_seed}, placement "
             f"seed {place_seed}, {n} instances, w={W}, time limit {workload.time_limit} s"]
    try:
        if trace:
            metrics, first = _traced(workload, files, dists, out_dir, lines)
        else:
            metrics, first = _untraced(workload, files, dists, seconds, lines)
    except Breach as exc:
        lines.append(f"CORRECTNESS BREACH: {exc}")
        return {"correct": False, "attempted": n, "failed": n,
                "metrics": {}}, lines
    failed = sum(s.outcome != "solved" for s in first)
    lines.append("fingerprint " + fingerprint([s.behaviour() for s in first]))
    return {"correct": True, "attempted": n, "failed": failed,
            "metrics": metrics}, lines


def _untraced(workload, files, dists, seconds, lines):
    """Rounds over the corpus while the next instance, timed as its last
    sample, still ends within `seconds`; the first round always completes."""
    per: list[list[Sample]] = [[] for _ in files]
    start = time.perf_counter()
    i = 0
    while not per[-1] or (time.perf_counter() - start + per[i][-1].setup_s
                          + per[i][-1].solve_s < seconds):
        s = run_instance(files[i], workload, dists[i])
        if per[i]:
            check_repeat(files[i].name, per[i][0], s)
        per[i].append(s)
        i = (i + 1) % len(files)
    first = [p[0] for p in per]
    # The machine's speed drifts in spells of seconds to minutes, not in rare outliers,
    # so a solve time is the mean over the instance's rounds: it averages
    # every spell the run saw, where a median of a few rounds picks one.
    solve = [statistics.mean(x.solve_s for x in p) for p in per]
    setup = [statistics.median(x.setup_s for x in p) for p in per]
    solved = [i for i, s in enumerate(first) if s.outcome == "solved"]
    soc_ratio = (sum(first[i].soc for i in solved) / sum(dists[i] for i in solved)
                 if solved else 0.0)
    all_solves = [x.solve_s for p in per for x in p]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (sum(setup), "s"),
        "solve_s": (sum(solve), "s"),
        "solve_p50_s": (statistics.median(solve), "s"),
        "success_rate": (len(solved) / len(first), "ratio"),
        "soc_ratio": (soc_ratio, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    t = tail(all_solves)
    lines.append(f"rounds: {min(len(p) for p in per)}-{max(len(p) for p in per)} "
                 f"per instance, {len(all_solves)} solves")
    if t is None:
        lines.append(f"solve_tail_s: n/a ({len(all_solves)} solves < 11)")
    else:
        lines.append(f"solve_tail_s: {t[1]:.4f} s at p{t[0]:.1f} of "
                     f"{len(all_solves)} solves")
    for f, s, p in zip(files, first, per):
        lines.append(f"  {f.name} k={f.k} {s.outcome} soc={s.soc} "
                     f"generated={s.generated} expanded={s.expanded} setup_s "
                     + " ".join(f"{x.setup_s:.4f}" for x in p) + " solve_s "
                     + " ".join(f"{x.solve_s:.4f}" for x in p))
    return metrics, first


def _traced(workload, files, dists, out_dir, lines):
    """One untraced and one traced solve per instance; per-layer metrics of
    the traced round plus the tracing overhead on solve time."""
    tracer = Tracer()
    first, traced = [], []
    for i, f in enumerate(files):
        plain = run_instance(f, workload, dists[i])
        with tracer.installed():
            again = run_instance(f, workload, dists[i], tracer)
        check_repeat(f.name, plain, again)
        first.append(plain)
        traced.append(again)
    ct = {key: sum(getattr(s, key) for s in traced)
          for key in ("generated", "expanded", "depth", "gb_generated")}
    metrics = layer_metrics(tracer, ct)
    untraced_s = sum(s.solve_s for s in first)
    traced_s = sum(s.solve_s for s in traced)
    metrics["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    spans_path = os.path.join(out_dir, "spans.jsonl")
    tracer.write_spans(spans_path)
    lines.append(f"tracing overhead: traced solve_s {traced_s:.4f} s - untraced "
                 f"{untraced_s:.4f} s = {traced_s - untraced_s:.4f} s; "
                 f"{len(tracer.spans)} spans in {os.path.relpath(spans_path, ROOT)}")
    return metrics, first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="placement seed: each instance's offset in its frame")
    ap.add_argument("--corpus-seed", type=int, default=DEFAULT_CORPUS_SEED,
                    help=f"draws the instances (default {DEFAULT_CORPUS_SEED}; "
                         f"holdout {HOLDOUT_CORPUS_SEED})")
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = measure(args.workload, args.seed, args.corpus_seed,
                            args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value:.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
