"""togglekit benchmark: time until a verified report, and where the time goes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the library is imported from src/
and nothing is built.  Workloads (their sizes are part of the definition):

    ideals-8x8    SUITES["order"](rectangle_poset(8, 8), samples=5, seed)
                  ~90% combinatorial: 411,840 ideal rowmotion/promotion steps
    arrays-6x6    SUITES["recombination"](rectangle_poset(6, 6), samples=100, seed)
                  PL and birational sweeps only; no ideal enumeration
    cli-suites    one fresh `python -m togglekit verify SUITE ... --samples 20
                  --json` process for each of the eight suites at small
                  shapes, one after another; the only workload that runs
                  the CLI, import, tableaux, polytopes and serialize
                  layers, and it runs every other layer too

There is no homomesy workload.  SUITES["homomesy"](rectangle_poset(4, 4),
samples=50, seed) reports "pass": false for some seeds (2 of 124 tried,
2012 and 3025): in homomesy-space-dimension-under-promotion the sample
differences of the first half of the draw have a lower rank than all of
them.  A workload must be one on which no op fails, and skipping those
seeds would hide the defect.  The orbit and homomesy layers are traced on
cli-suites, whose homomesy suite on [2]x[3] passed on all 1,600 seeds tried.

Each workload is single-threaded: one process, or on cli-suites one CLI
process at a time, and the run pins itself and its children to one core.
An op is one suite call, or one CLI process; a round is one op, or one
batch of the eight CLI processes.  Rounds repeat until --seconds have
passed.  The run seed N stands for SEEDS_PER_RUN suite seeds, N,
N + SEED_STRIDE, N + 2 * SEED_STRIDE, ..., and round r passes suite seed
number r mod SEEDS_PER_RUN to the suites, which draw their samples from
it.  The work a suite call does depends on its seed
(by up to 10% per CLI suite at --samples 20), so one run covers several
seeds and its medians do not hinge on one draw.  Traced runs use the run
seed alone, so that their counts repeat between rounds.  expected.json
records a default seed and a held-out seed (pass it as --seed to
re-check a gain claim on data not used while writing it), each with the
sha256 of the canonical bytes of every report of each of their suite
seeds (serialize.dumps_canonical, which `verify --json` prints).

Correctness gate.  An op fails if it raises, its report says "pass":
false, its canonical bytes differ from the first repetition of its
suite seed, or, for a run seed recorded in expected.json, their sha256
differs from the record.  A CLI op also fails on a non-zero exit code.
Traced ops must give the same bytes as untraced ones.

--trace 0 prints the end-to-end metrics.  Their times are host-scaled
(see HostClock): each wall time is multiplied by REFERENCE_S over the
mean time of a fixed reference loop run beside it, before, after and,
for in-process ops, every SAMPLE_EVERY_S inside it.  That takes out the
drift of a shared host, whose speed changes by up to 1.5x within a run,
and keeps every change in the program's own speed.  The unscaled
medians are printed on the line before the metrics.
    setup_s       median over fresh processes (warm bytecode cache) of the
                  time to import togglekit (togglekit.cli on cli-suites)
                  and build the workload's posets; the processes run
                  between the rounds, so they sample the whole run
    suite_s.p50   median op time
    inputs_per_s  inputs checked in a round (the sum of "inputs" over its
                  reports) divided by the sum, over the round's suites, of
                  each suite's median op time
    peak_rss_mb   peak resident memory of the process that ran the ops (of
                  the largest CLI process on cli-suites)

--trace 1 alternates untraced and traced rounds.  For a traced round
tracer.py wraps togglekit's public functions, and the per-layer metrics
are those of one round, as the median over the traced rounds.  Every "_s"
layer metric is the self time of that layer's spans: time inside its
functions minus time inside other traced layers they call.  verify.self_s
is what is left of the op, so the layer self times plus verify.self_s
add up to the traced op wall time; the run checks that they do within
RECONCILE_BOUND.  Count metrics must repeat exactly between traced rounds.
Spans and per-round summaries are written to .perfbench_out/.

The last line of stdout is one JSON object:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
"""

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

SUITE_WORKLOADS = {
    "ideals-8x8": ("order", (8, 8), 5),
    "arrays-6x6": ("recombination", (6, 6), 100),
}
CLI_WORKLOAD = "cli-suites"
CLI_SAMPLES = 20
CLI_SUITES = (
    ("order", "3x3"),
    ("three-step", "3x3"),
    ("recombination", "3x3"),
    ("reciprocity", "3x3"),
    ("quotient", "3x3"),
    ("homomesy", "2x3"),
    ("bridge", None),
    ("vertex", "3x3"),
)
CLI_SHAPES = ((3, 3), (2, 3))

SETUP_PROCESSES = 20  # at least this many set-up samples per run
SETUP_PER_ROUND = 2
SEEDS_PER_RUN = 4
SEED_STRIDE = 1000
MIN_ROUNDS = SEEDS_PER_RUN  # untraced rounds per --trace 0 run, after the warm-up
WARMUP_S = 2.0  # untimed rounds first, at least one: caches fill, the CPU leaves idle
MIN_TRACED_ROUNDS = 2
RECONCILE_BOUND = 0.01  # |traced op wall - sum of self times| / traced op wall
REFERENCE_ITERATIONS = 1_200
REFERENCE_S = 0.010  # host-scaled seconds assume the reference loop takes this long
SAMPLE_EVERY_S = 0.25  # host speed samples inside an in-process op

# name -> (unit, source): source is ("count" | "self", bucket) for a
# tracer bucket, ("extra", counter) for an observer counter, and None for
# values computed here.
LAYER_METRICS = {
    "kernels.sweep_calls": ("count", ("count", "kernels.sweep")),
    "kernels.sweep_s": ("s", ("self", "kernels.sweep")),
    "kernels.toggle_calls": ("count", ("count", "kernels.toggle")),
    "kernels.toggle_s": ("s", ("self", "kernels.toggle")),
    "kernels.enumerate_s": ("s", ("self", "kernels.enumerate")),
    "posets.ideal_steps": ("count", ("count", "posets.ideal_step")),
    "posets.ideal_step_self_s": ("s", ("self", "posets.ideal_step")),
    "posets.enumerate_s": ("s", ("self", "posets.enumerate")),
    "dynamics.pl.sweeps": ("count", ("count", "dynamics.pl.sweep")),
    "dynamics.pl.sweep_s": ("s", ("self", "dynamics.pl.sweep")),
    "dynamics.birational.sweeps": ("count", ("count", "dynamics.birational.sweep")),
    "dynamics.birational.sweep_s": ("s", ("self", "dynamics.birational.sweep")),
    "dynamics.toggles": ("count", ("extra", "dynamics.toggles")),
    "dynamics.toggle_s": ("s", ("self", "dynamics.toggle")),
    "rational.max_num_bits": ("bit", ("extra", "rational.max_num_bits")),
    "rational.max_den_bits": ("bit", ("extra", "rational.max_den_bits")),
    "orbits.walks": ("count", ("count", "orbits.walk")),
    "orbits.states": ("count", ("extra", "orbits.states")),
    "orbits.walk_self_s": ("s", ("self", "orbits.walk")),
    "orbits.period_max": ("count", None),
    "orbits.period_p50": ("count", None),
    "homomesy.statistics_self_s": ("s", ("self", "homomesy.statistics")),
    "homomesy.average_vector_self_s": ("s", ("self", "homomesy.average_vector")),
    "homomesy.rank_s": ("s", ("self", "homomesy.rank")),
    "birational.shear_self_s": ("s", ("self", "birational.shear")),
    "birational.reciprocity_self_s": ("s", ("self", "birational.reciprocity")),
    "birational.quotient_self_s": ("s", ("self", "birational.quotient")),
    "polytopes.three_step_self_s": ("s", ("self", "polytopes.three_step")),
    "tableaux.promotion_s": ("s", ("self", "tableaux.promotion")),
    "tableaux.bender_knuth_s": ("s", ("self", "tableaux.bender_knuth")),
    "tableaux.embed_s": ("s", ("self", "tableaux.embed")),
    "serialize.dumps_s": ("s", ("self", "serialize.dumps")),
    "sampling.draw_s": ("s", ("self", "sampling.draw")),
    "verify.self_s": ("s", ("self", "verify")),
    "cli.import_s": ("s", None),
    "cli.process_overhead_s": ("s", None),
    "trace.overhead_ratio": ("ratio", None),
}


class Gate:
    'Correctness gate: counts attempted and failed ops and says why they failed.'

    def __init__(self, workload, seed):
        with open(EXPECTED_PATH) as handle:
            self.expected = json.load(handle)["sha256"].get(str(seed), {}).get(workload, {})
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, key, data, passed):
        'Judge one op by its report bytes; key names the suite it ran.'
        self.attempted += 1
        reasons = []
        if not passed:
            reasons.append("report does not pass")
        if self.first.setdefault(key, data) != data:
            reasons.append("bytes differ between repetitions")
        expected = self.expected.get(key)
        if expected is not None and hashlib.sha256(data).hexdigest() != expected:
            reasons.append("sha256 differs from expected.json")
        if reasons:
            self.failed += 1
            self.problems.append(f"{key}: {', '.join(reasons)}")

    def broken(self, reason):
        'An op that raised or exited non-zero.'
        self.attempted += 1
        self.failed += 1
        self.problems.append(reason)

    def check(self, ok, reason):
        'A run-level check: trace coverage, repeated counts, reconciliation.'
        if not ok:
            self.problems.append(reason)

    @property
    def correct(self):
        return not self.problems


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def environment(shapes):
    from togglekit import kernels, rational

    return {
        "rational.BACKEND": rational.BACKEND,
        "kernels.HAVE_COMPILED": kernels.HAVE_COMPILED,
        "kernel_for": {f"{a}x{b}": kernels.kernel_for(a * b).__name__ for a, b in shapes},
        "TOGGLEKIT_PURE": os.environ.get("TOGGLEKIT_PURE"),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def reference_loop_s():
    """Wall time of a fixed loop of standard-library Fraction arithmetic.

    It never touches togglekit.  Of the loops tried, small-rational
    arithmetic tracked the host's speed changes best on the order,
    recombination and homomesy suites; a pure integer loop missed part of
    the swings that the last two see.
    """
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, REFERENCE_ITERATIONS):
        x = (x + Fraction(i, i + 1)) / 2
        if x.denominator >> 200:
            x = Fraction(1, 3)
    return time.perf_counter() - t0


class HostClock:
    """Context manager that times a block and the host's speed while it runs.

    The shared host drifts between speeds about 1.5x apart, for seconds to
    minutes at a time, so wall times of the same code spread by a quarter
    between runs.  The reference loop drifts with the host, and the
    program's own speed-ups do not move it.  HostClock runs it on entry,
    on exit and, with sample=True, every SAMPLE_EVERY_S inside the block
    from a SIGALRM handler in this thread.  wall is the block's wall time
    less the time spent in the handler, scale is REFERENCE_S over the mean
    reference loop time, and scaled = wall * scale is the time the block
    would have taken on a host that runs the reference loop in
    REFERENCE_S.  Blocks that wait on a child process must not sample: the
    handler would take the core from the child and its time would count
    in the child's wall time.
    """

    def __init__(self, sample=False):
        self.sample = sample

    def __enter__(self):
        self.samples = [reference_loop_s()]
        self.sampling_s = 0.0
        if self.sample:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.t0 = time.perf_counter()
        return self

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_loop_s())
        self.sampling_s += time.perf_counter() - t0

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self.t0 - self.sampling_s
        self.samples.append(reference_loop_s())
        self.scale = REFERENCE_S / statistics.fmean(self.samples)
        self.scaled = self.wall * self.scale


class SetupProbe:
    'Times importing the library and building posets in fresh processes.'

    def __init__(self, module_name, shapes):
        self.argv = [sys.executable, os.path.join(HERE, "child.py"), "setup", module_name]
        self.argv += [f"{a}x{b}" for a, b in shapes]
        self.times = []  # (wall, host-scaled) seconds
        self._once()  # warms the bytecode cache; not recorded

    def _once(self):
        with HostClock() as host:
            wall = float(subprocess.run(self.argv, env=child_env(), cwd=ROOT, check=True,
                                        capture_output=True, text=True).stdout)
        return wall, wall * host.scale

    def sample(self, count=SETUP_PER_ROUND):
        self.times += [self._once() for _ in range(count)]


def report_inputs(report):
    return sum(check["inputs"] for check in report["checks"])


class SuiteWorkload:
    'One in-process suite call per round.'

    setup_module = "togglekit"

    def __init__(self, name, gate):
        from togglekit import SUITES, rectangle_poset
        from tracer import Tracer

        self.name = name
        self.suite, shape, self.samples = SUITE_WORKLOADS[name]
        self.shapes = (shape,)
        self.fn = SUITES[self.suite]
        self.poset = rectangle_poset(*shape)
        self.gate = gate
        self.tracer = Tracer()

    def round(self, seed, traced):
        """Returns ({suite: (op wall, host-scaled op time)}, inputs, layer values or None),
        or None if the op raised."""
        from togglekit import serialize

        key = f"{self.suite} seed {seed}"
        args = (self.poset, self.samples, seed)
        try:
            if traced:
                unwrapped = self.tracer.install()
                self.gate.check(not unwrapped, f"trace coverage: unwrapped {unwrapped}")
                try:
                    with HostClock() as host:  # a sampling handler would land in the spans
                        report, wall = self.tracer.run(self.fn, *args)
                finally:
                    self.tracer.uninstall()
            else:
                with HostClock(sample=True) as host:
                    report = self.fn(*args)
                wall = host.wall
        except Exception:
            traceback.print_exc()
            self.gate.broken(f"{key}: op raised")
            return None
        values = None
        if traced:
            values = layer_values(self.tracer.summary(), wall)
            self.tracer.write_spans(os.path.join(OUT_DIR, f"{self.name}.spans.bin"))
            reconcile(self.gate, values, wall)
        data = serialize.dumps_canonical(report).encode()
        self.gate.op(key, data, report["pass"])
        return {self.suite: (wall, wall * host.scale)}, report_inputs(report), values

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliWorkload:
    'One batch of eight fresh `togglekit verify` processes per round.'

    name = CLI_WORKLOAD
    shapes = CLI_SHAPES
    setup_module = "togglekit.cli"

    def __init__(self, gate):
        self.gate = gate

    def round(self, seed, traced):
        'Returns ({suite: (process wall, host-scaled)}, inputs, merged layer values or None).'
        walls, inputs, per_process = {}, 0, []
        for suite, shape in CLI_SUITES:
            argv = ["verify", suite, "--samples", str(CLI_SAMPLES), "--seed", str(seed), "--json"]
            if shape is not None:
                argv += ["--shape", shape]
            done = self.op(f"{suite} seed {seed}", argv, traced)
            if done is not None:
                times, report, values = done
                walls[suite] = times
                inputs += report_inputs(report)
                per_process.append(values)
        return walls, inputs, merge_batch(per_process) if traced else None

    def op(self, key, argv, traced):
        'One CLI process; returns ((wall, host-scaled), report, layer values or None), or None.'
        if traced:
            spans = os.path.join(OUT_DIR, f"{CLI_WORKLOAD}.{argv[1]}.spans.bin")
            command = [sys.executable, os.path.join(HERE, "child.py"), "cli", spans, *argv]
        else:
            command = [sys.executable, "-m", "togglekit", *argv]
        with HostClock() as host:
            proc = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True)
        wall = host.wall
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            self.gate.broken(f"{key}: exit code {proc.returncode}")
            return None
        report = json.loads(proc.stdout)
        self.gate.op(key, proc.stdout, report["pass"])
        times = (wall, wall * host.scale)
        if not traced:
            return times, report, None
        child = json.loads(proc.stderr.decode().splitlines()[-1])
        values = layer_values(child, child["main_s"])
        values["cli.import_s"] = child["import_s"]
        values["cli.process_overhead_s"] = wall - child["main_s"] - child["tracer_s"]
        reconcile(self.gate, values, child["main_s"])
        self.gate.check(not child["unwrapped"], f"trace coverage: unwrapped {child['unwrapped']}")
        return times, report, values

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def layer_values(summary, wall):
    'Per-layer values of one traced op, from a tracer summary.'
    out = {"periods": summary["periods"], "cli.import_s": 0.0, "cli.process_overhead_s": 0.0}
    for name, (_, source) in LAYER_METRICS.items():
        if source is not None:
            kind, key = source
            table = {"count": summary["counts"], "self": summary["self_s"],
                     "extra": summary["extra"]}[kind]
            out[name] = table.get(key, 0)
    out["reconcile_gap"] = abs(wall - sum(summary["self_s"].values())) / wall
    return out


def reconcile(gate, values, wall):
    gate.check(values["reconcile_gap"] <= RECONCILE_BOUND,
               f"self times miss the traced op wall time {wall:.6f} s "
               f"by {values['reconcile_gap']:.2%}")


def merge_batch(per_process):
    'Layer values of one CLI batch: sums over its processes, maxima for bits and gaps.'
    merged = {"periods": {}}
    for values in per_process:
        for name, value in values.items():
            if name == "periods":
                for period, n in value.items():
                    merged["periods"][period] = merged["periods"].get(period, 0) + n
            elif name.startswith("rational.") or name == "reconcile_gap":
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0) + value
    return merged


def suite_seeds(seed, trace):
    'The suite seeds that run seed `seed` stands for.'
    return [seed] if trace else [seed + SEED_STRIDE * j for j in range(SEEDS_PER_RUN)]


def measure(workload, seeds, seconds, trace, between):
    """Run rounds until `seconds` have passed, calling between() after each.

    Untimed warm-up rounds with seeds[0] come first, and their reports
    are checked like any other, so the first suite seed always repeats.
    Then round r uses seeds[r % len(seeds)].  Returns (untraced rounds,
    traced rounds).  With trace, untraced and traced rounds alternate, so
    that both see the same machine conditions.
    """
    started = time.perf_counter()
    while True:
        workload.round(seeds[0], traced=False)
        if time.perf_counter() - started >= WARMUP_S:
            break
    untraced, traced = [], []
    least = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    started = time.perf_counter()
    while len(untraced) < least or time.perf_counter() - started < seconds:
        seed = seeds[len(untraced) % len(seeds)]
        untraced.append(workload.round(seed, traced=False))
        if trace:
            traced.append(workload.round(seed, traced=True))
        between()
    if trace:
        pairs = [(u, t) for u, t in zip(untraced, traced) if u and t]
        return [u for u, _ in pairs], [t for _, t in pairs]
    return [u for u in untraced if u], []


def end_to_end(workload, rounds, setup_times):
    'Host-scaled end-to-end metrics; the unscaled medians are printed beside them.'
    by_suite = {}
    for round_times, _, _ in rounds:
        for suite, times in round_times.items():
            by_suite.setdefault(suite, []).append(times)
    ops = [times for suite_times in by_suite.values() for times in suite_times]
    scaled = [s for _, s in ops]
    round_s = sum(statistics.median(s for _, s in suite_times) for suite_times in by_suite.values())
    inputs = statistics.median(inputs for _, inputs, _ in rounds)
    n = len(ops)
    if n >= 11:  # the highest percentile with at least ten samples beyond it
        print(f"suite_s.tail = p{100 * (n - 10) // n} {sorted(scaled)[n - 11]:.6g} s (n={n})")
    else:
        print(f"suite_s.tail = n/a: {n} ops, a tail needs at least 11")
    print(f"unscaled wall: suite p50 {statistics.median(w for w, _ in ops):.6g} s, "
          f"setup p50 {statistics.median(w for w, _ in setup_times):.6g} s")
    return {
        "setup_s": (statistics.median(s for _, s in setup_times), "s",
                    f"median of {len(setup_times)} fresh processes, host-scaled"),
        "suite_s.p50": (statistics.median(scaled), "s", f"median of {n} ops, host-scaled"),
        "inputs_per_s": (inputs / round_s, "1/s",
                         f"{inputs:g} inputs per round / {round_s:.6g} s, the sum of "
                         f"{len(by_suite)} per-suite host-scaled medians over "
                         f"{len(rounds)} rounds"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB", "ru_maxrss"),
    }


def per_layer(workload, untraced, traced, gate):
    values = [v for _, _, v in traced]
    if workload.name == "ideals-8x8":
        # Each of the C(a+b, a) ideals of [a]x[b] takes a+b steps under
        # each of the two maps, and each step is one kernel sweep.
        a, b = workload.shapes[0]
        want = 2 * math.comb(a + b, a) * (a + b)
        for v in values:
            gate.check(v["posets.ideal_steps"] == v["kernels.sweep_calls"] == want,
                       f"trace coverage: {v['posets.ideal_steps']} ideal steps and "
                       f"{v['kernels.sweep_calls']} kernel sweeps, expected {want}")
    metrics = {}
    for name, (unit, source) in LAYER_METRICS.items():
        if source is None:
            continue
        if unit in ("count", "bit"):
            seen = {v[name] for v in values}
            gate.check(len(seen) == 1, f"{name} differs between traced rounds: {sorted(seen)}")
            metrics[name] = values[0][name]
        else:
            metrics[name] = statistics.median(v[name] for v in values)
    for name in ("cli.import_s", "cli.process_overhead_s"):
        metrics[name] = statistics.median(v[name] for v in values)
    histograms = {json.dumps(v["periods"], sort_keys=True) for v in values}
    gate.check(len(histograms) == 1, "orbit period histograms differ between traced rounds")
    periods = sorted(int(p) for p, n in values[0]["periods"].items() for _ in range(n))
    metrics["orbits.period_max"] = periods[-1] if periods else 0
    metrics["orbits.period_p50"] = statistics.median_low(periods) if periods else 0
    metrics["trace.overhead_ratio"] = statistics.median(
        sum(s for _, s in t[0].values()) / sum(s for _, s in u[0].values())
        for u, t in zip(untraced, traced)
    )
    print(f"orbits.period_hist = {histograms.pop()}")
    gap = max(v["reconcile_gap"] for v in values)
    print(f"trace.reconcile_gap = {gap:.3e} (bound {RECONCILE_BOUND})")
    note = f"median of {len(values)} traced rounds"
    return {name: (metrics[name], LAYER_METRICS[name][0], note) for name in LAYER_METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*SUITE_WORKLOADS, CLI_WORKLOAD), required=True)
    parser.add_argument("--seed", type=int, help="defaults to the default seed in expected.json")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "togglekit", "__init__.py")):
        print(f"error: no togglekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.seed is None:
        with open(EXPECTED_PATH) as handle:
            args.seed = json.load(handle)["default_seed"]
    os.makedirs(OUT_DIR, exist_ok=True)

    gate = Gate(args.workload, args.seed)
    if args.workload == CLI_WORKLOAD:
        workload = CliWorkload(gate)
    else:
        workload = SuiteWorkload(args.workload, gate)
    env = environment(workload.shapes)
    print("env " + json.dumps(env, sort_keys=True))
    # The reference loop must run on the core that runs the ops.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seeds = suite_seeds(args.seed, args.trace)
    print(f"workload {args.workload}  seed {args.seed} (suite seeds {seeds})  "
          f"seconds {args.seconds:g}  trace {args.trace}")

    probe = None if args.trace else SetupProbe(workload.setup_module, workload.shapes)
    reference_before = statistics.median(reference_loop_s() for _ in range(5))
    untraced, traced = measure(workload, seeds, args.seconds, args.trace,
                               between=probe.sample if probe else lambda: None)
    print(f"reference loop {reference_before * 1e3:.2f} ms before the ops, "
          f"{statistics.median(reference_loop_s() for _ in range(5)) * 1e3:.2f} ms after "
          f"(host-scaled times assume {REFERENCE_S * 1e3:g} ms)")
    if args.trace:
        metrics = per_layer(workload, untraced, traced, gate)
        with open(os.path.join(OUT_DIR, f"{args.workload}.trace.json"), "w") as handle:
            json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                       "rounds": [v for _, _, v in traced]}, handle, indent=1, sort_keys=True)
    else:
        probe.sample(max(0, SETUP_PROCESSES - len(probe.times)))
        metrics = end_to_end(workload, untraced, probe.times)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    print(f"failed_ratio = {gate.failed / max(gate.attempted, 1):g} "
          f"({gate.failed} of {gate.attempted} ops failed)")
    for problem in gate.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
