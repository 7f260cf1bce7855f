"""namecluster benchmark: CLI CPU time, set-up time and memory, per-layer timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {baseline,sweep,scaling} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

One client runs the workload's CLI invocations in a closed loop: each starts
only after the previous one has exited, through the launcher in spawn.py.
The program is the checkout's ``src/namecluster``, run as
``python -m namecluster``. Every output is checked (see workloads.py).

--trace 0 reports the end-to-end metrics: CPU seconds (user + system, from
``os.wait4``) of the CLI child and of fresh imports, scaled by the reference
job run around each command (see Run._timed), and the child's peak RSS.
Unscaled CPU and wall seconds are printed beside them but left out of the
result: on a shared virtual machine they move with the speed the host gives
it from minute to minute. --trace 1 spends half the time on untraced
invocations and half on traced ones (traced.py), and reports the per-layer
metrics and the tracing overhead. Each metric is printed as a line
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
output was right.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict, namedtuple
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"   # generated inputs and raw traces, removed after a run
OUT = ROOT / ".perfbench-out"     # span files of traced runs, kept

SETUP_PROBES = 12   # fresh `import namecluster.cli` runs in each --trace 0 run
REFERENCE_RUNS = 3  # reference.py runs after each measured command, at least
REFERENCE_EVERY = 0.5   # and one more for each such many CPU seconds it took
# CPU seconds that reference.py takes on the machine the benchmark is scaled
# to: about its median on a 2-vCPU Xeon VM with Python 3.11.7.
REFERENCE_S = 0.18
TAIL_BEYOND = 10    # samples required beyond the reported tail percentile

IMPORTED_MODULES = (
    "namecluster", "namecluster.onomasticon", "namecluster.candidates",
    "namecluster.scoring", "namecluster.tailspace", "namecluster.sensitivity",
    "namecluster.demography", "namecluster.inference", "namecluster.cli",
    "argparse", "configparser", "concurrent.futures", "importlib.resources",
    "json", "fractions")

# span name -> the per-layer metric that sums its durations
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_s",
    "onomasticon.load": "onomasticon.load_s",
    "candidates.load_config": "candidates.load_config_s",
    "candidates.build_spec": "candidates.build_spec_s",
    "scoring.score": "scoring.score_s",
    "scoring.male_slots": "scoring.male_slots_s",
    "tailspace.enumerate_tail": "tailspace.enumerate_tail_s",
    "sensitivity.load_suite": "sensitivity.load_suite_s",
    "sensitivity.apply_deltas": "sensitivity.apply_deltas_s",
    "sensitivity.run_suite": "sensitivity.run_suite_s",
}
MALE_SLOT_COUNTS = ("male_tuples", "valid_male_tuples", "women_pairs")

# Per-layer metrics of the JSON result. Every workload defines them; the
# sweep-only and per-M metrics are defined on some workloads only, so they
# are printed as text lines alone.
LAYER_UNITS = {
    "trace.overhead_s": "s",
    "cli.import_s": "s",
    **{f"import.{m}_s": "s" for m in IMPORTED_MODULES},
    "cli.main_s": "s",
    "cli.self_s": "s",
    "onomasticon.load_s": "s",
    "candidates.load_config_s": "s",
    "candidates.build_spec_s": "s",
    "candidates.build_spec_calls": "count",
    "scoring.score_s": "s",
    "scoring.male_slots_s": "s",
    "scoring.male_slots_per_s": "1/s",
    "tailspace.enumerate_tail_s": "s",
    "tailspace.male_tuples": "count",
    "tailspace.valid_male_tuples": "count",
    "tailspace.women_pairs": "count",
    "tailspace.rest_s": "s",
}
SWEEP_UNITS = {"sensitivity.load_suite_s": "s", "sensitivity.apply_deltas_s": "s",
               "sensitivity.run_scenario_s_p50": "s",
               "sensitivity.run_scenario_s_max": "s", "sensitivity.run_suite_s": "s"}
PER_M_UNITS = {"tailspace.enumerate_tail_s": "s", "scoring.male_slots_s": "s",
               "tailspace.rest_s": "s", "tailspace.male_tuples": "count",
               "tailspace.valid_male_tuples": "count"}


# One finished command: wall seconds, exit code, max RSS in kB, CPU seconds
# (user + system), output.
Outcome = namedtuple("Outcome", "wall code rss_kb cpu stdout stderr")
# Wall, CPU and scaled CPU seconds (see Run._timed) of one unit or probe.
Timing = namedtuple("Timing", "wall cpu scaled")


class Launcher:
    """Runs commands one at a time through spawn.py."""

    def __init__(self, workdir):
        self._stdout = workdir / "stdout"
        self._stderr = workdir / "stderr"
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv):
        """Run ``argv`` to completion; its Outcome."""
        self._proc.stdin.write("\t".join(
            [str(self._stdout), str(self._stderr), *map(str, argv)]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline().split()
        if len(reply) != 4:
            raise RuntimeError("the launcher stopped")
        wall_ns, status, rss_kb, cpu_ns = map(int, reply)
        return Outcome(wall_ns / 1e9, os.waitstatus_to_exitcode(status), rss_kb,
                       cpu_ns / 1e9, self._stdout.read_text(), self._stderr.read_text())

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)


class Run:
    """A closed loop over units of one workload, checking every output."""

    def __init__(self, launcher, workload, unit, workdir):
        self.launcher = launcher
        self.workload = workload
        self.unit = unit
        self.workdir = workdir
        self.attempted = 0
        self.failures = []          # (where, problem), one per failed invocation
        self.peak_rss_kb = 0
        self.cli_stdout = {}        # invocation index -> latest untraced stdout
        self.baseline_observed = workloads.baseline_observed_rr()
        self.reference_cpus = []    # CPU seconds of every reference.py run
        self._last_refs = 0         # how many ran after the latest command

    def _timed(self, argv):
        """Run ``argv``, then reference.py a few times; (Outcome, scaled CPU).

        The scaled CPU is the command's CPU seconds times REFERENCE_S over the
        median CPU seconds of the reference runs just before and just after it:
        what the command would take on a machine where reference.py takes
        REFERENCE_S. The speed a shared host gives the benchmark moves by
        half within minutes; the scaled time follows the program instead.
        """
        done = self.launcher.run(argv)
        before = self.reference_cpus[-self._last_refs:] if self.reference_cpus else []
        self._last_refs = max(REFERENCE_RUNS, round(done.cpu / REFERENCE_EVERY))
        for _ in range(self._last_refs):
            ref = self.launcher.run([sys.executable, "-I", HERE / "reference.py"])
            if ref.code != 0:
                stop(f"reference.py failed: {ref.stderr.strip()[-200:]}")
            self.reference_cpus.append(ref.cpu)
        around = before + self.reference_cpus[-self._last_refs:]
        return done, done.cpu * REFERENCE_S / statistics.median(around)

    def _record(self, where, problems):
        self.attempted += 1
        if problems:
            self.failures.append((where, "; ".join(problems)))

    def _where(self, i):
        return self.unit[i].label or self.workload

    def _cli(self, i):
        inv = self.unit[i]
        done, scaled = self._timed([sys.executable, "-m", "namecluster", *inv.args])
        self.peak_rss_kb = max(self.peak_rss_kb, done.rss_kb)
        self.cli_stdout[i] = done.stdout
        if done.code != 0:
            return done, scaled, [f"exit {done.code}: {done.stderr.strip()[-200:]}"]
        if inv.expected is not None:
            return done, scaled, workloads.check_exact(done.stdout, inv.expected)
        return done, scaled, workloads.check_analyze(
            done.stdout, self.baseline_observed if inv.default_rules else None)

    def cli_unit(self, count=None):
        """Run the unit's first ``count`` invocations untraced; their total Timing."""
        results = [self._cli(i) for i in range(count or len(self.unit))]
        series, positions = [], []
        for i, (inv, (done, _, problems)) in enumerate(zip(self.unit, results)):
            if inv.expected is None and inv.default_rules and not problems:
                series.append((inv.label,
                               workloads.parse_analyze(done.stdout)["proportion"]))
                positions.append(i)
        for index, problem in workloads.check_nested(series):
            results[positions[index]][2].append(problem)
        for i, (_, _, problems) in enumerate(results):
            self._record(self._where(i), problems)
        return Timing(sum(done.wall for done, _, _ in results),
                      sum(done.cpu for done, _, _ in results),
                      sum(scaled for _, scaled, _ in results))

    def _traced(self, i, run_id):
        inv = self.unit[i]
        path = self.workdir / "trace.json"
        done = self.launcher.run(
            [sys.executable, "-X", "importtime", HERE / "traced.py", path, *inv.args])
        if done.code != 0:
            self._record(f"traced {self._where(i)}",
                         [f"exit {done.code}: {done.stderr.strip()[-200:]}"])
            return None
        trace = json.loads(path.read_text())
        reference = inv.expected if inv.expected is not None else self.cli_stdout[i]
        self._record(f"traced {self._where(i)}",
                     workloads.check_exact(trace["stdout"], reference)
                     + workloads.check_tails(trace["tails"], inv, reference))
        bench_only = sum(span_seconds(s) for s in trace["spans"]
                         if s["name"] == "bench.male_slot_pass")
        return {"run": run_id, "label": inv.label, "wall_s": done.wall - bench_only,
                "imports": parse_importtime(done.stderr), "spans": trace["spans"]}

    def traced_unit(self, unit_index):
        """Run the unit traced; its traces, or None when one invocation failed."""
        traces = [self._traced(i, f"{unit_index}.{i}") for i in range(len(self.unit))]
        return None if None in traces else traces

    def setup_probe(self):
        done, scaled = self._timed([sys.executable, "-c", "import namecluster.cli"])
        self._record("setup", [] if done.code == 0
                     else [f"exit {done.code}: {done.stderr.strip()[-200:]}"])
        return Timing(done.wall, done.cpu, scaled)


def closed_loop(step, seconds):
    """Call ``step(i)`` until the next call would end after ``seconds``; at least once."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        results.append(step(len(results)))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return results


def parse_importtime(stderr):
    """module -> cumulative import seconds, from `-X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return cumulative


def tail_percentile(samples):
    """(value, percentile, n, beyond): the highest percentile with TAIL_BEYOND
    samples beyond it. With TAIL_BEYOND samples or fewer it is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 1 if n <= TAIL_BEYOND else n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n, n - 1 - k


def span_seconds(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def unit_layers(traces):
    """Per-layer sums of one traced unit: (metrics, per-M metrics)."""
    v = defaultdict(float)
    per_m = defaultdict(lambda: defaultdict(float))
    scenarios = []
    for trace in traces:
        children = defaultdict(float)
        for s in trace["spans"]:
            if s["parent"] is not None:
                children[s["parent"]] += span_seconds(s)
        for s in trace["spans"]:
            name, seconds = s["name"], span_seconds(s)
            key = trace["label"] or f"M{s['attrs'].get('M')}"  # for spans with an M
            if name in SPAN_METRICS:
                v[SPAN_METRICS[name]] += seconds
            if name == "cli.main":
                v["cli.self_s"] += seconds - children[s["id"]]
            elif name == "candidates.build_spec":
                v["candidates.build_spec_calls"] += 1
            elif name == "sensitivity.run_scenario":
                scenarios.append(seconds)
            elif name == "tailspace.enumerate_tail":
                per_m[key]["tailspace.enumerate_tail_s"] += seconds
                per_m[key]["calls"] += 1
            elif name == "scoring.male_slots":
                per_m[key]["scoring.male_slots_s"] += seconds
            elif name == "bench.male_slot_pass":
                for count in MALE_SLOT_COUNTS:
                    v[f"tailspace.{count}"] += s["attrs"][count]
                    per_m[key][f"tailspace.{count}"] += s["attrs"][count]
        for module in IMPORTED_MODULES:
            v[f"import.{module}_s"] += trace["imports"].get(module, 0.0)
    for d in [v, *per_m.values()]:
        d["tailspace.rest_s"] = d["tailspace.enumerate_tail_s"] - d["scoring.male_slots_s"]
    v["scoring.male_slots_per_s"] = v["tailspace.valid_male_tuples"] / v["scoring.male_slots_s"]
    if scenarios:
        v["sensitivity.run_scenario_s_p50"] = statistics.median(scenarios)
        v["sensitivity.run_scenario_s_max"] = max(scenarios)
    v["trace.wall_s"] = sum(t["wall_s"] for t in traces)
    return v, per_m


def layer_metrics(units, untraced_walls):
    """(JSON metrics, text-only metrics) of a traced phase: medians over units."""
    layers = [unit_layers(traces) for traces in units]

    def median_of(get):
        return statistics.median(get(v, per_m) for v, per_m in layers)

    metrics = {name: (median_of(lambda v, _: v[name]), unit)
               for name, unit in LAYER_UNITS.items() if name != "trace.overhead_s"}
    traced_wall = median_of(lambda v, _: v["trace.wall_s"])
    untraced_wall = statistics.median(untraced_walls)
    metrics = {"trace.overhead_s": (traced_wall - untraced_wall, "s"), **metrics}
    text = {"trace.traced_wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s")}
    if "sensitivity.run_suite_s" in layers[0][0]:
        text.update({name: (median_of(lambda v, _: v[name]), unit)
                     for name, unit in SWEEP_UNITS.items()})
    per_call = {}
    for key in layers[0][1]:
        for name, unit in PER_M_UNITS.items():
            text[f"{name}.{key}"] = (median_of(lambda _, p: p[key][name]), unit)
        calls = layers[0][1][key]["calls"]
        if key[1:].isdigit() and calls:
            per_call[int(key[1:])] = text[f"tailspace.enumerate_tail_s.{key}"][0] / calls
    if len(per_call) > 1:  # log-log slope of seconds per call against M
        slope = statistics.linear_regression(
            [math.log(m) for m in per_call], [math.log(t) for t in per_call.values()]).slope
        text["tailspace.scaling_exponent"] = (slope, "1")
    return metrics, text


def end_to_end_metrics(run, seconds):
    """(JSON metrics, text-only metrics, notes) of a --trace 0 run."""
    setup = []
    start = time.perf_counter()

    def step(_):
        timing = run.cli_unit()
        # spread the probes over the run, so they sample the same machine
        # state as the units do
        due = min(SETUP_PROBES, SETUP_PROBES * (time.perf_counter() - start) / seconds)
        while len(setup) < due:
            setup.append(run.setup_probe())
        return timing

    timings = closed_loop(step, seconds)
    setup += [run.setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    scaled = [t.scaled for t in timings]
    walls = [t.wall for t in timings]
    cpu = statistics.median(scaled)
    tail, percentile, n, beyond = tail_percentile(scaled)
    wall_tail, *_ = tail_percentile(walls)
    one, many = ("a series", "series") if len(run.unit) > 1 else ("an invocation", "invocations")
    male_tuples = sum(inv.male_tuples for inv in run.unit)
    metrics = {"cpu_s": (cpu, "s"),
               "setup_s": (statistics.median(t.scaled for t in setup), "s"),
               "peak_rss_mb": (run.peak_rss_kb / 1024, "MB"),
               "tuples_per_s": (male_tuples / cpu, "1/s")}
    # Measured, unscaled times are printed, not reported: on a shared virtual
    # machine they move with the speed the host gives it from minute to minute.
    # The tail is printed too: with the few series that fit in a scaling run
    # it is their maximum, which no run can hold steady.
    text = {"cpu_s_tail": (tail, "s"),
            "cpu_raw_s": (statistics.median(t.cpu for t in timings), "s"),
            "wall_s": (statistics.median(walls), "s"), "wall_s_tail": (wall_tail, "s"),
            "setup_raw_s": (statistics.median(t.cpu for t in setup), "s"),
            "setup_wall_s": (statistics.median(t.wall for t in setup), "s"),
            "reference_s": (statistics.median(run.reference_cpus), "s")}
    spread = f"p{percentile:.1f} of {n} {many}, {beyond} beyond"
    probes = f"{len(setup)} fresh `import namecluster.cli`"
    notes = {"cpu_s": f"median scaled CPU seconds of {n} {many}",
             "cpu_s_tail": spread,
             "setup_s": f"median scaled CPU seconds of {probes}",
             "peak_rss_mb": "largest child max-RSS from os.wait4",
             "tuples_per_s": f"{male_tuples} male 4-tuples per scaled CPU second of {one}",
             "cpu_raw_s": f"median CPU seconds of {n} {many}",
             "wall_s": f"median of {n} {many}", "wall_s_tail": spread,
             "setup_raw_s": f"median CPU seconds of {probes}",
             "setup_wall_s": f"median of {probes}",
             "reference_s": (f"median CPU seconds of {len(run.reference_cpus)} reference.py; "
                             f"scaled times take it as {REFERENCE_S} s")}
    return metrics, text, notes


def env_stamp():
    """Interpreter, processors, CPU model, git commit and load of this machine."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
            "loadavg_start": loadavg()}


def loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def print_metric(name, value, unit, note=None):
    print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def stop(message):
    """End the run with exit code 2 and no result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_program(launcher, workdir):
    """Stop with exit 2 unless the checkout's src/namecluster is the program run."""
    marker = workdir / "program"
    done = launcher.run(
        [sys.executable, "-c",
         f"import namecluster; open({str(marker)!r}, 'w').write(namecluster.__file__)"])
    where = Path(marker.read_text()).resolve() if done.code == 0 else None
    if where is None or SRC.resolve() not in where.parents:
        stop(f"cannot run the checkout's src/namecluster "
             f"({done.stderr.strip()[-200:] or where})")


def measure(workload, seed, seconds, trace):
    """Run one benchmark run and print its report; returns the exit code."""
    if not (SRC / "namecluster" / "__main__.py").is_file():
        stop(f"no program at {SRC / 'namecluster'}")
    env = env_stamp()
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["PYTHONHASHSEED"] = "0"
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    launcher = Launcher(workdir)
    try:
        check_program(launcher, workdir)
        unit, notes = workloads.build_unit(workload, seed, workdir, SRC)
        print(f"workload {workload} seed={seed} seconds={seconds} trace={trace} "
              + " ".join(f"{k}={v}" for k, v in notes.items() if k != "seed"))
        run = Run(launcher, workload, unit, workdir)
        run.cli_unit(count=1)  # warm-up: byte-code and page caches
        if trace:
            untraced = [t.wall for t in closed_loop(lambda _: run.cli_unit(), seconds / 2)]
            units = [u for u in closed_loop(run.traced_unit, seconds / 2) if u]
            metrics, text = layer_metrics(units, untraced) if units else ({}, {})
            notes = {}
        else:
            metrics, text, notes = end_to_end_metrics(run, seconds)
            units = []
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in {**metrics, **text}.items():
        print_metric(name, value, unit, notes.get(name))
    failed = len(run.failures)
    print_metric("failed_ratio", failed / run.attempted, "ratio",
                 f"{failed} of {run.attempted} invocations")
    for where, problem in run.failures[:10]:
        print(f"failure {where}: {problem}")
    env["loadavg_end"] = loadavg()
    print(f"env loadavg_end={env['loadavg_end']!r}")
    if units:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"env": env, "workload": workload, "seed": seed,
                                    "runs": [t for u in units for t in u]}))
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 and metrics else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the report and the output checks, briefly")
    args = parser.parse_args()
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
