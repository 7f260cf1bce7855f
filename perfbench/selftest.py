"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

It checks, in about half a minute, that
  * a short run of each mode prints every metric of BENCHMARK.json, by name
    and with its unit, the tail and wall times beside them, and reports
    failed_ratio;
  * the output checks can fail: a corrupted copy of the captured records, a
    broken invariant, a shrinking nested series and a traced fraction that
    differs from the CLI are each reported as failures, and a real CLI
    invocation checked against corrupted records counts as failed.
Exit code 0 when all hold; otherwise each miss is printed and the code is 1.
"""

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import workloads

SHORT_RUNS = (("baseline", 0), ("baseline", 1), ("sweep", 1))
# End-to-end figures printed as text lines only, beside the result's metrics.
TEXT_END_TO_END = {"cpu_s_tail": "s", "wall_s": "s", "wall_s_tail": "s",
                   "setup_wall_s": "s"}


def declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_report(workload, trace, declared):
    """Misses in the report of a one-second run."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    misses = []
    if not result["correct"] or result["failed"]:
        misses.append(f"{where}: outputs reported wrong")
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    metrics = {name: m["unit"] for name, m in result["metrics"].items()}
    if metrics != declared:
        misses.append(f"{where}: JSON metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(declared))}")
    expected_text = {**declared, "failed_ratio": "ratio"}
    if not trace:
        expected_text.update(TEXT_END_TO_END)
    if workload == "sweep" and trace:
        expected_text.update(run.SWEEP_UNITS)
    for name, unit in expected_text.items():
        if printed.get(name) != unit:
            misses.append(f"{where}: no line '{name} <value> {unit}'")
    return misses


def check_checkers():
    """Misses where an output check accepted a wrong output."""
    misses = []
    captured = (workloads.EXPECTED / "analyze.records").read_text()
    corrupted = captured.replace("253644329313582025", "253644329313582026", 1)
    observed = workloads.baseline_observed_rr()
    if workloads.check_analyze(captured, observed):
        misses.append("check_analyze rejects the captured records")
    if not workloads.check_exact(corrupted, captured):
        misses.append("check_exact accepts corrupted records")
    if not workloads.check_analyze(corrupted, observed):
        misses.append("check_analyze accepts a corrupted proportion")
    if not workloads.check_nested([("M9", Fraction(2)), ("M13", Fraction(1))]):
        misses.append("check_nested accepts a shrinking proportion")
    invocation = workloads.Invocation(("analyze",), (5,))
    tail = {"M": 5, "total_mass": "1", "valid_mass": "1", "tail_mass": "1",
            "proportion": "1"}
    if not workloads.check_tails([tail], invocation, captured):
        misses.append("check_tails accepts fractions that differ from the CLI")
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        launcher = run.Launcher(Path(tmp))
        try:
            bench = run.Run(launcher, "baseline", (workloads.Invocation(
                ("analyze", "--format", "records"), (5,), expected=corrupted),),
                Path(tmp))
            bench.cli_unit()
        finally:
            launcher.close()
    if len(bench.failures) != 1:
        misses.append("a CLI invocation checked against corrupted records passed")
    return misses


def main():
    end_to_end, per_layer = declared_metrics()
    os.environ["PYTHONPATH"] = str(run.SRC)
    misses = check_checkers()
    for workload, trace in SHORT_RUNS:
        misses += check_report(workload, trace, per_layer if trace else end_to_end)
    for miss in misses:
        print(f"self-test miss: {miss}")
    print(f"self-test: {'ok' if not misses else f'{len(misses)} misses'}")
    return 1 if misses else 0
