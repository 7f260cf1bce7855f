"""Workloads of the namecluster benchmark, the seeded generator, and the checks.

A workload is a unit of CLI invocations that the benchmark repeats in a
closed loop:

baseline  one ``analyze --format records`` on the bundled inputs. With M = 5
          male categories the enumeration is about 9 ms, so interpreter
          start, imports and parsing dominate.
sweep     one ``sweep --format records`` on the bundled 42-scenario suite
          (M = 5-6): per-scenario overhead and any sharing across scenarios.
scaling   one series of ``analyze --hypothesis FILE --format records`` over
          nested hypotheses with M = 9, 13 and 17, plus M = 13 under
          non-default ledger settings. The M^4 male enumeration dominates.

Every output is checked: baseline and sweep byte for byte against records
captured when the benchmark was defined, scaling by exact invariants that
hold for any seed.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

WORKLOADS = ("baseline", "sweep", "scaling")

# Bundled onomasticon totals: every tuple space is FEMALE_TOTAL^2 * MALE_TOTAL^4.
FEMALE_TOTAL = 317
MALE_TOTAL = 2509
N2 = 1100

# The 19 bundled male generics that the baseline hypothesis leaves out, in
# onomasticon order. Cleopas carries ledger rules; the others do not.
EXTRA_MALE_GENERICS = (
    "Simon", "Judah", "Eleazar", "Yochanan", "Hananiah", "Yonathan", "Matthew",
    "Menachem", "Hanan", "Alexander", "Dositheus", "Ishmael", "Saul", "Choni",
    "Zachariah", "Levi", "Hezekiah", "Shmuel", "Cleopas")
BASELINE_MALE_CATEGORIES = 5
SCALING_ADDED = (4, 8, 12)              # M = 9, 13, 17
LEDGER_ADDED = 8                        # the extra point, M = 13
LEDGER_FLAGS = ("--require-yeshua-in-tomb", "on", "--allow-father-yeshua", "on",
                "--count-unknown-sons", "off", "--bonus-divisor", "1")

# Decimal precision of each field of `analyze --format records`.
ANALYZE_FIELDS = {"observed-rr": 4, "valid-mass-ratio": 4, "proportion": 4,
                  "adjusted-area": 4, "tuple-space": 10, "valid-mass": 10,
                  "tail-mass": 10}


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation of a workload unit."""

    args: tuple             # arguments after `namecluster`
    male_categories: tuple  # M of each enumeration the invocation runs
    label: Optional[str] = None   # groups per-M layer numbers; None: by M
    expected: Optional[str] = None  # exact stdout, when it is fixed
    default_rules: bool = True

    @property
    def male_tuples(self):
        return sum(m ** 4 for m in self.male_categories)


def _expected(name):
    return (EXPECTED / name).read_text()


def male_generic_order(seed):
    """The 19 extra male generics in the order --seed gives them."""
    order = list(EXTRA_MALE_GENERICS)
    random.Random(seed).shuffle(order)
    return order


def build_unit(workload, seed, workdir, src):
    """The invocations of one unit of ``workload``, and notes to print.

    Scaling hypotheses are written to ``workdir``; the program sees only them.
    """
    counts = json.loads(_expected("male_categories.json"))
    if workload == "baseline":
        return (Invocation(("analyze", "--format", "records"),
                           tuple(counts["analyze"]),
                           expected=_expected("analyze.records")),), {}
    if workload == "sweep":
        return (Invocation(("sweep", "--format", "records"),
                           tuple(counts["sweep"]),
                           expected=_expected("sweep.records")),), {}
    if workload != "scaling":
        raise ValueError(f"unknown workload {workload!r}")
    order = male_generic_order(seed)
    baseline_cfg = (src / "namecluster" / "data" / "baseline.cfg").read_text()
    paths = {}
    for added in sorted(set(SCALING_ADDED + (LEDGER_ADDED,))):
        lines = [baseline_cfg, f"# seed {seed}: {added} extra male generics"]
        lines += [f"candidate extra_{name.lower()} male {name} generic"
                  for name in order[:added]]
        paths[added] = workdir / f"hypothesis-seed{seed}-plus{added}.cfg"
        paths[added].write_text("\n".join(lines) + "\n")
    unit = []
    for added in SCALING_ADDED:
        m = BASELINE_MALE_CATEGORIES + added
        unit.append(Invocation(("analyze", "--hypothesis", str(paths[added]),
                                "--format", "records"), (m,), label=f"M{m}"))
    m = BASELINE_MALE_CATEGORIES + LEDGER_ADDED
    unit.append(Invocation(("analyze", "--hypothesis", str(paths[LEDGER_ADDED]),
                            "--format", "records") + LEDGER_FLAGS, (m,),
                           label=f"M{m}-ledger", default_rules=False))
    with_cleopas = [inv.label for inv, added in zip(unit, SCALING_ADDED)
                    if "Cleopas" in order[:added]]
    notes = {"seed": seed, "generic_order": order,
             "cleopas_in": with_cleopas or "none"}
    return tuple(unit), notes


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------

def check_exact(stdout, expected):
    if stdout == expected:
        return []
    got, want = stdout.splitlines(), expected.splitlines()
    for i, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            return [f"line {i} differs from the captured records: {g[:120]!r}"]
    return [f"{len(got)} lines where the captured records have {len(want)}"]


def parse_analyze(stdout):
    """field -> exact Fraction of `analyze --format records`; raises ValueError."""
    records = [json.loads(line) for line in stdout.splitlines()]
    fields = [r.get("field") for r in records]
    if fields != list(ANALYZE_FIELDS):
        raise ValueError(f"unexpected record fields {fields}")
    values = {}
    for r in records:
        value = Fraction(r["fraction"])
        sig = ANALYZE_FIELDS[r["field"]]
        if r["decimal"] != f"{float(value):.{sig}g}":
            raise ValueError(f"{r['field']}: decimal {r['decimal']} does not "
                             f"show fraction {r['fraction']}")
        values[r["field"]] = value
    return values


def check_analyze(stdout, baseline_observed=None):
    """Exact invariants of one `analyze --format records` output."""
    try:
        v = parse_analyze(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable records: {exc}"]
    problems = []
    total, valid, tail = v["tuple-space"], v["valid-mass"], v["tail-mass"]
    if total != FEMALE_TOTAL ** 2 * MALE_TOTAL ** 4:
        problems.append(f"tuple space {total} != {FEMALE_TOTAL}^2*{MALE_TOTAL}^4")
    if not 0 <= tail <= valid <= total:
        problems.append("0 <= tail <= valid <= total does not hold")
    elif valid == 0:
        problems.append("valid mass is 0")
    else:
        if v["proportion"] != tail / valid:
            problems.append("proportion != tail-mass / valid-mass")
        if v["valid-mass-ratio"] != valid / total:
            problems.append("valid-mass-ratio != valid-mass / tuple-space")
    if v["adjusted-area"] != N2 * v["proportion"]:
        problems.append(f"adjusted-area != {N2} * proportion")
    if baseline_observed is not None and v["observed-rr"] != baseline_observed:
        problems.append("observed-rr differs from the baseline's")
    return problems


def check_nested(proportions):
    """Adding out-of-sample candidates never shrinks the proportion.

    ``proportions`` are (label, Fraction) in nesting order; returns
    (index, problem) pairs naming the point that broke the order.
    """
    return [(i, f"proportion at {label} is below the one at {proportions[i - 1][0]}")
            for i, (label, p) in enumerate(proportions)
            if i and p < proportions[i - 1][1]]


def check_tails(tails, invocation, cli_stdout):
    """The traced run's enumerate_tail fractions against the CLI records."""
    ms = tuple(t["M"] for t in tails)
    if ms != invocation.male_categories:
        return [f"enumerations ran at M = {ms}, expected {invocation.male_categories}"]
    try:
        if invocation.args[0] == "sweep":
            adjusted = [Fraction(json.loads(line)["adjusted_fraction"])
                        for line in cli_stdout.splitlines()]
            if adjusted != [N2 * Fraction(t["proportion"]) for t in tails]:
                return ["traced proportions differ from the CLI's adjusted areas"]
            return []
        v = parse_analyze(cli_stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable CLI records: {exc}"]
    (t,) = tails
    got = tuple(Fraction(t[k]) for k in
                ("total_mass", "valid_mass", "tail_mass", "proportion"))
    want = (v["tuple-space"], v["valid-mass"], v["tail-mass"], v["proportion"])
    return [] if got == want else ["traced enumerate_tail fractions differ from the CLI records"]


def baseline_observed_rr():
    return parse_analyze(_expected("analyze.records"))["observed-rr"]
