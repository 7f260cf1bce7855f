"""Traced in-process run of one namecluster CLI invocation.

Usage, with the checkout's ``src`` on PYTHONPATH:

    python -X importtime perfbench/traced.py TRACE_FILE CLI_ARG...

It times ``import namecluster.cli``, wraps the public entry point of each
module that the CLI reaches in a span, and runs ``namecluster.cli.main`` on
the given arguments. Afterwards, outside the CLI, it scores every
realism-valid male 4-tuple of each enumerated hypothesis with the public
``scoring.score_male_slots``, validity being judged by the public
``scoring.validate``. Spans (id, name, start, end, parent) stay in memory
and are written to TRACE_FILE as JSON when the run ends, together with the
CLI's stdout and exit code and the exact fractions of every
``enumerate_tail`` result.
"""

import sys
import time

# Nothing but the interpreter core is loaded before this import, so its time
# and the -X importtime profile are those of a plain CLI start.
_IMPORT_START = time.perf_counter_ns()
import namecluster.cli  # noqa: E402
_IMPORT_END = time.perf_counter_ns()

import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402

from namecluster import (candidates, onomasticon, scoring,  # noqa: E402
                         sensitivity, tailspace)

# (defining module, public function, span name)
TRACED_CALLS = (
    (onomasticon, "load_onomasticon", "onomasticon.load"),
    (candidates, "load_hypothesis_config", "candidates.load_config"),
    (candidates, "build_spec", "candidates.build_spec"),
    (scoring, "score", "scoring.score"),
    (tailspace, "enumerate_tail", "tailspace.enumerate_tail"),
    (sensitivity, "load_suite", "sensitivity.load_suite"),
    (sensitivity, "apply_deltas", "sensitivity.apply_deltas"),
    (sensitivity, "run_scenario", "sensitivity.run_scenario"),
    (sensitivity, "run_suite", "sensitivity.run_suite"),
)


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self):
        self.spans = []
        self._open = []

    def add(self, name, start_ns, end_ns):
        self.spans.append({"id": len(self.spans), "name": name, "parent": None,
                           "start_ns": start_ns, "end_ns": end_ns, "attrs": {}})

    @contextlib.contextmanager
    def span(self, name, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield attrs
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()


def install(tracer, enumerations):
    """Route every namecluster reference to a traced function through a span.

    Each ``enumerate_tail`` call appends (spec, rules, result) to
    ``enumerations``.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "namecluster" or name.startswith("namecluster.")]
    for module, attr, span_name in TRACED_CALLS:
        original = getattr(module, attr)
        wrapper = _traced(tracer, span_name, original,
                          enumerations if attr == "enumerate_tail" else None)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _traced(tracer, span_name, fn, enumerations):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name) as attrs:
            result = fn(*args, **kwargs)
        if enumerations is not None:
            bound = signature.bind(*args, **kwargs).arguments
            attrs["M"] = len(bound["spec"].men)
            enumerations.append((bound["spec"], bound["rules"], result))
        return result

    return wrapper


def male_slot_pass(tracer, spec, rules):
    """Score every realism-valid male 4-tuple; only the scoring is timed."""
    other = candidates.OTHER
    labels = [c.label for c in spec.men]
    with tracer.span("bench.male_slot_pass", M=len(labels)) as attrs:
        valid = [t for t in itertools.product(labels, repeat=4)
                 if scoring.validate(scoring.TombConfiguration(other, other, *t),
                                     spec) is None]
        women = [c.label for c in spec.women]
        pairs = sum(1 for w1, w2 in itertools.product(women, repeat=2)
                    if scoring.validate(scoring.TombConfiguration(
                        w1, w2, other, other, other, other), spec) is None)
        attrs.update(male_tuples=len(labels) ** 4, valid_male_tuples=len(valid),
                     women_pairs=pairs)
        with tracer.span("scoring.male_slots", M=len(labels)):
            for s1, s2, father, son in valid:
                scoring.score_male_slots(s1, s2, father, son, spec, rules)


def main():
    trace_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("cli.import", _IMPORT_START, _IMPORT_END)
    enumerations = []
    install(tracer, enumerations)
    out = io.StringIO()
    with tracer.span("cli.main"):
        code = namecluster.cli.main(cli_args, out=out)
    for spec, rules, _ in enumerations:
        male_slot_pass(tracer, spec, rules)
    tails = [{"M": len(spec.men), "total_mass": str(r.total_mass),
              "valid_mass": str(r.valid_mass), "tail_mass": str(r.tail_mass),
              "proportion": str(r.proportion)}
             for spec, _, r in enumerations]
    with open(trace_path, "w") as fh:
        json.dump({"exit": code, "stdout": out.getvalue(), "tails": tails,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
