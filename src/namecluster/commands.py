"""The commands other than analyze: explain, sweep, demography, infer, and
the help screen.

cli.COMMANDS imports this module only when one of them, or ``--help``, runs,
so that an analyze start compiles none of their code.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

# sensitivity, demography and inference are imported by the commands that run
# them, so that a CLI start loads only what its subcommand needs
from .cli import COMMANDS, DEMOGRAPHY_PARSERS, EXPECTED, SETTINGS, SIG, as_written, emit, \
    given, analyzed_inputs, load_analysis_inputs, record_line
from .onomasticon import InputError, format_decimal, format_fraction
from .scoring import male_factors, score_male_slots


def cmd_explain(args, out):
    """Each category's weight and RR, each factor of the observed RR with the
    ledger rule that set it, then the parts of the observed RR and its value."""
    rules, observed, spec, observed_rr, _ = analyzed_inputs(args)
    rows = [(f"{word}[{gender}/{c.label}]", value, SIG)
            for gender in ("female", "male") for c in spec.categories(gender)
            for word, value in (("weight", c.weight), ("rr", c.rr))]
    w1, w2 = (spec.category("female", label).rr for label in observed[:2])
    rows += [(f"{slot}[{label}]", rr, SIG)  # no rule sets a woman's RR
             for slot, label, rr in zip(observed._fields, observed[:2], (w1, w2))]
    for slot, label, rule, factor in male_factors(*observed[2:], spec, rules):
        field = f"{slot}[{label}]" if label else slot
        rows.append((f"{field} {rule}" if rule else field, factor, SIG))
    parts = (w1 * w2, *score_male_slots(*observed[2:], spec, rules), observed_rr)
    rows += [(name, value, SIG) for name, value in zip(
        ("women-part", "singleton-part", "generational-part", "bonus-applied", "value"), parts)]
    emit(rows, args.format, out)
    return 0


def cmd_sweep(args, out):
    from .sensitivity import load_suite, run_suite
    onom, descriptors, observed, rules = load_analysis_inputs(args)
    suite = load_suite(args.suite)
    reports = run_suite(onom, descriptors, rules, observed, suite, n2=args.n2)
    above = sum(not r.error and r.adjusted_area > 1 for r in reports)
    if above:  # one line for the run, however many scenarios exceed 1
        warnings.warn(f"n2*q exceeds 1 in {above} of {len(reports)} scenarios; "
                      "adjusted is the unclamped n2*q")
    if args.format == "records":
        for s, r in zip(suite, reports):
            record = {"scenario": s.name}
            if r.error:
                record["error"] = r.error
            else:
                record["adjusted"] = format_decimal(r.adjusted_area, SIG)
                record["adjusted_fraction"] = format_fraction(r.adjusted_area)
                record["observed_rr_fraction"] = format_fraction(r.observed_rr)
                record["reference"] = s.reference
                record["match"] = r.matches_reference
            out.write(record_line(record))
    else:
        names = [as_written(s.name, out) for s in suite]
        width = max(map(len, ["scenario", *names]))
        out.write(f"{'scenario'.ljust(width)}  {'adjusted':>10}  {'reference':>10}  match\n")
        for name, s, r in zip(names, suite, reports):
            if r.error:
                out.write(f"{name.ljust(width)}  error: {r.error}\n")
                continue
            ref = as_written(s.reference, out) if s.reference is not None else "-"
            match = {True: "yes", False: "NO", None: "-"}[r.matches_reference]
            out.write(f"{name.ljust(width)}  {format_decimal(r.adjusted_area, SIG):>10}"
                      f"  {ref:>10}  {match}\n")
    return 0


def cmd_demography(args, out):
    from .demography import DemographyParams, run_pipeline
    result = run_pipeline(DemographyParams(**given(args, DEMOGRAPHY_PARSERS)))
    # the reported figures, in the result's field order; not the raw values
    rows = [(name.replace("_", "-"), Fraction(value), 6)
            for name, value in result._asdict().items() if not name.endswith("_raw")]
    emit(rows, args.format, out)
    return 0


def cmd_infer(args, out):
    from .inference import (adjusted_p, beta_of, odds_lower_bound, posterior_odds,
                            theta_lower_bound)
    q, n2 = args.q, args.n2
    if q is None:
        raise InputError("infer requires --q")
    rows = [("adjusted-p", adjusted_p(q, n2), SIG),
            ("beta", beta_of(q, n2), SIG)]
    for word, theta in args.theta:
        rows.append((f"odds[theta={word}]", posterior_odds(theta, n2, q), SIG))
    for word, alpha in args.alpha:
        rows.append((f"theta-bound[alpha={word}]",
                     theta_lower_bound(alpha, n2, q), SIG))
        rows.append((f"odds-bound[alpha={word}]",
                     odds_lower_bound(alpha, n2, q), SIG))
    emit(rows, args.format, out)
    return 0


def help_text(command) -> str:
    """The command list, or ``command``'s flags, as COMMANDS gives them."""
    if command is None:
        head = "usage: namecluster COMMAND [--flag VALUE]...\ncommands:"
        rows = {name: summary for name, (_, summary, _) in COMMANDS.items()}
    else:
        head = f"usage: namecluster {command} [--flag VALUE]...\n{COMMANDS[command][1]}:"
        rows = {f"{flag} VALUE": SETTINGS[key][2] or EXPECTED[SETTINGS[key][1]]
                for flag, key in COMMANDS[command][2].items()}
    width = max(map(len, rows))
    return "\n".join([head] + [f"  {k.ljust(width)}  {v}" for k, v in rows.items()]) + "\n"
