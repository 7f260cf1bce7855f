#!/usr/bin/env python3
"""Reproduce the headline analysis: observed RR, sample-space masses, and
the two-step inference grid, printed with exact fractions alongside
decimals."""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import namecluster as nc
from namecluster.inference import (adjusted_p, odds_lower_bound,
                                   posterior_odds, theta_lower_bound)


def show(label, value, sig=4):
    print(f"{label:28s} {float(value):.{sig}g}   ({value})")


def main():
    onom = nc.load_onomasticon()
    _, descriptors, observed_fields = nc.load_hypothesis_config()
    spec = nc.build_spec(onom, descriptors)
    rules = nc.RuleLedger()

    print("== category weights and RR values ==")
    for gender in ("female", "male"):
        total = spec.female_total if gender == "female" else spec.male_total
        for cat in spec.categories(gender):
            print(f"  {gender:6s} {cat.label:8s} weight {float(cat.weight * total):8.2f}/{total}"
                  f"   rr {float(cat.rr * total):8.2f}/{total}")

    observed = nc.score(nc.TombConfiguration(**observed_fields), spec, rules)
    print("\n== observed configuration ==")
    show("women part", observed.women_part)
    show("singleton part", observed.singleton_part)
    show("generational part", observed.generational_part)
    show("observed RR", observed.value)

    result = nc.enumerate_tail(spec, rules, observed.value)
    print("\n== exact enumeration ==")
    show("tuple space", Fraction(result.total_mass))
    show("valid mass", result.valid_mass)
    show("valid ratio", result.valid_ratio)
    show("tail mass", result.tail_mass)
    show("proportion", result.proportion)

    n2 = nc.run_pipeline().trials
    q = result.proportion
    print(f"\n== inference (n2 = {n2}) ==")
    show("adjusted area", adjusted_p(q, n2))
    for theta in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
        show(f"posterior odds (theta={theta})", posterior_odds(theta, n2, q))
    for alpha in (Fraction(5, 100), Fraction(1, 100)):
        show(f"theta bound (alpha={alpha})", theta_lower_bound(alpha, n2, q))
        show(f"odds bound (alpha={alpha})", odds_lower_bound(alpha, n2, q))


if __name__ == "__main__":
    main()
