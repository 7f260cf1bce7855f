"""Person-level brute-force enumeration, the independent counting oracle.

Expands every category into individual persons (one list entry per person,
labelled by category) and walks all ordered person 6-tuples. Validity and
tail membership are decided per tuple; each tuple counts 1. This checks the
category-level enumerator's mass accounting without sharing any of its
aggregation machinery; scores come from the public scorer, memoized by
category labels since identically-labelled tuples score identically.
"""

from fractions import Fraction
from itertools import product

from namecluster.candidates import OTHER
from namecluster.scoring import YESHUA, TombConfiguration, score


def person_level_tail(spec, rules, observed):
    """Return (total, valid, tail) person-tuple counts as exact integers."""
    women = [c.label for c in spec.women
             for _ in range(int(c.weight * spec.female_total))]
    men = [c.label for c in spec.men
           for _ in range(int(c.weight * spec.male_total))]
    assert len(women) == spec.female_total and len(men) == spec.male_total

    score_memo = {}
    total = valid = tail = 0
    for w1, w2 in product(women, repeat=2):
        for s1, s2, f, son in product(men, repeat=4):
            total += 1
            if w1 == w2 and w1 != OTHER:
                continue
            if s1 == s2 and s1 != OTHER:
                continue
            if f == son and f != OTHER:
                continue
            if son != OTHER and (son == s1 or son == s2):
                continue
            valid += 1
            key = (w1, w2, s1, s2, f, son)
            value = score_memo.get(key)
            if value is None:
                value = score(TombConfiguration(*key), spec, rules)
                score_memo[key] = value
            if rules.require_yeshua_in_tomb and YESHUA not in (s1, s2, son):
                continue
            if value <= observed:
                tail += 1
    return Fraction(total), Fraction(valid), Fraction(tail)
