"""Realism validation and the RR scoring rules."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from namecluster.candidates import build_spec
from namecluster.onomasticon import InputError
from namecluster.scoring import (RuleLedger, TombConfiguration, male_factors, score,
                                 score_male_slots, validate)

from bundled import ADDONS, DESCRIPTORS, TOMB
from test_tailspace import FRACTIONAL, PLUS_8, grown_spec

ONE = Fraction(1)

# slot rarity values, assembled independently of the spec builder
MM = Fraction(74, 44 * 317)
MARYA = Fraction(74 * 13, 44 * 317)
YOSEH = Fraction(221 * 7, 46 * 2509)
YOSEF = Fraction(221, 2509)
YESHUA = Fraction(101, 2509)
JAMES = Fraction(43, 2509)
CLEOPAS = Fraction(7, 2509)


def cfg(w1="Other", w2="Other", s1="Other", s2="Other", f="Other", son="Other"):
    return TombConfiguration(w1, w2, s1, s2, f, son)


def male_parts(config, spec, rules=RuleLedger()):
    """(singleton part, generational part, bonus divisor) of a valid tomb."""
    assert validate(config, spec) is None
    return score_male_slots(*config[2:], spec, rules)


@pytest.fixture(scope="module")
def spec_c(onom):
    """Baseline plus Cleopas, for the uncle/nephew rules."""
    return build_spec(onom, DESCRIPTORS + (ADDONS["cleopas"],))


class TestValidate:
    def test_observed_configuration_is_valid(self, baseline):
        assert validate(TOMB, baseline) is None

    def test_duplicate_woman(self, baseline):
        assert validate(cfg(w1="Salome", w2="Salome"), baseline) == "duplicate woman"

    def test_father_may_match_a_singleton(self, baseline):
        assert validate(cfg(s1="Yosef", f="Yosef"), baseline) is None

    def test_son_duplicating_a_singleton(self, baseline):
        bad = cfg(s1="Yeshua", f="Yosef", son="Yeshua")
        assert validate(bad, baseline) == "son duplicates a singleton"

    def test_father_equal_son(self, baseline):
        assert (validate(cfg(f="James", son="James"), baseline)
                == "father and son share a rendition")

    def test_other_never_collides(self, baseline):
        assert validate(cfg(), baseline) is None

    def test_score_refuses_invalid_input(self, baseline):
        with pytest.raises(InputError):
            score(cfg(w1="Salome", w2="Salome"), baseline)


class TestScore:
    def test_observed_value_equals_the_slot_product(self, baseline):
        assert male_parts(TOMB, baseline) == (YOSEH, YESHUA * YOSEF, Fraction(6, 5))
        got = score(TOMB, baseline)
        assert got == MM * MARYA * YOSEH * YESHUA * YOSEF / Fraction(6, 5)
        assert f"{float(got):.4g}" == "1.449e-08"

    def test_all_other_scores_one(self, baseline):
        assert score(cfg(), baseline) == 1

    def test_women_only(self, baseline):
        got = score(cfg(w1="MM", w2="Marya"), baseline)
        assert got == MM * MARYA  # men contribute 1 throughout
        assert f"{float(got):.4g}" == "0.0003659"

    def test_value_decomposition(self, onom):
        # the women's RRs times score_male_slots' parts, on every valid male
        # tuple at M = 13, each with the next valid women pair in turn
        spec = grown_spec(onom, PLUS_8)
        women = [c.label for c in spec.women]
        pairs = [(w1, w2) for w1, w2 in product(women, repeat=2)
                 if validate(cfg(w1, w2), spec) is None]
        for rules in (RuleLedger(), FRACTIONAL):
            valid = 0
            for slots in product([c.label for c in spec.men], repeat=4):
                config = TombConfiguration(*pairs[valid % len(pairs)], *slots)
                if validate(config, spec) is not None:
                    continue
                singles, generational, divisor = score_male_slots(*slots, spec, rules)
                w1, w2 = (spec.category("female", label).rr for label in config[:2])
                got = score(config, spec, rules)
                assert type(got) is Fraction
                assert got == w1 * w2 * singles * generational / divisor, config
                valid += 1
            assert valid == 21193


class TestMaleFactors:
    """The factor rows that ``namecluster explain`` prints multiply to the score."""

    @pytest.mark.parametrize("ledger", [
        RuleLedger(), RuleLedger(bonus_divisor=Fraction(7, 3),
                                 unknown_son_factor=Fraction(5, 2))],
        ids=["default", "fractional"])
    def test_the_factors_multiply_to_the_score_on_every_valid_tuple(self, baseline,
                                                                   ledger):
        women = (baseline.category("female", TOMB.woman1).rr
                 * baseline.category("female", TOMB.woman2).rr)
        valid = 0
        for slots in product([c.label for c in baseline.men], repeat=4):
            config = TombConfiguration(TOMB.woman1, TOMB.woman2, *slots)
            if validate(config, baseline) is not None:
                continue
            value = women
            for slot, _, _, factor in male_factors(*slots, baseline, ledger):
                value = value / factor if slot == "bonus-divisor" else value * factor
            assert value == score(config, baseline, ledger), slots
            valid += 1
        # (s1, s2, son): 21 with son Other, any of 5 fathers; 52 with a named
        # son, any father but him
        assert valid == 21 * 5 + 52 * 4

    def test_the_observed_factors_and_their_rules(self, baseline):
        assert male_factors(*TOMB[2:], baseline, RuleLedger()) == [
            ("singleton1", "Yoseh", None, YOSEH), ("singleton2", "Other", None, ONE),
            ("father", "Yosef", "R8", YOSEF), ("son", "Yeshua", "R8", YESHUA),
            ("unknown-son-factor", None, "R8", ONE),
            ("bonus-divisor", None, "R14", Fraction(6, 5))]


class TestGenerationalRules:
    def test_father_yeshua_discounted(self, baseline):
        assert score(cfg(f="Yeshua", son="Yosef"), baseline) == 1

    def test_father_yeshua_allowed_counts_father_only(self, baseline):
        rules = RuleLedger(allow_father_yeshua=True)
        assert male_parts(cfg(f="Yeshua", son="Yosef"), baseline, rules)[1] == YESHUA

    def test_father_other_discounts_the_son(self, baseline):
        assert score(cfg(f="Other", son="Yeshua"), baseline) == 1

    def test_father_counted_once_when_also_singleton(self, baseline):
        got = male_parts(cfg(s1="Yosef", f="Yosef", son="Yeshua"), baseline)
        # R10: father's rarity once, son at five times his rarity, bonus applies
        assert got == (1, YOSEF * YESHUA * 5, Fraction(6, 5))

    def test_singletons_yosef_and_yoseh_blank_the_yosef(self, baseline):
        assert male_parts(cfg(s1="Yosef", s2="Yoseh"), baseline)[0] == YOSEH

    def test_father_yoseh_unknown_son(self, baseline):
        assert male_parts(cfg(f="Yoseh", son="Other"), baseline)[1] == YOSEH

    def test_father_yoseh_son_named_for_relative(self, baseline):
        assert male_parts(cfg(f="Yoseh", son="Yeshua"), baseline)[1] == YOSEH * YESHUA * 5

    def test_father_yoseh_blanks_a_singleton_yosef(self, baseline):
        got = male_parts(cfg(s1="Yosef", s2="Other", f="Yoseh", son="James"), baseline)
        assert got[:2] == (1, YOSEH * JAMES * 5)

    def test_father_yosef_with_yoseh_present_full_for_listed_sons(self, baseline):
        assert male_parts(cfg(s1="Yoseh", f="Yosef", son="James"), baseline)[1] == YOSEF * JAMES

    def test_father_yosef_with_yoseh_present_unknown_otherwise(self, baseline):
        assert male_parts(cfg(s1="Yoseh", f="Yosef", son="Other"), baseline)[1] == 1

    def test_father_yosef_singleton_with_yoseh_is_unknowable(self, baseline):
        got = male_parts(cfg(s1="Yosef", s2="Yoseh", f="Yosef", son="Yeshua"), baseline)
        assert got[1] == 1
        assert got[0] == YOSEH  # both Yosef mentions blanked

    def test_father_yosef_no_yoseh_full_for_yeshua_or_james(self, baseline):
        assert male_parts(cfg(f="Yosef", son="James"), baseline)[1] == YOSEF * JAMES
        assert male_parts(cfg(f="Yosef", son="Other"), baseline)[1] == 1

    def test_father_yosef_son_cleopas_counts_with_factor(self, spec_c):
        assert male_parts(cfg(f="Yosef", son="Cleopas"), spec_c)[1] == YOSEF * CLEOPAS * 5
        # a Yoseh anywhere rules the brother out: back to the unknown pair
        assert male_parts(cfg(s1="Yoseh", f="Yosef", son="Cleopas"), spec_c)[1] == 1

    def test_father_james_singleton(self, spec_c):
        got = male_parts(cfg(s1="James", f="James", son="Cleopas"), spec_c)
        assert got[:2] == (1, JAMES * CLEOPAS * 5)

    def test_father_james_with_grandson_cleopas(self, spec_c):
        assert male_parts(cfg(f="James", son="Cleopas"), spec_c)[1] == JAMES * CLEOPAS

    def test_father_james_other_sons(self, baseline):
        assert male_parts(cfg(f="James", son="Yeshua"), baseline)[1] == JAMES * YESHUA * 5
        assert male_parts(cfg(f="James", son="Other"), baseline)[1] == JAMES

    def test_father_cleopas(self, spec_c):
        assert male_parts(cfg(f="Cleopas", son="Yoseh"), spec_c)[1] == CLEOPAS * YOSEH * 5
        assert male_parts(cfg(f="Cleopas", son="Yeshua"), spec_c)[1] == CLEOPAS

    def test_unknown_sons_not_counted_when_disabled(self, baseline):
        rules = RuleLedger(count_unknown_sons=False)
        assert male_parts(cfg(f="Yoseh", son="Yeshua"), baseline, rules)[1] == YOSEH
        got = male_parts(cfg(s1="Yosef", f="Yosef", son="Yeshua"), baseline, rules)
        assert got[1] == YOSEF

    def test_bonus_only_for_the_prize_pair(self, baseline):
        for f, son in (("Yosef", "James"), ("James", "Yeshua"),
                       ("Yoseh", "Yeshua"), ("Other", "Yeshua")):
            assert male_parts(cfg(f=f, son=son), baseline)[2] == 1

    def test_factor_parameter_respected(self, baseline):
        rules = RuleLedger(unknown_son_factor=Fraction(5, 2))
        got = male_parts(cfg(f="Yoseh", son="Yeshua"), baseline, rules)
        assert got[1] == YOSEH * YESHUA * Fraction(5, 2)


def all_valid_configs(spec):
    women = [c.label for c in spec.women]
    men = [c.label for c in spec.men]
    for combo in product(women, women, men, men, men, men):
        config = TombConfiguration(*combo)
        if validate(config, spec) is None:
            yield config


class TestScoreProperties:
    def test_score_in_unit_interval(self, baseline, rules):
        for config in all_valid_configs(baseline):
            value = score(config, baseline, rules)
            assert 0 < value <= 1

    def test_slot_swap_symmetry(self, baseline, rules):
        for config in all_valid_configs(baseline):
            swapped_w = TombConfiguration(
                config.woman2, config.woman1, config.singleton1,
                config.singleton2, config.father, config.son)
            swapped_s = TombConfiguration(
                config.woman1, config.woman2, config.singleton2,
                config.singleton1, config.father, config.son)
            value = score(config, baseline, rules)
            assert score(swapped_w, baseline, rules) == value
            assert score(swapped_s, baseline, rules) == value

    def test_other_substitution_never_decreases_score(self, baseline, rules):
        # Exception: a father doubling as a singleton while a Yoseh is present
        # has his pair discounted as unknowable. Substituting any slot that
        # exits that state (the father, the coincident singleton, or a
        # Yoseh-bearing slot) re-activates the pair and can lower the score;
        # see test_coincidence_reversal_is_the_only_nonmonotone_case.
        slots = ("woman1", "woman2", "singleton1", "singleton2", "father", "son")
        for config in all_valid_configs(baseline):
            base_value = score(config, baseline, rules)
            coincident = (config.father != "Other" and config.father in
                          (config.singleton1, config.singleton2))
            gap = coincident and "Yoseh" in (
                config.son, config.singleton1, config.singleton2)
            for slot in slots:
                if coincident and (slot == "father"
                                   or getattr(config, slot) == config.father):
                    continue
                if gap and getattr(config, slot) == "Yoseh":
                    continue
                relaxed = TombConfiguration(**{
                    name: ("Other" if name == slot else getattr(config, name))
                    for name in slots})
                assert score(relaxed, baseline, rules) >= base_value

    def test_coincidence_reversal_is_the_only_nonmonotone_case(self, baseline, rules):
        # father Yosef doubling as a singleton with a Yoseh present: the pair
        # is unknowable and scores 1; freeing the singleton slot makes the
        # pair score in full, so the relaxed configuration is *rarer*.
        tight = TombConfiguration("MM", "Marya", "Yosef", "Yeshua", "Yosef", "Yoseh")
        relaxed = TombConfiguration("MM", "Marya", "Other", "Yeshua", "Yosef", "Yoseh")
        assert male_parts(tight, baseline, rules)[1] == 1
        assert male_parts(relaxed, baseline, rules)[1] == Fraction(221, 2509) * YOSEH
        assert score(relaxed, baseline, rules) < score(tight, baseline, rules)

    def test_observed_males_are_in_their_best_arrangement(self, baseline, rules):
        names = ["Yoseh", "Other", "Yosef", "Yeshua"]
        observed_value = score(TOMB, baseline, rules)
        values = []
        for f, son, a, b in permutations(names):
            config = TombConfiguration("MM", "Marya", a, b, f, son)
            if validate(config, baseline) is None:
                values.append(score(config, baseline, rules))
        assert len({(f, son, frozenset((a, b)))
                    for f, son, a, b in permutations(names)}) == 12
        assert observed_value == min(values)
