"""Realism validation and the RR scoring rules."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from namecluster.candidates import build_spec
from namecluster.onomasticon import InputError
from namecluster.scoring import (RuleLedger, TombConfiguration, male_factors, score,
                                 validate)

from bundled import ADDONS, DESCRIPTORS, TOMB

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
        got = score(TOMB, baseline)
        assert got.women_part == MM * MARYA
        assert got.singleton_part == YOSEH
        assert got.generational_part == YESHUA * YOSEF
        assert got.bonus_applied == Fraction(6, 5)
        assert got.value == MM * MARYA * YOSEH * YESHUA * YOSEF / Fraction(6, 5)
        assert f"{float(got.value):.4g}" == "1.449e-08"

    def test_all_other_scores_one(self, baseline):
        assert score(cfg(), baseline).value == 1

    def test_women_only(self, baseline):
        got = score(cfg(w1="MM", w2="Marya"), baseline)
        assert got.value == MM * MARYA  # men contribute 1 throughout
        assert f"{float(got.value):.4g}" == "0.0003659"

    def test_value_decomposition(self, baseline, rules):
        got = score(TOMB, baseline, rules)
        assert got.value == (got.women_part * got.singleton_part
                             * got.generational_part / got.bonus_applied)


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
            assert value == score(config, baseline, ledger).value, slots
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
        assert score(cfg(f="Yeshua", son="Yosef"), baseline).value == 1

    def test_father_yeshua_allowed_counts_father_only(self, baseline):
        rules = RuleLedger(allow_father_yeshua=True)
        got = score(cfg(f="Yeshua", son="Yosef"), baseline, rules)
        assert got.generational_part == YESHUA

    def test_father_other_discounts_the_son(self, baseline):
        assert score(cfg(f="Other", son="Yeshua"), baseline).value == 1

    def test_father_counted_once_when_also_singleton(self, baseline):
        got = score(cfg(s1="Yosef", f="Yosef", son="Yeshua"), baseline)
        # R10: father's rarity once, son at five times his rarity, bonus applies
        assert got.singleton_part == 1
        assert got.generational_part == YOSEF * YESHUA * 5
        assert got.bonus_applied == Fraction(6, 5)

    def test_singletons_yosef_and_yoseh_blank_the_yosef(self, baseline):
        got = score(cfg(s1="Yosef", s2="Yoseh"), baseline)
        assert got.singleton_part == YOSEH

    def test_father_yoseh_unknown_son(self, baseline):
        got = score(cfg(f="Yoseh", son="Other"), baseline)
        assert got.generational_part == YOSEH

    def test_father_yoseh_son_named_for_relative(self, baseline):
        got = score(cfg(f="Yoseh", son="Yeshua"), baseline)
        assert got.generational_part == YOSEH * YESHUA * 5

    def test_father_yoseh_blanks_a_singleton_yosef(self, baseline):
        got = score(cfg(s1="Yosef", s2="Other", f="Yoseh", son="James"), baseline)
        assert got.singleton_part == 1
        assert got.generational_part == YOSEH * JAMES * 5

    def test_father_yosef_with_yoseh_present_full_for_listed_sons(self, baseline):
        got = score(cfg(s1="Yoseh", f="Yosef", son="James"), baseline)
        assert got.generational_part == YOSEF * JAMES

    def test_father_yosef_with_yoseh_present_unknown_otherwise(self, baseline):
        got, = [score(cfg(s1="Yoseh", f="Yosef", son="Other"), baseline)]
        assert got.generational_part == 1

    def test_father_yosef_singleton_with_yoseh_is_unknowable(self, baseline):
        got = score(cfg(s1="Yosef", s2="Yoseh", f="Yosef", son="Yeshua"), baseline)
        assert got.generational_part == 1
        assert got.singleton_part == YOSEH  # both Yosef mentions blanked

    def test_father_yosef_no_yoseh_full_for_yeshua_or_james(self, baseline):
        got = score(cfg(f="Yosef", son="James"), baseline)
        assert got.generational_part == YOSEF * JAMES
        got = score(cfg(f="Yosef", son="Other"), baseline)
        assert got.generational_part == 1

    def test_father_yosef_son_cleopas_counts_with_factor(self, spec_c):
        got = score(cfg(f="Yosef", son="Cleopas"), spec_c)
        assert got.generational_part == YOSEF * CLEOPAS * 5
        # a Yoseh anywhere rules the brother out: back to the unknown pair
        got = score(cfg(s1="Yoseh", f="Yosef", son="Cleopas"), spec_c)
        assert got.generational_part == 1

    def test_father_james_singleton(self, spec_c):
        got = score(cfg(s1="James", f="James", son="Cleopas"), spec_c)
        assert got.singleton_part == 1
        assert got.generational_part == JAMES * CLEOPAS * 5

    def test_father_james_with_grandson_cleopas(self, spec_c):
        got = score(cfg(f="James", son="Cleopas"), spec_c)
        assert got.generational_part == JAMES * CLEOPAS

    def test_father_james_other_sons(self, baseline):
        got = score(cfg(f="James", son="Yeshua"), baseline)
        assert got.generational_part == JAMES * YESHUA * 5
        got = score(cfg(f="James", son="Other"), baseline)
        assert got.generational_part == JAMES

    def test_father_cleopas(self, spec_c):
        got = score(cfg(f="Cleopas", son="Yoseh"), spec_c)
        assert got.generational_part == CLEOPAS * YOSEH * 5
        got = score(cfg(f="Cleopas", son="Yeshua"), spec_c)
        assert got.generational_part == CLEOPAS

    def test_unknown_sons_not_counted_when_disabled(self, baseline):
        rules = RuleLedger(count_unknown_sons=False)
        got = score(cfg(f="Yoseh", son="Yeshua"), baseline, rules)
        assert got.generational_part == YOSEH
        got = score(cfg(s1="Yosef", f="Yosef", son="Yeshua"), baseline, rules)
        assert got.generational_part == YOSEF

    def test_bonus_only_for_the_prize_pair(self, baseline):
        for f, son in (("Yosef", "James"), ("James", "Yeshua"),
                       ("Yoseh", "Yeshua"), ("Other", "Yeshua")):
            assert score(cfg(f=f, son=son), baseline).bonus_applied == 1

    def test_factor_parameter_respected(self, baseline):
        rules = RuleLedger(unknown_son_factor=Fraction(5, 2))
        got = score(cfg(f="Yoseh", son="Yeshua"), baseline, rules)
        assert got.generational_part == YOSEH * YESHUA * Fraction(5, 2)


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
            value = score(config, baseline, rules).value
            assert 0 < value <= 1

    def test_slot_swap_symmetry(self, baseline, rules):
        for config in all_valid_configs(baseline):
            swapped_w = TombConfiguration(
                config.woman2, config.woman1, config.singleton1,
                config.singleton2, config.father, config.son)
            swapped_s = TombConfiguration(
                config.woman1, config.woman2, config.singleton2,
                config.singleton1, config.father, config.son)
            value = score(config, baseline, rules).value
            assert score(swapped_w, baseline, rules).value == value
            assert score(swapped_s, baseline, rules).value == value

    def test_other_substitution_never_decreases_score(self, baseline, rules):
        # Exception: a father doubling as a singleton while a Yoseh is present
        # has his pair discounted as unknowable. Substituting any slot that
        # exits that state (the father, the coincident singleton, or a
        # Yoseh-bearing slot) re-activates the pair and can lower the score;
        # see test_coincidence_reversal_is_the_only_nonmonotone_case.
        slots = ("woman1", "woman2", "singleton1", "singleton2", "father", "son")
        for config in all_valid_configs(baseline):
            base_value = score(config, baseline, rules).value
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
                assert score(relaxed, baseline, rules).value >= base_value

    def test_coincidence_reversal_is_the_only_nonmonotone_case(self, baseline, rules):
        # father Yosef doubling as a singleton with a Yoseh present: the pair
        # is unknowable and scores 1; freeing the singleton slot makes the
        # pair score in full, so the relaxed configuration is *rarer*.
        tight = TombConfiguration("MM", "Marya", "Yosef", "Yeshua", "Yosef", "Yoseh")
        relaxed = TombConfiguration("MM", "Marya", "Other", "Yeshua", "Yosef", "Yoseh")
        assert score(tight, baseline, rules).generational_part == 1
        assert score(relaxed, baseline, rules).generational_part == \
            Fraction(221, 2509) * YOSEH
        assert score(relaxed, baseline, rules).value < score(tight, baseline, rules).value

    def test_observed_males_are_in_their_best_arrangement(self, baseline, rules):
        names = ["Yoseh", "Other", "Yosef", "Yeshua"]
        observed_value = score(TOMB, baseline, rules).value
        values = []
        for f, son, a, b in permutations(names):
            config = TombConfiguration("MM", "Marya", a, b, f, son)
            if validate(config, baseline) is None:
                values.append(score(config, baseline, rules).value)
        assert len({(f, son, frozenset((a, b)))
                    for f, son, a, b in permutations(names)}) == 12
        assert observed_value == min(values)
