"""Exact enumeration: masses, tail proportions, and the person-level oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namecluster.candidates import CandidateDescriptor, build_spec
from namecluster.scoring import (YESHUA, YOSEH, RuleLedger, TombConfiguration,
                                 bonus_applies, generational_counts, score,
                                 score_male_slots, validate)
from namecluster.onomasticon import format_decimal
from namecluster.tailspace import (distribution, enumerate_tail, male_table, tail,
                                   tuple_space_size)

from bundled import ADDONS, DESCRIPTORS, N2, TOMB
from conftest import make_spec, random_synthetic
from oracle import person_level_tail

# engine values for the bundled baseline, locked for regression; the printed
# reference figures they round to are asserted in the acceptance suite
OBSERVED = Fraction(1398590935, 96503906751050832)
TOTAL = 3982182593561618329
VALID = Fraction(230947400931515207622741, 64009)
TAIL = Fraction(253644329313582025, 128018)

# bundled male generics added to the baseline for the larger frozen spaces
PLUS_8 = ("Simon", "Judah", "Eleazar", "Yochanan", "Hananiah", "Yonathan",
          "Matthew", "Cleopas")                                   # M = 13
PLUS_12 = PLUS_8 + ("Menachem", "Hanan", "Alexander", "Dositheus")  # M = 17
NON_DEFAULT = RuleLedger(require_yeshua_in_tomb=True, allow_father_yeshua=True,
                         count_unknown_sons=False, bonus_divisor=Fraction(1))
# non-integer ledger parameters, so the enumerator's int scaling must carry
# the denominators of the bonus divisor and the unknown-son factor
FRACTIONAL = RuleLedger(bonus_divisor=Fraction(7, 3),
                        unknown_son_factor=Fraction(5, 2))
LEDGERS = {"default": RuleLedger(), "non-default": NON_DEFAULT,
           "fractional": FRACTIONAL}
# (added generics, ledger) -> (valid mass, tail mass), captured from the
# per-tuple Fraction enumerator that scored and sorted every male 4-tuple
FROZEN = {
    (PLUS_8, "default"): (
        Fraction(209973101902093839843527, 64009),
        Fraction(9382065562453838001683, 11777656)),
    (PLUS_8, "non-default"): (
        Fraction(209973101902093839843527, 64009),
        Fraction(65054892920159633941, 256036)),
    (PLUS_12, "default"): (
        Fraction(827020242279943413567, 253),
        Fraction(3671949731247729278569, 1070696)),
    (PLUS_12, "non-default"): (
        Fraction(827020242279943413567, 253),
        Fraction(210845163735445426701, 256036)),
    (PLUS_8, "fractional"): (
        Fraction(209973101902093839843527, 64009),
        Fraction(4883057350935566827863, 11777656)),
}


def grown_spec(onom, added):
    return build_spec(onom, DESCRIPTORS + tuple(
        CandidateDescriptor(f"extra_{name.lower()}", "male", name, "generic")
        for name in added))


@pytest.fixture(scope="module")
def baseline_tail(baseline, rules):
    observed = score(TOMB, baseline, rules)
    return enumerate_tail(baseline, rules, observed)


class TestTupleSpace:
    def test_bundled_totals(self, baseline):
        assert tuple_space_size(baseline) == 317 ** 2 * 2509 ** 4 == TOTAL

    def test_tiny_space(self):
        spec = make_spec([1, 1], [1, 2])
        assert tuple_space_size(spec) == 2 ** 2 * 3 ** 4

    def test_singleton_space(self):
        spec = make_spec([1], [1])
        assert tuple_space_size(spec) == 1


class TestBaselineEnumeration:
    def test_observed(self, baseline, rules):
        assert score(TOMB, baseline, rules) == OBSERVED

    def test_masses(self, baseline_tail):
        assert baseline_tail.total_mass == TOTAL
        assert baseline_tail.valid_mass == VALID
        assert baseline_tail.tail_mass == TAIL

    def test_mass_ordering_invariant(self, baseline_tail):
        assert 0 <= baseline_tail.tail_mass <= baseline_tail.valid_mass \
            <= baseline_tail.total_mass
        assert 0 <= baseline_tail.proportion <= 1

    def test_observed_one_gives_full_proportion(self, baseline, rules):
        result = enumerate_tail(baseline, rules, Fraction(1))
        assert result.proportion == 1

    def test_requiring_yeshua_shrinks_the_tail(self, baseline, rules):
        restricted = enumerate_tail(
            baseline, rules._replace(require_yeshua_in_tomb=True), OBSERVED)
        assert restricted.tail_mass < TAIL
        assert restricted.valid_mass == VALID  # flag affects tail membership only

    def test_nonpositive_observed_rejected(self, baseline, rules):
        with pytest.raises(ValueError):
            enumerate_tail(baseline, rules, Fraction(0))


class TestFrozenLargerSpaces:
    @pytest.mark.parametrize("added,ledger", list(FROZEN),
                             ids=[f"M{5 + len(a)}-{r}" for a, r in FROZEN])
    def test_masses(self, onom, added, ledger):
        spec = grown_spec(onom, added)
        rules = LEDGERS[ledger]
        result = enumerate_tail(spec, rules, score(TOMB, spec, rules))
        assert (result.valid_mass, result.tail_mass) == FROZEN[added, ledger]

    @pytest.mark.parametrize("rules", list(LEDGERS.values()), ids=list(LEDGERS))
    def test_male_score_factorisation(self, onom, rules):
        # male_table's int bases and masses, class by class, rebuilt one
        # valid male tuple at a time from the Fraction scores of
        # score_male_slots: each score is base * F / D
        spec = grown_spec(onom, PLUS_8)
        table = male_table(spec.men, rules)
        un, ud = rules.unknown_son_factor.as_integer_ratio()
        bn, bd = rules.bonus_divisor.as_integer_ratio()
        scale = table.r ** 4 * ud * bn
        men = {c.label: c for c in spec.men}
        valid, by_class = 0, {}
        for slots in product(men, repeat=4):
            config = TombConfiguration("MM", "Marya", *slots)
            if validate(config, spec) is not None:
                continue
            mass = table.mass_scale
            for label in slots:
                mass *= men[label].weight
            assert mass.denominator == 1, slots
            valid += int(mass)
            s1, s2, father, son = slots
            if rules.require_yeshua_in_tomb and YESHUA not in (s1, s2, son):
                continue
            singles, gen, divisor = score_male_slots(*slots, spec, rules)
            _, (_, _, uc) = generational_counts(men[father], men[son], father in (s1, s2),
                                                YOSEH in (s1, s2), rules)
            bonus = bonus_applies(men[father], men[son])
            factor = (un if uc else ud) * (bd if bonus else bn)
            base = singles * gen / divisor * scale / factor
            assert base.denominator == 1, slots
            by_base = by_class.setdefault((uc, bonus), {})
            by_base[int(base)] = by_base.get(int(base), 0) + int(mass)
        assert valid == table.valid_mass
        assert {(uc, bonus) for uc, bonus, _, _ in table.classes} == set(by_class)
        for uc, bonus, bases, below in table.classes:
            masses = [b - a for a, b in zip(below, below[1:])]
            assert list(bases) == sorted(by_class[uc, bonus]), (uc, bonus)
            assert dict(zip(bases, masses)) == by_class[uc, bonus], (uc, bonus)
        # every class occurs under the default ledger
        assert rules != RuleLedger() or len(table.classes) == 4


class TestSharedWalk:
    """One male walk per set of ledger switches serves every ledger number."""

    NUMBERS = list(product((Fraction(1), Fraction(6, 5), Fraction(7, 3)),
                           (Fraction(1), Fraction(5, 2), Fraction(5), Fraction(10))))

    @pytest.mark.parametrize("added", [(), PLUS_8], ids=["M5", "M13"])
    @pytest.mark.parametrize("ledger", ["default", "non-default"])
    def test_shared_walk_equals_fresh_walks(self, onom, added, ledger):
        spec = grown_spec(onom, added)
        ledgers = [LEDGERS[ledger]._replace(bonus_divisor=bonus,
                                            unknown_son_factor=factor)
                   for bonus, factor in self.NUMBERS]
        memo = {}  # one entry per male walk
        shared = [enumerate_tail(spec, rules, score(TOMB, spec, rules), memo)
                  for rules in ledgers]
        assert len(memo) == 1
        fresh = [enumerate_tail(spec, rules, score(TOMB, spec, rules))
                 for rules in ledgers]
        assert shared == fresh
        assert len({result.valid_mass for result in shared}) == 1
        frozen = dict(FROZEN)
        frozen[(), "default"] = (VALID, TAIL)
        checked = 0
        for name, known in LEDGERS.items():
            if (added, name) in frozen and known in ledgers:
                result = shared[ledgers.index(known)]
                assert (result.valid_mass, result.tail_mass) == frozen[added, name]
                checked += 1
        assert checked == {((), "default"): 1, (PLUS_8, "default"): 2,
                           (PLUS_8, "non-default"): 1}.get((added, ledger), 0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           numbers=st.lists(st.tuples(
               st.fractions(min_value=1, max_value=10, max_denominator=7),
               st.fractions(min_value=1, max_value=10, max_denominator=7)),
               min_size=2, max_size=3))
    def test_shared_walk_agrees_with_the_oracle(self, seed, numbers):
        rng = random.Random(seed)
        spec, switched = random_synthetic(rng)
        men = [c.label for c in spec.men]
        config = TombConfiguration(spec.women[0].label, "Other",
                                   rng.choice(men), "Other", "Other", "Other")
        memo = {}  # one entry per male walk
        for bonus, factor in numbers:
            rules = switched._replace(bonus_divisor=bonus, unknown_son_factor=factor)
            observed = score(config, spec, rules)
            result = enumerate_tail(spec, rules, observed, memo)
            assert (result.total_mass, result.valid_mass, result.tail_mass) \
                == person_level_tail(spec, rules, observed)
        assert len(memo) == 1


class TestMaleTable:
    @pytest.mark.parametrize("ledger", list(LEDGERS))
    def test_order_of_the_men_does_not_matter(self, onom, ledger):
        # the walk visits unordered singleton pairs, so every order of the
        # male categories must give the frozen masses
        spec = grown_spec(onom, PLUS_8)
        rules = LEDGERS[ledger]
        observed = score(TOMB, spec, rules)
        shuffled = list(spec.men)
        random.Random(13).shuffle(shuffled)
        for men in (tuple(reversed(spec.men)), tuple(shuffled)):
            result = enumerate_tail(spec._replace(men=men), rules, observed)
            assert (result.valid_mass, result.tail_mass) == FROZEN[PLUS_8, ledger]

    @pytest.mark.parametrize("field, value", [("weight", Fraction(1, 5)),
                                              ("rr", Fraction(1, 5))])
    @pytest.mark.parametrize("rules", [RuleLedger(), FRACTIONAL],
                             ids=["default", "fractional"])
    def test_one_changed_category_gets_its_own_table(self, field, value, rules):
        spec = make_spec([1, 1], [2, 1, 2], men_labels=["Yosef", "Yeshua"])
        yosef, yeshua, other = spec.men
        changed = yosef._replace(**{field: value})
        if field == "weight":  # Other absorbs the freed weight
            other = other._replace(weight=other.weight + yosef.weight - value)
        variant = spec._replace(men=(changed, yeshua, other))
        config = TombConfiguration("W0", "Other", "Yosef", "Other",
                                   "Yosef", "Yeshua")
        observed = score(config, spec, rules)
        assert male_table(spec.men, rules) != male_table(variant.men, rules)
        for hypothesis in (spec, variant):
            result = enumerate_tail(hypothesis, rules, observed)
            total, valid, tail = person_level_tail(hypothesis, rules, observed)
            assert (result.total_mass, result.valid_mass, result.tail_mass) \
                == (total, valid, tail)


class TestDistribution:
    """One space, read by ``tail`` at any threshold and under any ledger numbers."""

    def test_one_space_read_at_three_thresholds(self, baseline, rules):
        # the exact observed RR, the reference's printed 1.451e-08 on the same
        # step of the tail, and the decimal 1.449e-08 just below the exact one
        thresholds = [OBSERVED, Fraction("1.451e-08"), Fraction("1.449e-08")]
        memo = {}
        dist = distribution(baseline, rules, memo)
        results = [tail(dist, rules, observed) for observed in thresholds]
        assert results == [enumerate_tail(baseline, rules, observed)
                           for observed in thresholds]
        assert results[0].tail_mass == results[1].tail_mass == TAIL
        assert results[2].tail_mass < TAIL
        assert format_decimal(N2 * results[2].proportion, 3) == "0.000543"
        assert len(memo) == 1

    @pytest.mark.parametrize("ledger", ["default", "non-default"])
    def test_the_ledger_numbers_leave_the_space_alone(self, baseline, ledger):
        rules = LEDGERS[ledger]
        other = rules._replace(bonus_divisor=FRACTIONAL.bonus_divisor,
                               unknown_son_factor=FRACTIONAL.unknown_son_factor)
        memo = {}
        first, second = (distribution(baseline, r, memo) for r in (rules, other))
        assert len(memo) == 1
        assert second.table is first.table
        assert second.pairs == first.pairs

    @pytest.mark.parametrize("field", RuleLedger._fields)
    def test_a_shared_memo_gives_what_a_fresh_one_gives(self, baseline, field):
        # the memo keys a male table by every ledger field that the walk may
        # read, so a changed field never reuses a table walked without it
        rules = RuleLedger()
        value = getattr(rules, field)
        other = rules._replace(**{field: not value if isinstance(value, bool) else value + 1})
        memo = {}
        distribution(baseline, rules, memo)
        assert distribution(baseline, other, memo) == distribution(baseline, other)
        # only the two numbers, which tail alone reads, share the walk
        assert len(memo) == (1 if field in ("bonus_divisor", "unknown_son_factor") else 2)

    def test_one_space_agrees_with_the_oracle_at_every_threshold(self):
        rng = random.Random(20261019)
        for trial in range(6):
            spec, rules = random_synthetic(rng)
            women, men = [c.label for c in spec.women], [c.label for c in spec.men]
            tombs = [TombConfiguration(*map(rng.choice, (women,) * 2 + (men,) * 4))
                     for _ in range(12)]
            # achievable scores, which ties reach, and half the least of them
            scores = sorted({score(tomb, spec, rules) for tomb in tombs
                             if validate(tomb, spec) is None})
            thresholds = scores[:3] + [scores[0] / 2]
            assert len(thresholds) >= 3, f"trial {trial}"
            dist = distribution(spec, rules)
            for observed in thresholds:
                result = tail(dist, rules, observed)
                assert (result.total_mass, result.valid_mass, result.tail_mass) \
                    == person_level_tail(spec, rules, observed), f"trial {trial}"


class TestPersonLevelOracle:
    def test_documented_synthetic_instance(self):
        # two women categories of counts 3+2, three men categories of 4+2+3;
        # category-level mass accounting must equal walking all 5^2 * 9^4
        # ordered person tuples one by one
        spec = make_spec([3, 2], [4, 2, 3],
                         men_labels=["Yosef", "Yeshua"])
        rules = RuleLedger()
        config = TombConfiguration("W0", "Other", "Yosef", "Other",
                                   "Yosef", "Yeshua")
        observed = score(config, spec, rules)
        total, valid, tail = person_level_tail(spec, rules, observed)
        assert total == 5 ** 2 * 9 ** 4
        result = enumerate_tail(spec, rules, observed)
        assert result.total_mass == total
        assert result.valid_mass == valid
        assert result.tail_mass == tail
        assert result.proportion == tail / valid

    def test_twenty_five_randomized_synthetics(self):
        rng = random.Random(20260809)
        for trial in range(25):
            spec, rules = random_synthetic(rng)
            men = [c.label for c in spec.men]
            women = [c.label for c in spec.women]
            config = TombConfiguration(
                rng.choice(women), "Other",
                rng.choice(men), "Other", rng.choice(men), "Other")
            if validate(config, spec) is not None:
                config = TombConfiguration(
                    women[0], "Other", men[0], "Other", "Other", "Other")
            observed = score(config, spec, rules)
            total, valid, tail = person_level_tail(spec, rules, observed)
            result = enumerate_tail(spec, rules, observed)
            assert result.total_mass == total, f"trial {trial}"
            assert result.valid_mass == valid, f"trial {trial}"
            assert result.tail_mass == tail, f"trial {trial}"

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_oracle_equivalence_property(self, data):
        women = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        men = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        women.append(data.draw(st.integers(1, 3)))  # Other
        men.append(data.draw(st.integers(1, 3)))
        roles = data.draw(st.permutations(
            ["Yosef", "Yeshua", "Yoseh", "James", "Cleopas"]))[:len(men) - 1]
        spec = make_spec(women, men, men_labels=list(roles))
        params = st.sampled_from((Fraction(1), Fraction(6, 5), Fraction(5, 2),
                                  Fraction(7, 3), Fraction(5)))
        rules = RuleLedger(
            bonus_divisor=data.draw(params),
            unknown_son_factor=data.draw(params),
            require_yeshua_in_tomb=data.draw(st.booleans()),
            allow_father_yeshua=data.draw(st.booleans()),
            count_unknown_sons=data.draw(st.booleans()))
        # threshold: an achievable score, so the tail is nontrivial
        labels_m = [c.label for c in spec.men]
        config = TombConfiguration(
            spec.women[0].label, "Other", labels_m[0], "Other",
            data.draw(st.sampled_from(labels_m)), "Other")
        if validate(config, spec) is not None:
            config = TombConfiguration(
                spec.women[0].label, "Other", labels_m[0], "Other",
                "Other", "Other")
        observed = score(config, spec, rules)
        total, valid, tail = person_level_tail(spec, rules, observed)
        result = enumerate_tail(spec, rules, observed)
        assert (result.total_mass, result.valid_mass, result.tail_mass) \
            == (total, valid, tail)


class TestTailMonotonicityProperties:
    def test_relabeling_preserves_the_proportion(self):
        spec = make_spec([3, 2], [4, 2, 3], women_labels=["A"],
                         men_labels=["B", "C"])
        renamed = make_spec([3, 2], [4, 2, 3], women_labels=["X"],
                            men_labels=["Y", "Z"])
        rules = RuleLedger()
        config = TombConfiguration("A", "Other", "B", "Other", "C", "Other")
        config2 = TombConfiguration("X", "Other", "Y", "Other", "Z", "Other")
        obs1 = score(config, spec, rules)
        obs2 = score(config2, renamed, rules)
        assert obs1 == obs2
        assert enumerate_tail(spec, rules, obs1).proportion \
            == enumerate_tail(renamed, rules, obs2).proportion

    def test_out_of_sample_addition_never_shrinks_the_proportion(
            self, onom, baseline, rules, baseline_tail):
        for key in ("joanna", "martha", "cleopas"):
            spec = build_spec(
                onom, DESCRIPTORS + (ADDONS[key],))
            observed = score(TOMB, spec, rules)
            assert observed == OBSERVED  # additions leave the observed RR alone
            grown = enumerate_tail(spec, rules, observed)
            assert grown.proportion >= baseline_tail.proportion

    def test_doubling_an_in_sample_slice_never_shrinks_the_proportion(
            self, onom, rules, baseline_tail):
        for person in ("mary_magdalene", "joses_brother"):
            scaled = tuple(
                d._replace(scale=Fraction(2)) if d.person == person else d
                for d in DESCRIPTORS)
            spec = build_spec(onom, scaled)
            observed = score(TOMB, spec, rules)
            grown = enumerate_tail(spec, rules, observed)
            assert grown.proportion >= baseline_tail.proportion
