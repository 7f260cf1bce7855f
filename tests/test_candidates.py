"""Candidate lists: weights, RR assignment, and spec invariants."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from namecluster.candidates import (OTHER, CandidateDescriptor, Category,
                                    HypothesisSpec, build_spec,
                                    load_hypothesis_config, parse_candidate,
                                    parse_hypothesis_config)
from namecluster.onomasticon import InputError, load_onomasticon

from bundled import ADDONS, DESCRIPTORS, TOMB

MM_W = Fraction(74, 44 * 317)
MARYA_W = Fraction(74 * 13, 44 * 317)
YOSEH_W = Fraction(221 * 7, 46 * 2509)


class TestBaselineWeights:
    def test_women(self, baseline):
        weights = [c.weight for c in baseline.women]
        assert weights == [
            MM_W, MARYA_W, (74 - Fraction(74, 44) - Fraction(962, 44)) / 317,
            Fraction(61, 317), Fraction(182, 317)]

    def test_men(self, baseline):
        weights = [c.weight for c in baseline.men]
        assert weights == [
            (221 - Fraction(1547, 46)) / 2509, Fraction(101, 2509), YOSEH_W,
            Fraction(43, 2509), Fraction(2144, 2509)]
        assert round(float(weights[0] * 2509), 2) == 187.37

    def test_residual_and_other_weights(self, baseline):
        mariam = baseline.category("female", "Mariam").weight
        assert mariam == (74 - Fraction(74, 44) - Fraction(74 * 13, 44)) / 317
        assert round(float(mariam * 317), 2) == 50.45
        assert baseline.category("female", "Other").weight == \
            Fraction(317 - 74 - 61, 317)
        assert baseline.category("male", "Other").weight == \
            Fraction(2509 - 221 - 101 - 43, 2509)

    def test_weights_sum_to_one(self, baseline):
        assert sum(c.weight for c in baseline.women) == 1
        assert sum(c.weight for c in baseline.men) == 1

    def test_rr_values(self, baseline):
        assert [c.rr for c in baseline.women] == [
            MM_W, MARYA_W, Fraction(74, 317), Fraction(61, 317), Fraction(1)]
        assert [c.rr for c in baseline.men] == [
            Fraction(221, 2509), Fraction(101, 2509), YOSEH_W,
            Fraction(43, 2509), Fraction(1)]

    def test_residual_categories_keep_generic_rr(self, baseline):
        mariam = baseline.category("female", "Mariam")
        assert mariam.rr == Fraction(74, 317) > mariam.weight
        yosef = baseline.category("male", "Yosef")
        assert yosef.rr == Fraction(221, 2509) > yosef.weight

    def test_slice_candidates_score_at_their_weight(self, baseline):
        for label in ("MM", "Marya"):
            cat = baseline.category("female", label)
            assert cat.rr == cat.weight
        yoseh = baseline.category("male", "Yoseh")
        assert yoseh.rr == yoseh.weight

    def test_other_rr_is_one(self, baseline):
        assert baseline.category("female", "Other").rr == 1
        assert baseline.category("male", "Other").rr == 1


class TestSpecEdits:
    def test_add_joanna(self, onom):
        spec = build_spec(onom, DESCRIPTORS + (ADDONS["joanna"],))
        assert spec.category("female", "Joanna").weight == Fraction(12, 317)
        assert spec.category("female", "Other").weight == Fraction(170, 317)

    def test_adding_candidate_preserves_existing_rr(self, onom, baseline):
        spec = build_spec(onom, DESCRIPTORS + (ADDONS["cleopas"],))
        for cat in baseline.men:
            assert spec.category("male", cat.label).rr == cat.rr

    def test_a_memo_serves_only_the_table_it_was_built_from(self, onom):
        # one memo across edited tables: Salome's total + 1 kept her old weight
        more = onom._replace(generics=tuple(
            g._replace(total_persons=g.total_persons + 1) if g.name == "Salome" else g
            for g in onom.generics))
        memo = {}
        for table in (onom, more, onom):
            assert build_spec(table, DESCRIPTORS, memo) == build_spec(table, DESCRIPTORS)

    def test_duplicate_person_rejected(self, onom):
        dup = DESCRIPTORS + (DESCRIPTORS[0],)
        with pytest.raises(InputError, match="^candidate mary_magdalene: given twice$"):
            build_spec(onom, dup)

    def test_duplicate_label_rejected(self, onom):
        clash = DESCRIPTORS + (
            CandidateDescriptor("impostor", "female", "Mariam", "MM"),)
        with pytest.raises(InputError, match="^female categories: MM: duplicate label$"):
            build_spec(onom, clash)

    def test_candidate_labelled_other_rejected(self, onom):
        # the catch-all is known by its label alone, so no candidate may take it
        impostor = DESCRIPTORS + (
            CandidateDescriptor("impostor", "male", "Simon", "generic", label="Other"),)
        with pytest.raises(InputError,
                           match="^male categories: Other: duplicate label$"):
            build_spec(onom, impostor)

    def test_categories_without_other_rejected(self, baseline):
        # a file cannot build it: a candidate labelled Other is a duplicate label
        women = tuple(c._replace(label="Rest") if c.label == OTHER else c
                      for c in baseline.women)
        with pytest.raises(InputError,
                           match="^female categories: exactly one Other, of rr 1$"):
            baseline._replace(women=women)

    def test_residual_weight_above_its_rr_rejected(self, onom):
        lowered = tuple(
            d._replace(rr=Fraction(1, 2509)) if d.person == "joseph_father" else d
            for d in DESCRIPTORS)
        with pytest.raises(InputError,
                           match="^category Yosef: residual weight exceeds the generic rr$"):
            build_spec(onom, lowered)

    def test_overfull_gender_rejected(self, onom):
        heavy = DESCRIPTORS + (
            CandidateDescriptor("whale", "female", "", "generic",
                                label="Whale", weight=Fraction(9, 10),
                                rr=Fraction(9, 10)),)
        with pytest.raises(InputError, match="^female candidates: weights exceed 1$"):
            build_spec(onom, heavy)

    @pytest.mark.parametrize("rclass", ["generic", "residual", "MM"])
    def test_generic_of_the_other_gender_rejected(self, onom, rclass):
        # a frequency is over the generic's own gender total, so a male
        # candidate cannot be drawn from a female generic
        crossed = DESCRIPTORS + (
            CandidateDescriptor("crossed", "male", "Mariam", rclass, label="X"),)
        with pytest.raises(InputError, match="crossed: Mariam is female"):
            build_spec(onom, crossed)

    def test_negative_residual_rejected(self, onom):
        carved = tuple(
            CandidateDescriptor(d.person, d.gender, d.generic, d.rendition_class,
                                weight=Fraction(75, 317))
            if d.person == "mary_magdalene" else d
            for d in DESCRIPTORS)
        with pytest.raises(InputError, match="negative residual of Mariam"):
            build_spec(onom, carved)

    def test_scale_moves_mass_into_the_residual(self, onom):
        scaled = tuple(
            d if d.person != "mary_magdalene" else
            CandidateDescriptor(d.person, d.gender, d.generic, d.rendition_class,
                                scale=Fraction(1, 2))
            for d in DESCRIPTORS)
        spec = build_spec(onom, scaled)
        assert spec.category("female", "MM").weight == MM_W / 2
        assert spec.category("female", "MM").rr == MM_W / 2
        assert spec.category("female", "Mariam").weight == \
            (74 - Fraction(74, 88) - Fraction(962, 44)) / 317
        # the catch-all is untouched by an in-generic rescale
        assert spec.category("female", "Other").weight == Fraction(182, 317)

    def test_placeholder_candidate_with_explicit_weight(self, onom):
        extra = DESCRIPTORS + (
            CandidateDescriptor("woman_1", "female", "", "generic",
                                label="Woman1", weight=Fraction(1, 317),
                                rr=Fraction(1, 317)),)
        spec = build_spec(onom, extra)
        assert spec.category("female", "Woman1").weight == Fraction(1, 317)
        assert sum(c.weight for c in spec.women) == 1

    @pytest.mark.parametrize("first, second", [
        pytest.param(CandidateDescriptor("a", "male", "Joseph", "generic", label="J1"),
                     CandidateDescriptor("b", "male", "Joseph", "generic", label="J2"),
                     id="generic-twice"),
        pytest.param(CandidateDescriptor("a", "male", "Joseph", "generic", label="J"),
                     CandidateDescriptor("b", "male", "Joseph", "Yoseh"),
                     id="generic-and-slice"),
        pytest.param(CandidateDescriptor("a", "male", "Joseph", "residual", label="Yosef"),
                     CandidateDescriptor("b", "male", "Joseph", "generic", label="J"),
                     id="residual-and-generic"),
        pytest.param(CandidateDescriptor("a", "female", "Mariam", "MM"),
                     CandidateDescriptor("b", "female", "Mariam", "MM", label="MM2"),
                     id="slice-under-two-labels"),
        pytest.param(CandidateDescriptor("a", "male", "Joseph", "residual", label="R1"),
                     CandidateDescriptor("b", "male", "Joseph", "residual", label="R2"),
                     id="two-residuals")])
    def test_candidates_drawing_the_same_persons_rejected(self, onom, first, second):
        # each would count the generic's persons twice
        with pytest.raises(InputError, match=(
                f"^candidates a and b: both draw persons of {first.generic}$")):
            build_spec(onom, (first, second))

    def test_an_explicit_weight_draws_no_table_persons(self, onom):
        spec = build_spec(onom, (
            CandidateDescriptor("a", "male", "Joseph", "generic", label="J1"),
            CandidateDescriptor("b", "male", "Joseph", "generic", label="J2",
                                weight=Fraction(1, 2509))))
        assert [c.weight for c in spec.men] == [
            Fraction(221, 2509), Fraction(1, 2509), Fraction(2287, 2509)]

    @given(addons=st.sets(st.sampled_from(sorted(ADDONS))),
           mm_scale=st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2))))
    def test_weights_always_sum_to_one(self, addons, mm_scale):
        onom = load_onomasticon()
        base = tuple(
            d if d.person != "mary_magdalene"
            else CandidateDescriptor(d.person, d.gender, d.generic,
                                     d.rendition_class, scale=mm_scale)
            for d in DESCRIPTORS)
        descriptors = base + tuple(ADDONS[k] for k in sorted(addons))
        spec = build_spec(onom, descriptors)
        assert sum(c.weight for c in spec.women) == 1
        assert sum(c.weight for c in spec.men) == 1


@given(weights=st.lists(st.fractions(0, 1, max_denominator=10 ** 12), max_size=5),
       off=st.sampled_from([0, Fraction(1, 10 ** 40), Fraction(-1, 10 ** 40)]))
def test_a_spec_takes_weights_that_sum_to_exactly_1(weights, off):
    # Other keeps between 3/16 and 1/2, so a weight off by a hair stays in [0, 1]
    cats = tuple(Category(f"c{i}", w / 16, Fraction(1, 2))
                 for i, w in enumerate([Fraction(8), *weights]))
    cats += (Category(OTHER, 1 - sum(c.weight for c in cats) + off, Fraction(1)),)
    build = lambda: HypothesisSpec(women=cats, men=cats, female_total=1, male_total=1)
    if off:
        with pytest.raises(InputError, match="^female categories: weights must sum to 1$"):
            build()
    else:
        assert build().men == cats


class TestConfigFile:
    def test_bundled_files_hold_the_baseline_and_its_addons(self):
        # the exact figures of the bundled baseline are pinned by
        # test_acceptance.py; here, the shape of the two bundled files
        assert [d.gender for d in DESCRIPTORS] == ["female"] * 4 + ["male"] * 4
        assert len({d.person for d in DESCRIPTORS}) == 8
        assert TOMB._asdict() == {"woman1": "MM", "woman2": "Marya",
                                  "singleton1": "Yoseh", "singleton2": "Other",
                                  "father": "Yosef", "son": "Yeshua"}
        assert sorted(ADDONS) == ["cleopas", "joanna", "martha"]
        assert not set(ADDONS) & {d.person for d in DESCRIPTORS}

    def test_an_empty_path_names_the_hypothesis(self):
        with pytest.raises(InputError, match=r"^baseline\.cfg: the path is empty$"):
            load_hypothesis_config("")

    def test_overrides_parse(self):
        d = parse_candidate("p female Mariam slice:MM weight=1/100 rr=2/100 scale=3".split())
        assert (d.weight, d.rr, d.scale) == (
            Fraction(1, 100), Fraction(2, 100), Fraction(3))

    def test_overlarge_exponent_names_the_row(self):
        text = ("# t\n"
                "candidate p female Mariam slice:MM rr=1e-999999999\n")
        with pytest.raises(InputError, match="^row 2: rr: decimal exponent beyond"):
            parse_hypothesis_config(text)

    @pytest.mark.parametrize("option, message", [
        ("weight=1/0", "zero denominator"), ("rr=1/0", "zero denominator"),
        ("scale=1/0", "zero denominator"), ("weigth=1/2", "'weigth'"),
        ("label", "'label'")])
    def test_bad_option_names_the_row(self, option, message):
        text = f"# t\ncandidate p female Mariam slice:MM {option}\n"
        with pytest.raises(InputError, match=f"row 2: .*{message}"):
            parse_hypothesis_config(text)

    def test_bad_observed_slot_names_the_row(self):
        for word, named in (("wife=MM", "'wife'"), ("woman1", "'woman1'")):
            with pytest.raises(InputError, match=f"row 1: .*{named}"):
                parse_hypothesis_config(f"observed {word}\n")

    def test_a_config_without_an_observed_record_is_refused(self):
        with pytest.raises(ValueError, match="^hypothesis config lacks an 'observed' record$"):
            parse_hypothesis_config("# t\ncandidate p female Mariam slice:MM\n")

    def test_unknown_record_kind_rejected(self):
        with pytest.raises(Exception, match="unknown record"):
            parse_hypothesis_config("frobnicate a b\n")

    def test_weight_override_carves_the_residual(self, onom):
        adjusted = tuple(
            CandidateDescriptor(d.person, d.gender, d.generic, d.rendition_class,
                                weight=Fraction(2, 317), rr=d.rr)
            if d.person == "mary_magdalene" else d
            for d in DESCRIPTORS)
        spec = build_spec(onom, adjusted)
        assert spec.category("female", "MM").weight == Fraction(2, 317)
        assert spec.category("female", "Mariam").weight == \
            (74 - 2 - Fraction(962, 44)) / 317
