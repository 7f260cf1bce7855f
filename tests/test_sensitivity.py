"""Scenario sweeps: deltas, determinism, and golden-value status.

FROZEN holds this engine's full-precision results for every bundled
scenario together with the bundled reference value and whether the two
agree at the reference's printed precision. The mismatching scenarios are
the documented divergences of the rule-interpretation audit (they track the
reference within 7 percent); the decision log of the build records the
analysis. Any change to these numbers is a behavioural change.
"""

import timeit
from fractions import Fraction

import pytest

from namecluster import candidates, tailspace
from namecluster.candidates import (_frequency, build_categories, build_spec,
                                    parse_candidate)
from namecluster.onomasticon import InputError
from namecluster.scoring import score
from namecluster.sensitivity import (Scenario, ScenarioReport, apply_deltas, load_suite,
                                     matches_at_printed_precision, parse_suite,
                                     run_scenario, run_suite)
from namecluster.tailspace import enumerate_tail, male_table

from bundled import ADDONS, DESCRIPTORS, N2, TOMB

FROZEN = {
    "require-yeshua": ("0.000551952719279", "0.000552", True),
    "drop-bonus": ("0.000726092997254", "0.000726", True),
    "halve-unknown-son-factor": ("0.000695551904294", "0.000696", True),
    "double-unknown-son-factor": ("0.000604052613538", "0.000604", True),
    "no-unknown-sons": ("0.000596569705196", "0.000597", True),
    "remove-salome": ("0.000367316835137", "0.000367", True),
    "add-joanna": ("0.00106754866049", "0.00111", False),
    "add-martha": ("0.00102851967821", "0.00103", True),
    "add-cleopas": ("0.00255600800455", "0.00267", False),
    "halve-mm": ("0.000180882017861", "0.000181", True),
    "double-mm": ("0.00095338545147", "0.000953", True),
    "halve-yoseh": ("0.000322500830737", "0.000323", True),
    "double-yoseh": ("0.00123961058316", "0.00131", False),
    "allow-father-yeshua": ("0.000697159649073", "0.000697", True),
    "add-joanna-martha": ("0.00154564367832", "0.00159", False),
    "add-joanna-cleopas": ("0.0044258521658", "0.00463", False),
    "add-martha-cleopas": ("0.00415907250401", "0.00429", False),
    "add-joanna-martha-cleopas": ("0.00642731983574", "0.00669", False),
    "double-mm-yoseh": ("0.0020607399899", "0.00220", False),
    "jmc-drop-bonus": ("0.00725746811763", "0.00752", False),
    "jmc-require-yeshua": ("0.00384759526119", "0.00380", False),
    "jmc-drop-bonus-require-yeshua": ("0.00426371910148", "0.00415", False),
    "jmc-nb-no-unknown-sons": ("0.00608687105961", "0.00635", False),
    "jmc-nb-halve-factor": ("0.0084518944423", "0.00871", False),
    "jmc-nb-double-factor": ("0.00651684549643", "0.00678", False),
    "jmc-nb-hf-halve-mm": ("0.00401001912409", "0.00410", False),
    "jmc-nb-hf-double-mm": ("0.0185232765042", "0.0193", False),
    "jmc-nb-hf-halve-yoseh": ("0.00405780404549", "0.00414", False),
    "jmc-nb-hf-double-yoseh": ("0.0165970155021", "0.0173", False),
    "jmc-nb-hf-double-mm-yoseh": ("0.0335318243855", "0.0353", False),
    "jc-nb-hf": ("0.00573405440224", "0.00594", False),
    "jc-nb-hf-halve-mm": ("0.00265732380569", "0.00274", False),
    "jc-nb-hf-double-mm": ("0.0126586590203", "0.0132", False),
    "jc-nb-hf-halve-yoseh": ("0.00275144867675", "0.00281", False),
    "jc-nb-hf-double-yoseh": ("0.0111332087264", "0.0116", False),
    "jc-nb-hf-double-mm-yoseh": ("0.0227996984605", "0.0238", False),
    "jc-nb-nus": ("0.00401602728399", "0.00423", False),
    "jc-nb-nus-halve-mm": ("0.00190067205782", "0.00199", False),
    "jc-nb-nus-double-mm": ("0.0088531536955", "0.00944", False),
    "jc-nb-nus-halve-yoseh": ("0.00183632547654", "0.00190", False),
    "jc-nb-nus-double-yoseh": ("0.00793299907812", "0.00836", False),
    "jc-nb-nus-double-mm-yoseh": ("0.0158923770214", "0.0169", False),
}


@pytest.fixture(scope="module")
def suite():
    return load_suite()


@pytest.fixture(scope="module")
def reports(onom, rules, suite):
    # a report holds only the outcome; its scenario is the one at its position
    return {s.name: r for s, r in
            zip(suite, run_suite(onom, DESCRIPTORS, rules, TOMB, suite, N2))}


class TestBundledSuite:
    def test_suite_shape(self, suite):
        assert len(suite) == 42
        assert all(s.reference is not None for s in suite)

    def test_no_deltas_reproduces_the_baseline(self, onom, rules):
        report = run_scenario(onom, DESCRIPTORS, rules, TOMB,
                              Scenario(name="baseline"), N2)
        assert f"{float(report.adjusted_area):.3g}" == "0.000604"
        assert f"{float(report.adjusted_area):.4g}" == "0.0006041"

    def test_frozen_values_and_match_flags(self, suite, reports):
        assert set(reports) == set(FROZEN)
        references = {s.name: s.reference for s in suite}
        for name, (value, reference, matches) in FROZEN.items():
            report = reports[name]
            assert report.error is None
            assert f"{float(report.adjusted_area):.12g}" == value, name
            assert references[name] == reference, name
            assert report.matches_reference is matches, name

    def test_divergent_scenarios_stay_within_the_audit_envelope(self, reports):
        for name, (_, reference, matches) in FROZEN.items():
            if matches:
                continue
            got = float(reports[name].adjusted_area)
            rel = abs(got - float(reference)) / float(reference)
            assert rel < 0.07, f"{name}: {rel:.3%}"


class TestSharing:
    def test_suite_reports_equal_scenario_by_scenario_reports(
            self, onom, rules, suite, reports):
        assert list(reports.values()) == [
            run_scenario(onom, DESCRIPTORS, rules, TOMB, scenario, N2)
            for scenario in suite]

    def test_each_distinct_candidate_list_is_built_once(
            self, onom, rules, suite, monkeypatch):
        # categories are built once per gender and distinct list of that
        # gender's candidates; every scenario still gets its own spec
        built, specs = [], []

        def counting_build_categories(onom, gender, candidates):
            built.append((gender, tuple(candidates)))
            return build_categories(onom, gender, candidates)

        def counting_build_spec(onom, candidates, memo=None):
            specs.append(tuple(candidates))
            return build_spec(onom, candidates, memo)

        monkeypatch.setattr(candidates, "build_categories", counting_build_categories)
        monkeypatch.setattr(tailspace, "build_spec", counting_build_spec)
        run_suite(onom, DESCRIPTORS, rules, TOMB, suite, N2)
        distinct = {apply_deltas(DESCRIPTORS, rules, s.deltas)[0] for s in suite}
        per_gender = {(gender, tuple(d for d in desc if d.gender == gender))
                      for desc in distinct for gender in ("female", "male")}
        assert len(built) == len(set(built)) == len(per_gender) == 17
        assert sum(gender == "female" for gender, _ in built) == 11
        assert len(specs) == len(suite) == 42
        assert len(set(specs)) == len(distinct) == 24

    def test_each_candidate_frequency_is_read_once(
            self, onom, rules, suite, monkeypatch):
        # one table read per candidate of each list built gives its weight,
        # its RR and its share of a residual's slices
        reads = []

        def counting_frequency(onom, desc):
            reads.append(desc)
            return _frequency(onom, desc)

        monkeypatch.setattr(candidates, "_frequency", counting_frequency)
        build_spec(onom, DESCRIPTORS)
        assert len(reads) == len(DESCRIPTORS) == 8
        reads.clear()
        run_suite(onom, DESCRIPTORS, rules, TOMB, suite, N2)
        assert len(reads) == 80

    def test_cached_male_tables_give_the_results_of_fresh_ones(
            self, onom, rules, suite, reports, monkeypatch):
        # one walk per distinct male categories and set of ledger switches
        cases = []
        for scenario in suite:
            new_desc, new_rules = apply_deltas(DESCRIPTORS, rules, scenario.deltas)
            spec = build_spec(onom, new_desc)
            cases.append((spec, new_rules, score(TOMB, spec, new_rules).value))
        walks = {(spec.men, new_rules.require_yeshua_in_tomb,
                  new_rules.allow_father_yeshua, new_rules.count_unknown_sons)
                 for spec, new_rules, _ in cases}
        assert len(walks) == 13
        assert len({(spec.men, new_rules) for spec, new_rules, _ in cases}) == 20
        walked, enumerated = [], []

        def counting_male_table(men, rules):
            walked.append(men)
            return male_table(men, rules)

        def counting_enumerate_tail(*args):
            enumerated.append(args)
            return enumerate_tail(*args)

        monkeypatch.setattr(tailspace, "male_table", counting_male_table)
        monkeypatch.setattr(tailspace, "enumerate_tail", counting_enumerate_tail)
        assert run_suite(onom, DESCRIPTORS, rules, TOMB, suite, N2) == list(reports.values())
        assert (len(walked), len(enumerated)) == (13, 42)
        # the suite's memo dies with the call: a second suite walks again
        run_suite(onom, DESCRIPTORS, rules, TOMB, suite, N2)
        assert len(walked) == 2 * 13
        memo = {}
        cached = [enumerate_tail(*case, memo) for case in cases]
        assert len(walked) == 3 * 13 and len(memo) == 13
        fresh = [enumerate_tail(*case) for case in cases]
        assert len(walked) == 3 * 13 + 42
        assert cached == fresh

    def test_a_given_memo_is_shared_by_categories_and_male_tables(self, onom, rules,
                                                                 suite):
        # two category lists and one male table; a second run builds nothing
        memo = {}
        first = run_scenario(onom, DESCRIPTORS, rules, TOMB, suite[0], N2, memo=memo)
        assert len(memo) == 3
        kept = dict(memo)
        assert run_scenario(onom, DESCRIPTORS, rules, TOMB, suite[0], N2, memo=memo) == first
        assert memo == kept and all(memo[key] is kept[key] for key in kept)
        assert first == run_scenario(onom, DESCRIPTORS, rules, TOMB, suite[0], N2)


class TestScenarioSemantics:
    def test_out_of_sample_additions_preserve_observed_and_grow_the_area(
            self, reports):
        base = Fraction(1398590935, 96503906751050832)
        baseline_area = Fraction(139504381122470113750,
                                 230947400931515207622741)
        for name in ("add-joanna", "add-martha", "add-cleopas"):
            assert reports[name].observed_rr == base
            assert reports[name].adjusted_area > baseline_area

    def test_scaling_an_in_sample_slice_scales_observed(self, reports):
        base = Fraction(1398590935, 96503906751050832)
        assert reports["double-mm"].observed_rr == 2 * base
        assert reports["halve-yoseh"].observed_rr == base / 2
        assert reports["double-mm-yoseh"].observed_rr == 4 * base

    def test_flag_scenarios_keep_observed(self, reports):
        base = Fraction(1398590935, 96503906751050832)
        assert reports["require-yeshua"].observed_rr == base
        assert reports["allow-father-yeshua"].observed_rr == base

    def test_determinism(self, onom, rules, suite):
        twice = [run_scenario(onom, DESCRIPTORS, rules, TOMB, suite[6], N2)
                 for _ in range(2)]
        assert twice[0] == twice[1]

    def test_identical_scenarios_give_identical_reports(self, onom, rules):
        scenario = Scenario(name="twin", deltas=(("set", "bonus_divisor", Fraction(1)),))
        pair = run_suite(onom, DESCRIPTORS, rules, TOMB,
                         [scenario, scenario], N2)
        assert pair[0] == pair[1]

    def test_empty_suite(self, onom, rules):
        assert run_suite(onom, DESCRIPTORS, rules, TOMB, [], N2) == []

    def test_bad_delta_errors_that_row_only(self, onom, rules, reports):
        # ok, failing, ok: one report per scenario, in suite order, the failing
        # one holding only its error
        suite = [Scenario("drop-bonus", (("set", "bonus_divisor", Fraction(1)),)),
                 Scenario("bad", (("remove", "nobody", None),)),
                 Scenario("remove-salome", (("remove", "salome_sister", None),))]
        first, bad, last = run_suite(onom, DESCRIPTORS, rules, TOMB, suite, N2)
        assert bad == ScenarioReport(error="no candidate named nobody")
        assert first.adjusted_area == reports["drop-bonus"].adjusted_area
        assert last.adjusted_area == reports["remove-salome"].adjusted_area
        assert first.matches_reference is last.matches_reference is None

    def test_every_flag_spelling_sets_the_same_ledger(self, onom, rules):
        reports = run_suite(onom, DESCRIPTORS, rules, TOMB, parse_suite("".join(
            f"scenario {value}\nset require_yeshua_in_tomb {value}\n"
            for value in ("on", "TRUE", "1", "yes", "off", "No"))), N2)
        on, off = reports[0], reports[4]
        assert on.adjusted_area != off.adjusted_area
        assert [r.adjusted_area for r in reports] \
            == [on.adjusted_area] * 4 + [off.adjusted_area] * 2

    def test_unknown_flag_word_errors_that_row_only(self, onom, rules):
        maybe = Scenario(name="maybe", deltas=(("set", "allow_father_yeshua", "maybe"),))
        reports = run_suite(onom, DESCRIPTORS, rules, TOMB,
                            [maybe, Scenario(name="ok")], N2)
        assert "maybe" in reports[0].error
        assert reports[1].error is None

    def test_an_unknown_delta_verb_names_its_scenario(self, onom, rules):
        # the suite reader rejects an unknown record kind first, so only the
        # library reaches this; the report's position, not the message, names
        # the scenario
        bogus = Scenario("s", (("bogus", None, None),))
        with pytest.raises(InputError, match="^unknown delta verb 'bogus'$"):
            apply_deltas(DESCRIPTORS, rules, bogus.deltas)
        assert run_suite(onom, DESCRIPTORS, rules, TOMB, [Scenario("ok"), bogus], N2)[1] \
            == ScenarioReport(error="unknown delta verb 'bogus'")

    def test_duplicate_addition_rejected(self, onom, rules):
        twice = Scenario(name="dup", deltas=(
            ("add", "joanna", ADDONS["joanna"]), ("add", "joanna", ADDONS["joanna"])))
        report = run_suite(onom, DESCRIPTORS, rules, TOMB, [twice], N2)[0]
        assert "already present" in report.error

    def test_an_addition_drawing_taken_persons_errors_that_row_only(
            self, onom, rules):
        reports = run_suite(onom, DESCRIPTORS, rules, TOMB, parse_suite(
            "scenario over\nadd x male Joseph generic label=J2\n\nscenario ok\n"), N2)
        assert reports[0].error == (
            "candidates joseph_father and x: both draw persons of Joseph")
        assert reports[0].adjusted_area is None
        assert reports[1].error is None


class TestSuiteParsing:
    def test_round_trip_style_parse(self):
        text = """
        scenario demo
        add joanna female Joanna generic
        scale mary_magdalene 2
        set bonus_divisor 1
        reference 0.001
        """
        (scenario,) = parse_suite(text)
        assert scenario.name == "demo"
        joanna = parse_candidate("joanna female Joanna generic".split())
        assert scenario.deltas == (("add", "joanna", joanna),
                                   ("scale", "mary_magdalene", Fraction(2)),
                                   ("set", "bonus_divisor", Fraction(1)))
        assert scenario.reference == "0.001"
        (flag,) = parse_suite("scenario f\nset count_unknown_sons Off\n")[0].deltas
        assert flag[:2] == ("set", "count_unknown_sons") and flag[2] is False
        (remove,) = parse_suite("scenario r\nremove salome_sister\n")[0].deltas
        assert remove == ("remove", "salome_sister", None)

    def test_an_empty_path_names_the_suite(self):
        with pytest.raises(InputError, match=r"^scenarios\.cfg: the path is empty$"):
            load_suite("")

    def test_overlarge_exponent_names_the_row(self):
        with pytest.raises(InputError, match="^row 2: decimal exponent beyond"):
            parse_suite("scenario big\nscale mary_magdalene 1e999999999\n")

    @pytest.mark.parametrize("row, message", [
        ("scale mary_magdalene 1/0", "zero denominator"),
        ("reference abc", "'abc'"),
        ("set bonus_divisor abc", "bonus_divisor: .*'abc'"),
        ("set bogus 1", "unknown rule parameter 'bogus'"),
        ("set count_unknown_sons maybe", "count_unknown_sons: .*'maybe'"),
        ("set unknown_son_factor 1/2", "unknown_son_factor must be >= 1"),
        ("add joanna female Joanna generic weigth=1/2", "'weigth'"),
        ("add joanna female Joanna generic label", "'label'")])
    def test_bad_row_is_named(self, row, message):
        with pytest.raises(InputError, match=f"row 3: .*{message}"):
            parse_suite(f"scenario bad\nremove salome_sister\n{row}\n")

    def test_record_before_the_first_scenario_is_rejected(self):
        with pytest.raises(InputError, match="^row 1: 'remove' record before the first scenario$"):
            parse_suite("remove salome_sister\nscenario late\n")

    def test_a_scenario_name_given_twice_is_rejected(self):
        with pytest.raises(InputError, match="^row 3: scenario: a: given twice$"):
            parse_suite("scenario a\nset bonus_divisor 1\nscenario a\nset bonus_divisor 2\n")

    @pytest.mark.parametrize("row", ["scenario s{}\n", "remove x{}\n"],
                             ids=["scenarios", "deltas"])
    def test_a_suite_is_read_in_linear_time(self, row):
        # 16 times the rows take about 16 times as long. A read that rescanned
        # the scenarios, or copied the deltas, on each row took 160-250 times
        def seconds(n):
            text = "scenario a\n" + "".join(row.format(i) for i in range(n))
            return min(timeit.repeat(lambda: parse_suite(text), number=1, repeat=3))
        assert seconds(16000) < 48 * seconds(1000)

    def test_add_takes_the_options_of_a_candidate(self, onom, rules):
        fields = "joanna female Joanna generic label=J weight=1/2 rr=1/3 scale=2"
        (scenario,) = parse_suite(f"scenario opts\nadd {fields}\n")
        candidate = parse_candidate(fields.split())
        assert scenario.deltas == (("add", "joanna", candidate),)
        assert (candidate.label, candidate.weight, candidate.rr, candidate.scale) \
            == ("J", Fraction(1, 2), Fraction(1, 3), Fraction(2))
        with_options, plain = run_suite(onom, DESCRIPTORS, rules, TOMB, parse_suite(
            "scenario a\nadd joanna female Joanna generic weight=1/2 rr=1/3\n"
            "scenario b\nadd joanna female Joanna generic\n"), N2)
        assert f"{float(plain.adjusted_area):.12g}" == FROZEN["add-joanna"][0]
        assert with_options.error is None
        assert with_options.adjusted_area != plain.adjusted_area

    def test_printed_precision_matching(self):
        assert matches_at_printed_precision(Fraction(604, 10 ** 6), "0.000604")
        assert not matches_at_printed_precision(Fraction(61, 10 ** 5), "0.000604")

    def test_printed_precision_matching_beyond_the_float_range(self):
        assert matches_at_printed_precision(Fraction(6041, 10 ** 404), "6.04e-401")
        assert not matches_at_printed_precision(Fraction(6041, 10 ** 404), "0")
        assert matches_at_printed_precision(Fraction(5491 * 10 ** 390), "5.491e393")
