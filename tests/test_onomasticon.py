"""Onomasticon data model, bundled fixture, and the rendition estimator."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import namecluster as nc
from namecluster import onomasticon
from namecluster.onomasticon import (GenericNameCount, InputError, Onomasticon,
                                     RenditionSlice, format_decimal,
                                     parse_flag, parse_fraction,
                                     parse_onomasticon)


class TestBundledFixture:
    def test_gender_totals(self, onom):
        assert onom.female_total == 317
        assert onom.male_total == 2509

    def test_generic_counts(self, onom):
        expected = {"Mariam": 74, "Salome": 61, "Joseph": 221, "Yeshua": 101,
                    "Yaakov": 43, "Joanna": 12, "Martha": 21, "Cleopas": 7}
        for name, count in expected.items():
            assert onom.generic(name).total_persons == count

    def test_uncertain_entry_stored_at_lower_value(self, onom):
        yeshua = onom.generic("Yeshua")
        assert yeshua.rahmani == 10
        assert yeshua.rahmani_uncertain

    def test_undetermined_ossuary_is_not_zero(self, onom):
        assert onom.generic("Cleopas").ossuary_persons is None

    def test_slices(self, onom):
        mm = onom.slice("Mariam", "MM")
        assert (mm.ossuary_matching, mm.ossuary_generic) == (1, 44)
        marya = onom.slice("Mariam", "Marya")
        assert (marya.ossuary_matching, marya.ossuary_generic) == (13, 44)
        yoseh = onom.slice("Joseph", "Yoseh")
        assert (yoseh.ossuary_matching, yoseh.ossuary_generic) == (7, 46)


class TestSliceFrequency:
    def test_yoseh(self, onom):
        f = nc.slice_frequency(onom.slice("Joseph", "Yoseh"), onom)
        assert f == Fraction(7, 46) * 221 / 2509
        assert round(float(f * 2509), 2) == 33.63

    def test_marya(self, onom):
        f = nc.slice_frequency(onom.slice("Mariam", "Marya"), onom)
        assert f == Fraction(13, 44) * 74 / 317
        assert round(float(f * 317), 2) == 21.86

    def test_mm(self, onom):
        f = nc.slice_frequency(onom.slice("Mariam", "MM"), onom)
        assert f == Fraction(1, 44) * 74 / 317
        assert round(float(f * 317), 2) == 1.68

    def test_full_class_is_generic_frequency(self, onom):
        full = RenditionSlice("Salome", "all", Fraction(41), Fraction(41))
        assert nc.slice_frequency(full, onom) == Fraction(61, 317)

    def test_zero_ossuary_bearers_rejected(self, onom):
        degenerate = RenditionSlice("Salome", "none", Fraction(0), Fraction(0))
        with pytest.raises(InputError,
                           match=r"^slice Salome/none: no ossuary bearers \(K = 0\)$"):
            nc.slice_frequency(degenerate, onom)

    @given(st.integers(min_value=1, max_value=400))
    def test_homogeneous_in_generic_total(self, scale):
        base = GenericNameCount("X", "male", Fraction(10), Fraction(5))
        scaled = GenericNameCount("X", "male", Fraction(10 * scale), Fraction(5))
        slc = RenditionSlice("X", "x", Fraction(2), Fraction(5))
        onom_base = Onomasticon(317, 2509, (base,), (slc,))
        onom_scaled = Onomasticon(317, 2509, (scaled,), (slc,))
        assert (nc.slice_frequency(slc, onom_scaled)
                == scale * nc.slice_frequency(slc, onom_base))


class TestParsing:
    def test_empty_source_rejected(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        with pytest.raises(InputError, match=r"empty\.tsv: missing 'total' record"):
            nc.load_onomasticon(empty)

    def test_malformed_row_names_the_row(self):
        text = "total female 317\ntotal male 2509\ngeneric Broken female\n"
        with pytest.raises(InputError, match="^row 3: not enough values"):
            parse_onomasticon(text)

    def test_zero_denominator_names_the_row(self):
        with pytest.raises(InputError, match="row 2: total_persons: zero denominator"):
            parse_onomasticon("total female 10\ngeneric X female 1/0\n")

    def test_unknown_generic_option_names_the_row(self):
        # fictitious bearers enter no estimate, so the table takes no such option
        for word, named in (("fictitous=1", "unknown option 'fictitous'"),
                            ("fictitious=1", "unknown option 'fictitious'"),
                            ("rahmani", "'rahmani'")):
            with pytest.raises(InputError, match=f"row 1: .*{named}"):
                parse_onomasticon(f"generic X female 5 4 {word}\n")

    def test_one_name_is_one_generic_whatever_its_gender(self, onom):
        with pytest.raises(InputError,
                           match="^generic: Yeshua: duplicate name$"):
            onom._replace(generics=(
                GenericNameCount("Yeshua", "female", Fraction(3)),
                GenericNameCount("Yeshua", "male", Fraction(1))), slices=())

    def test_unknown_record_kind(self):
        with pytest.raises(InputError, match="^row 1: unknown record kind 'frobnicate'$"):
            parse_onomasticon("frobnicate x y z\n")

    def test_violated_invariant_names_the_field(self):
        text = ("total female 317\ntotal male 2509\n"
                "generic Odd female 5 9\n")
        with pytest.raises(InputError, match="^row 3: ossuary_persons: Odd: exceeds total_persons$"):
            parse_onomasticon(text)

    def test_slice_exceeding_generic_rejected(self):
        with pytest.raises(InputError, match="^ossuary_matching: X/x: must satisfy"):
            RenditionSlice("X", "x", Fraction(6), Fraction(5))

    def test_fraction_syntax(self):
        assert parse_fraction("33/46") == Fraction(33, 46)
        assert parse_fraction("0.25") == Fraction(1, 4)

    def test_decimal_exponent_is_bounded(self):
        assert parse_fraction("1e-4300") == Fraction(1, 10 ** 4300)
        assert parse_fraction("2.5E+4_300") == Fraction(25 * 10 ** 4299)
        for text in ("1e-4301", "1e4301", "1E+999999999", "1e-999_999_999"):
            with pytest.raises(ValueError, match="exponent"):
                parse_fraction(text)

    def test_overlarge_exponent_in_a_row_names_the_row(self):
        text = ("total female 10\ntotal male 10\n"
                "generic Broken female 1e-999999999\n")
        with pytest.raises(InputError,
                           match="^row 3: total_persons: decimal exponent beyond"):
            parse_onomasticon(text)

    def test_flag_syntax(self):
        for on, off in (("on", "off"), ("TRUE", "False"), ("1", "0"),
                        (" Yes ", "no")):
            assert (parse_flag(on), parse_flag(off)) == (True, False)
        for text in ("maybe", "", "2", "enabled"):
            with pytest.raises(ValueError, match="on/off"):
                parse_flag(text)

    def test_decimals_beyond_the_float_range_are_exact(self):
        cases = [(Fraction(10 ** 400), 4, "1e+400"),
                 (Fraction(11, 10 ** 398), 4, "1.1e-397"),
                 (Fraction(-123456, 10 ** 405), 4, "-1.235e-400"),
                 (Fraction(12345, 10 ** 404), 4, "1.234e-400"),   # half to even
                 (Fraction(99995, 10 ** 404), 4, "1e-399"),       # carries
                 (Fraction(1, 10 ** 320), 4, "1e-320"),           # subnormal
                 (Fraction(10 ** 400), 0, "1e+400"),
                 (Fraction(0), 4, "0")]
        for value, sig, text in cases:
            assert format_decimal(value, sig) == text

    @given(num=st.integers(-10 ** 30, 10 ** 30),
           den=st.integers(1, 10 ** 30), sig=st.sampled_from((1, 4, 6, 10)))
    def test_decimals_in_the_float_range_are_printed_as_floats(self, num, den, sig):
        value = Fraction(num, den)
        assert format_decimal(value, sig) == f"{float(value):.{sig}g}"

    def test_slice_of_unknown_generic_rejected(self):
        text = ("total female 317\ntotal male 2509\n"
                "slice Ghost g 1 2\n")
        with pytest.raises(InputError, match="^row 3: slice generic: Ghost: unknown$"):
            parse_onomasticon(text)

    def test_slice_above_its_generic_names_its_row(self):
        text = ("total female 317\ntotal male 2509\n"
                "slice Tiny a 1 8\ngeneric Tiny female 8 8\n")
        with pytest.raises(InputError, match="row 3: slice generic: Tiny: unknown"):
            parse_onomasticon(text)

    def test_slices_overfilling_their_generic_rejected(self):
        text = ("total female 317\ntotal male 2509\n"
                "generic Tiny female 8 8\n"
                "slice Tiny a 7 8\nslice Tiny b 6 8\n")
        with pytest.raises(InputError,
                           match="^row 5: slices of Tiny: implied counts exceed"):
            parse_onomasticon(text)

    def test_each_row_is_checked_as_read_and_once_in_the_table(self, monkeypatch):
        # not again after every later row, so a table loads in linear time
        checked = []
        check_rows = onomasticon.check_rows
        monkeypatch.setattr(onomasticon, "check_rows", lambda generics, slices, *state:
                            checked.extend([*generics, *slices])
                            or check_rows(generics, slices, *state))
        onom = nc.load_onomasticon()
        assert Counter(checked) == Counter([*onom.generics, *onom.slices] * 2)
