import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdckit import cli, jsa, photon_stats, units
from pdckit.errors import ConfigError
from pdckit.scenario import Scenario
from photon_distributions import face_input


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


SOURCE_CFG = """
center_wavelength = 796 nm
pump_fwhm = 2.5 nm
pm_fwhm = 0.5 nm
tilt = 54.7 deg
length = 2.1 mm
"""

# hom-scan's refusal of a reference too strong for the leading-order dip
BETA_SQ_RANGE = (
    "key 'beta_sq': must be below 0.2, where the leading-order dip model holds\n"
)

# the paper's loss-inverted heralded statistics
HEADLINE_INVERT = "observed = 0.94920, 0.05065, 0.00015\nefficiency = 0.048\n"

# a reference so broad in time that r = 1/w_r^2 = 4.8e158: the product
# (A - B + r)(m11 + r) overflows a float, r (A - B) and the overlap of
# about 4e-92 do not
TINY_OVERLAP_CFG = SOURCE_CFG + (
    "signal_filter_fwhm = 1 nm\ntrigger_filter_fwhm = 1 nm\n"
    "reference_fwhm = 1.8e-92 nm\n"
    "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntau_steps = 3\n"
)
TINY_REFERENCE_WIDTH = units.wavelength_fwhm_to_width(1.8e-101, 796e-9)


def _log_space_overlap(source, reference_width):
    """FilteredSource.tmax's closed form, evaluated in logarithms."""
    r = 1.0 / reference_width**2
    marginal = source.determinant / source.m22
    log_overlap = 0.5 * (
        math.log(r) + math.log(marginal)
        - math.log(marginal + r) - math.log(source.m11 + r)
    )
    return 2.0 * math.exp(log_overlap)


class TestEllipseCommand:
    def test_reconstructed_source(self, tmp_path, capsys):
        config = _write(tmp_path, "s.cfg", SOURCE_CFG)
        code, out, err = _run(capsys, "ellipse", "--config", str(config))
        assert (code, err) == (0, "")  # no summary repeats the table's cells
        (row,) = _rows(out)
        # measured tilt 54.7 +- 1.5 deg brackets the model value
        assert 53.2 <= float(row["tilt_deg"]) <= 56.2
        assert float(row["m12_s2"]) > 0.0
        assert 20.0 <= float(row["aspect_ratio"]) <= 25.0

    def test_byte_identical_reruns(self, tmp_path, capsys):
        config = _write(tmp_path, "s.cfg", SOURCE_CFG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["ellipse", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli.main(["ellipse", "--config", str(config), "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_kappa_parameterization(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "k.cfg",
            """
            pump_fwhm = 2.5 nm
            length = 2.1 mm
            kappa_s = 1.4e-9 s/m
            kappa_i = 0.99e-9 s/m
            """,
        )
        code, out, _ = _run(capsys, "ellipse", "--config", str(config))
        assert code == 0
        (row,) = _rows(out)
        assert 50.0 <= float(row["tilt_deg"]) <= 60.0

    def test_overflowing_form_is_out_of_range(self, tmp_path, capsys):
        # m22 and det M overflow to inf; the open filters must add no
        # 0 * inf, which would turn the error into a semi-definiteness one
        config = _write(
            tmp_path,
            "o.cfg",
            "pump_fwhm = 2.5 nm\nlength = 1e150 m\n"
            "kappa_s = 1 s/m\nkappa_i = 1e10 s/m\n",
        )
        code, out, err = _run(capsys, "ellipse", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "error: ellipse: a value is out of range\n"


class TestFilterCommand:
    def test_residual_aspect_shrinks(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "f.cfg",
            SOURCE_CFG + "filter_s_fwhm = 1 nm\nfilter_i_fwhm = 1 nm\n",
        )
        code, out, err = _run(capsys, "filter", "--config", str(config))
        assert (code, err) == (0, "")  # no summary repeats the table's cells
        rows = _rows(out)
        stages = {row["stage"]: row for row in rows}
        assert float(stages["filtered"]["aspect_ratio"]) < 2.5
        assert float(stages["filtered"]["aspect_ratio"]) < float(
            stages["unfiltered"]["aspect_ratio"]
        )


class TestPmVsLength:
    def test_inverse_length_scaling(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "p.cfg",
            """
            length = 2.1 mm
            kappa_s = 1.4e-9 s/m
            kappa_i = 0.99e-9 s/m
            length_min = 1 mm
            length_max = 2 mm
            length_steps = 2
            """,
        )
        code, out, _ = _run(capsys, "pm-vs-length", "--config", str(config))
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 2
        # the CSV carries nine significant digits
        assert float(rows[0]["pm_fwhm_nm"]) == pytest.approx(
            2.0 * float(rows[1]["pm_fwhm_nm"]), rel=1e-7
        )

    def test_hand_evaluation_at_the_center_wavelength(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "p.cfg",
            """
            center_wavelength = 1550 nm
            length = 2.1 mm
            kappa_s = 1.1e-9 s/m
            kappa_i = 0.4e-9 s/m
            length_min = 2.5 mm
            length_max = 5 mm
            length_steps = 2
            """,
        )
        code, out, _ = _run(capsys, "pm-vs-length", "--config", str(config))
        assert code == 0
        row = _rows(out)[0]
        width = 2.0 / (
            2.5e-3 * math.sqrt(jsa.GAMMA * (1.1e-9**2 + 0.4e-9**2))
        )
        lam = 1550e-9
        fwhm = lam**2 / (2 * math.pi * 299_792_458.0) * width * math.sqrt(
            2 * math.log(2)
        )
        assert float(row["length_mm"]) == pytest.approx(2.5, rel=1e-9)
        assert float(row["pm_fwhm_nm"]) == pytest.approx(fwhm * 1e9, rel=1e-8)

    def test_unbounded_width_prints_inf(self, tmp_path, capsys):
        # both squared mismatches underflow, so every width is unbounded
        config = _write(
            tmp_path,
            "p.cfg",
            "length = 2.1 mm\nkappa_s = 1e-170 s/m\nkappa_i = 1e-170 s/m\n"
            "length_min = 1 mm\nlength_max = 2 mm\nlength_steps = 2\n",
        )
        code, out, _ = _run(capsys, "pm-vs-length", "--config", str(config))
        assert (code, out) == (0, "length_mm,pm_fwhm_nm\n1,inf\n2,inf\n")

    def test_rejects_nonpositive_length(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "p.cfg",
            "length = 2.1 mm\nkappa_s = 1.4e-9 s/m\nkappa_i = 0.99e-9 s/m\n"
            "length_min = -1 mm\nlength_max = 2 mm\nlength_steps = 4\n",
        )
        code, out, err = _run(capsys, "pm-vs-length", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "error: key 'length_min': must be positive\n"


class TestTwinHomCommand:
    def test_aspect_sweep(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "t.cfg",
            "tilt = 54.7 deg\naspect_list = 1.7, 4.2, 95\n",
        )
        code, out, _ = _run(capsys, "twin-hom", "--config", str(config))
        assert code == 0
        rows = _rows(out)
        visibilities = [float(row["visibility"]) for row in rows]
        assert visibilities[0] == pytest.approx(0.821, abs=0.005)
        assert visibilities[2] == pytest.approx(0.336, abs=0.005)
        assert visibilities[0] > visibilities[1] > visibilities[2]


class TestHeraldStats:
    def test_mode_reduction_summary(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "h.cfg",
            """
            modes_unfiltered = 31
            modes_filtered = 1
            gain_sq_list = 0.01, 0.02, 0.03, 0.04, 0.05
            """,
        )
        code, out, err = _run(capsys, "herald-stats", "--config", str(config))
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 5
        # the rows come from the mode counts given, so no fit to them is
        # printed: it would only return those counts
        assert err == ""
        first = rows[0]
        assert float(first["mean_unfiltered"]) > float(first["mean_filtered"])

    def test_builds_no_distribution(self, tmp_path, capsys):
        # the distributions are a test oracle, which the package lacks
        for name in ("multimode_dist", "heralded_dist"):
            assert not hasattr(cli.photon_stats, name)
        config = _write(
            tmp_path,
            "h.cfg",
            "gain_sq_list = 0.01, 0.02, 0.03\ntrigger_efficiency = 0.2\n",
        )
        code, out, _ = _run(capsys, "herald-stats", "--config", str(config))
        assert code == 0
        assert len(_rows(out)) == 3

    def test_exact_mean_without_a_cutoff(self, tmp_path, capsys):
        # 31 modes at g = 0.1 put 3.8e-6 of their mass at n = 16, which a
        # distribution cut at nmax = 16 had to refuse; nmax is not read
        config = _write(tmp_path, "h.cfg", "gain_sq_list = 0.1\nnmax = 16\n")
        code, out, err = _run(
            capsys, "herald-stats", "--config", str(config), "--verbose"
        )
        assert code == 0
        (row,) = _rows(out)
        mu = 0.1 / 0.9
        assert row["mean_unfiltered"] == "%.9g" % (1.0 + 32 * mu)
        assert row["mean_filtered"] == "%.9g" % (1.0 + 2 * mu)
        assert err == "ignored keys: nmax\n"

    @pytest.mark.parametrize(
        "gains",
        [
            "0.01, 0.01",
            # each mean rounds to 1
            "1e-20, 2e-20",
        ],
        ids=["coinciding-gains", "flat-means"],
    )
    def test_degenerate_fit_keeps_the_table(self, tmp_path, capsys, gains):
        config = _write(tmp_path, "h.cfg", f"gain_sq_list = {gains}\n")
        code, out, err = _run(capsys, "herald-stats", "--config", str(config))
        assert code == 0
        assert len(_rows(out)) == 2
        assert err == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "gain_sq_list = 1, 0.02\ntrigger_efficiency = 2\n",
                "key 'trigger_efficiency': must lie in [0, 1]",
            ),
            (
                "gain_sq_list = 0.02, 1\n",
                "key 'gain_sq_list': must lie in [0, 1)",
            ),
            (
                "gain_sq_list = 0, 0.02\n",
                "herald-stats: click probability vanishes: "
                "the joint distribution is vacuum",
            ),
        ],
        ids=["efficiency", "gain", "vacuum"],
    )
    def test_refusals(self, tmp_path, capsys, text, message):
        config = _write(tmp_path, "h.cfg", text)
        code, out, err = _run(capsys, "herald-stats", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


class TestVisibilityAndFit:
    def test_round_trip_through_csv(self, tmp_path, capsys):
        curve_cfg = _write(
            tmp_path,
            "v.cfg",
            """
            p0 = 0.94920
            p1 = 0.05065
            p2 = 0.00015
            overlap = 0.65
            beta_sq_min = 0.002
            beta_sq_max = 0.2
            beta_sq_steps = 25
            """,
        )
        curve_csv = tmp_path / "curve.csv"
        code = cli.main(
            ["visibility-curve", "--config", str(curve_cfg), "--out", str(curve_csv)]
        )
        capsys.readouterr()
        assert code == 0

        fit_cfg = _write(
            tmp_path,
            "fit.cfg",
            "p0 = 0.94920\np1 = 0.05065\np2 = 0.00015\n",
        )
        code, out, _ = _run(
            capsys,
            "fit-overlap",
            "--config",
            str(fit_cfg),
            "--data",
            str(curve_csv),
        )
        assert code == 0
        (row,) = _rows(out)
        assert float(row["overlap"]) == pytest.approx(0.65, abs=1e-9)
        assert float(row["stderr"]) == pytest.approx(0.0, abs=1e-9)

    def test_overflowing_sum_of_squares_gives_infinite_stderr(
        self, tmp_path, capsys
    ):
        # each squared residual is finite, near 1e308; their sum is not
        data = _write(
            tmp_path,
            "big.csv",
            "beta_sq,visibility\n0.01,1e154\n0.02,-1e154\n0.05,1e154\n"
            "0.1,-1e154\n",
        )
        config = _write(
            tmp_path, "fit.cfg", "p0 = 0.94920\np1 = 0.05065\np2 = 0.00015\n"
        )
        code, out, _ = _run(
            capsys, "fit-overlap", "--config", str(config), "--data", str(data)
        )
        assert code == 0
        assert out == "overlap,stderr,n_points\n6.61526956e+152,inf,4\n"

    @pytest.mark.parametrize(
        "lines, column, cell",
        [
            # an inf among cells whose squares would overflow the fit
            (
                ["0.2,0.5", "inf,2.2250738585072014e-308", "0.5,1e-3", "1,1",
                 "1.7976931348623157e308,1e300"],
                "beta_sq",
                "inf",
            ),
            (["0.01,0.3", "nan,0.4", "0.05,0.5"], "beta_sq", "nan"),
            (["0.01,0.3", "0.02,-inf", "0.05,0.5"], "visibility", "-inf"),
        ],
        ids=["overflowing-fit", "nan-beta", "infinite-visibility"],
    )
    def test_non_finite_cell_is_refused(
        self, tmp_path, capsys, lines, column, cell
    ):
        data = _write(
            tmp_path,
            "d.csv",
            "beta_sq,visibility\n" + "".join(line + "\n" for line in lines),
        )
        config = _write(tmp_path, "fit.cfg", "p0 = 0.5\np1 = 0.5\np2 = 0\n")
        code, out, err = _run(
            capsys, "fit-overlap", "--config", str(config), "--data", str(data)
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: data file {data}: column {column!r}: "
            f"not a finite number: {cell}\n"
        )

    def test_residual_too_large_to_square(self, tmp_path, capsys):
        # finite cells whose squared residual overflows: the error reads inf
        data = _write(
            tmp_path,
            "d.csv",
            "beta_sq,visibility\n0.2,0.5\n0.5,1e-3\n1,1\n"
            "1.7976931348623157e308,1e300\n",
        )
        config = _write(tmp_path, "fit.cfg", "p0 = 0.5\np1 = 0.5\np2 = 0\n")
        code, out, err = _run(
            capsys, "fit-overlap", "--config", str(config), "--data", str(data)
        )
        assert (code, err) == (0, "")
        (row,) = _rows(out)
        assert math.isfinite(float(row["overlap"]))
        assert row["stderr"] == "inf"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("beta,visibility\n0.1,0.2\n", "lacks column 'beta_sq'"),
            ("beta_sq,visibility\n", "contains no rows"),
            (
                "beta_sq,visibility\n0.01,0.3\n0.02\n0.05,0.5\n",
                "non-numeric entry in",
            ),
            (
                "beta_sq,visibility\n0.01,0.3\n0.02,x\n0.05,0.5\n",
                "non-numeric entry in",
            ),
        ],
        ids=["missing-column", "no-rows", "short-row", "word"],
    )
    def test_malformed_data_file_is_refused(
        self, tmp_path, capsys, text, message
    ):
        data = _write(tmp_path, "d.csv", text)
        config = _write(tmp_path, "fit.cfg", "p0 = 0.5\np1 = 0.5\np2 = 0\n")
        code, out, err = _run(
            capsys, "fit-overlap", "--config", str(config), "--data", str(data)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "contents, message",
        [
            (None, "cannot read data file {}: "),
            (b"beta_sq,visibility\n0.01,\xff\n", "non-numeric entry in {}: "),
        ],
        ids=["missing", "undecodable"],
    )
    def test_unusable_data_file_is_refused(
        self, tmp_path, capsys, contents, message
    ):
        data = tmp_path / "d.csv"
        if contents is not None:
            data.write_bytes(contents)
        config = _write(tmp_path, "fit.cfg", "p0 = 0.5\np1 = 0.5\np2 = 0\n")
        code, out, err = _run(
            capsys, "fit-overlap", "--config", str(config), "--data", str(data)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message.format(data))
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["0.01,0.4", "0.02,0.5"], "need at least three rows"),
            (
                ["0.01,0.4", "0,0.5", "0.05,0.45"],
                "column 'beta_sq': must be positive",
            ),
            (
                ["0.01,0.4", "0.01,0.5", "0.01,0.45"],
                "column 'beta_sq': need two distinct values",
            ),
        ],
        ids=["two-rows", "zero-beta", "one-beta"],
    )
    def test_unfittable_data_names_the_file(
        self, tmp_path, capsys, lines, message
    ):
        data = _write(
            tmp_path,
            "d.csv",
            "beta_sq,visibility\n" + "".join(line + "\n" for line in lines),
        )
        config = _write(tmp_path, "fit.cfg", "p0 = 0.5\np1 = 0.5\np2 = 0\n")
        code, out, err = _run(
            capsys, "fit-overlap", "--config", str(config), "--data", str(data)
        )
        assert (code, out) == (1, "")
        assert err == f"error: data file {data}: {message}\n"

    def test_state_without_one_photon_names_p1(self, tmp_path, capsys):
        data = _write(
            tmp_path,
            "d.csv",
            "beta_sq,visibility\n0.01,0.4\n0.02,0.5\n0.1,0.4\n",
        )
        config = _write(tmp_path, "fit.cfg", "p0 = 0.9\np1 = 0\np2 = 0.1\n")
        code, out, err = _run(
            capsys, "fit-overlap", "--config", str(config), "--data", str(data)
        )
        assert (code, out) == (1, "")
        assert err == "error: key 'p1': must be positive to fit an overlap\n"

    def test_data_key_is_not_read(self, tmp_path, capsys):
        data = _write(tmp_path, "d.csv", "beta_sq,visibility\n0.1,0.5\n")
        config = _write(
            tmp_path, "fit.cfg", f"p0 = 0.5\np1 = 0.5\np2 = 0\ndata = {data}\n"
        )
        code, out, err = _run(capsys, "fit-overlap", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "error: missing required option '--data'\n"

    def test_optimum_summary(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "v.cfg",
            """
            p0 = 0.997896
            p1 = 0.002101
            p2 = 0.000003
            beta_sq_min = 0.0005
            beta_sq_max = 0.02
            beta_sq_steps = 9
            """,
        )
        code, _, err = _run(capsys, "visibility-curve", "--config", str(config))
        assert code == 0
        assert "visibility_max = 0.46" in err

    @pytest.mark.parametrize(
        "overlap, code",
        [("0", 0), ("1", 0), ("5", 1), ("-0.1", 1), ("1.0000001", 1)],
    )
    def test_overlap_must_lie_in_unit_interval(
        self, tmp_path, capsys, overlap, code
    ):
        config = _write(
            tmp_path,
            "v.cfg",
            "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq_list = 0.01, 0.1\n"
            f"overlap = {overlap}\n",
        )
        got, out, err = _run(capsys, "visibility-curve", "--config", str(config))
        assert got == code
        if code:
            assert out == ""
            assert err == "error: key 'overlap': must lie in [0, 1]\n"
        else:
            visibility = [float(row["visibility"]) for row in _rows(out)]
            assert all(0.0 <= v <= 1.0 for v in visibility)


class TestHomScanCommand:
    def test_matched_single_photon_dip_reaches_zero(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "scan.cfg",
            """
            p0 = 0
            p1 = 1
            p2 = 0
            beta_sq = 0.05
            tmax = 1.0
            dip_sigma = 1 ps
            tau_steps = 41
            """,
        )
        code, out, err = _run(capsys, "hom-scan", "--config", str(config))
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 41
        by_tau = {float(row["tau_ps"]): float(row["coincidence"]) for row in rows}
        assert by_tau[0.0] == 0.0
        assert "visibility = 1" in err

    def test_spectral_mode(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "scan.cfg",
            SOURCE_CFG
            + """
            p0 = 0.94920
            p1 = 0.05065
            p2 = 0.00015
            beta_sq = 0.02
            signal_filter_fwhm = 1 nm
            trigger_filter_fwhm = 1 nm
            reference_fwhm = 1 nm
            tau_steps = 21
            """,
        )
        code, out, err = _run(
            capsys, "hom-scan", "--config", str(config), "--grid-points", "8"
        )
        assert code == 0
        rows = _rows(out)
        assert len(rows) == 21
        coincidences = [float(row["coincidence"]) for row in rows]
        middle = len(coincidences) // 2
        assert coincidences[middle] == min(coincidences)

    def test_open_idler_without_trigger_filter(
        self, tmp_path, capsys, source_params, one_nm_width
    ):
        config = _write(
            tmp_path,
            "scan.cfg",
            SOURCE_CFG
            + "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\n"
            "signal_filter_fwhm = 1 nm\nreference_fwhm = 2 nm\ntau_steps = 5\n",
        )
        code, out, _ = _run(capsys, "hom-scan", "--config", str(config))
        assert code == 0
        centre = _rows(out)[2]
        assert centre["tau_ps"] == "0"
        source = jsa.filtered_source(source_params, one_nm_width)
        assert centre["overlap"] == "%.9g" % source.tmax(2 * one_nm_width)

    def test_tiny_overlap_is_printed(
        self, tmp_path, capsys, source_params, one_nm_width
    ):
        config = _write(tmp_path, "scan.cfg", TINY_OVERLAP_CFG)
        code, out, _ = _run(capsys, "hom-scan", "--config", str(config))
        assert code == 0
        source = jsa.filtered_source(source_params, one_nm_width, one_nm_width)
        expected = _log_space_overlap(source, TINY_REFERENCE_WIDTH)
        centre = _rows(out)[1]
        assert math.isclose(float(centre["overlap"]), expected, rel_tol=1e-8)

    def test_analytic_mode_ignores_reference_keys(self, tmp_path, capsys):
        text = (
            "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
            "dip_sigma = 1 ps\n"
        )
        plain = _write(tmp_path, "plain.cfg", text)
        extra = _write(
            tmp_path,
            "extra.cfg",
            text + "reference_fwhm = -1 nm\ncenter_wavelength = 0 nm\n",
        )
        code, out, err = _run(capsys, "hom-scan", "--config", str(plain))
        assert code == 0
        code, out_extra, err_extra = _run(
            capsys, "hom-scan", "--config", str(extra), "--verbose"
        )
        assert code == 0 and out_extra == out
        assert err_extra == err + (
            "ignored keys: center_wavelength, reference_fwhm\n"
        )

    def test_overlap_rounded_above_one_is_refused(self, tmp_path, capsys):
        # m12 of this source nearly vanishes and 1/w_r^2 is close to
        # A - B, where the closed form of tmax rounds to 1 + 2^-52; a
        # signal filter of 1e50 nm is open in effect
        config = _write(
            tmp_path,
            "scan.cfg",
            """
            pump_fwhm = 1511.4053928233595 nm
            length = 3.0664430334503177 mm
            kappa_s = 5.710552012454069e-13 s/m
            kappa_i = -2.6503268653783634e-13 s/m
            signal_filter_fwhm = 1e50 nm
            reference_fwhm = 850.9513290974699 nm
            p0 = 0.9
            p1 = 0.09
            p2 = 0.01
            beta_sq = 0.1
            """,
        )
        assert _run(capsys, "hom-scan", "--config", str(config)) == (
            1,
            "",
            "error: hom-scan: overlap_max must lie in [0, 1]\n",
        )

    def test_dip_wider_than_a_squared_double(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "scan.cfg",
            """
            p0 = 0.9
            p1 = 0.09
            p2 = 0.01
            beta_sq = 0.05
            tmax = 0.5
            dip_sigma = 1.3407807929942597e+166 ps
            tau_steps = 5
            """,
        )
        code, out, err = _run(capsys, "hom-scan", "--config", str(config))
        assert code == 0
        overlaps = [float(row["overlap"]) for row in _rows(out)]
        assert overlaps[2] == 0.5
        assert overlaps[0] == overlaps[4] == pytest.approx(0.5 * 2.718281828**-8)


class TestDipWidthCommand:
    def test_guide_scale(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "d.cfg",
            """
            pump_fwhm = 2.5 nm
            reference_fwhm = 1 nm
            signal_filter_fwhm = 1 nm
            pm_fwhm = 0.5 nm
            tilt = 54.7 deg
            length = 2.1 mm
            """,
        )
        code, out, _ = _run(capsys, "dip-width", "--config", str(config))
        assert code == 0
        (row,) = _rows(out)
        assert float(row["dip_fwhm_ps"]) == pytest.approx(2.0, abs=0.3)

    def test_requires_length(self, tmp_path, capsys):
        # the source is read as every source command reads it
        config = _write(
            tmp_path,
            "d.cfg",
            SOURCE_CFG.replace("length = 2.1 mm\n", "")
            + "reference_fwhm = 1 nm\nsignal_filter_fwhm = 1 nm\n",
        )
        code, out, err = _run(capsys, "dip-width", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "error: missing required key 'length'\n"


class TestTmaxCommand:
    def test_heralded_exceeds_two_fold(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "t.cfg",
            SOURCE_CFG
            + """
            signal_filter_fwhm = 1 nm
            trigger_filter_fwhm = 1 nm
            reference_fwhm = 1 nm
            """,
        )
        code, out, _ = _run(
            capsys, "tmax", "--config", str(config), "--grid-points", "8"
        )
        assert code == 0
        rows = {row["case"]: row for row in _rows(out)}
        assert float(rows["three-fold"]["tmax"]) > float(
            rows["two-fold"]["tmax"]
        )
        assert float(rows["three-fold"]["purity"]) > float(
            rows["two-fold"]["purity"]
        )

    def test_tiny_overlap_is_printed(
        self, tmp_path, capsys, source_params, one_nm_width
    ):
        config = _write(tmp_path, "t.cfg", TINY_OVERLAP_CFG)
        code, out, _ = _run(capsys, "tmax", "--config", str(config))
        assert code == 0
        rows = {row["case"]: float(row["tmax"]) for row in _rows(out)}
        for case, trigger in (("two-fold", math.inf), ("three-fold", 1.0)):
            source = jsa.filtered_source(
                source_params, one_nm_width, trigger * one_nm_width
            )
            expected = _log_space_overlap(source, TINY_REFERENCE_WIDTH)
            assert math.isclose(rows[case], expected, rel_tol=1e-8)

    def test_beta_sq_is_ignored(self, tmp_path, capsys):
        text = SOURCE_CFG + (
            "signal_filter_fwhm = 1 nm\ntrigger_filter_fwhm = 1 nm\n"
            "reference_fwhm = 1 nm\n"
        )
        plain = _write(tmp_path, "plain.cfg", text)
        extra = _write(tmp_path, "extra.cfg", text + "beta_sq = 5\n")
        code, out, err = _run(capsys, "tmax", "--config", str(plain))
        assert code == 0
        code, out_extra, err_extra = _run(
            capsys, "tmax", "--config", str(extra), "--verbose"
        )
        assert code == 0 and out_extra == out
        assert err_extra == err + "ignored keys: beta_sq\n"


SPECTRAL_CFG = SOURCE_CFG + """
p0 = 0.94920
p1 = 0.05065
p2 = 0.00015
beta_sq = 0.02
signal_filter_fwhm = 1 nm
trigger_filter_fwhm = 1 nm
reference_fwhm = 1 nm
filter_s_fwhm = 1 nm
filter_i_fwhm = 1 nm
"""


KAPPA_CFG = SPECTRAL_CFG.replace(
    "pm_fwhm = 0.5 nm\ntilt = 54.7 deg\n",
    "kappa_s = 1.4e-9 s/m\nkappa_i = 0.99e-9 s/m\n",
)


@pytest.mark.parametrize(
    "command", ["ellipse", "filter", "tmax", "hom-scan", "dip-width"]
)
def test_source_commands_read_kappas(tmp_path, capsys, command):
    assert "pm_fwhm" not in KAPPA_CFG and "tilt" not in KAPPA_CFG
    config = _write(tmp_path, "k.cfg", KAPPA_CFG)
    code, out, err = _run(capsys, command, "--config", str(config))
    assert code == 0, err
    assert _rows(out)


@pytest.mark.parametrize(
    "command", ["ellipse", "filter", "pm-vs-length", "tmax", "hom-scan"]
)
def test_vanishing_kappas_name_the_key(tmp_path, capsys, command):
    text = KAPPA_CFG.replace("1.4e-9 s/m", "0 s/m").replace("0.99e-9", "0")
    text += "length_min = 1 mm\nlength_max = 5 mm\nlength_steps = 5\n"
    config = _write(tmp_path, "k.cfg", text)
    code, out, err = _run(capsys, command, "--config", str(config))
    assert (code, out) == (1, "")
    assert err == (
        "error: key 'kappa_s': must not vanish together with kappa_i\n"
    )


def _set_keys(text, values):
    """The scenario text with the given keys set to new values."""
    for key, value in values.items():
        text = re.sub(f"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


@pytest.mark.parametrize(
    "command, key",
    [
        ("ellipse", "pump_fwhm"),
        ("ellipse", "pm_fwhm"),
        ("filter", "filter_s_fwhm"),
        ("filter", "filter_i_fwhm"),
        ("tmax", "pump_fwhm"),
        ("tmax", "signal_filter_fwhm"),
        ("tmax", "trigger_filter_fwhm"),
        ("tmax", "reference_fwhm"),
        ("dip-width", "pump_fwhm"),
        ("dip-width", "reference_fwhm"),
        ("hom-scan", "reference_fwhm"),
    ],
)
def test_narrow_width_names_the_key(tmp_path, capsys, command, key):
    # 1e-170 nm is an amplitude width of 2.5e-158 rad/s, whose 1/w^2
    # overflows to inf
    config = _write(
        tmp_path, "n.cfg", _set_keys(SPECTRAL_CFG, {key: "1e-170 nm"})
    )
    code, out, err = _run(capsys, command, "--config", str(config))
    assert (code, out) == (1, "")
    assert err == (
        f"error: key '{key}': too narrow, 1/width^2 overflows a float\n"
    )


@pytest.mark.parametrize(
    "command, keys",
    [
        ("tmax", ("signal_filter_fwhm", "trigger_filter_fwhm")),
        ("tmax", ("signal_filter_fwhm", "reference_fwhm")),
        ("dip-width", ("pump_fwhm", "reference_fwhm")),
        ("hom-scan", ("pump_fwhm", "reference_fwhm")),
    ],
    ids=["filtered-form", "tmax-form", "dip-width-form", "hom-scan-form"],
)
def test_form_overflowing_in_a_sum_is_out_of_range(
    tmp_path, capsys, command, keys
):
    # 3e-167 nm is 1/w^2 = 1.7e308: finite, but a sum of two is not
    text = _set_keys(SPECTRAL_CFG, dict.fromkeys(keys, "3e-167 nm"))
    config = _write(tmp_path, "s.cfg", text)
    code, out, err = _run(capsys, command, "--config", str(config))
    assert (code, out) == (1, "")
    assert err == f"error: {command}: a value is out of range\n"


CONFIGS = sorted(Path(__file__).resolve().parents[1].glob("configs/*.cfg"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_key_is_read_once(capsys, monkeypatch, command, config):
    reads = []
    raw = Scenario._raw

    def counting(self, key, required):
        reads.append(key)
        return raw(self, key, required)

    monkeypatch.setattr(Scenario, "_raw", counting)
    cli.main([command, "--config", str(config)])
    capsys.readouterr()
    assert sorted(reads) == sorted(set(reads))


class TestInvertCommand:
    def test_reproduces_loss_inverted_statistics(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "i.cfg",
            """
            observed = 0.94920, 0.05065, 0.00015
            efficiency = 0.048
            observable = photon
            max_iter = 400000
            tol = 1e-12
            """,
        )
        code, out, err = _run(capsys, "invert", "--config", str(config))
        assert code == 0
        rows = _rows(out)
        probabilities = {int(r["n"]): float(r["probability"]) for r in rows}
        assert 0.925 <= probabilities[1] <= 0.937
        assert 0.060 <= probabilities[2] <= 0.072
        # the direct solve is the optimum, printed without iterating
        assert rows[0]["probability"] == "0.00364583333"
        (summary,) = err.splitlines()
        assert summary.startswith("converged in 0 iterations, log-likelihood ")
        assert ", KKT gap " in summary and ", cond(R) " in summary

    def test_two_outcomes(self, tmp_path, capsys):
        config = _write(
            tmp_path, "i.cfg", "observed = 0.9, 0.1\nefficiency = 0.5\n"
        )
        code, out, err = _run(capsys, "invert", "--config", str(config))
        assert code == 0
        assert out == "n,probability\n0,0.8\n1,0.2\n"
        assert err.startswith("converged in 0 iterations, ")

    def test_data_option_is_not_read(self, tmp_path, capsys):
        data = _write(tmp_path, "d.csv", "probability\n0.9\n0.1\n")
        config = _write(tmp_path, "i.cfg", "efficiency = 0.5\n")
        code, out, err = _run(
            capsys, "invert", "--config", str(config), "--data", str(data)
        )
        assert (code, out) == (1, "")
        assert err == "error: missing required key 'observed'\n"

    def test_many_outcomes(self, tmp_path, capsys):
        # binomial coefficients of 1,099 photons exceed the float range;
        # the loss matrix never forms them.  The command line refuses
        # that many outcomes, and the library inverts them.
        outcomes = 1100
        observed = ", ".join([repr(1.0 / outcomes)] * outcomes)
        config = _write(
            tmp_path, "i.cfg", f"observed = {observed}\nefficiency = 1\n"
        )
        code, out, err = _run(capsys, "invert", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "error: key 'observed': at most 16 outcomes\n"
        result = cli.photon_stats.invert_loss_only(
            [1.0 / outcomes] * outcomes, 1.0
        )
        assert result.converged and result.iterations == 0
        assert len(result.state) == outcomes
        assert {"%.9e" % p for p in result.state} == {"9.090909091e-04"}

    @pytest.mark.parametrize("outcomes", [16, 17])
    def test_outcome_bound(self, tmp_path, capsys, monkeypatch, outcomes):
        observed = ", ".join([repr(1.0 / outcomes)] * outcomes)
        config = _write(
            tmp_path, "i.cfg", f"observed = {observed}\nefficiency = 1\n"
        )
        if outcomes > 16:  # refused before any row of the response is built
            def refuse(*args, **kwargs):
                raise AssertionError("invert built a response")

            monkeypatch.setattr(cli.photon_stats, "loss_matrix", refuse)
        code, out, err = _run(capsys, "invert", "--config", str(config))
        if outcomes <= 16:
            assert code == 0, err
            rows = _rows(out)
            assert [int(row["n"]) for row in rows] == list(range(outcomes))
            assert {row["probability"] for row in rows} == {"0.0625"}
            assert err.startswith("converged in 0 iterations, ")
        else:
            assert (code, out) == (1, "")
            assert err == "error: key 'observed': at most 16 outcomes\n"

    def test_face_input_is_certified(self, tmp_path, capsys):
        # at this efficiency the direct solve has p0 < 0: the optimum
        # lies on the face p0 = 0, which the Newton solve reaches exactly
        config = _write(
            tmp_path,
            "i.cfg",
            HEADLINE_INVERT.replace("0.048", "0.046"),
        )
        code, out, err = _run(capsys, "invert", "--config", str(config))
        assert code == 0, err
        assert out == "n,probability\n0,0\n1,0.903843634\n2,0.0961563664\n"
        (summary,) = err.splitlines()
        steps = int(summary.split()[2])
        assert summary.startswith("converged in ") and steps > 0
        assert float(summary.split("KKT gap ")[1].split(",")[0]) <= 1e-13

    @pytest.mark.parametrize(
        "text",
        [
            # click frequencies of 10,000 heralds, one of the six on which
            # the multiplicative iteration did not converge in 100,000
            # passes
            "observed = 0.9388, 0.0599, 0.0013\n"
            "efficiency = 0.0788670670980538\nobservable = clicks\n",
            "observed = 0.4657, 0.041, 0.0647, 0.07, 0.0494, 0.0441, 0.0554,"
            " 0.0617, 0.0566, 0.0454, 0.0274, 0.0126, 0.0047, 0.0008,"
            " 0.0005, 0.0\nefficiency = 0.5870540947228361\n",
            "observed = 0, 0, 1, 2.2e-16, 2.2e-16\nefficiency = 0.671875\n",
            # 0, 0, 1, 0, 0, 9.89e-159, 1, 0.5, 0, 1e-290, normalized: on
            # the way to e9 the last outcome is predicted as 1e-300
            "observed = 0, 0, 0.4, 0, 0, 3.956e-159, 0.4, 0.2, 0, 4e-291\n"
            "efficiency = 0.06905\n",
        ],
        ids=["clicks", "sixteen-outcomes", "tiny-probabilities", "near-floor"],
    )
    def test_face_inputs_are_certified(self, tmp_path, capsys, text):
        config = _write(tmp_path, "i.cfg", text)
        code, out, err = _run(capsys, "invert", "--config", str(config))
        assert code == 0, err
        probabilities = [float(r["probability"]) for r in _rows(out)]
        assert min(probabilities) == 0.0
        assert sum(probabilities) == pytest.approx(1.0, abs=1e-8)
        (summary,) = err.splitlines()
        assert int(summary.split()[2]) > 0
        assert float(summary.split("KKT gap ")[1].split(",")[0]) <= 1e-13

    def test_budget_keys_are_ignored(self, tmp_path, capsys):
        plain = _write(tmp_path, "plain.cfg", HEADLINE_INVERT)
        budget = _write(
            tmp_path,
            "budget.cfg",
            HEADLINE_INVERT + "max_iter = -5\ntol = 0\n",
        )
        code, out, err = _run(capsys, "invert", "--config", str(plain))
        assert code == 0
        assert _run(capsys, "invert", "--config", str(budget)) == (
            0,
            out,
            err,
        )
        code, out_verbose, err_verbose = _run(
            capsys, "invert", "--config", str(budget), "--verbose"
        )
        assert code == 0 and out_verbose == out
        assert err_verbose == err + "ignored keys: max_iter, tol\n"

    @pytest.mark.parametrize(
        "index, gap",
        [(84, "5.35e+03"), (143, "3.42e-01"), (2997, "6.90e+01")],
    )
    def test_unfinished_face_solve_exits_two(
        self, tmp_path, capsys, monkeypatch, index, gap
    ):
        # 84 and 143 find no ascent; 2997 spends the step budget, cut here
        # to 20 steps
        monkeypatch.setattr(photon_stats, "_STEP_BUDGET", 20)
        observed, efficiency = face_input(index)
        config = _write(
            tmp_path,
            "i.cfg",
            f"observed = {', '.join(map(repr, observed))}\n"
            f"efficiency = {efficiency!r}\n",
        )
        assert _run(capsys, "invert", "--config", str(config)) == (
            2,
            "",
            "numerical failure: inversion did not converge: "
            f"KKT gap {gap} above 1e-13\n",
        )

    def test_unexplained_outcome_exits_two(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "i.cfg",
            """
            observed = 0.7, 0.25, 0.05
            observable = clicks
            efficiency = 1e-200
            """,
        )
        code, _, err = _run(capsys, "invert", "--config", str(config))
        assert code == 2
        assert "did not converge" in err
        assert "zero probability" in err

    def test_nmax_key_is_ignored(self, tmp_path, capsys):
        text = "observed = 0.94920, 0.05065, 0.00015\nefficiency = 0.048\n"
        plain = _write(tmp_path, "plain.cfg", text)
        with_nmax = _write(tmp_path, "nmax.cfg", text + "nmax = 2\n")
        code, out, err = _run(capsys, "invert", "--config", str(plain))
        assert code == 0
        assert _run(capsys, "invert", "--config", str(with_nmax)) == (
            0,
            out,
            err,
        )
        code, out_verbose, err_verbose = _run(
            capsys, "invert", "--config", str(with_nmax), "--verbose"
        )
        assert code == 0 and out_verbose == out
        assert err_verbose.splitlines()[-1] == "ignored keys: nmax"


class TestFidelityCommand:
    def test_headline(self, tmp_path, capsys):
        config = _write(tmp_path, "f.cfg", "overlap = 0.65\none_photon = 0.931\n")
        code, out, _ = _run(capsys, "fidelity", "--config", str(config))
        assert code == 0
        (row,) = _rows(out)
        assert float(row["fidelity"]) == pytest.approx(0.78, abs=0.01)


class TestRepeatedCalls:
    """main() may be called many times in one process and keeps no
    state between calls."""

    def test_main_keeps_no_state(self, tmp_path, capsys):
        config = _write(
            tmp_path, "f.cfg", "overlap = 0.65\none_photon = 0.931\nnote = 1\n"
        )
        names = {
            name: (value, repr(value))
            for name, value in vars(cli).items()
            if not name.startswith("__")
        }
        calls = [
            ["fidelity", "--config", str(config), "--verbose",
             "--out", str(tmp_path / "out.csv")],
            ["fidelity", "--config"],
            ["--help"],
            ["fidelity", "--config", str(config), "--grid-points", "4"],
            ["fidelity", "--config", str(config)],
        ]
        assert [cli.main(argv) for argv in calls] == [0, 1, 0, 1, 0]
        capsys.readouterr()
        after = {
            name: value
            for name, value in vars(cli).items()
            if not name.startswith("__")
        }
        assert after.keys() == names.keys()
        for name, (value, text) in names.items():
            assert after[name] is value and repr(value) == text, name

    def test_options_do_not_carry_over(self, tmp_path, capsys):
        config = _write(
            tmp_path, "f.cfg", "overlap = 0.65\none_photon = 0.931\nnote = 1\n"
        )
        out_path = tmp_path / "out.csv"
        code, out, err = _run(
            capsys, "fidelity", "--config", str(config),
            "--out", str(out_path), "--verbose",
        )
        assert code == 0 and out == "" and "ignored keys: note" in err
        code, out, err = _run(capsys, "fidelity", "--verbose")
        assert code == 1 and out == "" and err.startswith("error: ")
        code, out, err = _run(capsys, "fidelity", "--config", str(config))
        fresh = subprocess.run(
            [sys.executable, "-m", "pdckit.cli", "fidelity",
             "--config", str(config)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        )
        assert fresh.returncode == 0
        assert code == 0
        assert out == fresh.stdout == out_path.read_text()
        assert "ignored keys" not in err

    def test_paths_stay_strings(self, tmp_path, capsys, monkeypatch):
        # a pathlib.Path per call interns its parts; that churn grew a
        # process that had loaded numpy by about 1.4 MB over 20,000 calls
        config = _write(
            tmp_path, "s.cfg", "p0 = 0.94920\np1 = 0.05065\np2 = 0.00015\n"
        )
        data = _write(
            tmp_path, "d.csv",
            "beta_sq,visibility\n0.01,0.4\n0.02,0.5\n0.05,0.45\n",
        )
        out_path = tmp_path / "out.csv"

        def refuse(*args, **kwargs):
            raise AssertionError("main built a pathlib.Path")

        argv = ["fit-overlap", "--config", str(config), "--data", str(data),
                "--out", str(out_path)]
        with monkeypatch.context() as patch:
            patch.setattr(Path, "__new__", refuse)
            try:
                code = cli.main(argv)
            except AssertionError as exc:
                code = str(exc)
        assert code == 0, capsys.readouterr().err
        assert out_path.read_text().startswith("overlap,stderr,n_points\n")


FIDELITY_CFG = "overlap = 0.65\none_photon = 0.931\n"


class TestCommandLine:
    """cli._parse_argv, through main: every usage problem exits 1 with
    one `error:` line that names the option or token."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            ([], "no command (choose from dip-width, ellipse, "),
            (["nope", "--config", "{cfg}"], "unknown command 'nope'"),
            (["--config", "{cfg}"], "no command"),
            (["fidelity"], "'--config'"),
            (["fidelity", "--config"], "option '--config' needs a value"),
            (["fidelity", "--config", "--verbose"], "option '--config'"),
            (["fidelity", "--out", "--config", "{cfg}"], "option '--out'"),
            (
                ["fidelity", "--config", "{cfg}", "--grid-points", "twelve"],
                "option '--grid-points': not an integer: 'twelve'",
            ),
            (
                ["fidelity", "--config", "{cfg}", "--grid-points=1.5"],
                "'--grid-points': not an integer: '1.5'",
            ),
            (["fidelity", "--config", "{cfg}", "tmax"], "argument 'tmax'"),
            (["fidelity", "--conf", "{cfg}"], "unknown option '--conf'"),
            (["fidelity", "--config", "{cfg}", "-v"], "unknown option '-v'"),
            (
                ["fidelity", "--config", "{cfg}", "--verbose=1"],
                "unknown option '--verbose=1'",
            ),
        ],
        ids=[
            "no-command", "unknown-command", "only-options", "no-config",
            "no-value", "option-as-value", "option-as-value-first",
            "non-integer", "non-integer-equals", "second-positional",
            "abbreviation", "short-option", "flag-with-value",
        ],
    )
    def test_usage_problem_exits_one(self, tmp_path, capsys, argv, named):
        config = _write(tmp_path, "f.cfg", FIDELITY_CFG)
        argv = [token.format(cfg=config) for token in argv]
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--config={cfg}"],
            ["--config", "{cfg}", "fidelity"],
            ["--grid-points=8", "--config", "{cfg}", "--verbose", "fidelity"],
            ["fidelity", "--config", "{missing}", "--config", "{cfg}"],
            ["fidelity", "--config", "{cfg}", "--out", "{out}", "--out="],
        ],
        ids=["equals", "options-first", "mixed", "repeated", "empty-out"],
    )
    def test_accepted_forms_print_the_same(self, tmp_path, capsys, argv):
        config = _write(tmp_path, "f.cfg", FIDELITY_CFG)
        expected = _run(capsys, "fidelity", "--config", str(config))
        assert expected[0] == 0
        names = {"cfg": config, "missing": tmp_path / "no.cfg",
                 "out": tmp_path / "out.csv"}
        argv = [token.format(**names) for token in argv]
        assert _run(capsys, *argv) == expected
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h"], ["fidelity", "--config", "-", "--help"]],
    )
    def test_help_returns_zero(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: pdckit COMMAND --config FILE")
        listed = out.split("commands:\n")[1].split("\n\n")[0].split()
        assert listed == sorted(cli._COMMANDS)
        for option in ("--config", "--out", "--data", "--grid-points",
                       "--verbose"):
            assert f"\n  {option} " in out


class TestErrorHandling:
    def test_unknown_command(self, tmp_path, capsys):
        config = _write(tmp_path, "c.cfg", "overlap = 1\n")
        code, _, err = _run(capsys, "does-not-exist", "--config", str(config))
        assert code == 1
        assert "error:" in err

    def test_missing_key_is_named(self, tmp_path, capsys):
        config = _write(tmp_path, "c.cfg", "overlap = 0.5\n")
        code, _, err = _run(capsys, "fidelity", "--config", str(config))
        assert code == 1
        assert "one_photon" in err

    def test_wrong_unit_is_named(self, tmp_path, capsys):
        config = _write(
            tmp_path, "c.cfg", SOURCE_CFG.replace("2.5 nm", "2.5 ps")
        )
        code, _, err = _run(capsys, "ellipse", "--config", str(config))
        assert code == 1
        assert "pump_fwhm" in err and "ps" in err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (
                "twin-hom",
                "tilt = 54.7 deg\naspect_list = 2, 3 mm\n",
                "key 'aspect_list': unit 'mm' of '3 mm' does not measure "
                "dimensionless (allowed: no unit)",
            ),
            (
                "visibility-curve",
                "p0 = 0.9\np1 = 0.1\np2 = 0\nbeta_sq_list = 0.01,  x \n",
                "key 'beta_sq_list': not a number: 'x'",
            ),
            (
                "herald-stats",
                "gain_sq_list = 0.02, 1e400\n",
                "key 'gain_sq_list': not a finite number: '1e400'",
            ),
        ],
        ids=["unit", "not-a-number", "not-finite"],
    )
    def test_list_entry_is_refused_as_a_scalar(
        self, tmp_path, capsys, command, text, message
    ):
        config = _write(tmp_path, "c.cfg", text)
        code, out, err = _run(capsys, command, "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "entry", ["3 mm", "x", "1e400", "", "1 2 3", "-1.5e-3", "2 ps"]
    )
    def test_list_entry_reads_as_a_scalar(self, entry):
        sc = Scenario({"k": entry, "k_list": f"0.5, {entry} "})
        try:
            expected = [0.5, sc.number("k")]
        except ConfigError as exc:
            expected = str(exc).replace("'k'", "'k_list'")
        try:
            assert sc.number_list("k_list") == expected
        except ConfigError as exc:
            assert str(exc) == expected

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (
                "ellipse",
                "pump_fwhm = 2.5 nm\nlength = 2.1 mm\npm_fwhm = 0.5 nm\n",
                "missing required key 'kappa_s'/'kappa_i' or 'pm_fwhm'/'tilt'",
            ),
            (
                "ellipse",
                "pump_fwhm = 2.5 nm\nlength = 2.1 mm\nkappa_i = 1e-9 s/m\n",
                "kappa_s and kappa_i must be given together",
            ),
            (
                "visibility-curve",
                "p0 = 0.9\np1 = 0.1\np2 = 0\nbeta_sq_min = 0\n"
                "beta_sq_max = 0.1\n",
                "key 'beta_sq_min': must be positive",
            ),
            (
                "fidelity",
                "overlap = 0.5\none_photon = 0.9\noverlap = 0.6\n",
                "duplicate key 'overlap' (line 3)",
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = 1 ps\ntau_steps = 2.5\n",
                "key 'tau_steps': expected an integer",
            ),
        ],
        ids=[
            "no-source", "one-kappa", "geometric-zero-min", "duplicate-key",
            "fractional-count",
        ],
    )
    def test_refusal_is_one_error_line(
        self, tmp_path, capsys, command, text, message
    ):
        config = _write(tmp_path, "c.cfg", text)
        assert _run(capsys, command, "--config", str(config)) == (
            1,
            "",
            f"error: {message}\n",
        )

    def test_unreadable_config(self, tmp_path, capsys):
        code, _, err = _run(capsys, "ellipse", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1
        assert "cannot read config" in err

    def test_malformed_line(self, tmp_path, capsys):
        config = _write(tmp_path, "c.cfg", "just words\n")
        code, _, err = _run(capsys, "fidelity", "--config", str(config))
        assert code == 1
        assert "key = value" in err

    @pytest.mark.parametrize(
        "command, text, options",
        [
            (
                "tmax",
                SOURCE_CFG
                + "signal_filter_fwhm = 1 nm\ntrigger_filter_fwhm = 1 nm\n"
                "reference_fwhm = 1 nm\n",
                ("--grid-points", "4"),
            ),
        ],
        ids=["coarse-grid"],
    )
    def test_invalid_library_input_exits_one(
        self, tmp_path, capsys, command, text, options
    ):
        config = _write(tmp_path, "c.cfg", text)
        code, out, err = _run(
            capsys, command, "--config", str(config), *options
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {command}: ")

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "hom-scan",  # spectral
                SOURCE_CFG.replace("796 nm", "0 nm")
                + "p0 = 0\np1 = 1\np2 = 0\nbeta_sq = 0.05\n"
                "signal_filter_fwhm = 1 nm\nreference_fwhm = 1 nm\n",
                "center_wavelength",
            ),
            (
                "visibility-curve",
                "p0 = 0.9\np1 = 0.1\np2 = 0\nbeta_sq_min = 0.01\n"
                "beta_sq_max = 0.1\nbeta_sq_steps = 1e400\n",
                "beta_sq_steps",
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = 1e400 ps\ntau_steps = 3\n",
                "dip_sigma",
            ),
            (
                "invert",
                "observed = 1e400, 0, 0\nefficiency = 0.5\n",
                "observed",
            ),
            (
                "visibility-curve",
                "p0 = 0.9\np1 = 0.1\np2 = 0\nbeta_sq_min = 0.01\n"
                "beta_sq_max = 0.1\nbeta_sq_steps = 1000000000000\n",
                "beta_sq_steps",
            ),
            (
                "pm-vs-length",
                "length = 2.1 mm\nkappa_s = 1.4e-9 s/m\nkappa_i = 0.99e-9 s/m\n"
                "length_min = 1 mm\nlength_max = 2 mm\nlength_steps = 10001\n",
                "length_steps",
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = 1 ps\ntau_steps = 1\n",
                "tau_steps",
            ),
            (
                "hom-scan",  # spectral
                SOURCE_CFG
                + "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\n"
                "signal_filter_fwhm = 1 nm\nreference_fwhm = 1 nm\n"
                "tau_steps = 1000000000000\n",
                "tau_steps",
            ),
            (
                "pm-vs-length",
                "length = 2.1 mm\nkappa_s = 1.4e-9 s/m\nkappa_i = 0.99e-9 s/m\n"
                "length_min = 3 mm\nlength_max = 2 mm\n",
                "key 'length_min'",
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 1.5\n"
                "dip_sigma = 1 ps\n",
                "key 'tmax'",
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = -1 ps\n",
                "key 'dip_sigma'",
            ),
            (
                "herald-stats",
                "gain_sq_list = 0.01, 0.02\nmodes_unfiltered = 1001\n",
                "modes_unfiltered",
            ),
            (
                "herald-stats",
                "gain_sq_list = 0.01, 0.02\nmodes_filtered = 1001\n",
                "modes_filtered",
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = 1e300 s\n",
                "key 'dip_sigma': too large for a delay axis in ps\n",
            ),
            (
                "hom-scan",  # spectral: 1/sigma_pump^2 overflows
                SOURCE_CFG.replace("2.5 nm", "1e-170 um")
                + "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\n"
                "signal_filter_fwhm = 1 nm\nreference_fwhm = 1 nm\n",
                "key 'pump_fwhm': too narrow, 1/width^2 overflows a float\n",
            ),
            (
                "herald-stats",
                "gain_sq_list = 0.01\ntrigger_efficiency = -0.1\n",
                "key 'trigger_efficiency': must lie in [0, 1]\n",
            ),
            (
                "herald-stats",
                "gain_sq_list = 0.01, -0.01\n",
                "key 'gain_sq_list': must lie in [0, 1)\n",
            ),
            (
                "herald-stats",
                "gain_sq_min = -0.1\ngain_sq_max = 1.5\n",
                "key 'gain_sq_min': must lie in [0, 1)\n",
            ),
            (
                "herald-stats",
                "gain_sq_min = 0.5\ngain_sq_max = 1\n",
                "key 'gain_sq_max': must lie in [0, 1)\n",
            ),
            (
                "hom-scan",
                "p0 = 0\np1 = 1\np2 = 0\nbeta_sq = 0.5\n"
                "tmax = 1\ndip_sigma = 1 ps\n",
                BETA_SQ_RANGE,
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.2\n"
                "tmax = 0.5\ndip_sigma = 1 ps\n",
                BETA_SQ_RANGE,
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = -0.01\n"
                "tmax = 0.5\ndip_sigma = 1 ps\n",
                "key 'beta_sq': must be nonnegative\n",
            ),
            (
                "hom-scan",  # spectral
                SOURCE_CFG
                + "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.5\n"
                "signal_filter_fwhm = 1 nm\nreference_fwhm = 1 nm\n",
                BETA_SQ_RANGE,
            ),
            (
                "hom-scan",  # spectral
                SOURCE_CFG
                + "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = -1\n"
                "signal_filter_fwhm = 1 nm\nreference_fwhm = 1 nm\n",
                "key 'beta_sq': must be nonnegative\n",
            ),
            (
                "fidelity",
                "overlap = 1.2\none_photon = 0.9\n",
                "key 'overlap': must lie in [0, 1]\n",
            ),
            (
                "fidelity",
                "overlap = 0.5\none_photon = -0.1\n",
                "key 'one_photon': must lie in [0, 1]\n",
            ),
            (
                "visibility-curve",
                "p0 = 1.5\np1 = -0.5\np2 = 0\nbeta_sq_list = 0.01\n",
                "key 'p0': must lie in [0, 1]\n",
            ),
            (
                "fit-overlap",
                "p0 = 0.9\np1 = -0.1\np2 = 0.2\n",
                "key 'p1': must lie in [0, 1]\n",
            ),
            (
                "hom-scan",
                "p0 = 0\np1 = 0\np2 = 1.1\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = 1 ps\n",
                "key 'p2': must lie in [0, 1]\n",
            ),
            (
                "visibility-curve",
                "p0 = 0.5\np1 = 0.2\np2 = 0.2\nbeta_sq_list = 0.01\n",
                "keys 'p0', 'p1', 'p2': must sum to one within 1e-9\n",
            ),
            (
                "visibility-curve",
                "p0 = 0.9\np1 = 0.1\np2 = 0\nbeta_sq_list = 0.01, -1e-300\n",
                "key 'beta_sq_list': must be nonnegative\n",
            ),
            (
                "twin-hom",
                "tilt = 54.7 deg\naspect_list = 2, 0.5\n",
                "key 'aspect_list': must be at least 1\n",
            ),
            (
                "twin-hom",
                "tilt = 54.7 deg\naspect_min = 0.5\naspect_max = 2\n",
                "key 'aspect_min': must be at least 1\n",
            ),
            (
                "invert",
                "observed = 0.9, 0.1, 0\nefficiency = 1.5\n",
                "key 'efficiency': must lie in (0, 1]\n",
            ),
            (
                "invert",
                "observed = 0.9, 0.1, 0\nefficiency = 0\n",
                "key 'efficiency': must lie in (0, 1]\n",
            ),
            (
                "invert",
                "observed = 1.1, -0.1, 0\nefficiency = 0.5\n",
                "key 'observed': must be nonnegative\n",
            ),
            (
                "ellipse",
                SOURCE_CFG.replace("2.1 mm", "-2.1 mm"),
                "key 'length': must be positive\n",
            ),
            (
                "dip-width",
                KAPPA_CFG.replace("2.1 mm", "0 mm"),
                "key 'length': must be positive\n",
            ),
            (
                "ellipse",
                SOURCE_CFG.replace("54.7 deg", "95 deg"),
                "key 'tilt': must lie strictly in (0, 90) deg\n",
            ),
            (
                "ellipse",  # 2 / (L w_pm) underflows both kappas to zero
                SOURCE_CFG.replace("0.5 nm", "100 nm").replace(
                    "2.1 mm", "1e300 mm"
                ),
                "keys 'pm_fwhm', 'length': too large together, both "
                "group-velocity mismatches would vanish\n",
            ),
            (
                "invert",
                "observed = 0.5, 0.4, 0\nefficiency = 0.5\n",
                "key 'observed': must sum to one within 1e-9\n",
            ),
            (
                "invert",
                "observed = 0.5, 0.5\nefficiency = 0.5\nobservable = clicks\n",
                "key 'observed': a two-bin detector has 3 outcomes\n",
            ),
            (
                "invert",
                "observed = 1\nefficiency = 0.5\n",
                "key 'observed': need at least 2 outcomes\n",
            ),
        ],
        ids=[
            "zero-wavelength",
            "overflowing-count",
            "overflowing-quantity",
            "overflowing-list-entry",
            "huge-sweep",
            "long-length-sweep",
            "single-delay",
            "huge-spectral-delay-axis",
            "reversed-length-sweep",
            "analytic-tmax",
            "analytic-dip-sigma",
            "herald-unfiltered-modes",
            "herald-filtered-modes",
            "huge-dip-sigma",
            "overflowing-spectral-dip",
            "herald-negative-efficiency",
            "herald-gain-list",
            "herald-gain-min",
            "herald-gain-max",
            "strong-reference",
            "beta-sq-at-bound",
            "negative-beta-sq",
            "strong-spectral-reference",
            "negative-spectral-beta-sq",
            "overlap-above-one",
            "negative-one-photon",
            "p0-above-one",
            "negative-p1",
            "p2-above-one",
            "state-off-one",
            "negative-beta-sq-list",
            "aspect-list-below-one",
            "aspect-min-below-one",
            "efficiency-above-one",
            "zero-efficiency",
            "negative-observed",
            "negative-length",
            "zero-kappa-length",
            "tilt-past-ninety",
            "vanishing-pm-kappas",
            "observed-off-one",
            "two-click-outcomes",
            "one-outcome",
        ],
    )
    def test_invalid_value_is_named(self, tmp_path, capsys, command, text, key):
        config = _write(tmp_path, "c.cfg", text)
        code, _, err = _run(capsys, command, "--config", str(config))
        assert code == 1
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("steps", [1, 2, 10_000, 10_001])
    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = 1 ps\n",
                "tau_steps",
            ),
            (
                "visibility-curve",
                "p0 = 0.9\np1 = 0.1\np2 = 0\nbeta_sq_min = 0.01\n"
                "beta_sq_max = 0.1\n",
                "beta_sq_steps",
            ),
            (
                "pm-vs-length",
                "length = 2.1 mm\nkappa_s = 1.4e-9 s/m\nkappa_i = 0.99e-9 s/m\n"
                "length_min = 1 mm\nlength_max = 2 mm\n",
                "length_steps",
            ),
        ],
        ids=["delay-axis", "sweep", "length-sweep"],
    )
    def test_step_count_bounds(
        self, tmp_path, capsys, command, text, key, steps
    ):
        config = _write(tmp_path, "c.cfg", text + f"{key} = {steps}\n")
        code, out, err = _run(capsys, command, "--config", str(config))
        if 2 <= steps <= 10_000:
            assert code == 0
            assert len(_rows(out)) == steps
        else:
            assert code == 1 and out == ""
            assert err == f"error: key {key!r}: must lie in [2, 10000]\n"

    # a width goes as 1/wavelength^2, which overflows to a float error
    # at the huge wavelength and divides by zero at the tiny one
    @pytest.mark.parametrize(
        "wavelength", ["1.3407807929942597e+163 nm", "7.347339831280179e-280 nm"]
    )
    def test_unrepresentable_value_exits_one(self, tmp_path, capsys, wavelength):
        config = _write(
            tmp_path,
            "c.cfg",
            SOURCE_CFG.replace("796 nm", wavelength)
            + "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\n"
            "signal_filter_fwhm = 1 nm\nreference_fwhm = 1 nm\n",
        )
        code, out, err = _run(capsys, "hom-scan", "--config", str(config))
        assert (code, out, err) == (
            1,
            "",
            "error: hom-scan: a value is out of range\n",
        )

    def test_angular_frequency_unit_is_refused(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "c.cfg",
            "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
            "dip_sigma = 1 rad/s\n",
        )
        code, out, err = _run(capsys, "hom-scan", "--config", str(config))
        assert code == 1 and out == ""
        assert err.startswith("error: key 'dip_sigma': unit 'rad/s'")

    def test_out_of_range_probability(self, tmp_path, capsys):
        config = _write(tmp_path, "c.cfg", "p0 = 0.5\np1 = 0.2\np2 = 0.1\n")
        code, _, err = _run(
            capsys, "visibility-curve", "--config", str(config)
        )
        assert code == 1
        assert "p0" in err


class TestScientificFormatting:
    def test_small_values_use_scientific_notation(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "v.cfg",
            """
            p0 = 0.997896
            p1 = 0.002101
            p2 = 0.000003
            beta_sq_min = 0.0005
            beta_sq_max = 0.02
            beta_sq_steps = 3
            """,
        )
        code, out, _ = _run(capsys, "visibility-curve", "--config", str(config))
        assert code == 0
        assert "e-04" in out  # beta_sq column below 1e-3


def _cell_rule(value) -> str:
    """The per-cell CSV rule, one call per cell: the reference for _emit."""
    if isinstance(value, str):
        return value
    value = float(value)
    if value == 0.0:
        return "0"
    if abs(value) < 1e-3:
        return f"{value:.9e}"
    return f"{value:.9g}"


_TINY_NORMAL = 2.2250738585072014e-308
_EDGE_CELLS = [
    0.0, -0.0, 0, 1, -1, 5e-324, -5e-324, _TINY_NORMAL, -_TINY_NORMAL,
    math.nextafter(_TINY_NORMAL, 0.0), math.nan, math.inf, -math.inf,
    *(
        math.nextafter(edge, toward)
        for edge in (1e-3, -1e-3)
        for toward in (0.0, 2.0 * edge)
    ),
    1e-3, -1e-3,
]
_CELLS = st.one_of(
    st.sampled_from(_EDGE_CELLS),
    st.floats(),
    st.integers(min_value=-(10**15), max_value=10**15),
    st.text(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CELLS, min_size=1, max_size=4), max_size=6))
@example([_EDGE_CELLS])
def test_emit_matches_per_cell_rule(rows):
    header = ["first", "second"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(header, rows, None)
    lines = [",".join(header)]
    lines += [",".join(_cell_rule(cell) for cell in row) for row in rows]
    assert out.getvalue() == "\n".join(lines) + "\n"


# -- property: grid-free commands never raise out of main --------------------
#
# Every command runs here; none builds a grid.  Counts may be drawn huge:
# the CLI refuses any above its bound before it allocates.  Each key is
# valid nine times in ten, so that most examples get past validation to
# the arrays, the closed forms and the inversions.

_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "1", "-1", ".5", "1e400", "-1e400"]),
)
# each bound, one past it and far past it
_COUNTS = st.one_of(
    st.integers(min_value=-3, max_value=200).map(str),
    st.sampled_from(
        ["2.5", "1e400", "1000", "1001", "10000", "10001", "1000000000000"]
    ),
)


def _value(draw, valid, unit=""):
    """A value drawn from valid nine times in ten, any number otherwise."""
    if draw(st.integers(min_value=0, max_value=9)):
        return repr(draw(valid)) + unit
    return draw(_NUMBERS) + unit


def _widths(low, high):
    return st.floats(min_value=low, max_value=high)


@st.composite
def _state_keys(draw):
    if draw(st.booleans()):
        p0 = draw(st.floats(min_value=0.0, max_value=1.0))
        p1 = draw(st.floats(min_value=0.0, max_value=1.0 - p0))
        values = [repr(p) for p in (p0, p1, 1.0 - p0 - p1)]
        values = draw(st.permutations(values))
    else:
        values = [draw(_NUMBERS) for _ in range(3)]
    return dict(zip(("p0", "p1", "p2"), values))


def _optional(draw, keys, name, strategy, unit=""):
    if draw(st.booleans()):
        keys[name] = draw(strategy) + unit


def _optional_value(draw, keys, name, valid, unit=""):
    if draw(st.booleans()):
        keys[name] = _value(draw, valid, unit)


def _source_keys(draw, keys):
    """Keys of a source, by phase-matching width and tilt or by kappas."""
    _optional_value(
        draw, keys, "center_wavelength", _widths(400.0, 1600.0), " nm"
    )
    keys["pump_fwhm"] = _value(draw, _widths(0.1, 10.0), " nm")
    keys["length"] = _value(draw, _widths(0.1, 10.0), " mm")
    if draw(st.booleans()):
        keys["pm_fwhm"] = _value(draw, _widths(0.05, 5.0), " nm")
        keys["tilt"] = _value(draw, _widths(1.0, 89.0), " deg")
    else:
        for name in ("kappa_s", "kappa_i"):
            keys[name] = _value(draw, _widths(-3e-9, 3e-9), " s/m")


@st.composite
def _grid_free_commands(draw):
    command = draw(
        st.sampled_from(
            ["fidelity", "hom-scan", "visibility-curve", "tmax", "filter",
             "dip-width", "herald-stats", "invert"]
        )
    )
    keys = {}
    if command == "fidelity":
        _optional(draw, keys, "overlap", _NUMBERS)
        _optional(draw, keys, "one_photon", _NUMBERS)
        return command, keys
    if command == "herald-stats":
        for name in ("modes_unfiltered", "modes_filtered"):
            _optional(draw, keys, name, _COUNTS)
        _optional_value(draw, keys, "trigger_efficiency", _widths(0.0, 1.0))
        keys["gain_sq_list"] = ", ".join(
            _value(draw, _widths(1e-4, 0.1))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        )
        return command, keys
    if command == "invert":
        keys["efficiency"] = _value(draw, _widths(0.01, 1.0))
        clicks = draw(st.booleans())
        if clicks:
            keys["observable"] = "clicks"
        elif draw(st.booleans()):
            keys["observable"] = draw(st.sampled_from(["photon", "counts"]))
        size = 3 if clicks else draw(st.integers(min_value=1, max_value=5))
        if draw(st.integers(min_value=0, max_value=9)):  # a distribution
            weights = draw(
                st.lists(_widths(0.0, 1.0), min_size=size, max_size=size)
            )
            total = sum(weights) or 1.0
            observed = [repr(w / total) for w in weights]
        else:
            observed = draw(st.lists(_NUMBERS, min_size=1, max_size=5))
        keys["observed"] = ", ".join(observed)
        return command, keys
    if command in ("filter", "dip-width"):
        _source_keys(draw, keys)
        names = (
            ("filter_s_fwhm", "filter_i_fwhm")
            if command == "filter"
            else ("signal_filter_fwhm", "reference_fwhm")
        )
        for name in names:
            keys[name] = _value(draw, _widths(0.1, 10.0), " nm")
        return command, keys
    if command == "tmax" or (command == "hom-scan" and draw(st.booleans())):
        _source_keys(draw, keys)  # spectral: the filtered source's dip
        for name in ("signal_filter_fwhm", "reference_fwhm"):
            keys[name] = _value(draw, _widths(0.1, 10.0), " nm")
        if command == "tmax" or draw(st.booleans()):
            keys["trigger_filter_fwhm"] = _value(
                draw, _widths(0.1, 10.0), " nm"
            )
        if command == "tmax":
            _optional_value(draw, keys, "beta_sq", _widths(0.0, 0.19))
            return command, keys
        keys["beta_sq"] = _value(draw, _widths(0.0, 0.19))
        keys.update(draw(_state_keys()))
        _optional(draw, keys, "tau_steps", _COUNTS)
        return command, keys
    keys.update(draw(_state_keys()))
    if command == "hom-scan":  # analytic mode: tmax is always present
        keys["tmax"] = draw(_NUMBERS)
        _optional(draw, keys, "beta_sq", _NUMBERS)
        _optional(draw, keys, "dip_sigma", _NUMBERS, " ps")
        _optional(draw, keys, "reference_fwhm", _NUMBERS, " nm")
        _optional(draw, keys, "center_wavelength", _NUMBERS, " nm")
        _optional(draw, keys, "tau_steps", _COUNTS)
    else:
        _optional(draw, keys, "overlap", _NUMBERS)
        if draw(st.booleans()):
            keys["beta_sq_list"] = ", ".join(
                draw(st.lists(_NUMBERS, min_size=1, max_size=4))
            )
        else:
            _optional(draw, keys, "beta_sq_min", _NUMBERS)
            _optional(draw, keys, "beta_sq_max", _NUMBERS)
            _optional(draw, keys, "beta_sq_steps", _COUNTS)
    return command, keys


_STATE = {"p0": "0.9", "p1": "0.09", "p2": "0.01"}
# refusals of values computed from valid keys, which only the library
# can make
_COMPUTED_REFUSALS = (
    ": a value is out of range\n",
    ": diagonal entries must be positive\n",
    ": click probability vanishes: the joint distribution is vacuum\n",
    ": predictor vanishes for this state\n",
    ": overlap_max must lie in [0, 1]\n",
)
# a pump whose 1/w^2 overflows, with the keys of the commands that take it
_NARROW_SOURCE = dict(
    pump_fwhm="1e-170 nm", length="2.1 mm", pm_fwhm="0.5 nm",
    tilt="54.7 deg", signal_filter_fwhm="1 nm", trigger_filter_fwhm="1 nm",
    reference_fwhm="1 nm",
)


@settings(max_examples=300, deadline=None)
@given(_grid_free_commands())
@example(
    (
        "herald-stats",
        {"gain_sq_list": "0.01, 0.02", "modes_unfiltered": "1000000000000"},
    )
)
@example(
    (
        "hom-scan",
        dict(_STATE, tmax="0.5", beta_sq="0.05", dip_sigma="1 ps",
             tau_steps="1000000000000"),
    )
)
@example(
    (
        "visibility-curve",
        dict(_STATE, beta_sq_min="0.01", beta_sq_max="0.1",
             beta_sq_steps="1000000000000"),
    )
)
@example(
    (
        "hom-scan",
        dict(p0="0.0", p1="0.0", p2="1.0", tmax="0.0", beta_sq="0.0",
             dip_sigma="1.3407807929942597e+166 ps"),
    )
)
@example(
    (
        "hom-scan",
        dict(p0="0", p1="1", p2="0", tmax="1", beta_sq="0",
             dip_sigma="1.7976931348623157e308 ps"),
    )
)
@example(
    (
        "hom-scan",
        dict(_STATE, tmax="0.5", beta_sq="0.05", dip_sigma="1e300 s"),
    )
)
@example(
    (
        "hom-scan",
        dict(_STATE, pump_fwhm="1e-170 um", length="2.1 mm",
             pm_fwhm="0.5 nm", tilt="54.7 deg", beta_sq="0.05",
             signal_filter_fwhm="1 nm", reference_fwhm="1 nm"),
    )
)
@example(("tmax", _NARROW_SOURCE))
@example(
    (
        "tmax",
        dict(_NARROW_SOURCE, pump_fwhm="2.5 nm", reference_fwhm="1e-170 nm"),
    )
)
@example(("ellipse", _NARROW_SOURCE))
@example(("dip-width", _NARROW_SOURCE))
@example(
    (
        "dip-width",
        dict(_NARROW_SOURCE, pump_fwhm="2.5 nm", reference_fwhm="1e-170 nm"),
    )
)
def test_grid_free_commands_exit_cleanly(case):
    command, keys = case
    text = "".join(f"{key} = {value}\n" for key, value in keys.items())
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        config = Path(directory) / "c.cfg"
        config.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config)])
    assert code in (0, 1, 2)
    if code == 0:
        cells = out.getvalue().replace("\n", ",").split(",")
        assert "nan" not in cells
        # only the major axis of a rank-one form is unbounded
        if command not in ("ellipse", "filter"):
            assert "inf" not in cells and "-inf" not in cells
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
        # an error names only keys the scenario has
        named = re.match(
            r"error: keys? ('[^']*'(, '[^']*')*):", err.getvalue()
        )
        if named:
            assert set(re.findall("'([^']*)'", named[1])) <= set(keys)
        # the fuzz passes no data file or option, so the line names a key
        # unless the value it refuses was computed
        message = err.getvalue()
        assert re.search(r"\bkeys? '", message) or message.endswith(
            _COMPUTED_REFUSALS
        )
