import argparse
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdckit import cli, hom_reference, jsa


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
gamma = 0.193
"""


class TestEllipseCommand:
    def test_reconstructed_source(self, tmp_path, capsys):
        config = _write(tmp_path, "s.cfg", SOURCE_CFG)
        code, out, err = _run(capsys, "ellipse", "--config", str(config))
        assert code == 0
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


class TestFilterCommand:
    def test_residual_aspect_shrinks(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "f.cfg",
            SOURCE_CFG + "filter_s_fwhm = 1 nm\nfilter_i_fwhm = 1 nm\n",
        )
        code, out, _ = _run(capsys, "filter", "--config", str(config))
        assert code == 0
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
            gamma = 0.2
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
        width = 2.0 / (2.5e-3 * math.sqrt(0.2 * (1.1e-9**2 + 0.4e-9**2)))
        lam = 1550e-9
        fwhm = lam**2 / (2 * math.pi * 299_792_458.0) * width * math.sqrt(
            2 * math.log(2)
        )
        assert float(row["length_mm"]) == pytest.approx(2.5, rel=1e-9)
        assert float(row["pm_fwhm_nm"]) == pytest.approx(fwhm * 1e9, rel=1e-8)

    def test_rejects_nonpositive_length(self, tmp_path, capsys):
        config = _write(
            tmp_path,
            "p.cfg",
            "length = 2.1 mm\nkappa_s = 1.4e-9 s/m\nkappa_i = 0.99e-9 s/m\n"
            "length_min = -1 mm\nlength_max = 2 mm\nlength_steps = 4\n",
        )
        code, out, err = _run(capsys, "pm-vs-length", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "error: pm-vs-length: lengths must be positive\n"


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
        assert "implied unfiltered modes = 31" in err
        first = rows[0]
        assert float(first["mean_unfiltered"]) > float(first["mean_filtered"])


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
            """,
        )
        code, out, _ = _run(capsys, "dip-width", "--config", str(config))
        assert code == 0
        (row,) = _rows(out)
        assert float(row["dip_fwhm_ps"]) == pytest.approx(2.0, abs=0.3)


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


@pytest.mark.parametrize("command", ["tmax", "hom-scan", "filter", "dip-width"])
def test_spectral_commands_build_no_grid(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the sampled route was called")

    for name in ("default_axes", "evaluate_jsa", "reduced_density", "purity"):
        monkeypatch.setattr(jsa, name, refuse)
    monkeypatch.setattr(hom_reference, "overlap_T", refuse)
    config = _write(tmp_path, "s.cfg", SPECTRAL_CFG)
    code, out, _ = _run(capsys, command, "--config", str(config))
    assert code == 0
    assert _rows(out)


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

    def test_non_convergence_exits_two(self, tmp_path, capsys):
        # at this efficiency the optimum has p0 = 0, so the direct solve
        # is infeasible and two steps from the uniform state fall short
        config = _write(
            tmp_path,
            "i.cfg",
            """
            observed = 0.94920, 0.05065, 0.00015
            efficiency = 0.046
            max_iter = 2
            """,
        )
        code, _, err = _run(capsys, "invert", "--config", str(config))
        assert code == 2
        assert "did not converge" in err
        assert "KKT gap" in err

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
    """main() may be called many times in one process; it shares only
    the parser, which is built once at import."""

    def test_parser_is_not_rebuilt(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an argument parser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        config = _write(tmp_path, "f.cfg", "overlap = 0.65\none_photon = 0.931\n")
        code, out, _ = _run(capsys, "fidelity", "--config", str(config))
        assert code == 0
        assert _rows(out)

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
                "hom-scan",
                "p0 = 0\np1 = 1\np2 = 0\nbeta_sq = 0.5\n"
                "tmax = 1\ndip_sigma = 1 ps\n",
                (),
            ),
            (
                "tmax",
                SOURCE_CFG
                + "signal_filter_fwhm = 1 nm\ntrigger_filter_fwhm = 1 nm\n"
                "reference_fwhm = 1 nm\n",
                ("--grid-points", "4"),
            ),
            ("fidelity", "overlap = 1.2\none_photon = 0.9\n", ()),
        ],
        ids=["strong-reference", "coarse-grid", "overlap-above-one"],
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
                "herald-stats",
                "gain_sq_list = 0.01, 0.02\nnmax = 1001\n",
                "nmax",
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
                "dip_sigma = 1 ps\ntau_span_sigmas = 1e200\n",
                "tau_span_sigmas",
            ),
            (
                "hom-scan",
                "p0 = 0\np1 = 1\np2 = 0\nbeta_sq = 0\ntmax = 1\n"
                "dip_sigma = 1.7976931348623157e308 ps\n"
                "tau_span_sigmas = 1.7976931348623157e308\n",
                "tau_span_sigmas",
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = 1e300 ps\ntau_span_sigmas = 1e10\n",
                "tau_span_sigmas",
            ),
            (
                "hom-scan",
                "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\ntmax = 0.5\n"
                "dip_sigma = 1 ps\ntau_span_sigmas = 0\n",
                "tau_span_sigmas",
            ),
            (
                "hom-scan",  # spectral
                SOURCE_CFG
                + "p0 = 0.9\np1 = 0.09\np2 = 0.01\nbeta_sq = 0.05\n"
                "signal_filter_fwhm = 1 nm\nreference_fwhm = 1 nm\n"
                "tau_span_sigmas = -4\n",
                "tau_span_sigmas",
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
            "herald-photon-cutoff",
            "herald-unfiltered-modes",
            "herald-filtered-modes",
            "overflowing-span-square",
            "overflowing-delay-axis",
            "overflowing-delay-axis-ps",
            "zero-span",
            "negative-spectral-span",
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
# the CLI refuses any above its bound before it allocates.  invert's
# max_iter is the exception, since an inversion on a face of the simplex
# runs that many steps; it is drawn at most 1,000.  Each other key is
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


def _source_keys(draw, keys, kappas=True):
    """Keys of a source, by phase-matching width and tilt or by kappas."""
    _optional_value(
        draw, keys, "center_wavelength", _widths(400.0, 1600.0), " nm"
    )
    keys["pump_fwhm"] = _value(draw, _widths(0.1, 10.0), " nm")
    keys["length"] = _value(draw, _widths(0.1, 10.0), " mm")
    _optional_value(draw, keys, "gamma", _widths(0.01, 1.0))
    if not kappas or draw(st.booleans()):
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
        for name in ("modes_unfiltered", "modes_filtered", "nmax"):
            _optional(draw, keys, name, _COUNTS)
        _optional_value(draw, keys, "trigger_efficiency", _widths(0.0, 1.0))
        # a list, not a sweep: a long sweep at the largest counts is slow
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
        keys["max_iter"] = draw(
            st.one_of(
                st.integers(min_value=-3, max_value=1000).map(str),
                st.sampled_from(["2.5", "1e400", "-1e400"]),
            )
        )
        _optional(draw, keys, "tol", _NUMBERS)
        return command, keys
    if command in ("filter", "dip-width"):
        # dip-width reads a source only by phase-matching width and tilt
        _source_keys(draw, keys, kappas=command == "filter")
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
        _optional(draw, keys, "tau_span_sigmas", _NUMBERS)
        return command, keys
    keys.update(draw(_state_keys()))
    if command == "hom-scan":  # analytic mode: tmax is always present
        keys["tmax"] = draw(_NUMBERS)
        _optional(draw, keys, "beta_sq", _NUMBERS)
        _optional(draw, keys, "dip_sigma", _NUMBERS, " ps")
        _optional(draw, keys, "reference_fwhm", _NUMBERS, " nm")
        _optional(draw, keys, "center_wavelength", _NUMBERS, " nm")
        _optional(draw, keys, "tau_steps", _COUNTS)
        _optional(draw, keys, "tau_span_sigmas", _NUMBERS)
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


@settings(max_examples=300, deadline=None)
@given(_grid_free_commands())
@example(
    (
        "herald-stats",
        {"gain_sq_list": "0.01, 0.02", "nmax": "1000000000000"},
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
             dip_sigma="1.7976931348623157e308 ps",
             tau_span_sigmas="1.7976931348623157e308"),
    )
)
@example(
    (
        "hom-scan",
        dict(_STATE, tmax="0.5", beta_sq="0.05", dip_sigma="1 ps",
             tau_span_sigmas="1e200"),
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
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
