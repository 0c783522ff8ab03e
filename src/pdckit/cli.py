"""Command-line front end.

Each subcommand reads a flat scenario file, dispatches to the model
modules and emits a CSV table (to --out or stdout).  Identical
configuration yields byte-identical output; diagnostics go to stderr.
Exit codes: 0 success, 1 usage, configuration or invalid-input error
(one `error:` line), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import hom_reference as hom
from . import jsa, photon_stats, twin_hom, units
from .errors import ConfigError, NumericalError, require
from .scenario import Scenario

DEFAULT_CENTER_WAVELENGTH = 796e-9
_MAX_STEPS = 10_000  # longest sweep or delay axis a command builds
# largest photon number or mode count herald-stats accepts: a distribution
# of 1,000 modes at nmax 1,000 takes about 0.1 ms in closed form
_MAX_HERALD = 1_000


def _emit(header, rows, out_path: Path | None) -> None:
    """Write the table as CSV: text cells as they are, 0 for a zero,
    %.9e below 1e-3 in magnitude and %.9g otherwise (nan and inf too).

    Cells are text or Python numbers; pass numpy results through
    .tolist().
    """
    lines = [",".join(header)]
    lines.extend(
        ",".join(
            [
                cell if cell.__class__ is str
                else "0" if cell == 0
                else "%.9e" % cell if -1e-3 < cell < 1e-3
                else "%.9g" % cell
                for cell in row
            ]
        )
        for row in rows
    )
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.write_text(text, newline="")


def _read_csv_columns(path: Path, names: tuple[str, ...]) -> list[tuple]:
    """The named columns of a CSV file, as rows of finite floats."""
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            fields = reader.fieldnames or []
            # a short row leaves None in its missing cells
            cells = [[row.get(name) for name in names] for row in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}")
    except ValueError as exc:  # bytes that do not decode
        raise ConfigError(f"non-numeric entry in {path}: {exc}")
    for name in names:
        if name not in fields:
            raise ConfigError(f"data file {path} lacks column {name!r}")
    if not cells:
        raise ConfigError(f"data file {path} contains no rows")
    try:
        rows = [tuple(float(cell) for cell in row) for row in cells]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"non-numeric entry in {path}: {exc}")
    for row in rows:
        for name, value in zip(names, row):
            if not math.isfinite(value):
                raise ConfigError(
                    f"data file {path}: column {name!r}: "
                    f"not a finite number: {value!r}"
                )
    return rows


# -- parameter assembly ----------------------------------------------------


def _center_wavelength(sc: Scenario) -> float:
    wavelength = sc.quantity(
        "center_wavelength", "length", default=DEFAULT_CENTER_WAVELENGTH
    )
    if not wavelength > 0:
        raise ConfigError("key 'center_wavelength': must be positive")
    return wavelength


def _width_from_fwhm(sc: Scenario, key: str, wavelength: float, **kw):
    fwhm = sc.quantity(key, "length", **kw)
    if fwhm is None:
        return None
    if fwhm <= 0:
        raise ConfigError(f"key {key!r}: width must be positive")
    return units.wavelength_fwhm_to_width(fwhm, wavelength)


def _source_params(sc: Scenario, default_pump_nm: float | None = None):
    """PdcModelParams from pump_fwhm, length, gamma and either explicit
    group-velocity mismatches or a phase-matching width plus tilt."""
    wavelength = _center_wavelength(sc)
    sigma_pump = _width_from_fwhm(sc, "pump_fwhm", wavelength)
    if sigma_pump is None:
        if default_pump_nm is None:
            raise ConfigError("missing required key 'pump_fwhm'")
        sigma_pump = units.wavelength_fwhm_to_width(
            default_pump_nm * 1e-9, wavelength
        )
    length = sc.quantity("length", "length", required=True)
    gamma = sc.number("gamma", default=0.193)
    kappa_s = sc.quantity("kappa_s", "inverse_velocity")
    kappa_i = sc.quantity("kappa_i", "inverse_velocity")
    if kappa_s is not None or kappa_i is not None:
        if kappa_s is None or kappa_i is None:
            raise ConfigError("kappa_s and kappa_i must be given together")
        return jsa.PdcModelParams(
            sigma_pump=sigma_pump,
            kappa_s=kappa_s,
            kappa_i=kappa_i,
            length=length,
            gamma=gamma,
        )
    pm = _width_from_fwhm(sc, "pm_fwhm", wavelength)
    tilt = sc.quantity("tilt", "angle")
    if pm is None or tilt is None:
        raise ConfigError(
            "missing required key 'kappa_s'/'kappa_i' or 'pm_fwhm'/'tilt'"
        )
    return jsa.params_from_pm_estimate(
        sigma_pump=sigma_pump,
        pm_amplitude_width=pm,
        tilt_deg=tilt,
        length=length,
        gamma=gamma,
    )


def _count(
    sc: Scenario, key: str, default: int, low: int = 2, high: int = _MAX_STEPS
) -> int:
    """A count that sizes an array or a loop, checked before either exists."""
    count = sc.integer(key, default=default)
    if not low <= count <= high:
        raise ConfigError(f"key {key!r}: must lie in [{low}, {high}]")
    return count


def _sweep(sc: Scenario, stem: str, geometric: bool = False) -> list[float]:
    explicit = sc.number_list(f"{stem}_list")
    if explicit is not None:
        return explicit
    low = sc.number(f"{stem}_min", required=True)
    high = sc.number(f"{stem}_max", required=True)
    steps = _count(sc, f"{stem}_steps", 21)
    if high <= low:
        raise ConfigError(f"key {stem!r}: need {stem}_min < {stem}_max")
    if geometric:
        if low <= 0:
            raise ConfigError(f"key {stem}_min must be positive")
        return np.geomspace(low, high, steps).tolist()
    return np.linspace(low, high, steps).tolist()


def _signal_state(sc: Scenario) -> hom.SignalState:
    p0 = sc.number("p0", required=True)
    p1 = sc.number("p1", required=True)
    p2 = sc.number("p2", required=True)
    return hom.SignalState(p0=p0, p1=p1, p2=p2)


def _ellipse_row(label: str, e: jsa.CorrelationEllipse, wavelength: float):
    def to_nm(width: float) -> float:
        if math.isinf(width):
            return math.inf
        return units.width_to_wavelength_fwhm(width, wavelength) * 1e9

    return [
        label,
        e.m11,
        e.m12,
        e.m22,
        e.tilt_deg,
        e.major_width,
        e.minor_width,
        e.aspect_ratio,
        to_nm(e.major_width),
        to_nm(e.minor_width),
    ]


_ELLIPSE_HEADER = [
    "stage",
    "m11_s2",
    "m12_s2",
    "m22_s2",
    "tilt_deg",
    "major_width_rad_s",
    "minor_width_rad_s",
    "aspect_ratio",
    "major_fwhm_nm",
    "minor_fwhm_nm",
]


# -- command handlers -------------------------------------------------------


def _cmd_ellipse(sc: Scenario) -> tuple[list, list, list]:
    wavelength = _center_wavelength(sc)
    params = _source_params(sc)
    ellipse = jsa.build_ellipse(params)
    rows = [_ellipse_row("source", ellipse, wavelength)]
    return _ELLIPSE_HEADER, rows, [
        f"tilt = {ellipse.tilt_deg:.3f} deg, aspect ratio = "
        f"{ellipse.aspect_ratio:.3f}"
    ]


def _cmd_filter(sc: Scenario) -> tuple[list, list, list]:
    wavelength = _center_wavelength(sc)
    params = _source_params(sc)
    ws = _width_from_fwhm(sc, "filter_s_fwhm", wavelength, required=True)
    wi = _width_from_fwhm(sc, "filter_i_fwhm", wavelength, required=True)
    unfiltered = jsa.build_ellipse(params)
    source = jsa.filtered_source(params, ws, wi)
    filtered = jsa.ellipse_from_matrix(
        source.m11, source.m12, source.m22, determinant=source.determinant
    )
    rows = [
        _ellipse_row("unfiltered", unfiltered, wavelength),
        _ellipse_row("filtered", filtered, wavelength),
    ]
    summary = [
        f"aspect ratio {unfiltered.aspect_ratio:.3f} -> "
        f"{filtered.aspect_ratio:.3f} after filtering"
    ]
    return _ELLIPSE_HEADER, rows, summary


def _cmd_pm_vs_length(sc: Scenario) -> tuple[list, list, list]:
    """Phase-matching intensity FWHM at the center wavelength against
    medium length; it scales as 1/L."""
    params = _source_params(sc, default_pump_nm=2.5)
    low = sc.quantity("length_min", "length", required=True)
    high = sc.quantity("length_max", "length", required=True)
    steps = _count(sc, "length_steps", 21)
    if high <= low:
        raise ConfigError("need length_min < length_max")
    lengths = np.linspace(low, high, steps)
    require(np.all(lengths > 0), "lengths must be positive")
    # a width too large for a float is inf, and the table says so
    with np.errstate(divide="ignore", over="ignore"):
        fwhm_nm = units.width_to_wavelength_fwhm(
            jsa.pm_width(params, lengths), _center_wavelength(sc)
        ) * 1e9
    rows = np.column_stack((lengths * 1e3, fwhm_nm)).tolist()
    return ["length_mm", "pm_fwhm_nm"], rows, []


def _cmd_twin_hom(sc: Scenario) -> tuple[list, list, list]:
    tilt = sc.quantity("tilt", "angle", required=True)
    gamma = sc.number("gamma", default=0.193)
    aspects = _sweep(sc, "aspect", geometric=True)
    rows = []
    for aspect in aspects:
        breakdown = twin_hom.overlap_breakdown(aspect, tilt, gamma)
        rows.append(
            [
                aspect,
                breakdown.o_spectral,
                breakdown.o_temporal,
                breakdown.o_total,
                twin_hom.visibility_from_overlap(breakdown.o_total),
            ]
        )
    header = [
        "aspect_ratio",
        "spectral_overlap",
        "temporal_overlap",
        "total_overlap",
        "visibility",
    ]
    return header, rows, []


def _cmd_herald_stats(sc: Scenario) -> tuple[list, list, list]:
    modes_unfiltered = _count(sc, "modes_unfiltered", 31, 1, _MAX_HERALD)
    modes_filtered = _count(sc, "modes_filtered", 1, 1, _MAX_HERALD)
    eta_t = sc.number("trigger_efficiency", default=0.0)
    nmax = _count(sc, "nmax", 16, 1, _MAX_HERALD)
    gains = _sweep(sc, "gain_sq")
    rows = []
    for gain in gains:
        means = [
            photon_stats.heralded_dist(
                photon_stats.multimode_dist(
                    photon_stats.MultimodeSource(n_modes=modes, gain_sq=gain),
                    nmax=nmax,
                ),
                eta_t,
            ).mean()
            for modes in (modes_unfiltered, modes_filtered)
        ]
        rows.append([gain, *means])
    summary = []
    if len(gains) >= 2:
        fit = photon_stats.estimate_mode_reduction(
            [(gain, mean_u) for gain, mean_u, _ in rows],
            [(gain, mean_f) for gain, _, mean_f in rows],
        )
        implied = photon_stats.implied_mode_count(
            fit.slope_ratio, modes_filtered
        )
        summary.append(
            f"slope ratio = {fit.slope_ratio:.4f}, implied unfiltered "
            f"modes = {implied:.2f} (intercepts "
            f"{fit.intercept_unfiltered:.4f}, {fit.intercept_filtered:.4f})"
        )
    return ["gain_sq", "mean_unfiltered", "mean_filtered"], rows, summary


def _cmd_visibility_curve(sc: Scenario) -> tuple[list, list, list]:
    state = _signal_state(sc)
    overlap = sc.number("overlap", default=1.0)
    betas = _sweep(sc, "beta_sq", geometric=True)
    visibility = hom.visibility_vs_beta(state, overlap, betas)
    rows = list(zip(betas, visibility.tolist()))
    optimum = hom.beta_opt(state)
    summary = [
        f"beta_sq_opt = {optimum:.6g}, "
        f"visibility_max = {hom.max_visibility(state, overlap):.6g}"
    ]
    return ["beta_sq", "visibility"], rows, summary


def _cmd_fit_overlap(sc: Scenario) -> tuple[list, list, list]:
    state = _signal_state(sc)
    data_path = sc.data_path or sc.path("data")
    if data_path is None:
        raise ConfigError("missing required key 'data' (beta_sq/visibility CSV)")
    measurements = _read_csv_columns(data_path, ("beta_sq", "visibility"))
    fit = hom.fit_overlap(measurements, state)
    rows = [[fit.overlap, fit.stderr, fit.n_points]]
    return ["overlap", "stderr", "n_points"], rows, []


def _reference_and_filters(sc: Scenario, trigger_required: bool):
    """Source, and reference, signal and trigger filter amplitude widths.

    An absent trigger_filter_fwhm, where allowed, leaves the idler open
    (an infinite width).
    """
    wavelength = _center_wavelength(sc)
    params = _source_params(sc)
    wr = _width_from_fwhm(sc, "reference_fwhm", wavelength, required=True)
    ws = _width_from_fwhm(sc, "signal_filter_fwhm", wavelength, required=True)
    wt = _width_from_fwhm(
        sc, "trigger_filter_fwhm", wavelength, required=trigger_required
    )
    return params, wr, ws, math.inf if wt is None else wt


def _span_sigmas(sc: Scenario, sigma_t: float) -> float:
    """tau_span_sigmas, refused unless the delay axis in ps and
    (tau/sigma_t)^2 at its ends are finite."""
    span = sc.number("tau_span_sigmas", default=4.0)
    half = span * sigma_t
    # a sigma_t that is not positive is the library's to refuse
    ratio = half / sigma_t if sigma_t > 0 else 0.0
    if not span > 0 or not math.isfinite(half * 1e12 + ratio * ratio):
        raise ConfigError(
            "key 'tau_span_sigmas': must be positive, with a finite "
            "delay axis and a finite (tau/dip_sigma)^2"
        )
    return span


def _cmd_hom_scan(sc: Scenario) -> tuple[list, list, list]:
    state = _signal_state(sc)
    beta_sq = sc.number("beta_sq", required=True)
    if "tmax" in sc.values:
        overlap_max = sc.number("tmax", required=True)
        sigma_t = sc.quantity("dip_sigma", "time", required=True)
        center = 0.0
    else:
        params, wr, ws, wt = _reference_and_filters(sc, trigger_required=False)
        source = jsa.filtered_source(params, ws, wt)
        overlap_max = source.tmax(wr)
        sigma_t = source.dip_sigma(wr)
        center = source.delay
    scan = hom.hom_scan_analytic(
        state,
        beta_sq,
        overlap_max,
        sigma_t,
        n_points=_count(sc, "tau_steps", 81),
        span_sigmas=_span_sigmas(sc, sigma_t),
    )
    rows = np.column_stack(
        (scan.tau_axis * 1e12, scan.overlap, scan.coincidence)
    ).tolist()
    summary = [
        f"visibility = {scan.visibility:.6g}",
        f"dip sigma = {sigma_t * 1e12:.6g} ps, fwhm = "
        f"{units.normal_sigma_to_fwhm(sigma_t) * 1e12:.6g} ps",
        f"dip center offset = {center * 1e12:.6g} ps",
    ]
    return ["tau_ps", "overlap", "coincidence"], rows, summary


def _cmd_dip_width(sc: Scenario) -> tuple[list, list, list]:
    wavelength = _center_wavelength(sc)
    sigma_pump = _width_from_fwhm(sc, "pump_fwhm", wavelength, required=True)
    sigma_ref = _width_from_fwhm(
        sc, "reference_fwhm", wavelength, required=True
    )
    sigma_filter = _width_from_fwhm(
        sc, "signal_filter_fwhm", wavelength, required=True
    )
    sigma_pm = _width_from_fwhm(sc, "pm_fwhm", wavelength, required=True)
    tilt = sc.quantity("tilt", "angle", required=True)
    # M, and with it the dip width, does not depend on the length,
    # which dip-width does not read
    params = jsa.params_from_pm_estimate(
        sigma_pump, sigma_pm, tilt, length=1.0
    )
    sigma_t = jsa.filtered_source(params, sigma_filter).dip_sigma(sigma_ref)
    rows = [[sigma_t * 1e12, units.normal_sigma_to_fwhm(sigma_t) * 1e12]]
    return ["dip_sigma_ps", "dip_fwhm_ps"], rows, []


def _cmd_tmax(sc: Scenario) -> tuple[list, list, list]:
    params, wr, ws, wt = _reference_and_filters(sc, trigger_required=True)
    rows = []
    for label, trigger in (("two-fold", math.inf), ("three-fold", wt)):
        source = jsa.filtered_source(params, ws, trigger)
        rows.append([label, source.tmax(wr), source.purity])
    return ["case", "tmax", "purity"], rows, []


def _cmd_invert(sc: Scenario) -> tuple[list, list, list]:
    efficiency = sc.number("efficiency", required=True)
    observed = sc.number_list("observed")
    if observed is None:
        data_path = sc.data_path or sc.path("data")
        if data_path is None:
            raise ConfigError("missing required key 'observed' or 'data'")
        observed = [
            row[0] for row in _read_csv_columns(data_path, ("probability",))
        ]
    observable = sc.word(
        "observable", ("photon", "clicks"), default="photon"
    )
    max_iter = sc.integer("max_iter", default=100_000)
    tol = sc.number("tol", default=1e-10)
    if observable == "clicks":
        result = photon_stats.ml_invert(
            photon_stats.ClickDist(np.asarray(observed)),
            efficiency,
            max_iter=max_iter,
            tol=tol,
        )
    else:
        result = photon_stats.invert_loss_only(
            np.asarray(observed),
            efficiency,
            max_iter=max_iter,
            tol=tol,
        )
    if not result.converged:
        reason = f"KKT gap {result.kkt_gap:.2e} above tol {tol:g}"
        if math.isinf(result.kkt_gap):
            reason = "an observed outcome has zero probability under R"
        raise NumericalError(
            f"inversion did not converge in {result.iterations} of "
            f"{max_iter} iterations: {reason}"
        )
    rows = list(enumerate(result.state.probs.tolist()))
    summary = [
        f"converged in {result.iterations} iterations, "
        f"log-likelihood {result.log_likelihood:.9g}, "
        f"KKT gap {result.kkt_gap:.2e}, cond(R) {result.condition:.4g}"
    ]
    return ["n", "probability"], rows, summary


def _cmd_fidelity(sc: Scenario) -> tuple[list, list, list]:
    overlap = sc.number("overlap", required=True)
    one_photon = sc.number("one_photon", required=True)
    result = hom.fidelity(overlap, one_photon)
    rows = [[result.spectral_overlap, result.one_photon, result.fidelity]]
    return ["spectral_overlap", "one_photon", "fidelity"], rows, []


_COMMANDS = {
    "ellipse": _cmd_ellipse,
    "filter": _cmd_filter,
    "pm-vs-length": _cmd_pm_vs_length,
    "twin-hom": _cmd_twin_hom,
    "herald-stats": _cmd_herald_stats,
    "visibility-curve": _cmd_visibility_curve,
    "fit-overlap": _cmd_fit_overlap,
    "hom-scan": _cmd_hom_scan,
    "dip-width": _cmd_dip_width,
    "tmax": _cmd_tmax,
    "invert": _cmd_invert,
    "fidelity": _cmd_fidelity,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pdckit",
        description=(
            "Simulation toolkit for heralded single-photon sources based "
            "on waveguided parametric down-conversion"
        ),
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="scenario file")
    parser.add_argument("--out", help="CSV output path (default stdout)")
    parser.add_argument("--data", help="input data CSV for fitting commands")
    parser.add_argument(
        "--grid-points",
        type=int,
        default=12,
        help="samples per amplitude width, at least 8; no command samples "
        "a grid, so it changes no output",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


# Built once per process: every main() call parses with it and keeps no
# other state between calls.
_PARSER = _build_parser()


def main(argv=None) -> int:
    command = "pdckit"
    try:
        args = _PARSER.parse_args(argv)
        command = args.command
        require(args.grid_points >= 8, "need at least 8 samples per width")
        scenario = Scenario.from_file(
            args.command,
            Path(args.config),
            out_path=Path(args.out) if args.out else None,
            data_path=Path(args.data) if args.data else None,
            verbose=args.verbose,
        )
        handler = _COMMANDS[scenario.command]
        header, rows, summary = handler(scenario)
        _emit(header, rows, scenario.out_path)
        for line in summary:
            print(line, file=sys.stderr)
        if scenario.verbose:
            unused = scenario.unused_keys()
            if unused:
                print(
                    f"ignored keys: {', '.join(unused)}", file=sys.stderr
                )
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # invalid input rejected by the library
        print(f"error: {command}: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError:  # input too large or small for a float
        print(f"error: {command}: a value is out of range", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
