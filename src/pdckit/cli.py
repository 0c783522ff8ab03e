"""Command-line front end.

Each subcommand reads a flat scenario file, dispatches to the model
modules and emits a CSV table (to --out or stdout).  Identical
configuration yields byte-identical output; diagnostics go to stderr.
Exit codes: 0 success (`-h`/`--help` prints the usage to stdout),
1 usage, configuration or invalid-input error (one `error:` line),
2 numerical failure.  The command line is read without argparse, which
would cost more per call than most commands: options are spelled out
in full, as `--name value` or `--name=value`, in any order around the
command.
"""

from __future__ import annotations

import csv
import math
import sys

from . import hom_reference as hom
from . import jsa, photon_stats, twin_hom, units
from .errors import ConfigError, NumericalError, require
from .scenario import Scenario

DEFAULT_CENTER_WAVELENGTH = 796e-9
_MAX_STEPS = 10_000  # longest sweep or delay axis a command builds
# largest mode count herald-stats accepts; its heralded mean is exact and
# costs the same at any count, so the bound is the model's range, not a cost
_MAX_HERALD = 1_000


def _emit(header, rows, out_path: str | None) -> None:
    """Write the table as CSV: text cells as they are, 0 for a zero,
    %.9e below 1e-3 in magnitude and %.9g otherwise (nan and inf too).

    Cells are text or Python numbers: no command builds an array.
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
        with open(out_path, "w", newline="") as handle:
            handle.write(text)


def _read_csv_columns(path: str, names: tuple[str, ...]) -> list[tuple]:
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
    width = units.wavelength_fwhm_to_width(fwhm, wavelength)
    # the models add 1/width^2 to a quadratic form; a square that
    # underflows to zero would make that a ZeroDivisionError
    square = width * width
    if not square or math.isinf(1.0 / square):
        raise ConfigError(
            f"key {key!r}: too narrow, 1/width^2 overflows a float"
        )
    return width


def _source_params(
    sc: Scenario, wavelength: float, default_pump_nm: float | None = None
):
    """PdcModelParams from pump_fwhm, length and either explicit
    group-velocity mismatches or a phase-matching width plus tilt, with
    widths read at the given center wavelength."""
    sigma_pump = _width_from_fwhm(sc, "pump_fwhm", wavelength)
    if sigma_pump is None:
        if default_pump_nm is None:
            raise ConfigError("missing required key 'pump_fwhm'")
        sigma_pump = units.wavelength_fwhm_to_width(
            default_pump_nm * 1e-9, wavelength
        )
    length = sc.quantity("length", "length", required=True)
    kappa_s = sc.quantity("kappa_s", "inverse_velocity")
    kappa_i = sc.quantity("kappa_i", "inverse_velocity")
    if kappa_s is None and kappa_i is None:
        pm = _width_from_fwhm(sc, "pm_fwhm", wavelength)
        tilt = sc.quantity("tilt", "angle")
        if pm is None or tilt is None:
            raise ConfigError(
                "missing required key 'kappa_s'/'kappa_i' or 'pm_fwhm'/'tilt'"
            )
        if not 0.0 < tilt < 90.0:
            raise ConfigError("key 'tilt': must lie strictly in (0, 90) deg")
    elif kappa_s is None or kappa_i is None:
        raise ConfigError("kappa_s and kappa_i must be given together")
    # the checks PdcModelParams makes, in its order, naming the key
    if not length > 0:
        raise ConfigError("key 'length': must be positive")
    if kappa_s is not None:
        if kappa_s == 0 and kappa_i == 0:
            raise ConfigError(
                "key 'kappa_s': must not vanish together with kappa_i"
            )
        return jsa.PdcModelParams(
            sigma_pump=sigma_pump,
            kappa_s=kappa_s,
            kappa_i=kappa_i,
            length=length,
        )
    # both kappas are 2 / (this product) times sin or cos of the tilt
    if math.isinf(math.sqrt(jsa.GAMMA) * length * pm):
        raise ConfigError(
            "keys 'pm_fwhm', 'length': too large together, both "
            "group-velocity mismatches would vanish"
        )
    return jsa.params_from_pm_estimate(
        sigma_pump=sigma_pump,
        pm_amplitude_width=pm,
        tilt_deg=tilt,
        length=length,
    )


def _count(
    sc: Scenario, key: str, default: int, low: int = 2, high: int = _MAX_STEPS
) -> int:
    """A count that sizes an array or a loop, checked before either exists."""
    count = sc.integer(key, default=default)
    if not low <= count <= high:
        raise ConfigError(f"key {key!r}: must lie in [{low}, {high}]")
    return count


def _sweep(
    sc: Scenario, stem: str, ok, rule: str, geometric: bool = False
) -> list[float]:
    """The values of <stem>_list, or <stem>_steps values from <stem>_min
    to <stem>_max, spaced evenly or geometrically.  Each must pass ok, or
    the key that holds it is refused with rule; ok tests a range, so a
    min/max sweep is checked at its ends."""
    explicit = sc.number_list(f"{stem}_list")
    if explicit is not None:
        if not all(map(ok, explicit)):
            raise ConfigError(f"key '{stem}_list': {rule}")
        return explicit
    low = sc.number(f"{stem}_min", required=True)
    high = sc.number(f"{stem}_max", required=True)
    steps = _count(sc, f"{stem}_steps", 21)
    if high <= low:
        raise ConfigError(f"key '{stem}_min': need {stem}_min < {stem}_max")
    if geometric and low <= 0:
        raise ConfigError(f"key '{stem}_min': must be positive")
    for end, value in (("min", low), ("max", high)):
        if not ok(value):
            raise ConfigError(f"key '{stem}_{end}': {rule}")
    return (units.geomspace if geometric else units.linspace)(low, high, steps)


def _unit_interval(sc: Scenario, key: str, **kw) -> float:
    """A number that must lie in [0, 1], such as a probability."""
    value = sc.number(key, **kw)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"key {key!r}: must lie in [0, 1]")
    return value


def _signal_state(sc: Scenario) -> hom.SignalState:
    p0, p1, p2 = (
        _unit_interval(sc, key, required=True) for key in ("p0", "p1", "p2")
    )
    if abs(p0 + p1 + p2 - 1.0) > 1e-9:
        raise ConfigError(
            "keys 'p0', 'p1', 'p2': must sum to one within 1e-9"
        )
    return hom.SignalState(p0=p0, p1=p1, p2=p2)


def _ellipse_row(label: str, source: jsa.FilteredSource, wavelength: float):
    def to_nm(width: float) -> float:
        return units.width_to_wavelength_fwhm(width, wavelength) * 1e9

    tilt_deg, major_width, minor_width, aspect_ratio = source.axes()
    return [
        label,
        source.m11,
        source.m12,
        source.m22,
        tilt_deg,
        major_width,
        minor_width,
        aspect_ratio,
        to_nm(major_width),
        to_nm(minor_width),
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
    source = jsa.filtered_source(_source_params(sc, wavelength))
    return _ELLIPSE_HEADER, [_ellipse_row("source", source, wavelength)], []


def _cmd_filter(sc: Scenario) -> tuple[list, list, list]:
    wavelength = _center_wavelength(sc)
    params = _source_params(sc, wavelength)
    ws = _width_from_fwhm(sc, "filter_s_fwhm", wavelength, required=True)
    wi = _width_from_fwhm(sc, "filter_i_fwhm", wavelength, required=True)
    rows = [
        _ellipse_row(label, jsa.filtered_source(params, *widths), wavelength)
        for label, widths in (("unfiltered", ()), ("filtered", (ws, wi)))
    ]
    return _ELLIPSE_HEADER, rows, []


def _cmd_pm_vs_length(sc: Scenario) -> tuple[list, list, list]:
    """Phase-matching intensity FWHM at the center wavelength against
    medium length; it scales as 1/L."""
    wavelength = _center_wavelength(sc)
    params = _source_params(sc, wavelength, default_pump_nm=2.5)
    low = sc.quantity("length_min", "length", required=True)
    high = sc.quantity("length_max", "length", required=True)
    steps = _count(sc, "length_steps", 21)
    if high <= low:
        raise ConfigError("key 'length_min': need length_min < length_max")
    # every length is positive once the first one is
    if low <= 0:
        raise ConfigError("key 'length_min': must be positive")
    # a width too large for a float is inf, and the table says so
    rows = []
    for length in units.linspace(low, high, steps):
        width = jsa.pm_width(params, length)
        fwhm_nm = units.width_to_wavelength_fwhm(width, wavelength) * 1e9
        rows.append([length * 1e3, fwhm_nm])
    return ["length_mm", "pm_fwhm_nm"], rows, []


def _cmd_twin_hom(sc: Scenario) -> tuple[list, list, list]:
    tilt = sc.quantity("tilt", "angle", required=True)
    aspects = _sweep(
        sc, "aspect", lambda a: a >= 1.0, "must be at least 1", geometric=True
    )
    rows = []
    for aspect in aspects:
        spectral, temporal = twin_hom.model_source(aspect, tilt).twin_overlap()
        total = spectral * temporal
        rows.append(
            [
                aspect,
                spectral,
                temporal,
                total,
                twin_hom.visibility_from_overlap(total),
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
    eta_t = _unit_interval(sc, "trigger_efficiency", default=0.0)
    gains = _sweep(
        sc, "gain_sq", lambda g: 0.0 <= g < 1.0, "must lie in [0, 1)"
    )
    rows = [
        [
            gain,
            photon_stats.heralded_mean(modes_unfiltered, gain, eta_t),
            photon_stats.heralded_mean(modes_filtered, gain, eta_t),
        ]
        for gain in gains
    ]
    return ["gain_sq", "mean_unfiltered", "mean_filtered"], rows, []


def _cmd_visibility_curve(sc: Scenario) -> tuple[list, list, list]:
    state = _signal_state(sc)
    overlap = _unit_interval(sc, "overlap", default=1.0)
    betas = _sweep(
        sc, "beta_sq", lambda b: b >= 0.0, "must be nonnegative",
        geometric=True,
    )
    rows = [
        [beta_sq, hom.visibility_vs_beta(state, overlap, beta_sq)]
        for beta_sq in betas
    ]
    optimum = hom.beta_opt(state)
    summary = [
        f"beta_sq_opt = {optimum:.6g}, "
        f"visibility_max = {hom.max_visibility(state, overlap):.6g}"
    ]
    return ["beta_sq", "visibility"], rows, summary


def _cmd_fit_overlap(sc: Scenario) -> tuple[list, list, list]:
    state = _signal_state(sc)
    if sc.data_path is None:
        raise ConfigError("missing required option '--data'")
    path = sc.data_path
    measurements = _read_csv_columns(path, ("beta_sq", "visibility"))
    # the checks fit_overlap makes, in its order, naming the file
    beta_sq = [b for b, _ in measurements]
    if len(measurements) < 3:
        raise ConfigError(f"data file {path}: need at least three rows")
    if min(beta_sq) <= 0:
        raise ConfigError(
            f"data file {path}: column 'beta_sq': must be positive"
        )
    if len(set(beta_sq)) < 2:
        raise ConfigError(
            f"data file {path}: column 'beta_sq': need two distinct values"
        )
    if state.p1 == 0:
        raise ConfigError("key 'p1': must be positive to fit an overlap")
    fit = hom.fit_overlap(measurements, state)
    rows = [[fit.overlap, fit.stderr, len(measurements)]]
    return ["overlap", "stderr", "n_points"], rows, []


def _source_and_filters(sc: Scenario):
    """Center wavelength, source, reference and signal filter widths."""
    wavelength = _center_wavelength(sc)
    params = _source_params(sc, wavelength)
    wr = _width_from_fwhm(sc, "reference_fwhm", wavelength, required=True)
    ws = _width_from_fwhm(sc, "signal_filter_fwhm", wavelength, required=True)
    return wavelength, params, wr, ws


def _cmd_hom_scan(sc: Scenario) -> tuple[list, list, list]:
    state = _signal_state(sc)
    beta_sq = sc.number("beta_sq", required=True)
    if beta_sq < 0.0:
        raise ConfigError("key 'beta_sq': must be nonnegative")
    if beta_sq >= 0.2:  # the range of hom_reference.coincidence_simplified
        raise ConfigError(
            "key 'beta_sq': must be below 0.2, where the leading-order "
            "dip model holds"
        )
    if "tmax" in sc.values:
        overlap_max = _unit_interval(sc, "tmax", required=True)
        sigma_t = sc.quantity("dip_sigma", "time", required=True)
        if not sigma_t > 0:
            raise ConfigError("key 'dip_sigma': must be positive")
        center = 0.0
    else:
        wavelength, params, wr, ws = _source_and_filters(sc)
        # an absent trigger filter leaves the idler open
        wt = _width_from_fwhm(
            sc, "trigger_filter_fwhm", wavelength, default=math.inf
        )
        source = jsa.filtered_source(params, ws, wt)
        overlap_max = source.tmax(wr)
        sigma_t = source.dip_sigma(wr)
        center = source.delay
    n_points = _count(sc, "tau_steps", 81)
    # the delay axis, printed in ps, must be finite at its ends; a
    # source's dip sigma, the root of a finite float, is below 1.4e154 s
    if not math.isfinite(hom.SPAN_SIGMAS * sigma_t * 1e12):
        raise ConfigError("key 'dip_sigma': too large for a delay axis in ps")
    scan = hom.hom_scan_analytic(
        state, beta_sq, overlap_max, sigma_t, n_points
    )
    rows = [
        [tau * 1e12, overlap, coincidence]
        for tau, overlap, coincidence in zip(
            scan.tau_axis, scan.overlap, scan.coincidence
        )
    ]
    summary = [
        f"visibility = {scan.visibility:.6g}",
        f"dip sigma = {sigma_t * 1e12:.6g} ps, fwhm = "
        f"{units.normal_sigma_to_fwhm(sigma_t) * 1e12:.6g} ps",
        f"dip center offset = {center * 1e12:.6g} ps",
    ]
    return ["tau_ps", "overlap", "coincidence"], rows, summary


def _cmd_dip_width(sc: Scenario) -> tuple[list, list, list]:
    _, params, wr, ws = _source_and_filters(sc)
    sigma_t = jsa.filtered_source(params, ws).dip_sigma(wr)
    rows = [[sigma_t * 1e12, units.normal_sigma_to_fwhm(sigma_t) * 1e12]]
    return ["dip_sigma_ps", "dip_fwhm_ps"], rows, []


def _cmd_tmax(sc: Scenario) -> tuple[list, list, list]:
    wavelength, params, wr, ws = _source_and_filters(sc)
    wt = _width_from_fwhm(sc, "trigger_filter_fwhm", wavelength, required=True)
    rows = []
    for label, trigger in (("two-fold", math.inf), ("three-fold", wt)):
        source = jsa.filtered_source(params, ws, trigger)
        rows.append([label, source.tmax(wr), source.purity])
    return ["case", "tmax", "purity"], rows, []


def _cmd_invert(sc: Scenario) -> tuple[list, list, list]:
    efficiency = sc.number("efficiency", required=True)
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError("key 'efficiency': must lie in (0, 1]")
    observed = sc.number_list("observed", required=True)
    if min(observed) < 0.0:
        raise ConfigError("key 'observed': must be nonnegative")
    observable = sc.word(
        "observable", ("photon", "clicks"), default="photon"
    )
    if observable == "clicks":
        invert = photon_stats.ml_invert
        if len(observed) != 3:
            raise ConfigError(
                "key 'observed': a two-bin detector has 3 outcomes"
            )
    else:
        invert = photon_stats.invert_loss_only
        if len(observed) < 2:
            raise ConfigError("key 'observed': need at least 2 outcomes")
        # a Newton step of the face solve costs O(K^3) float operations
        if len(observed) > 16:
            raise ConfigError("key 'observed': at most 16 outcomes")
    if abs(math.fsum(observed) - 1.0) > 1e-9:
        raise ConfigError("key 'observed': must sum to one within 1e-9")
    result = invert(observed, efficiency)
    if not result.converged:
        reason = f"KKT gap {result.kkt_gap:.2e} above {photon_stats.KKT_GAP:g}"
        if math.isinf(result.kkt_gap):
            reason = "an observed outcome has zero probability under R"
        raise NumericalError(f"inversion did not converge: {reason}")
    rows = list(enumerate(result.state))
    summary = [
        f"converged in {result.iterations} iterations, "
        f"log-likelihood {result.log_likelihood:.9g}, "
        f"KKT gap {result.kkt_gap:.2e}, cond(R) {result.condition:.4g}"
    ]
    return ["n", "probability"], rows, summary


def _cmd_fidelity(sc: Scenario) -> tuple[list, list, list]:
    overlap = _unit_interval(sc, "overlap", required=True)
    one_photon = _unit_interval(sc, "one_photon", required=True)
    rows = [[overlap, one_photon, hom.fidelity(overlap, one_photon)]]
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


_OPTIONS = ("--config", "--out", "--data", "--grid-points")
_USAGE = """\
usage: pdckit COMMAND --config FILE [--out FILE] [--data FILE]
              [--grid-points N] [--verbose]

commands:
{}

options:
  --config FILE    scenario file (required)
  --out FILE       CSV output path (default stdout)
  --data FILE      beta_sq,visibility CSV for fit-overlap
  --grid-points N  samples per amplitude width, at least 8 (default 12);
                   no command samples a grid, so it changes no output
  --verbose        list the scenario keys the command does not read
  -h, --help       print this text and exit
""".format("\n".join("  " + name for name in sorted(_COMMANDS)))


def _parse_argv(argv) -> tuple | None:
    """(command, verbose, config, out, data, grid_points) from a command
    line, or None if it asks for help.

    Options are `--name value` or `--name=value`, in any order around
    the command, and a repeated option keeps its last value.
    """
    command, verbose, values = None, False, dict.fromkeys(_OPTIONS)
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if token == "--verbose":
            verbose = True
        elif token.startswith("-"):
            name, equals, value = token.partition("=")
            if name not in values:
                raise ConfigError(f"unknown option {token!r}")
            if not equals:
                value = next(tokens, None)
                # a value that looks like an option is one left out
                if value is None or value.startswith("--"):
                    raise ConfigError(f"option {name!r} needs a value")
            values[name] = value
        elif command is None:
            command = token
        else:
            raise ConfigError(f"unexpected argument {token!r}")
    if command not in _COMMANDS:
        problem = f"unknown command {command!r}" if command else "no command"
        raise ConfigError(
            f"{problem} (choose from {', '.join(sorted(_COMMANDS))})"
        )
    config, out, data, grid_points = values.values()
    if config is None:
        raise ConfigError("missing required option '--config'")
    try:
        grid_points = 12 if grid_points is None else int(grid_points)
    except ValueError:
        raise ConfigError(
            f"option '--grid-points': not an integer: {grid_points!r}"
        )
    return command, verbose, config, out, data, grid_points


def main(argv=None) -> int:
    command = "pdckit"
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(_USAGE)
            return 0
        command, verbose, config, out, data, grid_points = parsed
        require(grid_points >= 8, "need at least 8 samples per width")
        # paths stay strings: a pathlib.Path per call interns its parts,
        # and that churn grew the process by 0.6-1.4 MB over its first
        # 20,000 calls
        scenario = Scenario.from_file(config, data or None)
        header, rows, summary = _COMMANDS[command](scenario)
        _emit(header, rows, out or None)
        for line in summary:
            print(line, file=sys.stderr)
        if verbose:
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
