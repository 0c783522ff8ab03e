"""Expected outputs of pdckit commands, computed by the benchmark's own route.

Nothing here imports pdckit.  Spectral quantities come from the
Gaussian closed forms of the 2x2 quadratic form M of the joint
amplitude (and M' = M + diag(1/w_s^2, 1/w_t^2) after filtering),
inversions from a direct solve of the response matrix built from
binomials, and the remaining commands from their defining formulas.
Each check compares a command's printed CSV with these values within
the CSV's printed precision plus the method's own error, and returns a
list of problems (empty when the output is correct).
"""

from __future__ import annotations

import math

import numpy as np

WAVELENGTH = 796e-9  # m, the CLI's default center wavelength
C_LIGHT = 299_792_458.0
SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))

# Printed CSV cells carry nine significant digits, so a correct value
# may differ from the exact one by 5e-9 relative.
PRINT_RTOL = 1e-8
# Grid quadrature of a Gaussian agrees with the closed form to about
# 1e-15 absolute; this leaves room for printing only.
GRID_RTOL = 2e-8


# -- physics by the benchmark's own route ----------------------------------


def width_from_nm(fwhm_nm: float) -> float:
    """Amplitude 1/e half-width (rad/s) of an intensity FWHM in nm at 796 nm."""
    return fwhm_nm * 1e-9 * 2.0 * math.pi * C_LIGHT / WAVELENGTH**2 / SQRT_2LN2


def nm_from_width(width: float) -> float:
    return width * SQRT_2LN2 * WAVELENGTH**2 / (2.0 * math.pi * C_LIGHT) * 1e9


def source_matrix(pump_nm: float, pm_nm: float, tilt_deg: float):
    """(m11, m12, m22) of a source given by pump, phase-matching width and tilt.

    With kappa_s : kappa_i = tan(tilt) and the phase-matching width fixing
    their magnitude, gamma L^2 kappa_a kappa_b / 4 reduces to the
    direction cosines over w_pm^2, so length and gamma drop out.
    """
    a = 1.0 / width_from_nm(pump_nm) ** 2
    w = width_from_nm(pm_nm)
    s, c = math.sin(math.radians(tilt_deg)), math.cos(math.radians(tilt_deg))
    return a + s * s / w**2, a + s * c / w**2, a + c * c / w**2


def source_determinant(pump_nm: float, pm_nm: float, tilt_deg: float) -> float:
    s, c = math.sin(math.radians(tilt_deg)), math.cos(math.radians(tilt_deg))
    return (s - c) ** 2 / (width_from_nm(pump_nm) * width_from_nm(pm_nm)) ** 2


def grid_ratio(pump_nm: float, pm_nm: float, tilt_deg: float) -> float:
    """max(m11, m22)/sqrt(det M): the grid has 2*ceil(4*spw*ratio)+1 points."""
    m11, _, m22 = source_matrix(pump_nm, pm_nm, tilt_deg)
    return max(m11, m22) / math.sqrt(source_determinant(pump_nm, pm_nm, tilt_deg))


def filtered_overlap(m, ws: float, wt: float, wr: float):
    """(Tmax, purity, dip sigma_t) of the filtered, heralded signal.

    ws, wt, wr are the signal-filter, trigger-filter and reference
    amplitude widths; an infinite width is an open channel.
    """
    m11 = m[0] + 1.0 / ws**2
    m12 = m[1]
    m22 = m[2] + (0.0 if math.isinf(wt) else 1.0 / wt**2)
    a = m11 - m12**2 / (2.0 * m22)
    b = m12**2 / (2.0 * m22)
    r = 1.0 / wr**2
    tmax = 2.0 * math.sqrt(r * (a - b)) / math.sqrt((a + r) ** 2 - b**2)
    purity = math.sqrt(1.0 - m12**2 / (m11 * m22))
    return tmax, purity, math.sqrt(m11 + r)


def ellipse_row(label: str, m11: float, m12: float, m22: float) -> list:
    values, vectors = np.linalg.eigh(np.array([[m11, m12], [m12, m22]]))
    lam_min, lam_max = values
    major = vectors[:, 0]  # the smaller eigenvalue spans the major axis
    tilt = math.degrees(math.atan2(abs(major[1]), abs(major[0])))
    minor_w, major_w = 1.0 / math.sqrt(lam_max), 1.0 / math.sqrt(lam_min)
    return [label, m11, m12, m22, tilt, major_w, minor_w, major_w / minor_w,
            nm_from_width(major_w), nm_from_width(minor_w)]


def twin_overlaps(aspect: float, tilt_deg: float, gamma: float):
    """(spectral, temporal) twin overlap from the Gaussian exchange integral.

    For phi = exp(-nu^T T nu + i k.nu) the exchange integral over the
    norm is sqrt(det 2T / det Q) exp(-b^T Q^-1 b / 4) with Q = T + PTP and
    b = k - Pk, P the swap; the phase slope identifies the
    phase-matching width with the minor axis.
    """
    s, c = math.sin(math.radians(tilt_deg)), math.cos(math.radians(tilt_deg))
    lam_min = 1.0 / aspect**2
    t = np.array([[lam_min * c * c + s * s, (1.0 - lam_min) * s * c],
                  [(1.0 - lam_min) * s * c, lam_min * s * s + c * c]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = t + swap @ t @ swap
    k = np.array([s, c]) / math.sqrt(gamma)
    b = k - swap @ k
    spectral = math.sqrt(np.linalg.det(2.0 * t) / np.linalg.det(q))
    temporal = math.exp(-float(b @ np.linalg.solve(q, b)) / 4.0)
    return spectral, temporal


def loss_response(eta: float) -> np.ndarray:
    """Binomial loss map L[m, n] = C(n, m) eta^m (1-eta)^(n-m) on n = 0, 1, 2."""
    out = np.zeros((3, 3))
    for n in range(3):
        for m in range(n + 1):
            out[m, n] = math.comb(n, m) * eta**m * (1.0 - eta) ** (n - m)
    return out


def click_response(eta: float) -> np.ndarray:
    """Two-bin click map after loss, on n = 0, 1, 2: P(1|n) = 2^(1-n)."""
    split = np.zeros((3, 3))
    split[0, 0] = 1.0
    for n in (1, 2):
        split[1, n] = 2.0 ** (1 - n)
        split[2, n] = 1.0 - 2.0 ** (1 - n)
    return split @ loss_response(eta)


def em_rate(response: np.ndarray, rho: np.ndarray) -> tuple[float, float]:
    """(lambda, c) of the EM fixed point: steps shrink as c * lambda^k.

    The EM map's Jacobian at an interior fixed point is
    I - diag(rho) R^T diag(1/y) R; its largest eigenvalue is the linear
    contraction rate, and c is the size of the step that the uniform
    starting point leaves along the slow eigenvector.
    """
    y = response @ rho
    jac = np.eye(rho.size) - np.diag(rho) @ response.T @ np.diag(1.0 / y) @ response
    values, vectors = np.linalg.eig(jac)
    slow = int(np.argmax(values.real))
    lam = float(values[slow].real)
    start = np.full(rho.size, 1.0 / rho.size) - rho
    coeff = np.linalg.solve(vectors, start)[slow].real
    return lam, abs(coeff) * (1.0 - lam) * float(np.max(np.abs(vectors[:, slow].real)))


def em_tolerance(response: np.ndarray, rho: np.ndarray, tol: float) -> float:
    """Allowed distance of an EM result from the exact optimum.

    EM stops when a step falls below tol; at contraction rate lambda
    the remaining distance is about tol/(1 - lambda).  A factor 100 on
    that, and the printed precision, keeps any correct solver inside.
    """
    lam, _ = em_rate(response, rho)
    return 100.0 * tol / (1.0 - lam) + 1e-9


def read_config(path) -> dict[str, str]:
    """Flat `key = value` text, comments after '#'."""
    values = {}
    with open(path) as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    return values


# -- expected tables --------------------------------------------------------


def _tau_axis(sigma: float, n: int, span: float) -> list[float]:
    return [(-span + 2.0 * span * k / (n - 1)) * sigma for k in range(n)]


def _coincidence(state, beta_sq: float, overlap: float) -> float:
    p0, p1, p2 = state
    x = beta_sq / 2.0
    return p0 * x * x + p1 * x * (1.0 - overlap) + p2 / 2.0


def _scan_table(p: dict, tmax: float, sigma: float, rtol: float):
    taus = _tau_axis(sigma, p["tau_steps"], 4.0)
    rows = []
    for tau in taus:
        overlap = tmax * math.exp(-tau * tau / (2.0 * sigma * sigma))
        rows.append([tau * 1e12, overlap, _coincidence(p["state"], p["beta_sq"], overlap)])
    # the middle delay is zero up to rounding of the program's axis
    tols = [(PRINT_RTOL, 1e-9 * sigma * 1e12), (rtol, 0.0), (rtol, 0.0)]
    return ["tau_ps", "overlap", "coincidence"], rows, tols


def expected(cmd) -> tuple[list, list, list]:
    """(header, rows, per-column (rtol, atol)) that `cmd` must print."""
    p = cmd.params
    kind = cmd.kind
    if kind == "tmax":
        m = source_matrix(p["pump_nm"], p["pm_nm"], p["tilt_deg"])
        ws, wt, wr = (width_from_nm(p[k]) for k in ("signal_nm", "trigger_nm", "reference_nm"))
        rows = []
        for label, trigger in (("two-fold", math.inf), ("three-fold", wt)):
            tmax, purity, _ = filtered_overlap(m, ws, trigger, wr)
            rows.append([label, tmax, purity])
        return ["case", "tmax", "purity"], rows, [None, (GRID_RTOL, 0.0), (GRID_RTOL, 0.0)]
    if kind == "hom-scan" and "pump_nm" in p:
        m = source_matrix(p["pump_nm"], p["pm_nm"], p["tilt_deg"])
        ws, wt, wr = (width_from_nm(p[k]) for k in ("signal_nm", "trigger_nm", "reference_nm"))
        tmax, _, sigma = filtered_overlap(m, ws, wt, wr)
        return _scan_table(p, tmax, sigma, GRID_RTOL)
    if kind == "hom-scan":
        return _scan_table(p, p["tmax"], p["dip_sigma_ps"] * 1e-12, PRINT_RTOL)
    if kind == "invert":
        if p["observable"] == "clicks":
            response = click_response(p["efficiency"])
        else:
            response = loss_response(p["efficiency"])
        # clicks were made from a known state; measured data has the
        # exact solution of the square system as its optimum
        truth = np.asarray(p["truth"]) if "truth" in p else np.linalg.solve(
            response, np.asarray(p["observed"]))
        atol = em_tolerance(response, truth, p["tol"])
        rows = [[n, float(x)] for n, x in enumerate(truth)]
        return ["n", "probability"], rows, [(0.0, 0.0), (PRINT_RTOL, atol)]
    if kind in ("ellipse", "filter"):
        m = source_matrix(p["pump_nm"], p["pm_nm"], p["tilt_deg"])
        header = ["stage", "m11_s2", "m12_s2", "m22_s2", "tilt_deg", "major_width_rad_s",
                  "minor_width_rad_s", "aspect_ratio", "major_fwhm_nm", "minor_fwhm_nm"]
        tols = [None] + [(PRINT_RTOL, 0.0)] * 9
        if kind == "ellipse":
            return header, [ellipse_row("source", *m)], tols
        ws, wi = width_from_nm(p["filter_s_nm"]), width_from_nm(p["filter_i_nm"])
        rows = [ellipse_row("unfiltered", *m),
                ellipse_row("filtered", m[0] + 1.0 / ws**2, m[1], m[2] + 1.0 / wi**2)]
        return header, rows, tols
    if kind == "pm-vs-length":
        n = p["steps"]
        lengths = [p["length_min_mm"] + (p["length_max_mm"] - p["length_min_mm"]) * k / (n - 1)
                   for k in range(n)]
        rows = [[L, p["pm_nm"] * p["length_mm"] / L] for L in lengths]
        return ["length_mm", "pm_fwhm_nm"], rows, [(PRINT_RTOL, 0.0)] * 2
    if kind == "twin-hom":
        rows = []
        for aspect in p["aspects"]:
            spectral, temporal = twin_overlaps(aspect, p["tilt_deg"], p["gamma"])
            total = spectral * temporal
            rows.append([aspect, spectral, temporal, total, (1.0 + total) / (3.0 - total)])
        header = ["aspect_ratio", "spectral_overlap", "temporal_overlap", "total_overlap",
                  "visibility"]
        return header, rows, [(PRINT_RTOL, 0.0)] * 5
    if kind == "herald-stats":
        rows = []
        for g in p["gains"]:
            mu = g / (1.0 - g)
            rows.append([g, 1.0 + (p["modes_unfiltered"] + 1) * mu,
                         1.0 + (p["modes_filtered"] + 1) * mu])
        return ["gain_sq", "mean_unfiltered", "mean_filtered"], rows, [(PRINT_RTOL, 0.0)] * 3
    if kind == "visibility-curve":
        p0, p1, p2 = p["state"]
        n = p["steps"]
        lo, hi = p["beta_min"], p["beta_max"]
        rows = []
        for k in range(n):
            beta = lo * (hi / lo) ** (k / (n - 1))
            rows.append([beta, p1 * p["overlap"] / (p0 * beta / 2.0 + p1 + p2 / beta)])
        return ["beta_sq", "visibility"], rows, [(PRINT_RTOL, 0.0)] * 2
    if kind == "fit-overlap":
        rows = [[p["overlap"], 0.0, len(p["betas"])]]
        return ["overlap", "stderr", "n_points"], rows, [(PRINT_RTOL, 0.0), (0.0, 1e-9), (0.0, 0.0)]
    if kind == "dip-width":
        m = source_matrix(p["pump_nm"], p["pm_nm"], p["tilt_deg"])
        sigma = filtered_overlap(m, width_from_nm(p["signal_nm"]), math.inf,
                                 width_from_nm(p["reference_nm"]))[2]
        rows = [[sigma * 1e12, 2.0 * SQRT_2LN2 * sigma * 1e12]]
        return ["dip_sigma_ps", "dip_fwhm_ps"], rows, [(PRINT_RTOL, 0.0)] * 2
    if kind == "fidelity":
        rows = [[p["overlap"], p["one_photon"], math.sqrt(p["overlap"] * p["one_photon"])]]
        return ["spectral_overlap", "one_photon", "fidelity"], rows, [(PRINT_RTOL, 0.0)] * 3
    raise KeyError(f"no expected output for {kind!r}")


# -- checks -----------------------------------------------------------------


def check_table(text: str, header, rows, tols) -> list[str]:
    """Compare printed CSV text with expected rows, cell by cell."""
    if not text.endswith("\n"):
        return ["output does not end with a newline"]
    lines = text[:-1].split("\n")
    if lines[0].split(",") != header:
        return [f"header {lines[0]!r}, expected {','.join(header)!r}"]
    if len(lines) - 1 != len(rows):
        return [f"{len(lines) - 1} rows, expected {len(rows)}"]
    problems = []
    for index, (line, want_row) in enumerate(zip(lines[1:], rows)):
        cells = line.split(",")
        if len(cells) != len(header):
            problems.append(f"row {index}: {len(cells)} cells")
            continue
        for name, cell, want, tol in zip(header, cells, want_row, tols):
            if tol is None:
                if cell != want:
                    problems.append(f"row {index} {name}: {cell!r}, expected {want!r}")
                continue
            try:
                got = float(cell)
            except ValueError:
                problems.append(f"row {index} {name}: {cell!r} is not a number")
                continue
            rtol, atol = tol
            if not abs(got - want) <= rtol * abs(want) + atol:
                problems.append(f"row {index} {name}: {got!r}, expected {want!r}")
    return problems


def check_output(cmd, code: int, stdout: str, stderr: str) -> list[str]:
    """Problems with the outcome of one command that returned normally."""
    if cmd.expect_error:
        if code == 1 and any(line.startswith("error:") for line in stderr.splitlines()):
            return []
        return [f"expected exit 1 with an 'error:' line, got exit {code}"]
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-200:]}"]
    problems = check_table(stdout, *expected(cmd))
    if cmd.kind == "invert" and not problems:
        probs = [float(line.split(",")[1]) for line in stdout.splitlines()[1:]]
        if min(probs) < 0.0 or abs(sum(probs) - 1.0) > len(probs) * PRINT_RTOL:
            problems.append(f"not a distribution: {probs}")
    return problems


def converged_iterations(stderr: str) -> int | None:
    """Iteration count from invert's 'converged in N iterations' summary."""
    for line in stderr.splitlines():
        if line.startswith("converged in "):
            return int(line.split()[2])
    return None
