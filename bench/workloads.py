"""Seeded inputs of the benchmark workloads.

A workload is a fixed list of `pdckit` command lines plus the scenario
files and data CSVs they read, written under one directory.  Each
command keeps the parameters it was generated from, so that `oracle`
can compute its expected output by its own route; the program sees
only the files.

The seed moves the physics (widths, tilts, states, efficiencies), not
the amount of work: spectral sources are pinned to the paper source's
grid size, and each click triple's efficiency is solved so that the
EM inversion takes a fixed number of iterations.  Run-to-run spread
then comes from the machine, not from the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# The paper's source (configs/tmax.cfg): pump and phase-matching FWHM
# in nm, tilt in degrees.  Every spectral source has its grid size,
# N = 951, 1425, 1899 at 8, 12, 16 points per width.
PAPER_SOURCE = (2.5, 0.5, 54.7)
# (grid points, signal and trigger filter FWHM in nm at unit scale)
SPECTRAL_SLOTS = ((8, 1.0, 1.0), (12, 1.8, 0.85), (16, 1.2, 1.6))
# EM iterations of the click triples; the headline inversion adds
# 166,511.  Five triples of equal cost around the middle put the median
# latency inside one cluster of like commands rather than between two.
EM_SLOTS = (300, 1_000, 3_000) + (10_000,) * 5 + (20_000, 30_000, 100_000)
CLICK_TOL = 1e-13
CLICK_MAX_ITER = 400_000
VARIANTS = 30  # closed_form_batch commands of each kind per round

WORKLOADS = ("spectral_grid", "loss_inversion", "closed_form_batch")


@dataclass
class Command:
    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    expect_error: bool = False


def _write(path: Path, lines: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
    return str(path)


def _state(rng: random.Random):
    one, two = rng.uniform(0.02, 0.2), rng.uniform(1e-4, 5e-3)
    return (1.0 - one - two, one, two)


def _state_keys(state) -> dict:
    return {"p0": repr(state[0]), "p1": repr(state[1]), "p2": repr(state[2])}


def _source(rng: random.Random) -> dict:
    return {"pump_nm": rng.uniform(1.5, 4.0), "pm_nm": rng.uniform(0.3, 0.8),
            "tilt_deg": rng.uniform(48.0, 62.0), "length_mm": rng.uniform(1.0, 5.0)}


def _source_keys(p: dict) -> dict:
    return {"pump_fwhm": f"{p['pump_nm']!r} nm", "pm_fwhm": f"{p['pm_nm']!r} nm",
            "tilt": f"{p['tilt_deg']!r} deg", "length": f"{p['length_mm']!r} mm"}


def _pinned_source(rng: random.Random, signal_nm: float, trigger_nm: float) -> dict:
    """A source and filters near the paper's, with the paper's grid size.

    Scaling every spectral width by one factor leaves the grid, the
    sampled amplitude and the dimensionless results unchanged, so the
    seed draws that factor freely over the pump and phase-matching
    ranges.  The shape (pump over phase-matching width, filters over
    both) moves by at most 5%: the program's grid cost depends on the
    shape through subnormal arithmetic, and a wider draw would make the
    work depend on the seed.  The tilt is solved so that the grid ratio
    equals the paper source's.
    """
    scale = rng.uniform(0.63, 1.52)
    p = {"pump_nm": PAPER_SOURCE[0] * scale * rng.uniform(0.95, 1.05),
         "pm_nm": PAPER_SOURCE[1] * scale, "length_mm": rng.uniform(1.0, 5.0),
         "signal_nm": signal_nm * scale * rng.uniform(0.95, 1.05),
         "trigger_nm": trigger_nm * scale * rng.uniform(0.95, 1.05)}
    target = oracle.grid_ratio(*PAPER_SOURCE)

    def excess(tilt):
        return oracle.grid_ratio(p["pump_nm"], p["pm_nm"], tilt) - target

    lo, hi = 48.0, 62.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    p["tilt_deg"] = 0.5 * (lo + hi)
    return p


def spectral_grid(rng: random.Random, work: Path, root: Path) -> list[Command]:
    commands = []
    for index, (points, signal_nm, trigger_nm) in enumerate(SPECTRAL_SLOTS):
        p = _pinned_source(rng, signal_nm, trigger_nm)
        p.update(reference_nm=rng.uniform(0.5, 3.0), state=_state(rng),
                 beta_sq=rng.uniform(0.01, 0.1), tau_steps=81, grid_points=points)
        keys = _source_keys(p)
        keys.update(signal_filter_fwhm=f"{p['signal_nm']!r} nm",
                    trigger_filter_fwhm=f"{p['trigger_nm']!r} nm",
                    reference_fwhm=f"{p['reference_nm']!r} nm",
                    beta_sq=repr(p["beta_sq"]), **_state_keys(p["state"]))
        config = _write(work / f"source{index}.cfg", keys)
        for kind in ("tmax", "hom-scan"):
            argv = [kind, "--config", config, "--grid-points", str(points)]
            commands.append(Command(kind, argv, p))
    return commands


def em_iterations(observed, response, tol: float, max_iter: int) -> int:
    """Iterations the multiplicative EM update takes from the uniform state.

    Used only to size inputs: it repeats the stopping rule (largest
    component step below tol) on the 3-outcome problem in plain floats.
    """
    r = response.tolist()
    y = list(observed)
    rho = [1.0 / 3.0] * 3
    for k in range(1, max_iter + 1):
        pred = [r[m][0] * rho[0] + r[m][1] * rho[1] + r[m][2] * rho[2] for m in range(3)]
        ratio = [y[m] / pred[m] for m in range(3)]
        new = [rho[n] * (r[0][n] * ratio[0] + r[1][n] * ratio[1] + r[2][n] * ratio[2])
               for n in range(3)]
        total = new[0] + new[1] + new[2]
        new = [x / total for x in new]
        step = max(abs(new[n] - rho[n]) for n in range(3))
        rho = new
        if step < tol:
            return k
    return max_iter + 1


def _predicted_iterations(state, eta: float) -> float:
    lam, amplitude = oracle.em_rate(oracle.click_response(eta), np.asarray(state))
    return math.log(amplitude / CLICK_TOL) / -math.log(lam)


def _solve_eta(state, target: float):
    """Efficiency in [0.03, 0.5] at which the predicted EM count is target."""
    lo, hi = 0.03, 0.5
    if not _predicted_iterations(state, lo) >= target >= _predicted_iterations(state, hi):
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _predicted_iterations(state, mid) > target else (lo, mid)
    return 0.5 * (lo + hi)


def _click_triple(rng: random.Random, slot: int):
    """(state, eta, clicks) whose EM inversion takes about `slot` iterations.

    The linear-rate prediction is off by up to ~20%; one replay of the
    stopping rule measures that factor and a second solve removes it.
    """
    while True:
        draws = [rng.gammavariate(1.0, 1.0) for _ in range(3)]
        state = [x / sum(draws) for x in draws]
        if min(state) < 0.01:
            continue
        target = slot
        for _ in range(2):
            eta = _solve_eta(state, target)
            if eta is None:
                break
            clicks = (oracle.click_response(eta) @ np.asarray(state)).tolist()
            count = em_iterations(clicks, oracle.click_response(eta), CLICK_TOL,
                                  CLICK_MAX_ITER)
            if abs(count / slot - 1.0) <= 0.01:
                return state, eta, clicks
            target *= slot / count


def loss_inversion(rng: random.Random, work: Path, root: Path) -> list[Command]:
    headline = root / "configs" / "invert_three_fold.cfg"
    values = oracle.read_config(headline)
    commands = [Command("invert", ["invert", "--config", str(headline)], {
        "observable": values.get("observable", "photon"),
        "efficiency": float(values["efficiency"]),
        "observed": [float(x) for x in values["observed"].split(",")],
        "tol": float(values["tol"]),
    })]
    for index, slot in enumerate(EM_SLOTS):
        state, eta, clicks = _click_triple(rng, slot)
        config = _write(work / f"clicks{index}.cfg", {
            "observed": ", ".join(repr(x) for x in clicks), "efficiency": repr(eta),
            "observable": "clicks", "tol": repr(CLICK_TOL), "max_iter": str(CLICK_MAX_ITER)})
        commands.append(Command("invert", ["invert", "--config", config], {
            "observable": "clicks", "efficiency": eta, "observed": clicks,
            "truth": state, "tol": CLICK_TOL, "slot": slot}))
    return commands


def _closed_form(kind: str, rng: random.Random, work: Path, name: str) -> Command:
    path = work / f"{name}.cfg"
    argv = [kind, "--config", str(path)]
    if kind in ("ellipse", "filter", "pm-vs-length"):
        p = _source(rng)
        keys = _source_keys(p)
        if kind == "filter":
            p.update(filter_s_nm=rng.uniform(0.5, 3.0), filter_i_nm=rng.uniform(0.5, 3.0))
            keys.update(filter_s_fwhm=f"{p['filter_s_nm']!r} nm",
                        filter_i_fwhm=f"{p['filter_i_nm']!r} nm")
        if kind == "pm-vs-length":
            low = rng.uniform(0.5, 2.0)
            p.update(length_min_mm=low, length_max_mm=low + rng.uniform(1.0, 10.0), steps=21)
            keys.update(length_min=f"{low!r} mm", length_max=f"{p['length_max_mm']!r} mm",
                        length_steps="21")
    elif kind == "twin-hom":
        p = {"tilt_deg": rng.uniform(30.0, 70.0), "gamma": 0.193,
             "aspects": [rng.uniform(1.0, 30.0) for _ in range(5)]}
        keys = {"tilt": f"{p['tilt_deg']!r} deg",
                "aspect_list": ", ".join(repr(a) for a in p["aspects"])}
    elif kind == "herald-stats":
        low = rng.uniform(0.001, 0.01)
        p = {"modes_unfiltered": rng.randint(20, 40), "modes_filtered": rng.randint(1, 3),
             "gains": list(np.linspace(low, low + rng.uniform(0.01, 0.04), 5))}
        keys = {"modes_unfiltered": str(p["modes_unfiltered"]),
                "modes_filtered": str(p["modes_filtered"]), "nmax": "24",
                "gain_sq_list": ", ".join(repr(float(g)) for g in p["gains"])}
    elif kind == "visibility-curve":
        p = {"state": _state(rng), "overlap": rng.uniform(0.3, 1.0),
             "beta_min": rng.uniform(0.001, 0.01), "steps": 25}
        p["beta_max"] = p["beta_min"] * rng.uniform(10.0, 100.0)
        keys = dict(_state_keys(p["state"]), overlap=repr(p["overlap"]),
                    beta_sq_min=repr(p["beta_min"]), beta_sq_max=repr(p["beta_max"]),
                    beta_sq_steps="25")
    elif kind == "fit-overlap":
        p = {"state": _state(rng), "overlap": rng.uniform(0.3, 1.0),
             "betas": sorted(rng.uniform(0.002, 0.2) for _ in range(12))}
        p0, p1, p2 = p["state"]
        data = work / f"{name}.csv"
        data.write_text("beta_sq,visibility\n" + "".join(
            f"{b!r},{p1 * p['overlap'] / (p0 * b / 2.0 + p1 + p2 / b)!r}\n" for b in p["betas"]))
        keys = _state_keys(p["state"])
        argv += ["--data", str(data)]
    elif kind == "hom-scan":
        p = {"state": _state(rng), "beta_sq": rng.uniform(0.01, 0.15),
             "tmax": rng.uniform(0.3, 1.0), "dip_sigma_ps": rng.uniform(0.3, 3.0),
             "tau_steps": 81}
        keys = dict(_state_keys(p["state"]), beta_sq=repr(p["beta_sq"]),
                    tmax=repr(p["tmax"]), dip_sigma=f"{p['dip_sigma_ps']!r} ps")
    elif kind == "dip-width":
        p = _source(rng)
        p.update(signal_nm=rng.uniform(0.5, 3.0), reference_nm=rng.uniform(0.5, 3.0))
        keys = dict(_source_keys(p), signal_filter_fwhm=f"{p['signal_nm']!r} nm",
                    reference_fwhm=f"{p['reference_nm']!r} nm")
    elif kind == "fidelity":
        p = {"overlap": rng.uniform(0.3, 1.0), "one_photon": rng.uniform(0.3, 1.0)}
        keys = {"overlap": repr(p["overlap"]), "one_photon": repr(p["one_photon"])}
    _write(path, keys)
    return Command(kind, argv, p)


CLOSED_FORM_KINDS = ("ellipse", "filter", "pm-vs-length", "twin-hom", "herald-stats",
                     "visibility-curve", "fit-overlap", "hom-scan", "dip-width", "fidelity")


def _invalid(work: Path, root: Path) -> list[Command]:
    """Inputs the CLI must refuse with exit 1 and an 'error:' line.

    Each one raises a plain ValueError out of cli.main today, so they are
    counted as failed operations; they do not depend on the seed.
    """
    scan = _write(work / "invalid_hom_scan.cfg", {
        "p0": "0.9", "p1": "0.09", "p2": "0.01", "beta_sq": "0.5",
        "tmax": "0.7", "dip_sigma": "1 ps"})
    fidelity = _write(work / "invalid_fidelity.cfg", {"overlap": "1.2", "one_photon": "0.9"})
    tmax = str(root / "configs" / "tmax.cfg")
    return [Command("hom-scan", ["hom-scan", "--config", scan], expect_error=True),
            Command("tmax", ["tmax", "--config", tmax, "--grid-points", "4"], expect_error=True),
            Command("fidelity", ["fidelity", "--config", fidelity], expect_error=True)]


def closed_form_batch(rng: random.Random, work: Path, root: Path) -> list[Command]:
    commands = [_closed_form(kind, rng, work, f"{kind}{i}")
                for i in range(VARIANTS) for kind in CLOSED_FORM_KINDS]
    return commands + _invalid(work, root)


def generate(workload: str, seed: int, work: Path, root: Path) -> list[Command]:
    """Write the workload's inputs under `work` and return its command list."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return {"spectral_grid": spectral_grid, "loss_inversion": loss_inversion,
            "closed_form_batch": closed_form_batch}[workload](rng, work, root)
