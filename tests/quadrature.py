"""The joint amplitude on a grid, integrated by trapezoid quadrature:
the test oracle for the closed forms of `jsa.FilteredSource`.

default_axes sizes a uniform detuning axis for a form, sample puts the
form's amplitude on the square grid of that axis, and reduced_density
filters it and traces out the idler; purity and overlap_T integrate the
density, overlap_numeric the grid.
"""

import math
from typing import NamedTuple

import numpy as np


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    weights = np.full(axis.size, axis[1] - axis[0])
    weights[[0, -1]] /= 2.0
    return weights


class SpectralGrid(NamedTuple):
    """amplitude[i, j] at detunings nu_axis[i], nu_axis[j]; its norm."""

    nu_axis: np.ndarray
    amplitude: np.ndarray
    norm: float

    @classmethod
    def from_amplitude(cls, nu_axis, amplitude) -> "SpectralGrid":
        weights = trapezoid_weights(nu_axis)
        norm = float(weights @ (np.abs(amplitude) ** 2) @ weights)
        return cls(nu_axis, amplitude, norm)


class ReducedDensity(NamedTuple):
    """Hermitian one-photon density g(omega1, omega2) of unit trace."""

    nu_axis: np.ndarray
    density: np.ndarray

    def trace(self) -> float:
        weights = trapezoid_weights(self.nu_axis)
        return float(np.real(np.diag(self.density) @ weights))

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the kernel with respect to the quadrature measure."""
        root_w = np.sqrt(trapezoid_weights(self.nu_axis))
        return np.linalg.eigvalsh(self.density * np.outer(root_w, root_w))


def default_axes(source, samples_per_width=12, extent_widths=4.0):
    """Axis over extent_widths projections, samples_per_width per cut."""
    assert source.determinant > 0.0, "a rank-one form has unbounded support"
    widest = max(source.m11, source.m22)
    step = 1.0 / math.sqrt(widest) / samples_per_width
    half = extent_widths * math.sqrt(widest / source.determinant)
    return np.linspace(-half, half, 2 * math.ceil(half / step) + 1)


def sample(source, nu_axis) -> SpectralGrid:
    """exp(-nu^T M' nu + i (phase_s nu_s + phase_i nu_i)) on the grid."""
    width = 1.0 / math.sqrt(max(source.m11, source.m22))
    assert nu_axis[1] - nu_axis[0] <= width / 8.0, "under 8 samples a width"
    ns, ni = nu_axis[:, None], nu_axis[None, :]
    exponent = -(source.m11 * ns**2 + 2.0 * source.m12 * ns * ni
                 + source.m22 * ni**2)
    phase = source.phase_s * ns + source.phase_i * ni
    return SpectralGrid.from_amplitude(nu_axis, np.exp(exponent + 1j * phase))


def reduced_density(grid, signal_width=math.inf, idler_width=math.inf):
    """Filter in intensity by exp(-2 nu^2/w^2), trace out the idler."""
    axis = grid.nu_axis
    weights = trapezoid_weights(axis)
    ti = np.exp(-2.0 * (axis / idler_width) ** 2)
    ts_amp = np.exp(-((axis / signal_width) ** 2))
    kernel = (grid.amplitude * (ti * weights)) @ np.conj(grid.amplitude.T)
    kernel *= np.outer(ts_amp, ts_amp)
    kernel = 0.5 * (kernel + np.conj(kernel.T))
    trace = float(np.real(np.diag(kernel) @ weights))
    assert trace > grid.norm * 1e-14, "the filters remove all the weight"
    return ReducedDensity(axis, kernel / trace)


def purity(g: ReducedDensity) -> float:
    weights = trapezoid_weights(g.nu_axis)
    return float((np.abs(g.density) ** 2 * np.outer(weights, weights)).sum())


def overlap_T(reference_width, g: ReducedDensity, tau=0.0) -> float:
    """u* g u, u = exp(-nu^2/w_r^2) of unit norm, delayed by tau."""
    weights = trapezoid_weights(g.nu_axis)
    u = np.exp(-((g.nu_axis / reference_width) ** 2))
    u /= math.sqrt(float(u**2 @ weights))
    vector = u * np.exp(-1j * tau * g.nu_axis) * weights
    value = complex(np.vdot(vector, g.density @ vector))
    assert abs(value.imag) <= 1e-9 * abs(value), "a Hermitian overlap is real"
    return value.real


def overlap_numeric(grid: SpectralGrid) -> float:
    """|sum of phi(s, i) phi*(i, s)| / norm; a delay tau adds to phase_s."""
    weights = trapezoid_weights(grid.nu_axis)
    exchange = grid.amplitude * np.conj(grid.amplitude.T)
    numerator = complex(weights @ exchange @ weights)
    # real by exchange symmetry, up to the norm-scale rounding floor
    assert abs(numerator.imag) <= max(1e-9 * abs(numerator), 1e-12 * grid.norm)
    return abs(numerator) / grid.norm
