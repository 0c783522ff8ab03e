"""pdckit: modeling and analysis of heralded single-photon sources based
on waveguided parametric down-conversion.

Submodules:
    jsa            Gaussian joint-spectral-amplitude model and filtering.
    twin_hom       interference between the twin beams of one source.
    photon_stats   photon-number statistics, click model and inversion.
    hom_reference  interference against a coherent reference; fidelity.
    units          width and wavelength conversions, evenly spaced axes.
    cli            configuration-driven command line front end.
"""

# cli is not imported here: `python -m pdckit.cli` must load it only once.
from . import hom_reference, jsa, photon_stats, twin_hom, units
from .errors import ConfigError, NumericalError

__all__ = [
    "jsa",
    "twin_hom",
    "photon_stats",
    "hom_reference",
    "units",
    "cli",
    "ConfigError",
    "NumericalError",
]

__version__ = "0.1.0"
