"""Incident plane-wave field and its analytic curl.

The single-sphere oracle reads an incident field only through its eval(k, x)
and curl(k, x) methods; las and limit call eval_E0 and curl_E0, which read a
PlaneWave's direction and polarization, so they take plane waves only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_cvec, as_point, cross, dot
from .errors import ParameterError


@dataclass(frozen=True)
class PlaneWave:
    """Plane wave: polarization * exp(i k direction . x), transverse."""

    direction: np.ndarray
    polarization: np.ndarray

    def __post_init__(self):
        alpha = as_point(self.direction).copy()
        pol = as_cvec(self.polarization).copy()
        if abs(np.linalg.norm(alpha) - 1.0) > 1e-12:
            raise ParameterError(f"direction must be a unit vector, |alpha| = {np.linalg.norm(alpha)}")
        if abs(dot(alpha, pol)) > 1e-12:
            raise ParameterError("polarization must be orthogonal to the propagation direction")
        alpha.setflags(write=False)
        pol.setflags(write=False)
        object.__setattr__(self, "direction", alpha)
        object.__setattr__(self, "polarization", pol)

    def eval(self, k, x):
        return eval_E0(self, k, x)

    def curl(self, k, x):
        return curl_E0(self, k, x)


def eval_E0(wave: PlaneWave, k, x):
    """Incident field polarization * exp(i k alpha . x)."""
    x = as_point(x)
    phase = np.exp(1j * k * (x @ wave.direction))
    return wave.polarization * phase[..., np.newaxis]


def curl_E0(wave: PlaneWave, k, x):
    """Analytic curl i k (alpha x polarization) exp(i k alpha . x)."""
    x = as_point(x)
    phase = np.exp(1j * k * (x @ wave.direction))
    return 1j * k * cross(wave.direction, wave.polarization) * phase[..., np.newaxis]


def eval_H0(wave: PlaneWave, medium, x):
    """Incident magnetic field H0 = curl E0 / (i omega mu0)."""
    return curl_E0(wave, medium.k, x) / (1j * medium.omega * medium.mu0)
