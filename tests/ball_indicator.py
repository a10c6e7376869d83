"""A test field: the indicator of a ball, whose integrals against radial
kernels are known in closed form."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BallIndicator:
    """Indicator of a ball, amplitude A.  Used where a bounded, compactly
    supported integrand with an exactly known integral is wanted; it has no
    gradient."""

    center: tuple[float, ...]
    radius: float
    amplitude: float = 1.0

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def support_center(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @property
    def support_radius(self) -> float:
        return self.radius

    @property
    def compact_support(self) -> bool:
        return True

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = np.linalg.norm(pts - self.support_center, axis=1)
        return np.where(d <= self.radius, self.amplitude, 0.0)

    def value(self, x) -> float:
        return float(self.values(np.atleast_2d(x))[0])

    def describe(self) -> dict:
        return {
            "family": "ball_indicator",
            "center": list(self.center),
            "radius": self.radius,
            "amplitude": self.amplitude,
        }
