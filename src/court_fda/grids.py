"""Uniform unit-square grids and trapezoidal quadrature."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

#: The components of a bivariate grid function, in the order of its first axis.
COMPONENTS = ("missed", "made")


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice over [0, 1] x [0, 1], both endpoints included.

    Node i along x sits at i / (nx - 1), likewise along y. The default
    201 x 201 grid has a spacing of 0.005 per axis.
    """

    nx: int = 201
    ny: int = 201

    def __post_init__(self) -> None:
        for name in ("nx", "ny"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"grid node count {name} must be an integer, got {getattr(self, name)!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2 nodes per axis, got {self.nx}x{self.ny}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.ny)

    @property
    def weights(self) -> np.ndarray:
        """Product trapezoid weights of the nodes, shape (nx, ny); they sum to 1."""
        return np.outer(trapezoid_weights(self.nx), trapezoid_weights(self.ny))


def trapezoid_weights(n: int) -> np.ndarray:
    """Composite trapezoid weights for n uniform nodes spanning [0, 1].

    Interior nodes weigh h = 1/(n-1), the two endpoints h/2, so the
    weights sum to 1 (the domain length). Exact for piecewise-linear
    integrands.
    """
    if n < 2:
        raise ValueError("trapezoid rule needs at least 2 nodes")
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def grid_integral(values: np.ndarray) -> float:
    """Trapezoidal integral of a gridded function over the unit square."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D field, got shape {values.shape}")
    wx = trapezoid_weights(values.shape[0])
    wy = trapezoid_weights(values.shape[1])
    return float(wx @ values @ wy)
