"""The two benchmark problems and the multiplicative noise model.

Each problem holds its domain, horizon and exact solution, which the
experiment driver samples on a grid for the exact initial state and the
noise-free final data; add_noise perturbs that data and measures the noise
norm the alpha rules consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .space import SpatialGrid, grid_norm

EX1_SERIES_TERMS = 100


@dataclass(frozen=True)
class NoisyData:
    """A perturbed copy of grid data with its measured noise magnitude."""

    values: np.ndarray
    delta: float


def add_noise(
    data: np.ndarray, eps: float, seed: int, grid: SpatialGrid
) -> NoisyData:
    """Multiplicative uniform noise, data * (1 + eps * U(-1, 1)) per node.

    delta is the h**(dim/2)-weighted norm of the perturbation, the quantity
    the alpha rules consume. The draw is fully determined by the seed.
    """
    if eps < 0:
        raise ValueError(f"noise level must be nonnegative, got {eps}")
    data = np.asarray(data, dtype=float)
    rng = np.random.default_rng(seed)
    noisy = data * (1.0 + eps * rng.uniform(-1.0, 1.0, size=data.shape))
    return NoisyData(values=noisy, delta=grid_norm(noisy - data, grid))


def exact_solution_ex1(x, t: float):
    """Benchmark problem 1: 1D heat flow from a triangular initial profile.

    Series solution on (0, pi), truncated at 100 odd-frequency terms, which
    is the reference everything else is scored against. At t = 0 it
    reproduces the triangle 2x / 2(pi-x) up to truncation error.
    """
    x = np.asarray(x, dtype=float)
    k = np.arange(1, 2 * EX1_SERIES_TERMS, 2, dtype=float)
    terms = np.cos(np.multiply.outer(x, k) - k * np.pi / 2.0) / k**2
    return (8.0 / np.pi) * terms @ np.exp(-(k**2) * t)


def exact_solution_ex2(x1, x2, t: float):
    """Benchmark problem 2: 2D single-mode solution exp(-2t) sin(x1) sin(x2)."""
    return np.exp(-2.0 * t) * np.sin(x1) * np.sin(x2)


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark problem: domain, horizon, and exact states.

    ``solution`` maps (*node_coords, t) to the exact state.
    """

    example: int
    dim: int
    length: float
    horizon: float
    solution: Callable[..., np.ndarray]

    @property
    def name(self) -> str:
        """Problem name, "ex" plus the example number."""
        return f"ex{self.example}"

    def initial_on_grid(self, grid: SpatialGrid) -> np.ndarray:
        """Exact initial state at the grid's interior nodes, flattened."""
        return self._on_grid(grid, 0.0)

    def final_on_grid(self, grid: SpatialGrid) -> np.ndarray:
        """Exact (noise-free) final data at the grid's interior nodes."""
        return self._on_grid(grid, self.horizon)

    def _on_grid(self, grid: SpatialGrid, t: float) -> np.ndarray:
        if grid.dim != self.dim or grid.length != self.length:
            raise ValueError(
                f"problem {self.name} lives on a {self.dim}D domain of edge "
                f"{self.length}, got a {grid.dim}D grid of edge {grid.length}"
            )
        return np.asarray(self.solution(*grid.interior_coords(), t))


_PROBLEMS = {
    1: ProblemSpec(
        example=1, dim=1, length=np.pi, horizon=1.0, solution=exact_solution_ex1
    ),
    2: ProblemSpec(
        example=2, dim=2, length=np.pi, horizon=1.0, solution=exact_solution_ex2
    ),
}


def get_problem(example: int) -> ProblemSpec:
    """Look up a benchmark problem by its example number, 1 or 2."""
    try:
        return _PROBLEMS[example]
    except KeyError:
        raise ValueError(
            f"unknown problem {example!r}; choose from {sorted(_PROBLEMS)}"
        ) from None
