"""Problem definition: PDE instance, uniform mesh and the control problem.

The solver targets u_t = alpha**2 u_xx on [x_left, x_right] with homogeneous
Dirichlet boundary values and initial state u(x, 0) = f(x).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ProblemSpec",
    "Mesh",
    "build_mesh",
    "control_problem",
    "collocation_abscissae",
]

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """One heat conduction problem instance.

    alpha is the thermal diffusivity (alpha**2 multiplies u_xx).  The
    initial condition must vanish at both ends; anything incompatible with
    the homogeneous Dirichlet conditions is rejected at construction.
    exact_solution(x, t) is optional and only needed for error norms.
    """

    x_left: float
    x_right: float
    alpha: float
    initial_condition: Callable[[float], float]
    exact_solution: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        if not (math.isfinite(self.x_left) and math.isfinite(self.x_right)):
            raise ValueError("x_left and x_right must be finite")
        if not self.x_right > self.x_left:
            raise ValueError("x_right must exceed x_left")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be positive and finite")
        for x in (self.x_left, self.x_right):
            # written so that NaN fails too
            if not abs(self.initial_condition(x)) <= _BOUNDARY_TOL:
                raise ValueError(
                    f"initial condition must vanish at the boundary, got f({x}) = "
                    f"{self.initial_condition(x)}"
                )


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of n_elements elements covering [nodes[0], nodes[-1]]."""

    nodes: np.ndarray
    h: float
    n_elements: int


def build_mesh(spec, n_elements):
    """Split the problem domain into n_elements equal width elements.

    Node j is computed as x_left + j * (x_right - x_left) / n_elements so
    that nodes carry no accumulated summation error.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be at least 1")
    width = (spec.x_right - spec.x_left) / n_elements
    nodes = spec.x_left + np.arange(n_elements + 1) * width
    nodes.setflags(write=False)
    return Mesh(nodes=nodes, h=width, n_elements=n_elements)


def control_problem(alpha=1.0):
    """The built-in test problem on [0, 1].

    f(x) = sin(pi x), whose exact evolution is
    u(x, t) = sin(pi x) * exp(-alpha**2 pi**2 t).
    """
    decay = alpha**2 * np.pi**2
    return ProblemSpec(
        x_left=0.0,
        x_right=1.0,
        alpha=alpha,
        initial_condition=lambda x: np.sin(np.pi * x),
        exact_solution=lambda x, t: np.sin(np.pi * x) * np.exp(-decay * t),
    )


def collocation_abscissae(mesh, points):
    """Global abscissae of the local points in every element, shape (N, len(points)).

    Row k holds element k+1, which spans [nodes[k], nodes[k+1]].
    """
    return mesh.nodes[:-1, None] + mesh.h * points[None, :]
