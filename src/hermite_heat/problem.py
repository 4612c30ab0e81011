"""Problem definition: PDE instance, uniform mesh and the control problem.

The solver targets u_t = alpha**2 u_xx on [x_left, x_right] with homogeneous
Dirichlet boundary values and initial state u(x, 0) = f(x).
"""

import math
import numbers
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

    alpha is the thermal diffusivity (alpha**2 multiplies u_xx), and its
    square must be finite.  The initial condition must vanish at both ends;
    anything incompatible with the homogeneous Dirichlet conditions is
    rejected at construction.  A bad number raises ValueError, and an end
    or alpha that is no real number (a str, say) TypeError.
    exact_solution(x, t) is optional and only needed for error norms.

    Both callables take a float ndarray of abscissae x (and a float t) and
    return values of x's shape; a constant is allowed, as it broadcasts.
    The package samples each one in a single call per solve.  The
    initial condition is called once here, on [x_left, x_right], so one
    that cannot take an array is rejected at construction.
    """

    x_left: float
    x_right: float
    alpha: float
    initial_condition: Callable[[np.ndarray], np.ndarray]
    exact_solution: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        x_left, x_right, alpha = map(_real, (self.x_left, self.x_right, self.alpha))
        # also NaN or inf for a NaN or infinite end, or on overflow (1e308 - -1e308)
        if not math.isfinite(x_right - x_left):
            raise ValueError("x_left, x_right and the width between them must be finite")
        if not x_right > x_left:
            raise ValueError("x_right must exceed x_left")
        # alpha * alpha rather than alpha**2, which raises OverflowError
        if not (alpha > 0.0 and math.isfinite(alpha * alpha)):
            raise ValueError("alpha must be positive with a finite square")
        ends = (self.x_left, self.x_right)
        values = _sample("initial_condition", self.initial_condition, np.array(ends))
        for x, value in zip(ends, values):
            # written so that NaN fails too
            if not abs(value) <= _BOUNDARY_TOL:
                raise ValueError(
                    f"initial condition must vanish at the boundary, got f({x}) = {value}"
                )


def _real(value):
    """value as a Python float, for the checks of an input: a float's
    arithmetic does not warn where a numpy scalar's overflows, and an int
    beyond the float range is infinite.  A non-number (a str, which float()
    would parse, or None) raises TypeError."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _sample(name, fn, x, *args):
    """fn(x, *args) as a new float array of x's shape.

    name is the ProblemSpec field that holds fn, for the error messages.
    A result that does not broadcast to x's shape, and a callable that fails
    on an array argument, raise ValueError.
    """
    try:
        result = fn(x, *args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must take an ndarray of abscissae: {exc}") from exc
    values = np.asarray(result, dtype=float)
    try:
        return np.array(np.broadcast_to(values, x.shape))
    except ValueError:
        raise ValueError(
            f"{name} returned shape {values.shape} for abscissae of shape {x.shape}"
        ) from None


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of n_elements elements covering [nodes[0], nodes[-1]]."""

    nodes: np.ndarray
    h: float
    n_elements: int


def _check_element_count(n_elements):
    """Raise ValueError unless n_elements is an integer of at least 1 (bool is refused)."""
    if isinstance(n_elements, bool) or not isinstance(n_elements, numbers.Integral):
        raise ValueError(f"n_elements must be an integer, got {n_elements!r}")
    if n_elements < 1:
        raise ValueError("n_elements must be at least 1")


def build_mesh(spec, n_elements):
    """Split the problem domain into n_elements equal width elements.

    Node j is computed as x_left + j * (x_right - x_left) / n_elements so
    that nodes carry no accumulated summation error.
    """
    _check_element_count(n_elements)
    width = (spec.x_right - spec.x_left) / n_elements
    nodes = spec.x_left + np.arange(n_elements + 1) * width
    nodes.setflags(write=False)
    return Mesh(nodes=nodes, h=width, n_elements=n_elements)


def control_problem(alpha=1.0):
    """The built-in test problem on [0, 1].

    f(x) = sin(pi x), whose exact evolution is
    u(x, t) = sin(pi x) * exp(-alpha**2 pi**2 t).
    """
    alpha = _real(alpha)  # a float, as a numpy scalar's alpha**2 pi**2 would warn

    def exact_solution(x, t):
        # alpha**2 pi**2 overflows from alpha of about 4.3e153, and inf * 0
        # is NaN at t = 0: there alpha**2 (pi**2 t) overflows only as its value does
        rate = decay * t if math.isfinite(decay) else alpha**2 * (np.pi**2 * t)
        return np.sin(np.pi * x) * np.exp(-rate)

    spec = ProblemSpec(
        x_left=0.0,
        x_right=1.0,
        alpha=alpha,
        initial_condition=lambda x: np.sin(np.pi * x),
        exact_solution=exact_solution,
    )
    # only once ProblemSpec has checked alpha: alpha**2 raises OverflowError
    # where that check raises ValueError
    decay = alpha**2 * np.pi**2
    return spec


def collocation_abscissae(mesh, points):
    """Global abscissae of the local points in every element, shape (N, len(points)).

    Row k holds element k+1, which spans [nodes[k], nodes[k+1]].
    """
    return mesh.nodes[:-1, None] + mesh.h * points[None, :]
