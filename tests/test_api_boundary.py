"""The API's input boundary as a property: ProblemSpec, control_problem
and RunConfig return or raise ValueError, and never warn, whatever number
they are given; run_batch yields one result per configuration, an
exception or a finite state; and error_norms and run_table give finite
norms or an exception, whatever values the problem's callables return.

Numbers are drawn as Python floats and ints and as numpy float64 and int64
scalars, from the edge values of the float range (conftest.EDGE_FLOATS).
A non-number (a str, None) may raise TypeError instead; it is not drawn.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, assume, example, given, note, settings
from hypothesis import strategies as st

from hermite_heat import (
    ProblemSpec,
    RunConfig,
    build_mesh,
    chebyshev_rule,
    control_problem,
    error_norms,
    legendre_rule,
    run_table,
)
from hermite_heat.experiments import TableRow, TableSpec
from hermite_heat.solver import run_batch

from conftest import EDGE_FLOATS

# Runs are kept cheap by construction: a configuration with more elements
# or steps than these is dropped before run_batch is called.
_MAX_ELEMENTS = 256
_MAX_STEPS = 50

_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _kinds(value):
    """value as each type it can take among float, numpy float64, and, where
    it is a whole number, int and numpy int64."""
    kinds = [float(value), np.float64(value)]
    if math.isfinite(value) and value == int(value):
        kinds.append(int(value))
        if -(2**63) <= value < 2**63:
            kinds.append(np.int64(int(value)))
    return st.sampled_from(kinds)


def _numbers(*usual):
    """An edge value or one of the usual values, as any of its types."""
    return st.sampled_from([*EDGE_FLOATS, *usual]).flatmap(_kinds)


def _bump(x_left, x_right):
    """An initial condition that vanishes at both ends, computed in floats."""
    left, width = float(x_left), float(x_right) - float(x_left)
    return lambda x: np.sin(np.pi * ((x - left) / width))


def _quietly(make):
    """make() or the ValueError it raises, and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            made = make()
        except ValueError as exc:
            made = exc
    return made, [str(warning.message) for warning in caught]


_ENDS = _numbers(*(-value for value in EDGE_FLOATS), 1.0, 2.0, 0.5)
_ALPHAS = _numbers(1.0, 0.5, 3.0, 1e153)
_DTS = _numbers(0.01, 0.1, 0.25, 1.0)
_ELEMENTS = st.sampled_from([0, 1, 2, 4, 16, 171, 200, 256, -1, 2**63 - 1]).flatmap(
    lambda n: st.sampled_from([n, np.int64(n), float(n)])
)


@st.composite
def _config_args(draw):
    """dt, t_final and n_elements: t_final is an edge value, or a whole
    number (0 to 50) of steps dt, computed in dt's type."""
    dt = draw(_DTS)
    with np.errstate(all="ignore"):
        steps = dt * draw(st.integers(0, _MAX_STEPS))
    return dt, draw(_numbers(0.5) | st.just(steps)), draw(_ELEMENTS)


@_SETTINGS
@given(_ENDS, _ENDS, _ALPHAS)
@example(0.0, 1.0, np.float64(1e200))  # alpha * alpha overflowed, in both constructors
@example(0.0, 1.0, np.float64(1e154))  # control_problem's alpha**2 pi**2 overflowed
@example(np.float64(-1e308), np.float64(1e308), 1.0)  # x_right - x_left overflowed
@example(math.inf, np.float64(math.inf), 1.0)  # inf - inf was invalid
@example(np.int64(0), 2 * int(1.7976931348623157e308), 1.0)  # the int overflowed np.int64
def test_problem_spec_returns_or_raises_value_error_without_warning(x_left, x_right, alpha):
    made, warned = _quietly(lambda: ProblemSpec(x_left, x_right, alpha, lambda x: 0.0 * x))
    assert not warned, warned
    assert isinstance(made, (ProblemSpec, ValueError))
    made, warned = _quietly(lambda: control_problem(alpha))
    assert not warned, warned
    assert isinstance(made, (ProblemSpec, ValueError))


@_SETTINGS
@given(_config_args(), st.sampled_from([legendre_rule, chebyshev_rule]))
@example((np.float64(1e-300), np.float64(1e300), 1), legendre_rule)  # t_final / dt overflowed
@example((1, 2 * int(1.7976931348623157e308), 1), legendre_rule)  # an int beyond the float range
def test_run_config_returns_or_raises_value_error_without_warning(args, rule):
    made, warned = _quietly(lambda: RunConfig(*args, rule=rule()))
    assert not warned, warned
    assert isinstance(made, (RunConfig, ValueError))


@settings(_SETTINGS, max_examples=100)
@given(
    _ENDS,
    _ENDS,
    _ALPHAS,
    st.lists(st.tuples(_config_args(), st.sampled_from([legendre_rule, chebyshev_rule])), max_size=4),
)
def test_run_batch_yields_an_exception_or_a_finite_state_per_config(x_left, x_right, alpha, drawn):
    spec, _ = _quietly(lambda: ProblemSpec(x_left, x_right, alpha, _bump(x_left, x_right)))
    assume(isinstance(spec, ProblemSpec))
    configs = []
    for args, rule in drawn:
        cfg, _ = _quietly(lambda: RunConfig(*args, rule=rule()))
        if isinstance(cfg, RunConfig) and cfg.n_elements <= _MAX_ELEMENTS and cfg.n_steps <= _MAX_STEPS:
            configs.append(cfg)
    note(f"configs = {configs}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = dict(run_batch(spec, configs))
    assert not caught, [str(warning.message) for warning in caught]
    assert sorted(results) == list(range(len(configs)))
    for index, cfg in enumerate(configs):
        a = results[index]
        if isinstance(a, Exception):
            continue
        n = cfg.n_elements
        assert isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (6 * n + 2,)
        assert np.isfinite(a).all()
        assert a[0] == 0.0 and a[6 * n] == 0.0


def _scaled(scale, fn, poison, point):
    """scale * fn, with the value at flat index point of its array replaced
    by poison (where poison is not None and the array has that index)."""

    def scaled(x, *t):
        with np.errstate(all="ignore"):  # the values may overflow: that is the point
            values = scale * fn(x, *t)
        if poison is not None and point < values.size:
            values.flat[point] = poison
        return values

    return scaled


@settings(_SETTINGS, max_examples=150)
@given(
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from(["f", "exact", None]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(0, 23),
)
@example(1e300, 1e300, None, math.nan, 0)  # the squares of the errors overflowed
@example(1.0, 1.0, "exact", math.nan, 7)  # NaN norms came back
def test_norms_are_finite_or_an_exception_whatever_the_callables_return(
    f_scale, u_scale, poisoned, poison, point
):
    """The initial condition 4 x (1 - x), exactly 0 at both ends, and the
    control problem's exact solution, scaled by edge values, one of them
    with one point NaN or inf: run_batch, error_norms and run_table each
    give finite norms or an exception per configuration (N = 4, two
    steps), and nothing warns."""
    f_poison, u_poison = (poison if poisoned == name else None for name in ("f", "exact"))
    f = _scaled(f_scale, lambda x: 4 * x * (1 - x), f_poison, point)
    u = _scaled(u_scale, control_problem().exact_solution, u_poison, point)
    spec, warned = _quietly(lambda: ProblemSpec(0.0, 1.0, 1.0, f, exact_solution=u))
    assert not warned, warned
    assume(isinstance(spec, ProblemSpec))
    configs = [RunConfig(0.01, 0.02, 4, rule()) for rule in (legendre_rule, chebyshev_rule)]
    row = TableRow(n_elements=4, dt=0.01, t_final=0.02, references=())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        norms = []
        for index, a in run_batch(spec, configs):
            if not isinstance(a, Exception):
                cfg = configs[index]
                mesh = build_mesh(spec, 4)
                norms.append(_quietly(lambda: error_norms(spec, mesh, cfg.rule, a, 0.02))[0])
        results = run_table(TableSpec(0, (row,)), problem=spec)
    assert not caught, [str(warning.message) for warning in caught]
    for outcome in norms:
        assert isinstance(outcome, ValueError) or all(map(math.isfinite, outcome)), outcome
    assert len(results) == 2
    for r in results:
        finite = r.error is None and math.isfinite(r.l2) and math.isfinite(r.linf)
        assert isinstance(r.error, Exception) or finite, r
