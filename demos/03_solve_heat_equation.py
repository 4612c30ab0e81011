"""Solve the control problem and compare with the exact solution.

u_t = u_xx on [0, 1], u(x, 0) = sin(pi x), homogeneous Dirichlet ends.
The exact solution decays as sin(pi x) exp(-pi^2 t).
"""

from hermite_heat import (
    RunConfig,
    build_mesh,
    control_problem,
    error_norms,
    evaluate,
    legendre_rule,
    run,
)

problem = control_problem()
rule = legendre_rule()
cfg = RunConfig(dt=0.01, t_final=0.5, n_elements=16, rule=rule)

final = run(problem, cfg)
mesh = build_mesh(problem, cfg.n_elements)

print(f"N = {cfg.n_elements} elements, dt = {cfg.dt}, T = {cfg.t_final}")
print(f"{'x':>8} {'numeric':>13} {'exact':>13} {'error':>10}")
xs = mesh.nodes[::2]
numerics = evaluate(mesh, final, xs)
exacts = problem.exact_solution(xs, cfg.t_final)
for x, numeric, exact in zip(xs, numerics, exacts):
    print(f"{x:8.4f} {numeric:13.8f} {exact:13.8f} {abs(numeric - exact):10.2e}")

l2, linf = error_norms(problem, mesh, rule, final, cfg.t_final)
print()
print(f"L2 error   = {l2:.4e}")
print(f"Linf error = {linf:.4e}")
