"""Tour of the septic Hermite shape functions.

Each element carries eight degree-7 polynomials on the local coordinate
xi in [0, 1].  Columns 1 and 7 interpolate the endpoint values, the rest
interpolate endpoint derivatives and carry powers of the element width h.
"""

import numpy as np

from hermite_heat import hermite_first_derivs, hermite_second_derivs, hermite_values

h = 0.5

print("Shape function values across the element (h = 0.5):")
print(f"{'xi':>6} " + " ".join(f"{f'H{j}':>9}" for j in range(1, 9)))
xis = np.linspace(0.0, 1.0, 6)
for xi, vals in zip(xis, hermite_values(xis, h)):
    print(f"{xi:6.2f} " + " ".join(f"{v:9.5f}" for v in vals))

print()
print("Cardinality at the ends: value/derivative functionals pick out")
print("exactly one function each (derivatives are h-scaled):")
print("H(0)       =", np.round(hermite_values(0.0, h), 12))
print("A(0) / h   =", np.round(hermite_first_derivs(0.0, h) / h, 12))
print("B(0) / h^2 =", np.round(hermite_second_derivs(0.0, h) / h**2, 12))
print("H(1)       =", np.round(hermite_values(1.0, h), 12))

print()
print("The two value functions always sum to one:")
xis = [0.1, 0.37, 0.5, 0.82]
for xi, vals in zip(xis, hermite_values(xis, h)):
    print(f"  H1({xi}) + H7({xi}) = {vals[0] + vals[6]:.15f}")
