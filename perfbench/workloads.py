"""Workload definitions and the accuracy gates every timed solve must pass.

Standard library only: both the orchestrator (which never imports the
solver) and the worker processes import this module.

A solve is identified by (rule, N, dt).  The published values below are the
benchmark's own copy, so a change to the program's tables cannot loosen the
gate that checks them.
"""

import math

WORKLOADS = ("floor", "fine_mesh", "cli_table4")

# Built-in table and rules of each workload (cli_table4's are the CLI defaults).
TABLES = {
    "floor": (3, ("legendre",)),
    "fine_mesh": (1, ("legendre", "chebyshev")),
    "cli_table4": (4, ("legendre", "chebyshev")),
}

# The hermite-heat console script, spelled so that it runs from a source tree.
CONSOLE_SCRIPT = ("-c", "import sys; from hermite_heat.cli import main; sys.exit(main())")
CLI_TABLE4 = (*CONSOLE_SCRIPT, "table", "--id", "4")

FLOOR_L2_GATE = 1e-11
REL_DEV_GATE = 0.01

# Table 1 (N = 1000, T = 1): published L2 errors.
_TABLE1_L2 = {
    ("legendre", 1000, 0.01): 7.1591e-7,
    ("legendre", 1000, 0.005): 1.7931e-7,
    ("legendre", 1000, 0.0025): 4.4851e-8,
    ("chebyshev", 1000, 0.01): 7.1591e-7,
    ("chebyshev", 1000, 0.005): 1.7932e-7,
    ("chebyshev", 1000, 0.0025): 4.4851e-8,
}

# Table 4 (h = dt, T = 1): published Linf errors, (h, legendre, chebyshev).
_TABLE4 = [
    (0.2, 5.1578e-5, 5.1552e-5),
    (0.1, 3.1586e-5, 3.1587e-5),
    (0.05, 9.7106e-6, 9.7107e-6),
    (0.025, 2.5489e-6, 2.5489e-6),
    (0.0125, 6.4490e-7, 6.4490e-7),
    (0.00625, 1.6171e-7, 1.6171e-7),
    (0.01, 4.1333e-7, 4.1333e-7),
    (0.005, 1.0353e-7, 1.0353e-7),
    (0.0025, 2.5895e-8, 2.5895e-8),
    (0.002, 1.6574e-8, 1.6574e-8),
    (0.001, 4.1437e-9, 4.1437e-9),
]
_TABLE4_LINF = {}
for _h, _leg, _cheb in _TABLE4:
    _TABLE4_LINF[("legendre", round(1 / _h), _h)] = _leg
    _TABLE4_LINF[("chebyshev", round(1 / _h), _h)] = _cheb

# Every solve a pass must produce, with the value it is gated against.
EXPECTED = {
    "floor": {("legendre", n, 1e-6): FLOOR_L2_GATE for n in (10, 20, 40)},
    "fine_mesh": _TABLE1_L2,
    "cli_table4": _TABLE4_LINF,
}


def gate_ratio(workload, row, ref):
    """Error divided by its gate; NaN when the solve produced no numbers.

    floor gates L2 at the roundoff floor (Table 3's published values are
    roundoff-level, so relative deviation is meaningless there); the other
    workloads gate the relative deviation from the published norm at 1 %.
    """
    if workload == "floor":
        return row["l2"] / ref
    value = row["l2"] if workload == "fine_mesh" else row["linf"]
    return abs(value - ref) / ref / REL_DEV_GATE


class PassChecker:
    """Gates each pass of one workload and checks passes agree bit for bit.

    Each expected solve counts once per pass.  It fails if it is missing,
    raised, missed its gate, or differs from the same solve in the first
    pass (results must not depend on the seed's row order).
    """

    def __init__(self, workload):
        self.workload = workload
        self.expected = EXPECTED[workload]
        self.first = {}
        self.attempted = 0
        self.failures = []
        self.err_to_gate = 0.0

    def check(self, rows):
        """rows: dicts with rule, n, dt, l2, linf, error and (optional) rel_dev."""
        seen = {(r["rule"], r["n"], r["dt"]): r for r in rows}
        for key, ref in self.expected.items():
            self.attempted += 1
            row = seen.get(key)
            if row is None:
                self.failures.append(f"{key}: missing")
                continue
            if row.get("error"):
                self.failures.append(f"{key}: {row['error']}")
                continue
            ratio = gate_ratio(self.workload, row, ref)
            if math.isfinite(ratio):
                self.err_to_gate = max(self.err_to_gate, ratio)
            values = (row["l2"], row["linf"])
            if not ratio <= 1.0:
                self.failures.append(f"{key}: error / gate = {ratio}")
            elif row.get("rel_dev") is not None and not abs(row["rel_dev"]) <= REL_DEV_GATE:
                self.failures.append(f"{key}: reported rel_dev {row['rel_dev']}")
            elif self.first.setdefault(key, values) != values:
                self.failures.append(f"{key}: {values} differs from first pass {self.first[key]}")

    def fail_pass(self, reason):
        """Count every expected solve of a pass that produced nothing."""
        self.attempted += len(self.expected)
        self.failures.extend(f"{key}: {reason}" for key in self.expected)


def parse_table_csv(text):
    """Rows of the `hermite-heat table` CSV as checker dicts."""
    lines = text.splitlines()
    if not lines or lines[0] != "table,rule,N,dt,t_final,l2,linf,ref_value,ref_norm,rel_dev":
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        _, rule, n, dt, _, l2, linf, _, _, rel_dev = line.split(",")
        rows.append(
            {
                "rule": rule,
                "n": int(n),
                "dt": float(dt),
                "l2": float(l2),
                "linf": float(linf),
                "rel_dev": float(rel_dev) if rel_dev else math.nan,
            }
        )
    return rows
