"""Correctness of one op: its own certificate plus, for recorded inputs, the
outcome recorded at the benchmark's base commit.

The certificates are the ones each solver already states:

* soliton: every row converged with Euler-Lagrange residual <= 1e-5;
* bag: unflagged rows satisfy the wall balance 2a/R + b = N g (v^2-u^2)(R);
* mit: the printed lambda solves the hard-wall quantization u = v at R,
  re-evaluated here with independent closed-form Bessel functions;
* mit-limit: one finite row per exterior mass;
* gamma-sweep: one row per width (the sweep stops at the first width whose
  descent does not converge) and exit 0;
* verify: every check PASS.

A flagged collapse (a bag or limit row whose radius ran into the lower end
of the search interval, so no level is bound) is only accepted where the
recorded outcome for that very input has it.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

#: relative tolerance of the comparison against recorded outcomes
RECORDED_RTOL = 1e-10
EL_RESIDUAL_MAX = 1e-5
WALL_BALANCE_RTOL = 1e-6
MIT_ROOT_TOL = 1e-9

#: result-table columns compared against the record, per subcommand
VALUE_COLUMNS = {
    "soliton": ("energy", "lambdas"),
    "bag": ("R_opt", "lambda", "energy"),
    "mit": ("lambda",),
    "mit-limit": ("R_n", "l_n", "R_mit", "l_mit"),
    "gamma-sweep": ("l_s_eps", "l_c_ref"),
    "verify": (),
}


def read_rows(table: Path) -> list:
    with table.open(newline="") as fh:
        return list(csv.DictReader(fh))


def outcome(argv: list, code: int, table: Path) -> dict:
    """Exit code, compared values and collapse flag of a finished op."""
    rows = read_rows(table) if table.exists() else []
    values = []
    for row in rows:
        for col in VALUE_COLUMNS[argv[0]]:
            values.extend(float(x) for x in row[col].split(";"))
    if argv[0] == "verify":
        values = [float(row["passed"] == "true") for row in rows]
    return {"exit": code, "values": values, "collapse": _collapsed(argv, rows)}


def _collapsed(argv, rows) -> bool:
    if argv[0] == "bag":
        return any(row["flagged"] == "true" for row in rows)
    if argv[0] == "mit-limit":
        return any(row["boundary_ratio"] == "nan" for row in rows)
    return False


def check(argv: list, code: int, table: Path, expected: dict | None):
    """(ok, reason, collapse) for one finished op."""
    if code in (1, 3):
        return False, f"exit {code}", False
    if not table.exists():
        return False, "no result table", False
    got = outcome(argv, code, table)
    if expected is not None:
        reason = _compare(got, expected)
        if reason:
            return False, reason, got["collapse"]
    elif got["collapse"]:
        return False, "flagged collapse on an unrecorded input", True
    elif code != 0:
        return False, f"exit {code} on an unrecorded input", False
    reason = _certificate(argv, read_rows(table))
    return reason is None, reason or "", got["collapse"]


def _compare(got: dict, expected: dict):
    if got["exit"] != expected["exit"]:
        return f"exit {got['exit']} != recorded {expected['exit']}"
    if got["collapse"] != expected["collapse"]:
        return "collapse flag differs from record"
    a, b = got["values"], expected["values"]
    if len(a) != len(b):
        return f"{len(a)} values != recorded {len(b)}"
    for x, y in zip(a, b):
        if math.isnan(x) and math.isnan(y):
            continue
        if not abs(x - y) <= RECORDED_RTOL * max(abs(x), abs(y)):
            return f"value {x!r} != recorded {y!r}"
    return None


def _flag(argv: list, name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _certificate(argv: list, rows: list):
    sub = argv[0]
    if not rows:
        return "empty result table"
    if sub == "soliton":
        for row in rows:
            if row["converged"] != "true":
                return "soliton not converged"
            if not float(row["el_residual"]) <= EL_RESIDUAL_MAX:
                return f"el_residual {row['el_residual']} > {EL_RESIDUAL_MAX}"
    elif sub == "bag":
        for row in rows:
            if row["flagged"] == "true":
                continue
            a, b, R = float(row["a"]), float(row["b"]), float(row["R_opt"])
            scale = 2.0 * a / R + b
            if not float(row["curvature_residual"]) <= WALL_BALANCE_RTOL * scale:
                return f"wall balance residual {row['curvature_residual']}"
    elif sub == "mit":
        row = rows[0]
        R, m, lam = float(row["R"]), float(row["m"]), float(row["lambda"])
        if not lam > m:
            return f"lambda {lam} not above m"
        resid = _mit_quantization(R, m, lam)
        if not abs(resid) <= MIT_ROOT_TOL:
            return f"hard-wall quantization residual {resid:.3e}"
    elif sub == "mit-limit":
        want = len(_flag(argv, "--masses", "").split(",")) if "--masses" in argv \
            else int(_flag(argv, "--doublings", "10"))
        if len(rows) != want:
            return f"{len(rows)} limit rows for {want} masses"
        for row in rows:
            if not all(math.isfinite(float(row[c])) for c in
                       ("R_n", "l_n", "R_mit", "l_mit")):
                return "non-finite limit row"
    elif sub == "gamma-sweep":
        want = len(_flag(argv, "--eps", "0.4,0.2,0.1,0.05").split(","))
        if len(rows) != want:
            return f"sweep stopped after {len(rows)} of {want} widths"
    elif sub == "verify":
        failed = [row["check"] for row in rows if row["passed"] != "true"]
        if failed:
            return "verify FAIL: " + ";".join(failed)
    return None


def _mit_quantization(R: float, m: float, lam: float) -> float:
    """sqrt((lam-m)/(lam+m)) j1(x) - j0(x) at x = R sqrt(lam^2 - m^2)."""
    x = R * math.sqrt(lam * lam - m * m)
    j0 = math.sin(x) / x
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    return math.sqrt((lam - m) / (lam + m)) * j1 - j0
