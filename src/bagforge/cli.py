"""Command-line front end: parse configs, dispatch solves, emit results.

Each option is declared once, in `_OPTIONS`: its config key, its flag, the
type that checks it and its help.  `_SUBCOMMANDS` gives each subcommand its
help, its runner and the defaults of the keys it accepts.  The flags, the
defaults shown by `--help`, the keys a subcommand accepts and the coercion
of config-file values all derive from these two tables, so a config value
is checked exactly like its flag.

Configuration is a flat key-value file with dotted section names
(`model.m = 1.0`), chosen over nested formats so sweep studies diff
cleanly; command-line flags override file keys.  Each runner solves and
returns its result rows; `run` alone writes them, as CSV or JSON, plus an
optional long-format profile CSV and a `run.json` manifest recording
parameters, version, wall time and, for the field descents (`soliton`,
`gamma-sweep`), a `telemetry` block read from each result's `descent`:
eigen-solves by how the bisection started and each descent's rejected
line-search trials (`backtracks`).  A `soliton` comma list keeps the rows
it solved when a coupling fails.  Identical configuration and seed give
byte-identical result files (the manifest's wall time aside).

Exit codes: 0 success, 1 usage error (including a problem too large to
allocate), 2 flagged non-convergence or solver failure, 3 I/O.  `main`
alone maps an exception to its code: `ValueError` and `MemoryError` give 1,
`RuntimeError` and `OverflowError` 2, `OSError` 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .bag import BagConfig, minimize_bag, mit_limit
from .dirac import density
from .dispersion import mit_eigenvalue
from .gamma import GammaSweep, run_sweep
from .potentials import PotentialSpec
from .soliton import ModelParams, SolitonConfig, minimize
from .verify import run_battery


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage problems exit 1, not argparse's 2
        raise ValueError(message)


# --------------------------------------------------------------------------
# formatting and file emission


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))     # a float's repr spells NaN as "nan"
    return str(x)


def write_table(path: Path, header, rows, fmt: str):
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    else:
        objs = [{k: (None if isinstance(v, float) and math.isnan(v) else
                     (float(v) if isinstance(v, (float, np.floating)) else
                      (int(v) if isinstance(v, (int, np.integer)) and
                       not isinstance(v, bool) else v)))
                 for k, v in zip(header, row)} for row in rows]
        path.write_text(json.dumps(objs, indent=2, sort_keys=True) + "\n")


def write_profiles(path: Path, series):
    """Long-format `series,r,value` CSV of (name, radii, values) triples of
    float arrays, each value in `_fmt`'s float format: the repr of the
    Python float that `tolist` gives."""
    lines = ["series,r,value"]
    for name, radii, values in series:
        lines += [f"{name},{r!r},{v!r}"
                  for r, v in zip(radii.tolist(), values.tolist())]
    path.write_text("\n".join(lines) + "\n")


def read_table(path: Path):
    """Re-parse an emitted CSV table into header + string rows."""
    lines = [ln for ln in path.read_text().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def write_manifest(outdir: Path, subcommand: str, params: dict,
                   wall_time: float, telemetry=None):
    manifest = {
        "subcommand": subcommand,
        "parameters": {k: params[k] for k in sorted(params)},
        "version": __version__,
        "wall_time_s": wall_time,
    }
    if telemetry is not None:
        manifest["telemetry"] = telemetry
    (outdir / "run.json").write_text(json.dumps(manifest, indent=2,
                                                sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# the option table, config file and flags


def _checked(typ, expected: str):
    """Type of an option: `typ`, failing with a message naming what it
    expects.  The parser applies it to a flag, `parse` to a config value."""
    def check(text: str):
        try:
            return typ(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}") from None
    return check


_REAL = _checked(float, "a number")
_INT = _checked(int, "an integer")


def _table_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from 'csv', 'json')")
    return text


#: every settable key: (flag, type, help).  Comma lists stay text here and
#: are split by the runner that reads them.
_OPTIONS = {
    "model.m": ("--m", _REAL, "quark mass"),
    "model.g": ("--g", str, "quark-field coupling (bag and gamma-sweep need "
                            "0 < g < m; soliton solves each of a comma list)"),
    "model.N": ("--N", _INT, "quark count"),
    "model.k": ("--k", str, "comma list of ladder indices, one per quark "
                            "(empty: all 1)"),
    "potential.kappa": ("--kappa", _REAL, "double-well strength"),
    "potential.b": ("--b", _REAL, "field mass term"),
    "grid.r_max": ("--r-max", _REAL, "domain truncation radius"),
    "grid.n": ("--n", _INT, "grid cells"),
    "solver.tol": ("--tol", _REAL, "gradient tolerance"),
    "solver.max_iter": ("--max-iter", _INT,
                        "iteration budget (per width in gamma-sweep)"),
    "bag.a": ("--a", _REAL, "surface tension"),
    "bag.b": ("--b", _REAL, "bag constant"),
    "bag.k": ("--k", _INT, "ladder index"),
    "bag.r_lo": ("--r-lo", _REAL, "radius search lower end (both ends 0: "
                                  "0.01/m to 100/m)"),
    "bag.r_hi": ("--r-hi", _REAL, "radius search upper end"),
    "mit.R": ("--R", _REAL, "cavity radius"),
    "mit.k": ("--k", _INT, "level index"),
    "limit.masses": ("--masses", str, "increasing comma list of exterior "
                                      "masses (empty: m*2^j, j=1..D)"),
    "limit.doublings": ("--doublings", _INT, "D, the count of doubled "
                                             "exterior masses"),
    "gamma.eps": ("--eps", str, "decreasing comma list of interface widths"),
    "output.path": ("--out", str, "output stem of the result files"),
    "output.format": ("--format", _table_format,
                      "result table format, csv or json"),
    "run.seed": ("--seed", _INT, "seed for randomized checks"),
}


def parse_config_file(path: str) -> dict:
    out, first = {}, {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key or not val:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is set "
                             f"twice, on lines {first[key]} and {lineno}")
        out[key], first[key] = val, lineno
    return out


def _numbers(text: str, typ, what: str) -> list:
    """A comma list of `typ` values; blank entries are skipped."""
    try:
        return [typ(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}: expected comma-separated "
                         f"{typ.__name__} values") from None


def _one_number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{what}: expected a number, got {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand's flags, built once per process: a
    parse reads the parser and changes nothing in it."""
    p = _Parser(prog="bagforge",
                description="Relativistic hadron bag solvers: soliton field, "
                            "sharp bag, confined cavity and the "
                            "diffuse-interface laboratory.")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (text, _, defaults) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=text, description=text)
        sp.add_argument("--config", metavar="FILE",
                        help="flat `key = value` file of the keys below; "
                             "flags override it")
        for key, default in {**_COMMON, **defaults}.items():
            flag, typ, about = _OPTIONS[key]
            shown = _fmt(default) or "empty"
            sp.add_argument(flag, dest=key, metavar=key, type=typ,
                            help=f"{about} (default: {shown})")
    return p


def parse(argv) -> dict:
    """Resolve defaults, config file and flags into one validated mapping."""
    ns = build_parser().parse_args(argv)
    sub = ns.subcommand
    params = {**_COMMON, **_SUBCOMMANDS[sub][2]}
    if ns.config:
        for key, raw in parse_config_file(ns.config).items():
            if key not in _OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            if key not in params:
                raise ValueError(
                    f"config key {key!r} does not apply to `{sub}`")
            try:
                params[key] = _OPTIONS[key][1](raw)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
    for key, val in vars(ns).items():
        if key not in ("subcommand", "config") and val is not None:
            params[key] = val
    stem = params["output.path"]
    if "\0" in stem or Path(stem).name in ("", ".."):
        raise ValueError(f"output.path {stem!r} must end in a file name and "
                         "hold no NUL character")
    params["subcommand"] = sub
    return params


# --------------------------------------------------------------------------
# subcommand runners: each solves and returns (header, rows, profile series
# or None, failure message or "", run.json telemetry or None)


def _unconverged(rep, tol: float) -> str:
    return (f"after {rep.descent.iterations} iterations (gradient norm "
            f"{rep.descent.grad_norm:.3e} > tol {tol:g})")


def _solve_telemetry(reports) -> dict:
    """The descents' eigen-solves summed by start (`DescentResult.solves`):
    full bisections without a warm result, resumed ones, and fallbacks to
    the full bisection; and each descent's rejected Armijo trials."""
    total = Counter()
    for rep in reports:
        total.update(rep.descent.solves)
    return {"eigen_solves": dict(total),
            "backtracks": [rep.descent.backtracks for rep in reports]}


def _run_soliton(p):
    gs = _numbers(p["model.g"], float, "coupling")
    if not gs:
        raise ValueError("need at least one coupling value")
    for i, g in enumerate(gs):      # two rows and series of one name
        if g in gs[:i]:
            raise ValueError(f"coupling g={_fmt(g)} is listed twice")
    m, N = p["model.m"], p["model.N"]
    ks = _numbers(p["model.k"], int, "ladder") if p["model.k"] else [1] * N
    pot = PotentialSpec(kappa=p["potential.kappa"], b=p["potential.b"])
    configs = [SolitonConfig(
        model=ModelParams(n_quarks=N, g=g, m=m, k_indices=tuple(ks)),
        potential=pot, r_max=p["grid.r_max"], n=p["grid.n"],
        tol=p["solver.tol"], max_iter=p["solver.max_iter"]) for g in gs]
    reports, errors = [], []
    for cfg in configs:
        try:
            reports.append(minimize(cfg))
        except RuntimeError as exc:     # a solver failure at this coupling
            errors.append(str(exc))
    if not reports:
        raise RuntimeError("; ".join(errors))

    header = ["g", "m", "N", "k_list", "energy", "lambdas", "el_residual",
              "eigen_residual", "iterations", "converged"]
    rows = [[rep.config.model.g, m, N, ";".join(str(k) for k in ks),
             rep.energy, ";".join(_fmt(x) for x in rep.lambdas),
             rep.el.field, rep.el.eigen, rep.descent.iterations,
             rep.converged] for rep in reports]
    profiles = []
    for rep in reports:
        tag, r = _fmt(rep.config.model.g), rep.phi.grid.r_primal
        profiles.append((f"phi_g{tag}", r, rep.phi.values))
        profiles += [(f"density_g{tag}_k{k}", r, density(psi).values)
                     for k, psi in zip(rep.config.model.k_indices, rep.spinors)
                     if psi is not None]
    failed = [f"g={_fmt(rep.config.model.g)} "
              + _unconverged(rep, rep.config.tol)
              for rep in reports if not rep.converged]
    if failed:
        errors.insert(0, "soliton descent did not converge at "
                      + "; ".join(failed))
    return header, rows, profiles, "; ".join(errors), _solve_telemetry(reports)


def _bag_edge(R: float, interval) -> str:
    lo, hi = interval
    return (f"bag radius R={R:.6g} is not an interior optimum of the search "
            f"interval [{lo:.6g}, {hi:.6g}]")


def _run_bag(p):
    cfg = BagConfig(n_quarks=p["model.N"],
                    g=_one_number(p["model.g"], "coupling"), m=p["model.m"],
                    a=p["bag.a"], b=p["bag.b"], k=p["bag.k"],
                    r_interval=(p["bag.r_lo"], p["bag.r_hi"]))
    rep = minimize_bag(cfg)
    header = ["N", "g", "m", "a", "b", "k", "R_opt", "lambda", "energy",
              "curvature_residual", "flagged"]
    rows = [[cfg.n_quarks, cfg.g, cfg.m, cfg.a, cfg.b, cfg.k, rep.R, rep.lam,
             rep.energy, rep.curvature_residual, rep.flagged]]
    return header, rows, None, (_bag_edge(rep.R, cfg.r_interval)
                                if rep.flagged else ""), None


def _run_mit(p):
    m, R, k = p["model.m"], p["mit.R"], p["mit.k"]
    lam = mit_eigenvalue(R, m, k)
    print(f"lambda = {lam:.6f}  (R={_fmt(R)}, m={_fmt(m)}, k={k})")
    return ["R", "m", "k", "lambda"], [[R, m, k, lam]], None, "", None


def _run_mit_limit(p):
    m = p["model.m"]
    if p["limit.masses"]:
        masses = _numbers(p["limit.masses"], float, "mass")
    else:
        doublings = p["limit.doublings"]
        # 2.0**1024 overflows a double
        if not 1 <= doublings <= 1023:
            raise ValueError(
                f"--doublings must be in [1, 1023], got {doublings}")
        masses = [m * 2.0**j for j in range(1, doublings + 1)]
    # the limit sweep replaces the coupling well by the exterior wall, so g
    # only has to satisfy the config's validity window
    cfg = BagConfig(n_quarks=p["model.N"], g=0.5 * m, m=m, a=p["bag.a"],
                    b=p["bag.b"], k=1)
    result = mit_limit(cfg, masses)
    header = ["M_n", "R_n", "l_n", "boundary_ratio", "R_mit", "l_mit",
              "flagged"]
    rows = [[row.mu_out, row.R, row.energy, row.boundary_ratio,
             result.limit.R, result.limit.energy, row.flagged]
            for row in result.rows]
    return header, rows, None, "", None


def _run_gamma(p):
    sweep = GammaSweep(eps_schedule=_numbers(p["gamma.eps"], float, "eps"),
                       potential=PotentialSpec(kappa=p["potential.kappa"],
                                               b=p["potential.b"]),
                       n_quarks=p["model.N"],
                       g=_one_number(p["model.g"], "coupling"),
                       m=p["model.m"], r_max=p["grid.r_max"], n=p["grid.n"],
                       tol=p["solver.tol"], max_iter=p["solver.max_iter"])
    result = run_sweep(sweep)
    header = ["eps", "l_s_eps", "l_c_ref", "interface_width",
              "l2_dist_to_char", "equipartition_ratio"]
    rows = [[r.eps, r.l_s, result.l_c, r.interface_width, r.l2_dist,
             r.equipartition_ratio] for r in result.rows]
    r_primal = sweep.grid.r_primal
    profiles = [(f"phi_eps{_fmt(row.eps)}", r_primal, row.descent.phi)
                for row in result.rows]
    ref = result.reference
    failed = []
    if ref.flagged:
        failed.append("reference " + _bag_edge(ref.R, ref.config.r_interval))
    elif not result.feasible:
        failed.append(f"reference bag is infeasible: l_c={ref.energy:.6g} "
                      f">= N m={sweep.n_quarks * sweep.m:.6g}")
    failed += [f"descent did not converge at eps={_fmt(r.eps)} "
               + _unconverged(r, sweep.tol)
               for r in result.rows if not r.converged]
    failure = "gamma-sweep " + "; ".join(failed) if failed else ""
    return header, rows, profiles, failure, _solve_telemetry(result.rows)


def _run_verify(p):
    checks = run_battery(seed=p["run.seed"])
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    header = ["check", "passed", "detail"]
    rows = [[name, bool(ok), detail.replace(",", ";")]
            for name, ok, detail in checks]
    failed = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
    return header, rows, None, ("verify checks failed: " + "; ".join(failed)
                                if failed else ""), None


_COMMON = {"output.path": "bagforge_run", "output.format": "csv",
           "run.seed": 0}

#: each subcommand: (help, runner, defaults of the keys it accepts besides
#: _COMMON)
_SUBCOMMANDS = {
    "soliton": ("minimize the soliton field energy", _run_soliton,
                {"model.m": 1.0, "model.g": "10", "model.N": 1, "model.k": "",
                 "potential.kappa": 1.0, "potential.b": 0.01,
                 "grid.r_max": 20.0, "grid.n": 800, "solver.tol": 1e-6,
                 "solver.max_iter": 4000}),
    "bag": ("optimal sharp-bag radius", _run_bag,
            {"model.m": 1.0, "model.g": "0.8", "model.N": 1, "bag.a": 1e-3,
             "bag.b": 1e-3, "bag.k": 1, "bag.r_lo": 0.0, "bag.r_hi": 0.0}),
    "mit": ("confined-cavity eigenvalue at radius R", _run_mit,
            {"model.m": 1.0, "mit.R": 1.0, "mit.k": 1}),
    "mit-limit": ("sharp-cavity minima for growing exterior masses",
                  _run_mit_limit,
                  {"model.m": 1.0, "model.N": 1, "bag.a": 0.01, "bag.b": 0.01,
                   "limit.masses": "", "limit.doublings": 10}),
    "gamma-sweep": ("diffuse-interface sweep toward the sharp bag",
                    _run_gamma,
                    {"model.m": 8.0, "model.g": "6.8", "model.N": 1,
                     "potential.kappa": 1.0, "potential.b": 0.02,
                     "grid.r_max": 3.0, "grid.n": 640, "solver.tol": 1e-5,
                     "solver.max_iter": 20000,
                     "gamma.eps": "0.4,0.2,0.1,0.05"}),
    "verify": ("run the invariant battery", _run_verify, {}),
}


def run(params: dict) -> None:
    """Execute a parsed configuration and write its result table, profiles
    and manifest.  A run whose results were written but did not pass raises
    `RuntimeError` saying what failed."""
    start = time.perf_counter()
    sub, fmt = params["subcommand"], params["output.format"]
    # degenerate inputs overflow inside the root scans; the solvers turn the
    # resulting non-finite values into errors, so numpy's warnings would only
    # put a second message on stderr
    with np.errstate(all="ignore"):
        header, rows, profiles, failure, telemetry = (
            _SUBCOMMANDS[sub][1](params))
    stem = Path(params["output.path"])
    stem.parent.mkdir(parents=True, exist_ok=True)
    write_table(stem.with_name(f"{stem.name}.{fmt}"), header, rows, fmt)
    if profiles is not None:
        write_profiles(stem.with_name(stem.name + "_profile.csv"), profiles)
    write_manifest(stem.parent, sub,
                   {k: v for k, v in params.items() if k != "subcommand"},
                   time.perf_counter() - start, telemetry)
    if failure:
        raise RuntimeError(failure)


def main(argv=None) -> int:
    """Run one command.  The one map from what it raised to its exit code,
    and the one place that prints its `error:` or `i/o error:` line."""
    sub = "bagforge"        # until the subcommand is parsed
    try:
        params = parse(argv if argv is not None else sys.argv[1:])
        sub = params["subcommand"]
        run(params)
        return 0
    except ValueError as exc:
        code, line = 1, f"error: {exc}"
    except MemoryError as exc:
        # numpy refuses an array larger than the machine before allocating
        code, line = 1, (f"error: {sub}: not enough memory for this problem "
                         f"({exc})")
    except RuntimeError as exc:
        # no bracket, a degenerate level, a residual check or a flagged result
        code, line = 2, f"error: {exc}"
    except OverflowError as exc:
        # a Python float ** raises where a solve leaves double range
        code, line = 2, (f"error: {sub}: floating-point overflow "
                         f"({exc.args[-1]})")
    except OSError as exc:
        code, line = 3, f"i/o error: {exc}"
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
