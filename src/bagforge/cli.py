"""Command-line front end: parse configs, dispatch solves, emit results.

Configuration is a flat key-value file with dotted section names
(`model.m = 1.0`), chosen over nested formats so sweep studies diff
cleanly; command-line flags override file keys.  Every run writes the
requested rows as CSV or JSON plus a `run.json` manifest recording
parameters, grid, version and wall time.  Identical configuration and seed
produce byte-identical result files (the manifest holds the only
timestamp-like field).

Exit codes: 0 success, 1 usage error, 2 flagged non-convergence or solver
failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage problems exit 1, not argparse's 2
        raise UsageError(message)


# --------------------------------------------------------------------------
# formatting and file emission


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(x)


def write_table(path: Path, header, rows, fmt: str):
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        path.write_text("\n".join(lines) + "\n")
    else:
        objs = [{k: (None if isinstance(v, float) and math.isnan(v) else
                     (float(v) if isinstance(v, (float, np.floating)) else
                      (int(v) if isinstance(v, (int, np.integer)) and
                       not isinstance(v, bool) else v)))
                 for k, v in zip(header, row)} for row in rows]
        path.write_text(json.dumps(objs, indent=2, sort_keys=True) + "\n")


def read_table(path: Path):
    """Re-parse an emitted table (CSV or JSON) into header + string rows."""
    text = path.read_text()
    if path.suffix == ".json":
        objs = json.loads(text)
        header = sorted(objs[0].keys()) if objs else []
        return header, [[str(o[k]) for k in header] for o in objs]
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def write_manifest(outdir: Path, subcommand: str, params: dict,
                   wall_time: float):
    manifest = {
        "subcommand": subcommand,
        "parameters": {k: params[k] for k in sorted(params)},
        "version": __version__,
        "wall_time_s": wall_time,
    }
    (outdir / "run.json").write_text(json.dumps(manifest, indent=2,
                                                sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# config file + flags


def parse_config_file(path: str) -> dict:
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key or not val:
            raise UsageError(f"{path}:{lineno}: empty key or value")
        out[key] = val
    return out


_KEY_TYPES = {
    "model.m": float, "model.g": str, "model.N": int, "model.k": str,
    "potential.kappa": float, "potential.b": float,
    "grid.r_max": float, "grid.n": int,
    "solver.tol": float, "solver.max_iter": int,
    "bag.a": float, "bag.b": float, "bag.k": int,
    "bag.r_lo": float, "bag.r_hi": float,
    "mit.R": float, "mit.k": int,
    "limit.masses": str, "limit.doublings": int,
    "gamma.eps": str,
    "output.path": str, "output.format": str,
    "run.seed": int,
}


def _coerce(key: str, raw: str):
    if key not in _KEY_TYPES:
        raise UsageError(f"unknown config key {key!r}")
    typ = _KEY_TYPES[key]
    try:
        return typ(raw)
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc


def _floats(text: str, what: str):
    try:
        return [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}") from exc


def _ints(text: str, what: str):
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bagforge",
                description="Relativistic hadron bag solvers: soliton field, "
                            "sharp bag, confined cavity and the "
                            "diffuse-interface laboratory.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out", dest="output.path",
                        help="output stem (default: run artifacts in cwd)")
        sp.add_argument("--format", dest="output.format",
                        choices=["csv", "json"],
                        help="result table format (default csv)")
        sp.add_argument("--seed", dest="run.seed", type=int,
                        help="seed for randomized checks (default 0)")

    def grid(sp):
        sp.add_argument("--r-max", dest="grid.r_max", type=float,
                        help="domain truncation radius")
        sp.add_argument("--n", dest="grid.n", type=int, help="grid cells")

    sp = sub.add_parser("soliton", help="minimize the soliton field energy")
    common(sp)
    grid(sp)
    sp.add_argument("--m", dest="model.m", type=float, help="quark mass (default 1)")
    sp.add_argument("--g", dest="model.g",
                    help="coupling, comma list sweeps (default 10)")
    sp.add_argument("--N", dest="model.N", type=int, help="quark count (default 1)")
    sp.add_argument("--k", dest="model.k",
                    help="comma list of ladder indices (default all 1)")
    sp.add_argument("--kappa", dest="potential.kappa", type=float,
                    help="double-well strength (default 1)")
    sp.add_argument("--b", dest="potential.b", type=float,
                    help="field mass term (default 0.01)")
    sp.add_argument("--tol", dest="solver.tol", type=float,
                    help="gradient tolerance (default 1e-6)")
    sp.add_argument("--max-iter", dest="solver.max_iter", type=int,
                    help="iteration budget (default 4000)")

    sp = sub.add_parser("bag", help="optimal sharp-bag radius")
    common(sp)
    sp.add_argument("--m", dest="model.m", type=float, help="quark mass (default 1)")
    sp.add_argument("--g", dest="model.g", help="coupling in (0, m) (default 0.8)")
    sp.add_argument("--N", dest="model.N", type=int, help="quark count (default 1)")
    sp.add_argument("--a", dest="bag.a", type=float,
                    help="surface tension (default 1e-3)")
    sp.add_argument("--b", dest="bag.b", type=float,
                    help="bag constant (default 1e-3)")
    sp.add_argument("--k", dest="bag.k", type=int, help="ladder index (default 1)")
    sp.add_argument("--r-lo", dest="bag.r_lo", type=float,
                    help="radius search lower end")
    sp.add_argument("--r-hi", dest="bag.r_hi", type=float,
                    help="radius search upper end")

    sp = sub.add_parser("mit", help="confined-cavity eigenvalue at radius R")
    common(sp)
    sp.add_argument("--m", dest="model.m", type=float, help="quark mass (default 1)")
    sp.add_argument("--R", dest="mit.R", type=float, help="cavity radius (default 1)")
    sp.add_argument("--k", dest="mit.k", type=int, help="level index (default 1)")

    sp = sub.add_parser("mit-limit",
                        help="sharp-cavity minima for growing exterior masses")
    common(sp)
    sp.add_argument("--m", dest="model.m", type=float, help="quark mass (default 1)")
    sp.add_argument("--N", dest="model.N", type=int, help="quark count (default 1)")
    sp.add_argument("--a", dest="bag.a", type=float,
                    help="surface tension (default 0.01)")
    sp.add_argument("--b", dest="bag.b", type=float,
                    help="bag constant (default 0.01)")
    sp.add_argument("--masses", dest="limit.masses",
                    help="comma list of exterior masses")
    sp.add_argument("--doublings", dest="limit.doublings", type=int,
                    help="use masses m*2^j, j=1..D (default 10)")

    sp = sub.add_parser("gamma-sweep",
                        help="diffuse-interface sweep toward the sharp bag")
    common(sp)
    grid(sp)
    sp.add_argument("--m", dest="model.m", type=float, help="quark mass (default 8)")
    sp.add_argument("--g", dest="model.g", help="coupling in (0, m) (default 6.8)")
    sp.add_argument("--N", dest="model.N", type=int, help="quark count (default 1)")
    sp.add_argument("--kappa", dest="potential.kappa", type=float,
                    help="double-well strength (default 1)")
    sp.add_argument("--b", dest="potential.b", type=float,
                    help="field mass term (default 0.02)")
    sp.add_argument("--eps", dest="gamma.eps",
                    help="decreasing comma list of widths "
                         "(default 0.4,0.2,0.1,0.05)")
    sp.add_argument("--tol", dest="solver.tol", type=float,
                    help="gradient tolerance (default 1e-5)")
    sp.add_argument("--max-iter", dest="solver.max_iter", type=int,
                    help="iteration budget per width (default 20000)")

    sp = sub.add_parser("verify", help="run the invariant battery")
    common(sp)
    return p


_DEFAULTS = {
    "soliton": {"model.m": 1.0, "model.g": "10", "model.N": 1, "model.k": "",
                "potential.kappa": 1.0, "potential.b": 0.01,
                "grid.r_max": 20.0, "grid.n": 800, "solver.tol": 1e-6,
                "solver.max_iter": 4000},
    "bag": {"model.m": 1.0, "model.g": "0.8", "model.N": 1, "bag.a": 1e-3,
            "bag.b": 1e-3, "bag.k": 1, "bag.r_lo": 0.0, "bag.r_hi": 0.0},
    "mit": {"model.m": 1.0, "mit.R": 1.0, "mit.k": 1},
    "mit-limit": {"model.m": 1.0, "model.N": 1, "bag.a": 0.01, "bag.b": 0.01,
                  "limit.masses": "", "limit.doublings": 10},
    "gamma-sweep": {"model.m": 8.0, "model.g": "6.8", "model.N": 1,
                    "potential.kappa": 1.0, "potential.b": 0.02,
                    "grid.r_max": 3.0, "grid.n": 640, "solver.tol": 1e-5,
                    "solver.max_iter": 20000, "gamma.eps": "0.4,0.2,0.1,0.05"},
    "verify": {},
}

_COMMON_DEFAULTS = {"output.path": "bagforge_run", "output.format": "csv",
                    "run.seed": 0}


def parse(argv) -> dict:
    """Resolve defaults, config file and flags into one validated mapping."""
    ns = build_parser().parse_args(argv)
    sub = ns.subcommand
    params = dict(_COMMON_DEFAULTS)
    params.update(_DEFAULTS[sub])
    if getattr(ns, "config", None):
        for key, raw in parse_config_file(ns.config).items():
            if key not in params and key not in _KEY_TYPES:
                raise UsageError(f"unknown config key {key!r}")
            if key not in params:
                raise UsageError(
                    f"config key {key!r} does not apply to `{sub}`")
            params[key] = _coerce(key, raw)
    for key, val in vars(ns).items():
        if key in ("subcommand", "config") or val is None:
            continue
        params[key] = val
    params["subcommand"] = sub
    return params


# --------------------------------------------------------------------------
# subcommand drivers


def _out_paths(params) -> tuple:
    stem = Path(params["output.path"])
    if stem.parent != Path("."):
        stem.parent.mkdir(parents=True, exist_ok=True)
    suffix = ".csv" if params["output.format"] == "csv" else ".json"
    return stem.with_name(stem.name + suffix), stem


def _flagged(reason: str) -> int:
    """Exit status of a run whose results were written but did not pass:
    one `error:` line on stderr saying what failed, then 2."""
    print(f"error: {reason}", file=sys.stderr)
    return 2


def _unconverged(res, tol: float) -> str:
    return (f"after {res.iterations} iterations (gradient norm "
            f"{res.grad_norm:.3e} > tol {tol:g})")


def _run_soliton(params) -> int:
    gs = _floats(params["model.g"], "coupling")
    if not gs:
        raise UsageError("need at least one coupling value")
    m = float(params["model.m"])
    N = int(params["model.N"])
    ks = _ints(params["model.k"], "ladder") if params["model.k"] else [1] * N
    pot = PotentialSpec(kappa=float(params["potential.kappa"]),
                        b=float(params["potential.b"]))

    results = []
    for g in gs:
        cfg = SolitonConfig(
            model=ModelParams(n_quarks=N, g=g, m=m, k_indices=tuple(ks)),
            potential=pot, r_max=float(params["grid.r_max"]),
            n=int(params["grid.n"]), tol=float(params["solver.tol"]),
            max_iter=int(params["solver.max_iter"]))
        results.append(minimize(cfg))

    header = ["g", "m", "N", "k_list", "energy", "lambdas", "el_residual",
              "eigen_residual", "iterations", "converged"]
    rows = []
    for g, rep in zip(gs, results):
        rows.append([g, m, N, ";".join(str(k) for k in ks), rep.energy,
                     ";".join(_fmt(x) for x in rep.lambdas), rep.el.field,
                     rep.el.eigen, rep.iterations, rep.converged])
    table, stem = _out_paths(params)
    write_table(table, header, rows, params["output.format"])
    _write_soliton_profiles(stem, results)
    failed = [f"g={_fmt(g)} {_unconverged(rep, rep.config.tol)}"
              for g, rep in zip(gs, results) if not rep.converged]
    if failed:
        return _flagged("soliton descent did not converge at "
                        + "; ".join(failed))
    return 0


def _write_soliton_profiles(stem: Path, results):
    lines = ["series,r,value"]
    for rep in results:
        tag = _fmt(rep.config.model.g)
        grid = rep.phi.grid
        for r, v in zip(grid.r_primal, rep.phi.values):
            lines.append(f"phi_g{tag},{_fmt(r)},{_fmt(v)}")
        for i, psi in enumerate(rep.spinors):
            if psi is None:
                continue
            rho = density(psi)
            for r, v in zip(grid.r_primal, rho.values):
                lines.append(f"density_g{tag}_k{rep.config.model.k_indices[i]},"
                             f"{_fmt(r)},{_fmt(v)}")
    stem.with_name(stem.name + "_profile.csv").write_text(
        "\n".join(lines) + "\n")


def _run_bag(params) -> int:
    g = float(params["model.g"])
    interval = (float(params["bag.r_lo"]), float(params["bag.r_hi"]))
    cfg = BagConfig(n_quarks=int(params["model.N"]), g=g,
                    m=float(params["model.m"]), a=float(params["bag.a"]),
                    b=float(params["bag.b"]), k=int(params["bag.k"]),
                    r_interval=interval)
    rep = minimize_bag(cfg)
    header = ["N", "g", "m", "a", "b", "k", "R_opt", "lambda", "energy",
              "curvature_residual", "flagged"]
    rows = [[cfg.n_quarks, cfg.g, cfg.m, cfg.a, cfg.b, cfg.k, rep.R, rep.lam,
             rep.energy, rep.curvature_residual, rep.flagged]]
    table, _ = _out_paths(params)
    write_table(table, header, rows, params["output.format"])
    if rep.flagged:
        return _flagged(_bag_edge(rep.R, cfg.r_interval))
    return 0


def _bag_edge(R: float, interval) -> str:
    lo, hi = interval
    return (f"bag radius R={R:.6g} is not an interior optimum of the search "
            f"interval [{lo:.6g}, {hi:.6g}]")


def _run_mit(params) -> int:
    m = float(params["model.m"])
    R = float(params["mit.R"])
    k = int(params["mit.k"])
    lam = mit_eigenvalue(R, m, k)
    print(f"lambda = {lam:.6f}  (R={_fmt(R)}, m={_fmt(m)}, k={k})")
    header = ["R", "m", "k", "lambda"]
    table, _ = _out_paths(params)
    write_table(table, header, [[R, m, k, lam]], params["output.format"])
    return 0


def _run_mit_limit(params) -> int:
    m = float(params["model.m"])
    if params["limit.masses"]:
        masses = _floats(params["limit.masses"], "mass")
    else:
        doublings = int(params["limit.doublings"])
        if doublings < 1:
            raise ValueError(f"--doublings must be >= 1, got {doublings}")
        masses = [m * 2.0**j for j in range(1, doublings + 1)]
    # the limit sweep replaces the coupling well by the exterior wall, so g
    # only has to satisfy the config's validity window
    cfg = BagConfig(n_quarks=int(params["model.N"]), g=0.5 * m, m=m,
                    a=float(params["bag.a"]), b=float(params["bag.b"]), k=1)
    result = mit_limit(cfg, masses)
    header = ["M_n", "R_n", "l_n", "boundary_ratio", "R_mit", "l_mit"]
    rows = [[row.mass_out, row.R, row.energy, row.boundary_ratio,
             result.limit.R, result.limit.energy] for row in result.rows]
    table, _ = _out_paths(params)
    write_table(table, header, rows, params["output.format"])
    return 0


def _run_gamma(params) -> int:
    eps = _floats(params["gamma.eps"], "eps")
    sweep = GammaSweep(eps_schedule=eps,
                       potential=PotentialSpec(
                           kappa=float(params["potential.kappa"]),
                           b=float(params["potential.b"])),
                       n_quarks=int(params["model.N"]),
                       g=float(params["model.g"]),
                       m=float(params["model.m"]),
                       r_max=float(params["grid.r_max"]),
                       n=int(params["grid.n"]),
                       tol=float(params["solver.tol"]),
                       max_iter=int(params["solver.max_iter"]))
    result = run_sweep(sweep)
    header = ["eps", "l_s_eps", "l_c_ref", "interface_width",
              "l2_dist_to_char", "equipartition_ratio"]
    rows = [[r.eps, r.l_s, result.l_c, r.interface_width, r.l2_dist,
             r.equipartition_ratio] for r in result.rows]
    table, stem = _out_paths(params)
    write_table(table, header, rows, params["output.format"])
    lines = ["series,r,value"]
    grid = sweep.grid()
    for row in result.rows:
        for r, v in zip(grid.r_primal, row.phi):
            lines.append(f"phi_eps{_fmt(row.eps)},{_fmt(r)},{_fmt(v)}")
    stem.with_name(stem.name + "_profile.csv").write_text("\n".join(lines) + "\n")
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
    if failed:
        return _flagged("gamma-sweep " + "; ".join(failed))
    return 0


def _run_verify(params) -> int:
    checks = run_battery(seed=int(params["run.seed"]))
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    header = ["check", "passed", "detail"]
    rows = [[name, bool(ok), detail.replace(",", ";")]
            for name, ok, detail in checks]
    table, _ = _out_paths(params)
    write_table(table, header, rows, params["output.format"])
    failed = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
    if failed:
        return _flagged("verify checks failed: " + "; ".join(failed))
    return 0


_RUNNERS = {
    "soliton": _run_soliton,
    "bag": _run_bag,
    "mit": _run_mit,
    "mit-limit": _run_mit_limit,
    "gamma-sweep": _run_gamma,
    "verify": _run_verify,
}


def run(params: dict) -> int:
    """Execute a parsed configuration; writes artifacts plus the manifest."""
    start = time.perf_counter()
    sub = params["subcommand"]
    try:
        # degenerate inputs overflow inside the root scans; the solvers turn
        # the resulting non-finite values into errors, so numpy's warnings
        # would only put a second message on stderr
        with np.errstate(all="ignore"):
            code = _RUNNERS[sub](params)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outdir = Path(params["output.path"]).parent
    manifest_params = {k: v for k, v in params.items() if k != "subcommand"}
    write_manifest(outdir if str(outdir) != "" else Path("."), sub,
                   manifest_params, time.perf_counter() - start)
    return code


def main(argv=None) -> int:
    try:
        params = parse(argv if argv is not None else sys.argv[1:])
        return run(params)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # a solver gave up: no bracket, a degenerate level, a residual check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
