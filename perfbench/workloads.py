"""Seeded operation streams for the four benchmark workloads.

An operation ("op") is one argv list for `bagforge.cli.main`.  Each workload
is an endless, deterministic stream of op cycles drawn from the workload
seed; a timed run takes whole cycles from the front of the stream until its
time is up.  The `--out` argument is added by the runner, so bagforge only
ever sees the generated inputs.  Continuous parameters come from a seeded
quasi-random sequence, so a short run covers each range evenly and two seeds
see different inputs with the same mix.

Soliton couplings, diffuse-interface parameters and battery seeds come from
finite sets.  At the excluded members listed below, the op fails at this
commit: the descent stops unconverged after its full iteration budget (exit
2, 20-70 s per op), or a battery check fails.  Such an input would fail
every run that draws it and swamp its timing.  The lists were produced by
`python3 perfbench/record.py --scan`; they are the program's known failing
inputs, not a tuning choice, and should be re-admitted once the solver is
fixed.  The continuous ranges were checked by sampling to produce no
failing op."""

from __future__ import annotations

import itertools
import random

#: default seed: its ops have recorded expected outcomes (expected_seed0.json)
DEFAULT_SEED = 0

# --- README configurations ---------------------------------------------------

README_SOLITON = ["soliton", "--g", "10", "--kappa", "0.05", "--b", "0.01",
                  "--n", "800", "--r-max", "20"]
README_MIT = ["mit", "--m", "1e-8", "--R", "1"]
README_MIT_LIMIT = ["mit-limit", "--m", "1", "--N", "1", "--a", "0.01",
                    "--b", "0.01", "--doublings", "10"]
README_GAMMA = ["gamma-sweep", "--m", "8", "--g", "6.8", "--kappa", "1",
                "--b", "0.02", "--eps", "0.4,0.2,0.1,0.05", "--r-max", "3",
                "--n", "640"]
README_VERIFY = ["verify"]

# --- soliton-descent ---------------------------------------------------------

#: couplings spanning the binding range at kappa=0.05, b=0.01, r_max=20
SOLITON_G = tuple(8.0 + 0.5 * j for j in range(45))
#: (n, N) classes in the order one cycle of eight ops visits them: ground
#: states on both grids, and N=3 (k=1,1,2) excited configurations
SOLITON_CYCLE = ((800, 1), (1600, 1), (800, 3), (800, 1),
                 (1600, 1), (800, 1), (800, 3), (1600, 3))
#: lattice couplings where descent ends unconverged at this commit
SOLITON_NONCONVERGENT = {
    (800, 1): (),
    (1600, 1): (23.0,),
    (800, 3): (21.0, 21.5, 22.5, 26.5, 29.0),
    (1600, 3): (8.5, 10.0, 10.5, 17.5, 22.5, 23.0, 25.5, 26.0, 28.5, 29.0,
                30.0),
}


def soliton_argv(n: int, N: int, g: float) -> list:
    argv = ["soliton", "--g", _num(g), "--kappa", "0.05", "--b", "0.01",
            "--n", str(n), "--r-max", "20"]
    if N == 3:
        argv += ["--N", "3", "--k", "1,1,2"]
    return argv


def _soliton_ops(rng: random.Random):
    couplings = {c: [g for g in SOLITON_G if g not in skip]
                 for c, skip in SOLITON_NONCONVERGENT.items()}
    points = {c: _Kronecker(rng, 1) for c in couplings}
    while True:
        yield [soliton_argv(*c, _pick(couplings[c], points[c].draw()[0]))
               for c in SOLITON_CYCLE]


# --- cavity-closed-form ------------------------------------------------------

#: light ops of a cycle: sixty bag radius optimizations and twenty cavity
#: eigenvalues, interleaved
CAVITY_LIGHT = ("bag", "mit", "bag", "bag") * 20


def _cavity_ops(rng: random.Random):
    # Each cycle opens with the heavy tail: the README limit sweep (about
    # 5 s; its 2m row is the one recorded collapse, R at the lower search
    # bound) and two seeded two-mass sweeps.  One cycle takes 22-40 s on a
    # 2-core Xeon, depending on the host's load; a run holds whole cycles,
    # so every run has the same op mix.
    points = {"bag": _Kronecker(rng, 4), "mit": _Kronecker(rng, 3),
              "mit-limit": _Kronecker(rng, 4)}
    while True:
        yield [list(README_MIT_LIMIT)] + [
            _cavity_op(kind, points[kind].draw())
            for kind in ("mit-limit", "mit-limit") + CAVITY_LIGHT]


def _cavity_op(kind: str, u: list) -> list:
    if kind == "bag":
        # small surface and volume constants: every draw binds
        return ["bag", "--g", _num(0.7 + 0.25 * u[0]),
                "--a", _num(10 ** (-4 + u[1])), "--b", _num(10 ** (-4 + u[2])),
                "--N", str(_pick((1, 2, 3), u[3]))]
    if kind == "mit":
        return ["mit", "--m", _num(10 ** (-2 + 2.3 * u[0])),
                "--R", _num(10 ** (-0.5 + 1.2 * u[1])),
                "--k", str(_pick((1, 2, 3), u[2]))]
    # exterior masses from 4m up: the 2m row collapses for most (a, b), as
    # the README sweep shows
    j0 = _pick((2, 3), u[3])
    masses = ",".join(_num(2.0 ** j) for j in range(j0, j0 + 2))
    return ["mit-limit", "--a", _num(10 ** (-3 + u[0])),
            "--b", _num(10 ** (-3 + u[1])),
            "--N", str(_pick((1, 2, 3), u[2])), "--masses", masses]


# --- gamma-sweep -------------------------------------------------------------

GAMMA_G_OVER_M = (0.83, 0.845, 0.86, 0.875, 0.89)
GAMMA_KAPPA = (0.8, 0.95, 1.1, 1.25, 1.4)
GAMMA_B = (0.015, 0.02, 0.025)
#: (g/m, kappa, b) lattice points where descent ends unconverged
GAMMA_NONCONVERGENT = ((0.845, 1.4, 0.015),)


def gamma_argv(gm: float, kappa: float, b: float) -> list:
    return ["gamma-sweep", "--m", "8", "--g", _num(8.0 * gm),
            "--kappa", _num(kappa), "--b", _num(b),
            "--eps", "0.4,0.2,0.1,0.05", "--r-max", "3", "--n", "640"]


def gamma_lattice() -> list:
    return [(gm, k, b) for gm in GAMMA_G_OVER_M for k in GAMMA_KAPPA
            for b in GAMMA_B]


def _gamma_ops(rng: random.Random):
    points = _Kronecker(rng, 3)
    while True:
        u = points.draw()
        p = (_pick(GAMMA_G_OVER_M, u[0]), _pick(GAMMA_KAPPA, u[1]),
             _pick(GAMMA_B, u[2]))
        if p not in GAMMA_NONCONVERGENT:
            yield [gamma_argv(*p)]


# --- verify-battery ----------------------------------------------------------

#: battery seeds: a finite pool, so every seed can be checked beforehand.
#: All 256 pass at this commit; outside the pool, seed 1639344096 fails the
#: Hellmann-Feynman check (relative mismatch 1.23e-4), about one seed in 165
VERIFY_SEEDS = tuple(range(256))
VERIFY_FAILING = ()


def _verify_ops(rng: random.Random):
    seeds = [s for s in VERIFY_SEEDS if s not in VERIFY_FAILING]
    points = _Kronecker(rng, 1)
    while True:
        yield [["verify", "--seed", str(_pick(seeds, points.draw()[0]))]]


def finite_inputs():
    """Every input of the lattices and seed pools, for record.py --scan."""
    for c in SOLITON_NONCONVERGENT:
        for g in SOLITON_G:
            yield soliton_argv(*c, g)
    for p in gamma_lattice():
        yield gamma_argv(*p)
    for s in VERIFY_SEEDS:
        yield ["verify", "--seed", str(s)]


# --- registry ----------------------------------------------------------------

# cavity-closed-form is not among the workloads of BENCHMARK.json: on a
# shared 2-vCPU host the time of its interpreter-bound ops switches between
# two levels about 1.6x apart with the host's load, for seconds at a time, so
# the median op of a run flips between them (quartile spread 0.46 of the
# median over ten seeds).  It stays runnable for per-layer work and for the
# layer-separation checks of test_smoke.py.

WORKLOADS = {
    "soliton-descent": dict(
        cycles=_soliton_ops, warmup=README_SOLITON,
        why="dirac and descent do nearly all the work and dispersion none; "
            "grid size and bound-level count vary, so spectral or descent "
            "changes show here and cavity changes must not",
        inputs="g on a 0.5 lattice in [8, 30] at kappa=0.05, b=0.01, "
               "r_max=20, less 17 non-convergent points; per 8 ops n=800 "
               "N=1 x3, n=1600 N=1 x2, n=800 N=3 k=1,1,2 x2, n=1600 N=3 x1"),
    "cavity-closed-form": dict(
        cycles=_cavity_ops, warmup=README_MIT,
        why="no matrix is built: bracketing, bisection and quadrature in "
            "dispersion plus radius optimization in bag; README mit-limit "
            "is the heavy tail",
        inputs="per 83 ops: the README mit-limit, two mit-limit (a, b in "
               "[1e-3, 1e-2], N 1-3, masses 4,8 or 8,16), sixty bag (g in "
               "[0.7, 0.95], a, b log-uniform in [1e-4, 1e-3], N 1-3) and "
               "twenty mit (m in [0.01, 2], R in [0.32, 5], k 1-3)"),
    "gamma-sweep": dict(
        cycles=_gamma_ops, warmup=README_GAMMA,
        why="descent under a stiff 1/eps metric with a per-iterate monitor "
            "and warm starts, next to one reference bag solve: the mixed "
            "path of both layers above",
        inputs="README sweep with g/m in 0.83-0.89, kappa in 0.8-1.4, "
               "b in 0.015-0.025 on a 5x5x3 lattice less one non-convergent "
               "point; four-width eps schedule"),
    "verify-battery": dict(
        cycles=_verify_ops, warmup=README_VERIFY,
        why="the verify layer and the full-window, both-sector, n=4000 "
            "and dense-SVD use of dirac, unlike the positive-window "
            "solves of descent",
        inputs="verify --seed s, s in [0, 256) less the seeds whose "
               "battery fails"),
}


def cycles(workload: str, seed: int):
    """Endless deterministic stream of op cycles (lists of argv) of one
    workload for one seed.  A timed run ends on a cycle boundary, so every
    run holds the same mix of op kinds."""
    return WORKLOADS[workload]["cycles"](random.Random(f"{workload}/{seed}"))


def op_stream(workload: str, seed: int):
    """The ops of `cycles`, one after another."""
    return itertools.chain.from_iterable(cycles(workload, seed))


class _Kronecker:
    """Quasi-random points in [0, 1)^d: frac(offset + i * alpha) with the
    R_d sequence alpha_j = phi_d^-(j+1), phi_d the root of x^(d+1) = x + 1.
    Any stretch of draws covers the unit cube evenly, so two seeds give
    different inputs with the same mix; the seed picks the offset."""

    def __init__(self, rng: random.Random, d: int):
        phi = 2.0
        for _ in range(60):
            phi = (1.0 + phi) ** (1.0 / (d + 1))
        self.alpha = [phi ** -(j + 1) for j in range(d)]
        self.x = [rng.random() for _ in range(d)]

    def draw(self) -> list:
        out = self.x
        self.x = [(x + a) % 1.0 for x, a in zip(self.x, self.alpha)]
        return out


def _pick(items, u: float):
    return items[min(int(u * len(items)), len(items) - 1)]


def _num(x: float) -> str:
    return f"{x:.6g}"


def nominal_s(argv: list) -> float:
    """Rough cost of one op on the reference host (2-core Xeon), used only
    to size traced runs, so their op count depends on the seed and the run
    length and not on the speed of the program."""
    sub = argv[0]
    if sub == "soliton":
        big = argv[argv.index("--n") + 1] == "1600"
        excited = "--N" in argv
        return 0.4 + 0.2 * big + 0.2 * excited + 0.2 * (big and excited)
    if sub == "mit-limit":
        masses = (len(argv[argv.index("--masses") + 1].split(","))
                  if "--masses" in argv else 10)
        return 0.8 + 0.45 * masses
    return {"bag": 0.5, "mit": 0.02, "gamma-sweep": 1.2, "verify": 0.7}[sub]


def traced_ops(workload: str, seed: int, seconds: float) -> list:
    """Leading ops of the stream that fill `seconds` when each runs twice
    (untraced and traced); at least one."""
    ops, total = [], 0.0
    for argv in op_stream(workload, seed):
        cost = 2.0 * nominal_s(argv)
        if ops and total + cost > seconds:
            return ops
        ops.append(argv)
        total += cost
