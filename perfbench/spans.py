"""Spans around the calls into bagforge's layers, recorded from outside.

`Tracer.install` replaces each traced public function in every bagforge
module namespace that holds it (so `bagforge.descent.eigen_solve` and
`bagforge.bag.eigenvalues` are traced as well as the defining module's own
calls), and the traced `FieldFunctional` methods on the class.  `uninstall`
puts the originals back.  Spans stay in memory as parallel lists (name,
start, end, parent, op id) on the integer nanosecond clock, so self times
are exact differences.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from time import perf_counter_ns

#: traced public functions per layer (a module of bagforge); `grid` is too
#: cheap to measure
LAYERS = {
    "cli": ("main", "write_table"),
    "soliton": ("minimize", "el_residual_from"),
    "descent": ("minimize_field", "FieldFunctional.energy_and_ladder",
                "FieldFunctional.gradient_partials"),
    "dirac": ("assemble_hamiltonian", "eigen_solve", "hellmann_feynman",
              "supercharge_singular_values"),
    "gamma": ("run_sweep", "reference_bag", "field_terms",
              "tv_well_coordinate"),
    "bag": ("minimize_bag", "mit_limit", "mit_ground", "cavity_energy",
            "cavity_energy_derivative"),
    "dispersion": ("eigenvalues", "matching_function", "mit_eigenvalue",
                   "mit_matching", "two_zone_state"),
    "potentials": ("surface_constant",),
    "verify": ("run_battery", "check_susy_pairing", "check_supercharge_svd",
               "check_hellmann_feynman", "check_oracle_agreement",
               "check_cavity_root", "check_cavity_shape",
               "check_density_normalization"),
}
SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
#: spans whose per-call median is reported: the pieces of one assembly,
#: eigen-solve, gradient, matching evaluation, root find, normalization and
#: radius optimization
P50_SPANS = ("dirac.assemble_hamiltonian", "dirac.eigen_solve",
             "descent.FieldFunctional.gradient_partials",
             "dispersion.matching_function", "dispersion.eigenvalues",
             "dispersion.mit_eigenvalue", "dispersion.two_zone_state",
             "bag.minimize_bag")
#: modules whose scipy `quad` binding is counted
QUAD_HOMES = ("dispersion", "potentials")

#: derived per-layer metrics: (name, unit, base of a ratio)
DERIVED = (
    ("dirac.pairs_per_solve", "count", "dirac.eigen_solve.calls"),
    ("descent.iterations", "count", None),
    ("descent.backtracks", "count", None),
    ("descent.energy_evals", "count", None),
    ("descent.accept_ratio", "ratio", "descent.energy_evals"),
    ("descent.iter_ms", "ms", "descent.iterations"),
    ("bag.radius_opts", "count", None),
    ("bag.evals_per_opt", "count", "bag.radius_opts"),
    ("dispersion.roots", "count", None),
    ("dispersion.evals_per_root", "count", "dispersion.roots"),
    ("quad.calls", "count", None),
)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for span in P50_SPANS:
        units[f"{span}.p50_ms"] = "ms"
    units.update((name, unit) for name, unit, _ in DERIVED)
    return units


class Tracer:
    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.op = [], []
        self.op_id = -1
        self._stack = []
        self._patches = []
        # counts read from the return values of traced calls
        self.pairs = self.iterations = self.accepted = 0
        self.radius_opts = self.quad_calls = 0

    # -- wrapping ------------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bagforge" or name.startswith("bagforge.")]
        posts = {"dirac.eigen_solve": self._count_pairs,
                 "descent.minimize_field": self._count_descent,
                 "bag.minimize_bag": self._count_opt,
                 "bag.mit_limit": self._count_limit_opts}
        for idx, span in enumerate(SPANS):
            layer, _, qual = span.partition(".")
            home = sys.modules[f"bagforge.{layer}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(idx, cls.__dict__[meth]))
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(idx, orig, posts.get(span))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapper)
        for layer in QUAD_HOMES:
            mod = sys.modules[f"bagforge.{layer}"]
            self._patch(mod, "quad", self._counted_quad(mod.quad))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, idx, fn, post=None):
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[i], ends[i] = t0, t1
            if post is not None:
                post(result)
            return result
        return span

    def _counted_quad(self, quad):
        @functools.wraps(quad)
        def counted(*args, **kwargs):
            self.quad_calls += 1
            return quad(*args, **kwargs)
        return counted

    def _count_pairs(self, res):
        self.pairs += len(res.eigenvalues)

    def _count_descent(self, res):
        self.iterations += res.iterations
        self.accepted += len(res.history) - 1

    def _count_opt(self, _):
        self.radius_opts += 1

    def _count_limit_opts(self, res):
        self.radius_opts += len(res.rows)

    # -- analysis ------------------------------------------------------------

    def self_ns(self) -> list:
        """Span duration minus the time its child spans cover (children of
        one span run one after another, so their durations add up)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return [d - c for d, c in zip(dur, covered)]

    def span_tree(self, op_wall_ns: dict) -> dict:
        """Consistency of the tree: least self time, and the largest share
        of an op's wall time that its spans' self times add up to."""
        own = self.self_ns()
        per_op = {}
        for i, op in enumerate(self.op):
            per_op[op] = per_op.get(op, 0) + own[i]
        return {"spans": len(own), "min_self_ns": min(own, default=0),
                "max_self_over_wall": max(
                    (per_op.get(op, 0) / wall for op, wall in
                     op_wall_ns.items()), default=0.0)}

    def metrics(self) -> dict:
        own = self.self_ns()
        index = {span: i for i, span in enumerate(SPANS)}
        calls = [0] * len(SPANS)
        self_total = [0] * len(SPANS)
        durations = {index[s]: [] for s in P50_SPANS}
        for i, idx in enumerate(self.name):
            calls[idx] += 1
            self_total[idx] += own[i]
            if idx in durations:
                durations[idx].append(self.end[i] - self.start[i])
        out = {}
        for span, i in index.items():
            out[f"{span}.calls"] = calls[i]
            out[f"{span}.self_s"] = self_total[i] * 1e-9
        for span in P50_SPANS:
            d = durations[index[span]]
            out[f"{span}.p50_ms"] = statistics.median(d) * 1e-6 if d else 0.0

        def n(span):
            return calls[index[span]]

        minimize_field = index["descent.minimize_field"]
        energy = index["descent.FieldFunctional.energy_and_ladder"]
        evals = sum(1 for i, idx in enumerate(self.name) if idx == energy
                    and self.parent[i] >= 0
                    and self.name[self.parent[i]] == minimize_field)
        descent_ns = sum(self.end[i] - self.start[i]
                         for i, idx in enumerate(self.name)
                         if idx == minimize_field)
        roots = n("dispersion.eigenvalues") + n("dispersion.mit_eigenvalue")
        cavity_evals = n("bag.cavity_energy") + n("bag.cavity_energy_derivative")
        solves = n("dirac.eigen_solve")
        out.update({
            "dirac.pairs_per_solve": _ratio(self.pairs, solves),
            "descent.iterations": self.iterations,
            "descent.backtracks": evals - n("descent.minimize_field")
            - self.accepted,
            "descent.energy_evals": evals,
            "descent.accept_ratio": _ratio(self.accepted, evals),
            "descent.iter_ms": _ratio(descent_ns * 1e-6, self.iterations),
            "bag.radius_opts": self.radius_opts,
            "bag.evals_per_opt": _ratio(cavity_evals, self.radius_opts),
            "dispersion.roots": roots,
            "dispersion.evals_per_root": _ratio(
                n("dispersion.matching_function")
                + n("dispersion.mit_matching"), roots),
            "quad.calls": self.quad_calls,
        })
        return out

    def write(self, path):
        """Spans as gzipped JSON lines: [name, start_ns, end_ns, parent, op]."""
        with gzip.open(path, "wt") as fh:
            for i, idx in enumerate(self.name):
                fh.write(json.dumps([SPANS[idx], self.start[i], self.end[i],
                                     self.parent[i], self.op[i]]) + "\n")


def _ratio(num, base) -> float:
    return num / base if base else 0.0
