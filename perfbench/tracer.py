"""Timing shims installed from outside the engine, and the per-layer metrics.

install() wraps the public functions of each engine module in every
module namespace that binds them by import, Polytope.lattice_scan on
the class, and the cfacets / face_lattice cached_property descriptors.
Each shim records a span (name, start, end, parent) in memory; fold()
turns a case's spans into self time per name (duration minus the
child spans) and call counts.  Counters that need arguments or results
(memo keys, scanned versus accepted points) are taken by hooks around
the same calls; each hook runs in a span of its own, so its cost is in
no layer's self time.  uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import newton_monodromy
from newton_monodromy.polytope import Polytope

PACKAGE = newton_monodromy.__name__
HOOKS = "trace.hooks"  # span of the counters' own bookkeeping

# (module, function, span name)
FUNCTIONS = (
    ("frontend", "parse_polynomial", "frontend.parse"),
    ("newton", "newton_polyhedron", "newton.polyhedron"),
    ("polytope", "make_polytope", "polytope.make"),
    ("ehrhart", "relint_counts", "ehrhart.relint_counts"),
    ("ehrhart", "p_alpha", "ehrhart.p_alpha"),
    ("fan", "normal_fan", "fan.normal_fan"),
    ("fan", "simplicial_refinement", "fan.refinement"),
    ("hodge", "hodge_table", "hodge.table"),
    ("hodge", "boundary_values", "hodge.boundary_values"),
    ("hodge", "pseudo_prime_row_sums", "hodge.pseudo_prime"),
    ("monodromy", "motivic_milnor_table", "monodromy.motivic_table"),
    ("monodromy", "jordan_blocks", "monodromy.jordan"),
    ("monodromy", "fastpath_unipotent", "monodromy.fastpath"),
    ("monodromy", "fastpath_top", "monodromy.fastpath"),
    # The four Fraction Gaussian eliminations.
    ("intlinalg", "frac_rank", "intlinalg.elimination"),
    ("intlinalg", "independent_rows", "intlinalg.elimination"),
    ("intlinalg", "solve_rational", "intlinalg.elimination"),
    ("intlinalg", "scaled_inverse_columns", "intlinalg.elimination"),
    ("oracles", "validate", "oracles.validate"),
    ("oracles", "kouchnirenko_mu", "oracles.kouchnirenko"),
)

CACHED_PROPERTIES = (
    ("cfacets", "polytope.cfacets"),
    ("face_lattice", "polytope.face_lattice"),
)


def np_scan_bytes(box_points: int, dim: int, facets: int, accepted: int) -> int:
    """Bytes the chunked numpy box scan moves, by a model, not measured.

    Per box point: the int64 meshgrid axes are written and stacked into
    Y (2 * 8 * dim); per facet Y is read for the product (8 * dim), the
    int64 values written (8), a bool compare written (1) and the mask
    read and written (2).  Accepted rows are copied out (8 * dim each).
    """
    return box_points * (16 * dim + facets * (8 * dim + 11)) + accepted * 8 * dim


class Tracer:
    """Spans and counters of one traced pass.

    A memo hit is a call whose key was already seen since the last
    reset_keys(), which the harness calls with every clear_caches().
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._open: list[int] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._keys: dict[str, set] = {}
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def _shim(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        def hook(fn, *args, **kwargs):
            # A span of its own, so that fold() takes the hook's cost out
            # of the caller's self time.
            h0 = clock()
            fn(*args, **kwargs)
            spans.append([HOOKS, h0, clock(), stack[-1] if stack else -1])

        def shim(*args, **kwargs):
            if before is not None:
                hook(before, *args, **kwargs)
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec = spans[idx]
                rec[1] = t0
                rec[2] = t1
            if after is not None:
                hook(after, out, *args, **kwargs)
            return out

        return functools.wraps(fn)(shim)

    def fold(self) -> None:
        """Fold the finished spans into self time and calls, then drop them."""
        if self._open:
            raise RuntimeError("fold() while a span is open")
        spans = self.spans
        for name, t0, t1, parent in spans:
            dur = t1 - t0
            self.self_ns[name] += dur
            self.calls[name] += 1
            if parent >= 0:
                self.self_ns[spans[parent][0]] -= dur
        spans.clear()

    # -- counters ------------------------------------------------------

    def reset_keys(self) -> None:
        self._keys.clear()

    def _seen(self, memo: str, key) -> bool:
        keys = self._keys.setdefault(memo, set())
        self.counts[memo + ".calls"] += 1
        if key in keys:
            self.counts[memo + ".hits"] += 1
            return True
        keys.add(key)
        return False

    def _before_make(self, points):
        key = tuple(sorted({tuple(int(x) for x in p) for p in points}))
        self._seen("polytope.make", key)

    def _before_relint(self, poly, char, k):
        if k >= 1 and not self._seen("ehrhart.relint_counts", (poly.key, char, k)):
            if poly.dim >= 1:
                self.counts["ehrhart.dilates_scanned"] += 1

    def _before_p_alpha(self, poly, char):
        self._seen("ehrhart.p_alpha", (poly.key, char))

    def _before_hodge(self, poly, char):
        self._seen("hodge.table", (poly.key, char))

    def _after_scan(self, out, poly, k, relint):
        kind, data = out
        box = 1
        for lo, hi in poly.bounding_box(k):
            box *= hi - lo + 1
        c = self.counts
        c["polytope.scan.calls_" + kind] += 1
        c["polytope.scan.box_points"] += box
        c["polytope.scan.accepted_points"] += len(data)
        if kind == "np":
            c["polytope.scan.bytes_np"] += np_scan_bytes(
                box, poly.dim, len(poly.cfacets), len(data)
            )

    def _after_refinement(self, out, cones):
        self.counts["fan.cones"] += len(out)

    def _after_newton(self, out, support):
        self.counts["newton.compact_faces"] += len(out.faces)

    def _after_validate(self, report, *args, **kwargs):
        for c in report.checks:
            self.counts["oracles.checks." + c.status] += 1

    # -- installation --------------------------------------------------

    def _hooks(self, span):
        return {
            "polytope.make": (self._before_make, None),
            "ehrhart.relint_counts": (self._before_relint, None),
            "ehrhart.p_alpha": (self._before_p_alpha, None),
            "hodge.table": (self._before_hodge, None),
            "fan.refinement": (None, self._after_refinement),
            "newton.polyhedron": (None, self._after_newton),
            "oracles.validate": (None, self._after_validate),
        }.get(span, (None, None))

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("shims are already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod, fname, span in FUNCTIONS:
            orig = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fname)
            shim = self._shim(span, orig, *self._hooks(span))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._replace(m, attr, shim)
        scan = Polytope.__dict__["lattice_scan"]
        self._replace(
            Polytope, "lattice_scan", self._shim("polytope.scan", scan, after=self._after_scan)
        )
        for attr, span in CACHED_PROPERTIES:
            desc = Polytope.__dict__[attr]
            self._replace(desc, "func", self._shim(span, desc.func))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- metrics -------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        s = {k: v / 1e9 for k, v in self.self_ns.items()}
        c, calls = self.counts, self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(memo):
            return ratio(c[memo + ".hits"], c[memo + ".calls"])

        out = {
            "polytope.scan_s": (s.get("polytope.scan", 0.0), "s"),
            "polytope.scan.calls_np": (c["polytope.scan.calls_np"], "count"),
            "polytope.scan.calls_py": (c["polytope.scan.calls_py"], "count"),
            "polytope.scan.box_points": (c["polytope.scan.box_points"], "count"),
            "polytope.scan.accepted_points": (c["polytope.scan.accepted_points"], "count"),
            "polytope.scan.accept_ratio": (
                ratio(c["polytope.scan.accepted_points"], c["polytope.scan.box_points"]),
                "ratio",
            ),
            "polytope.scan.bytes_np": (c["polytope.scan.bytes_np"], "bytes"),
            "polytope.cfacets_s": (s.get("polytope.cfacets", 0.0), "s"),
            "polytope.face_lattice_s": (s.get("polytope.face_lattice", 0.0), "s"),
            "polytope.make.calls": (c["polytope.make.calls"], "count"),
            "polytope.make.new": (
                c["polytope.make.calls"] - c["polytope.make.hits"], "count"
            ),
            "ehrhart.relint_counts_s": (s.get("ehrhart.relint_counts", 0.0), "s"),
            "ehrhart.relint_counts.calls": (c["ehrhart.relint_counts.calls"], "count"),
            "ehrhart.relint_counts.hit_ratio": (hit_ratio("ehrhart.relint_counts"), "ratio"),
            "ehrhart.p_alpha_s": (s.get("ehrhart.p_alpha", 0.0), "s"),
            "ehrhart.p_alpha.calls": (c["ehrhart.p_alpha.calls"], "count"),
            "ehrhart.p_alpha.hit_ratio": (hit_ratio("ehrhart.p_alpha"), "ratio"),
            "ehrhart.dilates_scanned": (c["ehrhart.dilates_scanned"], "count"),
            "fan.normal_fan_s": (s.get("fan.normal_fan", 0.0), "s"),
            "fan.refinement_s": (s.get("fan.refinement", 0.0), "s"),
            "fan.cones": (c["fan.cones"], "count"),
            "hodge.table_s": (s.get("hodge.table", 0.0), "s"),
            "hodge.table.calls": (c["hodge.table.calls"], "count"),
            "hodge.table.hit_ratio": (hit_ratio("hodge.table"), "ratio"),
            "hodge.boundary_values_s": (s.get("hodge.boundary_values", 0.0), "s"),
            "hodge.pseudo_prime_s": (s.get("hodge.pseudo_prime", 0.0), "s"),
            "monodromy.motivic_table_s": (s.get("monodromy.motivic_table", 0.0), "s"),
            "monodromy.jordan_s": (s.get("monodromy.jordan", 0.0), "s"),
            "monodromy.fastpath_s": (s.get("monodromy.fastpath", 0.0), "s"),
            "newton.polyhedron_s": (s.get("newton.polyhedron", 0.0), "s"),
            "newton.compact_faces": (c["newton.compact_faces"], "count"),
            "frontend.parse_s": (s.get("frontend.parse", 0.0), "s"),
            "intlinalg.elimination.calls": (calls["intlinalg.elimination"], "count"),
            "intlinalg.elimination_s": (s.get("intlinalg.elimination", 0.0), "s"),
            "oracles.validate_s": (s.get("oracles.validate", 0.0), "s"),
            "oracles.kouchnirenko_s": (s.get("oracles.kouchnirenko", 0.0), "s"),
            "oracles.checks.pass": (c["oracles.checks.pass"], "count"),
            "oracles.checks.skip": (c["oracles.checks.skip"], "count"),
            "oracles.checks.fail": (c["oracles.checks.fail"], "count"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
