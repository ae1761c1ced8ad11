"""Outside-in tracing of hardyshift's public functions.

The tracer replaces each traced function, under its own name, in every
hardyshift module that holds it, so that calls through a module's own
binding (``invariance`` imports ``project`` from ``subspaces``, for
example) are seen too.  Class methods are replaced on the class.  Spans
are kept in memory as (name, start, end, parent, task) and turned into
per-layer metrics at the end: a span's self time is its duration minus
the time covered by its child spans, so the self times of all spans plus
the unattributed time add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

SERIES_OPS = ("add", "sub", "scale", "mul", "inner_product", "shift_pow",
              "coshift_pow", "norm")
PAYLOAD_BUILDERS = ("check_payload", "stage_payload", "matrix_payload",
                    "matrix_text", "poly_pairs", "round12")

# (defining module, attribute, span group).  An attribute "Cls.meth" is a
# method replaced on its class.
TRACED = (
    ("subspaces", "project", "subspaces.project"),
    ("subspaces", "SpanSubspace.frame_matrix", "subspaces.SpanSubspace.frame_matrix"),
    ("subspaces", "orthonormalize", "subspaces.orthonormalize"),
    ("subspaces", "intersect", "subspaces.intersect"),
    ("subspaces", "intersect_shifted", "subspaces.intersect_shifted"),
    ("subspaces", "ortho_complement_within", "subspaces.ortho_complement_within"),
    ("invariance", "check_invariance", "invariance.check_invariance"),
    ("invariance", "check_near_invariance", "invariance.check_near_invariance"),
    ("invariance", "build_theta_range", "invariance.build_theta_range"),
    ("invariance", "build_model_space", "invariance.build_model_space"),
    ("invariance", "OperatorSpec.apply", "invariance.OperatorSpec.apply"),
    ("invariance", "verify_theorem_multi", "invariance.verify_theorem_multi"),
    ("blaschke", "toeplitz_apply", "blaschke.toeplitz_apply"),
    ("blaschke", "power_expansion", "blaschke.power_expansion"),
    ("blaschke", "build_wold_frame", "blaschke.build_wold_frame"),
    ("blaschke", "u_apply", "blaschke.u_apply"),
    ("blaschke", "transfer_subspace", "blaschke.transfer_subspace"),
    ("hitt", "extract_kernels", "hitt.extract_kernels"),
    ("hitt", "hitt_decompose", "hitt.hitt_decompose"),
    ("hitt", "build_j_map", "hitt.build_j_map"),
    ("hitt", "certify_theta", "hitt.certify_theta"),
    *(("series", op, "series.ops") for op in SERIES_OPS),
    ("veclift", "t_m_apply", "veclift.t_m_apply"),
    ("veclift", "vec_inner", "veclift.vec_inner"),
    ("laurent", "matmul", "laurent.matmul"),
    ("laurent", "is_inner", "laurent.is_inner"),
    ("laurent", "is_analytic", "laurent.is_analytic"),
    ("laurent", "toeplitz_adjoint_apply", "laurent.toeplitz_adjoint_apply"),
    ("problem", "load_problem", "problem.load_problem"),
)
SERIALIZE = "report.serialize"
PAYLOAD = "report.payload"

GROUPS = tuple(dict.fromkeys([g for _, _, g in TRACED] + [PAYLOAD, SERIALIZE]))

# extra per-layer counters: metric name -> unit
COUNTERS = {
    "subspaces.SpanSubspace.frame_matrix.bytes_built": "bytes",
    "subspaces.orthonormalize.vectors_in": "count",
    "subspaces.orthonormalize.rank_drop_ratio": "ratio",
    "invariance.check_invariance.frames_tested": "count",
    "invariance.verify_theorem_multi.cap_exponent": "1",
    "blaschke.power_expansion.distinct_keys": "count",
    "hitt.hitt_decompose.peels": "count",
    "series.TaylorPoly.constructed": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for g in GROUPS:
        units[f"{g}.calls"] = "count"
        units[f"{g}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.task = None
        self.counts: dict = defaultdict(float)
        self.power_keys: set = set()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, group: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (group, start, end, parent, self.task)

        return traced

    def span(self, group: str, fn, *args, **kwargs):
        """Call fn under a span of the benchmark's own."""
        return self._wrap(group, fn)(*args, **kwargs)

    def _hooks(self) -> dict:
        c = self.counts

        def frame_bytes(args, res):
            c["subspaces.SpanSubspace.frame_matrix.bytes_built"] += res.nbytes

        def ortho(args, res):
            c["subspaces.orthonormalize.vectors_in"] += len(res.generators)
            c["orthonormalize.dropped"] += len(res.dropped)

        def tested(args, res):
            c["invariance.check_invariance.frames_tested"] += res.tested

        def power_key(args, res):
            self.power_keys.add(tuple(args[:3]))

        def peels(args, res):
            c["hitt.hitt_decompose.peels"] += res.iterations

        return {
            "subspaces.SpanSubspace.frame_matrix": frame_bytes,
            "subspaces.orthonormalize": ortho,
            "invariance.check_invariance": tested,
            "blaschke.power_expansion": power_key,
            "hitt.hitt_decompose": peels,
        }

    # -- installation ------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hardyshift" or n.startswith("hardyshift."))]
        hooks = self._hooks()
        for modname, attr, group in TRACED:
            mod = sys.modules[f"hardyshift.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(group, cls.__dict__[meth], hooks.get(group)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(group, orig, hooks.get(group))
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._set(m, attr, wrapped)
        cli = sys.modules["hardyshift.cli"]
        for name in PAYLOAD_BUILDERS:
            self._set(cli, name, self._wrap(PAYLOAD, getattr(cli, name)))
        taylor = sys.modules["hardyshift.series"].TaylorPoly
        post_init = taylor.__dict__["__post_init__"]
        counts = self.counts

        def counted(obj):
            counts["series.TaylorPoly.constructed"] += 1
            post_init(obj)

        self._set(taylor, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list:
        cover = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        return [end - start - cover[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        own = self.self_times()
        calls: dict = defaultdict(int)
        selfs: dict = defaultdict(float)
        for (group, *_), s in zip(self.spans, own):
            calls[group] += 1
            selfs[group] += s
        out = {}
        for g in GROUPS:
            out[f"{g}.calls"] = calls[g]
            out[f"{g}.self_s"] = selfs[g]
        c = self.counts
        vin = c["subspaces.orthonormalize.vectors_in"]
        out.update({
            "subspaces.SpanSubspace.frame_matrix.bytes_built":
                c["subspaces.SpanSubspace.frame_matrix.bytes_built"],
            "subspaces.orthonormalize.vectors_in": vin,
            "subspaces.orthonormalize.rank_drop_ratio":
                c["orthonormalize.dropped"] / vin if vin else 0.0,
            "invariance.check_invariance.frames_tested":
                c["invariance.check_invariance.frames_tested"],
            "blaschke.power_expansion.distinct_keys": len(self.power_keys),
            "hitt.hitt_decompose.peels": c["hitt.hitt_decompose.peels"],
            "series.TaylorPoly.constructed": c["series.TaylorPoly.constructed"],
            "trace.unattributed_s": traced_wall - sum(own),
            "trace.overhead_ratio": traced_wall / untraced_wall,
        })
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines, start and end relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "task": task}) + "\n")
