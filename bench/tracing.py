"""Outside-in tracing of multiplex for the benchmark.

The tracer wraps public functions and methods of the package modules from
the outside: no file of the package changes.  Each wrapper records a span
(name, start, end, parent, job) while a job runs; spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.

`from .bigraded import tree_iso` copies a binding, so a module-level
function is replaced in every `multiplex.*` module that binds the same
object.  Methods are replaced on their class.  The binding audit lists what
each wrapper replaced and fails when a boundary that PREDICTIONS says does
work on a workload records no calls there.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

# Span groups and the functions each one wraps, as (module, qualified name).
# A qualified name with a dot is a method, patched on its class.
TARGETS = {
    "linalg.echelon": [("linalg", "Matrix._echelon")],
    "linalg.subquotient": [("linalg", "Subquotient.__init__")],
    "linalg.reduce": [("linalg", "Subquotient.reduce")],
    "linalg.matmul": [("linalg", "Matrix.__mul__")],
    "linalg.matadd": [("linalg", "Matrix.__add__"), ("linalg", "Matrix.__sub__"),
                      ("linalg", "Matrix.__neg__"), ("linalg", "Matrix.scale")],
    "linalg.block_system": [("linalg", "BlockLinearSystem.solve"),
                            ("linalg", "BlockLinearSystem.solution_space"),
                            ("linalg", "BlockLinearSystem.assemble")],
    "bigraded.tree_iso": [("bigraded", "tree_iso")],
    "bigraded.tensor_maps": [("bigraded", "tensor_maps")],
    "bigraded.compose": [("bigraded", "compose")],
    "twisted.construct": [("twisted", "tensor"), ("twisted", "path"),
                          ("twisted", "cone"), ("twisted", "compose"),
                          ("twisted", "invert"),
                          ("twisted", "solve_r_homotopy")],
    "twisted.check": [("twisted", "check_twisted"),
                      ("twisted", "check_morphism"),
                      ("twisted", "check_r_homotopy")],
    "filtration.tot": [("filtration", "tot"), ("filtration", "tot_inverse"),
                       ("filtration", "tot_morphism")],
    "spectral.page": [("spectral", "spectral_page")],
    "spectral.page_entry": [("spectral", "page_entry")],
    "spectral.qis": [("spectral", "is_er_quasi_iso"),
                     ("spectral", "is_er_quasi_iso_via_cone"),
                     ("spectral", "page_of_morphism")],
    "dainf.compose": [("dainf", "compose_dainf")],
    "dainf.invert": [("dainf", "invert_dainf")],
    "dainf.path": [("dainf", "path_dainf")],
    "dainf.check": [("dainf", "check_dainf"),
                    ("dainf", "check_dainf_morphism"),
                    ("dainf", "check_r_homotopy_dainf")],
    "operadic.coderh": [("operadic", "check_coderh")],
    "io.load": [("cli", "_read"), ("io", "load_document")],
    "io.dump": [("io", "document_json"), ("io", "dump_twisted"),
                ("io", "dump_twisted_morphism"), ("io", "dump_r_homotopy"),
                ("io", "dump_dainf"), ("io", "dump_dainf_morphism"),
                ("io", "dump_filtered"), ("io", "dump_bigraded_map"),
                ("cli", "_emit")],
    "cli.main": [("cli", "main")],
    # the remaining verifiers, so that certify.share sees every check_*
    "certify.other": [("filtration", "check_filtered_complex"),
                      ("spectral", "check_page_recursion"),
                      ("filtered_ainf", "check_filtered_ainf")],
}

# Which end-to-end metrics each boundary should move, and on which
# workloads it does work.  The audit requires calls > 0 on those workloads.
PREDICTIONS = {
    "linalg.echelon": (["jobs_per_s", "job_p50_s"], ["spectral-fp", "cli-qq"],
                       "elimination; about 0 on dainf-fp"),
    "linalg.subquotient": (["jobs_per_s", "job_p50_s"], ["spectral-fp"],
                           "echelons_per_call is the wasted work of one "
                           "echelon per column of Z"),
    "linalg.reduce": (["jobs_per_s", "job_p50_s"], ["spectral-fp"],
                      "re-eliminates the same subquotient per call"),
    "linalg.matmul": (["jobs_per_s"], ["cli-qq", "dainf-fp"],
                      "block products of tensors and composites"),
    "linalg.matadd": (["jobs_per_s"], ["cli-qq", "dainf-fp"],
                      "dense Fraction sums of tensor"),
    "linalg.block_system": (["job_p50_s"], ["cli-qq"], "homotopy solve"),
    "bigraded.tree_iso": (["job_tail_s", "jobs_per_s"], ["dainf-fp"],
                          "dense 0/+-1 structural isomorphisms; 0 calls on "
                          "spectral-fp"),
    "bigraded.tensor_maps": (["jobs_per_s"], ["cli-qq", "dainf-fp"], ""),
    "bigraded.compose": (["jobs_per_s"], ["cli-qq", "dainf-fp"], ""),
    "twisted.construct": (["job_p50_s"], ["cli-qq"],
                          "tensor, path, cone, solve_r_homotopy"),
    "twisted.check": (["job_p50_s"], ["cli-qq", "spectral-fp"],
                      "input and output re-validation"),
    "filtration.tot": (["job_p50_s"], ["spectral-fp", "cli-qq"],
                       "totalization, small; the dA-infinity functions "
                       "never totalize, so 0 calls on dainf-fp"),
    "spectral.page": (["jobs_per_s", "job_p50_s"], ["spectral-fp"], ""),
    "spectral.page_entry": (["jobs_per_s"], ["spectral-fp"], ""),
    "spectral.qis": (["job_tail_s"], ["spectral-fp"],
                     "both E_r-quasi-isomorphism detectors"),
    "dainf.compose": (["jobs_per_s", "job_tail_s"], ["dainf-fp"], ""),
    "dainf.invert": (["jobs_per_s"], ["dainf-fp"], ""),
    "dainf.path": (["job_p50_s"], ["dainf-fp"], ""),
    "dainf.check": (["job_p50_s"], ["dainf-fp"],
                    "compose_dainf re-runs the morphism checker"),
    "operadic.coderh": (["job_p50_s"], ["cli-qq"], "coderivation oracle"),
    "io.load": (["job_p50_s", "peak_rss_mb"], ["cli-qq", "spectral-fp"],
                "file read, JSON parse and decode"),
    "io.dump": (["job_p50_s", "peak_rss_mb"], ["cli-qq"],
                "encode, JSON text and write"),
    "cli.main": (["job_p50_s"], ["spectral-fp", "cli-qq"],
                 "argparse is rebuilt on every call"),
}

# The per-layer metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = [
    ("linalg.echelon.calls", "count"), ("linalg.echelon.self_s", "s"),
    ("linalg.echelon.cells", "count"),
    ("linalg.subquotient.calls", "count"), ("linalg.subquotient.self_s", "s"),
    ("linalg.subquotient.echelons_per_call", "ratio"),
    ("linalg.reduce.calls", "count"), ("linalg.reduce.self_s", "s"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul.self_s", "s"),
    ("linalg.matadd.calls", "count"), ("linalg.matadd.self_s", "s"),
    ("linalg.block_system.self_s", "s"),
    ("linalg.block_system.unknowns", "count"),
    ("bigraded.tree_iso.calls", "count"), ("bigraded.tree_iso.self_s", "s"),
    ("bigraded.tree_iso.repeat_ratio", "ratio"),
    ("bigraded.tensor_maps.calls", "count"),
    ("bigraded.tensor_maps.self_s", "s"),
    ("bigraded.compose.calls", "count"), ("bigraded.compose.self_s", "s"),
    ("twisted.construct.self_s", "s"),
    ("twisted.check.calls", "count"), ("twisted.check.self_s", "s"),
    ("filtration.tot.calls", "count"), ("filtration.tot.self_s", "s"),
    ("spectral.page.calls", "count"), ("spectral.page.self_s", "s"),
    ("spectral.page_entry.calls", "count"), ("spectral.qis.self_s", "s"),
    ("dainf.compose.calls", "count"), ("dainf.compose.self_s", "s"),
    ("dainf.invert.self_s", "s"), ("dainf.path.self_s", "s"),
    ("dainf.check.calls", "count"), ("dainf.check.self_s", "s"),
    ("operadic.coderh.self_s", "s"),
    ("io.load.self_s", "s"), ("io.dump.self_s", "s"), ("io.bytes_out", "B"),
    ("cli.main.self_s", "s"),
    ("certify.share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

JOB = "job"  # group of the root span the harness opens around each job


def _tree_key(tree):
    if tree.is_leaf:
        return tree.module
    return (_tree_key(tree.left), _tree_key(tree.right))


def _echelon_cells(tracer, args, kwargs, result):
    m = args[0]
    tracer.cells += m.rows * m.cols


def _tree_iso_key(tracer, args, kwargs, result):
    perm = kwargs.get("perm", args[2] if len(args) > 2 else None)
    tracer.tree_keys.add((_tree_key(args[0]), _tree_key(args[1]),
                          None if perm is None else tuple(perm)))


def _block_unknowns(tracer, args, kwargs, result):
    tracer.unknowns += result[3]


def _emit_bytes(tracer, args, kwargs, result):
    tracer.bytes_out += len(args[0].encode())


# extra counters taken after the span closes, keyed by (module, qualname)
HOOKS = {
    ("linalg", "Matrix._echelon"): _echelon_cells,
    ("bigraded", "tree_iso"): _tree_iso_key,
    ("linalg", "BlockLinearSystem.assemble"): _block_unknowns,
    ("cli", "_emit"): _emit_bytes,
}


class AuditError(Exception):
    pass


class Tracer:
    """Spans and counters for one traced session of a fresh import."""

    def __init__(self):
        self.groups = [JOB] + list(TARGETS)
        self.group_id = {g: k for k, g in enumerate(self.groups)}
        self.functions: list[str] = []
        self.is_check: list[bool] = []
        self.active = False
        self.job = -1
        # spans as parallel arrays; index = span id
        self.s_fn: list[int] = []
        self.s_group: list[int] = []
        self.s_start: list[float] = []
        self.s_end: list[float] = []
        self.s_parent: list[int] = []
        self.s_job: list[int] = []
        self.s_self: list[float] = []
        self.stack: list[list] = []   # [span id, time covered by children]
        self.cells = 0
        self.unknowns = 0
        self.bytes_out = 0
        self.tree_keys: set = set()
        self.bindings: dict[str, list[str]] = {}

    # -- installation ----------------------------------------------------
    def install(self, modules: dict):
        """Wrap every target in the given {short name: module} namespace."""
        for group, targets in TARGETS.items():
            for mod_name, qualname in targets:
                label = f"{mod_name}.{qualname}"
                mod = modules.get(mod_name)
                if mod is None:
                    raise AuditError(f"module multiplex.{mod_name} missing")
                fn_id = len(self.functions)
                self.functions.append(label)
                self.is_check.append(qualname.split(".")[-1]
                                     .startswith("check_"))
                hook = HOOKS.get((mod_name, qualname))
                gid = self.group_id[group]
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        raise AuditError(f"{label} not found")
                    setattr(cls, meth,
                            self._wrap(vars(cls)[meth], gid, fn_id, hook))
                    self.bindings[label] = [f"class {mod.__name__}.{cls_name}"]
                    continue
                fn = getattr(mod, qualname, None)
                if fn is None or not callable(fn):
                    raise AuditError(f"{label} not found")
                wrapper = self._wrap(fn, gid, fn_id, hook)
                replaced = []
                for name, m in sorted(sys.modules.items()):
                    if m is None or not (name == "multiplex"
                                         or name.startswith("multiplex.")):
                        continue
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            replaced.append(f"{name}.{attr}")
                self.bindings[label] = replaced

    def _wrap(self, fn, gid, fn_id, hook):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            sid = len(tr.s_fn)
            parent = tr.stack[-1]
            tr.s_fn.append(fn_id)
            tr.s_group.append(gid)
            tr.s_parent.append(parent[0])
            tr.s_job.append(tr.job)
            tr.s_end.append(0.0)
            tr.s_self.append(0.0)
            frame = [sid, 0.0]
            tr.stack.append(frame)
            start = perf_counter()
            tr.s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tr.stack.pop()
                dur = end - start
                tr.s_end[sid] = end
                tr.s_self[sid] = dur - frame[1]
                parent[1] += dur
            if hook is not None:
                h0 = perf_counter()
                hook(tr, args, kwargs, result)
                # the hook is tracer work: count it as covered in the parent
                parent[1] += perf_counter() - h0
            return result

        return wrapper

    # -- jobs ----------------------------------------------------------------
    def begin_job(self, job_index: int):
        sid = len(self.s_fn)
        self.job = job_index
        self.s_fn.append(-1)
        self.s_group.append(0)
        self.s_parent.append(-1)
        self.s_job.append(job_index)
        self.s_end.append(0.0)
        self.s_self.append(0.0)
        self.stack = [[sid, 0.0]]
        self.active = True
        self.s_start.append(perf_counter())

    def end_job(self):
        end = perf_counter()
        self.active = False
        sid, covered = self.stack.pop()
        self.s_end[sid] = end
        self.s_self[sid] = end - self.s_start[sid] - covered
        return end - self.s_start[sid]

    # -- results -------------------------------------------------------------
    def group_stats(self):
        calls = [0] * len(self.groups)
        self_s = [0.0] * len(self.groups)
        for g, s in zip(self.s_group, self.s_self):
            calls[g] += 1
            self_s[g] += s
        return ({g: calls[k] for k, g in enumerate(self.groups)},
                {g: self_s[k] for k, g in enumerate(self.groups)})

    def certify_seconds(self) -> float:
        """Inclusive time of outermost check_* spans."""
        total = 0.0
        fn, parent, is_check = self.s_fn, self.s_parent, self.is_check
        for sid in range(len(fn)):
            if fn[sid] < 0 or not is_check[fn[sid]]:
                continue
            p = parent[sid]
            nested = False
            while p >= 0:
                if fn[p] >= 0 and is_check[fn[p]]:
                    nested = True
                    break
                p = parent[p]
            if not nested:
                total += self.s_end[sid] - self.s_start[sid]
        return total

    def metrics(self, job_seconds: float, overhead_ratio: float) -> dict:
        calls, self_s = self.group_stats()
        ech = self.group_id["linalg.echelon"]
        sq = self.group_id["linalg.subquotient"]
        under_sq = sum(1 for g, p in zip(self.s_group, self.s_parent)
                       if g == ech and p >= 0 and self.s_group[p] == sq)
        iso_calls = calls["bigraded.tree_iso"]
        values = {
            "linalg.echelon.cells": self.cells,
            "linalg.subquotient.echelons_per_call":
                under_sq / calls["linalg.subquotient"]
                if calls["linalg.subquotient"] else 0.0,
            "linalg.block_system.unknowns": self.unknowns,
            "bigraded.tree_iso.repeat_ratio":
                iso_calls / len(self.tree_keys) if self.tree_keys else 0.0,
            "io.bytes_out": self.bytes_out,
            "certify.share": self.certify_seconds() / job_seconds
                if job_seconds else 0.0,
            "trace.overhead_ratio": overhead_ratio,
        }
        for group in TARGETS:
            values.setdefault(group + ".calls", calls[group])
            values.setdefault(group + ".self_s", self_s[group])
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER}

    def shares(self, job_seconds: float) -> dict:
        """Self time of each group as a share of job time, job glue included."""
        _, self_s = self.group_stats()
        return {g: s / job_seconds for g, s in self_s.items() if s > 0}

    def audit(self, workload: str) -> list[str]:
        """Problems found: targets that replaced nothing, and predicted
        boundaries that recorded no calls on this workload."""
        problems = [f"{label}: no binding replaced"
                    for label, where in self.bindings.items() if not where]
        calls, _ = self.group_stats()
        for group, (_, workloads, _) in PREDICTIONS.items():
            if workload in workloads and calls[group] == 0:
                problems.append(f"{group}: predicted to do work on {workload} "
                                f"but recorded 0 calls")
        return problems

    def write_spans(self, path: str):
        """One JSON line per span: id, name, function, start, end, parent, job."""
        names = self.groups
        with gzip.open(path, "wt") as fh:
            for sid in range(len(self.s_fn)):
                fn = self.s_fn[sid]
                fh.write(json.dumps([
                    sid, names[self.s_group[sid]],
                    self.functions[fn] if fn >= 0 else None,
                    round(self.s_start[sid], 7), round(self.s_end[sid], 7),
                    self.s_parent[sid], self.s_job[sid]]) + "\n")
