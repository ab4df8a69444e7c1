"""The benchmark's workloads: inputs made from a seed, jobs, and checks.

Each workload is a fixed list of jobs over inputs generated with
`multiplex.generators` from the workload seed.  `setup` generates and
writes the inputs (the code path of `multiplex gen`); `open_session`
loads what in-process jobs need; `execute` runs one job and returns its
outcome; `verify` checks an outcome and returns the reasons it failed.
Every multiplex function is reached through the namespace `mx` of the
current import, so a traced import and an untraced one never mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

PRIME = 32003


@dataclass
class Job:
    id: str                 # unique within the workload, e.g. "i03.page2"
    kind: str               # job type, e.g. "page2"
    instance: int
    sizes: dict             # input properties the job time may depend on
    argv: list | None = None          # CLI jobs
    output: str | None = None         # path given to -o, if any
    expect: tuple = (0,)              # accepted exit codes


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    result: object = None
    out_bytes: int = 0
    extra: dict = field(default_factory=dict)


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def module_sizes(mx, module) -> dict:
    degrees = mx.filtration.degrees_of(module)
    return {
        "total_dim": module.total_dim(),
        "max_tot": max((len(mx.filtration.tot_basis(module, n))
                        for n in degrees), default=0),
        "support": len(module.support()),
    }


def instance_rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 100003 + k)


def write_doc(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


class Workload:
    name = ""
    field_kind = "prime_field"
    instances = 0        # inputs generated per run; the job list cycles
    trace_instances = 0  # inputs whose jobs the traced run covers

    def field(self, mx):
        return mx.linalg.QQ if self.field_kind == "rational" \
            else mx.linalg.GF(PRIME)


class CliWorkload(Workload):
    """Jobs are `multiplex.cli.main(argv)` calls with stdout captured."""

    def open_session(self, mx, work: str):
        return {"mx": mx, "codes": {}}

    def execute(self, job: Job, session) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = session["mx"].cli.main(job.argv)
        return Outcome(code=code, stdout=out.getvalue(), stderr=err.getvalue())

    def verify(self, job: Job, oc: Outcome, session) -> list[str]:
        bad = []
        if oc.code not in job.expect:
            bad.append(f"exit code {oc.code}, expected {job.expect}: "
                       f"{oc.stderr.strip()[:200]}")
        if "Traceback" in oc.stderr:
            bad.append("traceback on stderr")
        digest = sha(oc.stdout)
        oc.out_bytes = len(oc.stdout.encode())
        if job.output:
            try:
                with open(job.output, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                bad.append(f"no output file: {exc}")
                data = b""
            oc.out_bytes += len(data)
            digest += ":" + sha(data)
        oc.extra["digest"] = digest
        session["codes"][job.id] = oc.code
        if job.kind.startswith("qis") and oc.code in (0, 1):
            if ("= True" in oc.stdout) != (oc.code == 0):
                bad.append("verdict text disagrees with the exit code")
            if job.kind == "qis-cone":
                other = session["codes"].get(f"i{job.instance:02d}.qis-pages")
                if other is not None and other != oc.code:
                    bad.append("the two E_r-quasi-isomorphism detectors "
                               "disagree")
        return bad


class SpectralFp(CliWorkload):
    """Spectral pages and E_r-quasi-isomorphism detection over F_32003."""

    name = "spectral-fp"
    # rank-1 spots over a long filtration: nearly every bidegree is filled,
    # so Tot^n has about 14 basis vectors in each of four degrees and the
    # cost varies little between seeds
    shape = dict(cols=(0, 13), verts=(-1, 2), max_rank=1, spots=200)
    instances = 12
    trace_instances = 4

    def setup(self, mx, seed: int, work: str) -> list[Job]:
        gen, F = mx.generators, self.field(mx)
        jobs = []
        for k in range(self.instances):
            rng = instance_rng(seed, k)
            a = gen.random_twisted_complex(F, rng, **self.shape)
            mx.twisted.check_twisted(a).raise_if_failed()
            f = gen.random_endo_morphism(a, rng)
            path = os.path.join(work, f"complex{k:02d}.json")
            write_doc(path, mx.io.document_json(F, {
                "A": mx.io.dump_twisted(F, a),
                "f": mx.io.dump_twisted_morphism(F, f, "A", "A")}))
            sizes = module_sizes(mx, a.module)
            for r in range(4):
                jobs.append(Job(f"i{k:02d}.page{r}", f"page{r}", k, sizes,
                                ["spectral", path, "--name", "A",
                                 "--page", str(r)]))
            for via in (False, True):
                kind = "qis-cone" if via else "qis-pages"
                jobs.append(Job(f"i{k:02d}.{kind}", kind, k, sizes,
                                ["er-qis", path, "--name", "f", "-r", "1"]
                                + (["--via-cone"] if via else []),
                                expect=(0, 1)))
        return jobs

class CliQq(CliWorkload):
    """Document-writing CLI jobs over QQ."""

    name = "cli-qq"
    field_kind = "rational"
    # rank-1 spots filling nearly every bidegree of a 5 x 4 window: total
    # dimension about 20, so the tensor square has about 400 basis vectors;
    # short jobs give a few hundred per run, so the tail percentile lies
    # well inside the tensor jobs.  Of the eleven job kinds, five cost less
    # than er-qis via pages and five more, so the median falls inside that
    # kind, whose cost depends on the fixed shape only; the costs of the
    # homotopy jobs vary with the drawn homotopy
    shape = dict(cols=(0, 4), verts=(-1, 2), max_rank=1, spots=200)
    instances = 12
    trace_instances = 4

    def setup(self, mx, seed: int, work: str) -> list[Job]:
        gen, F = mx.generators, self.field(mx)
        jobs = []
        for k in range(self.instances):
            rng = instance_rng(seed, k)
            a = gen.random_twisted_complex(F, rng, **self.shape)
            mx.twisted.check_twisted(a).raise_if_failed()
            f = gen.random_endo_morphism(a, rng)
            g, _ = gen.random_homotopic_pair(f, 1, rng)
            pair = os.path.join(work, f"pair{k:02d}.json")
            cplx = os.path.join(work, f"complex{k:02d}.json")
            write_doc(pair, mx.io.document_json(F, {
                "A": mx.io.dump_twisted(F, a),
                "f": mx.io.dump_twisted_morphism(F, f, "A", "A"),
                "g": mx.io.dump_twisted_morphism(F, g, "A", "A")}))
            write_doc(cplx, mx.io.document_json(F, {
                "A": mx.io.dump_twisted(F, a)}))
            sizes = module_sizes(mx, a.module)

            def out(tag):
                return os.path.join(work, f"{tag}{k:02d}.json")

            solved = out("homotopy")
            spec = [
                ("solve", ["homotopy", "solve", pair, "-r", "1", "--f", "f",
                           "--g", "g", "-o", solved], solved, (0,)),
                ("check", ["homotopy", "check", solved], None, (0,)),
                ("coderh", ["oracle", "coderh", solved], None, (0,)),
                ("path", ["path", cplx, "-r", "1", "-o", out("path")],
                 out("path"), (0,)),
                ("cone", ["cone", pair, "--name", "f", "-r", "1",
                          "-o", out("cone")], out("cone"), (0,)),
                ("tensor", ["tensor", cplx, cplx, "-o", out("tensor")],
                 out("tensor"), (0,)),
                ("tot", ["tot", cplx, "-o", out("tot")], out("tot"), (0,)),
                ("tot-inverse", ["tot-inverse", out("tot"), "-o",
                                 out("untot")], out("untot"), (0,)),
                ("check-input", ["check", "twisted", cplx], None, (0,)),
                ("qis-pages", ["er-qis", pair, "--name", "f", "-r", "1"],
                 None, (0, 1)),
                ("qis-cone", ["er-qis", pair, "--name", "f", "-r", "1",
                              "--via-cone"], None, (0, 1)),
            ]
            for kind, argv, output, expect in spec:
                jobs.append(Job(f"i{k:02d}.{kind}", kind, k, sizes, argv,
                                output, expect))
        return jobs


class DainfFp(Workload):
    """An in-process session calling the dA-infinity functions."""

    name = "dainf-fp"
    # columns 0..1, degrees 0..2, rank 1: every draw fills the same six
    # bidegrees, so all jobs share the memo caches.  f and h have arity <= 2
    # and g arity 1, so the double composites reach arity 4 (6^4 basis
    # words spread over many bidegrees) and cost nearly the same on every
    # draw; with g of arity 2 they reach arity 8 and a single job can take
    # minutes, and with one column the dense blocks make matmul, not
    # tree_iso, the largest cost
    compose_shape = dict(cols=(0, 1), verts=(0, 2), max_rank=1, spots=60)
    # degrees -1..0 close the vertical window above arity 2, so triangular
    # inverses are finite; one column keeps their cost from spreading over
    # three orders of magnitude between draws
    invert_shape = dict(cols=(0, 0), verts=(-1, 0), max_rank=3, spots=20)
    instances = 24
    trace_instances = 6

    def setup(self, mx, seed: int, work: str) -> list[Job]:
        gen, F, dio = mx.generators, self.field(mx), mx.io
        lam = mx.dainf.lambda_r_dga(1, F).algebra
        write_doc(os.path.join(work, "lambda1.json"),
                  dio.document_json(F, {"L": dio.dump_dainf(F, lam)}))
        lam_sizes = module_sizes(mx, lam.module)
        jobs = []
        for k in range(self.instances):
            rng = instance_rng(seed, k)
            a = gen.random_zero_product_dainf(F, rng, **self.compose_shape)
            space2 = gen.dainf_morphism_space(a, a, max_arity=2)
            space1 = gen.dainf_morphism_space(a, a, max_arity=1)
            f = gen.random_dainf_morphism(a, a, rng, space=space2,
                                          density=1.0)
            g = gen.random_dainf_morphism(a, a, rng, space=space1,
                                          density=1.0)
            h = gen.random_dainf_morphism(a, a, rng, space=space2,
                                          density=1.0)
            b = gen.random_zero_product_dainf(F, rng, **self.invert_shape)
            perturb = [el for el in gen.dainf_morphism_space(b, b, 2)
                       if (0, 1) not in el]
            e = gen.random_dainf_morphism(b, b, rng, space=perturb,
                                          density=1.0, with_identity=True)
            write_doc(os.path.join(work, f"algebras{k:02d}.json"),
                      dio.document_json(F, {
                          "A": dio.dump_dainf(F, a),
                          "f": dio.dump_dainf_morphism(F, f, "A", "A"),
                          "g": dio.dump_dainf_morphism(F, g, "A", "A"),
                          "h": dio.dump_dainf_morphism(F, h, "A", "A"),
                          "B": dio.dump_dainf(F, b),
                          "e": dio.dump_dainf_morphism(F, e, "B", "B")}))
            sa, sb = module_sizes(mx, a.module), module_sizes(mx, b.module)
            for kind in ("compose-gf", "compose-hg", "assoc-lhs",
                         "assoc-rhs"):
                jobs.append(Job(f"i{k:02d}.{kind}", kind, k, sa))
            jobs.append(Job(f"i{k:02d}.invert", "invert", k, sb))
            for r in range(3):
                jobs.append(Job(f"i{k:02d}.path{r}", f"path{r}", k,
                                lam_sizes))
        return jobs

    def open_session(self, mx, work: str):
        docs = {}
        for name in sorted(os.listdir(work)):
            if name.endswith(".json"):
                with open(os.path.join(work, name)) as fh:
                    docs[name[:-5]] = mx.io.load_document(json.load(fh))
        # results later jobs of the same instance need, dropped once used,
        # so memory does not grow with the number of jobs run
        return {"mx": mx, "docs": docs, "results": {}}

    def execute(self, job: Job, session) -> Outcome:
        mx = session["mx"]
        compose = mx.dainf.compose_dainf
        o = session["docs"][f"algebras{job.instance:02d}"].objects
        res = session["results"]
        key = f"i{job.instance:02d}."
        if job.kind == "compose-gf":
            out = compose(o["g"], o["f"])
        elif job.kind == "compose-hg":
            out = compose(o["h"], o["g"])
        elif job.kind == "assoc-lhs":
            out = compose(o["h"], res[key + "compose-gf"], check=False)
        elif job.kind == "assoc-rhs":
            out = compose(res[key + "compose-hg"], o["f"], check=False)
        elif job.kind == "invert":
            out = mx.dainf.invert_dainf(o["e"])
        else:
            lam = session["docs"]["lambda1"].objects["L"]
            out = mx.dainf.path_dainf(lam, int(job.kind[4:]))
        if job.kind in ("compose-gf", "compose-hg", "assoc-lhs"):
            res[job.id] = out
        return Outcome(code=0, result=out)

    def verify(self, job: Job, oc: Outcome, session) -> list[str]:
        mx = session["mx"]
        dio, F = mx.io, mx.linalg.GF(PRIME)
        out, bad = oc.result, []
        res = session["results"]
        key = f"i{job.instance:02d}."
        if job.kind.startswith("path"):
            text = dio.document_json(F, {
                "path": dio.dump_dainf(F, out.algebra),
                "iota": dio.dump_dainf_morphism(F, out.iota, "L", "path")})
            oc.extra["arity"] = max(j for (_, j) in out.algebra.m)
        elif out is None:
            return ["no inverse found"]
        else:
            text = dio.document_json(F, {
                "out": dio.dump_dainf_morphism(F, out, "s", "t")})
            oc.extra["arity"] = max((j for (_, j) in out.f), default=0)
        if job.kind == "assoc-rhs":
            lhs = res.get(key + "assoc-lhs")
            if lhs is None or lhs != out:
                bad.append("h(gf) and (hg)f differ")
            for kind in ("compose-gf", "compose-hg", "assoc-lhs"):
                res.pop(key + kind, None)
        if job.kind == "invert":
            e = session["docs"][f"algebras{job.instance:02d}"].objects["e"]
            ident = mx.dainf.identity_dainf(e.src)
            compose = mx.dainf.compose_dainf
            if compose(e, out, check=False) != ident or \
                    compose(out, e, check=False) != ident:
                bad.append("f o f^-1 or f^-1 o f is not the identity")
        oc.out_bytes = len(text.encode())
        oc.extra["digest"] = sha(text)
        return bad


WORKLOADS = {w.name: w for w in (SpectralFp(), DainfFp(), CliQq())}
