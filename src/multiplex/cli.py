"""Command line front end.

Exit codes: 0 = all checks passed / construction succeeded,
1 = a verified mathematical failure (the report lists locations), or an
internal self-check that disagreed (``failed: internal check: ...``),
2 = input, schema or usage error, including a document over the size
budget of ``io.MAX_DIMENSION`` (and ``io.MAX_ARITY`` for the tensor
powers that checking or composing A-infinity structures builds).

A command decides the axioms of its inputs before it builds anything
from them, and nothing about what it builds, which satisfies its axioms
whenever the inputs do (the tests decide those implications).  Every
command prints the first failing input report on stdout, writes no
document and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from itertools import chain

from . import io as mio
from .bigraded import sum_module
from .dainf import (
    DAInfAlgebra, DAInfHomotopy, DAInfMorphism, check_dainf,
    check_dainf_morphism, check_r_homotopy_dainf, compose_dainf,
    path_dainf, underlying_twisted_morphism,
)
from .filtered_ainf import FilteredAInf, check_filtered_ainf
from .filtration import FilteredComplex, check_filtered_complex, tot, tot_inverse
from .generators import random_twisted_complex
from .io import Document, DocumentError, load_document
from .linalg import GF, QQ, DEFAULT_PRIME
from .operadic import check_coderh, default_truncation
from .reports import Report
from .spectral import is_er_quasi_iso, is_er_quasi_iso_via_cone, spectral_page
from .twisted import (
    RHomotopy, TwistedComplex, TwistedMorphism, check_morphism,
    check_r_homotopy, check_twisted, compose, cone, path, path_summands,
    solve_r_homotopy, tensor,
)


def _read(path: str) -> Document:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, or an integer literal over the digit limit of
        # int() (sys.get_int_max_str_digits)
        raise DocumentError(f"{path}: invalid JSON: {exc}") from None
    return load_document(payload)


def _emit(doc_json: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(doc_json)
    else:
        sys.stdout.write(doc_json)


def _print_reports(reports: list[tuple[str, Report]], as_json: bool) -> int:
    if as_json:
        payload = [dict(name=name, **rep.to_dict()) for name, rep in reports]
        print(mio.json_text(payload))
    else:
        for name, rep in reports:
            print(f"{name}: {rep}")
    return 0 if all(rep.ok for _, rep in reports) else 1


def _arity(keys) -> int:
    """Largest arity j among (i, j) component keys; 0 if there are none."""
    return max((j for (_, j) in keys), default=0)


def _check_bar_budget(src: DAInfAlgebra, f_arity: int, dst_arity: int,
                      what: str):
    """Size budget of (B_uv) for a morphism from src with components of
    arity at most f_arity into an algebra whose largest structure arity
    is dst_arity, checked before any power is built: the right side
    builds Pow(src, dst_arity * f_arity), which also bounds the bar
    powers of a composition, and the left side
    Pow(src, f_arity + (largest m^src arity) - 1)."""
    for k in (dst_arity * f_arity, f_arity + src.max_arity() - 1):
        mio.check_power_dimension(src.module, k, what)


def _check_path_budget(b: DAInfAlgebra, r: int, what: str):
    """Size budget of path_dainf(b, r), checked before it is built: the
    r-path has three copies of b and the structure arities of b, and
    checking its structure builds its power of arity 2k - 1 for the
    largest such arity k."""
    mio.check_power_dimension(sum_module(path_summands(b.module, r)),
                              2 * b.max_arity() - 1, what)


def _check_homotopy_budget(h: DAInfHomotopy, what: str):
    """Size budget of check_r_homotopy_dainf(h), checked before it runs:
    the (B_uv) checks of f and g at the arity of the largest f, g or h
    key, whose powers also bound the words of f, g and h in (H_mk), and
    the budget of P_r(B).  The checker does not build P_r(B), but the
    equivalent route through it (the test suite's reference) does, so an
    h whose r-path is over budget is refused whichever route decides."""
    arity = max(_arity(h.f.f), _arity(h.g.f), _arity(h.h))
    _check_bar_budget(h.src, arity, h.dst.max_arity(), what)
    _check_path_budget(h.dst, h.r, what)


def _refused(reports) -> bool:
    """Print the first failing report of the (label, report) pairs on
    stdout, after "label: " unless label is None, and say whether there
    was one.  A generator is read no further than its first failure."""
    for label, rep in reports:
        if not rep.ok:
            print(rep if label is None else f"{label}: {rep}")
            return True
    return False


def _ends(f) -> tuple:
    """The source and target of f, the source alone for an endomorphism."""
    return (f.src,) if f.dst is f.src else (f.src, f.dst)


def _axioms(objs, checker):
    """(None, checker report) for each object of objs, for _refused, once
    per object: a document gives a name one object, so an input read
    twice is decided once."""
    seen = []
    for obj in objs:
        if all(obj is not s for s in seen):
            seen.append(obj)
            yield None, checker(obj)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    doc = _read(args.file)
    kind = {
        "twisted": (TwistedComplex, check_twisted),
        "morphism": (TwistedMorphism, check_morphism),
        "dainf": (DAInfAlgebra, check_dainf),
        "dainf-morphism": (DAInfMorphism, check_dainf_morphism),
        "filtered-ainf": (FilteredAInf, check_filtered_ainf),
        "filtered": (FilteredComplex, check_filtered_complex),
    }[args.what]
    cls, checker = kind
    targets = doc.of_type(cls)
    if args.name is not None:
        name, obj = doc.select(args.name, cls, what=args.what)
        targets = {name: obj}
    if not targets:
        raise DocumentError(f"document has no {args.what} objects")
    if args.what == "dainf-morphism":
        for name, f in sorted(targets.items()):
            _check_bar_budget(f.src, _arity(f.f), f.dst.max_arity(),
                              f"checking morphism {name!r}")
        if _refused(_axioms((a for _, f in sorted(targets.items())
                             for a in (f.src, f.dst)), check_dainf)):
            return 1
    reports = [(name, checker(obj)) for name, obj in sorted(targets.items())]
    return _print_reports(reports, args.format == "json")


def cmd_tot(args) -> int:
    doc = _read(args.file)
    name, a = doc.select(args.name, TwistedComplex, what="twisted complex")
    k = tot(a)
    if _refused([(None, check_twisted(a, k))]):
        return 1
    objects = {name + "_tot": mio.dump_filtered(doc.field, k)}
    _emit(mio.document_json(doc.field, objects), args.output)
    return 0


def cmd_tot_inverse(args) -> int:
    doc = _read(args.file)
    name, k = doc.select(args.name, FilteredComplex, what="filtered complex")
    if _refused([(None, check_filtered_complex(k))]):
        return 1
    a = tot_inverse(k)
    objects = {name + "_twisted": mio.dump_twisted(doc.field, a)}
    _emit(mio.document_json(doc.field, objects), args.output)
    return 0


def cmd_spectral(args) -> int:
    doc = _read(args.file)
    name, obj = doc.select(args.name, TwistedComplex, FilteredComplex,
                           what="complex")
    if isinstance(obj, TwistedComplex):
        # totalized once: (A_m) is decided on the D^n the page reads
        k = tot(obj)
        rep = check_twisted(obj, k)
    else:
        k, rep = obj, check_filtered_complex(obj)
    if _refused([(None, rep)]):
        return 1
    page = spectral_page(k, args.page)
    entries = {f"{p},{q}": dim for (p, q), dim in page.dims().items()}
    if args.format == "json":
        payload = {
            "object": name,
            "page": args.page,
            "dims": entries,
            "delta": {f"{p},{q}": mio.dump_matrix(doc.field, m)
                      for (p, q), m in sorted(page.delta.items())},
        }
        print(mio.json_text(payload))
    else:
        print(f"E_{args.page}({name})")
        if not entries:
            print("  (zero page)")
        for key, dim in sorted(entries.items()):
            print(f"  ({key}): dimension {dim}")
        for (p, q) in sorted(page.delta):
            print(f"  delta at ({p},{q}) -> ({p - args.page},"
                  f"{q - args.page + 1}):")
            for row in mio.dump_matrix(doc.field, page.delta[(p, q)]):
                print("    " + " ".join(str(v) for v in row))
    return 0


def cmd_er_qis(args) -> int:
    doc = _read(args.file)
    name, f = doc.select(args.name, TwistedMorphism, DAInfMorphism,
                         what="morphism")
    if isinstance(f, DAInfMorphism):
        f = underlying_twisted_morphism(f)
    # (A_m) on each input complex, on the Tot its pages read, before (B_m)
    ks = [tot(a) for a in _ends(f)]
    if _refused((None, check_twisted(a, k)) for a, k in zip(_ends(f), ks)):
        return 1
    rep = check_morphism(f)
    verdict = None
    if rep.ok:
        detector = is_er_quasi_iso_via_cone if args.via_cone \
            else is_er_quasi_iso
        verdict = detector(f, args.r, ks[0], ks[-1])
    if args.format == "json":
        # verdict is null when f is not a morphism
        print(mio.json_text({
            "object": name, "r": args.r,
            "via": "cone" if args.via_cone else "pages",
            "morphism_check": rep.to_dict(), "quasi_isomorphism": verdict}))
    elif verdict is None:
        print(rep)
    else:
        how = "via the cone criterion" if args.via_cone else \
            "via induced pages"
        print(f"{name}: E_{args.r}-quasi-isomorphism = {verdict} ({how})")
    return 0 if verdict else 1


def cmd_cone(args) -> int:
    doc = _read(args.file)
    name, f = doc.select(args.name, TwistedMorphism, what="morphism")
    if _refused([*((None, check_twisted(a)) for a in _ends(f)),
                 (None, check_morphism(f))]):
        return 1
    c = cone(f, args.r)
    field = doc.field
    objects = {
        "source": mio.dump_twisted(field, f.src),
        "target": mio.dump_twisted(field, f.dst),
        name: mio.dump_twisted_morphism(field, f, "source", "target"),
        "cone": mio.dump_twisted(field, c.complex),
        "translation": mio.dump_twisted(field, c.projection.dst),
        "inclusion": mio.dump_twisted_morphism(field, c.inclusion,
                                               "target", "cone"),
        "projection": mio.dump_twisted_morphism(field, c.projection,
                                                "cone", "translation"),
    }
    _emit(mio.document_json(field, objects), args.output)
    return 0


def cmd_path(args) -> int:
    doc = _read(args.file)
    field = doc.field
    if args.dainf:
        name, a = doc.select(args.name, DAInfAlgebra, what="dainf algebra")
        _check_path_budget(a, args.r, f"the {args.r}-path of {name!r}")
        if _refused([(None, check_dainf(a))]):
            return 1
        p = path_dainf(a, args.r)
        objects = {
            name: mio.dump_dainf(field, a),
            "path": mio.dump_dainf(field, p.algebra),
            "iota": mio.dump_dainf_morphism(field, p.iota, name, "path"),
            "boundary_minus": mio.dump_dainf_morphism(field, p.p_minus,
                                                      "path", name),
            "boundary_plus": mio.dump_dainf_morphism(field, p.p_plus,
                                                     "path", name),
            "boundary_zero": mio.dump_bigraded_map(field, p.p_zero,
                                                   "path", name),
        }
    else:
        name, a = doc.select(args.name, TwistedComplex, what="twisted complex")
        if _refused([(None, check_twisted(a))]):
            return 1
        p = path(a, args.r)
        objects = {
            name: mio.dump_twisted(field, a),
            "path": mio.dump_twisted(field, p.complex),
            "iota": mio.dump_twisted_morphism(field, p.iota, name, "path"),
            "boundary_minus": mio.dump_twisted_morphism(field, p.p_minus,
                                                        "path", name),
            "boundary_plus": mio.dump_twisted_morphism(field, p.p_plus,
                                                       "path", name),
            "boundary_zero": mio.dump_bigraded_map(field, p.p_zero,
                                                   "path", name),
        }
    _emit(mio.document_json(field, objects), args.output)
    return 0


def cmd_homotopy(args) -> int:
    # check prints a report and solve writes a document, so each refuses
    # the other's option rather than ignore it
    if args.action == "check" and args.output is not None:
        raise DocumentError("homotopy check writes no document: "
                            "-o/--output is not accepted")
    if args.action == "solve" and args.format is not None:
        raise DocumentError("homotopy solve writes a document: "
                            "--format is not accepted")
    doc = _read(args.file)
    field = doc.field
    if args.action == "check":
        if args.dainf:
            name, h = doc.select(args.name, DAInfHomotopy,
                                 what="dainf homotopy")
            if args.r is not None and args.r != h.r:
                raise DocumentError(f"homotopy {name!r} has level {h.r}, "
                                    f"not {args.r}")
            _check_homotopy_budget(h, f"checking homotopy {name!r}")
            if _refused(_axioms((h.src, h.dst), check_dainf)):
                return 1
            rep = check_r_homotopy_dainf(h)
        else:
            name, h = doc.select(args.name, RHomotopy, what="homotopy")
            if args.r is not None and args.r != h.r:
                raise DocumentError(f"homotopy {name!r} has level {h.r}, "
                                    f"not {args.r}")
            if _refused([(None, check_twisted(h.dst))]):
                return 1
            rep = check_r_homotopy(h)
        return _print_reports([(name, rep)], args.format == "json")
    # solve
    if args.dainf:
        raise DocumentError("homotopy solving is implemented for twisted "
                            "complexes only")
    if args.r is None:
        raise DocumentError("homotopy solve needs -r")
    if args.f is None and args.g is None:
        morphisms = sorted(doc.of_type(TwistedMorphism))
        if len(morphisms) != 2:
            raise DocumentError("homotopy solve needs exactly two morphisms "
                                "or explicit --f/--g names")
        fname, gname = morphisms
        f, g = doc.objects[fname], doc.objects[gname]
    else:
        fname, f = doc.select(args.f, TwistedMorphism, what="morphism")
        gname, g = doc.select(args.g, TwistedMorphism, what="morphism")
    # what homotopy check decides on the written witness besides (H_m)
    if _refused([*((None, check_twisted(a)) for a in _ends(f)),
                 *((nm, check_morphism(mor))
                   for nm, mor in ((fname, f), (gname, g)))]):
        return 1
    h = solve_r_homotopy(f, g, args.r)
    if h is None:
        print(f"no {args.r}-homotopy from {fname} to {gname}")
        return 1
    objects = {
        "source": mio.dump_twisted(field, f.src),
        "target": mio.dump_twisted(field, f.dst),
        fname: mio.dump_twisted_morphism(field, f, "source", "target"),
        gname: mio.dump_twisted_morphism(field, g, "source", "target"),
        "homotopy": mio.dump_r_homotopy(field, h, fname, gname),
    }
    _emit(mio.document_json(field, objects), args.output)
    return 0


def cmd_tensor(args) -> int:
    doc_a = _read(args.file_a)
    doc_b = _read(args.file_b)
    if doc_a.field != doc_b.field:
        raise DocumentError("the two documents use different fields")
    name_a, a = doc_a.select(args.name_a, TwistedComplex,
                             what="twisted complex")
    name_b, b = doc_b.select(args.name_b, TwistedComplex,
                             what="twisted complex")
    mio.check_dimension(a.module.total_dim() * b.module.total_dim(),
                        "tensor product")
    if _refused((nm, check_twisted(obj))
                for nm, obj in ((name_a, a), (name_b, b))):
        return 1
    t = tensor(a, b)
    objects = {f"{name_a}_tensor_{name_b}": mio.dump_twisted(doc_a.field, t)}
    _emit(mio.document_json(doc_a.field, objects), args.output)
    return 0


def cmd_compose(args) -> int:
    doc_f = _read(args.file_f)
    doc_g = _read(args.file_g)
    if doc_f.field != doc_g.field:
        raise DocumentError("the two documents use different fields")
    field = doc_f.field
    if args.dainf:
        cls, what, axioms, morphism = (DAInfMorphism, "dainf morphism",
                                       check_dainf, check_dainf_morphism)
        dump, dump_morphism = mio.dump_dainf, mio.dump_dainf_morphism
    else:
        cls, what, axioms, morphism = (TwistedMorphism, "morphism",
                                       check_twisted, check_morphism)
        dump, dump_morphism = mio.dump_twisted, mio.dump_twisted_morphism
    fname, f = doc_f.select(args.name_f, cls, what=what)
    gname, g = doc_g.select(args.name_g, cls, what=what)
    if g.dst != f.src:
        raise DocumentError("morphisms are not composable: the target "
                            "of g must be the source of f")
    if args.dainf:
        for nm, mor in ((gname, g), (fname, f)):
            _check_bar_budget(mor.src, _arity(mor.f), mor.dst.max_arity(),
                              f"checking morphism {nm!r}")
        _check_bar_budget(g.src, _arity(f.f) * _arity(g.f),
                          f.dst.max_arity(),
                          f"composing {fname!r} after {gname!r}")
    if _refused(chain(_axioms((g.src, g.dst, f.dst), axioms),
                      ((nm, morphism(mor))
                       for nm, mor in ((gname, g), (fname, f))))):
        return 1
    out = compose_dainf(f, g, check=False) if args.dainf else compose(f, g)
    objects = {
        "source": dump(field, g.src),
        "target": dump(field, f.dst),
        "composite": dump_morphism(field, out, "source", "target"),
    }
    _emit(mio.document_json(field, objects), args.output)
    return 0


def cmd_oracle(args) -> int:
    doc = _read(args.file)
    name, h = doc.select(args.name, RHomotopy, what="homotopy")
    if args.r is not None and args.r != h.r:
        raise DocumentError(f"homotopy {name!r} has level {h.r}, not {args.r}")
    n = args.n if args.n is not None else default_truncation(h)
    if _refused([(None, check_twisted(h.dst))]):
        return 1
    try:
        verdict = check_coderh(h, n)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    if args.format == "json":
        print(mio.json_text({"object": name, "truncation": n,
                             "coderivation_identity": verdict}))
    else:
        print(f"{name}: coderivation identity at truncation {n} = {verdict} "
              f"(agrees with the direct homotopy checker)")
    return 0 if verdict else 1


def cmd_gen(args) -> int:
    if args.what != "random-twisted":
        raise DocumentError(f"unknown generator {args.what!r}")
    try:
        field = QQ if args.field == "rational" else GF(args.p)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    cols, verts, max_rank = args.cols, args.verts, args.max_rank
    options = ("--cols", "--verts", "--max-rank")
    if args.dims:
        parts = args.dims.split(",")
        if len(parts) != 3:
            raise DocumentError("--dims must look like "
                                "IMIN:IMAX,JMIN:JMAX,MAXRANK")
        cols, verts, rank_s = parts
        options = ("--dims",) * 3
        try:
            max_rank = int(rank_s)
        except ValueError:
            raise DocumentError(f"--dims: bad rank {rank_s!r}") from None
    imin, imax = _gen_range(cols, options[0])
    jmin, jmax = _gen_range(verts, options[1])
    if max_rank < 1:
        raise DocumentError(f"{options[2]}: the maximum rank must be at "
                            f"least 1, got {max_rank}")
    # random_unipotent allocates a dense matrix per Tot^n, and the total
    # dimension is at most spots * max_rank
    if args.spots * max_rank > mio.MAX_DIMENSION:
        raise DocumentError(
            f"--spots {args.spots} times the maximum rank {max_rank} "
            f"({options[2]}) is above the size budget of {mio.MAX_DIMENSION}")
    rng = random.Random(args.seed)
    a = random_twisted_complex(field, rng, cols=(imin, imax),
                               verts=(jmin, jmax), max_rank=max_rank,
                               spots=args.spots)
    check_twisted(a).raise_if_failed()
    objects = {"random": mio.dump_twisted(field, a)}
    _emit(mio.document_json(field, objects), args.output)
    return 0


def _gen_range(text: str, option: str) -> tuple[int, int]:
    """MIN:MAX of a gen option as a nonempty range of ints."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise DocumentError(f"{option}: ranges must look like MIN:MAX, "
                            f"got {text!r}") from None
    if lo > hi:
        raise DocumentError(f"{option}: the range {text!r} is empty")
    return lo, hi


# ---------------------------------------------------------------------------

def _nonneg_int(text: str) -> int:
    """argparse type for page and twisting indices: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multiplex",
        description="exact computations with twisted complexes, spectral "
                    "sequences and derived A-infinity algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, output=True, report=True):
        """--name, with -o for a command that writes a document and
        --format for one that prints a report or a verdict."""
        p.add_argument("--name", help="object name inside the document")
        if report:
            p.add_argument("--format", choices=("table", "json"),
                           default="table")
        if output:
            p.add_argument("-o", "--output", help="write the result here "
                           "instead of stdout")

    p = sub.add_parser("check", help="verify structure axioms")
    p.add_argument("what", choices=("twisted", "morphism", "dainf",
                                    "dainf-morphism", "filtered-ainf",
                                    "filtered"))
    p.add_argument("file")
    add_common(p, output=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tot", help="totalize a twisted complex")
    p.add_argument("file")
    add_common(p, report=False)
    p.set_defaults(func=cmd_tot)

    p = sub.add_parser("tot-inverse", help="read a split filtered complex "
                       "back as a twisted complex")
    p.add_argument("file")
    add_common(p, report=False)
    p.set_defaults(func=cmd_tot_inverse)

    p = sub.add_parser("spectral", help="compute a spectral sequence page")
    p.add_argument("file")
    p.add_argument("--page", type=_nonneg_int, required=True)
    add_common(p, output=False)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("er-qis", help="decide E_r-quasi-isomorphism")
    p.add_argument("file")
    p.add_argument("-r", type=_nonneg_int, required=True)
    p.add_argument("--via-cone", action="store_true")
    add_common(p, output=False)
    p.set_defaults(func=cmd_er_qis)

    p = sub.add_parser("cone", help="build the r-cone of a morphism")
    p.add_argument("file")
    p.add_argument("-r", type=_nonneg_int, required=True)
    add_common(p, report=False)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("path", help="build the r-path")
    p.add_argument("file")
    p.add_argument("-r", type=_nonneg_int, required=True)
    p.add_argument("--dainf", action="store_true")
    add_common(p, report=False)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("homotopy", help="check or solve r-homotopies")
    p.add_argument("action", choices=("check", "solve"))
    p.add_argument("file")
    p.add_argument("-r", type=_nonneg_int)
    p.add_argument("--dainf", action="store_true")
    p.add_argument("--f", help="source-side morphism name (solve)")
    p.add_argument("--g", help="target-side morphism name (solve)")
    add_common(p)
    # no default, so that solve can tell an explicit --format
    p.set_defaults(format=None)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("tensor", help="tensor two twisted complexes")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--name-a")
    p.add_argument("--name-b")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("compose", help="compose two morphisms (f after g)")
    p.add_argument("file_f")
    p.add_argument("file_g")
    p.add_argument("--dainf", action="store_true")
    p.add_argument("--name-f")
    p.add_argument("--name-g")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("oracle", help="coderivation cross-checks")
    p.add_argument("what", choices=("coderh",))
    p.add_argument("file")
    p.add_argument("-r", type=_nonneg_int)
    p.add_argument("-N", dest="n", type=_nonneg_int)
    add_common(p, output=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate random instances")
    p.add_argument("what", choices=("random-twisted",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dims", help="compact size spec IMIN:IMAX,JMIN:JMAX,RANK")
    p.add_argument("--cols", default="0:3", help="column range IMIN:IMAX")
    p.add_argument("--verts", default="-1:3",
                   help="vertical offset range JMIN:JMAX")
    p.add_argument("--max-rank", type=int, default=2)
    p.add_argument("--spots", type=int, default=4)
    p.add_argument("--field", choices=("rational", "prime_field"),
                   default="prime_field")
    p.add_argument("--p", type=int, default=DEFAULT_PRIME)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use: parsing leaves it as it was,
    so every call of main in a process shares it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # failed self-validation of a construction is a mathematical failure
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        # a self-check inside the program failed: a fault of the program
        # (such as two routes that must agree not agreeing), not the input
        print(f"failed: internal check: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
