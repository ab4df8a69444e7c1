"""JSON interchange for complexes, algebras, morphisms and homotopies.

Document layout:

    {
      "schema_version": "1",
      "field": {"kind": "rational"} | {"kind": "prime_field", "p": 32003},
      "objects": {
        "A":  {"type": "twisted_complex", "dims": [[i, j, rank], ...],
               "d": {"1": {"bidegree": [-1, 0],
                            "blocks": [{"src": [i, j], "matrix": [[...]]}]}}},
        "f":  {"type": "twisted_morphism", "src": "A", "dst": "B",
               "f": {"0": {...}}},
        "h":  {"type": "r_homotopy", "r": 1, "f": "f", "g": "g",
               "h": {"0": {...}}},
        "L":  {"type": "dainf_algebra", "dims": ..., "m": {"0,2": {...}}},
        "p":  {"type": "dainf_morphism", "src": ..., "dst": ...,
               "f": {"0,1": {...}}},
        "H":  {"type": "dainf_homotopy", "r": 0, "f": ..., "g": ...,
               "h": {"0,1": {...}}},
        "K":  {"type": "filtered_complex", "dims": ..., "d": {"0": [[...]]}},
        "FA": {"type": "filtered_ainf", "dims": ...,
               "m": {"1": {"0": [[...]]}, "2": {...}}},
        "u":  {"type": "bigraded_map", "src": ..., "dst": ...,
               "bidegree": [p, q], "blocks": [...]}
      }
    }

Matrices act on column vectors and are written as row lists; basis order
is declaration order (for totalizations: columns ascending, then basis
order).  Rationals are "a/b" strings or integers, prime-field entries are
integers in [0, p).  Missing blocks are zero maps.

Documents are written by ``json_text``, which gives the text of
``json.dumps(payload, indent=2, sort_keys=True)`` without json's
pure-Python indenting encoder; the CLI's JSON reports go through it too.
``dump_matrix`` works a row at a time per field: a matrix holding no
Fraction is dumped as slices of its data.  ``parse_matrix`` reads a whole
matrix: entries that are all plain ints are adopted as they are over QQ
(QQ entries are ints where integral, see ``linalg``) and made F_p
residues in one pass, and any other matrix is read entry by entry through
``Field.parse``, which words every entry error.

Size budget: a module declared by "dims" may have total dimension (the sum
of its ranks, so also any single rank) at most MAX_DIMENSION = 10^4, and
so may the tensor product that the tensor command would build from two
documents and the tensor power A^{(x) v} that each arity key k builds:
v = 2k - 1 for a key of a filtered_ainf ("k") or dainf_algebra ("i,k")
document, whose relations compose m_k after 1 (x) m_k (x) 1, and v = k
for a key of a dainf_morphism or dainf_homotopy ("i,k", on the source
module), whose blocks live on the k-th power.  Those arities v are at
most MAX_ARITY = 100.  A larger declaration is an input error (exit 2),
reported before anything of that size is allocated.  The powers that a
command builds from several keys together are bounded by that command.

The modulus p is a JSON integer, prime and below 2^64 (primality is
decided exactly by deterministic Miller-Rabin in that range); a string
or float p is an error.  JSON true/false is never read as an integer: not
as p, a dims entry, a bidegree, a homotopy level or a matrix entry.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bigraded import BigradedMap, BigradedModule, power_module
from .dainf import DAInfAlgebra, DAInfHomotopy, DAInfMorphism
from .filtered_ainf import FilteredAInf
from .filtration import FilteredComplex, tot_dim
from .linalg import Field, Matrix
from .twisted import RHomotopy, TwistedComplex, TwistedMorphism

SCHEMA_VERSION = "1"

# dense Tot^n matrices of a module of this total dimension have at most
# (10^4 / 2)^2 entries, about 200 MB of list slots
MAX_DIMENSION = 10 ** 4
# a k-th tensor power is a tree k levels deep whose basis enumeration
# recurses once per level, so k stays far below the recursion limit
MAX_ARITY = 100


class DocumentError(ValueError):
    """Schema or reference error in an interchange document (exit 2)."""


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass but JSON true/false is not.
    A plain int, which is what the JSON decoder gives, passes on the
    first test."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def parse_field(payload) -> Field:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise DocumentError("field must be an object with a 'kind'")
    kind = payload["kind"]
    try:
        if kind == "rational":
            return Field("rational")
        if kind == "prime_field":
            p = payload.get("p", 0)
            if not _is_int(p):
                raise DocumentError(f"modulus must be an integer, got {p!r}")
            return Field("prime_field", p)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    raise DocumentError(f"unknown field kind {kind!r}")


def dump_field(field: Field):
    if field.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "prime_field", "p": field.p}


def check_dimension(total: int, what: str):
    """DocumentError unless total is within the size budget MAX_DIMENSION."""
    if total > MAX_DIMENSION:
        raise DocumentError(f"{what} has total dimension {total}, above the "
                            f"size budget of {MAX_DIMENSION}")


def check_power_dimension(module: BigradedModule, k: int, what: str):
    """DocumentError unless the k-th tensor power of module is within the
    size budget: k at most MAX_ARITY and total_dim ** k at most
    MAX_DIMENSION, multiplied up with an early exit, so neither a tree nor
    a big integer is built."""
    if k > MAX_ARITY:
        raise DocumentError(f"{what} needs a tensor power of arity {k}, "
                            f"above the size budget of {MAX_ARITY}")
    total, size = module.total_dim(), 1
    for _ in range(k):
        size *= total
        if size > MAX_DIMENSION:
            raise DocumentError(
                f"{what} needs a tensor power of arity {k} of a module of "
                f"total dimension {total}, above the size budget of "
                f"{MAX_DIMENSION}")


def _check_arity(module: BigradedModule, k: int, v: int, name: str):
    """Size budget of an arity key k on module that builds the tensor
    power of arity v: v = 2k - 1 for an algebra key, whose relations
    compose m_k after 1 (x) m_k (x) 1, and v = k for a morphism or
    homotopy key, whose blocks live on the k-th power.  What a command
    builds from several keys together, such as the bar powers of (B_uv),
    is bounded by that command before it builds anything."""
    check_power_dimension(module, v, f"object {name!r} (arity {k})")


def _budgeted_power(module: BigradedModule, name: str, span):
    """Source of an arity-k component, the k-th power of module, built
    only once its arity key is within the size budget of the power of
    arity span(k) that the key builds."""
    def power(k: int) -> BigradedModule:
        _check_arity(module, k, span(k), name)
        return power_module(module, k)
    return power


def parse_dims(field: Field, payload) -> BigradedModule:
    if not isinstance(payload, list):
        raise DocumentError("dims must be a list of [i, j, rank] triples")
    dims = {}
    for entry in payload:
        if (not isinstance(entry, list) or len(entry) != 3
                or not all(_is_int(x) for x in entry)):
            raise DocumentError(f"bad dims entry {entry!r}")
        i, j, n = entry
        if n < 0:
            raise DocumentError(f"negative rank at {(i, j)}")
        if (i, j) in dims:
            raise DocumentError(f"duplicate dims entry at {(i, j)}")
        if n:
            dims[(i, j)] = n
    check_dimension(sum(dims.values()), "module declared by dims")
    return BigradedModule(field, dims)


def dump_dims(module: BigradedModule):
    return [[i, j, n] for (i, j), n in sorted(module.dims.items())]


def parse_matrix(field: Field, payload, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix of a list of row lists.  Each row's type and
    length are tested as its entries are gathered; then the entries, if
    all of them are plain ints (bool excluded), are made F_p residues over
    F_p and adopted as they are over QQ, and otherwise each is read
    through Field.parse, which words every entry error.  So a wrong shape
    is reported before a bad entry, whichever comes first."""
    if isinstance(payload, list) and len(payload) == rows:
        data = []
        for row in payload:
            if not isinstance(row, list) or len(row) != cols:
                break
            data += row
        else:
            p = field.p
            if {*map(type, data)} <= {int}:
                return Matrix._of(field, rows, cols,
                                  [v % p for v in data] if p else data)
            try:
                return Matrix._of(field, rows, cols,
                                  [field.parse(v) for v in data])
            except (ValueError, ZeroDivisionError) as exc:
                raise DocumentError(f"bad matrix entry: {exc}") from None
    raise DocumentError(f"matrix must be {rows}x{cols} row lists")


def dump_matrix(field: Field, m: Matrix):
    c, d = m.cols, m.data
    rows = [d[r * c:(r + 1) * c] for r in range(m.rows)]
    if field.p or Fraction not in set(map(type, d)):
        return rows
    return [[a.numerator if a.denominator == 1
             else f"{a.numerator}/{a.denominator}" for a in row]
            for row in rows]


def _int_pair(payload, what: str) -> tuple[int, int]:
    if isinstance(payload, list) and len(payload) == 2:
        i, j = payload
        if _is_int(i) and _is_int(j):
            return i, j
    raise DocumentError(f"bad {what} {payload!r}")


def parse_map(field: Field, payload, src: BigradedModule, dst: BigradedModule,
              expected_bidegree=None) -> BigradedMap:
    """The map src -> dst of a JSON map payload.

    Each block is validated once, as it is read: its source pair by
    ``_int_pair`` (JSON true/false stays rejected) and its matrix by the
    one pass of ``parse_matrix``, against the shape that the two modules'
    dims give.  The nonzero blocks are then adopted by ``BigradedMap._of``
    as they are, without a second shape check."""
    if not isinstance(payload, dict) or "bidegree" not in payload:
        raise DocumentError("map payload needs a 'bidegree'")
    bid = _int_pair(payload["bidegree"], "bidegree")
    if expected_bidegree is not None and bid != expected_bidegree:
        raise DocumentError(f"bidegree {list(bid)} does not match the "
                            f"expected {list(expected_bidegree)}")
    entries = payload.get("blocks", [])
    if not isinstance(entries, list):
        raise DocumentError("map blocks must be a list")
    p, q = bid
    sdims, ddims = src._dims, dst._dims
    blocks = {}
    for entry in entries:
        if not isinstance(entry, dict) or "src" not in entry or \
                "matrix" not in entry:
            raise DocumentError("map block needs 'src' and 'matrix'")
        si, sj = _int_pair(entry["src"], "block source")
        cols = sdims.get((si, sj))
        if cols is None:
            raise DocumentError(f"map block at {(si, sj)} has no source")
        mat = parse_matrix(field, entry["matrix"],
                           ddims.get((si + p, sj + q), 0), cols)
        if (si, sj) in blocks:
            raise DocumentError(f"duplicate map block at {(si, sj)}")
        blocks[(si, sj)] = mat
    if src.field != dst.field:
        raise DocumentError("field mismatch")
    return BigradedMap._of(src, dst, bid, {k: m for k, m in blocks.items()
                                           if any(m.data)})


def dump_map(field: Field, m: BigradedMap):
    return {
        "bidegree": list(m.bidegree),
        "blocks": [{"src": [i, j], "matrix": dump_matrix(field, blk)}
                   for (i, j), blk in sorted(m.blocks.items())],
    }


def _parse_indexed_maps(field, payload, src, dst, bidegree_of, what):
    out = {}
    if payload is None:
        return out
    if not isinstance(payload, dict):
        raise DocumentError(f"{what} must map indices to map payloads")
    for key, mp in payload.items():
        try:
            idx = int(key)
        except ValueError:
            raise DocumentError(f"bad {what} index {key!r}") from None
        if idx < 0:
            raise DocumentError(f"negative {what} index {idx}")
        out[idx] = parse_map(field, mp, src, dst, bidegree_of(idx))
    return out


def _parse_pair_indexed_maps(field, payload, src_of, dst, bidegree_of, what,
                             min_second=1):
    out = {}
    if payload is None:
        return out
    if not isinstance(payload, dict):
        raise DocumentError(f"{what} must map 'i,j' indices to map payloads")
    for key, mp in payload.items():
        try:
            i, j = (int(x) for x in key.split(","))
        except ValueError:
            raise DocumentError(f"bad {what} index {key!r}") from None
        if i < 0 or j < min_second:
            raise DocumentError(f"bad {what} index {(i, j)}")
        out[(i, j)] = parse_map(field, mp, src_of(j), dst, bidegree_of(i, j))
    return out


class Document:
    def __init__(self, field: Field, objects: dict):
        self.field = field
        self.objects = objects

    def of_type(self, *classes) -> dict:
        return {name: obj for name, obj in self.objects.items()
                if isinstance(obj, classes)}

    def select(self, name: str | None, *classes, what: str = "object"):
        cands = self.of_type(*classes)
        if name is not None:
            if name not in cands:
                raise DocumentError(f"no {what} named {name!r} in the document")
            return name, cands[name]
        if len(cands) == 1:
            return next(iter(cands.items()))
        if not cands:
            raise DocumentError(f"document has no {what}")
        raise DocumentError(
            f"document has several {what}s ({', '.join(sorted(cands))}); "
            f"select one with --name")


def load_document(payload: dict) -> Document:
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version "
                            f"{payload.get('schema_version')!r}")
    field = parse_field(payload.get("field"))
    raw = payload.get("objects", {})
    if not isinstance(raw, dict):
        raise DocumentError("objects must be a JSON object")
    objects: dict = {}
    pending = dict(raw)
    # resolve in dependency order: complexes/algebras first, then maps,
    # then homotopies
    stage_of = {"twisted_complex": 0, "dainf_algebra": 0,
                "filtered_complex": 0, "filtered_ainf": 0,
                "twisted_morphism": 1, "dainf_morphism": 1,
                "bigraded_map": 1,
                "r_homotopy": 2, "dainf_homotopy": 2}
    for stage in (0, 1, 2):
        for name, obj in sorted(pending.items()):
            if not isinstance(obj, dict) or "type" not in obj:
                raise DocumentError(f"object {name!r} needs a 'type'")
            t = obj["type"]
            order = stage_of.get(t) if isinstance(t, str) else None
            if order is None:
                raise DocumentError(f"object {name!r} has unknown type {t!r}")
            if order != stage:
                continue
            objects[name] = _parse_object(field, name, obj, objects)
    return Document(field, objects)


def _json_object(payload, what: str) -> dict:
    """payload as a JSON object; absent or empty means no entries."""
    if not payload:
        return {}
    if not isinstance(payload, dict):
        raise DocumentError(f"{what} must be a JSON object")
    return payload


def _require(objects, name, classes, what):
    if not isinstance(name, str) or name not in objects:
        raise DocumentError(f"reference to unknown object {name!r}")
    if not isinstance(objects[name], classes):
        raise DocumentError(f"object {name!r} is not a {what}")
    return objects[name]


def _parse_object(field, name, obj, objects):
    t = obj["type"]
    try:
        if t == "twisted_complex":
            module = parse_dims(field, obj.get("dims"))
            d = _parse_indexed_maps(field, obj.get("d"), module, module,
                                    lambda m: (-m, -m + 1), "d")
            return TwistedComplex(module, d)
        if t == "twisted_morphism":
            src = _require(objects, obj.get("src"), TwistedComplex,
                           "twisted complex")
            dst = _require(objects, obj.get("dst"), TwistedComplex,
                           "twisted complex")
            f = _parse_indexed_maps(field, obj.get("f"), src.module,
                                    dst.module, lambda m: (-m, -m), "f")
            return TwistedMorphism(src, dst, f)
        if t == "r_homotopy":
            r = obj.get("r")
            if not _is_int(r) or r < 0:
                raise DocumentError(f"bad homotopy level {r!r}")
            f = _require(objects, obj.get("f"), TwistedMorphism, "morphism")
            g = _require(objects, obj.get("g"), TwistedMorphism, "morphism")
            h = _parse_indexed_maps(field, obj.get("h"), f.src.module,
                                    f.dst.module,
                                    lambda m: (-m + r, -m + r - 1), "h")
            return RHomotopy(r, f, g, h)
        if t == "dainf_algebra":
            module = parse_dims(field, obj.get("dims"))
            m = _parse_pair_indexed_maps(
                field, obj.get("m"),
                _budgeted_power(module, name, lambda k: 2 * k - 1),
                module, lambda i, j: (-i, 2 - i - j), "m")
            return DAInfAlgebra(module, m)
        if t == "dainf_morphism":
            src = _require(objects, obj.get("src"), DAInfAlgebra,
                           "dainf algebra")
            dst = _require(objects, obj.get("dst"), DAInfAlgebra,
                           "dainf algebra")
            f = _parse_pair_indexed_maps(
                field, obj.get("f"),
                _budgeted_power(src.module, name, lambda k: k),
                dst.module, lambda i, j: (-i, 1 - i - j), "f")
            return DAInfMorphism(src, dst, f)
        if t == "dainf_homotopy":
            r = obj.get("r")
            if not _is_int(r) or r < 0:
                raise DocumentError(f"bad homotopy level {r!r}")
            f = _require(objects, obj.get("f"), DAInfMorphism, "dainf morphism")
            g = _require(objects, obj.get("g"), DAInfMorphism, "dainf morphism")
            h = _parse_pair_indexed_maps(
                field, obj.get("h"),
                _budgeted_power(f.src.module, name, lambda k: k),
                f.dst.module, lambda i, k: (r - i, r - i - k), "h")
            return DAInfHomotopy(r, f, g, h)
        if t == "filtered_complex":
            module = parse_dims(field, obj.get("dims"))
            d = {}
            for key, mat in _json_object(obj.get("d"), "d").items():
                n = int(key)
                d[n] = parse_matrix(field, mat, tot_dim(module, n + 1),
                                    tot_dim(module, n))
            return FilteredComplex(module, d)
        if t == "filtered_ainf":
            module = parse_dims(field, obj.get("dims"))
            ms = {}
            for kkey, per in _json_object(obj.get("m"), "m").items():
                k = int(kkey)
                if k < 1:
                    raise DocumentError(f"bad arity {k}")
                _check_arity(module, k, 2 * k - 1, name)
                pw = power_module(module, k)
                ms[k] = {}
                for nkey, mat in _json_object(per, f"m[{kkey!r}]").items():
                    n = int(nkey)
                    ms[k][n] = parse_matrix(field, mat,
                                            tot_dim(module, n + 2 - k),
                                            tot_dim(pw, n))
            return FilteredAInf(module, ms)
        if t == "bigraded_map":
            src = _require(objects, obj.get("src"),
                           (TwistedComplex, DAInfAlgebra), "complex/algebra")
            dst = _require(objects, obj.get("dst"),
                           (TwistedComplex, DAInfAlgebra), "complex/algebra")
            return parse_map(field, obj, src.module, dst.module)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"object {name!r}: {exc}") from None
    raise DocumentError(f"object {name!r} has unknown type {t!r}")


# ---------------------------------------------------------------------------
# dumping
# ---------------------------------------------------------------------------

def dump_twisted(field, a: TwistedComplex):
    return {"type": "twisted_complex", "dims": dump_dims(a.module),
            "d": {str(m): dump_map(field, dm) for m, dm in sorted(a.d.items())}}


def dump_twisted_morphism(field, f: TwistedMorphism, src: str, dst: str):
    return {"type": "twisted_morphism", "src": src, "dst": dst,
            "f": {str(m): dump_map(field, fm) for m, fm in sorted(f.f.items())}}


def dump_r_homotopy(field, h: RHomotopy, fname: str, gname: str):
    return {"type": "r_homotopy", "r": h.r, "f": fname, "g": gname,
            "h": {str(m): dump_map(field, hm) for m, hm in sorted(h.h.items())}}


def dump_dainf(field, a: DAInfAlgebra):
    return {"type": "dainf_algebra", "dims": dump_dims(a.module),
            "m": {f"{i},{j}": dump_map(field, mij)
                  for (i, j), mij in sorted(a.m.items())}}


def dump_dainf_morphism(field, f: DAInfMorphism, src: str, dst: str):
    return {"type": "dainf_morphism", "src": src, "dst": dst,
            "f": {f"{i},{j}": dump_map(field, fij)
                  for (i, j), fij in sorted(f.f.items())}}


def dump_filtered(field, k: FilteredComplex):
    return {"type": "filtered_complex", "dims": dump_dims(k.module),
            "d": {str(n): dump_matrix(field, mat)
                  for n, mat in sorted(k.d.items())}}


def dump_filtered_ainf(field, fa: FilteredAInf):
    return {"type": "filtered_ainf", "dims": dump_dims(fa.module),
            "m": {str(k): {str(n): dump_matrix(field, mat)
                           for n, mat in sorted(per.items())}
                  for k, per in sorted(fa.ms.items())}}


def dump_bigraded_map(field, m: BigradedMap, src: str, dst: str):
    out = dump_map(field, m)
    out.update({"type": "bigraded_map", "src": src, "dst": dst})
    return out


def document_json(field: Field, objects: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "field": dump_field(field),
               "objects": objects}
    return json_text(payload) + "\n"


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii


def json_text(payload) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``.

    Written directly, because json falls back to its pure-Python encoder
    whenever ``indent`` is set (before Python 3.13).  payload is built of
    dicts with str keys, lists, str, int, bool and None; anything else is
    a TypeError.  A list of plain ints, such as a matrix row, is written
    with one join."""
    out: list[str] = []
    _write_json(payload, "\n", out)
    return "".join(out)


def _write_json(v, nl: str, out: list):
    """Append the text of v to out; nl is a newline and the indent of the
    line that v starts on."""
    t = type(v)
    if t is str:
        out.append(_encode_str(v))
    elif t is int:
        out.append(str(v))
    elif t is list:
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in v):
            out.append("[" + inner + ("," + inner).join(map(str, v))
                       + nl + "]")
            return
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write_json(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict:
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(v):
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep + _encode_str(k) + ": ")
            _write_json(v[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON "
                        f"serializable")
