import copy
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import (
    BAD_ALGEBRAS, REF_SHAPES, assert_canonical, bumped_identity,
)

import multiplex

from multiplex import cli, io as mio
from multiplex import linalg, twisted
from multiplex.bigraded import BigradedMap, BigradedModule, identity_map
from multiplex.cli import main
from multiplex.dainf import (
    DAInfAlgebra, DAInfHomotopy, DAInfMorphism, check_dainf,
    check_dainf_morphism, check_r_homotopy_dainf, lambda_r_dga,
    underlying_twisted,
)
from multiplex.filtered_ainf import tot_dainf
from multiplex.filtration import tot
from multiplex.generators import (
    dainf_morphism_space, random_dainf_morphism, random_endo_morphism,
    random_homotopic_pair, random_twisted_complex, random_zero_product_dainf,
)
from multiplex.io import load_document
from multiplex.linalg import GF, QQ, Matrix
from multiplex.twisted import (
    RHomotopy, TwistedComplex, TwistedMorphism, check_twisted,
    identity_morphism, zero_morphism,
)

F = GF()


def write_doc(tmp_path, name, objects, field=F):
    p = tmp_path / name
    p.write_text(mio.document_json(field, objects))
    return str(p)


def _field_docs(tmp_path, field, seed):
    """A complex document and an (A, f, g, h) document over field, and
    the objects; A is a REF_SHAPES[1] complex with a nonzero d_m for some
    m >= 1, and over QQ, f has "a/b" entries."""
    rng = random.Random(seed)
    a = random_twisted_complex(field, rng, **REF_SHAPES[1])
    assert any(m >= 1 for m in a.d)
    f = random_endo_morphism(a, rng)
    if field == QQ:
        # a scalar multiple of a morphism is one
        third = Fraction(1, 3)
        f = TwistedMorphism(a, a, {
            m: BigradedMap(fm.src, fm.dst, fm.bidegree,
                           {k: blk.scale(third) for k, blk in fm.blocks.items()})
            for m, fm in f.f.items()})
    g, h = random_homotopic_pair(f, 1, rng)
    objects = {
        "A": mio.dump_twisted(field, a),
        "f": mio.dump_twisted_morphism(field, f, "A", "A"),
        "g": mio.dump_twisted_morphism(field, g, "A", "A"),
        "h": mio.dump_r_homotopy(field, h, "f", "g"),
    }
    return {
        "complex": write_doc(tmp_path, "complex.json", {"A": objects["A"]},
                             field),
        "full": write_doc(tmp_path, "full.json", objects, field),
        "a": a, "f": f, "g": g, "h": h,
        "tmp": tmp_path,
    }


@pytest.fixture
def fixture_docs(tmp_path):
    return _field_docs(tmp_path, F, 4242)


@pytest.mark.parametrize("field", [F, QQ], ids=str)
def test_cli_output_is_json_dumps_text(field, tmp_path, capsys):
    """Every document and --format json report the CLI writes is the text
    of json.dumps(indent=2, sort_keys=True) of its own payload; over F_p
    the inputs are the fixture_docs documents."""
    docs = _field_docs(tmp_path, field, 4242)
    complex_, full = docs["complex"], docs["full"]
    out = str(tmp_path / "out.json")
    runs = [
        ["tot", complex_, "-o", out],
        ["tot-inverse", out, "-o", out],
        ["path", complex_, "-r", "1", "-o", out],
        ["cone", full, "--name", "f", "-r", "1", "-o", out],
        ["tensor", complex_, complex_, "-o", out],
        ["compose", full, full, "--name-f", "f", "--name-g", "g",
         "-o", out],
        ["homotopy", "solve", full, "-r", "1", "--f", "f", "--g", "g",
         "-o", out],
        ["homotopy", "check", out, "--format", "json"],
        ["check", "twisted", complex_, "--format", "json"],
        ["check", "morphism", full, "--name", "f", "--format", "json"],
        ["spectral", complex_, "--page", "1", "--format", "json"],
        ["spectral", complex_, "--page", "0", "--format", "json"],
        ["er-qis", full, "--name", "f", "-r", "1", "--format", "json"],
        ["oracle", "coderh", full, "--format", "json"],
    ]
    texts = {}
    for path in (complex_, full):
        with open(path) as fh:
            texts[path] = fh.read()
    for argv in runs:
        assert main(argv) in (0, 1), argv
        stdout = capsys.readouterr().out
        if "--format" in argv:
            texts[" ".join(argv)] = stdout
        else:
            with open(out) as fh:
                texts[" ".join(argv)] = fh.read()
    for text in texts.values():
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
    if field == QQ:
        # f and what is built from it carry "a/b" entries
        assert all('/' in texts[k] for k in texts
                   if k == full or k.startswith(("cone", "compose")))


def test_roundtrip_through_json(fixture_docs):
    with open(fixture_docs["full"]) as fh:
        doc = load_document(json.load(fh))
    assert doc.objects["A"] == fixture_docs["a"]
    assert doc.objects["f"] == fixture_docs["f"]
    assert doc.objects["h"].h.keys() == fixture_docs["h"].h.keys()


def test_check_twisted_ok(fixture_docs, capsys):
    assert main(["check", "twisted", fixture_docs["complex"]]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_check_reports_failure(tmp_path, capsys):
    # a three-step column with d_0 squared nonzero
    broken = {"A": {"type": "twisted_complex",
                    "dims": [[0, 0, 1], [0, 1, 1], [0, 2, 1]],
                    "d": {"0": {"bidegree": [0, 1],
                                "blocks": [
                                    {"src": [0, 0], "matrix": [[1]]},
                                    {"src": [0, 1], "matrix": [[1]]}]}}}}
    path = write_doc(tmp_path, "broken.json", broken)
    code = main(["check", "twisted", path])
    assert code == 1
    assert "FAILED" in capsys.readouterr().out


def test_schema_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"schema_version": "1", "field": {"kind": "rational"}, '
                 '"objects": {"A": {"type": "nonsense"}}}')
    assert main(["check", "twisted", str(p)]) == 2
    p2 = tmp_path / "worse.json"
    p2.write_text("not json")
    assert main(["check", "twisted", str(p2)]) == 2
    # json.loads raises a plain ValueError for an integer literal over the
    # digit limit of int(); the rank is over the size budget without one
    p3 = tmp_path / "long.json"
    p3.write_text('{"schema_version": "1", "field": {"kind": "rational"}, '
                  '"objects": {"A": {"type": "twisted_complex", '
                  '"dims": [[0, 0, ' + "1" * 5000 + ']]}}}')
    assert main(["check", "twisted", str(p3)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_tot_roundtrip_via_cli(fixture_docs, capsys):
    tmp = fixture_docs["tmp"]
    out1 = str(tmp / "tot.json")
    assert main(["tot", fixture_docs["complex"], "-o", out1]) == 0
    with open(out1) as fh:
        doc = load_document(json.load(fh))
    (eff_name, k), = doc.objects.items()
    assert k == tot(fixture_docs["a"])
    out2 = str(tmp / "back.json")
    assert main(["tot-inverse", out1, "-o", out2]) == 0
    with open(out2) as fh:
        doc2 = load_document(json.load(fh))
    (_, a2), = doc2.objects.items()
    assert a2 == fixture_docs["a"]


def test_spectral_subcommand(fixture_docs, capsys):
    assert main(["spectral", fixture_docs["complex"], "--page", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["page"] == 1
    # acyclic single-column complex: page 1 is zero
    tmp = fixture_docs["tmp"]
    doc = {
        "A": {"type": "twisted_complex", "dims": [[0, 0, 1], [0, 1, 1]],
              "d": {"0": {"bidegree": [0, 1],
                          "blocks": [{"src": [0, 0], "matrix": [[1]]}]}}}}
    path = write_doc(tmp, "acyclic.json", doc)
    assert main(["spectral", path, "--page", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == {}


@pytest.mark.parametrize("page", [0, 1, 2])
def test_spectral_of_filtered_complex_with_d_squared_nonzero(tmp_path, capsys,
                                                             page):
    # one column with rank 1 in degrees 0, 1, 2 and d^0 = d^1 = [1]: d o d
    # is not zero, so every page is a verified failure, as in `check
    # filtered`; page 0 printed an E_0 and exited 0 before
    objects = {"K": {"type": "filtered_complex",
                     "dims": [[0, 0, 1], [0, 1, 1], [0, 2, 1]],
                     "d": {"0": [[1]], "1": [[1]]}}}
    path = write_doc(tmp_path, "dd.json", objects)
    assert main(["check", "filtered", path]) == 1
    assert "d o d != 0" in capsys.readouterr().out
    assert main(["spectral", path, "--page", str(page)]) == 1
    out = capsys.readouterr().out
    assert "d o d != 0" in out and "E_" not in out


def test_er_qis_subcommand(fixture_docs, tmp_path, capsys):
    a = fixture_docs["a"]
    ident = identity_morphism(a)
    objects = {"A": mio.dump_twisted(F, a),
               "id": mio.dump_twisted_morphism(F, ident, "A", "A")}
    path = write_doc(tmp_path, "ident.json", objects)
    assert main(["er-qis", path, "-r", "1"]) == 0
    assert main(["er-qis", path, "-r", "1", "--via-cone"]) == 0
    # verdicts agree between the two methods on the homotopic pair too
    for flag in ([], ["--via-cone"]):
        code = main(["er-qis", fixture_docs["full"], "--name", "f",
                     "-r", "0"] + flag)
        assert code in (0, 1)
        first = code
        code2 = main(["er-qis", fixture_docs["full"], "--name", "f",
                      "-r", "0"] + (["--via-cone"] if not flag else []))
        assert code2 == first
    # f and 0 into a copy B of A, another object: each detector totalizes
    # both, and the two agree on each verdict
    split = write_doc(tmp_path, "split.json", {
        "A": objects["A"], "B": objects["A"],
        "f": mio.dump_twisted_morphism(F, fixture_docs["f"], "A", "B"),
        "z": mio.dump_twisted_morphism(F, twisted.zero_morphism(a, a),
                                       "A", "B")})
    verdicts = set()
    for name in ("f", "z"):
        for r in ("0", "1"):
            codes = {main(["er-qis", split, "--name", name, "-r", r] + flag)
                     for flag in ([], ["--via-cone"])}
            assert len(codes) == 1, (name, r)
            verdicts |= codes
    assert verdicts == {0, 1}


def _corrupted_draw(seed):
    """The REF_SHAPES[0] draw over F_32003 for seed, and its copy with 1
    added to one entry of one d_m; None when the draw has no d_m."""
    rng = random.Random(seed)
    a = random_twisted_complex(F, rng, **REF_SHAPES[0])
    if not a.d:
        return None
    m = rng.choice(sorted(a.d))
    dm = a.d[m]
    key = rng.choice(sorted(dm.blocks))
    blk = dm.blocks[key].copy()
    i, j = rng.randrange(blk.rows), rng.randrange(blk.cols)
    blk[i, j] = F.add(blk[i, j], 1)
    return a, twisted.TwistedComplex(a.module, {**a.d, m: BigradedMap(
        dm.src, dm.dst, dm.bidegree, {**dm.blocks, key: blk})})


def _corrupted_complexes(count=200):
    """REF_SHAPES[0] draws over F_32003, seeds 0..count-1, each with 1
    added to one entry of one d_m, kept where that breaks (A_m): pairs of
    the draw and its corrupted copy."""
    pairs = (_corrupted_draw(seed) for seed in range(count))
    return [pair for pair in pairs
            if pair and not twisted.check_twisted(pair[1]).ok]


def test_er_qis_decides_the_inputs_first(tmp_path, capsys):
    """A complex failing (A_m) is never an E_r-quasi-isomorphism's source
    or target: both routes print its (A_m) report and exit 1, for the
    identity of a corrupted complex and for the zero morphism into one
    from the draw it was corrupted from."""
    corpus = _corrupted_complexes()
    assert len(corpus) >= 20
    for idx, (a, bad) in enumerate(corpus):
        expected = str(twisted.check_twisted(bad)) + "\n"
        path = write_doc(tmp_path, f"bad{idx}.json", {
            "A": mio.dump_twisted(F, a), "B": mio.dump_twisted(F, bad),
            "id": mio.dump_twisted_morphism(F, identity_morphism(bad),
                                            "B", "B"),
            "z": mio.dump_twisted_morphism(F, twisted.zero_morphism(a, bad),
                                           "A", "B")})
        for name in ("id", "z"):
            for flag in ([], ["--via-cone"]):
                code = main(["er-qis", path, "--name", name, "-r", "1"]
                            + flag)
                out, err = capsys.readouterr()
                assert (code, out, err) == (1, expected, ""), (idx, name,
                                                                flag)


def _refusal_docs(tmp_path):
    """Per corrupted pair (a, bad) of _corrupted_complexes()[:20]: a
    document with A = a, B = bad, f = 0 out of B ("out") and into B
    ("in"), and g: A -> A the identity with one entry raised, which fails
    (B_m) (``bumped_identity``); with the (A_m) report of bad and the
    (B_m) report of g."""
    corpus = _corrupted_complexes()[:20]
    assert len(corpus) == 20
    for idx, (a, bad) in enumerate(corpus):
        g = bumped_identity(a)
        morphism = twisted.check_morphism(g)
        path = write_doc(tmp_path, f"bad{idx}.json", {
            "A": mio.dump_twisted(F, a), "B": mio.dump_twisted(F, bad),
            "out": mio.dump_twisted_morphism(F, zero_morphism(bad, a),
                                             "B", "A"),
            "in": mio.dump_twisted_morphism(F, zero_morphism(a, bad),
                                            "A", "B"),
            "g": mio.dump_twisted_morphism(F, g, "A", "A")})
        yield path, f"{check_twisted(bad)}\n", f"g: {morphism}\n"


def _assert_refused(argv, expected, tmp_path, capsys):
    """argv exits 1 with expected on stdout, nothing on stderr and no
    document written."""
    out = tmp_path / "out.json"
    code = main(argv + ["-o", str(out)])
    assert (code, *capsys.readouterr()) == (1, expected, ""), argv
    assert not out.exists()


def test_cone_decides_its_ends_first(tmp_path, capsys):
    """cone decides (A_m) on the source and the target of f before (B_m)
    on f: for f = 0 out of and into a complex failing (A_m) it prints the
    (A_m) report on stdout and exits 1 (the failure used to surface from
    the check of the cone, on stderr)."""
    for path, axioms, _ in _refusal_docs(tmp_path):
        for name in ("out", "in"):
            _assert_refused(["cone", path, "--name", name, "-r", "1"],
                            axioms, tmp_path, capsys)


def test_homotopy_solve_decides_its_ends_first(tmp_path, capsys):
    """homotopy solve decides (A_m) on the source and the target of f and
    g, then (B_m) on each: for f = g = 0 out of a complex failing (A_m)
    (which used to exit 0 with a witness) and into one it prints the
    (A_m) report on stdout and exits 1."""
    for path, axioms, _ in _refusal_docs(tmp_path):
        for name in ("out", "in"):
            _assert_refused(["homotopy", "solve", path, "-r", "1",
                             "--f", name, "--g", name],
                            axioms, tmp_path, capsys)


def test_compose_decides_its_morphisms_first(tmp_path, capsys):
    """compose decides (B_m) on g and on f: a g failing it, composed with
    itself, prints g's report on stdout and exits 1."""
    for path, _, morphism in _refusal_docs(tmp_path):
        _assert_refused(["compose", path, path, "--name-f", "g",
                         "--name-g", "g"], morphism, tmp_path, capsys)


def test_compose_decides_its_complexes_first(tmp_path, capsys):
    """compose decides (A_m) on the source and target of g and the target
    of f before (B_m): for f = g = 0 through a complex failing (A_m), and
    out of and into one (which used to exit 0 with the zero composite),
    it prints the (A_m) report on stdout and exits 1."""
    for path, axioms, _ in _refusal_docs(tmp_path):
        for f, g in (("out", "in"), ("in", "out")):
            _assert_refused(["compose", path, path, "--name-f", f,
                             "--name-g", g], axioms, tmp_path, capsys)


def _seed17_refusals(tmp_path):
    """The seed-17 corrupted draw (the one the CI smoke run builds) as a
    document with the identity f of the corrupted complex A, the zero
    r-homotopy h from f to f, and A read as a dA-infinity algebra D (d_m
    as m_{m,1}) with its zero endomorphism z; with the argv of each command
    that refuses it and the report it refuses it with."""
    _, bad = _corrupted_draw(17)
    alg = DAInfAlgebra(bad.module, {(m, 1): dm for m, dm in bad.d.items()})
    f = identity_morphism(bad)
    path = write_doc(tmp_path, "bad17.json", {
        "A": mio.dump_twisted(F, bad),
        "f": mio.dump_twisted_morphism(F, f, "A", "A"),
        "h": mio.dump_r_homotopy(F, RHomotopy(1, f, f, {}), "f", "f"),
        "D": mio.dump_dainf(F, alg),
        "z": {"type": "dainf_morphism", "src": "D", "dst": "D"}})
    axioms, dainf_axioms = check_twisted(bad), check_dainf(alg)
    assert not axioms.ok and not dainf_axioms.ok
    return {
        "check": (["check", "dainf-morphism", path, "--name", "z"],
                  dainf_axioms),
        "spectral": (["spectral", path, "--name", "A", "--page", "2"],
                     axioms),
        "er-qis": (["er-qis", path, "--name", "f", "-r", "1"], axioms),
        "er-qis --via-cone": (["er-qis", path, "--name", "f", "-r", "1",
                               "--via-cone"], axioms),
        "homotopy check": (["homotopy", "check", path, "--name", "h"],
                           axioms),
        "oracle coderh": (["oracle", "coderh", path, "--name", "h"],
                          axioms),
    }


@pytest.mark.parametrize("command", ["check", "spectral", "er-qis",
                                     "er-qis --via-cone", "homotopy check",
                                     "oracle coderh"])
def test_refusals_under_format_json(command, tmp_path, capsys):
    """A command that refuses an input prints its report as JSON under
    --format json: on the seed-17 corrupted draw it exits 1 with the list
    that `check` prints, its one entry unnamed, on stdout, which
    json.loads reads, and nothing on stderr.  The table text is the
    report as before."""
    argv, rep = _seed17_refusals(tmp_path)[command]
    assert main(argv) == 1
    assert capsys.readouterr() == (f"{rep}\n", "")
    assert main(argv + ["--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == [dict(name=None, **rep.to_dict())]
    assert out == mio.json_text([dict(name=None, **rep.to_dict())]) + "\n"


def test_homotopy_check_and_solve(fixture_docs, tmp_path, capsys):
    assert main(["homotopy", "check", fixture_docs["full"], "-r", "1"]) == 0
    out = str(tmp_path / "solved.json")
    assert main(["homotopy", "solve", fixture_docs["full"], "-r", "1",
                 "--f", "f", "--g", "g", "-o", out]) == 0
    with open(out) as fh:
        doc = load_document(json.load(fh))
    assert main(["homotopy", "check", out]) == 0
    # unsolvable: identity vs zero on a rigid complex
    rigid = {"A": {"type": "twisted_complex", "dims": [[0, 0, 1]], "d": {}},
             "one": {"type": "twisted_morphism", "src": "A", "dst": "A",
                     "f": {"0": {"bidegree": [0, 0],
                                 "blocks": [{"src": [0, 0],
                                             "matrix": [[1]]}]}}},
             "zero": {"type": "twisted_morphism", "src": "A", "dst": "A",
                      "f": {}}}
    path = write_doc(tmp_path, "rigid.json", rigid)
    assert main(["homotopy", "solve", path, "-r", "1",
                 "--f", "one", "--g", "zero"]) == 1


def test_oracle_subcommand(fixture_docs, capsys):
    # the fixture spans columns 0-8, so h (r = 1) needs N >= 8 + 1 + 2
    assert main(["oracle", "coderh", fixture_docs["full"], "-N", "12"]) == 0
    assert main(["oracle", "coderh", fixture_docs["full"], "-N", "10"]) == 2
    assert main(["oracle", "coderh", fixture_docs["full"], "-N", "1"]) == 2


def test_homotopy_commands_refuse_invalid_inputs(tmp_path, capsys):
    """When f is not a morphism, `homotopy check` prints the failing
    inputs report (exit 1) and `oracle coderh` refuses the document
    (exit 2).  When f and g are morphisms into a target failing (A_m),
    both decide it first: they print the target's (A_m) report on stdout
    and exit 1."""
    mod = BigradedModule(F, {(0, 0): 1, (0, 1): 1, (0, 2): 1})
    one = Matrix.identity(F, 1)
    # f_0 = 1 on A^{0,1} only does not commute with d_0 = 1: A^{0,0} -> A^{0,1}
    a = TwistedComplex(mod, {0: BigradedMap(mod, mod, (0, 1),
                                            {(0, 0): one})})
    f = TwistedMorphism(a, a, {0: BigradedMap(mod, mod, (0, 0),
                                              {(0, 1): one})})
    # d_0 = 1 on A^{0,0} and on A^{0,1}: d_0 d_0 != 0; zero is a morphism
    bad = TwistedComplex(mod, {0: BigradedMap(mod, mod, (0, 1),
                                              {(0, 0): one, (0, 1): one})})
    z = zero_morphism(bad, bad)
    not_a_morphism = write_doc(tmp_path, "f.json", {
        "A": mio.dump_twisted(F, a),
        "f": mio.dump_twisted_morphism(F, f, "A", "A"),
        "h": mio.dump_r_homotopy(F, RHomotopy(0, f, f, {}), "f", "f")})
    not_a_complex = write_doc(tmp_path, "a.json", {
        "A": mio.dump_twisted(F, bad),
        "f": mio.dump_twisted_morphism(F, z, "A", "A"),
        "h": mio.dump_r_homotopy(F, RHomotopy(1, z, z, {}), "f", "f")})
    assert main(["homotopy", "check", not_a_morphism]) == 1
    assert capsys.readouterr().out == (
        "h: 0-homotopy conditions (H_m): FAILED (1 failure in 0 "
        "conditions)\n  at inputs: f or g is not a morphism of twisted "
        "complexes\n")
    assert main(["oracle", "coderh", not_a_morphism]) == 2
    assert capsys.readouterr().err == \
        "error: f and g must be valid morphisms of twisted complexes\n"
    axioms = str(check_twisted(bad))
    for argv in (["homotopy", "check"], ["oracle", "coderh"]):
        assert main(argv + [not_a_complex]) == 1
        assert capsys.readouterr() == (f"{axioms}\n", "")


def test_homotopy_commands_decide_the_target_once(fixture_docs,
                                                  monkeypatch):
    """`homotopy check` and `oracle coderh` decide (A_m) once per run, on
    the target of the witness, and the checkers they call decide none."""
    calls = []
    real = twisted.check_twisted

    def counting(a, *rest):
        calls.append(a)
        return real(a, *rest)

    monkeypatch.setattr(cli, "check_twisted", counting)
    monkeypatch.setattr(twisted, "check_twisted", counting)
    full = fixture_docs["full"]
    with open(full) as fh:
        _, h = load_document(json.load(fh)).select("h", RHomotopy)
    for argv in (["homotopy", "check", full], ["oracle", "coderh", full]):
        calls.clear()
        assert main(argv) == 0
        assert calls == [h.dst]


def test_verdicts_under_format_json(fixture_docs, tmp_path, capsys):
    """er-qis and oracle print a JSON verdict under --format json and keep
    their table text; commands that write documents refuse --format."""
    a = fixture_docs["a"]
    path = write_doc(tmp_path, "ident.json", {
        "A": mio.dump_twisted(F, a),
        "id": mio.dump_twisted_morphism(F, identity_morphism(a), "A", "A")})
    for flag, via, how in (([], "pages", "induced pages"),
                           (["--via-cone"], "cone", "the cone criterion")):
        assert main(["er-qis", path, "-r", "1"] + flag) == 0
        assert capsys.readouterr().out == \
            f"id: E_1-quasi-isomorphism = True (via {how})\n"
        assert main(["er-qis", path, "-r", "1", "--format", "json"]
                    + flag) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["morphism_check"]["ok"]
        del got["morphism_check"]
        assert got == {"object": "id", "r": 1, "via": via,
                       "quasi_isomorphism": True}
    # f o d != d o f: no verdict, the morphism report instead
    broken = {"A": {"type": "twisted_complex", "dims": [[0, 0, 1], [0, 1, 1]],
                    "d": {"0": {"bidegree": [0, 1], "blocks": [
                        {"src": [0, 0], "matrix": [[1]]}]}}},
              "f": {"type": "twisted_morphism", "src": "A", "dst": "A",
                    "f": {"0": {"bidegree": [0, 0], "blocks": [
                        {"src": [0, 1], "matrix": [[1]]}]}}}}
    path = write_doc(tmp_path, "broken.json", broken)
    assert main(["er-qis", path, "-r", "0"]) == 1
    assert "FAILED" in capsys.readouterr().out
    assert main(["er-qis", path, "-r", "0", "--format", "json"]) == 1
    got = json.loads(capsys.readouterr().out)
    assert got["quasi_isomorphism"] is None
    assert not got["morphism_check"]["ok"]
    full = fixture_docs["full"]
    assert main(["oracle", "coderh", full, "-N", "12"]) == 0
    assert capsys.readouterr().out == ("h: coderivation identity at "
                                       "truncation 12 = True (agrees with "
                                       "the direct homotopy checker)\n")
    assert main(["oracle", "coderh", full, "-N", "12", "--format",
                 "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "object": "h", "truncation": 12, "coderivation_identity": True}
    out = str(tmp_path / "out.json")
    for argv in (["tot", fixture_docs["complex"]],
                 ["tot-inverse", out],
                 ["cone", full, "--name", "f", "-r", "1"],
                 ["path", fixture_docs["complex"], "-r", "1"]):
        assert main(argv + ["-o", out, "--format", "json"]) == 2
        assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["homotopy", "solve", "{full}", "-r", "1", "--f", "f", "--g", "g",
      "-o", "{out}", "--format", "json"], "--format"),
    (["homotopy", "solve", "{full}", "-r", "1", "--f", "f", "--g", "g",
      "--format", "table"], "--format"),
    (["homotopy", "check", "{full}", "-r", "1", "-o", "{out}"], "-o"),
    (["homotopy", "check", "{full}", "--output", "{out}",
      "--format", "json"], "-o"),
], ids=["solve-json", "solve-table", "check-o", "check-output-json"])
def test_homotopy_refuses_the_other_actions_option(fixture_docs, tmp_path,
                                                    capsys, argv, option):
    """solve writes a document and check prints a report: each refuses
    the option of the other (exit 2, naming it) and writes nothing."""
    out = tmp_path / "out.json"
    paths = dict(fixture_docs, out=str(out))
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: homotopy ")
    assert option in captured.err
    assert not out.exists()


def test_tensor_and_compose(fixture_docs, tmp_path):
    out = str(tmp_path / "tensor.json")
    assert main(["tensor", fixture_docs["complex"], fixture_docs["complex"],
                 "-o", out]) == 0
    with open(out) as fh:
        doc = load_document(json.load(fh))
    out2 = str(tmp_path / "composite.json")
    assert main(["compose", fixture_docs["full"], fixture_docs["full"],
                 "--name-f", "f", "--name-g", "g", "-o", out2]) == 0
    with open(out2) as fh:
        doc2 = load_document(json.load(fh))
    assert "composite" in doc2.objects


def test_gen_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["gen", "random-twisted", "--seed", "11", "-o", a]) == 0
    assert main(["gen", "random-twisted", "--seed", "11", "-o", b]) == 0
    assert open(a).read() == open(b).read()
    c = str(tmp_path / "c.json")
    assert main(["gen", "random-twisted", "--seed", "12", "-o", c]) == 0
    assert main(["check", "twisted", c]) == 0


def test_path_subcommand_and_dainf_checks(tmp_path, capsys):
    lam = lambda_r_dga(1, F)
    objects = {"L": mio.dump_dainf(F, lam.algebra)}
    path = write_doc(tmp_path, "lambda.json", objects)
    assert main(["check", "dainf", path]) == 0
    out = str(tmp_path / "pathed.json")
    assert main(["path", path, "-r", "1", "--dainf", "-o", out]) == 0
    assert main(["check", "dainf", out, "--name", "path"]) == 0
    assert main(["check", "dainf-morphism", out, "--name", "iota"]) == 0
    # twisted path of the underlying complex via the plain command
    tw = str(tmp_path / "tw.json")
    from multiplex.dainf import underlying_twisted
    objects = {"U": mio.dump_twisted(F, underlying_twisted(lam.algebra))}
    p2 = write_doc(tmp_path, "under.json", objects)
    assert main(["path", p2, "-r", "1", "-o", tw]) == 0
    assert main(["check", "twisted", tw, "--name", "path"]) == 0


@pytest.mark.parametrize("field", [F, QQ], ids=str)
@pytest.mark.parametrize("bad", sorted(BAD_ALGEBRAS))
def test_homotopy_check_dainf_target_failing_relations(tmp_path, capsys,
                                                       field, bad):
    # f = g = 0 into a target B that fails (A_uv): f, g and (H_mk) hold,
    # and homotopy check decides (A_uv) on B first, printing its report
    # on stdout
    b = BAD_ALGEBRAS[bad](field)
    objects = {
        "A": {"type": "dainf_algebra", "dims": [[0, 0, 1]], "m": {}},
        "B": mio.dump_dainf(field, b),
        "f": {"type": "dainf_morphism", "src": "A", "dst": "B"},
        "H": {"type": "dainf_homotopy", "r": 1, "f": "f", "g": "f",
              "h": {}},
    }
    path = write_doc(tmp_path, "bad-target.json", objects, field)
    assert main(["homotopy", "check", "--dainf", path]) == 1
    assert capsys.readouterr() == (f"{check_dainf(b)}\n", "")


def _bad_algebra_doc(tmp_path, field, bad):
    """A fails (A_uv) and B is one-dimensional with no operations; f: A ->
    B, g: B -> A and z: A -> A are zero, and H: f ~_1 f has "h": {}."""
    objects = {
        "A": mio.dump_dainf(field, BAD_ALGEBRAS[bad](field)),
        "B": {"type": "dainf_algebra", "dims": [[0, 0, 1]], "m": {}},
        "f": {"type": "dainf_morphism", "src": "A", "dst": "B"},
        "g": {"type": "dainf_morphism", "src": "B", "dst": "A"},
        "z": {"type": "dainf_morphism", "src": "A", "dst": "A"},
        "H": {"type": "dainf_homotopy", "r": 1, "f": "f", "g": "f",
              "h": {}},
    }
    return write_doc(tmp_path, "bad-algebra.json", objects, field)


# each command decides (A_uv) on the algebras it reads before any morphism
# work, printing the report on stdout; every morphism condition on these
# zero maps holds, so without that they printed "ok (0 conditions)" or
# wrote a composite, with exit 0
@pytest.mark.parametrize("field", [F, QQ], ids=str)
@pytest.mark.parametrize("bad", sorted(BAD_ALGEBRAS))
@pytest.mark.parametrize("argv", [
    ["homotopy", "check", "--dainf", "{doc}", "--name", "H"],
    ["check", "dainf-morphism", "{doc}", "--name", "f"],
    ["check", "dainf-morphism", "{doc}", "--name", "g"],
    ["compose", "--dainf", "{doc}", "{doc}", "--name-f", "z", "--name-g",
     "z", "-o", "{out}"],
    ["compose", "--dainf", "{doc}", "{doc}", "--name-f", "f", "--name-g",
     "g", "-o", "{out}"],
], ids=["homotopy-source", "morphism-source", "morphism-target",
        "compose-endo", "compose-middle"])
def test_dainf_morphism_commands_decide_relations(tmp_path, capsys, field,
                                                  bad, argv):
    doc = _bad_algebra_doc(tmp_path, field, bad)
    out = tmp_path / "out.json"
    assert main([a.format(doc=doc, out=out) for a in argv]) == 1
    assert capsys.readouterr() == (
        f"{check_dainf(BAD_ALGEBRAS[bad](field))}\n", "")
    assert not out.exists()


@pytest.mark.parametrize("field", [F, QQ], ids=str)
def test_compose_dainf_decides_its_morphisms(tmp_path, capsys, field):
    """compose --dainf decides (B_uv) on g and then on f once the algebras
    pass (A_uv): a random (0,1) map on a zero-product algebra, which is
    not a morphism, composed after or before z = 0 (which used to exit 0
    with a composite after z) prints its report on stdout and exits 1."""
    rng = random.Random(3)
    a = random_zero_product_dainf(field, rng, cols=(0, 3), verts=(0, 2),
                                  max_rank=2, spots=12)
    assert any(i >= 1 for (i, _) in a.m)
    one = identity_map(a.module)
    f = DAInfMorphism(a, a, {(0, 1): BigradedMap(one.src, one.dst, (0, 0), {
        loc: Matrix.from_rows(field, [[rng.randrange(1, 5)
                                       for _ in range(blk.cols)]
                                      for _ in range(blk.rows)])
        for loc, blk in one.blocks.items()})})
    rep = check_dainf_morphism(f)
    assert not rep.ok
    path = write_doc(tmp_path, "pair.json", {
        "A": mio.dump_dainf(field, a),
        "f": mio.dump_dainf_morphism(field, f, "A", "A"),
        "z": {"type": "dainf_morphism", "src": "A", "dst": "A"}}, field)
    out = tmp_path / "out.json"
    for names in (("f", "z"), ("z", "f")):
        assert main(["compose", "--dainf", path, path, "--name-f", names[0],
                     "--name-g", names[1], "-o", str(out)]) == 1
        assert capsys.readouterr() == (f"f: {rep}\n", "")
        assert not out.exists()


def test_compose_dainf_bounds_the_checks_of_its_inputs(tmp_path, capsys):
    """compose --dainf bounds the (B_uv) checks it makes on g and f, not
    only the composite: f: B -> Lambda_0 with dim B = 101 needs the square
    of B on its right side (10201 > 10^4), so compose of f after g = 0
    from a one-dimensional A exits 2 naming f, before that power is
    built, although the composite, from A, is within budget."""
    lam = lambda_r_dga(0, F).algebra
    f01 = BigradedMap(BigradedModule(F, {(0, 0): 101}), lam.module, (0, 0),
                      {(0, 0): Matrix.from_rows(F, [[1] * 101, [0] * 101])})
    b = {"type": "dainf_algebra", "dims": [[0, 0, 101]], "m": {}}
    path = write_doc(tmp_path, "big.json", {
        "A": {"type": "dainf_algebra", "dims": [[0, 0, 1]], "m": {}},
        "B": b, "L": mio.dump_dainf(F, lam),
        "f": {"type": "dainf_morphism", "src": "B", "dst": "L",
              "f": {"0,1": mio.dump_map(F, f01)}},
        "g": {"type": "dainf_morphism", "src": "A", "dst": "B"}})
    out = tmp_path / "out.json"
    assert main(["compose", "--dainf", path, path, "--name-f", "f",
                 "--name-g", "g", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: checking morphism 'f' needs a "
                                   "tensor power of arity 2 of a module of "
                                   "total dimension 101")
    assert not out.exists()


def test_filtered_ainf_via_cli(tmp_path):
    from multiplex.filtered_ainf import tot_dainf
    lam = lambda_r_dga(0, F)
    fa = tot_dainf(lam.algebra)
    objects = {"FA": mio.dump_filtered_ainf(F, fa)}
    path = write_doc(tmp_path, "fa.json", objects)
    assert main(["check", "filtered-ainf", path]) == 0


def test_solve_dainf_unsupported(fixture_docs):
    assert main(["homotopy", "solve", fixture_docs["full"], "-r", "0",
                 "--dainf"]) == 2


def _tiny_doc(tmp_path, field=None, dims=None, bidegree=None, entry=1):
    """An acyclic one-column twisted complex, with one field swappable."""
    doc = {"schema_version": "1",
           "field": field or {"kind": "prime_field", "p": 32003},
           "objects": {"A": {
               "type": "twisted_complex",
               "dims": dims or [[0, 0, 1], [0, 1, 1]],
               "d": {"0": {"bidegree": bidegree or [0, 1],
                           "blocks": [{"src": [0, 0],
                                       "matrix": [[entry]]}]}}}}}
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("field", [
    {"kind": "prime_field", "p": 32003},
    {"kind": "prime_field", "p": 2 ** 61 - 1},
    {"kind": "rational"},
], ids=["p32003", "p2to61minus1", "QQ"])
def test_tiny_doc_is_valid(tmp_path, field):
    assert main(["check", "twisted", _tiny_doc(tmp_path, field=field)]) == 0


@pytest.mark.parametrize("kwargs", [
    {"entry": True},
    {"entry": True, "field": {"kind": "rational"}},
    {"dims": [[0, 0, True], [0, 1, 1]]},
    {"bidegree": [0, True]},
    {"field": {"kind": "prime_field", "p": "32003"}},
    {"field": {"kind": "prime_field", "p": 32003.9}},
    {"field": {"kind": "prime_field", "p": True}},
    {"field": {"kind": "prime_field", "p": 561}},
    {"field": {"kind": "prime_field", "p": 2 ** 64 + 13}},
], ids=["entry-true-fp", "entry-true-qq", "rank-true", "bidegree-true",
        "p-string", "p-float", "p-true", "p-carmichael", "p-2to64plus13"])
def test_bad_scalar_types_exit_2(tmp_path, capsys, kwargs):
    assert main(["check", "twisted", _tiny_doc(tmp_path, **kwargs)]) == 2
    assert "error:" in capsys.readouterr().err


_ONE = {"bidegree": [0, 1], "blocks": [{"src": [0, 0], "matrix": [[1]]}]}


@pytest.mark.parametrize("what, objects", [
    ("twisted", {"A": {"type": "twisted_complex", "dims": [[0, 0, 1]],
                       "d": {"0": dict(_ONE, blocks=[{"src": 0,
                                                      "matrix": [[1]]}])}}}),
    ("twisted", {"A": {"type": "twisted_complex", "dims": [[0, 0, 1]],
                       "d": {"0": dict(_ONE, blocks=[{"src": [0, True],
                                                      "matrix": [[1]]}])}}}),
    ("twisted", {"A": {"type": "twisted_complex", "dims": [[0, 0, 1]],
                       "d": {"0": dict(_ONE, blocks=7)}}}),
    ("twisted", {"A": {"type": ["twisted_complex"]}}),
    ("morphism", {"A": {"type": "twisted_complex", "dims": [[0, 0, 1]]},
                  "f": {"type": "twisted_morphism", "src": ["A"],
                        "dst": "A"}}),
    ("filtered", {"K": {"type": "filtered_complex", "dims": [[0, 0, 1]],
                        "d": [1]}}),
    ("filtered-ainf", {"FA": {"type": "filtered_ainf", "dims": [[0, 0, 1]],
                              "m": [1]}}),
    ("filtered-ainf", {"FA": {"type": "filtered_ainf", "dims": [[0, 0, 1]],
                              "m": {"1": [[0]]}}}),
    ("dainf", {"A": {"type": "dainf_algebra", "dims": [[0, 0, 1]],
                     "m": {"0,2,9": dict(_ONE, bidegree=[0, 0])}}}),
], ids=["src-int", "src-bool", "blocks-int", "type-list", "ref-list",
        "filtered-d-list", "ainf-m-list", "ainf-degrees-list",
        "three-part-key"])
def test_malformed_document_exit_2(tmp_path, capsys, what, objects):
    # src-bool was refused before too (JSON true is never read as the
    # integer 1), the key "0,2,9" was read as "0,2", and the rest ended in
    # a TypeError or AttributeError traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": "1",
                                "field": {"kind": "rational"},
                                "objects": objects}))
    assert main(["check", what, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args, option", [
    (["--cols", "5:2"], "--cols"),
    (["--verts", "3:1"], "--verts"),
    (["--max-rank", "0"], "--max-rank"),
    (["--dims", "3:1,0:1,1"], "--dims"),
    # 10001 spots of rank 1 would still be a small complex: the budget is
    # checked on spots x max rank before anything is generated
    (["--spots", "10001", "--max-rank", "1"], "--spots"),
], ids=["cols-empty", "verts-empty", "rank-0", "dims-empty", "spots-budget"])
def test_gen_bad_size_options_exit_2(tmp_path, capsys, args, option):
    """The parent ended these in randrange's ValueError, exit 1."""
    out = tmp_path / "c.json"
    assert main(["gen", "random-twisted", "--seed", "1", "-o", str(out)]
                + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and option in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()
    if option == "--spots":
        assert "size budget" in captured.err


def test_gen_non_prime_modulus_exit_2(capsys):
    assert main(["gen", "random-twisted", "--seed", "1", "--p", "561"]) == 2
    assert "not prime" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["spectral", "{complex}", "--page", "-3"],
    ["er-qis", "{full}", "--name", "f", "-r", "-1"],
    ["er-qis", "{full}", "--name", "f", "-r", "-1", "--via-cone"],
    ["cone", "{full}", "--name", "f", "-r", "-1"],
    ["path", "{complex}", "-r", "-1"],
    ["path", "{complex}", "-r", "-1", "--dainf"],
    ["homotopy", "check", "{full}", "-r", "-2"],
    ["oracle", "coderh", "{full}", "-r", "-1"],
    ["oracle", "coderh", "{full}", "-N", "-8"],
], ids=["spectral", "er-qis", "er-qis-cone", "cone", "path", "path-dainf",
        "homotopy", "oracle-r", "oracle-N"])
def test_negative_index_exit_2(fixture_docs, capsys, args):
    argv = [a.format(**fixture_docs) for a in args]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be >= 0" in err and "Traceback" not in err


def test_python_m_multiplex_entry_point(fixture_docs):
    src = os.path.dirname(os.path.dirname(multiplex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "multiplex", "spectral",
                          fixture_docs["complex"], "--page", "-3"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert "must be >= 0" in out.stderr and "Traceback" not in out.stderr
    out = subprocess.run([sys.executable, "-m", "multiplex", "check",
                          "twisted", fixture_docs["complex"]],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0 and "ok" in out.stdout


def _dims_doc(tmp_path, name, dims):
    """A twisted complex with the given dims and no differential."""
    doc = {"schema_version": "1", "field": {"kind": "prime_field", "p": 32003},
           "objects": {"A": {"type": "twisted_complex", "dims": dims,
                             "d": {}}}}
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("dims", [
    [[0, 0, 100000000]],
    [[0, 0, 6000], [0, 1, 4001]],
], ids=["rank-1e8", "total-10001"])
@pytest.mark.parametrize("command", [["check", "twisted"], ["tot"],
                                     ["spectral", "--page", "0"]],
                         ids=["check", "tot", "spectral"])
def test_size_budget_exit_2(tmp_path, capsys, dims, command):
    path = _dims_doc(tmp_path, "big.json", dims)
    argv = command[:1] + [path] + command[1:] if len(command) > 2 \
        else command + [path]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "size budget" in err and "Traceback" not in err


def test_size_budget_boundary_and_tensor_product(tmp_path, capsys):
    at = _dims_doc(tmp_path, "at.json", [[0, 0, mio.MAX_DIMENSION - 1],
                                          [1, 1, 1]])
    assert main(["check", "twisted", at]) == 0
    # 101 * 100 = 10100 > 10^4: each document is small, the product is not
    a = _dims_doc(tmp_path, "a.json", [[0, 0, 100], [1, 0, 1]])
    b = _dims_doc(tmp_path, "b.json", [[0, 0, 100]])
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["tensor", a, b]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "tensor product" in err and "size budget" in err
    assert main(["tensor", b, b, "-o", str(tmp_path / "t.json")]) == 0


def _filtered_ainf_doc(tmp_path, dims, arity):
    """A filtered A-infinity document whose only structure map has the
    given arity and no Tot^0 rows to fill."""
    doc = {"schema_version": "1",
           "field": {"kind": "prime_field", "p": 32003},
           "objects": {"FA": {"type": "filtered_ainf", "dims": dims,
                              "m": {str(arity): {"0": []}}}}}
    p = tmp_path / f"fa{len(dims)}-{arity}.json"
    p.write_text(json.dumps(doc))
    return str(p)


# checking arity k builds the power of arity 2k - 1
@pytest.mark.parametrize("dims, arity", [
    ([[0, 0, 2], [0, 1, 2]], 30),      # 4^59 basis words
    ([[0, 0, 2], [0, 1, 2]], 4),       # 4^7 = 16384, just above 10^4
    ([[0, 0, 1]], 51),                 # one-dimensional, 101 levels deep
    ([[0, 0, 1]], 900),
    ([[0, 0, 1]], 10 ** 18),           # neither a tree nor a big power
], ids=["total4-arity30", "total4-arity4", "total1-arity51",
        "total1-arity900", "total1-arity1e18"])
def test_filtered_ainf_power_size_budget_exit_2(tmp_path, capsys, dims,
                                                arity):
    path = _filtered_ainf_doc(tmp_path, dims, arity)
    t0 = time.perf_counter()
    assert main(["check", "filtered-ainf", path]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "size budget" in err and "Traceback" not in err


def test_filtered_ainf_power_size_budget_boundary(tmp_path):
    # 4^5 = 1024 fits, and so does arity 99 of a one-dimensional module
    assert main(["check", "filtered-ainf",
                 _filtered_ainf_doc(tmp_path, [[0, 0, 2], [0, 1, 2]], 3)]) == 0
    assert main(["check", "filtered-ainf",
                 _filtered_ainf_doc(tmp_path, [[0, 0, 1]],
                                    (mio.MAX_ARITY + 1) // 2)]) == 0


def test_filtered_ainf_without_operations_ok(tmp_path, capsys):
    # no m_k at all: a zero differential and no relations to check (this
    # used to fail with "max() arg is an empty sequence" and exit 1)
    path = write_doc(tmp_path, "bare.json", {
        "FA": {"type": "filtered_ainf", "dims": [[0, 0, 1]], "m": {}}})
    assert main(["check", "filtered-ainf", path]) == 0
    assert capsys.readouterr().out == \
        "FA: filtered A-infinity structure: ok (1 conditions)\n"


def _dainf_doc(tmp_path, dims, arity, kind):
    """A dA-infinity algebra on dims whose only structure map (kind
    "algebra"), morphism component ("morphism") or homotopy component
    ("homotopy") has key "0,arity" and is zero; f and g are the zero
    morphisms A -> A."""
    def zero(bidegree):
        return {f"0,{arity}": {"bidegree": bidegree, "blocks": []}}
    objects = {"A": {"type": "dainf_algebra", "dims": dims, "m": {}},
               "f": {"type": "dainf_morphism", "src": "A", "dst": "A"},
               "g": {"type": "dainf_morphism", "src": "A", "dst": "A"}}
    if kind == "algebra":
        objects = {"A": dict(objects["A"], m=zero([0, 2 - arity]))}
    elif kind == "morphism":
        objects["g"]["f"] = zero([0, 1 - arity])
    else:
        objects["H"] = {"type": "dainf_homotopy", "r": 0, "f": "f",
                        "g": "g", "h": zero([0, -arity])}
    doc = {"schema_version": "1",
           "field": {"kind": "prime_field", "p": 32003}, "objects": objects}
    p = tmp_path / f"dainf-{kind}.json"
    p.write_text(json.dumps(doc))
    return str(p)


_DAINF_COMMANDS = {"algebra": ["check", "dainf"],
                   "morphism": ["check", "dainf-morphism", "--name", "g"],
                   "homotopy": ["homotopy", "check", "--dainf"]}


def test_dainf_arity_size_budget_exit_2(tmp_path, capsys):
    # this document used to build power_module(A, 2000) and end in a
    # MemoryError traceback with exit 1
    doc = {"schema_version": "1",
           "field": {"kind": "prime_field", "p": 32003},
           "objects": {"A": {
               "type": "dainf_algebra", "dims": [[0, 0, 1], [0, -1998, 1]],
               "m": {"0,2000": {"bidegree": [0, -1998],
                                "blocks": [{"src": [0, 0],
                                            "matrix": [[1]]}]}}}}}
    path = tmp_path / "arity2000.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["check", "dainf", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "size budget" in err and "Traceback" not in err


# each case is a power v = 2 * arity - 1 over the size budget: checking
# an algebra key of that arity builds it, and a morphism or homotopy key
# of arity v lives on it
@pytest.mark.parametrize("kind", ["algebra", "morphism", "homotopy"])
@pytest.mark.parametrize("dims, arity", [
    ([[0, 0, 1], [0, -1998, 1]], 2000),
    ([[0, 0, 2], [0, 1, 2]], 4),        # 4^7 = 16384, just above 10^4
    ([[0, 0, 1]], 51),                  # one-dimensional, 101 levels deep
    ([[0, 0, 1]], 10 ** 18),
], ids=["total2-arity2000", "total4-arity4", "total1-arity51",
        "total1-arity1e18"])
def test_dainf_power_size_budget_exit_2(tmp_path, capsys, kind, dims,
                                        arity):
    if kind != "algebra":
        arity = 2 * arity - 1
    path = _dainf_doc(tmp_path, dims, arity, kind)
    cmd = _DAINF_COMMANDS[kind]
    t0 = time.perf_counter()
    assert main(cmd[:2] + [path] + cmd[2:]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "size budget" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["algebra", "morphism", "homotopy"])
def test_dainf_power_size_budget_boundary(tmp_path, kind):
    # arity 3 needs 4^5 = 1024 and arity 50 the arity-99 power of a
    # one-dimensional module, both within budget; the maps are zero, so
    # every check passes
    cmd = _DAINF_COMMANDS[kind]
    for dims, arity in [([[0, 0, 2], [0, 1, 2]], 3),
                        ([[0, 0, 1]], (mio.MAX_ARITY + 1) // 2)]:
        path = _dainf_doc(tmp_path, dims, arity, kind)
        assert main(cmd[:2] + [path] + cmd[2:]) == 0


@pytest.mark.parametrize("kind, fits", [("algebra", 3), ("morphism", 6),
                                        ("homotopy", 6)])
def test_dainf_key_charged_the_power_it_builds(tmp_path, kind, fits):
    """At load an algebra key of arity k is charged the power of arity
    2k - 1 that its relations build, and a morphism or homotopy key the
    power of arity k that its blocks live on: on a module of total
    dimension 4, 4^5 and 4^6 are within 10^4 and 4^7 is not."""
    dims = [[0, 0, 2], [0, 1, 2]]
    for arity in (fits, fits + 1):
        with open(_dainf_doc(tmp_path, dims, arity, kind)) as fh:
            payload = json.load(fh)
        if arity == fits:
            load_document(payload)
            continue
        with pytest.raises(mio.DocumentError,
                           match=rf"\(arity {arity}\) needs a tensor power "
                                 rf"of arity 7 of a module of total "
                                 rf"dimension 4"):
            load_document(payload)


def test_dainf_composite_is_read_back(tmp_path, capsys):
    """compose --dainf of two arity-2 morphisms writes an arity-4
    composite, which check dainf-morphism reads and decides (exit 0): its
    key is charged 6^4, not the 6^7 of an algebra key of arity 4."""
    rng = random.Random(100003)
    a = random_zero_product_dainf(F, rng, cols=(0, 1), verts=(0, 2),
                                  max_rank=1, spots=60)
    space = dainf_morphism_space(a, a, max_arity=2)
    f, h = (random_dainf_morphism(a, a, rng, space=space, density=1.0)
            for _ in range(2))
    path = write_doc(tmp_path, "pair.json", {
        "A": mio.dump_dainf(F, a),
        "f": mio.dump_dainf_morphism(F, f, "A", "A"),
        "h": mio.dump_dainf_morphism(F, h, "A", "A")})
    out = str(tmp_path / "composite.json")
    assert main(["compose", "--dainf", path, path, "--name-f", "h",
                 "--name-g", "f", "-o", out]) == 0
    assert main(["check", "dainf-morphism", out, "--name",
                 "composite"]) == 0
    assert capsys.readouterr().err == ""
    with open(out) as fh:
        composite = load_document(json.load(fh)).objects["composite"]
    assert a.module.total_dim() == 6 and max(j for _, j in composite.f) == 4


def _bar_budget_docs(tmp_path, m_key):
    """The morphism g: A -> B with one all-ones component f_{0,7} (a 1x7
    block at (0,6)) into B, whose only structure map m^B at m_key is all
    ones; and the identity f: B -> B.  Every key is within budget alone."""
    q = int(m_key.split(",")[1])
    dims = [[0, 0, 1], [0, 1, 1]]
    field = {"kind": "prime_field", "p": 32003}
    b = {"type": "dainf_algebra", "dims": dims,
         "m": {m_key: {"bidegree": [0, 2 - q],
                       "blocks": [{"src": [0, q - 2],
                                   "matrix": [[1] * (q * (q - 1) // 2)]}]}}}
    objects_g = {
        "A": {"type": "dainf_algebra", "dims": dims, "m": {}}, "B": b,
        "g": {"type": "dainf_morphism", "src": "A", "dst": "B",
              "f": {"0,7": {"bidegree": [0, -6],
                            "blocks": [{"src": [0, 6],
                                        "matrix": [[1] * 7]}]}}}}
    objects_f = {
        "B": b,
        "f": {"type": "dainf_morphism", "src": "B", "dst": "B",
              "f": {"0,1": {"bidegree": [0, 0],
                            "blocks": [{"src": [0, 0], "matrix": [[1]]},
                                       {"src": [0, 1], "matrix": [[1]]}]}}}}
    paths = []
    for name, objects in (("f", objects_f), ("g", objects_g)):
        p = tmp_path / f"bar-budget-{name}.json"
        p.write_text(json.dumps({"schema_version": "1", "field": field,
                                 "objects": objects}))
        paths.append(str(p))
    return paths


# (B_uv) applies m^B of arity 4 (or 3) to words of four (three) arity-7
# components: the power of arity 28 (21) of a two-dimensional module.  The
# m key "0,4" document used to run for more than 8 s and end in a
# MemoryError traceback; "0,3" printed "ok" after about 16 s.
@pytest.mark.parametrize("m_key", ["0,4", "0,3"])
@pytest.mark.parametrize("command", ["check", "compose"])
def test_dainf_bar_power_size_budget_exit_2(tmp_path, capsys, m_key,
                                            command):
    path_f, path_g = _bar_budget_docs(tmp_path, m_key)
    argv = ["check", "dainf-morphism", path_g] if command == "check" else \
        ["compose", "--dainf", path_f, path_g, "-o", str(tmp_path / "o")]
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    arity = 7 * int(m_key[-1])
    assert f"tensor power of arity {arity}" in err
    assert "size budget" in err and "Traceback" not in err


def test_dainf_bar_power_size_budget_boundary(tmp_path, capsys):
    # m^B of arity 2 on arity-7 words: the power of arity 14 has dimension
    # 2^14 > 10^4, but arity 2 against arity-6 words stays at 2^12, so
    # the check runs and finds that g is not a morphism (exit 1)
    path_f, path_g = _bar_budget_docs(tmp_path, "0,2")
    assert main(["check", "dainf-morphism", path_g]) == 2
    assert "tensor power of arity 14" in capsys.readouterr().err
    doc = json.loads(open(path_g).read())
    doc["objects"]["g"]["f"] = {"0,6": {"bidegree": [0, -5],
                                        "blocks": [{"src": [0, 5],
                                                    "matrix": [[1] * 6]}]}}
    with open(path_g, "w") as fh:
        fh.write(json.dumps(doc))
    assert main(["check", "dainf-morphism", path_g]) == 1
    assert main(["compose", "--dainf", path_f, path_g,
                 "-o", str(tmp_path / "o")]) == 1


def _homotopy_doc(tmp_path, m_key, a_dims, f_key):
    """The dainf_homotopy H: f ~_0 f with "h": {}, where f: A -> B has one
    all-ones component at f_key (or none) and B is the algebra of
    _bar_budget_docs with structure map m_key."""
    path_g = _bar_budget_docs(tmp_path, m_key)[1]
    objects = json.loads(open(path_g).read())["objects"]
    objects["A"]["dims"] = a_dims
    objects["g"]["f"] = {} if f_key is None else {
        f_key: objects["g"]["f"]["0,7"]}
    objects["H"] = {"type": "dainf_homotopy", "r": 0, "f": "g", "g": "g",
                    "h": {}}
    p = tmp_path / "homotopy-budget.json"
    p.write_text(json.dumps({"schema_version": "1",
                             "field": {"kind": "prime_field", "p": 32003},
                             "objects": objects}))
    return str(p)


def test_dainf_homotopy_check_size_budget_exit_2(tmp_path, capsys):
    # f = g is the f key "0,7" morphism into B with m key "0,4": checking
    # it builds the power of arity 28 of A.  This document used to run for
    # more than 9 s and end in a MemoryError traceback.
    path = _homotopy_doc(tmp_path, "0,4", [[0, 0, 1], [0, 1, 1]], "0,7")
    t0 = time.perf_counter()
    assert main(["homotopy", "check", "--dainf", path]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "checking homotopy 'H' needs a tensor power of arity 28" in err
    assert "size budget" in err and "Traceback" not in err


def test_dainf_path_size_budget_exit_2(tmp_path, capsys):
    # no component at all into B with m key "0,4": the 0-path of B has
    # total dimension 6, and checking its structure builds the power of
    # arity 7 (6^7 > 10^4); this document used to end in a MemoryError
    path = _homotopy_doc(tmp_path, "0,4", [[0, 0, 1]], None)
    for argv in (["homotopy", "check", "--dainf", path],
                 ["path", "--dainf", path, "--name", "B", "-r", "0"]):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "tensor power of arity 7 of a module of total dimension 6" \
            in err
        assert "size budget" in err and "Traceback" not in err


def test_dainf_homotopy_budget_boundary(tmp_path, capsys):
    # m^B of arity 2 on arity-6 words: 2^12 fits, and the 0-path of B needs
    # 6^3; the check runs and finds that f is not a morphism (exit 1)
    path = _homotopy_doc(tmp_path, "0,2", [[0, 0, 1], [0, 1, 1]], "0,6")
    objects = json.loads(open(path).read())["objects"]
    objects["g"]["f"] = {"0,6": {"bidegree": [0, -5],
                                 "blocks": [{"src": [0, 5],
                                             "matrix": [[1] * 6]}]}}
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema_version": "1",
                             "field": {"kind": "prime_field", "p": 32003},
                             "objects": objects}))
    assert main(["homotopy", "check", "--dainf", path]) == 1
    assert "f or g is not a morphism" in capsys.readouterr().out


def _run_main(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_main_shares_one_parser(fixture_docs, capsys, monkeypatch):
    complex_, full = fixture_docs["complex"], fixture_docs["full"]
    runs = [["check", "twisted", complex_],
            ["--help"],
            ["spectral", "--help"],
            ["spectral", complex_, "--page", "-1"],
            ["nonsense"],
            [],
            ["spectral", complex_, "--page", "1", "--format", "json"],
            ["er-qis", full, "--name", "f", "-r", "1"],
            ["check", "morphism", full, "--name", "f", "--format", "json"],
            ["homotopy", "check", full, "-r", "7"],
            ["check", "twisted", complex_]]
    # each run against a parser built for it alone
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(_run_main(capsys, argv))
    cli._parser.cache_clear()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    shared = [_run_main(capsys, argv) for argv in runs]
    assert len(built) == 1
    assert shared == fresh
    # --help exits 0; a negative page, an unknown command, no command and
    # a level that is not the homotopy's exit 2
    assert [shared[k][0] for k in (1, 2, 3, 4, 5, 9)] == [0, 0, 2, 2, 2, 2]
    assert "usage: multiplex" in shared[1][1]


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


@pytest.mark.parametrize("argv, owner, name, exc", [
    (["spectral", "{complex}", "--page", "1"], linalg.Subquotient,
     "__init__",
     AssertionError("path constructions disagree at m_(0, 2): tensor "
                    "route vs printed block matrices")),
    (["tensor", "{tiny}", "{tiny}"], twisted, "tensor_maps",
     AssertionError("tensor block landed outside target")),
    (["er-qis", "{full}", "--name", "f", "-r", "1"], linalg.Subquotient,
     "__init__", RuntimeError("page routes disagree")),
], ids=["subquotient-assert", "tensor-assert", "runtime-error"])
def test_internal_check_failure_exit_1(fixture_docs, capsys, monkeypatch,
                                       argv, owner, name, exc):
    paths = dict(fixture_docs, tiny=_tiny_doc(fixture_docs["tmp"]))
    monkeypatch.setattr(owner, name, _raise(exc))
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"failed: internal check: {exc}\n"


# -- seeded mutation fuzzer over generated documents --------------------------

FUZZ_SEED = 20161
FUZZ_CASES = 1000
FUZZ_CASE_LIMIT_S = 2.0

_TWISTED_COMMANDS = [
    ["check", "twisted", "{doc}", "--name", "A"],
    ["check", "morphism", "{doc}", "--name", "f"],
    ["spectral", "{doc}", "--name", "A", "--page", "1"],
    ["tot", "{doc}", "--name", "A", "-o", "{out}"],
    ["path", "{doc}", "--name", "A", "-r", "1", "-o", "{out}"],
    ["tensor", "{doc}", "{doc}", "--name-a", "A", "--name-b", "A",
     "-o", "{out}"],
    ["cone", "{doc}", "--name", "f", "-r", "0", "-o", "{out}"],
    ["compose", "{doc}", "{doc}", "--name-f", "f", "--name-g", "g",
     "-o", "{out}"],
    ["er-qis", "{doc}", "--name", "f", "-r", "1"],
    ["homotopy", "check", "{doc}", "--name", "h"],
    ["homotopy", "solve", "{doc}", "-r", "1", "--f", "f", "--g", "g",
     "-o", "{out}"],
    ["oracle", "coderh", "{doc}", "--name", "h"],
]
_DAINF_FUZZ_COMMANDS = [
    ["check", "dainf", "{doc}", "--name", "A"],
    ["check", "dainf-morphism", "{doc}", "--name", "f"],
    ["compose", "{doc}", "{doc}", "--dainf", "--name-f", "f", "--name-g", "f",
     "-o", "{out}"],
    ["path", "{doc}", "--dainf", "--name", "A", "-r", "1", "-o", "{out}"],
]
_DAINF_HOMOTOPY_COMMANDS = [
    ["homotopy", "check", "{doc}", "--dainf", "--name", "H"],
    ["check", "dainf-morphism", "{doc}", "--name", "g"],
    ["er-qis", "{doc}", "--name", "f", "-r", "1"],
]
_FILTERED_COMMANDS = [
    ["check", "filtered", "{doc}", "--name", "K"],
    ["check", "filtered-ainf", "{doc}", "--name", "FA"],
    ["tot-inverse", "{doc}", "--name", "K", "-o", "{out}"],
    ["spectral", "{doc}", "--name", "K", "--page", "1"],
]
# the checks that decide what a twisted command that exits 0 built, on
# the document it wrote: the constructions do not decide it themselves.
# compose decides (B_m) on f and g, not (A_m) on the complexes it copies
_CONSTRUCTED = {
    "tot": [["check", "filtered"]],
    "tot-inverse": [["check", "twisted"]],
    "path": [["check", "twisted"], ["check", "morphism"]],
    "tensor": [["check", "twisted"]],
    "cone": [["check", "twisted"], ["check", "morphism"]],
    "compose": [["check", "morphism"]],
    "solve": [["check", "twisted"], ["homotopy", "check"]],
}
_WRONG_TYPES = [None, True, 1.5, "x", [], {}, [[]], -1, 10 ** 30]
# over QQ "6/2", "-0.25" and "2/-4" are entries; an exponent is refused,
# before "1e999999999" builds 10 ** 999999999
_WRONG_SCALARS = ["1/2", "1/0", 0.5, "abc", True, None, 32003, -1, 10 ** 40,
                  [1], "6/2", "-0.25", "1.5", "1e3", "1e999999999", "2/-4"]
_BAD_KEYS = ["0,2000", "0,101", "0,-3", "-1,2", "0,1,2", "x", "",
             "99999999999999999999,1"]
_FIELDS = [{"kind": "rational"}, {"kind": "prime_field", "p": 5},
           {"kind": "prime_field", "p": 4}, {"kind": "prime_field"},
           {"kind": "finite"}]


def _positions(node, path=()):
    """The path of every value inside a JSON value, parents first."""
    yield path
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _positions(node[k], path + (k,))
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _positions(v, path + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _found(doc):
    """(path, value) of every value inside doc, parents first."""
    return [(p, _at(doc, p)) for p in _positions(doc)]


def _pick(doc, found, rng, test):
    """A random (path, value of doc) among found whose value passes test,
    or None."""
    hits = [p for p, v in found if test(p, v)]
    if not hits:
        return None
    path = rng.choice(hits)
    return path, _at(doc, path)


def _set(doc, path, value):
    _at(doc, path[:-1])[path[-1]] = value


def _is_matrix(p, v):
    """The "matrix" of a map block, or a matrix of a filtered_complex
    ("d": {n: matrix}) or a filtered_ainf ("m": {k: {n: matrix}})."""
    if not (isinstance(v, list) and all(isinstance(r, list) for r in v)):
        return False
    return p[-1:] == ("matrix",) or (len(p) == 4 and p[2] == "d") or \
        (len(p) == 5 and p[2] == "m" and p[4] != "blocks")


def _pick_entry(found, rng):
    """A random (path, value) of a matrix entry among found, or None."""
    hits = [(m + (r, c), x) for m, v in found if _is_matrix(m, v)
            for r, row in enumerate(v) for c, x in enumerate(row)]
    return rng.choice(hits) if hits else None


def _mutate(doc, rng, found):
    """Apply one random mutation to doc in place; returns its kind.  found
    is _found of doc, or of a document equal to it."""
    kind = rng.choice(["drop", "retype", "dims", "resize", "rekey", "scalar",
                       "field", "entry", "arity"])
    if kind == "drop":
        hit = _pick(doc, found, rng, lambda p, v: isinstance(v, dict) and v)
        if hit:
            del hit[1][rng.choice(sorted(hit[1]))]
    elif kind == "retype":
        hit = _pick(doc, found, rng, lambda p, v: p)
        if hit:
            _set(doc, hit[0], copy.deepcopy(rng.choice(_WRONG_TYPES)))
    elif kind == "dims":
        # one coordinate or rank of a dims entry, or one more entry
        hit = _pick(doc, found, rng, lambda p, v: p[-1:] == ("dims",)
                    and isinstance(v, list))
        if hit and hit[1] and rng.random() < 0.7:
            entry = rng.choice(hit[1])
            if isinstance(entry, list) and entry:
                entry[rng.randrange(len(entry))] = rng.choice(
                    [-1, 0, 1, 2, 5, 10 ** 5, -10 ** 9])
        elif hit:
            hit[1].append([rng.randint(-2, 4), rng.randint(-2, 6),
                           rng.choice([1, 2, 5])])
    elif kind == "resize":
        hit = _pick(doc, found, rng, _is_matrix)
        if hit:
            mat = hit[1]
            op = rng.randrange(4)
            if op == 0:
                mat.append(list(mat[0]) if mat else [1])
            elif op == 1 and mat:
                mat.pop()
            elif op == 2 and mat:
                mat[rng.randrange(len(mat))].append(1)
            else:
                for row in mat:
                    del row[-1:]
    elif kind == "rekey":
        hit = _pick(doc, found, rng, lambda p, v: p[-1:] in (
            ("d",), ("f",), ("h",), ("m",)) and isinstance(v, dict) and v)
        if hit:
            hit[1][rng.choice(_BAD_KEYS)] = hit[1].pop(
                rng.choice(sorted(hit[1])))
    elif kind == "scalar":
        hit = _pick_entry(found, rng)
        if hit:
            _set(doc, hit[0], copy.deepcopy(rng.choice(_WRONG_SCALARS)))
    elif kind == "field":
        doc["field"] = copy.deepcopy(rng.choice(_FIELDS))
    elif kind == "entry":
        # a valid value in the wrong place: the axioms may now fail
        hit = _pick_entry(found, rng)
        if hit:
            _set(doc, hit[0], rng.choice([0, 1, 2, 7]))
    else:
        # a huge arity key with the bidegree it needs and no blocks, so
        # only the size budget stands between it and a huge tensor power
        k, i = rng.choice([3, 26, 51, 2000, 10 ** 6]), rng.choice([0, 1])
        objs = doc.get("objects")
        obj = rng.choice([objs[n] for n in sorted(objs)]) \
            if isinstance(objs, dict) and objs else None
        t = obj.get("type") if isinstance(obj, dict) else None
        key, entry = {
            "twisted_complex": ("d", (str(k), [-k, 1 - k])),
            "twisted_morphism": ("f", (str(k), [-k, -k])),
            "r_homotopy": ("h", (str(k), [1 - k, -k])),
            "dainf_algebra": ("m", (f"{i},{k}", [-i, 2 - i - k])),
            "dainf_morphism": ("f", (f"{i},{k}", [-i, 1 - i - k])),
        }.get(t if isinstance(t, str) else None, (None, None))
        if key and isinstance(obj.get(key, {}), dict):
            obj.setdefault(key, {})[entry[0]] = {"bidegree": entry[1],
                                                 "blocks": []}
    return kind


def _dainf_pair_doc():
    rng = random.Random(3)
    a = random_zero_product_dainf(F, rng, cols=(0, 1), verts=(0, 2),
                                  max_rank=1, spots=4)
    f = random_dainf_morphism(a, a, rng, density=1.0,
                              space=dainf_morphism_space(a, a, max_arity=2))
    return json.loads(mio.document_json(F, {
        "A": mio.dump_dainf(F, a),
        "f": mio.dump_dainf_morphism(F, f, "A", "A")}))


def _dainf_homotopy_doc():
    """A, f, g and a dainf_homotopy H: f ~_1 g, all of arity 1."""
    rng = random.Random(4)
    a = random_zero_product_dainf(F, rng, cols=(0, 1), verts=(0, 2),
                                  max_rank=1, spots=4)
    tf = random_endo_morphism(underlying_twisted(a), rng)
    tg, th = random_homotopic_pair(tf, 1, rng)
    f, g = (DAInfMorphism(a, a, {(i, 1): m for i, m in t.f.items()})
            for t in (tf, tg))
    assert check_r_homotopy_dainf(DAInfHomotopy(
        1, f, g, {(i, 1): m for i, m in th.h.items()})).ok
    return json.loads(mio.document_json(F, {
        "A": mio.dump_dainf(F, a),
        "f": mio.dump_dainf_morphism(F, f, "A", "A"),
        "g": mio.dump_dainf_morphism(F, g, "A", "A"),
        "H": {"type": "dainf_homotopy", "r": 1, "f": "f", "g": "g",
              "h": {f"{i},1": mio.dump_map(F, m)
                    for i, m in sorted(th.h.items())}}}))


def _filtered_doc(fixture_docs):
    """A filtered_complex K, Tot of the fixture complex, and the
    filtered_ainf FA of Lambda_0."""
    return json.loads(mio.document_json(F, {
        "K": mio.dump_filtered(F, tot(fixture_docs["a"])),
        "FA": mio.dump_filtered_ainf(
            F, tot_dainf(lambda_r_dga(0, F).algebra))}))


def test_mutation_fuzzer_keeps_the_exit_contract(fixture_docs, capsys):
    """Mutated documents exit 0, 1 or 2, with no traceback and in time.
    When a twisted construction command exits 0, every object it built
    passes its check on the document it wrote, and each such command
    exits 0 on some case."""
    qq_dir = fixture_docs["tmp"] / "qq"
    qq_dir.mkdir()
    bases = []
    for path in (fixture_docs["full"], _field_docs(qq_dir, QQ, 4242)["full"]):
        with open(path) as fh:
            bases.append((json.load(fh), _TWISTED_COMMANDS))
    bases += [(_dainf_pair_doc(), _DAINF_FUZZ_COMMANDS),
              (_dainf_homotopy_doc(), _DAINF_HOMOTOPY_COMMANDS),
              (_filtered_doc(fixture_docs), _FILTERED_COMMANDS)]
    # each base's text and positions, made once: a case copies the base by
    # parsing its text, its first mutation reads the base's positions and a
    # second one those of the mutated copy
    bases = [(json.dumps(base), commands, _found(base))
             for base, commands in bases]
    paths = {"doc": str(fixture_docs["tmp"] / "fuzz.json"),
             "out": str(fixture_docs["tmp"] / "fuzz-out.json")}
    rng = random.Random(FUZZ_SEED)
    seen = set()
    built = dict.fromkeys(_CONSTRUCTED, 0)
    for case in range(FUZZ_CASES):
        text, commands, found = rng.choice(bases)
        doc = json.loads(text)
        kinds = [_mutate(doc, rng, _found(doc) if k else found)
                 for k in range(rng.choice([1, 1, 2]))]
        argv = [a.format(**paths) for a in rng.choice(commands)]
        with open(paths["doc"], "w") as fh:
            fh.write(json.dumps(doc))
        where = f"case {case} ({'+'.join(kinds)}): {' '.join(argv[:2])}"
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # the contract forbids any escape
            pytest.fail(f"{where} raised {exc!r}")
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2), where
        assert "Traceback" not in err, where
        assert elapsed < FUZZ_CASE_LIMIT_S, f"{where} took {elapsed:.2f} s"
        seen.add(code)
        command = argv[1] if argv[0] == "homotopy" else argv[0]
        if code == 0 and command in built and "--dainf" not in argv:
            built[command] += 1
            for check in _CONSTRUCTED[command]:
                assert main(check + [paths["out"]]) == 0, (where, check)
            capsys.readouterr()
    # the mutations reach past parsing: every exit code occurs, and every
    # construction is built and decided
    assert seen == {0, 1, 2}
    assert min(built.values()) >= 1, built


# -- the one-pass parser against the route it replaced ------------------------
# parse_map used to run _int_pair on every block source and parse_matrix
# over every row twice (shapes, then entries), and BigradedMap checked the
# blocks again.  The reference below is that route; the tests compare what
# load_document returns or raises with it.

def _reference_parse_matrix(field, payload, rows, cols):
    if not isinstance(payload, list) or len(payload) != rows or \
            any(not isinstance(r, list) or len(r) != cols for r in payload):
        raise mio.DocumentError(f"matrix must be {rows}x{cols} row lists")
    data = []
    try:
        for row in payload:
            data += [field.parse(v) for v in row]
    except (ValueError, ZeroDivisionError) as exc:
        raise mio.DocumentError(f"bad matrix entry: {exc}") from None
    return Matrix(field, rows, cols, data)


def _reference_parse_map(field, payload, src, dst, expected_bidegree=None):
    if not isinstance(payload, dict) or "bidegree" not in payload:
        raise mio.DocumentError("map payload needs a 'bidegree'")
    bid = mio._int_pair(payload["bidegree"], "bidegree")
    if expected_bidegree is not None and bid != expected_bidegree:
        raise mio.DocumentError(f"bidegree {list(bid)} does not match the "
                                f"expected {list(expected_bidegree)}")
    entries = payload.get("blocks", [])
    if not isinstance(entries, list):
        raise mio.DocumentError("map blocks must be a list")
    blocks = {}
    for entry in entries:
        if not isinstance(entry, dict) or "src" not in entry or \
                "matrix" not in entry:
            raise mio.DocumentError("map block needs 'src' and 'matrix'")
        si, sj = mio._int_pair(entry["src"], "block source")
        cols = src.dim(si, sj)
        if cols == 0:
            raise mio.DocumentError(f"map block at {(si, sj)} has no source")
        mat = _reference_parse_matrix(field, entry["matrix"],
                                      dst.dim(si + bid[0], sj + bid[1]), cols)
        if (si, sj) in blocks:
            raise mio.DocumentError(f"duplicate map block at {(si, sj)}")
        blocks[(si, sj)] = mat
    try:
        return BigradedMap(src, dst, bid, blocks)
    except ValueError as exc:
        raise mio.DocumentError(str(exc)) from None


def _load_outcome(payload, parse_map, parse_matrix, monkeypatch):
    """What load_document(payload) gives with the two parsers in place:
    ("ok", [(bidegree, {block key: (rows, cols, entries)}) of each map
    parsed]), or (exception type, message)."""
    maps = []

    def recorded(*args, **kwargs):
        m = parse_map(*args, **kwargs)
        maps.append(m)
        return m
    with monkeypatch.context() as mp:
        mp.setattr(mio, "parse_map", recorded)
        mp.setattr(mio, "parse_matrix", parse_matrix)
        try:
            load_document(payload)
        except Exception as exc:  # compared by type and text below
            return type(exc).__name__, str(exc)
    for m in maps:
        for blk in m.blocks.values():
            assert_canonical(m.field, blk.data)
    return "ok", [(m.bidegree, {k: (b.rows, b.cols, b.data)
                                for k, b in m.blocks.items()}) for m in maps]


def _both_outcomes(payload, monkeypatch):
    return (_load_outcome(payload, mio.parse_map, mio.parse_matrix,
                          monkeypatch),
            _load_outcome(payload, _reference_parse_map,
                          _reference_parse_matrix, monkeypatch))


PARSE_FIELDS = [GF(32003), GF(5), GF(2), QQ]


@pytest.mark.parametrize("field", PARSE_FIELDS, ids=str)
def test_one_pass_parser_matches_reference_maps(field, tmp_path,
                                                monkeypatch):
    """The _field_docs documents load to the same maps, block by block and
    in canonical form, as through the reference route."""
    docs = _field_docs(tmp_path, field, 4242)
    for path in (docs["complex"], docs["full"]):
        with open(path) as fh:
            payload = json.load(fh)
        got, want = _both_outcomes(payload, monkeypatch)
        assert got == want and got[0] == "ok"
        # d_1, ..., f, g and h: maps with blocks, some of them zero blocks
        assert sum(1 for _, blocks in got[1] if blocks) >= 4


@pytest.mark.parametrize("field", PARSE_FIELDS, ids=str)
def test_one_pass_parser_words_errors_as_reference(field, tmp_path,
                                                   monkeypatch):
    """On each mutation kind of the fuzzer, applied to the _field_docs
    (A, f, g, h) document, load_document gives the reference route's maps
    or raises its exception with the same text."""
    with open(_field_docs(tmp_path, field, 4242)["full"]) as fh:
        base = json.load(fh)
    found = _found(base)
    rng = random.Random(FUZZ_SEED + 1)
    kinds, texts = set(), set()
    for case in range(150):
        doc = copy.deepcopy(base)
        kind = "+".join(_mutate(doc, rng, _found(doc) if k else found)
                        for k in range(rng.choice([1, 1, 2])))
        got, want = _both_outcomes(doc, monkeypatch)
        assert got == want, f"case {case} ({kind})"
        kinds.update(kind.split("+"))
        texts.add(got[1].split(":")[0] if got[0] == "DocumentError" else "")
    assert kinds == {"drop", "retype", "dims", "resize", "rekey", "scalar",
                     "field", "entry", "arity"}
    assert {"bad matrix entry", "map block needs 'src' and 'matrix'"} <= texts
    assert any(t.startswith("matrix must be") for t in texts)
    # a wrong shape is reported before a bad entry in an earlier row
    doc = {"schema_version": "1", "field": mio.dump_field(field),
           "objects": {"A": {"type": "twisted_complex",
                             "dims": [[0, 0, 2], [0, 1, 2]],
                             "d": {"0": {"bidegree": [0, 1], "blocks": [
                                 {"src": [0, 0],
                                  "matrix": [["x", 1], [1, 0, 1]]}]}}}}}
    got, want = _both_outcomes(doc, monkeypatch)
    assert got == want == ("DocumentError", "matrix must be 2x2 row lists")
