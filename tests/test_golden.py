"""Byte pins of reports and constructions.

Each CLI case runs ``cli.main`` in-process and pins the sha256 of its
``--report json`` bytes and its exit code.  Each construction case builds a
rigid set, draws seeded objects and morphisms, runs every block-matrix
construction on them (approximations, both factorizations, cylinder, path
object, right homotopy, ``inverse`` and ``dsum_mor``) and pins the sha256
of the ``mor_to_json`` of everything they return; a construction that
raises is pinned by the exception's type.  Changing how a morphism is
assembled must leave every pin as it is.
"""

import hashlib
import json

import numpy as np
import pytest

from trimodel import addcat as ac
from trimodel import cli
from trimodel import meshcat as mc
from trimodel import oracle
from trimodel import rigidmodel as rm
from trimodel.exactlin import PrimeField
from trimodel.report import mor_to_json

A3_P3 = ["--type", "A", "--rank", "3", "--field-char", "3"]

# name -> (argv, exit code, sha256 of the JSON report)
CLI_CASES = {
    "gen-d4-paper": (
        ["gen", "--type", "d4-paper"], 0,
        "cff3d0f65d94aa3ecb42114ec3c96d8879a19c3ab48fffe411e0dffdf9f41ece"),
    "axioms-a2-13": (
        ["axioms", "--type", "A", "--rank", "2", "--T", "13",
         "--budget", "100"], 0,
        "cf3e20b5a17192a580a70463ff7ee1cb6533c893b79bf12bb0a72e5005927f0e"),
    "axioms-a3-p3-13,15": (
        ["axioms", *A3_P3, "--T", "13,15", "--budget", "60"], 0,
        "535bdcb17936c88bd21e430c3a3a2bfe94c7c140e67f3278dd7cea379fbd2eb5"),
    "axioms-d4-paper": (
        ["axioms", "--type", "d4-paper", "--budget", "60"], 0,
        "0d188e0e5f3cb79bad29c34f3360d0f1ed09c91b5d7ab867794c7a8bcf639cce"),
    "lemmas-a3-13": (
        ["lemmas", "--type", "A", "--rank", "3", "--T", "13"], 0,
        "cc948ac1fdbce36371acb819e116583fae6c6c11499b7e922ef23d6ca1e67778"),
    "equivalence-a3-13": (
        ["equivalence", "--type", "A", "--rank", "3", "--T", "13"], 0,
        "5b612f75dbc73949a55d70b38ca8cae931dcad6d242867ff518de80787e43819"),
    "list-ts-a3-p3-13,15": (
        ["list-ts", *A3_P3, "--T", "13,15"], 0,
        "fdb51cc57b701393986b3d3e4236e53d86fd1ab4f3f1af00e2888a4d8df4a0eb"),
    "example-d4": (
        ["example-d4"], 0,
        "b7a3d3764576adb3bf0119d2e0937b257c0ec645d678a41ce3336c31ba52e15c"),
    "classify-a3-13": (
        ["classify", "--type", "A", "--rank", "3", "--T", "13",
         "--mor", "mor.json"], 0,
        "275e6c553f67833c825fe92e4f3b6f8cd1b3a2683d483947428519d2a370c27d"),
    "axioms-d4-paper-M0010,M0001,SP1": (
        ["axioms", "--type", "d4-paper", "--T", "M0010,M0001,SP1"], 0,
        "c46205f36f053870f8fe46edc085792d7aeb869f5d613b028a71cec184355801"),
}


def _classify_input():
    cat = mc.build_type_a(3, PrimeField(2))
    f = ac.random_morphism_rng(cat, ac.obj("13", "24"), ac.obj("14", "25"),
                              np.random.default_rng(7))
    return mor_to_json(f)


def cli_digest(name, workdir):
    """(exit code, sha256 of the report bytes) of one CLI case, run in
    workdir, where the classify case finds its morphism file."""
    argv = CLI_CASES[name][0]
    (workdir / "mor.json").write_text(json.dumps(_classify_input()))
    out = workdir / "report.json"
    code = cli.main([*argv, "--report", "json", "--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_report_bytes_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.delenv("TRIMODEL_BUDGET", raising=False)
    monkeypatch.chdir(tmp_path)
    _, want_code, want_sha = CLI_CASES[name]
    assert cli_digest(name, tmp_path) == (want_code, want_sha)


# name -> (category factory, rigid set, sha256 of the constructions)
CONSTRUCTION_CASES = {
    "A3-p3-13,15": (
        lambda: mc.build_type_a(3, PrimeField(3)), ("13", "15"),
        "6fe4e55a762cd3d82c4e5304dd8135e458de03222286da98974bde9229c5d1ac"),
    "D4-p2-M1000,M1010,M1001": (
        lambda: mc.build_dynkin(mc.dynkin_d4_subspace(), PrimeField(2)),
        ("M1000", "M1010", "M1001"),
        "a926bf951355b4c2eccdf9b0421ded8b8a4c1cab444a79fbbd5b57952c504bb4"),
    "D4-p2-M1001,M1101,M0001,SP2": (
        lambda: mc.build_dynkin(mc.dynkin_d4_subspace(), PrimeField(2)),
        ("M0001", "M1001", "M1101", "SP2"),
        "0afd3d2527aef9cdc6f68f36d8b44c86ef7470509e6ff0e385db078dfe4423a7"),
}


def _attempt(build):
    """The JSON of what build() returns, or the type of what it raised."""
    try:
        got = build()
    except (AssertionError, RuntimeError, ValueError) as e:
        return {"raised": type(e).__name__}
    if got is None:
        return None
    if isinstance(got, ac.Mor):
        return mor_to_json(got)
    if isinstance(got, rm.RightHomotopy):
        got = (got.m, got.q, got.K, got.correction)
    elif isinstance(got, rm.FactorPair):
        got = (got.first, got.second)
    return [mor_to_json(f) for f in got]


def constructions(cat, t_ind, seed=0, n_obj=12, n_mor=25):
    """Every block-matrix construction on seeded objects and morphisms."""
    rigid = rm.build_rigid(cat, t_ind)
    rng = np.random.default_rng(seed)
    pool = oracle.objects_up_to(cat, 2)[1:]

    def draw():
        return pool[int(rng.integers(0, len(pool)))]

    out = []
    for _ in range(n_obj):
        x = draw()
        for side in ("left", "right"):
            for key in ("T", "sigmaT", "perp"):
                out.append(_attempt(
                    lambda: rigid.tautological_approx(x, side, key)))
                out.append(_attempt(lambda: rigid.approx(x, side, key)))
        out.append(_attempt(lambda: rigid.cylinder(x)))
        out.append(_attempt(lambda: rigid.path_obj(x)))
    for _ in range(n_mor):
        x, y = draw(), draw()
        f = ac.random_morphism_rng(cat, x, y, rng)
        out.append(_attempt(lambda: rigid.factor_wcof_fib(f)))
        c = rigid.ts_list[int(rng.integers(1, len(rigid.ts_list)))]
        g = ac.random_morphism_rng(cat, c, y, rng)
        out.append(_attempt(lambda: rigid.factor_htpcof_wfib(g)))
        # a homotopic pair (f, f - h . a) and a random parallel pair
        a = rigid.tautological_approx(x, "left", "perp")
        h = ac.random_morphism_rng(cat, a.cod, y, rng)
        g = ac.sub(f, ac.compose(h, a))
        out.append(_attempt(lambda: rigid.right_homotopy(f, g)))
        g = ac.random_morphism_rng(cat, x, y, rng)
        out.append(_attempt(lambda: rigid.right_homotopy(f, g)))
        out.append(_attempt(lambda: ac.dsum_mor(f, g, ac.identity(cat, y))))
        # a random endomorphism, inverted when it is an isomorphism
        e = ac.random_morphism_rng(cat, ac.dsum_obj(x, x), ac.dsum_obj(x, x),
                                   rng)
        out.append(_attempt(lambda: ac.inverse(e)))
        out.append(_attempt(lambda: ac.inverse(oracle._random_iso(
            cat, ac.dsum_obj(x, y), rng))))
    return out


def construction_digest(name):
    factory, t_ind, _ = CONSTRUCTION_CASES[name]
    data = json.dumps(constructions(factory(), t_ind), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_CASES))
def test_constructions_are_pinned(name):
    assert construction_digest(name) == CONSTRUCTION_CASES[name][2]
