import json
import os
import subprocess
import sys
import time

import pytest

from trimodel import addcat as ac
from trimodel import meshcat as mc
from trimodel.exactlin import PrimeField
from trimodel.report import mor_to_json


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "trimodel.cli", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, env=full_env)


def test_gen_a2_json():
    r = run_cli("gen", "--type", "A", "--rank", "2", "--report", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    w = data["checks"][0]["witnesses"]
    assert len(w["vertices"]) == 5
    assert w["total_hom_dim"] == 10
    assert sum(sum(row) for row in w["hom_dims"]) == 10


def test_gen_save_round_trip(tmp_path):
    path = tmp_path / "pentagon.json"
    r = run_cli("gen", "--type", "A", "--rank", "2", "--save", str(path))
    assert r.returncode == 0
    cat = mc.load(path)
    assert cat.total_hom_dim() == 10


def test_exit_code_2_on_bad_input(tmp_path):
    assert run_cli("gen", "--type", "A").returncode == 2
    assert run_cli("axioms", "--type", "A", "--rank", "2",
                   "--T", "junk").returncode == 2
    assert run_cli("gen", "--type", "A", "--rank", "2",
                   "--field-char", "4").returncode == 2
    assert run_cli("classify", "--type", "A", "--rank", "2", "--T", "13",
                   "--mor", "/does/not/exist.json").returncode == 2
    # malformed morphism files: a block row or a coefficient list that is
    # not a list, a coefficient that is not an integer
    for n, blocks in enumerate(([5], [[None]], [[[1.5]]], [[[True]]])):
        path = tmp_path / f"mor{n}.json"
        path.write_text(json.dumps({"dom": ["13"], "cod": ["14"],
                                    "blocks": blocks}))
        r = run_cli("classify", "--type", "A", "--rank", "2", "--T", "13",
                    "--mor", str(path))
        assert r.returncode == 2, (blocks, r.stderr)
        assert b"Traceback" not in r.stderr
    # malformed quiver files: an arrow that is not a pair, a top-level
    # list, vertices given as one string
    for n, spec in enumerate(({"vertices": ["1", "2"], "arrows": [5]},
                              [["1", "2"]],
                              {"vertices": "ab", "arrows": [["a", "b"]]})):
        path = tmp_path / f"quiver{n}.json"
        path.write_text(json.dumps(spec))
        r = run_cli("gen", "--type", "dynkin", "--quiver", str(path))
        assert r.returncode == 2, (spec, r.stderr)
        assert b"Traceback" not in r.stderr


def test_unknown_flag_exits_2():
    assert run_cli("gen", "--nope").returncode == 2


def test_axioms_command():
    r = run_cli("axioms", "--type", "A", "--rank", "2", "--T", "13",
                "--budget", "100")
    assert r.returncode == 0


def test_lemmas_command():
    r = run_cli("lemmas", "--type", "A", "--rank", "2", "--T", "13")
    assert r.returncode == 0


def test_equivalence_command():
    r = run_cli("equivalence", "--type", "A", "--rank", "2", "--T", "13",
                "--report", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert all(c["status"] == "pass" for c in data["checks"])


def test_list_ts_command():
    r = run_cli("list-ts", "--type", "A", "--rank", "2", "--T", "13",
                "--report", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    w = data["checks"][0]["witnesses"]
    assert set(w) == {"indecomposables", "objects"}
    assert w["indecomposables"] == ["13", "25"]


def test_example_d4_default_char_3():
    t0 = time.time()
    r = run_cli("example-d4", "--report", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["config"]["field_char"] == 3
    assert time.time() - t0 < 30


def test_example_d4_explicit_char():
    r = run_cli("example-d4", "--field-char", "3")
    assert r.returncode == 0


def test_classify_round_trip(tmp_path):
    cat = mc.build_type_a(2, PrimeField(2))
    f = ac.elementary(cat, ac.obj("13"), ac.obj("14"), 0, 0, 0)
    path = tmp_path / "mor.json"
    with open(path, "w") as fh:
        json.dump(mor_to_json(f), fh)
    r = run_cli("classify", "--type", "A", "--rank", "2", "--T", "13",
                "--mor", str(path), "--report", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    flags = data["checks"][0]["witnesses"]["flags"]
    assert flags == {"weq": True, "fib": True, "wfib": True, "wcof": False}


def test_classify_malformed_morphism(tmp_path):
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump({"dom": ["13"], "cod": ["14"], "blocks": [[[1, 2]]]}, fh)
    r = run_cli("classify", "--type", "A", "--rank", "2", "--T", "13",
                "--mor", str(path))
    assert r.returncode == 2
    assert b"blocks" in r.stderr


def test_byte_determinism():
    args = ("axioms", "--type", "A", "--rank", "2", "--T", "13",
            "--budget", "80", "--report", "json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_out_flag(tmp_path):
    path = tmp_path / "report.json"
    r = run_cli("gen", "--type", "A", "--rank", "2", "--report", "json",
                "--out", str(path))
    assert r.returncode == 0
    assert json.loads(path.read_text())["command"] == "gen"


def test_budget_env_override():
    r = run_cli("axioms", "--type", "A", "--rank", "2", "--T", "13",
                env={"TRIMODEL_BUDGET": "60"})
    assert r.returncode == 0


def test_budget_below_one_exits_2():
    for budget in ("-5", "0"):
        r = run_cli("axioms", "--type", "A", "--rank", "2", "--T", "13",
                    "--budget", budget)
        assert r.returncode == 2, (budget, r.stdout)
        assert b"budget must be at least 1" in r.stderr


def test_budget_env_below_one_exits_2():
    r = run_cli("axioms", "--type", "A", "--rank", "2", "--T", "13",
                "--budget", "100", env={"TRIMODEL_BUDGET": "-5"})
    assert r.returncode == 2, r.stdout
    assert b"budget must be at least 1" in r.stderr


def test_classify_morphism_path_is_a_directory(tmp_path):
    r = run_cli("classify", "--type", "A", "--rank", "2", "--T", "13",
                "--mor", str(tmp_path))
    assert r.returncode == 2
    assert b"Traceback" not in r.stderr


def test_dynkin_quiver_path_is_a_directory(tmp_path):
    r = run_cli("gen", "--type", "dynkin", "--quiver", str(tmp_path))
    assert r.returncode == 2
    assert b"Traceback" not in r.stderr


def test_dynkin_quiver_file(tmp_path):
    path = tmp_path / "a2.json"
    with open(path, "w") as fh:
        json.dump({"vertices": ["1", "2"], "arrows": [["1", "2"]]}, fh)
    r = run_cli("gen", "--type", "dynkin", "--quiver", str(path),
                "--report", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert data["checks"][0]["witnesses"]["total_hom_dim"] == 10


def test_gen_d4_paper():
    r = run_cli("gen", "--type", "d4-paper", "--report", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["checks"][0]["witnesses"]["vertices"]) == 16


def test_axioms_d4_paper_default_rigid_set():
    # the worked example's rigid set lives on the command's own category,
    # so morphisms built by the suite compare equal to the rigid data
    r = run_cli("axioms", "--type", "d4-paper", "--budget", "60",
                "--report", "json")
    assert r.returncode == 0, r.stdout
    data = json.loads(r.stdout)
    assert len(data["checks"]) == 6
    assert all(c["status"] == "pass" for c in data["checks"])


def test_construction_failure_is_a_failed_check():
    r = run_cli("axioms", "--type", "d4-paper", "--T", "M0010,M0001,SP1",
                "--report", "json")
    assert r.returncode == 1
    assert b"Traceback" not in r.stderr
    data = json.loads(r.stdout)
    assert [c["status"] for c in data["checks"]] == ["fail"]
    assert data["checks"][0]["details"].startswith("RuntimeError: ")


def test_whole_hom_space_beyond_the_cap_is_a_failed_check():
    # at p = 97 the lemma suite would take all 97^4 morphisms of a
    # four-dimensional Hom space, more than 2^enum_exp_cap
    r = run_cli("lemmas", "--type", "A", "--rank", "2", "--T", "13",
                "--field-char", "97", "--report", "json")
    assert r.returncode == 1
    assert b"Traceback" not in r.stderr
    data = json.loads(r.stdout)
    assert [(c["name"], c["status"]) for c in data["checks"]] == \
        [("construction", "fail")]
    assert data["checks"][0]["details"].startswith("RuntimeError: ")
    assert "97^4" in data["checks"][0]["details"]


def test_empty_report_summary():
    from trimodel.report import Report
    assert Report("x", {}).summary == "0 checks"
