"""The three benchmark workloads.

A workload is a seeded list of items plus a set-up step.  ``compute`` runs
one item and returns its outcomes per step: a value, a report (passed flag
and the digest of its JSON bytes) or the type of the exception it raised.
``check`` compares those outcomes with the ones recorded in
``reference.json`` by ``record.py``.

Item statuses:
  pass      every step succeeded and matches the reference;
  defect    the outcomes match a reference that records a raised exception
            or a failing report (a known program defect, reproduced);
  resolved  a step recorded as a defect now succeeds and everything else
            matches (no recorded bytes exist to compare it with);
  mismatch  anything else: a changed value or report, or a new exception.
Items that pass or are resolved count as passed; a mismatch is a failed
operation and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from trimodel import addcat as ac
from trimodel import endalg as ea
from trimodel import meshcat as mc
from trimodel import oracle
from trimodel import rigidmodel as rm
from trimodel.exactlin import PrimeField
from trimodel.report import emit_report

REFERENCE = Path(__file__).with_name("reference.json")

# acceptance-suite axiom budgets per category
AXIOM_BUDGET = {"A2": 150, "A3": 100, "D4": 60}
# D4 rigid sets the rigid sweep draws; every A2 and A3 set is always run.
# 12 keeps one pass near 35 s on a 2-CPU machine, so that the runs of all
# workloads fit the time a full benchmark round may take.
SWEEP_D4_DRAW = 12
# per size |T|, the A3 rigid set whose translates lemma-suite draws from: the
# translates are isomorphic inputs that enumerate the same 9,370 morphisms,
# so the seed changes the labels of the work, not its amount.  These are the
# cheapest orbits of sizes 2 and 3 (about 2.5 s and 8 s a suite on a 2-CPU
# machine; the costliest take 5 s and 19 s), so that two passes fit in a run
# of about 30 s.
LEMMA_ORBITS = {1: "14", 2: "13,46", 3: "13,15,35"}
# orientations of D5 and D6 that mesh-build draws from and record.py records
ORIENTATIONS = 8
MESH_CHARS = (2, 3)


@dataclass
class Workload:
    name: str
    items: list[str]
    setup: Callable[[], dict]
    compute: Callable[[dict, str], dict]
    reference: dict
    facts: dict
    # passes measured per run at least: a single pass of mesh-build or
    # lemma-suite (11 s, 13 s) varies too much from run to run on a machine
    # shared with other loads; run_s and the item times are medians over
    # passes
    min_passes: int = 1


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(call) -> dict:
    try:
        rep = call()
    except Exception as e:  # the outcome of the step is the exception type
        return {"raised": type(e).__name__}
    return {"passed": rep.passed(), "digest": _sha(emit_report(rep, "json"))}


def set_key(t) -> str:
    return ",".join(t)


# ------------------------------------------------------------------ checking


def _step_ok(outcome: dict) -> bool:
    return "raised" not in outcome and outcome.get("passed", True)


def _check_step(got: dict, want: dict) -> str:
    if got == want:
        return "pass" if _step_ok(want) else "defect"
    if _step_ok(got) and not _step_ok(want) and "digest" in got:
        return "resolved"
    return "mismatch"


def _check_replacements(got: list, want: dict) -> str:
    """want: digest over the objects that returned, and the raised ones."""
    raised = {int(k): v for k, v in want["raised"].items()}
    kept = [o for i, o in enumerate(got) if i not in raised]
    if any("raised" in o for o in kept):
        return "mismatch"
    if _sha(json.dumps(kept).encode()) != want["digest"]:
        return "mismatch"
    now = [got[i] for i in sorted(raised)]
    if all(o == {"raised": raised[i]} for i, o in zip(sorted(raised), now)):
        return "defect" if raised else "pass"
    if all("raised" not in o or o == {"raised": raised[i]}
           for i, o in zip(sorted(raised), now)):
        return "resolved"
    return "mismatch"


def replacement_record(got: list) -> dict:
    raised = {str(i): o["raised"] for i, o in enumerate(got) if "raised" in o}
    kept = [o for o in got if "raised" not in o]
    return {"digest": _sha(json.dumps(kept).encode()), "raised": raised}


def check(steps: dict, want: dict) -> str:
    statuses = []
    for name, got in steps.items():
        if name == "replacement":
            statuses.append(_check_replacements(got, want[name]))
        else:
            statuses.append(_check_step(got, want[name]))
    for status in ("mismatch", "defect", "resolved"):
        if status in statuses:
            return status
    return "pass"


def failures(steps: dict) -> list[tuple[str, str]]:
    """(step, exception type or 'report-failed') for every failing step."""
    out = []
    for name, got in steps.items():
        outs = got if isinstance(got, list) else [got]
        for o in outs:
            if "raised" in o:
                out.append((name, o["raised"]))
            elif o.get("passed") is False:
                out.append((name, "report-failed"))
    return out


# ---------------------------------------------------------------- mesh-build


def dynkin_d(n: int, orientation: int) -> mc.DynkinQuiver:
    """D_n on vertices 0..n-1: the path 0-...-(n-2) with n-1 attached to
    n-3; bit k of ``orientation`` reverses edge k."""
    edges = [(str(i), str(i + 1)) for i in range(n - 2)]
    edges.append((str(n - 3), str(n - 1)))
    arrows = [(t, s) if orientation >> k & 1 else (s, t)
              for k, (s, t) in enumerate(edges)]
    return mc.make_dynkin([str(i) for i in range(n)], arrows)


def orientation_ids(n: int) -> list[int]:
    total = 2 ** (n - 1)
    return list(range(0, total, total // ORIENTATIONS))


def category_outcome(cat: mc.MeshCategory) -> dict:
    h = hashlib.sha256()
    for key in sorted(cat.comp):
        t = np.ascontiguousarray(cat.comp[key], dtype="<i8")
        h.update(repr((key, t.shape)).encode())
        h.update(t.tobytes())
    dims = {"verts": list(cat.verts), "dims": cat.dims.tolist()}
    return {"total_hom_dim": cat.total_hom_dim(),
            "radical_length": cat.radical_length,
            "signs": cat.signs,
            "dims": _sha(json.dumps(dims).encode()),
            "comp": h.hexdigest()}


def mesh_item_names(seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    names = []
    for p in MESH_CHARS:
        names.append(f"A6.p{p}")
    for n in (5, 6):
        o = orientation_ids(n)[int(rng.integers(0, ORIENTATIONS))]
        names.extend(f"D{n}.o{o}.p{p}" for p in MESH_CHARS)
    return names


def _mesh_factory(name: str):
    kind, *rest = name.split(".")
    p = int(rest[-1][1:])
    if kind == "A6":
        return lambda: mc.build_type_a(6, PrimeField(p))
    quiver = dynkin_d(int(kind[1:]), int(rest[0][1:]))
    return lambda: mc.build_dynkin(quiver, PrimeField(p))


def mesh_compute(ctx: dict, name: str) -> dict:
    try:
        cat = ctx[name]()
    except Exception as e:
        return {"category": {"raised": type(e).__name__}}
    return {"category": category_outcome(cat)}


def mesh_build(seed: int, reference: dict) -> Workload:
    items = mesh_item_names(seed)
    return Workload(
        "mesh-build", items,
        lambda: {name: _mesh_factory(name) for name in items},
        mesh_compute, reference["mesh-build"],
        {"field_chars": list(MESH_CHARS), "items": items}, min_passes=2)


# --------------------------------------------------------------- rigid-sweep


def sweep_categories() -> dict[str, mc.MeshCategory]:
    f2 = PrimeField(2)
    return {"A2": mc.build_type_a(2, f2), "A3": mc.build_type_a(3, f2),
            "D4": mc.build_dynkin(mc.dynkin_d4_subspace(), f2)}


def sweep_compute(ctx: dict, name: str) -> dict:
    kind, key = name.split(":")
    cat = ctx[kind]
    try:
        rigid = rm.build_rigid(cat, key.split(","))
    except Exception as e:
        return {"ts": {"raised": type(e).__name__}}
    replaced = []
    for x in oracle.objects_up_to(cat, 2):
        try:
            qx, q = rigid.cofibrant_replacement(x)
        except Exception as e:
            replaced.append({"raised": type(e).__name__})
            continue
        replaced.append({"value": [list(qx.summands),
                                   ac.mor_to_vec(q).tolist()]})
    return {
        "ts": {"value": list(rigid.ts_ind)},
        "replacement": replaced,
        "axioms": _report(lambda: oracle.run_axiom_suite(
            cat, rigid, budget=AXIOM_BUDGET[kind], seed=0)),
        "equivalence": _report(lambda: ea.check_equivalence(
            rigid, pair_total=1)),
    }


def recorded_pass(record: dict) -> bool:
    """Whether every step of a recorded rigid set succeeded."""
    return (not record["replacement"]["raised"]
            and all(_step_ok(record[s]) for s in ("ts", "axioms",
                                                  "equivalence")))


def stratified_draw(records: dict, n: int, rng) -> list[str]:
    """n rigid sets: allocated to the recorded passing and failing sets in
    proportion (largest remainder, the same for every seed), then, within
    each, one set drawn at random from each of k equal bands of the sets
    ordered by recorded cost.  Every seed so draws the same number of
    passing sets and about the same amount of work."""
    strata: dict[bool, list[str]] = {}
    for key in sorted(records, key=lambda k: (records[k]["ms"], k)):
        strata.setdefault(recorded_pass(records[key]), []).append(key)
    quota = {c: n * len(ks) / len(records) for c, ks in strata.items()}
    alloc = {c: int(q) for c, q in quota.items()}
    spare = n - sum(alloc.values())
    for c in sorted(quota, key=lambda c: (alloc[c] - quota[c], c))[:spare]:
        alloc[c] += 1
    out = []
    for c, keys in sorted(strata.items()):
        edges = [round(i * len(keys) / alloc[c]) for i in range(alloc[c] + 1)]
        out.extend(keys[int(rng.integers(lo, hi))]
                   for lo, hi in zip(edges, edges[1:]))
    return sorted(out)


def sweep_items(seed: int, reference: dict) -> list[str]:
    items = [f"{kind}:{k}" for kind in ("A2", "A3")
             for k in sorted(reference[kind])]
    draw = stratified_draw(reference["D4"], SWEEP_D4_DRAW,
                           np.random.default_rng(seed))
    return items + [f"D4:{k}" for k in draw]


def rigid_sweep(seed: int, reference: dict) -> Workload:
    ref = reference["rigid-sweep"]
    items = sweep_items(seed, ref)
    flat = {}
    for name in items:
        kind, key = name.split(":")
        flat[name] = ref[kind][key]
    return Workload(
        "rigid-sweep", items, sweep_categories, sweep_compute, flat,
        {"field_chars": [2], "items": len(items),
         "per_category": {k: sum(i.startswith(k) for i in items)
                          for k in ("A2", "A3", "D4")},
         "axiom_budgets": AXIOM_BUDGET})


# --------------------------------------------------------------- lemma-suite


def tau_orbit(cat: mc.MeshCategory, key: str) -> list[str]:
    """The translates of a rigid set under the AR translation, as keys in
    the category's vertex order, starting with ``key`` itself."""
    pos = {v: i for i, v in enumerate(cat.verts)}
    tau = cat.quiver.tau
    out: list[str] = []
    t = key.split(",")
    while set_key(sorted(t, key=pos.get)) not in out:
        out.append(set_key(sorted(t, key=pos.get)))
        t = [tau[v] for v in t]
    return out


def lemma_items(seed: int, candidates: dict[str, list[str]]) -> list[str]:
    rng = np.random.default_rng(seed)
    return [f"A3:{keys[int(rng.integers(0, len(keys)))]}"
            for _, keys in sorted(candidates.items())]


def lemma_setup(items: list[str]) -> dict:
    cat = mc.build_type_a(3, PrimeField(2))
    return {"cat": cat,
            "rigid": {name: rm.build_rigid(cat, name[3:].split(","))
                      for name in items}}


def lemma_compute(ctx: dict, name: str) -> dict:
    rigid = ctx["rigid"][name]
    return {
        "ts": {"value": list(rigid.ts_ind)},
        "lemmas": _report(lambda: oracle.lemma_equivalence_suite(
            ctx["cat"], rigid, max_summands=2, seed=0, gen_a_total=2)),
    }


def lemma_morphism_count(cat: mc.MeshCategory) -> int:
    """Morphisms one lemma suite enumerates: all of Hom(x, y) for objects x,
    y with at most two summands."""
    pool = oracle.objects_up_to(cat, 2)
    p = cat.field.p
    return sum(p ** ac.hom_space_dim(cat, x, y)
               for x, y in itertools.product(pool, pool))


def lemma_suite(seed: int, reference: dict) -> Workload:
    ref = reference["lemma-suite"]
    items = lemma_items(seed, ref["candidates"])
    return Workload(
        "lemma-suite", items, lambda: lemma_setup(items), lemma_compute,
        {name: ref["sets"][name[3:]] for name in items},
        {"field_chars": [2], "items": items,
         "morphisms_per_item": ref["morphisms_per_item"]}, min_passes=2)


WORKLOADS = {"mesh-build": mesh_build, "rigid-sweep": rigid_sweep,
             "lemma-suite": lemma_suite}

