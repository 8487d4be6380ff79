"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py PART --out FILE      # PART: mesh, sweep, lemma
    python3 perfbench/record.py --merge FILE...      # writes reference.json

Each part runs every candidate input of its workload once through the same
``compute`` function the benchmark times and stores the outcomes, with the
item's wall time in ms under "ms" (rigid-sweep orders its draw by it; the
check ignores it).  Re-record only in a change that deliberately changes
outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import run

run._import_program()

import workloads as wl  # noqa: E402
from trimodel import meshcat as mc  # noqa: E402
from trimodel import rigidmodel as rm  # noqa: E402
from trimodel.exactlin import PrimeField  # noqa: E402


def _timed(name: str, call) -> dict:
    """The outcomes of one item, with its wall time in ms under "ms"."""
    t0 = perf_counter()
    out = call()
    ms = round(1000 * (perf_counter() - t0))
    print(json.dumps({"item": name, "ms": ms}), flush=True)
    out["ms"] = ms
    return out


def record_mesh() -> dict:
    names = [f"A6.p{p}" for p in wl.MESH_CHARS]
    for n in (5, 6):
        names.extend(f"D{n}.o{o}.p{p}" for o in wl.orientation_ids(n)
                     for p in wl.MESH_CHARS)
    ctx = {name: wl._mesh_factory(name) for name in names}
    return {name: _timed(name, lambda: wl.mesh_compute(ctx, name))
            for name in names}


def record_sweep() -> dict:
    cats = wl.sweep_categories()
    out = {}
    for kind, cat in cats.items():
        out[kind] = {}
        for t in rm.all_rigid_subsets(cat):
            name = f"{kind}:{wl.set_key(t)}"
            steps = _timed(name, lambda: wl.sweep_compute(cats, name))
            steps["replacement"] = wl.replacement_record(steps["replacement"])
            out[kind][wl.set_key(t)] = steps
    return out


def record_lemma() -> dict:
    cat = mc.build_type_a(3, PrimeField(2))
    sets = {}
    for t in rm.all_rigid_subsets(cat):
        key = wl.set_key(t)
        name = f"A3:{key}"
        ctx = {"cat": cat, "rigid": {name: rm.build_rigid(cat, list(t))}}
        sets[key] = _timed(name, lambda: wl.lemma_compute(ctx, name))
    candidates = {str(size): wl.tau_orbit(cat, key)
                  for size, key in wl.LEMMA_ORBITS.items()}
    return {"candidates": candidates, "sets": sets,
            "morphisms_per_item": wl.lemma_morphism_count(cat)}


PARTS = {"mesh": ("mesh-build", record_mesh),
         "sweep": ("rigid-sweep", record_sweep),
         "lemma": ("lemma-suite", record_lemma)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("part", nargs="?", choices=sorted(PARTS))
    ap.add_argument("--out", type=Path)
    ap.add_argument("--merge", nargs="+", type=Path)
    args = ap.parse_args()
    if args.merge:
        ref = {}
        for path in args.merge:
            ref.update(json.loads(path.read_text()))
        wl.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                + "\n")
        return 0
    if args.part is None or args.out is None:
        ap.error("give a part and --out, or --merge")
    key, fn = PARTS[args.part]
    args.out.write_text(json.dumps({key: fn()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
