"""Command-line entry point.

Subcommands build or load a category, declare the rigid set, and run the
classification, the suites, or the packaged example; reports are emitted in
a byte-deterministic text or JSON layout.  Exit codes: 0 when every check
passes, 1 when a check fails (a construction that fails on well-formed input
is reported as one failed check naming the exception), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import d4scenario, endalg, meshcat, oracle
from .exactlin import PrimeField
from .meshcat import QuiverError, ValidationError
from .report import Report, emit_report, mor_from_json, mor_to_json
from .rigidmodel import NotRigidError, build_rigid

DEFAULT_BUDGET = 500


def _category_args(sub):
    sub.add_argument("--type", required=True,
                     choices=["A", "dynkin", "d4-paper"],
                     help="builtin family, a quiver file, or the packaged "
                          "example category")
    sub.add_argument("--rank", type=int, help="rank for --type A")
    sub.add_argument("--quiver", help="Dynkin quiver JSON for --type dynkin")
    sub.add_argument("--T", dest="t_verts",
                     help="comma-separated rigid vertices")


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field-char", type=int, default=None,
                        help="prime field characteristic (default 2; the "
                             "worked example defaults to 3)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled checks (default 0)")
    common.add_argument("--budget", type=int, default=None,
                        help="sample budget; env TRIMODEL_BUDGET overrides")
    common.add_argument("--report", choices=["text", "json"], default="text")
    common.add_argument("--out", help="write the report to this path")

    ap = argparse.ArgumentParser(
        prog="trimodel",
        description="build finite mesh categories, classify morphisms "
                    "against a rigid set, and machine-check the structural "
                    "axioms and equivalences")
    sp = ap.add_subparsers(dest="command", required=True)

    gen = sp.add_parser("gen", parents=[common],
                        help="build a category and report its data")
    _category_args(gen)
    gen.add_argument("--save", help="also write a loadable quiver spec here")

    cls = sp.add_parser("classify", parents=[common],
                        help="classify a morphism from a file")
    _category_args(cls)
    cls.add_argument("--mor", required=True, help="morphism JSON file")

    for name, desc in (("axioms", "run the structural axiom suite"),
                       ("lemmas", "run the lemma equivalence suite"),
                       ("equivalence", "check the module-category equivalence"),
                       ("list-ts", "list the enumerated cofibrant objects")):
        s = sp.add_parser(name, parents=[common], help=desc)
        _category_args(s)

    sp.add_parser("example-d4", parents=[common],
                  help="run the packaged worked example")
    return ap


def _build_category(args):
    field = PrimeField(args.field_char)
    if args.type == "A":
        if args.rank is None:
            raise QuiverError("--type A requires --rank")
        return meshcat.build_type_a(args.rank, field)
    if args.type == "dynkin":
        if not args.quiver:
            raise QuiverError("--type dynkin requires --quiver")
        with open(args.quiver, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise QuiverError("quiver file must hold a JSON object")
        verts = data.get("vertices", [])
        arrows = data.get("arrows", [])
        if not isinstance(verts, list) or \
                not all(isinstance(v, str) for v in verts):
            raise QuiverError("vertices must be a list of strings")
        if not isinstance(arrows, list) or not all(
                isinstance(a, list) and len(a) == 2
                and all(isinstance(v, str) for v in a) for a in arrows):
            raise QuiverError("arrows must be [source, target] pairs of "
                              "vertex names")
        q = meshcat.make_dynkin(verts, [tuple(a) for a in arrows])
        return meshcat.build_dynkin(q, field)
    if args.type == "d4-paper":
        return meshcat.build_dynkin(meshcat.dynkin_d4_subspace(), field)
    raise QuiverError(f"unknown category type {args.type!r}")


def _rigid_for(args, cat):
    if args.type == "d4-paper" and not args.t_verts:
        # the worked example's rigid set, rebuilt on this command's own
        # category: morphisms of two category instances never compare equal
        binding = d4scenario.bind(args.field_char)
        return build_rigid(cat, binding.rigid.t_ind, seed=args.seed)
    if not args.t_verts:
        raise QuiverError("this command requires --T")
    t = [v for v in args.t_verts.split(",") if v]
    return build_rigid(cat, t, seed=args.seed)


def _budget(args) -> int:
    env = os.environ.get("TRIMODEL_BUDGET")
    if env is not None:
        budget = int(env)
    elif args.budget is not None:
        budget = args.budget
    else:
        budget = DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget


def _emit(args, report: Report) -> int:
    data = emit_report(report, args.report)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 0 if report.passed() else 1


def _cmd_gen(args) -> int:
    cat = _build_category(args)
    rep = Report("gen", {
        "field_char": cat.field.p,
        "type": args.type,
        "rank": args.rank,
    })
    dims = cat.dims.tolist()
    rep.add("category-built", True,
            f"{len(cat.verts)} vertices, total hom dimension "
            f"{cat.total_hom_dim()}",
            {"vertices": list(cat.verts),
             "arrows": [[s, t] for s, t, _ in cat.arrows],
             "tau": dict(cat.quiver.tau),
             "hom_dims": dims,
             "total_hom_dim": cat.total_hom_dim(),
             "radical_length": cat.radical_length,
             "quiver_spec": meshcat.quiver_to_spec(cat)})
    if args.save:
        meshcat.save(cat, args.save)
    return _emit(args, rep)


def _cmd_classify(args) -> int:
    cat = _build_category(args)
    rigid = _rigid_for(args, cat)
    with open(args.mor, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    f = mor_from_json(cat, data)
    cls = rigid.classify(f)
    rep = Report("classify", {
        "field_char": cat.field.p, "T": list(rigid.t_ind), "mor": args.mor,
    })
    rep.add("classification", True, json.dumps(cls.as_dict()),
            {"morphism": mor_to_json(f), "flags": cls.as_dict()})
    return _emit(args, rep)


def _cmd_axioms(args) -> int:
    budget = _budget(args)
    cat = _build_category(args)
    rigid = _rigid_for(args, cat)
    rep = oracle.run_axiom_suite(cat, rigid, budget=budget)
    return _emit(args, rep)


def _cmd_lemmas(args) -> int:
    cat = _build_category(args)
    rigid = _rigid_for(args, cat)
    rep = oracle.lemma_equivalence_suite(cat, rigid, max_summands=2,
                                         gen_a_total=2)
    return _emit(args, rep)


def _cmd_equivalence(args) -> int:
    cat = _build_category(args)
    rigid = _rigid_for(args, cat)
    rep = endalg.check_equivalence(rigid, pair_total=2)
    return _emit(args, rep)


def _cmd_list_ts(args) -> int:
    cat = _build_category(args)
    rigid = _rigid_for(args, cat)
    rep = Report("list-ts", {
        "field_char": cat.field.p, "T": list(rigid.t_ind),
    })
    rep.add("cofibrant-objects", True,
            f"{len(rigid.ts_ind)} indecomposables, "
            f"{len(rigid.ts_list)} objects within the bound",
            {"indecomposables": list(rigid.ts_ind),
             "objects": [list(x.summands) for x in rigid.ts_list]})
    return _emit(args, rep)


def _cmd_example_d4(args) -> int:
    rep = d4scenario.run_scenario(args.field_char)
    return _emit(args, rep)


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    if args.field_char is None:
        # the worked example defaults to an odd characteristic so the sign
        # in the mesh identity is visible
        args.field_char = 3 if args.command == "example-d4" else 2
    handlers = {
        "gen": _cmd_gen,
        "classify": _cmd_classify,
        "axioms": _cmd_axioms,
        "lemmas": _cmd_lemmas,
        "equivalence": _cmd_equivalence,
        "list-ts": _cmd_list_ts,
        "example-d4": _cmd_example_d4,
    }
    try:
        return handlers[args.command](args)
    except (QuiverError, ValidationError, NotRigidError, OSError,
            json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as e:
        rep = Report(args.command, {"field_char": args.field_char})
        rep.add("construction", False, f"{type(e).__name__}: {e}")
        return _emit(args, rep)


if __name__ == "__main__":
    sys.exit(main())
