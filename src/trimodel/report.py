"""Check/report containers shared by the suites and the CLI.

Reports are plain data with a fixed field order so that a given
(config, seed) always serializes to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .addcat import Mor, Obj
from .meshcat import MeshCategory

VERSION = "0.1.0"


@dataclass
class Check:
    name: str
    status: str                 # "pass" | "fail"
    details: str = ""
    witnesses: dict | list | None = None

    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class Report:
    command: str
    config: dict
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, details: str = "",
            witnesses=None) -> Check:
        c = Check(name, "pass" if ok else "fail", details, witnesses)
        self.checks.append(c)
        return c

    def passed(self) -> bool:
        return all(c.ok() for c in self.checks)

    @property
    def summary(self) -> str:
        n = len(self.checks)
        if n == 0:
            return "0 checks"
        good = sum(1 for c in self.checks if c.ok())
        return f"{n} checks: {good} passed, {n - good} failed"

    def to_dict(self) -> dict:
        return {
            "version": VERSION,
            "command": self.command,
            "config": self.config,
            "checks": [
                {"name": c.name, "status": c.status, "details": c.details,
                 "witnesses": c.witnesses}
                for c in self.checks
            ],
            "summary": self.summary,
        }


def emit_report(report: Report, fmt: str) -> bytes:
    """Byte-deterministic rendering; text for humans, json for machines."""
    if fmt == "json":
        return (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    if fmt == "text":
        lines = [f"# {report.command}"]
        for k in sorted(report.config):
            lines.append(f"  {k} = {report.config[k]}")
        lines.append("")
        for c in report.checks:
            mark = "ok  " if c.ok() else "FAIL"
            lines.append(f"[{mark}] {c.name}" + (f": {c.details}" if c.details else ""))
            if c.witnesses is not None and not c.ok():
                lines.append(f"       witnesses: {json.dumps(c.witnesses)}")
        lines.append("")
        lines.append(report.summary)
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def mor_to_json(f: Mor) -> dict:
    """Serialize a morphism as nested coefficient lists in hom-basis order."""
    blocks = [
        [[int(x) for x in f.block(i, j)] for j in range(len(f.dom))]
        for i in range(len(f.cod))
    ]
    return {"dom": list(f.dom.summands), "cod": list(f.cod.summands),
            "blocks": blocks}


def _vertex_list(cat: MeshCategory, names, key: str) -> Obj:
    if not isinstance(names, list) or \
            not all(isinstance(v, str) for v in names):
        raise ValueError(f"morphism field {key!r} must be a list of vertex "
                         "names")
    for v in names:
        if v not in cat.vidx:
            raise ValueError(f"morphism file references unknown vertex {v!r}")
    return Obj(tuple(names))


def mor_from_json(cat: MeshCategory, data: dict) -> Mor:
    if not isinstance(data, dict):
        raise ValueError("morphism file must hold a JSON object")
    for key in ("dom", "cod", "blocks"):
        if key not in data:
            raise ValueError(f"morphism file missing field {key!r}")
    dom = _vertex_list(cat, data["dom"], "dom")
    cod = _vertex_list(cat, data["cod"], "cod")
    blocks = data["blocks"]
    if not isinstance(blocks, list) or len(blocks) != len(cod):
        raise ValueError("blocks must have one row per codomain summand")
    f = Mor(cat, dom, cod)
    for i, row in enumerate(blocks):
        if not isinstance(row, list) or len(row) != len(dom):
            raise ValueError("blocks row length must match domain summands")
        for j, coeffs in enumerate(row):
            d = cat.hom_dim(dom.summands[j], cod.summands[i])
            # bool is an int subclass, but true is no coefficient
            if not isinstance(coeffs, list) or len(coeffs) != d or \
                    not all(type(c) is int for c in coeffs):
                raise ValueError(
                    f"blocks[{i}][{j}] must be a list of {d} integer "
                    "coefficients")
            # reduced as Python ints, so no coefficient overflows int64
            if d:
                f.set_block(i, j, [c % cat.field.p for c in coeffs])
    return f
