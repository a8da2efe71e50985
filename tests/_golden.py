"""Golden outputs of the determinism tests, and the report of every field
an output moved from them.

``CASES`` are the commands of ``test_cli.py::TestDeterminism``.  Their
outputs are kept under ``golden/<case>/``, with the Python, numpy and
scipy versions that wrote them in ``golden/versions.json``.  A test's
first run must match them byte for byte.  After a change that moves
output bytes on purpose, rewrite the golden files, and print the same
report of each moved field, from the root of the repository with

    PYTHONPATH=src python tests/_golden.py

A JSON field is named by its path, an assertion by its name
(``assertions[relator_residual].value``); a CSV field by its data row and
column, a ``;`` list entry by its index (``row 3, translation_lengths[1]``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (command line without --out, the files it writes)
CASES = {
    "psi-scan": (["psi-scan", "--samples", "3000", "--seed", "7"],
                 ("psi-scan.json",)),
    "psi-scan-small-margin": (["psi-scan", "--margin", "1e-4", "--samples", "2000",
                               "--seed", "7"], ("psi-scan.json",)),
    "psi-converse": (["psi-converse", "--trials", "20000", "--seed", "7"],
                     ("psi-converse.json",)),
    "natural-map-suite": (["natural-map-suite", "--nodes", "600"],
                          ("natural-map-suite.json", "natural-map-identity.csv",
                           "natural-map-deformed.csv")),
    "volume-path": (["volume-path", "--steps", "12"],
                    ("volume-path.json", "volume-path.csv")),
    "barycenter-suite": (["barycenter-suite", "--seed", "7"],
                         ("barycenter-suite.json", "barycenter-stationarity.csv")),
    "rigidity-report": (["rigidity-report", "--steps", "4", "--nodes", "600"],
                        ("rigidity-report.json", "rigidity-report.csv")),
}


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _json_fields(node, path: str = ""):
    """(path, value, bound) of each leaf; ``bound`` is the assertion's
    bound next to its value, else None."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}" if path else key
            if key == "value" and "bound" in node:
                yield sub, value, node["bound"]
            else:
                yield from _json_fields(value, sub)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            key = value["name"] if isinstance(value, dict) and "name" in value else i
            yield from _json_fields(value, f"{path}[{key}]")
    else:
        yield path, node, None


def _csv_fields(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    for r, row in enumerate(rows[1:], start=1):
        for column, cell in zip(header, row):
            if ";" in cell:
                for i, entry in enumerate(cell.split(";")):
                    yield f"row {r}, {column}[{i}]", entry, None
            else:
                yield f"row {r}, {column}", cell, None


def _relative(old, new) -> float | None:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return abs(b - a) / abs(a) if a != 0.0 else abs(b - a)


def field_report(name: str, old: bytes, new: bytes) -> list[str]:
    """Lines naming each field of the output file ``name`` that moved from
    ``old`` to ``new``; none when the bytes are equal."""
    if old == new:
        return []
    fields = _csv_fields if name.endswith(".csv") else (
        lambda text: _json_fields(json.loads(text)))
    before = {path: (value, bound) for path, value, bound in fields(old.decode())}
    after = {path: (value, bound) for path, value, bound in fields(new.decode())}
    lines, worst = [], 0.0
    for path, (value, bound) in after.items():
        if path not in before:
            lines.append(f"  {path}: new field {value!r}")
            continue
        was = before[path][0]
        if repr(was) == repr(value):
            continue
        rel = _relative(was, value)
        line = f"  {path}: {was!r} -> {value!r}"
        if rel is not None:
            worst = max(worst, rel)
            line += f" (relative {rel:.2g})"
        if bound is not None:
            line += f", bound {bound!r}"
        lines.append(line)
    lines += [f"  {path}: field removed" for path in before if path not in after]
    head = (f"{name}: {len(lines)} of {len(before)} fields moved, "
            f"by at most {worst:.2g} relative")
    if not lines:
        head = f"{name}: the bytes differ, but no field moved"
    return [head] + lines


def compare(case: str, out: Path) -> list[str]:
    """The report of ``case``'s outputs in ``out`` against its golden
    files, a version mismatch named first; empty when every byte is equal."""
    lines = []
    for name in CASES[case][1]:
        lines += field_report(name, (GOLDEN / case / name).read_bytes(),
                              (out / name).read_bytes())
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if lines and recorded != versions():
        lines.insert(0, f"versions differ: golden files written with {recorded}, "
                        f"this run has {versions()}")
    return lines


def main() -> int:
    from natmap import cli

    with tempfile.TemporaryDirectory() as tmp:
        for case, (argv, names) in CASES.items():
            out = Path(tmp) / case
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(out)])
            if code != 0:
                print(f"{case}: {' '.join(argv)} exited {code}")
                return 1
            if (GOLDEN / case).is_dir():
                report = compare(case, out)
                print("\n".join(report) if report else f"{case}: unchanged")
            else:
                print(f"{case}: new golden files")
            (GOLDEN / case).mkdir(parents=True, exist_ok=True)
            for name in names:
                shutil.copyfile(out / name, GOLDEN / case / name)
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
