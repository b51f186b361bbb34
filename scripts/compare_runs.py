#!/usr/bin/env python3
"""Compares the outputs of two `stc run` directories, or two datasets.

Checkpoints (`*.stcp`), their JSON sidecars and the pseudo-masks
(`masks_*/*.pgm`) of a run, and the manifest, images, GT masks and saliency
maps of a dataset (`stc gen`, `stc saliency`), must be byte-identical, and
each directory must hold the same set of them. Where a directory holds
`report.json` and `report.csv`, both must, and they must be equal once their
`seconds` fields, the wall time of each stage, are left out. Prints one line
per difference and exits 1 if there is any, or if there is nothing to
compare, else prints a summary and exits 0.

Usage: python3 scripts/compare_runs.py DIR_A DIR_B
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

_BYTE_PATTERNS = (
    "*.stcp", "checkpoint_*.json", "masks_*/*.pgm",  # a run
    "manifest.jsonl", "images/*.ppm", "masks/*.pgm", "saliency/*.pgm",  # a dataset
)


def _byte_files(run: Path) -> set[str]:
    return {str(p.relative_to(run)) for pat in _BYTE_PATTERNS for p in run.glob(pat)}


def _report_json(path: Path):
    doc = json.loads(path.read_text())
    for stage in doc.get("stages", []):
        stage.pop("seconds", None)
    return doc


def _report_csv(path: Path):
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    for row in rows:
        row.pop("seconds", None)
    return rows


def compare(a: Path, b: Path) -> tuple[list[str], int]:
    """The differences between directories `a` and `b`, and the number of
    files compared."""
    problems = []
    files_a, files_b = _byte_files(a), _byte_files(b)
    for name in sorted(files_a ^ files_b):
        problems.append(f"{name}: only in {a if name in files_a else b}")
    for name in sorted(files_a & files_b):
        if (a / name).read_bytes() != (b / name).read_bytes():
            problems.append(f"{name}: bytes differ")
    compared = len(files_a & files_b)
    for name, read in (("report.json", _report_json), ("report.csv", _report_csv)):
        present = [(run / name).is_file() for run in (a, b)]
        if not any(present):
            continue
        if not all(present):
            problems.append(f"{name}: missing from {a if not present[0] else b}")
        elif read(a / name) != read(b / name):
            problems.append(f"{name}: differs outside its seconds fields")
        else:
            compared += 1
    if not compared and not problems:
        problems.append(f"no run or dataset files in {a} or {b}")
    return problems, compared


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    for run in (args.a, args.b):
        if not run.is_dir():
            print(f"error: {run} is not a directory", file=sys.stderr)
            return 1
    problems, compared = compare(args.a, args.b)
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} differences")
        return 1
    print(f"identical: {compared} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
