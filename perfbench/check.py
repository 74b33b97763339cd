"""Output check for one benchmark operation.

Reads only ``run_manifest.json``, ``jump_series.csv``,
``pair_correlations.csv``, ``contagion_fits.csv`` and
``integration_series.csv``, so the other artifacts can be renamed or
dropped without breaking it. Tolerances are fixed here, before anything
is measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

# A planted contagion lag passes when the fitted coefficient lies within
# this many standard errors of the planted weight ...
CONTAGION_SE = 2.0
# ... and the check passes when at least this share of planted lags do.
CONTAGION_MIN_SHARE = 0.75


class CheckError(Exception):
    """An artifact is missing, corrupt or contradicts the planted truth."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv.DictReader(fh)


def verify_manifest(out: Path, required=()) -> str:
    """Check every listed output against its digest; return the output digest.

    The digest covers the manifest bytes, which pin every output, input and
    the resolved config, so two operations with equal digests wrote equal
    bytes.
    """
    manifest_path = out / "run_manifest.json"
    if not manifest_path.is_file():
        raise CheckError("run_manifest.json is missing")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    outputs = manifest.get("outputs", {})
    missing = [name for name in required if name not in outputs]
    if missing:
        raise CheckError(f"manifest lists no {', '.join(missing)}")
    for name, digest in outputs.items():
        path = out / name
        if not path.is_file():
            raise CheckError(f"{name} is listed in the manifest but missing")
        if _sha256(path) != digest:
            raise CheckError(f"{name} does not match its manifest digest")
    return hashlib.sha256(manifest_path.read_bytes()).hexdigest()


def check_jumps(out: Path, truth: dict) -> None:
    """Every planted jump is big-flagged in jump_series.csv."""
    flagged = {
        (row["msa_id"], row["quarter"])
        for row in _rows(out / "jump_series.csv")
        if row["big_flag"] == "1"
    }
    missed = [j for j in truth["jumps"] if (j["msa_id"], j["quarter"]) not in flagged]
    if missed:
        raise CheckError(f"{len(missed)} of {len(truth['jumps'])} planted jumps not big-flagged, first {missed[0]}")


def check_contagion(out: Path, truth: dict) -> None:
    """Planted contagion lags lie within CONTAGION_SE standard errors."""
    base = {
        (row["source"], row["target"]): row
        for row in _rows(out / "contagion_fits.csv")
        if row["variant"] == "base"
    }
    inside = total = 0
    for plant in truth["contagion"]:
        row = base.get((plant["source"], plant["target"]))
        if row is None:
            raise CheckError(f"no base fit for planted pair {plant['source']}->{plant['target']}")
        for lag, weight in enumerate(plant["weights"]):
            coef, t = float(row[f"lag{lag}"]), float(row[f"lag{lag}_t"])
            se = abs(coef / t) if t else float("inf")
            inside += abs(coef - weight) <= CONTAGION_SE * se
            total += 1
    if total and inside < CONTAGION_MIN_SHARE * total:
        raise CheckError(f"only {inside} of {total} planted contagion lags within {CONTAGION_SE} SE")


def check_pairs(out: Path, truth: dict) -> None:
    """N(N-1)/2 contemporaneous and N^2 lead return pairs.

    Every generated pair of MSAs overlaps by far more than the minimum, so
    no return pair may be omitted.
    """
    counts = Counter()
    with open(out / "pair_correlations.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, _, kind, timing, _ = line.split(",", 4)
            if kind == "return":
                counts[timing] += 1
    n = truth["n_msas"]
    want = {"contemporaneous": n * (n - 1) // 2, "lead": n * n}
    if dict(counts) != want:
        raise CheckError(f"return pair counts {dict(counts)}, want {want}")


def check_integration(out: Path, truth: dict) -> None:
    """Every MSA has an integration series and every R-square is in [0, 1]."""
    msas = set()
    for row in _rows(out / "integration_series.csv"):
        msas.add(row["msa_id"])
        if not 0.0 <= float(row["r_square"]) <= 1.0:
            raise CheckError(f"R-square {row['r_square']} of {row['msa_id']} outside [0, 1]")
    if len(msas) != truth["n_msas"]:
        raise CheckError(f"{len(msas)} MSAs have integration series, want {truth['n_msas']}")


# Artifact -> check run when the command writes it.
CHECKS = {
    "jump_series.csv": check_jumps,
    "pair_correlations.csv": check_pairs,
    "contagion_fits.csv": check_contagion,
    "integration_series.csv": check_integration,
}


def check_output(out: Path, truth: dict, required) -> str:
    """Run every check for ``required`` artifacts; return the output digest."""
    digest = verify_manifest(out, required)
    for name in required:
        CHECKS[name](out, truth)
    return digest
