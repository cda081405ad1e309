"""Committed reference rows, and the script that records them.

Rows are stored as the SHA-256 of their canonical (time-free) JSON form:
the full approx-1 and exact rows run to tens of megabytes.
``refs/cold-bdd.json`` and ``refs/cold-sat.json`` hold every cold grid
row, with its status and star mark for the Table-1 shape claims.
``refs/served-mix.json`` holds every ``/required`` read the served
schedule can send: the hit keys and the whole miss pool.

The references are recorded with the readable object kernel, which does
not depend on the C code.  From the repository root::

    REPRO_BDD_BACKEND=object PYTHONPATH=src python3 perfbench/refs.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REF_DIR = Path(__file__).resolve().with_name("refs")


def canonical(row: dict) -> str:
    """The comparison form of a canonical row (JSON, sorted keys)."""
    return json.dumps(row, sort_keys=True)


def row_digest(row: dict) -> str:
    return hashlib.sha256(canonical(row).encode()).hexdigest()


def load(workload: str) -> dict:
    with open(REF_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def _record_cold(name: str) -> dict:
    from cold import GRIDS, analyze_row, row_key
    from measure import LayerClock
    from repro.circuits import mcnc_suite
    from repro.network.blif import write_blif

    specs = {spec.name: spec for spec in mcnc_suite()}
    out = {}
    for circuit, method, options in GRIDS[name]:
        text = write_blif(specs[circuit].network)
        row, _report = analyze_row(text, method, options, LayerClock())
        out[row_key(circuit, method)] = {
            "status": row["status"],
            "nontrivial": row["nontrivial"],
            "sha256": row_digest(row),
        }
        print(f"{name}: {circuit}/{method} {row['status']}", file=sys.stderr)
    return out


def _record_served() -> dict:
    from repro.cache import ResultCache, cached_analyze_required_times
    from repro.circuits import mcnc_suite
    from repro.network.blif import parse_blif, write_blif
    from served import reads

    specs = {spec.name: spec for spec in mcnc_suite()}
    networks = {}
    out = {}
    for key, circuit, method, options, required in reads():
        if circuit not in networks:
            networks[circuit] = parse_blif(write_blif(specs[circuit].network))
        result, _hit = cached_analyze_required_times(
            networks[circuit], method, ResultCache(None),
            output_required=required, options=dict(options),
        )
        out[key] = row_digest(result.row())
    return out


def main() -> int:
    from repro.bdd.api import backend_resolution

    effective = backend_resolution(None)["effective"]
    if effective != "object":
        print(f"refs are recorded with the object kernel, not {effective!r}: "
              "set REPRO_BDD_BACKEND=object", file=sys.stderr)
        return 2
    REF_DIR.mkdir(exist_ok=True)
    records = {
        "cold-bdd": _record_cold("cold-bdd"),
        "cold-sat": _record_cold("cold-sat"),
        "served-mix": _record_served(),
    }
    for name, record in records.items():
        with open(REF_DIR / f"{name}.json", "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
