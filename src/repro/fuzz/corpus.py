"""The persistent regression corpus: minimal repros on disk, replayable.

Every failure the fuzzer finds is committed as a pair of files under a
corpus directory (``tests/corpus/`` in this repository):

* ``<case_id>.blif`` — the shrunk netlist, in standard BLIF so any
  external tool can read it;
* ``<case_id>.json`` — metadata: the seed and profile that produced it,
  the delay spec, the output required times, the checks it failed
  and why, and the pre-shrink size for context.

``load_corpus`` rebuilds full :class:`~repro.fuzz.gen.FuzzCase` objects
from those pairs and ``replay_entry`` re-runs the differential checks,
so every past failure becomes a permanent tier-1 regression test: once
the underlying bug is fixed, the replay must pass forever after.

Entries of the ``eco`` and ``interval`` fuzz families record their
family name and carry one extra metadata block named after it: the
edit trace (docs/ECO.md format) and its generator seed, or the width
chain and its seed.  ``replay_entry`` looks the family up in
:data:`repro.fuzz.runner.FAMILIES` and re-runs that family's
differential, so every finding replays through the checks that found
it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.errors import ReproError
from repro.fuzz.checks import CaseResult, CheckFailure, EngineSuite
from repro.fuzz.gen import FuzzCase
from repro.network.blif import parse_blif_file, write_blif
from repro.timing.delay import DelayModel

FORMAT_VERSION = 1


@dataclass
class CorpusEntry:
    """One on-disk repro: the rebuilt case plus its raw metadata."""

    case: FuzzCase
    metadata: dict
    blif_path: str
    json_path: str

    @property
    def failed_checks(self) -> list[str]:
        return [f["check"] for f in self.metadata.get("failures", [])]


def save_repro(
    directory: str,
    case: FuzzCase,
    failures: list[CheckFailure],
    original=None,
    metadata: dict | None = None,
) -> str:
    """Write ``case`` as a corpus entry; returns the entry's base name.

    ``original`` is the pre-shrink case, recorded (sizes and seed only)
    so a reader can judge how much the shrinker removed.  ``metadata``
    overrides or extends the written fields: a family whose cases wrap
    ``case`` as their base circuit passes its own ``case_id`` (the
    entry's base name), its ``family`` name, and the metadata block its
    ``replay`` reads back.
    """
    os.makedirs(directory, exist_ok=True)
    record = {
        "format": FORMAT_VERSION,
        "case_id": case.case_id,
        "profile": case.profile,
        "family": case.family,
        "seed": case.seed,
        "delays": case.delays.to_spec(),
        "output_required": case.output_required,
        "inputs": case.num_inputs,
        "outputs": case.network.num_outputs,
        "gates": case.num_gates,
        "failures": [
            {"check": f.check, "detail": f.detail} for f in failures
        ],
    }
    if original is not None:
        record["original"] = {
            "case_id": original.case_id,
            "gates": original.num_gates,
            "inputs": original.num_inputs,
            "seed": original.seed,
        }
    record.update(metadata or {})
    base = record["case_id"]
    with open(os.path.join(directory, f"{base}.blif"), "w") as handle:
        write_blif(case.network, handle)
    with open(os.path.join(directory, f"{base}.json"), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return base


def load_entry(directory: str, base: str) -> CorpusEntry:
    """Rebuild one corpus entry from its ``.blif``/``.json`` pair."""
    blif_path = os.path.join(directory, f"{base}.blif")
    json_path = os.path.join(directory, f"{base}.json")
    with open(json_path) as handle:
        metadata = json.load(handle)
    network = parse_blif_file(blif_path)
    required = metadata.get("output_required", 0.0)
    if not isinstance(required, dict):
        required = float(required)
    case = FuzzCase(
        case_id=metadata.get("case_id", base),
        network=network,
        delays=DelayModel.from_spec(metadata.get("delays", {})),
        output_required=required,
        profile=metadata.get("profile", "unknown"),
        seed=str(metadata.get("seed", "")),
        family=metadata.get("family", "unknown"),
    )
    return CorpusEntry(
        case=case, metadata=metadata, blif_path=blif_path, json_path=json_path
    )


def load_corpus(directory: str) -> list[CorpusEntry]:
    """Every entry of a corpus directory, sorted by case id."""
    if not os.path.isdir(directory):
        return []
    entries = []
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".json"):
            continue
        base = fname[: -len(".json")]
        if not os.path.exists(os.path.join(directory, f"{base}.blif")):
            raise ReproError(
                f"corpus entry {base!r} has metadata but no .blif netlist"
            )
        entries.append(load_entry(directory, base))
    return entries


def replay_entry(
    entry: CorpusEntry, suite: EngineSuite | None = None
) -> CaseResult:
    """Re-run the differential checks of the entry's fuzz family.

    With the stock :class:`EngineSuite` this is the regression direction:
    the entry documents a *fixed* failure, so the replay must come back
    clean.  Passing the suite that originally misbehaved (in mutation
    tests) must reproduce the recorded failure instead.

    ``circuit`` entries record the generator's structural family
    (``parity``, ``mux_chain``, ...) as their ``family``, so any name
    outside the family table replays as a circuit case.
    """
    from repro.fuzz.runner import FAMILIES

    family = FAMILIES.get(entry.metadata.get("family"), FAMILIES["circuit"])
    return family.replay(entry, suite)


__all__ = [
    "FORMAT_VERSION",
    "CorpusEntry",
    "load_corpus",
    "load_entry",
    "replay_entry",
    "save_repro",
]
