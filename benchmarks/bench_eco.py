"""ECO benchmark: incremental ``apply_edit`` vs full recompute per edit.

Timed claim (the acceptance bar of docs/ECO.md): on a **locality-heavy**
edit trace — every edit confined to one block of a many-block circuit —
an incremental :class:`~repro.eco.NetworkSession` must be ≥5x faster
than recomputing every output cone from scratch after each edit, with
the per-output canonical rows and the min-merged view bit-identical to
the full recompute after **every single edit** (parity is asserted, not
sampled).  A **scattered** trace (edits spread across all blocks) is
reported for context without a floor: when every edit dirties a
different cone, incrementality saves less by construction.

Run:  pytest benchmarks/bench_eco.py --benchmark-only -q

Script mode — ``python benchmarks/bench_eco.py [--smoke] [--json OUT]``
— replays both scenarios with parity asserted and writes the JSON
payload; ``scripts/check_bench.py eco`` holds the speedup floor and the
wall gate (CI runs it with ``--smoke``).
"""

import json
import sys
import time

from _harness import TableCollector

from repro.eco import NetworkSession, Resubstitute, SetDelay
from repro.network import Network

TABLE = TableCollector(
    "ECO: incremental apply_edit vs full recompute (parity every edit)",
    ["scenario", "edits", "incr (s)", "full (s)", "speedup", "parity"],
)

METHOD = "approx2"
OPTIONS = {"engine": "sat"}


def blocks_circuit(n_blocks: int) -> Network:
    """``n_blocks`` independent C17 instances with prefixed names.

    Cones are disjoint by construction, so an edit inside block ``i``
    can dirty at most that block's two outputs — the workload where
    incremental dependency tracking pays off most.
    """
    net = Network(f"c17x{n_blocks}")
    for b in range(n_blocks):
        p = f"b{b}_"
        for pi in ("G1", "G2", "G3", "G6", "G7"):
            net.add_input(p + pi)
        net.add_gate(p + "G10", "NAND", [p + "G1", p + "G3"])
        net.add_gate(p + "G11", "NAND", [p + "G3", p + "G6"])
        net.add_gate(p + "G16", "NAND", [p + "G2", p + "G11"])
        net.add_gate(p + "G19", "NAND", [p + "G11", p + "G7"])
        net.add_gate(p + "G22", "NAND", [p + "G10", p + "G16"])
        net.add_gate(p + "G23", "NAND", [p + "G16", p + "G19"])
    net.set_outputs(
        [f"b{b}_{o}" for b in range(n_blocks) for o in ("G22", "G23")]
    )
    return net


def block_edits(block: int, count: int) -> list:
    """``count`` edits confined to one block: alternate flipping G10
    between NAND and AND (dirties one cone) and re-budgeting G19's delay
    (dirties the other) — every edit really changes its cone's digest."""
    p = f"b{block}_"
    edits = []
    for i in range(count):
        if i % 2 == 0:
            gate = "AND" if (i // 2) % 2 == 0 else "NAND"
            edits.append(
                Resubstitute(name=p + "G10", fanins=(p + "G1", p + "G3"), gate=gate)
            )
        else:
            edits.append(SetDelay(name=p + "G19", delay=float(2 + (i // 2) % 3)))
    return edits


def scattered_edits(n_blocks: int, count: int) -> list:
    """``count`` edits round-robined across every block."""
    edits = []
    for i in range(count):
        edits.extend(block_edits(i % n_blocks, 1))
    return edits


def _assert_parity(session: NetworkSession, cold: NetworkSession, label: str):
    warm = json.dumps(
        {"rows": session.rows(), "merged": session.merged()},
        sort_keys=True, default=str,
    )
    full = json.dumps(
        {"rows": cold.rows(), "merged": cold.merged()},
        sort_keys=True, default=str,
    )
    assert warm == full, f"{label}: incremental rows diverged from full recompute"


def run_scenario(n_blocks: int, edits: list, label: str) -> dict:
    """Replay ``edits`` once, timing incremental vs full per edit.

    The full-recompute side is a cold :class:`NetworkSession` over the
    *same* post-edit network (the session's own parity oracle), so the
    two sides are guaranteed to run identical engine work lists when
    nothing is incremental — the comparison isolates exactly the
    dirty-cone tracking.
    """
    net = blocks_circuit(n_blocks)
    session = NetworkSession(net, method=METHOD, options=OPTIONS)
    incr_s = full_s = 0.0
    dirty_total = 0
    for i, edit in enumerate(edits):
        t0 = time.perf_counter()
        result = session.apply_edit(edit)
        incr_s += time.perf_counter() - t0
        assert result.ok, result.report()
        dirty_total += len(result.dirty)
        t0 = time.perf_counter()
        cold = session.full_recompute()
        full_s += time.perf_counter() - t0
        _assert_parity(session, cold, f"{label} edit #{i}")
    return {
        "scenario": label,
        "blocks": n_blocks,
        "cones": 2 * n_blocks,
        "edits": len(edits),
        "recomputed_cones": dirty_total,
        "incremental_seconds": round(incr_s, 6),
        "full_seconds": round(full_s, 6),
        "speedup": round(full_s / max(incr_s, 1e-9), 1),
        "parity": True,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entries (apply_edit is the service hot path)
# ----------------------------------------------------------------------
def test_apply_edit_locality(benchmark):
    """One locality-heavy edit on a 6-block circuit (12 cones)."""
    session = NetworkSession(blocks_circuit(6), method=METHOD, options=OPTIONS)
    flip = [True]

    def one_edit():
        gate = "AND" if flip[0] else "NAND"
        flip[0] = not flip[0]
        return session.apply_edit(
            Resubstitute(name="b0_G10", fanins=("b0_G1", "b0_G3"), gate=gate)
        )

    result = benchmark(one_edit)
    assert result.ok and len(result.candidates) == 1


def test_full_recompute_baseline(benchmark):
    """The cold-session baseline the speedup is measured against."""
    session = NetworkSession(blocks_circuit(6), method=METHOD, options=OPTIONS)
    cold = benchmark(session.full_recompute)
    assert sorted(cold.rows()) == sorted(session.rows())


def test_zzz_print(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    TABLE.print_once()


# ----------------------------------------------------------------------
# script mode: the JSON payload scripts/check_bench.py gates
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Incremental ECO vs full-recompute benchmark."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="smaller circuit and trace (the CI gate)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write the JSON payload to this path")
    args = parser.parse_args(argv)

    n_blocks = 6 if args.smoke else 10
    n_edits = 6 if args.smoke else 20

    locality = run_scenario(
        n_blocks, block_edits(0, n_edits), "locality"
    )
    scattered = run_scenario(
        n_blocks, scattered_edits(n_blocks, n_edits), "scattered"
    )
    for record in (locality, scattered):
        print(
            f"{record['scenario']:<10} {record['edits']} edits over "
            f"{record['cones']} cones: incr {record['incremental_seconds']:.4f}s"
            f"  full {record['full_seconds']:.4f}s  "
            f"({record['speedup']}x, parity ok, "
            f"{record['recomputed_cones']} cones recomputed)"
        )
        TABLE.add(
            record["scenario"], record["edits"],
            record["incremental_seconds"], record["full_seconds"],
            f"{record['speedup']}x", record["parity"],
        )
    if args.json:
        payload = {
            "benchmark": "eco",
            "smoke": args.smoke,
            "method": METHOD,
            "results": [locality, scattered],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"record written to {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
