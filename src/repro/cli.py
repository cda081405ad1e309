"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

* ``stats``    — parse a netlist and print its size/depth profile.
* ``delay``    — topological vs exact (false-path aware) output arrival
  times; lists the outputs whose longest paths are false.
* ``required`` — required times at the primary inputs by any of the
  paper's methods (``topological`` / ``exact`` / ``approx1`` /
  ``approx2``).
* ``slack``    — true vs topological slack of internal nodes (Section 3's
  subproblem).
* ``paths``    — enumerate the longest paths and classify each one.
* ``report``   — the consolidated timing datasheet (delay + false paths +
  required-time analysis in one page).
* ``fuzz``     — differential fuzzing: generate random netlists, run all
  four required-time engines against each other and the ternary oracle,
  shrink any failure and save it to a regression corpus.
* ``eco``      — apply a JSON edit trace to a netlist through an
  incremental :class:`~repro.eco.NetworkSession`: per edit, only the
  dirty output cones re-analyze, and ``--verify`` checks the result
  against a full recompute (docs/ECO.md).
* ``trace``    — pretty-print / summarize a trace file produced by
  ``required --trace`` (or convert it to Chrome ``about:tracing`` JSON).
* ``cache``    — inspect and maintain the persistent result cache
  (``stats`` / ``clear`` / ``gc``); see docs/CACHING.md.
* ``serve``    — run the analysis daemon: warm circuit registry,
  request coalescing, bounded admission with backpressure, ECO session
  endpoints, and ``/metrics`` + ``/trace`` surfaces (docs/SERVING.md).

Netlists are read from BLIF (``.blif``) or ISCAS bench (``.bench``)
files, chosen by extension.  All analyses default to the paper's setup:
unit delays, arrival 0 at every input.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.required_time import format_time
from repro.core.trueslack import true_slacks
from repro.errors import ReproError, TimingError
from repro.network import parse_bench_file, parse_blif_file
from repro.network.network import Network
from repro.timing import FunctionalTiming, TopologicalTiming
from repro.timing.paths import classify_paths, longest_paths


def load_network(path: str) -> Network:
    if path.endswith(".bench"):
        return parse_bench_file(path)
    return parse_blif_file(path)


def cmd_stats(args: argparse.Namespace) -> int:
    net = load_network(args.netlist)
    print(f"name:    {net.name}")
    print(f"inputs:  {net.num_inputs}")
    print(f"outputs: {net.num_outputs}")
    print(f"gates:   {net.num_gates}")
    print(f"depth:   {net.depth()}")
    return 0


def cmd_delay(args: argparse.Namespace) -> int:
    net = load_network(args.netlist)
    if args.output is not None and args.output not in net.outputs:
        from repro.errors import NetworkError

        raise NetworkError(
            f"unknown output {args.output!r} "
            f"(outputs: {', '.join(net.outputs)})"
        )
    outputs = [args.output] if args.output is not None else net.outputs
    ft = FunctionalTiming(net, engine=args.engine)
    topo = ft.topological_arrivals()
    print(f"{'output':<20} {'topological':>12} {'exact':>12}  note")
    false_count = 0
    for out in outputs:
        true = ft.true_arrival(out)
        note = ""
        if true < topo[out]:
            note = "longest path false"
            false_count += 1
        print(f"{out:<20} {topo[out]:>12g} {true:>12g}  {note}")
    print(
        f"\n{false_count} of {len(outputs)} outputs have a false longest path"
    )
    return 0


def _validate_backend(backend: str | None) -> int:
    """Resolve a ``--backend`` value, printing the canonical unknown-name
    error (the same :class:`~repro.errors.BddError` message every entry
    point raises).  Returns 2 on failure, 0 when valid/absent."""
    if backend is None:
        return 0
    from repro.bdd.api import resolve_backend
    from repro.errors import BddError

    try:
        resolve_backend(backend)
    except BddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_required(args: argparse.Namespace) -> int:
    if args.budget is not None and args.method != "approx2":
        print(
            f"error: --budget only applies to --method approx2 "
            f"(got --method {args.method})",
            file=sys.stderr,
        )
        return 2
    if args.max_nodes is not None and args.method not in ("exact", "approx1"):
        print(
            f"error: --max-nodes only applies to --method exact/approx1 "
            f"(got --method {args.method})",
            file=sys.stderr,
        )
        return 2
    if args.reorder and args.method not in ("exact", "approx1"):
        print(
            f"error: --reorder only applies to --method exact/approx1 "
            f"(got --method {args.method})",
            file=sys.stderr,
        )
        return 2
    if args.backend is not None and args.method not in ("exact", "approx1"):
        print(
            f"error: --backend only applies to --method exact/approx1 "
            f"(got --method {args.method})",
            file=sys.stderr,
        )
        return 2
    if _validate_backend(args.backend):
        return 2
    delays = None
    if args.delay_spec is not None:
        from repro.timing import DelayModel

        with open(args.delay_spec) as fh:
            try:
                delays = DelayModel.from_spec(json.load(fh))
            except (TimingError, ValueError) as exc:
                print(f"error: --delay-spec {args.delay_spec}: {exc}", file=sys.stderr)
                return 2
    from repro.cache import (
        ResultCache,
        analyze_cones,
        cached_analyze_required_times,
        cone_keys,
        default_cache_dir,
        required_map,
    )
    from repro.obs import span

    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    options = {}
    if args.method == "approx2":
        options["engine"] = args.engine
        if args.budget is not None:
            options["time_budget"] = args.budget
    if args.method in ("exact", "approx1") and args.max_nodes is not None:
        options["max_nodes"] = args.max_nodes
    if args.reorder:
        options["reorder"] = True
    if args.backend is not None:
        options["backend"] = args.backend

    if args.trace is not None:
        from repro.obs import start_trace

        start_trace()
    try:
        with span(
            "cli.required", netlist=args.netlist, method=args.method, jobs=args.jobs
        ):
            net = load_network(args.netlist)
            cache = None if cache_dir is None else ResultCache(cache_dir)
            if args.jobs == 1:
                result, hit = cached_analyze_required_times(
                    net, args.method, cache, delays=delays,
                    output_required=args.required, options=options,
                )
            else:
                run = analyze_cones(
                    net, cone_keys(net, args.method, delays, args.required, options),
                    args.method, cache, required_map(net, args.required),
                    delays=delays, options=options, jobs=args.jobs,
                )
    finally:
        if args.trace is not None:
            from repro.obs import stop_trace

            trace = stop_trace()
            trace.save(args.trace)
            print(
                f"trace: {trace.num_spans} spans, "
                f"coverage {trace.coverage():.1%}, written to {args.trace}",
                file=sys.stderr,
            )
    if args.jobs != 1:
        return _print_sharded(args, net, run)
    if args.json:
        row = result.table_row()
        if cache is not None:
            row["cache"] = "hit" if hit else "miss"
        print(json.dumps(row))
        return 0
    print(f"method:      {result.method}")
    print(f"circuit:     {result.circuit}")
    if cache is not None:
        print(f"cache:       {'hit' if hit else 'miss'} ({cache_dir})")
    print(f"non-trivial: {'yes' if result.nontrivial else 'no'}")
    print(f"cpu time:    {result.elapsed:.3f}s" + (" (cached)" if hit else ""))
    if result.time_to_first_nontrivial is not None:
        print(f"first r != r_bot after {result.time_to_first_nontrivial:.3f}s")
    if result.aborted:
        print(f"ABORTED: {result.abort_reason}")
    detail = result.render_detail()
    if detail:
        print(detail)
    return 0


def _print_sharded(args: argparse.Namespace, net: Network, run) -> int:
    """Print ``required --jobs N``: the per-cone results, min-merged.

    The merge is exact for ``topological`` and sound-but-possibly-tighter
    for the approximate methods (a cone cannot see looseness that only
    exists network-wide), so ``--jobs 1`` stays the whole-network default.
    """
    from repro.parallel import merge_required_outcomes

    merged = merge_required_outcomes(list(run.results.values()))
    batch = run.batch
    errors = batch.errors
    if args.json:
        print(
            json.dumps(
                {
                    "circuit": net.name,
                    "method": args.method,
                    "jobs": batch.jobs,
                    "nontrivial": merged["nontrivial_any_cone"],
                    "nontrivial_merged": merged["nontrivial_merged"],
                    "input_times": {
                        x: format_time(t)
                        for x, t in sorted(merged["input_times"].items())
                    },
                    "aborted_cones": merged["aborted_cones"],
                    "task_errors": [o.task_id for o in errors],
                    "run": batch.report(),
                }
            )
        )
        return 0 if not errors else 1
    print(f"method:      {args.method} (sharded per output, jobs={batch.jobs})")
    print(f"circuit:     {net.name}")
    print(f"cones:       {net.num_outputs} ({len(errors)} failed)")
    print(f"non-trivial: {'yes' if merged['nontrivial_any_cone'] else 'no'}")
    print(f"wall time:   {batch.wall:.3f}s")
    if merged["aborted_cones"]:
        print(f"aborted:     {', '.join(merged['aborted_cones'])}")
    print("\nmerged required times at the primary inputs (min over cones):")
    baseline = merged["baseline"]
    for x in sorted(merged["input_times"]):
        t = merged["input_times"][x]
        gain = t - baseline.get(x, t)
        marker = f"  (+{gain:g} vs topological)" if gain > 0 else ""
        print(f"  {x}: {format_time(t)}{marker}")
    for outcome in errors:
        print(f"task {outcome.task_id} FAILED: {outcome.error}", file=sys.stderr)
    for event in batch.events:
        if event.kind in ("timeout", "worker-death", "retry"):
            print(
                f"pool event: {event.kind} {event.task_id} ({event.detail})",
                file=sys.stderr,
            )
    return 0 if not errors else 1


def cmd_slack(args: argparse.Namespace) -> int:
    net = load_network(args.netlist)
    required = args.required
    if required is None:
        required = TopologicalTiming.analyze(net, output_required=0.0).topological_delay()
    reports = true_slacks(net, output_required=required, engine=args.engine)
    print(f"required time at outputs: {required:g}")
    print(f"{'node':<20} {'topo slack':>12} {'true slack':>12} {'recovered':>12}")
    for name in sorted(reports):
        rep = reports[name]
        print(
            f"{name:<20} {rep.topo_slack:>12g} "
            f"{format_time(rep.true_slack):>12} "
            f"{format_time(rep.slack_recovered):>12}"
        )
    return 0


def cmd_paths(args: argparse.Namespace) -> int:
    net = load_network(args.netlist)
    paths = longest_paths(net, max_paths=args.max_paths)
    print(f"{len(paths)} longest path(s), delay {paths[0].delay:g}:" if paths else "no paths")
    shown = paths[: args.limit]
    for path, verdict in zip(shown, classify_paths(net, shown, engine=args.engine)):
        print(f"  [{verdict:>12}] {' -> '.join(path.nodes)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.timing.report import timing_report

    net = load_network(args.netlist)
    report = timing_report(
        net,
        output_required=args.required,
        method=args.method,
        engine=args.engine,
        time_budget=args.budget,
    )
    print(report.render(), end="")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import (
        FAMILIES,
        PROFILES,
        FuzzRunner,
        load_corpus,
        replay_entry,
    )

    if args.replay is not None:
        entries = load_corpus(args.replay)
        if not entries:
            print(f"no corpus entries under {args.replay}")
            return 0
        failures = 0
        for entry in entries:
            result = replay_entry(entry)
            status = "ok" if result.ok else "FAIL " + ",".join(result.failed_checks)
            print(f"{entry.case.case_id:<44} {status}")
            if not result.ok:
                failures += 1
        print(f"\n{len(entries)} corpus entries, {failures} still failing")
        return 1 if failures else 0

    if args.profile not in PROFILES:
        print(
            f"error: unknown profile {args.profile!r} "
            f"(choose from {', '.join(sorted(PROFILES))})",
            file=sys.stderr,
        )
        return 2
    if args.family not in FAMILIES:
        print(
            f"error: unknown fuzz family {args.family!r} "
            f"(choose from {', '.join(FAMILIES)})",
            file=sys.stderr,
        )
        return 2
    runner = FuzzRunner(
        seed=args.seed,
        budget=args.budget,
        profile=args.profile,
        time_budget=args.time_budget,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        stop_on_failure=args.stop_on_failure,
        jobs=args.jobs,
        family=args.family,
        log=None if args.json else lambda v: print(v.render()),
    )
    report = runner.run()
    if args.metrics_json is not None:
        payload = json.dumps(
            {
                "seed": report.seed,
                "profile": report.profile,
                "cases": report.num_cases,
                "failures": report.num_failures,
                "metrics": report.metrics,
            },
            indent=2,
            sort_keys=True,
        )
        if args.metrics_json == "-":
            print(payload)
        else:
            with open(args.metrics_json, "w") as fh:
                fh.write(payload + "\n")
            print(f"metrics written to {args.metrics_json}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"\n{report.summary()}")
    return 0 if report.ok else 1


def cmd_eco(args: argparse.Namespace) -> int:
    from repro.cache import ResultCache, default_cache_dir
    from repro.eco import NetworkSession, edits_from_json

    if args.backend is not None and args.method not in ("exact", "approx1"):
        print(
            f"error: --backend only applies to --method exact/approx1 "
            f"(got --method {args.method})",
            file=sys.stderr,
        )
        return 2
    if _validate_backend(args.backend):
        return 2
    net = load_network(args.netlist)
    with open(args.trace) as fh:
        edits = edits_from_json(json.load(fh))
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    options = {}
    if args.method == "approx2":
        options["engine"] = args.engine
    if args.backend is not None:
        options["backend"] = args.backend
    session = NetworkSession(
        net,
        method=args.method,
        output_required=args.required,
        options=options,
        cache=ResultCache(cache_dir),
        jobs=args.jobs,
    )
    reports = []
    divergences = 0
    for i, edit in enumerate(edits):
        result = session.apply_edit(edit)
        report = result.report()
        report["index"] = i
        if args.verify:
            problems = session.verify_against_full_recompute()
            report["parity"] = "ok" if not problems else "DIVERGED"
            divergences += len(problems)
            for problem in problems:
                print(f"error: edit #{i}: {problem}", file=sys.stderr)
        reports.append(report)
        if not args.json:
            line = (
                f"[{i:3d}] {edit.kind:<17} dirty={len(report['recomputed'])}"
                f" cached={len(report['cache_hits'])}"
                f" clean={len(report['clean'])}"
            )
            if report["added"] or report["removed"]:
                line += (
                    f" outputs+{len(report['added'])}-{len(report['removed'])}"
                )
            if args.verify:
                line += f"  parity={report['parity']}"
            print(line)
    payload = {
        "circuit": session.network.name,
        "method": args.method,
        "edits": reports,
        "rows": session.rows(),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"\n{len(edits)} edits applied; final rows:")
        for name, row in sorted(session.rows().items()):
            print(
                f"  {name}: nontrivial={row['nontrivial']} "
                f"status={row['status']}"
            )
    return 1 if divergences else 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import DiskStore, default_cache_dir

    cache_dir = args.cache_dir or default_cache_dir()
    if not cache_dir:
        print(
            "error: no cache directory "
            "(pass --cache-dir or set REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    store = DiskStore(cache_dir)
    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, sort_keys=True))
            return 0
        print(f"cache dir: {stats['dir']} (schema v{stats['schema']})")
        print(f"entries:   {stats['entries']}")
        print(f"bytes:     {stats['bytes']}")
        if stats["oldest_age_seconds"] is not None:
            print(f"oldest:    {stats['oldest_age_seconds']:.0f}s ago")
            print(f"newest:    {stats['newest_age_seconds']:.0f}s ago")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {cache_dir}")
        return 0
    if args.cache_command == "gc":
        max_age = None
        if args.max_age_days is not None:
            max_age = args.max_age_days * 86400.0
        outcome = store.gc(max_bytes=args.max_bytes, max_age_seconds=max_age)
        if args.json:
            print(json.dumps(outcome, sort_keys=True))
            return 0
        print(
            f"removed {outcome['removed']} entries, "
            f"{outcome['kept_bytes']} bytes kept in {cache_dir}"
        )
        return 0
    raise AssertionError(f"unknown cache command {args.cache_command!r}")


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl, records_to_chrome, render_summary

    with open(args.tracefile) as fh:
        header, roots = read_jsonl(fh.read())
    if args.chrome is not None:
        with open(args.chrome, "w") as fh:
            json.dump(records_to_chrome(header, roots), fh)
        print(f"chrome trace written to {args.chrome} (open in about:tracing)")
        return 0
    print(render_summary(header, roots, max_depth=args.depth, min_frac=args.min_frac))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis daemon in the foreground until SIGINT/SIGTERM.

    Prints ``serving on http://<host>:<port>`` once bound (port 0 picks
    a free port), so wrappers can scrape the address; see docs/SERVING.md
    for the endpoint reference.
    """
    from repro.cache import default_cache_dir
    from repro.serve import ReproServer, ServerConfig

    if _validate_backend(args.backend):
        return 2
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    config = ServerConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=cache_dir,
        max_queue=args.max_queue,
        max_circuits=args.max_circuits,
        max_sessions=args.max_sessions,
        session_idle_seconds=args.session_idle,
        task_timeout=args.task_timeout,
        debug_handlers=args.debug_handlers,
        backend=args.backend,
    )
    server = ReproServer(config)
    for path in args.preload:
        entry = server.registry.register(load_network(path))
        print(f"preloaded {path} as {entry.digest}", file=sys.stderr)

    def on_ready(srv) -> None:
        print(f"serving on http://{srv.host}:{srv.port}", flush=True)

    server.serve_forever(on_ready)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Exact required time analysis via false path detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="netlist size profile")
    p.add_argument("netlist")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("delay", help="topological vs exact arrival times")
    p.add_argument("netlist")
    p.add_argument("--engine", choices=["bdd", "sat"], default="bdd")
    p.add_argument("--output", default=None,
                   help="restrict the analysis to one primary output")
    p.set_defaults(func=cmd_delay)

    p = sub.add_parser("required", help="required times at the primary inputs")
    p.add_argument("netlist")
    p.add_argument(
        "--method",
        choices=["topological", "exact", "approx1", "approx2"],
        default="approx2",
    )
    p.add_argument("--required", type=float, default=0.0,
                   help="required time at every primary output (default 0)")
    p.add_argument("--engine", choices=["bdd", "sat"], default="sat")
    p.add_argument("--delay-spec", default=None, metavar="FILE",
                   help="JSON delay specification (DelayModel.to_spec "
                        "format; [lo, hi] bounds add the row's interval "
                        "block, docs/DELAY_MODELS.md; default: unit delays)")
    p.add_argument("--budget", type=float, default=None,
                   help="time budget in seconds (approx2)")
    p.add_argument("--max-nodes", type=int, default=None,
                   help="BDD node budget (exact/approx1)")
    p.add_argument("--json", action="store_true", help="machine-readable row")
    p.add_argument("--trace", default=None, metavar="OUT",
                   help="record a span trace of the run; .json writes Chrome "
                        "trace_event format, anything else JSONL")
    p.add_argument("--reorder", action="store_true",
                   help="dynamic variable reordering by sifting "
                        "(exact/approx1, the paper's §6 setup)")
    p.add_argument(
        "--backend", default=None, metavar="NAME",
        help="BDD kernel for --method exact/approx1: object or native "
             "(default: $REPRO_BDD_BACKEND, then 'native'; 'native' "
             "falls back to 'object' when no C compiler exists)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard the analysis per output cone onto N worker "
                        "processes (0 = one per core; default 1 = serial "
                        "whole-network analysis)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent result cache directory (default: "
                        "$REPRO_CACHE_DIR if set, else caching is off); "
                        "warm results are bit-identical to cold ones")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache even if REPRO_CACHE_DIR "
                        "is set")
    p.set_defaults(func=cmd_required)

    p = sub.add_parser("slack", help="true vs topological slack per node")
    p.add_argument("netlist")
    p.add_argument("--required", type=float, default=None,
                   help="required time at outputs (default: topological delay)")
    p.add_argument("--engine", choices=["bdd", "sat"], default="bdd")
    p.set_defaults(func=cmd_slack)

    p = sub.add_parser("report", help="consolidated timing datasheet")
    p.add_argument("netlist")
    p.add_argument("--required", type=float, default=0.0)
    p.add_argument(
        "--method",
        choices=["none", "topological", "exact", "approx1", "approx2"],
        default="approx2",
    )
    p.add_argument("--engine", choices=["bdd", "sat"], default="bdd")
    p.add_argument("--budget", type=float, default=30.0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fuzz", help="differential fuzzing of the engines")
    p.add_argument("--seed", default="0",
                   help="base seed of the deterministic case sequence")
    p.add_argument("--budget", type=int, default=25,
                   help="number of cases to generate (default 25)")
    p.add_argument("--profile", default="default",
                   help="generation profile (default/tiny/arith/deep)")
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock cap in seconds (stops early)")
    p.add_argument("--corpus", default=None,
                   help="directory to save shrunk repros into")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip delta-debugging of failures")
    p.add_argument("--stop-on-failure", action="store_true",
                   help="stop at the first failing case")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run cases on N worker processes (0 = one per "
                        "core; default 1 = serial)")
    p.add_argument("--family", default="circuit",
                   help="what each case is: circuit (a static netlist run "
                        "through the differential checks; the default), "
                        "eco (an edit trace replayed incrementally against "
                        "a full-recompute parity oracle), or interval (an "
                        "interval-delay case checked for point-spec "
                        "round trips and widening monotonicity)")
    p.add_argument("--replay", default=None, metavar="DIR",
                   help="replay a saved corpus instead of fuzzing")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--metrics-json", default=None, metavar="OUT",
                   help="write run-level metric deltas (BDD/SAT/engine "
                        "counters) as JSON; '-' prints to stdout")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("eco", help="apply a JSON edit trace incrementally")
    p.add_argument("netlist")
    p.add_argument("trace", help="JSON edit trace ({\"edits\": [...]}, see "
                                 "docs/ECO.md; eco fuzz traces work as-is)")
    p.add_argument(
        "--method",
        choices=["topological", "exact", "approx1", "approx2"],
        default="topological",
    )
    p.add_argument("--required", type=float, default=0.0,
                   help="required time at every primary output (default 0)")
    p.add_argument("--engine", choices=["bdd", "sat"], default="sat",
                   help="validation engine for --method approx2")
    p.add_argument("--backend", default=None, metavar="NAME",
                   help="BDD kernel for --method exact/approx1: object "
                        "or native (default: $REPRO_BDD_BACKEND, then "
                        "'native')")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="recompute dirty cones on N worker processes "
                        "(0 = one per core; default 1 = in-process)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent result cache directory (default: "
                        "$REPRO_CACHE_DIR if set, else memory-only)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore REPRO_CACHE_DIR and keep results in memory")
    p.add_argument("--verify", action="store_true",
                   help="after every edit, check the incremental rows "
                        "against a full recompute (exit 1 on divergence)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable per-edit reports and final rows")
    p.set_defaults(func=cmd_eco)

    p = sub.add_parser("trace", help="summarize a recorded span trace")
    p.add_argument("tracefile", help="JSONL trace from 'required --trace'")
    p.add_argument("--chrome", default=None, metavar="OUT",
                   help="convert to Chrome trace_event JSON instead")
    p.add_argument("--depth", type=int, default=None,
                   help="maximum tree depth to print")
    p.add_argument("--min-frac", type=float, default=0.0,
                   help="hide spans below this fraction of total time")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("cache", help="inspect / maintain the result cache")
    csub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "entry count, bytes, and age of the disk tier"),
        ("clear", "remove every cached entry"),
        ("gc", "expire old entries / shrink to a byte budget"),
    ):
        cp = csub.add_parser(name, help=help_text)
        cp.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache directory (default: $REPRO_CACHE_DIR)")
        if name in ("stats", "gc"):
            cp.add_argument("--json", action="store_true",
                            help="machine-readable output")
        if name == "gc":
            cp.add_argument("--max-bytes", type=int, default=None,
                            help="evict oldest entries beyond this size")
            cp.add_argument("--max-age-days", type=float, default=None,
                            help="expire entries older than this many days")
        cp.set_defaults(func=cmd_cache)

    p = sub.add_parser("paths", help="classify the longest paths")
    p.add_argument("netlist")
    p.add_argument("--engine", choices=["bdd", "sat"], default="bdd")
    p.add_argument("--max-paths", type=int, default=10_000)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("serve", help="run the analysis daemon")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback only)")
    p.add_argument("--port", type=int, default=8787,
                   help="bind port (0 = pick a free port)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker-pool size; 0 runs analyses in-process "
                        "without the fault envelope")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="shared disk tier of the result cache "
                        "(default: $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="memory-only result cache (ignore $REPRO_CACHE_DIR)")
    p.add_argument("--max-queue", type=int, default=32, metavar="N",
                   help="admission queue bound; overflow is a 429 + Retry-After")
    p.add_argument("--max-circuits", type=int, default=64, metavar="N",
                   help="warm circuit registry capacity (LRU)")
    p.add_argument("--max-sessions", type=int, default=32, metavar="N",
                   help="live ECO session capacity")
    p.add_argument("--session-idle", type=float, default=3600.0, metavar="SEC",
                   help="evict sessions idle longer than this")
    p.add_argument("--task-timeout", type=float, default=None, metavar="SEC",
                   help="per-attempt wall budget before kill-and-requeue")
    p.add_argument("--backend", default=None, metavar="NAME",
                   help="default BDD kernel for analyses (object or "
                        "native); a request's own 'backend' option still "
                        "wins")
    p.add_argument("--debug-handlers", action="store_true",
                   help="expose /debug/task and /debug/shutdown "
                        "(fault-injection tests and benchmarks)")
    p.add_argument("--preload", nargs="*", default=[], metavar="NETLIST",
                   help="netlist files to parse into the warm registry at boot")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one check for every subcommand with a worker pool
    if getattr(args, "jobs", 0) < 0:
        print(f"error: --jobs must be >= 0 (got {args.jobs})", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
