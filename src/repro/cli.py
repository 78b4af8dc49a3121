"""Command-line interface: run experiments and trials from a shell.

Entry points (also available as ``python -m repro``):

* ``list`` — show the experiment registry (every Figure-1 cell and
  ablation, with its paper bound and available scales);
* ``run EXP_ID [--scale S] [--seed N] [--parallel [W]]`` — run one
  experiment and print its full report;
* ``run-all [--scale S] [--parallel [W]]`` — run the whole registry in
  order (this is how ``full_scale_results.txt`` and the EXPERIMENTS.md
  numbers are produced);
* ``run-spec SPEC.json [--trials N] [--parallel [W]] [--trace PATH]``
  — execute a declarative :class:`~repro.api.spec.ScenarioSpec` from a
  JSON file (``--trace`` writes a :mod:`repro.obs` JSONL trace);
* ``trace TARGET [--json] [--profile]`` — render a trace file's
  per-engine phase-time table, or run a spec traced and render it;
* ``components [--json]`` — list every registered graph family,
  algorithm, adversary, problem, MAC layer, engine, and experiment id
  a spec may name (``--json`` emits the machine-readable payload that
  ``tools/check_docs.py`` consumes);
* ``campaign run|status|report`` — sharded, resumable grid runs
  (experiments × scales × engines × seeds) with per-shard checkpoints
  in a persistent result store, and the ``docs/results.md`` generator
  (see :mod:`repro.campaign`);
* ``trial`` — one ad-hoc broadcast trial: pick a network family, an
  algorithm, and an adversary by name, and watch the round count;
* ``serve [--port P] [--workers W]`` — start the long-running
  simulation service (:mod:`repro.serve`): an HTTP/JSON API with a
  warm worker pool and spec-hash result caching;
* ``submit DOC.json`` — send a ScenarioSpec/CampaignSpec document to a
  running service, follow its shard events, print the result
  (``--json`` emits the final job payload);
* ``jobs`` — list a running service's jobs and their shard counters;
* ``paper`` — print the reproduced Figure-1 table with experiment ids.

``--parallel`` fans trials out across worker processes (optionally
capped at ``W`` workers) with results identical to serial runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.analysis.tables import render_table

__all__ = ["main", "build_parser", "components_payload"]


#: nargs='?' const for a bare ``--parallel``. A non-string sentinel:
#: argparse would run a string const through ``type=int``.
_ALL_CORES = object()


def _executor_from_args(args: argparse.Namespace):
    """Build the trial executor the ``--parallel`` flag asks for."""
    workers = getattr(args, "parallel", None)
    if workers is None:
        return None
    from repro.api import ParallelExecutor

    if workers is _ALL_CORES:
        return ParallelExecutor(max_workers=None)
    if workers < 1:
        raise SystemExit(f"--parallel expects a positive worker count, got {workers}")
    return ParallelExecutor(max_workers=workers)


def _add_parallel_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel",
        type=int,
        nargs="?",
        const=_ALL_CORES,
        default=None,
        metavar="WORKERS",
        help="fan trials out across processes (default: all cores)",
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    from repro.core.engine import ENGINE_NAMES

    parser.add_argument(
        "--engine",
        choices=list(ENGINE_NAMES),
        default=None,
        help=(
            "round-loop implementation: 'bank' is the trial-batched fast "
            "engine, seed-for-seed identical to 'reference' (auto-falls "
            "back, with a warning, for adaptive adversaries); 'bitset' "
            "is a deprecated alias for 'bank'"
        ),
    )
    parser.add_argument(
        "--skip",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "force event-driven round skipping on (--skip) or off "
            "(--no-skip); default: the engine's own default (on for "
            "bank, off for reference). Trial results are "
            "identical either way"
        ),
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    rows = []
    for exp_id in sorted(ALL_EXPERIMENTS):
        exp = ALL_EXPERIMENTS[exp_id]
        rows.append(
            [
                exp_id,
                exp.figure_cell,
                exp.paper_bound,
                ", ".join(sorted(exp.scales)),
                len(exp.series),
            ]
        )
    print(
        render_table(
            ["id", "figure cell", "paper bound", "scales", "series"],
            rows,
            title="Experiment registry (see DESIGN.md §4 for the index):",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    if args.experiment not in ALL_EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; try: "
            f"{', '.join(sorted(ALL_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    experiment = ALL_EXPERIMENTS[args.experiment]
    started = time.time()
    executor = _executor_from_args(args)
    try:
        result = experiment.run(
            scale=args.scale,
            master_seed=args.seed,
            progress=(
                (lambda label, _: print(f"  … {label}", file=sys.stderr))
                if args.verbose
                else None
            ),
            executor=executor,
            engine=getattr(args, "engine", None),
            skip=getattr(args, "skip", None),
        )
    finally:
        if executor is not None:
            executor.shutdown()
    print(result.render())
    print(f"\n[{time.time() - started:.1f}s at scale={args.scale}, seed={args.seed}]")
    failures = [
        claim for claim, _, holds in result.contrast_outcomes() if not holds
    ]
    return 1 if failures else 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    status = 0
    for exp_id in sorted(ALL_EXPERIMENTS):
        sub = argparse.Namespace(
            experiment=exp_id,
            scale=args.scale,
            seed=args.seed,
            verbose=args.verbose,
            parallel=getattr(args, "parallel", None),
            engine=getattr(args, "engine", None),
            skip=getattr(args, "skip", None),
        )
        print()
        status |= _cmd_run(sub)
    return status


def _print_multi_message_detail(spec, master_seed: int) -> None:
    """Per-message completion rounds for the batch's first trial seed.

    Re-runs trial 0 (executors cannot ship problem observers back from
    worker processes, and one extra deterministic trial is cheaper than
    threading observer state through the pool protocol). A spec whose
    problem is not multi-message has nothing to report — its unused
    ``messages`` section is noted rather than crashing the verb.
    """
    from repro.core.errors import ReproError
    from repro.core.rng import derive_seed
    from repro.mac import multi_message_detail

    try:
        detail = multi_message_detail(spec, derive_seed(master_seed, "trial", 0))
    except ReproError as exc:
        print(f"(no per-message detail: {exc})", file=sys.stderr)
        return
    print(
        render_table(
            ["message", "source", "completed round"],
            detail.rows(),
            title=(
                f"per-message completion (trial 0, seed {detail.seed}, "
                f"total {'—' if not detail.solved else detail.rounds} rounds):"
            ),
        )
    )


def _cmd_run_spec(args: argparse.Namespace) -> int:
    from repro.api import Simulation, load_spec
    from repro.core.errors import ReproError

    try:
        if args.spec == "-":
            from repro.api import ScenarioSpec

            spec = ScenarioSpec.from_json(sys.stdin.read())
        else:
            spec = load_spec(args.spec)
    except (OSError, ReproError) as exc:
        print(f"cannot load spec: {exc}", file=sys.stderr)
        return 2
    simulation = Simulation.from_spec(
        spec,
        engine=getattr(args, "engine", None),
        skip=getattr(args, "skip", None),
    )
    print(f"scenario : {simulation.spec.describe()}")
    print(f"engine   : {simulation.spec.engine}")
    started = time.time()
    executor = _executor_from_args(args)
    trace_path = getattr(args, "trace", None)
    if trace_path is not None:
        from repro.obs.recorder import enable as _obs_enable

        _obs_enable(trace_path)
    try:
        stats = simulation.run(
            trials=args.trials,
            master_seed=args.seed,
            executor=executor,
        )
    except ReproError as exc:
        print(f"cannot run spec: {exc}", file=sys.stderr)
        return 2
    finally:
        if executor is not None:
            executor.shutdown()
        if trace_path is not None:
            from repro.obs.recorder import disable as _obs_disable

            rec = _obs_disable()
            if rec is not None:
                print(
                    f"trace    : {trace_path} ({rec.records_emitted} records) "
                    f"— render with `repro trace {trace_path}`"
                )
    row = stats.summary_row()
    print(
        render_table(
            list(row), [list(row.values())], title="aggregated trials:"
        )
    )
    if simulation.spec.messages is not None:
        # Multi-message workloads report per message too: the problem's
        # acceptance question is when *each* message finished.
        _print_multi_message_detail(simulation.spec, args.seed)
    if args.verbose:
        for result in stats.results:
            status = "solved" if result.solved else "cap hit"
            print(f"  seed={result.seed:>20}  rounds={result.rounds:>8}  {status}")
    print(f"[{time.time() - started:.1f}s, trials={stats.trials}, seed={args.seed}]")
    return 0 if stats.successes == stats.trials else 1


def components_payload() -> dict:
    """Machine-readable registry contents: section name → sorted names.

    The single source of truth for "what exists": the ``repro
    components`` verb renders it (``--json`` emits it verbatim) and
    ``tools/check_docs.py`` consumes it to hold the documentation to
    the live registries — tooling reads this payload instead of
    importing registry modules ad hoc.
    """
    from repro.core.engine import ENGINE_NAMES
    from repro.experiments import ALL_EXPERIMENTS
    from repro.registry import ADVERSARIES, ALGORITHMS, GRAPHS, MACS, PROBLEMS

    payload = {
        registry.plural: registry.names()
        for registry in (GRAPHS, ALGORITHMS, ADVERSARIES, PROBLEMS, MACS)
    }
    # Engines and experiment ids are registries too — the docs catalog
    # (docs/experiments.md) and campaign specs name them, so the CLI
    # must list them for the two to stay checkable against each other.
    payload["engines"] = list(ENGINE_NAMES)
    payload["experiments"] = sorted(ALL_EXPERIMENTS)
    return payload


def _cmd_components(args: argparse.Namespace) -> int:
    import json

    payload = components_payload()
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for section, names in payload.items():
        print(f"{section}:")
        for name in names:
            print(f"  {name}")
    return 0


# The `trial` verb's vocabularies. One table per choice drives *both*
# the argparse choices and the spec mapping, so they cannot diverge:
# values are (description, spec_entry) where a network's spec entry is
# a callable ``n -> ComponentRef-like`` (parameters depend on --n).
def _isqrt_band(n: int) -> int:
    import math

    return max(2, math.isqrt(n // 2))


_NETWORKS = {
    "geographic": (
        "random geographic graph (grey ratio 2)",
        lambda n: ("geographic", {"n": n}),
    ),
    "dual-clique": (
        "two cliques, secret bridge, complete G'",
        lambda n: ("dual-clique", {"half": n // 2}),
    ),
    "bracelet": (
        "Theorem 4.3's band construction",
        lambda n: ("bracelet", {"band_length": _isqrt_band(n)}),
    ),
    "line-of-cliques": (
        "8 cliques of n/8 chained by bridges",
        lambda n: ("line-of-cliques", {"num_cliques": 8, "clique_size": max(2, n // 8)}),
    ),
    "funnel": (
        "source → clique → sink (static)",
        lambda n: ("funnel", {"n": n}),
    ),
}

#: values: (description, spec_entry, problem_kind)
_ALGORITHMS = {
    "permuted-decay": (
        "Section 4.1 global broadcast",
        ("permuted-decay", {}),
        "global",
    ),
    "plain-decay": (
        "classic BGI global broadcast [2]",
        ("plain-decay", {}),
        "global",
    ),
    "round-robin": (
        "footnote-5 O(nD) global broadcast",
        ("round-robin-global", {"random_slots": True}),
        "global",
    ),
    "geo-local": (
        "Section 4.3 local broadcast (B = random quarter)",
        ("geo-local", {}),
        "local",
    ),
    "static-local": (
        "[8]-style local broadcast (B = random quarter)",
        ("static-local-decay", {}),
        "local",
    ),
}

_ADVERSARIES = {
    "none": ("no flaky links (static G)", ("none", {})),
    "all": ("all flaky links (static G')", ("all", {})),
    "ge-fade": (
        "Gilbert–Elliott bursty node fading",
        ("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
    ),
    "online-dense-sparse": (
        "Theorem 3.1's online adaptive attacker",
        ("online-dense-sparse", {"side": "A"}),
    ),
    "offline-solo-blocker": (
        "[11]'s offline adaptive attacker",
        ("offline-solo-blocker", {"side": "A"}),
    ),
}


def _trial_spec(args: argparse.Namespace):
    """Assemble the ad-hoc trial as a declarative ScenarioSpec."""
    from repro.api import ScenarioSpec

    _, graph = _NETWORKS[args.network]
    _, algorithm, problem_kind = _ALGORITHMS[args.algorithm]
    _, adversary = _ADVERSARIES[args.adversary]
    if problem_kind == "global":
        problem = ("global-broadcast", {"source": 0})
    else:
        problem = ("local-broadcast", {"fraction": 0.25})
    return ScenarioSpec(
        graph=graph(args.n),
        problem=problem,
        algorithm=algorithm,
        adversary=adversary,
        max_rounds=args.max_rounds,
        engine=getattr(args, "engine", None) or "reference",
        skip=getattr(args, "skip", None),
    )


def _cmd_trial(args: argparse.Namespace) -> int:
    from repro.analysis import run_prepared_trial
    from repro.core.errors import ReproError

    try:
        spec = _trial_spec(args)
        trial = spec.build(args.seed)
    except ReproError as exc:
        print(f"cannot build trial: {exc}", file=sys.stderr)
        return 2
    print(f"network  : {trial.network.summary()}")
    print(f"algorithm: {trial.algorithm.name}")
    print(f"adversary: {trial.link_process.describe()}")
    result = run_prepared_trial(trial, args.seed)
    print(f"solved   : {result.solved}")
    print(f"rounds   : {result.rounds}")
    return 0 if result.solved else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: render a trace, or run a spec traced and render.

    ``TARGET`` is either a JSONL trace file (written by ``--trace`` on
    ``run-spec``/``campaign run``) or a ScenarioSpec JSON file — a spec
    is recognized by its ``graph`` section and is run traced first
    (``--trials``/``--seed``/``--engine`` apply; ``--out`` keeps the
    trace file). Either way the result is the per-engine, per-phase
    wall-time table; ``--json`` emits the summary document instead, and
    ``--profile`` (spec targets only) adds a cProfile hot-spot listing.
    """
    import json

    from repro.obs import read_trace, render_phase_table, summarize

    document: object = None
    try:
        with open(args.target, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"cannot read {args.target}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError:
        document = None  # multi-line JSONL (or garbage read_trace rejects)

    if isinstance(document, dict) and "graph" in document:
        return _trace_spec_run(args)
    if args.profile:
        print(
            "--profile re-runs a spec under cProfile; give a ScenarioSpec "
            "JSON file as the target, not a trace",
            file=sys.stderr,
        )
        return 2
    try:
        records = read_trace(args.target)
    except ValueError as exc:
        print(f"not a trace file: {exc}", file=sys.stderr)
        return 2
    summary = summarize(records)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(render_phase_table(summary, title=f"phase breakdown ({args.target}):"))
    return 0


def _trace_spec_run(args: argparse.Namespace) -> int:
    """Run a ScenarioSpec traced, then render its phase table."""
    import json
    import os
    import tempfile

    from repro.api import Simulation, load_spec
    from repro.core.errors import ReproError
    from repro.obs import profile_text, profiled, read_trace, render_phase_table, summarize
    from repro.obs.recorder import disable as _obs_disable
    from repro.obs.recorder import enable as _obs_enable

    try:
        spec = load_spec(args.target)
    except (OSError, ReproError) as exc:
        print(f"cannot load spec: {exc}", file=sys.stderr)
        return 2
    simulation = Simulation.from_spec(
        spec,
        engine=getattr(args, "engine", None),
        skip=getattr(args, "skip", None),
    )
    trace_path = args.out
    cleanup = False
    if trace_path is None:
        fd, trace_path = tempfile.mkstemp(prefix="repro-trace-", suffix=".jsonl")
        os.close(fd)
        cleanup = True
    profiler = None
    _obs_enable(trace_path)
    try:
        if args.profile:
            with profiled() as profiler:
                simulation.run(trials=args.trials, master_seed=args.seed)
        else:
            simulation.run(trials=args.trials, master_seed=args.seed)
    except ReproError as exc:
        print(f"cannot run spec: {exc}", file=sys.stderr)
        return 2
    finally:
        _obs_disable()
    try:
        summary = summarize(read_trace(trace_path))
    finally:
        if cleanup:
            os.unlink(trace_path)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        title = f"phase breakdown ({spec.describe()}, trials={args.trials}):"
        print(render_phase_table(summary, title=title))
        if not cleanup:
            print(f"trace    : {trace_path}")
    if profiler is not None:
        print()
        print(profile_text(profiler, limit=args.profile_limit))
    return 0


#: Default directory for campaign checkpoints (kept out of git).
_DEFAULT_STORE = "campaigns/store"


def _campaign_spec_from_args(args: argparse.Namespace):
    """Resolve the campaign grid: a spec file, or flags, or defaults.

    With ``--spec`` the file is authoritative (mixing it with grid
    flags is rejected — half-overridden grids silently change shard
    ids and break resume). Without it, flags assemble a spec named
    ``--name`` (default ``"default"``, so two bare ``repro campaign
    run`` invocations share checkpoints and resume each other).
    """
    from repro.campaign import CampaignSpec, load_campaign
    from repro.core.errors import ReproError

    grid_flags = [
        ("experiments", list(args.experiments or [])),
        ("--scale", args.scale or []),
        ("--engine", args.engine or []),
        ("--seed", args.seed or []),
    ]
    if args.spec is not None:
        used = [name for name, values in grid_flags if values]
        if used or args.name is not None:
            conflicting = used + (["--name"] if args.name is not None else [])
            raise SystemExit(
                f"--spec is authoritative; drop {', '.join(conflicting)}"
            )
        try:
            campaign = load_campaign(args.spec)
        except (OSError, ReproError) as exc:
            raise SystemExit(f"cannot load campaign spec: {exc}")
        if getattr(args, "skip", None) is not None:
            # Unlike grid flags, --skip cannot change shard ids or
            # results, so overriding a spec file is resume-safe.
            import dataclasses

            campaign = dataclasses.replace(campaign, skip=args.skip)
        return campaign
    if args.experiments:
        experiments = list(args.experiments)
    else:
        from repro.experiments import ALL_EXPERIMENTS

        experiments = sorted(ALL_EXPERIMENTS)
    try:
        return CampaignSpec(
            name=args.name or "default",
            experiments=tuple(experiments),
            scales=tuple(args.scale or ["tiny"]),
            engines=tuple(args.engine or ["reference"]),
            seeds=tuple(args.seed or [2013]),
            skip=getattr(args, "skip", None),
        )
    except ReproError as exc:
        raise SystemExit(f"invalid campaign grid: {exc}")


def _campaign_store(args: argparse.Namespace):
    from repro.campaign import ResultStore

    return ResultStore(args.store)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner
    from repro.core.errors import ReproError

    spec = _campaign_spec_from_args(args)
    store = _campaign_store(args)
    started = time.time()

    def progress(shard, status, seconds):
        if status == "start":
            print(f"  …       {shard.shard_id}", file=sys.stderr)
        elif status == "resumed":
            print(f"  resumed {shard.shard_id}")
        else:
            print(f"  done    {shard.shard_id}  [{seconds:.2f}s]")

    runner = CampaignRunner(
        spec, store, executor=_executor_from_args(args), progress=progress
    )
    print(spec.describe())
    print(f"store    : {store.shard_path(spec.name)}")
    trace_path = getattr(args, "trace", None)
    if trace_path is not None:
        from repro.obs.recorder import enable as _obs_enable

        _obs_enable(trace_path)
    try:
        outcomes = runner.run(resume=not args.fresh)
    except ReproError as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if runner.executor is not None:
            runner.executor.shutdown()
        if trace_path is not None:
            from repro.obs.recorder import disable as _obs_disable

            rec = _obs_disable()
            if rec is not None:
                print(
                    f"trace    : {trace_path} ({rec.records_emitted} records) "
                    f"— render with `repro trace {trace_path}`"
                )
    ran = sum(1 for o in outcomes if o.ran)
    resumed = len(outcomes) - ran
    print(
        f"campaign {spec.name!r} complete: {ran} shards run, "
        f"{resumed} resumed from checkpoints "
        f"[{time.time() - started:.1f}s]"
    )
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner
    from repro.core.errors import ReproError

    spec = _campaign_spec_from_args(args)
    store = _campaign_store(args)
    try:
        status = CampaignRunner(spec, store).status()
    except ReproError as exc:
        print(f"invalid campaign: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        import json

        print(json.dumps(status.to_payload(), indent=2, sort_keys=True))
        return 0 if status.finished else 1
    done_ids = {shard.shard_id for shard in status.completed}
    rows = [
        [shard.experiment, shard.scale, shard.engine, shard.master_seed,
         "done" if shard.shard_id in done_ids else "pending"]
        for shard in spec.shards()
    ]
    print(
        render_table(
            ["experiment", "scale", "engine", "seed", "state"],
            rows,
            title=status.summary() + ":",
        )
    )
    return 0 if status.finished else 1


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import is_stale, render_results_markdown, write_report

    store = _campaign_store(args)
    text = render_results_markdown(store)
    if args.check:
        target = args.out or "docs/results.md"
        try:
            with open(target, encoding="utf-8") as handle:
                existing: Optional[str] = handle.read()
        except OSError:
            existing = None
        if is_stale(existing, text):
            print(
                f"{target} is stale — regenerate with "
                f"`repro campaign report --store {args.store} --out {target}`",
                file=sys.stderr,
            )
            return 1
        print(f"{target} is up to date with the store")
        return 0
    if args.out:
        write_report(store, args.out)
        print(f"wrote {args.out}")
        return 0
    print(text, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore
    from repro.serve import ReproServer

    store = ResultStore(args.store)
    server = ReproServer(
        store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=not args.verbose,
    )
    print(f"repro-serve listening on {server.url}")
    print(f"store    : {store.root}")
    print(f"workers  : {args.workers} (spawn, warm)")
    print("endpoints: POST /v1/runs · GET /v1/runs[/<id>[/events]] · "
          "GET /v1/components · GET /v1/results · GET /v1/health · "
          "GET /v1/metrics")
    server.serve_forever()
    return 0


def _load_submission(args: argparse.Namespace) -> object:
    import json

    if args.document == "-":
        raw = sys.stdin.read()
    else:
        with open(args.document, encoding="utf-8") as handle:
            raw = handle.read()
    document = json.loads(raw)
    # --seed / --trials wrap a bare spec document the same way the
    # explicit {"scenario": ...} envelope would.
    if (args.seed is not None or args.trials is not None) and isinstance(
        document, dict
    ):
        if "graph" in document:
            document = {"scenario": document}
        if "scenario" in document:
            if args.seed is not None:
                document["seed"] = args.seed
            if args.trials is not None:
                document["trials"] = args.trials
        else:
            raise SystemExit(
                "--seed/--trials apply to ScenarioSpec submissions only "
                "(campaign grids carry their own seed bank)"
            )
    return document


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import ReproError
    from repro.serve import SimulationClient

    client = SimulationClient(args.url)
    try:
        document = _load_submission(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load submission: {exc}", file=sys.stderr)
        return 2
    try:
        submitted = client.submit(document)
        job_id = submitted["id"]
        if args.no_wait:
            payload = submitted
        else:
            for event in client.events(job_id):
                if args.verbose and event.get("event") == "shard":
                    print(
                        f"  {event['status']:<8} {event.get('shard', '')}",
                        file=sys.stderr,
                    )
            payload = client.job(job_id)
    except ReproError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        shards = payload["shards"]
        print(f"job      : {payload['id']} [{payload['state']}]")
        print(f"spec     : {payload['description']}")
        print(
            f"shards   : {shards['completed']}/{shards['total']} done "
            f"({shards['executed']} executed, {shards['cached']} cached)"
        )
        if payload.get("result"):
            result = payload["result"]
            print(
                f"result   : {result['successes']}/{result['trials']} solved, "
                f"median {result['median_rounds']} rounds"
            )
    return 0 if payload["state"] in ("done", "queued", "running") else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.core.errors import ReproError
    from repro.serve import SimulationClient

    client = SimulationClient(args.url)
    try:
        jobs = client.jobs()
    except ReproError as exc:
        print(f"cannot list jobs: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"jobs": jobs}, indent=2, sort_keys=True))
        return 0
    rows = [
        [
            job["id"],
            job["kind"],
            job["state"],
            f"{job['shards']['completed']}/{job['shards']['total']}",
            job["shards"]["executed"],
            job["shards"]["cached"],
            job["spec_hash"][:12],
        ]
        for job in jobs
    ]
    print(
        render_table(
            ["job", "kind", "state", "shards", "executed", "cached", "spec hash"],
            rows,
            title=f"jobs at {args.url}:",
        )
    )
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    rows = [
        ["DG + offline adaptive", "Ω(n) [11] / O(n log² n) [12]", "Ω(n) [11] / O(n log n) [8]", "E3 / E4"],
        ["DG + online adaptive", "Ω(n / log n)  (Thm 3.1)", "Ω(n / log n)  (Thm 3.1)", "E5 / E6"],
        ["DG + oblivious", "O(D log n + log² n)  (Thm 4.1)",
         "general: Ω(√n/log n) (Thm 4.3); geographic: O(log² n log Δ) (Thm 4.6)",
         "E7a,E7b / E8, E9"],
        ["no dynamic links", "Θ(D log(n/D) + log² n)", "Θ(log n log Δ)", "E1a,E1b / E2a,E2b"],
    ]
    print(
        render_table(
            ["model", "global broadcast", "local broadcast", "experiments"],
            rows,
            title="Figure 1 of Ghaffari, Lynch, Newport (PODC 2013), with experiment ids:",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dual-graph radio broadcast reproduction (PODC 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the experiment registry").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("paper", help="print the reproduced Figure-1 table").set_defaults(
        func=_cmd_paper
    )
    components = sub.add_parser(
        "components", help="list registered ScenarioSpec components"
    )
    components.add_argument(
        "--json",
        action="store_true",
        help="emit the registry contents as JSON for tooling",
    )
    components.set_defaults(func=_cmd_components)

    run = sub.add_parser("run", help="run one experiment and print its report")
    run.add_argument("experiment", help="experiment id, e.g. E5, A1, or M1")
    run.add_argument("--scale", default="small", choices=["tiny", "small", "full"])
    run.add_argument("--seed", type=int, default=2013)
    run.add_argument("--verbose", action="store_true")
    _add_parallel_flag(run)
    _add_engine_flag(run)
    run.set_defaults(func=_cmd_run)

    run_all = sub.add_parser("run-all", help="run the whole registry")
    run_all.add_argument("--scale", default="small", choices=["tiny", "small", "full"])
    run_all.add_argument("--seed", type=int, default=2013)
    run_all.add_argument("--verbose", action="store_true")
    _add_parallel_flag(run_all)
    _add_engine_flag(run_all)
    run_all.set_defaults(func=_cmd_run_all)

    run_spec = sub.add_parser(
        "run-spec", help="run trials of a ScenarioSpec JSON file"
    )
    run_spec.add_argument("spec", help="path to a spec JSON file ('-' for stdin)")
    run_spec.add_argument("--trials", type=int, default=1)
    run_spec.add_argument("--seed", type=int, default=2013)
    run_spec.add_argument("--verbose", action="store_true")
    run_spec.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL phase/counter trace (render with `repro trace PATH`)",
    )
    _add_parallel_flag(run_spec)
    _add_engine_flag(run_spec)
    run_spec.set_defaults(func=_cmd_run_spec)

    trace = sub.add_parser(
        "trace",
        help="render a JSONL trace's phase-time table (or run a spec traced)",
    )
    trace.add_argument(
        "target",
        help="a JSONL trace file, or a ScenarioSpec JSON file to run traced",
    )
    trace.add_argument(
        "--trials", type=int, default=1, help="trials when the target is a spec"
    )
    trace.add_argument(
        "--seed", type=int, default=2013, help="master seed when the target is a spec"
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="keep the trace JSONL here when the target is a spec",
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the summary document as JSON"
    )
    trace.add_argument(
        "--profile",
        action="store_true",
        help="re-run a spec target under cProfile and print the hot spots",
    )
    trace.add_argument(
        "--profile-limit", type=int, default=20, help="profile rows to print"
    )
    _add_engine_flag(trace)
    trace.set_defaults(func=_cmd_trace)

    campaign = sub.add_parser(
        "campaign",
        help="sharded, resumable grid runs with a persistent result store",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "experiments",
            nargs="*",
            help="experiment ids (default: every registered experiment)",
        )
        p.add_argument("--spec", default=None, help="campaign spec JSON file")
        p.add_argument("--name", default=None, help="campaign name (default: 'default')")
        p.add_argument(
            "--scale",
            action="append",
            choices=["tiny", "small", "full"],
            help="scale tier(s); repeatable (default: tiny)",
        )
        from repro.core.engine import ENGINE_NAMES

        p.add_argument(
            "--engine",
            action="append",
            choices=list(ENGINE_NAMES),
            help="engine(s); repeatable (default: reference)",
        )
        p.add_argument(
            "--seed",
            action="append",
            type=int,
            help="master seed(s) of the seed bank; repeatable (default: 2013)",
        )
        p.add_argument(
            "--skip",
            action=argparse.BooleanOptionalAction,
            default=None,
            help=(
                "force round skipping on/off for every shard (not a grid "
                "axis: results and shard ids are skip-independent, so it "
                "combines with --spec)"
            ),
        )
        p.add_argument(
            "--store",
            default=_DEFAULT_STORE,
            help=f"result store directory (default: {_DEFAULT_STORE})",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="run pending shards, checkpointing each one"
    )
    _add_grid_args(campaign_run)
    campaign_run.add_argument(
        "--fresh",
        action="store_true",
        help="discard this campaign's checkpoints and re-run every shard",
    )
    campaign_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL phase/counter trace (render with `repro trace PATH`)",
    )
    _add_parallel_flag(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_status = campaign_sub.add_parser(
        "status", help="show done/pending shards (exit 1 while pending)"
    )
    _add_grid_args(campaign_status)
    campaign_status.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable status (shards with spec hashes)",
    )
    campaign_status.set_defaults(func=_cmd_campaign_status)

    campaign_report = campaign_sub.add_parser(
        "report", help="render the store as Markdown (docs/results.md)"
    )
    campaign_report.add_argument(
        "--store",
        default=_DEFAULT_STORE,
        help=f"result store directory (default: {_DEFAULT_STORE})",
    )
    campaign_report.add_argument(
        "--out", default=None, help="write to this file instead of stdout"
    )
    campaign_report.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if --out (default docs/results.md) is stale "
        "(runtimes are ignored)",
    )
    campaign_report.set_defaults(func=_cmd_campaign_report)

    from repro.serve.server import DEFAULT_PORT

    serve = sub.add_parser(
        "serve", help="start the long-running simulation service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT)
    serve.add_argument(
        "--workers", type=int, default=2, help="warm worker processes (default: 2)"
    )
    serve.add_argument(
        "--store",
        default=_DEFAULT_STORE,
        help=f"result store directory (default: {_DEFAULT_STORE})",
    )
    serve.add_argument("--verbose", action="store_true", help="log requests")
    serve.set_defaults(func=_cmd_serve)

    default_url = f"http://127.0.0.1:{DEFAULT_PORT}"
    submit = sub.add_parser(
        "submit", help="submit a spec document to a running service"
    )
    submit.add_argument(
        "document", help="spec/campaign JSON document ('-' for stdin)"
    )
    submit.add_argument("--url", default=default_url)
    submit.add_argument(
        "--seed", type=int, default=None, help="master seed (ScenarioSpec runs)"
    )
    submit.add_argument(
        "--trials", type=int, default=None, help="trial count (ScenarioSpec runs)"
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the submission receipt instead of following events",
    )
    submit.add_argument(
        "--json", action="store_true", help="emit the job payload as JSON"
    )
    submit.add_argument(
        "--verbose", action="store_true", help="print shard events while waiting"
    )
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser("jobs", help="list a running service's jobs")
    jobs.add_argument("--url", default=default_url)
    jobs.add_argument(
        "--json", action="store_true", help="emit the job list as JSON"
    )
    jobs.set_defaults(func=_cmd_jobs)

    trial = sub.add_parser("trial", help="one ad-hoc broadcast trial")
    trial.add_argument("--network", default="geographic", choices=sorted(_NETWORKS))
    trial.add_argument("--algorithm", default="permuted-decay", choices=sorted(_ALGORITHMS))
    trial.add_argument("--adversary", default="ge-fade", choices=sorted(_ADVERSARIES))
    trial.add_argument("--n", type=int, default=128)
    trial.add_argument("--seed", type=int, default=2013)
    trial.add_argument("--max-rounds", type=int, default=None)
    _add_engine_flag(trial)
    trial.set_defaults(func=_cmd_trial)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
