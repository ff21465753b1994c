"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``
    Run paper-reproduction experiment drivers by name (or ``all``)
    and print their tables.
``solve``
    Solve a generated problem with any solver from the unified
    registry (``--solver list`` shows the catalog).
``solve-mqo``
    Generate a random MQO instance and solve it on the chosen path.
``solve-join``
    Generate a query graph and solve the join ordering problem.
``optimize``
    Serve a single optimization request (from a JSON file or generator
    parameters) through the deadline-aware service.
``sql``
    The SQL front door: parse, explain or optimize a SQL join query
    against the TPC-H-style catalog, or generate a seeded workload.
``replay``
    Stream a Zipfian-duplicated request workload (lazily generated,
    10^3–10^6 requests) through one or both scheduler backends at a
    configurable arrival rate, validate every served plan, and report
    cache/coalescing hit rates, rejections, deadline misses, invalid
    plans, and tail latency.
``serve``
    Run the HTTP gateway over a scheduler backend: ``POST /optimize``,
    ``POST /sql``, ``GET /stats``, ``GET /healthz``; graceful drain on
    SIGINT/SIGTERM.  ``--smoke`` runs a self-test and exits.
``verify``
    Run the cross-solver differential verification sweep: every
    registry solver plus the service fallback chain against exact
    oracles, with the encoding-invariant catalog.  ``--inject BUG``
    plants one known bug; ``--inject all`` proves each is caught.
``info``
    Show the package's system inventory and reproduction targets.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro import __version__
from repro.exceptions import ConfigurationError, SolverError


def _experiment_registry() -> Dict[str, Callable]:
    from repro.experiments.coherence_thresholds import run_coherence_thresholds
    from repro.experiments.jo_depths import run_figure13_qaoa, run_figure13_vqe
    from repro.experiments.jo_embedding import run_figure14_left, run_figure14_right
    from repro.experiments.jo_direct import run_direct_vs_two_step
    from repro.experiments.jo_qubits import run_figure11, run_figure12
    from repro.experiments.jo_table4 import run_table4
    from repro.experiments.hybrid_scaling import run_hybrid_scaling
    from repro.experiments.mqo_annealer import run_mqo_annealer_capacity
    from repro.experiments.mqo_depths import run_figure8, run_figure9
    from repro.experiments.noise_study import run_noise_study
    from repro.experiments.penalty_gap import run_penalty_gap_study
    from repro.experiments.fleet_scaling import run_fleet_scaling
    from repro.experiments.quality import run_join_order_quality, run_mqo_quality
    from repro.experiments.replay import run_replay_experiment
    from repro.experiments.routed_vs_static import run_routed_vs_static
    from repro.experiments.sql_workload import run_sql_workload
    from repro.experiments.tables import run_table_3, run_tables_1_2

    return {
        "tables12": run_tables_1_2,
        "table3": run_table_3,
        "table4": run_table4,
        "fig8": run_figure8,
        "fig9": run_figure9,
        "fig11": run_figure11,
        "fig12": run_figure12,
        "fig13-qaoa": run_figure13_qaoa,
        "fig13-vqe": run_figure13_vqe,
        "fig14-left": run_figure14_left,
        "fig14-right": run_figure14_right,
        "coherence": run_coherence_thresholds,
        "quality-mqo": run_mqo_quality,
        "quality-join": run_join_order_quality,
        "mqo-annealer": run_mqo_annealer_capacity,
        "noise": run_noise_study,
        "jo-direct": run_direct_vs_two_step,
        "penalty-gap": run_penalty_gap_study,
        "hybrid-scaling": run_hybrid_scaling,
        "sql-workload": run_sql_workload,
        "routed-vs-static": run_routed_vs_static,
        "replay": run_replay_experiment,
        "fleet-scaling": run_fleet_scaling,
    }


def _cmd_experiments(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.name == "list":
        for name in registry:
            print(name)
        return 0
    names = list(registry) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(registry)}", file=sys.stderr)
        return 2
    kwargs = {
        "workers": args.workers,
        "cache": not args.no_cache,
        "cache_dir": args.cache_dir,
    }
    if args.seed is not None:
        kwargs["seed"] = args.seed
    for name in names:
        table = registry[name](**kwargs)
        print(table.format())
        print()
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.exceptions import SolverError
    from repro.hybrid import make_solver, solver_catalog
    from repro.mqo import random_mqo_problem
    from repro.mqo.solvers import solve_with_solver

    if args.solver == "list":
        for row in solver_catalog():
            limit = row["max_variables"]
            print(
                f"{row['name']:12} "
                f"max_variables={limit if limit is not None else '-':<4} "
                f"[{row['capabilities']}]"
            )
        return 0

    options = {}
    if args.solver == "hybrid" and args.sub_size is not None:
        options["sub_size"] = args.sub_size
    try:
        solver = make_solver(args.solver, **options)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problem = random_mqo_problem(args.queries, args.ppq, seed=args.seed)
    print(
        f"instance: mqo, {problem.num_queries} queries x {args.ppq} plans "
        f"({problem.num_plans} QUBO variables, {len(problem.savings)} savings)"
    )
    try:
        solution = solve_with_solver(problem, solver, seed=args.seed)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{solution.method}: plans {solution.selected_plans} "
        f"cost {solution.cost:g} valid={solution.valid}"
    )
    return 0


def _cmd_solve_mqo(args: argparse.Namespace) -> int:
    from repro.mqo import (
        random_mqo_problem,
        solve_exhaustive,
        solve_genetic,
        solve_greedy_local,
        solve_with_annealer,
        solve_with_minimum_eigen,
    )
    from repro.variational import QAOA, Cobyla

    problem = random_mqo_problem(args.queries, args.ppq, seed=args.seed)
    print(
        f"instance: {problem.num_queries} queries x {args.ppq} plans "
        f"({problem.num_plans} total, {len(problem.savings)} savings)"
    )
    if args.solver == "greedy":
        solution = solve_greedy_local(problem)
    elif args.solver == "exhaustive":
        solution = solve_exhaustive(problem)
    elif args.solver == "genetic":
        solution = solve_genetic(problem, seed=args.seed)
    elif args.solver == "annealing":
        solution = solve_with_annealer(problem, seed=args.seed)
    else:  # qaoa
        solution = solve_with_minimum_eigen(
            problem, QAOA(optimizer=Cobyla(maxiter=150), seed=args.seed)
        )
    print(f"{args.solver}: plans {solution.selected_plans} cost {solution.cost:g}")
    return 0


def _cmd_solve_join(args: argparse.Namespace) -> int:
    from repro.joinorder import (
        JoinOrderQuantumPipeline,
        chain_query,
        clique_query,
        cycle_query,
        solve_dp_left_deep,
        solve_genetic,
        solve_greedy,
        star_query,
    )
    from repro.joinorder.direct_qubo import (
        DirectJoinOrderQubo,
        solve_direct_with_annealer,
    )
    from repro.joinorder.ikkbz import solve_ikkbz

    makers = {
        "chain": chain_query,
        "star": star_query,
        "cycle": cycle_query,
        "clique": clique_query,
    }
    graph = makers[args.shape](args.relations, seed=args.seed)
    print(
        f"query: {args.shape} over {graph.num_relations} relations "
        f"({graph.num_predicates} predicates)"
    )
    if args.solver == "dp":
        result = solve_dp_left_deep(graph)
    elif args.solver == "ikkbz":
        result = solve_ikkbz(graph)
    elif args.solver == "greedy":
        result = solve_greedy(graph)
    elif args.solver == "genetic":
        result = solve_genetic(graph, seed=args.seed)
    elif args.solver == "qubo-annealing":
        pipeline = JoinOrderQuantumPipeline(graph, precision_exponent=0)
        report = pipeline.report()
        print(
            f"two-step encoding: {report.num_qubits} qubits, "
            f"{report.num_quadratic_terms} quadratic terms"
        )
        result = pipeline.solve_with_annealer(num_reads=args.reads, seed=args.seed)
    else:  # direct-qubo
        builder = DirectJoinOrderQubo(graph)
        print(f"direct encoding: {builder.num_qubits} qubits")
        result = solve_direct_with_annealer(
            builder, num_reads=args.reads, seed=args.seed
        )
    print(f"{args.solver}: {' >> '.join(result.order)}  C_out = {result.cost:,.0f}")
    return 0


def _print_service_stats(stats: Dict) -> None:
    counters = stats.get("counters", {})
    histograms = stats.get("histograms", {})
    cache = stats.get("cache", {})
    total = counters.get("requests_total", 0)
    ok = counters.get("requests_ok", 0)
    rejected = counters.get("requests_rejected", 0)
    print("--- service metrics ---")
    print(f"requests: {total} total, {ok} ok, {rejected} rejected")
    latency = histograms.get("latency_ms", {})
    if latency.get("count"):
        print(
            f"latency ms: p50 {latency['p50']:.1f} p95 {latency['p95']:.1f} "
            f"max {latency['max']:.1f} (mean {latency['mean']:.1f})"
        )
    stages = {
        name.split(".", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("served_by.")
    }
    if stages:
        print(
            "served by: "
            + " ".join(f"{stage}={count}" for stage, count in sorted(stages.items()))
        )
    print(f"deadline exceeded: {counters.get('deadline_exceeded', 0)}")
    result_hits = counters.get("cache.result_hits", 0)
    result_lookups = result_hits + counters.get("cache.result_misses", 0)
    hit_pct = 100.0 * result_hits / result_lookups if result_lookups else 0.0
    print(
        f"cache: result hits {result_hits}/{result_lookups} ({hit_pct:.1f}%), "
        f"compile hits {cache.get('compiled', {}).get('hits', 0)}"
    )
    routing = stats.get("routing")
    if routing and routing.get("enabled"):
        regret = routing.get("regret_ms", {})
        regret_p50 = f"{regret['p50']:.1f}" if regret.get("count") else "-"
        print(
            f"routing: {routing.get('requests', 0)} routed, "
            f"miss rate {100.0 * routing.get('deadline_miss_rate', 0.0):.1f}%, "
            f"fallthrough {routing.get('fallthrough', 0)}, "
            f"regret p50 {regret_p50} ms"
        )
    scheduler = stats.get("scheduler")
    if scheduler:
        coalesce = scheduler.get("coalesce", {})
        print(
            f"scheduler: backend={scheduler.get('backend')} "
            f"workers={scheduler.get('workers')} "
            f"coalesced {coalesce.get('hits', 0)}/"
            f"{coalesce.get('hits', 0) + coalesce.get('misses', 0)} "
            f"({100.0 * coalesce.get('hit_rate', 0.0):.1f}%)"
        )


def _format_plan(result) -> str:
    if result.kind == "mqo":
        return f"plans {result.plan.get('selected_plans')}"
    return " >> ".join(result.plan.get("order", ())) or "(no order)"


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro import serialization
    from repro.exceptions import ProblemError
    from repro.joinorder import chain_query, clique_query, cycle_query, star_query
    from repro.joinorder.query_graph import QueryGraph
    from repro.mqo import random_mqo_problem
    from repro.mqo.problem import MqoProblem
    from repro.service import OptimizationRequest, OptimizationService, parse_policy

    policy = parse_policy(args.policy) if args.policy else None
    mode = args.mode.replace("-", "_")

    if args.input is not None:
        payload = serialization.load(args.input)
        if isinstance(payload, OptimizationRequest):
            request = payload
        elif isinstance(payload, MqoProblem):
            request = OptimizationRequest(
                request_id="cli", kind="mqo", problem=payload,
                deadline_ms=args.deadline_ms, seed=args.seed, policy=policy, mode=mode,
            )
        elif isinstance(payload, QueryGraph):
            request = OptimizationRequest(
                request_id="cli", kind="join_order", problem=payload,
                deadline_ms=args.deadline_ms, seed=args.seed, policy=policy, mode=mode,
            )
        else:
            from repro.sql import SqlQuery

            if isinstance(payload, SqlQuery):
                request = OptimizationRequest(
                    request_id="cli", kind="sql", problem=payload,
                    deadline_ms=args.deadline_ms, seed=args.seed,
                    policy=policy, mode=mode,
                )
            else:
                print(
                    f"error: {args.input} holds a {type(payload).__name__}, "
                    "expected a request, MQO problem, query graph or SQL query",
                    file=sys.stderr,
                )
                return 2
    elif args.problem == "mqo":
        problem = random_mqo_problem(args.queries, args.ppq, seed=args.seed)
        request = OptimizationRequest(
            request_id="cli", kind="mqo", problem=problem,
            deadline_ms=args.deadline_ms, seed=args.seed, policy=policy, mode=mode,
        )
    else:
        makers = {
            "chain": chain_query, "star": star_query,
            "cycle": cycle_query, "clique": clique_query,
        }
        graph = makers[args.shape](args.relations, seed=args.seed)
        request = OptimizationRequest(
            request_id="cli", kind="join_order", problem=graph,
            deadline_ms=args.deadline_ms, seed=args.seed, policy=policy, mode=mode,
        )

    routing = None
    if args.route:
        from repro.routing import RoutingPolicy

        routing = RoutingPolicy(candidates=policy)
    service = OptimizationService(
        seed=args.seed if args.seed is not None else 0, routing=routing
    )
    try:
        result = service.optimize(request)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{result.request_id}: kind={result.kind} served_by={result.served_by} "
        f"{_format_plan(result)} cost={result.cost:g} valid={result.valid} "
        f"deadline_exceeded={result.deadline_exceeded} "
        f"elapsed={result.elapsed_ms:.1f}ms"
    )
    for entry in result.stage_trace:
        energy = "-" if entry.get("energy") is None else f"{entry['energy']:.3f}"
        print(
            f"  stage {entry['stage']}: {1000.0 * entry['seconds']:.1f}ms "
            f"energy={energy} valid={entry['valid']}"
        )
    if args.output is not None:
        serialization.save(result, args.output)
        print(f"result written to {args.output}")
    _print_service_stats(service.stats())
    return 0 if result.valid else 1


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro import serialization
    from repro.exceptions import ProblemError
    from repro.service import OptimizationRequest, OptimizationService, parse_policy
    from repro.sql import (
        SqlQuery,
        generate_workload,
        parse_sql,
        plan_query,
        tpch_catalog,
    )

    catalog = tpch_catalog(scale=args.catalog_scale)

    if args.action == "generate":
        statements = generate_workload(
            args.count,
            seed=args.seed,
            catalog=catalog,
            min_tables=args.min_tables,
            max_tables=args.max_tables,
        )
        for statement in statements:
            print(f"{statement};")
        return 0

    if args.query is None:
        print(f"error: sql {args.action} needs a query argument", file=sys.stderr)
        return 2
    sql = sys.stdin.read() if args.query == "-" else args.query

    if args.action == "parse":
        statement = parse_sql(sql)
        tables = ", ".join(
            f"{t.table} AS {t.alias}" if t.alias != t.table else t.table
            for t in statement.tables
        )
        print(statement)
        print(f"tables: {tables}")
        print(f"predicates: {len(statement.predicates)}")
        return 0

    plan = plan_query(sql, catalog=catalog)
    if args.action == "explain":
        print(plan.explain())
        graph = plan.graph
        print(
            f"join graph: {graph.num_relations} relations, "
            f"{graph.num_predicates} join predicates, "
            f"estimated rows ~{plan.estimated_rows:.6g}"
        )
        return 0

    # optimize: serve the raw SQL through the deadline-aware service
    policy = parse_policy(args.policy) if args.policy else None
    request = OptimizationRequest(
        request_id="sql-cli",
        kind="sql",
        problem=SqlQuery(sql=sql, catalog=catalog),
        deadline_ms=args.deadline_ms,
        seed=args.seed,
        policy=policy,
        mode=args.mode.replace("-", "_"),
    )
    service = OptimizationService(seed=args.seed)
    try:
        result = service.optimize(request)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    order = result.plan.get("order", ())
    print(
        f"order: {' >> '.join(order) or '(none)'}\n"
        f"C_out={result.cost:g} served_by={result.served_by} "
        f"valid={result.valid} deadline_exceeded={result.deadline_exceeded} "
        f"elapsed={result.elapsed_ms:.1f}ms"
    )
    if args.output is not None:
        serialization.save(result, args.output)
        print(f"result written to {args.output}")
    return 0 if result.valid else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as _json

    from repro.replay import replay_stream, run_replay
    from repro.server import ServiceConfig, make_scheduler

    count = 1000 if args.smoke else args.requests
    unique = min(args.unique, 64) if args.smoke else args.unique
    backends = ("thread", "process") if args.backend == "both" else (args.backend,)

    reports = {}
    failures = 0
    for backend in backends:
        # built before the scheduler so bad arguments fail fast
        stream = replay_stream(
            count,
            seed=args.seed,
            unique=unique,
            zipf_s=args.zipf_s,
            deadline_ms=args.deadline_ms,
            mqo_fraction=args.mqo_fraction,
            sql_fraction=args.sql_fraction,
        )
        print(f"--- replay: {count} requests via {backend} backend ---")
        with make_scheduler(
            backend,
            config=ServiceConfig(seed=args.seed, routing=args.route),
            workers=args.workers,
            queue_limit=args.queue_limit,
        ) as scheduler:
            report = run_replay(
                scheduler,
                stream,
                rate=args.rate,
                max_in_flight=args.max_in_flight,
                progress=lambda n: print(f"  {n} submitted..."),
                progress_every=max(1000, count // 10),
            )
        reports[backend] = report
        latency = report.latency_ms
        print(
            f"{report.requests} requests in {report.wall_seconds:.2f}s "
            f"({report.throughput_rps:.1f} req/s)"
        )
        print(
            f"latency ms: p50 {latency.get('p50', float('nan')):.2f} "
            f"p95 {latency.get('p95', float('nan')):.2f} "
            f"p99 {latency.get('p99', float('nan')):.2f} "
            f"max {latency.get('max', float('nan')):.1f}"
        )
        print(
            f"cache hit {100.0 * report.cache.get('hit_rate', 0.0):.1f}%  "
            f"coalesce hit {100.0 * report.coalesce.get('hit_rate', 0.0):.1f}%  "
            f"rejected {100.0 * report.rejection_rate:.2f}%  "
            f"deadline miss {100.0 * report.deadline_miss_rate:.2f}%  "
            f"errors {report.errors}  invalid {report.invalid}"
        )
        if report.errors or report.invalid or report.ok == 0:
            failures += 1
    if args.json_out is not None:
        payload = {
            "config": {
                "requests": count, "unique": unique, "zipf_s": args.zipf_s,
                "deadline_ms": args.deadline_ms, "seed": args.seed,
                "rate": args.rate, "max_in_flight": args.max_in_flight,
                "workers": args.workers, "queue_limit": args.queue_limit,
                "routing": args.route,
            },
            "backends": {name: r.to_dict() for name, r in reports.items()},
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            _json.dump(payload, handle, indent=2)
        print(f"replay results written to {args.json_out}")
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import ServiceConfig, make_scheduler, run_gateway
    from repro.service import parse_policy

    config = ServiceConfig(
        policy=parse_policy(args.policy) if args.policy else None,
        seed=args.seed,
        routing=args.route,
    )
    scheduler = make_scheduler(
        args.backend,
        config=config,
        workers=args.workers,
        queue_limit=args.queue_limit,
        warmup=[] if args.no_warmup else None,
    )
    if args.smoke:
        return _serve_smoke(scheduler, args)
    run_gateway(
        scheduler,
        host=args.host,
        port=args.port,
        default_deadline_ms=args.deadline_ms,
    )
    return 0


def _serve_smoke(scheduler, args: argparse.Namespace) -> int:
    """End-to-end gateway self-test on an ephemeral port (CI smoke)."""
    import json as _json
    import urllib.error
    import urllib.request

    from repro.mqo import random_mqo_problem
    from repro.server import serve_in_background
    from repro.service.request import problem_to_dict

    def _call(url: str, body=None, expect: int = 200):
        data = None if body is None else _json.dumps(body).encode("utf-8")
        req = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, _json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return exc.code, _json.loads(exc.read().decode("utf-8"))

    failures = []
    with serve_in_background(
        scheduler, host=args.host, default_deadline_ms=args.deadline_ms
    ) as handle:
        url = handle.url
        status, health = _call(f"{url}/healthz")
        if status != 200 or health.get("status") != "ok":
            failures.append(f"/healthz: {status} {health}")
        status, result = _call(
            f"{url}/optimize",
            body={
                "kind": "mqo",
                "problem": problem_to_dict(
                    "mqo", random_mqo_problem(2, 2, seed=args.seed)
                ),
                "deadline_ms": args.deadline_ms,
            },
        )
        if status != 200 or result.get("status") != "ok" or not result.get("valid"):
            failures.append(f"/optimize: {status} {result}")
        status, result = _call(
            f"{url}/sql",
            body={
                "sql": "SELECT * FROM lineitem, orders, customer "
                "WHERE lineitem.l_orderkey = orders.o_orderkey "
                "AND orders.o_custkey = customer.c_custkey",
                "deadline_ms": args.deadline_ms,
            },
        )
        if status != 200 or result.get("status") != "ok" or not result.get("valid"):
            failures.append(f"/sql: {status} {result}")
        status, stats = _call(f"{url}/stats")
        requests_total = (
            stats.get("counters", {}).get("requests_total", 0) if status == 200 else 0
        )
        if status != 200 or requests_total < 2:
            failures.append(f"/stats: {status} requests_total={requests_total}")
        status, body = _call(f"{url}/optimize", body={"kind": "unknown-kind"})
        if status != 400:
            failures.append(f"/optimize bad kind: expected 400, got {status} {body}")
    if failures:
        for failure in failures:
            print(f"smoke FAIL {failure}", file=sys.stderr)
        return 1
    print(
        f"smoke OK: backend={args.backend} workers={scheduler.workers} — "
        f"optimize, sql, stats, healthz, 400-path all good; drained cleanly"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import json as _json
    import os

    from repro.verify.runner import PLANTED_BUGS, prove_planted_bug, run_verification

    if args.cache_dir is not None:
        # the oracle cache resolves its directory from the environment
        # inside harness worker processes; flags must win over it
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    solvers = None
    if args.solver:
        solvers = [s for s in (p.strip() for p in args.solver.split(",")) if s]
    sweep = dict(suite=args.suite, solvers=solvers, seed=args.seed,
                 workers=args.workers, oracle_cache=not args.no_cache)

    if args.inject == "all":
        proofs = [prove_planted_bug(name, **sweep) for name in PLANTED_BUGS]
        escaped = [proof.bug.name for proof in proofs if not proof.caught]
        print(f"planted bugs: {len(proofs) - len(escaped)}/{len(proofs)} caught")
        print("\n".join(proof.format_line() for proof in proofs))
        if escaped:
            print(f"error: planted bug(s) escaped: {', '.join(escaped)}", file=sys.stderr)
            return 1
        return 0

    report = run_verification(inject=args.inject, **sweep)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    if not report.ok:
        first = report.first_violation()
        print(
            f"error: {len(report.violations)} verification violation(s); "
            f"first: invariant '{first.get('invariant')}' violated by "
            f"{first.get('subject')}: {first.get('message')}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    import repro

    print(repro.__doc__)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantum computing for database query optimization "
        "(SIGMOD 2022 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="run paper-reproduction experiments"
    )
    experiments.add_argument(
        "name",
        help="experiment name, 'all', or 'list'",
    )
    experiments.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes per sweep "
        "(default: REPRO_BENCH_WORKERS or 1)",
    )
    experiments.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed override (per-point seeds derive from it)",
    )
    experiments.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every grid point, ignoring results/.cache",
    )
    experiments.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: REPRO_CACHE_DIR or results/.cache)",
    )
    experiments.set_defaults(func=_cmd_experiments)

    solve = sub.add_parser(
        "solve", help="solve a generated problem with a registry solver"
    )
    solve.add_argument(
        "--problem", choices=("mqo",), default="mqo",
        help="problem family to generate",
    )
    solve.add_argument("--queries", type=int, default=10)
    solve.add_argument("--ppq", type=int, default=3)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--solver", default="hybrid",
        help="registry solver name, or 'list' to show the catalog",
    )
    solve.add_argument(
        "--sub-size", type=int, default=None,
        help="hybrid only: maximum subproblem size",
    )
    solve.set_defaults(func=_cmd_solve)

    mqo = sub.add_parser("solve-mqo", help="solve a random MQO instance")
    mqo.add_argument("--queries", type=int, default=3)
    mqo.add_argument("--ppq", type=int, default=3)
    mqo.add_argument("--seed", type=int, default=0)
    mqo.add_argument(
        "--solver",
        choices=("greedy", "exhaustive", "genetic", "annealing", "qaoa"),
        default="annealing",
    )
    mqo.set_defaults(func=_cmd_solve_mqo)

    join = sub.add_parser("solve-join", help="solve a join ordering problem")
    join.add_argument("--shape", choices=("chain", "star", "cycle", "clique"), default="chain")
    join.add_argument("--relations", type=int, default=6)
    join.add_argument("--seed", type=int, default=0)
    join.add_argument("--reads", type=int, default=100)
    join.add_argument(
        "--solver",
        choices=("dp", "ikkbz", "greedy", "genetic", "qubo-annealing", "direct-qubo"),
        default="dp",
    )
    join.set_defaults(func=_cmd_solve_join)

    optimize = sub.add_parser(
        "optimize",
        help="serve one optimization request through the deadline-aware service",
    )
    optimize.add_argument(
        "--input", default=None,
        help="JSON file holding an optimization_request, mqo_problem or query_graph",
    )
    optimize.add_argument(
        "--problem", choices=("mqo", "join"), default="mqo",
        help="generated problem family when --input is not given",
    )
    optimize.add_argument("--queries", type=int, default=8)
    optimize.add_argument("--ppq", type=int, default=3)
    optimize.add_argument(
        "--shape", choices=("chain", "star", "cycle", "clique"), default="chain"
    )
    optimize.add_argument("--relations", type=int, default=6)
    optimize.add_argument("--deadline-ms", type=float, default=200.0)
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument(
        "--policy", default=None,
        help="comma-separated fallback chain (default: hybrid,tabu,sa,greedy)",
    )
    optimize.add_argument(
        "--mode", choices=("first-valid", "exhaust"), default="first-valid",
        help="stop at the first valid stage, or run every stage that fits",
    )
    optimize.add_argument(
        "--output", default=None, help="write the optimization_result JSON here"
    )
    optimize.add_argument(
        "--route", action="store_true",
        help="deadline-aware routing: pick chain order and budget split from "
        "a per-solver runtime prior over QUBO size (ignored when --policy "
        "is given)",
    )
    optimize.set_defaults(func=_cmd_optimize)

    sql = sub.add_parser(
        "sql",
        help="SQL front door: text-to-plan pipeline over a TPC-H-style catalog",
    )
    sql.add_argument(
        "action", choices=("parse", "explain", "optimize", "generate"),
        help="parse: canonical statement; explain: pushed-down algebra tree; "
        "optimize: serve through the fallback chain; generate: seeded workload",
    )
    sql.add_argument(
        "query", nargs="?", default=None,
        help="SQL text ('-' reads stdin); ignored by 'generate'",
    )
    sql.add_argument(
        "--catalog-scale", type=float, default=0.01,
        help="TPC-H scale factor for the built-in catalog (default 0.01)",
    )
    sql.add_argument("--seed", type=int, default=0)
    sql.add_argument("--deadline-ms", type=float, default=500.0)
    sql.add_argument(
        "--policy", default=None,
        help="comma-separated fallback chain (default: hybrid,tabu,sa,greedy)",
    )
    sql.add_argument(
        "--mode", choices=("first-valid", "exhaust"), default="first-valid"
    )
    sql.add_argument(
        "--output", default=None, help="write the optimization_result JSON here"
    )
    sql.add_argument(
        "--count", type=int, default=5, help="generate: number of queries"
    )
    sql.add_argument("--min-tables", type=int, default=2)
    sql.add_argument("--max-tables", type=int, default=6)
    sql.set_defaults(func=_cmd_sql)

    replay = sub.add_parser(
        "replay",
        help="stream a Zipfian-duplicated workload through a scheduler "
        "backend at production-like volume",
    )
    replay.add_argument(
        "--requests", type=int, default=100_000,
        help="stream length (lazily generated; 10^5-10^6 is the intended range)",
    )
    replay.add_argument(
        "--unique", type=int, default=512,
        help="distinct problem slots behind the Zipf distribution",
    )
    replay.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="Zipf exponent: higher = hotter head, more duplication",
    )
    replay.add_argument(
        "--backend", choices=("thread", "process", "both"), default="thread",
        help="scheduler backend(s) to replay through",
    )
    replay.add_argument(
        "--workers", type=int, default=None,
        help="scheduler workers (default: REPRO_BENCH_WORKERS or 1)",
    )
    replay.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate in req/s (default: closed loop, "
        "submit as fast as the in-flight window allows)",
    )
    replay.add_argument(
        "--max-in-flight", type=int, default=256,
        help="client-side concurrency window (bounds harness memory)",
    )
    replay.add_argument(
        "--queue-limit", type=int, default=None,
        help="admission control: max in-flight requests before rejection",
    )
    replay.add_argument("--deadline-ms", type=float, default=200.0)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--mqo-fraction", type=float, default=0.5)
    replay.add_argument("--sql-fraction", type=float, default=0.2)
    replay.add_argument(
        "--route", action="store_true",
        help="enable the deadline-aware per-request router",
    )
    replay.add_argument(
        "--json-out", default=None, help="dump per-backend replay reports here"
    )
    replay.add_argument(
        "--smoke", action="store_true",
        help="CI smoke: 10^3 requests over at most 64 slots",
    )
    replay.set_defaults(func=_cmd_replay)

    serve = sub.add_parser(
        "serve",
        help="HTTP gateway: POST /optimize, POST /sql, GET /stats, GET /healthz",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="solver workers (default: REPRO_BENCH_WORKERS or 1)",
    )
    serve.add_argument(
        "--backend", choices=("process", "thread"), default="process",
        help="executor backend behind the gateway (default: process)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=None,
        help="admission control: max in-flight requests before 503",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--policy", default=None,
        help="comma-separated fallback chain (default: hybrid,tabu,sa,greedy)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=200.0,
        help="default per-request deadline when the body omits one",
    )
    serve.add_argument(
        "--no-warmup", action="store_true",
        help="skip per-worker compilation-cache warmup",
    )
    serve.add_argument(
        "--route", action="store_true",
        help="enable the deadline-aware per-request router in every worker",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="self-test: bind an ephemeral port, serve one MQO and one SQL "
        "request, check /healthz and /stats, drain, exit 0/1",
    )
    serve.set_defaults(func=_cmd_serve)

    verify = sub.add_parser(
        "verify",
        help="differential verification: all solvers vs exact oracles",
    )
    verify.add_argument(
        "--suite", choices=("quick", "full"), default="quick",
        help="corpus size: quick (CI smoke) or full",
    )
    verify.add_argument(
        "--solver", default=None,
        help="comma-separated registry solver subset (default: all)",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker processes (default: REPRO_BENCH_WORKERS or 1); "
        "the report is identical for any worker count",
    )
    verify.add_argument(
        "--json", action="store_true",
        help="print the deterministic JSON report instead of the table",
    )
    verify.add_argument(
        "--no-cache", action="store_true",
        help="recompute oracle ground truths, ignoring results/.cache",
    )
    verify.add_argument(
        "--cache-dir", default=None,
        help="oracle-cache directory (default: REPRO_CACHE_DIR or results/.cache)",
    )
    verify.add_argument(
        "--inject", default="none", metavar="BUG",
        help="plant a known bug (a name in repro.verify.PLANTED_BUGS) to prove "
        "the harness catches it (must exit non-zero); 'all' plants each in "
        "turn on its target point types and exits 0 only if all are caught",
    )
    verify.set_defaults(func=_cmd_verify)

    info = sub.add_parser("info", help="package overview")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
