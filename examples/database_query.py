#!/usr/bin/env python3
"""Racing database query plans -- the paper's motivating workload.

'For problems where the required execution time is unpredictable, such as
database queries, this method can show substantial execution time
performance increases.'

We model a query with three access paths whose costs depend on data
characteristics the planner cannot see (section 4.2, relation 3): an index
scan (usually instant, terrible on low-selectivity predicates), a full
table scan (steady), and a hash probe (fast when the build side fits).
The block races them; the fastest plan that actually produces rows wins.

The second half runs the same race with *real processes* on your
kernel's copy-on-write fork, through ``ProcessBackend``.
"""

import random
import time

from repro import (
    Alternative,
    ConcurrentExecutor,
    MODERN_COMMODITY,
    ProcessBackend,
)
from repro.sim.distributions import Bimodal, Deterministic, LogNormal, Uniform


def simulated_race(seed: int) -> None:
    index_scan = Alternative(
        "index-scan",
        body=lambda ctx: {"rows": 40, "plan": "index"},
        cost=Bimodal(
            fast=Uniform(0.002, 0.01),      # selective predicate: instant
            slow=Uniform(2.0, 6.0),         # non-selective: useless index
            p_fast=0.7,
        ),
    )
    table_scan = Alternative(
        "table-scan",
        body=lambda ctx: {"rows": 40, "plan": "scan"},
        cost=Uniform(0.8, 1.2),             # predictable, never great
    )
    hash_probe = Alternative(
        "hash-probe",
        body=lambda ctx: {"rows": 40, "plan": "hash"},
        cost=LogNormal(mu=-1.5, sigma=1.2),  # long right tail
    )
    executor = ConcurrentExecutor(cost_model=MODERN_COMMODITY, seed=seed)
    result = executor.run([index_scan, table_scan, hash_probe])
    print(
        f"  seed {seed}: winner={result.winner.name:<11} "
        f"elapsed={result.elapsed * 1000:7.2f} ms  "
        f"PI={result.performance_improvement:5.2f}x  "
        f"wasted={result.wasted_work * 1000:7.2f} CPU-ms"
    )


def real_process_race() -> None:
    rows = list(range(100_000))

    def index_scan(ctx):
        # Pretend the predicate is non-selective: the index is a trap.
        ctx.sleep(0.8)
        return ("index", sum(rows[:10]))

    def table_scan(ctx):
        ctx.sleep(0.05)
        total = sum(row for row in rows if row % 9973 == 0)
        ctx.put("plan", "scan")
        return ("scan", total)

    def hash_probe(ctx):
        # Fails its guard: the build side spilled.
        ctx.fail("hash table spilled to disk")

    executor = ConcurrentExecutor(backend=ProcessBackend(), timeout=10.0)
    parent = executor.new_parent()
    started = time.monotonic()
    result = executor.run(
        [
            Alternative("index-scan", body=index_scan),
            Alternative("table-scan", body=table_scan),
            Alternative("hash-probe", body=hash_probe),
        ],
        parent=parent,
    )
    wall = time.monotonic() - started
    print(f"  winner   : {result.winner.name}")
    print(f"  value    : {result.value!r}")
    print(f"  state    : plan={parent.space.get('plan')!r}")
    print(f"  wall time: {wall * 1000:.1f} ms "
          "(the 0.8 s index scan was eliminated, not waited for)")
    for outcome in result.outcomes:
        print(f"    {outcome.name:<11} -> {outcome.status}")
    parent.space.release()


def real_data_race() -> None:
    """Race plans over an actual table: costs measured from the data."""
    from repro.querydb import Condition, Query, RacingQueryEngine, Table

    rng = random.Random(42)
    table = Table("orders", ["order_id", "customer", "amount"])
    for order_id in range(20_000):
        table.insert(
            (order_id, f"cust-{rng.randrange(2000)}", rng.randrange(10_000))
        )
    engine = RacingQueryEngine(table, cost_model=MODERN_COMMODITY)
    engine.create_hash_index("customer")
    engine.create_sorted_index("amount")

    queries = [
        ("selective equality", Query.where(Condition("customer", "==", "cust-77"))),
        ("narrow range", Query.where(Condition("amount", "<", 40))),
        ("unindexed point", Query.where(Condition("order_id", "==", 123))),
        (
            "conjunction",
            Query.where(
                Condition("customer", "==", "cust-9"),
                Condition("amount", ">", 5000),
            ),
        ),
    ]
    for label, query in queries:
        result = engine.execute_racing(query)
        # The sequential baseline (Scheme B): commit to one applicable
        # plan at random; its expected cost is the mean over the plans.
        plan_times = [
            engine.execute_static(query, plan)[1]
            for plan in engine.plans_for(query)
        ]
        scheme_b = sum(plan_times) / len(plan_times)
        print(
            f"  {label:<18} rows={len(result.rows):<4} "
            f"winner={result.winning_plan:<28} "
            f"race={result.elapsed * 1000:8.3f} ms  "
            f"random-plan-mean={scheme_b * 1000:8.3f} ms  "
            f"PI={scheme_b / result.elapsed:5.1f}x"
        )


def server_swarm() -> None:
    """The same workload as a *service*: many tenants, one shared engine.

    A ``RaceServer`` admits a zipf-skewed stream of racing-plan blocks,
    schedules them with arm-weighted deficit round robin, and runs each
    on its own executor over the shared backend -- the front end a
    'millions of users' deployment of the paper's section 4.2 workload
    needs.  ``python -m repro serve`` exposes the same demo with knobs.
    """
    from repro.server import RaceServer, ServerConfig, SwarmClient
    from repro.server.client import build_demo_engine

    engine, queries = build_demo_engine(rows=2000, seed=0)
    with RaceServer(ServerConfig(backend="thread", workers=4)) as server:
        swarm = SwarmClient(server, tenants=4, zipf_s=1.1, seed=0)
        report = swarm.run(blocks=24, engine=engine, queries=queries)
    data = report.to_dict()
    print(f"  completed : {data['blocks_completed']} blocks "
          f"({data['blocks_per_second']:.1f} blocks/s, "
          f"{data['blocks_rejected']} rejected)")
    print(f"  latency   : p50={data['p50_latency_seconds'] * 1000:.1f} ms  "
          f"p99={data['p99_latency_seconds'] * 1000:.1f} ms")
    print(f"  goodput   : {data['per_tenant_goodput']}")


def main(argv=None):
    import sys

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if "--server" in argv:
        print("multi-tenant race server over the query-plan workload:")
        server_swarm()
        return
    print(__doc__)
    print("simulated plan races (per-input costs are unpredictable):")
    for seed in range(8):
        simulated_race(seed)
    print()
    print("racing real plans over a 20,000-row table "
          "(costs measured, not modelled):")
    real_data_race()
    print()
    print("real os.fork race (three UNIX processes, fastest-first):")
    real_process_race()
    print()
    print("(run with --server for the multi-tenant service-layer demo)")


if __name__ == "__main__":
    random.seed(0)
    main()
