"""What the benchmark measures: workloads, metrics, units and bounds.

``python3 perfbench/run.py`` (no ``--workload``) writes ``BENCHMARK.json``
from these definitions, so the file and the code cannot disagree on a
name.
"""

from __future__ import annotations

import json
from typing import Dict, List

RUN_SECONDS = 15

#: Open-loop rates (blocks/s): about a quarter of the server workloads'
#: closed-loop capacity on a 2-vCPU host at the commit that defined them
#: (about 1,050 and 33 blocks/s).  At half capacity a host slowdown of the
#: kind a shared virtual machine sees (its vCPUs lose up to a quarter of
#: their speed for minutes) overloads the loop and the latency diverges.
OPEN_LOOP_RATE = {"serve-pool": 250.0, "serve-query": 8.0}

WORKLOADS: Dict[str, str] = {
    "serve-pool": (
        "RaceServer on a 4-worker WorldPool, 2 null arms per block: dispatch, "
        "leases, ShmSlab and commit are the block; open loop at 250/s. Known "
        "defect: +1 fd and /dev/shm entry per block"
    ),
    "serve-query": (
        "RaceServer racing querydb plans; closure arms cannot pickle, so "
        "every arm forks; open loop at 8/s. Known defect: +1 fd per block, "
        "so select() fails past ~1,011 blocks"
    ),
    "race-pi": (
        "ConcurrentExecutor on a pooled ProcessBackend, 3 CPU-bound arms "
        "that never poll, few or hundreds of dirty pages, vs "
        "SequentialExecutor. Known defect: losers run to completion"
    ),
    "cluster-vote": (
        "ClusterExecutor with majority consensus over 3 authenticated "
        "daemons. Known defect: voters deny every block after the first, "
        "which waits out the 15 s race_timeout"
    ),
}

#: (name, unit, better, bound).  Every one is measured on every workload
#: and is never 0 there.  The bounds are as tight as run-to-run noise on a
#: 2-vCPU virtual machine allows: with 2-25% of CPU time stolen by the
#: hypervisor, ``serve-pool`` spreads 0.1 to 0.27 on ``p50_ms`` and
#: ``goodput_bps`` across seeds (see README.md).  ``cpu_ms_per_block``
#: does not count stolen time, so it is the steadiest timing here.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("goodput_bps", "blocks/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("rss_mb", "MiB", "lower", 0.15),
    ("cpu_ms_per_block", "ms", "lower", 0.25),
]

#: (name, unit, better).  Traced-run metrics.  The first group are
#: end-to-end figures that cannot carry a bound: ``p99_ms`` because on
#: ``serve-pool`` it spreads 0.36 to 1.6 across seeds on a 2-vCPU virtual
#: machine, the rest because they can be 0 or exist on one workload only.
#: Then the layer timings and counts.
PER_LAYER = [
    ("p99_ms", "ms", "lower"),
    ("failed_ratio", "1", "lower"),
    ("pi_measured", "1", "higher"),
    ("fds_per_kblock", "fds", "lower"),
    ("shm_per_kblock", "entries", "lower"),
    ("server.submit_us", "us", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.blocks_per_batch", "blocks", "higher"),
    ("executor.run_ms", "ms", "lower"),
    ("executor.self_ms", "ms", "lower"),
    ("primitives.spawn_us", "us", "lower"),
    ("primitives.commit_us", "us", "lower"),
    ("backend.run_arms_ms", "ms", "lower"),
    ("backend.elim_wait_ms", "ms", "lower"),
    ("backend.forks_per_block", "forks", "lower"),
    ("pool.lease_us", "us", "lower"),
    ("pool.finish_us", "us", "lower"),
    ("pool.lease_ratio", "1", "higher"),
    ("pool.respawns_per_block", "respawns", "lower"),
    ("shm.create_us", "us", "lower"),
    ("shm.dispose_us", "us", "lower"),
    ("shm.live_slabs", "slabs", "lower"),
    ("sequential.run_ms", "ms", "lower"),
    ("querydb.plan_us", "us", "lower"),
    ("cluster.run_ms", "ms", "lower"),
    ("cluster.handshake_ms", "ms", "lower"),
    ("cluster.vote_ms", "ms", "lower"),
    ("cluster.votes_denied", "count", "lower"),
    ("cluster.degraded_blocks", "count", "lower"),
    ("gen.lag_p99_ms", "ms", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def write(path: str) -> None:
    with open(path, "w") as handle:
        json.dump(benchmark_json(), handle, indent=2)
        handle.write("\n")


def names(group: List[tuple]) -> List[str]:
    return [entry[0] for entry in group]
