"""The repository's benchmark: one command, four workloads, every block checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-pool --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

With ``--workload`` it sets up the system under test (several times; set-up
time is their median), warms it up, measures for ``--seconds``, tears it
down, checks that nothing of its own is left behind, and prints every
metric by name and unit.  The last line of standard output is the JSON
result: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1`` (where every
layer's public calls are wrapped and timed, see ``perfbench/trace.py``).
A full record goes to ``perfbench/results/``.

Without ``--workload`` it writes ``BENCHMARK.json``, then runs each workload
untraced and traced, each in a fresh interpreter (so one workload's leaked
fds never push the next over the ``select()`` limit), and prints every
metric plus the tracing overhead: the traced run's end-to-end figures
against the untraced run's.

Metric definitions, the layer map and the known defects are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
RESULTS = os.path.join(HERE, "results")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _environment() -> None:
    """Put the checkout's sources on the path, here and for the cluster
    daemons this process spawns (they unpickle ``perfbench.arms``), and
    keep temporary files (the daemons' port files) inside the checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program sources at {SRC}")
    scratch = os.path.join(RESULTS, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    # The script's own directory would shadow stdlib modules (``trace``).
    sys.path[:] = [ROOT, SRC] + [
        p for p in sys.path[1:] if os.path.abspath(p or ".") != HERE
    ]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]
    )


def _reap_leftovers() -> list:
    """Kill and reap any child still alive; returns their pids."""
    from perfbench.ledger import child_pids

    leftovers = child_pids()
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return leftovers


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, warm up, measure and tear down one workload; the record."""
    from repro.pages.shm import cleanup_all_slabs

    from perfbench import ledger, stats, trace
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    setup_times = []
    for attempt in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
        if attempt < SETUP_REPEATS - 1:
            workload.teardown()
    recorder = trace.Recorder()
    uninstall = trace.install(recorder) if traced else None
    try:
        workload.warm_up()
        pool_before = workload.pool_counters()
        warm = ledger.sample()
        ticks = ledger.cpu_ticks()
        workload.paused = recorder.paused
        recorder.enabled = traced
        workload.measure(seconds)
        recorder.enabled = False
        steal = [b - a for a, b in zip(ticks, ledger.cpu_ticks())]
        end = ledger.sample()
        pool_after = workload.pool_counters()
    finally:
        workload.teardown()
        if uninstall is not None:
            uninstall()
    # Only now, after the end sample: the program's own exit-time sweep.
    cleanup_all_slabs()
    leftover_children = _reap_leftovers()
    leftover_shm = ledger.own_shm_segments()

    tally = workload.tally
    latencies = tally.latencies
    tail_q, p99 = stats.tail(latencies) if latencies else (0.0, 0.0)
    blocks = tally.attempted
    correct, phase_s = workload.goodput_phase
    metrics = {
        "setup_s": statistics.median(setup_times),
        "goodput_bps": correct / phase_s,
        "p50_ms": stats.quantile(latencies, 0.5) * 1e3 if latencies else 0.0,
        "p99_ms": p99 * 1e3,
        "rss_mb": end.rss_mb,
        "cpu_ms_per_block": (end.cpu_s - warm.cpu_s) * 1e3 / max(1, blocks),
        "failed_ratio": stats.failed_ratio(blocks, tally.failed),
        "pi_measured": (
            stats.pi_measured(workload.sequential_s, workload.concurrent_s)
            if workload.sequential_s else 0.0
        ),
        "fds_per_kblock": stats.per_kblock(warm.fds, end.fds, blocks),
        "shm_per_kblock": stats.per_kblock(
            warm.shm_entries, end.shm_entries, blocks),
        "server.blocks_per_batch": workload.counters.get(
            "server.blocks_per_batch", 0.0),
        "backend.forks_per_block": (
            pool_after["fallbacks"] - pool_before["fallbacks"]) / max(1, blocks),
        "pool.respawns_per_block": (
            pool_after["respawns"] - pool_before["respawns"]) / max(1, blocks),
        "shm.live_slabs": float(end.live_slabs),
        "cluster.degraded_blocks": workload.counters.get(
            "cluster.degraded_blocks", 0.0),
        "gen.lag_p99_ms": (
            stats.tail(workload.lags)[1] * 1e3 if workload.lags else 0.0),
    }
    if traced:
        metrics.update(trace.layer_metrics(recorder.spans))
    record = {
        "context": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "cpu_count": os.cpu_count(),
            "cpu_steal_share": steal[0] / max(1, steal[1]),
            "python": platform.python_version(),
            "open_loop_rate": workload.open_loop_rate,
            "gen_lag_p99_ms": metrics["gen.lag_p99_ms"],
            "latency_samples": len(latencies),
            "p99_ms_is_quantile": tail_q,
            "setup_times_s": setup_times,
            "spans": len(recorder.spans),
            **workload.context(),
        },
        "attempted": blocks,
        "failed": tally.failed,
        "failures": tally.failures,
        "wrong_answers": tally.wrong[:5],
        "ledger": {"after_warm_up": warm.as_dict(), "end": end.as_dict()},
        "leftovers": {"children": leftover_children, "shm": leftover_shm},
        "metrics": metrics,
        "latency_samples_s": latencies,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=2)
    if traced:
        recorder.dump(os.path.join(RESULTS, stem + "-spans.jsonl.gz"))
    return record


def _print_metrics(metrics: dict) -> None:
    from perfbench.spec import UNITS

    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.4f} {UNITS[name]}")


def result_line(record: dict, traced: bool) -> dict:
    """The contract's last line: the ``BENCHMARK.json`` metrics only."""
    from perfbench import spec

    group = spec.PER_LAYER if traced else spec.END_TO_END
    metrics = record["metrics"]
    correct = not (
        record["wrong_answers"]
        or record["leftovers"]["children"]
        or record["leftovers"]["shm"]
    )
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": spec.UNITS[name]}
            for name in spec.names(group)
        },
    }


def main_one(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    context = record["context"]
    print(f"{args.workload}: seed {args.seed}, {args.seconds}s, "
          f"trace {args.trace}, {context['cpu_count']} CPUs "
          f"({context['cpu_steal_share']:.1%} stolen by the host), "
          f"Python {context['python']}")
    if "slowest_arm_minus_winner_ms" in context:
        print(f"  slowest arm finished "
              f"{context['slowest_arm_minus_winner_ms']:.1f} ms after the "
              f"winner, on average")
    print(f"  blocks {record['attempted']}, failed {record['failed']} "
          f"{record['failures']}, latency samples "
          f"{context['latency_samples']}, p99_ms is "
          f"p{context['p99_ms_is_quantile'] * 100:.1f}")
    print(f"  ledger after warm-up {record['ledger']['after_warm_up']}")
    print(f"  ledger at end        {record['ledger']['end']}")
    if record["wrong_answers"]:
        print(f"  WRONG ANSWERS: {record['wrong_answers']}")
    if record["leftovers"]["children"] or record["leftovers"]["shm"]:
        print(f"  LEFT BEHIND: {record['leftovers']}")
    _print_metrics(record["metrics"])
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


def main_all(args) -> int:
    """Every workload, untraced then traced; prints the tracing overhead."""
    from perfbench import spec

    spec.write(os.path.join(ROOT, "BENCHMARK.json"))
    status = 0
    for name in spec.WORKLOADS:
        records = []
        for traced in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(traced),
            ]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace {traced}: exit {done.returncode}\n"
                      f"{done.stderr}", file=sys.stderr)
                status = 1
                break
            if not json.loads(lines[-1])["correct"]:
                status = 1
            print("\n".join(lines[:-1]))
            stem = f"{name}-seed{args.seed}-trace{traced}.json"
            with open(os.path.join(RESULTS, stem)) as handle:
                records.append(json.load(handle))
        if len(records) == 2:
            plain, traced_run = (r["metrics"] for r in records)
            print(f"  tracing overhead on {name} (traced vs untraced):")
            for metric in spec.names(spec.END_TO_END) + ["p99_ms"]:
                base = plain[metric]
                change = (traced_run[metric] - base) / base if base else 0.0
                print(f"    {metric:<24} {base:>12.4f} -> "
                      f"{traced_run[metric]:>12.4f} {spec.UNITS[metric]:<9}"
                      f"({change:+.1%})")
    return status


def main(argv=None) -> int:
    _environment()
    from perfbench import spec
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return main_one(args) if args.workload else main_all(args)


if __name__ == "__main__":
    sys.exit(main())
