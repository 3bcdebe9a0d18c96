#!/usr/bin/env python3
"""Gate a freshly written BENCH_*.json against the committed copy, exactly.

Usage (from the repository root, after a gate bench wrote its JSON into
build/):

    python3 bench/check_counters.py build/BENCH_hotpath.json [...]

Each fresh file is compared with the file of the same name at the
repository root on the keys listed for it below, and only on those: the
deterministic counters and the workload shape that do not depend on
OMPC_BENCH_REPS. Timings and fields summed over repetitions (for example
channels_armed, persistent_reuses, tenant_waves) are left out. A mismatch,
a missing key or a file with no key list exits 1 and names every offender;
a counter that moves on purpose is committed together with its new JSON.
"""
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

COUNTERS = {
    "BENCH_hotpath.json": [
        "waves", "tasks_per_wave", "workers",
        "threads_spawned_per_launch", "threads_spawned_per_steady_wave",
        "payload_copies", "data_transfers", "copies_per_transfer",
        "checkpoint_captures", "checkpoint_logical_bytes",
        "checkpoint_dirty_bytes", "checkpoint_dirty_ratio",
    ],
    "BENCH_checkpoint.json": [
        "steps", "width", "workers", "buffer_bytes", "checkpoints",
        "checkpoint_logical_bytes", "head_mode_head_bytes",
        "buddy_mode_head_bytes", "buddy_over_head_ratio",
        "buddy_snapshot_replicas", "schedule_cache_hits",
    ],
    "BENCH_minimpi.json": [
        "exchange_messages_rma",
    ],
    "BENCH_persistent.json": [
        "workers", "subdomains", "cells",
        "envelopes_per_iter_inprocess_persistent",
        "envelopes_per_iter_shm_persistent",
    ],
    "BENCH_failover.json": [
        "steps", "width", "workers", "checkpoint_period",
        "replication_bytes_per_wave", "replication_updates_per_run",
        "head_mode_replication_bytes_per_wave",
        "head_mode_dirty_bytes_per_wave",
    ],
    "BENCH_tenancy.json": [
        "workers", "pool_threads_peak",
    ],
}


def check(fresh_path):
    """Returns the list of problems found in one fresh file."""
    fresh_path = Path(fresh_path)
    name = fresh_path.name
    keys = COUNTERS.get(name)
    if keys is None:
        return [f"{name}: no counter list in {Path(__file__).name}"]
    fresh = json.loads(fresh_path.read_text())
    committed = json.loads((REPO / name).read_text())
    problems = []
    for key in keys:
        if key not in committed or key not in fresh:
            problems.append(f"{name}: {key} missing "
                            f"(committed {key in committed}, "
                            f"fresh {key in fresh})")
        elif fresh[key] != committed[key]:
            problems.append(f"{name}: {key} = {fresh[key]!r}, "
                            f"committed {committed[key]!r}")
    return problems


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = []
    for path in argv[1:]:
        problems += check(path)
    for p in problems:
        print(f"COUNTER MISMATCH: {p}", file=sys.stderr)
    if not problems:
        print("counters match: " + ", ".join(Path(p).name for p in argv[1:]))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
