#!/usr/bin/env python3
"""Fails when a deterministic pin in a tracked BENCH_*.json file moved.

The contract scripts (scripts/check_{crowd,backends,control}.sh)
regenerate BENCH_crowd.json, BENCH_backends.json and BENCH_control.json
in the working tree. This compares each file with its committed copy
(`git show HEAD:<file>`), skips the wall-clock and host-dependent keys
in MEASURED, and names every JSON path whose value moved, with its old
and new value.

    python3 scripts/check_pins.py [file ...]   # default: the three files

Exits 0 when no pin moved, 1 otherwise. The MEASURED list is interim:
once the tracked files hold deterministic outputs only, a plain
`git diff --exit-code` replaces this script.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ("BENCH_crowd.json", "BENCH_backends.json", "BENCH_control.json")
MEASURED = {"wall_ns_per_join", "wall_ms_per_rep", "peak_rss_kb",
            "shard_imbalance"}


def moved(old, new, path):
    """Yields (path, old, new) for every value that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key in MEASURED:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in new or key not in old:
                yield sub, old.get(key, "<absent>"), new.get(key, "<absent>")
            else:
                yield from moved(old[key], new[key], sub)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from moved(o, n, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def main(files):
    failed = False
    for name in files:
        committed = subprocess.run(
            ["git", "show", f"HEAD:{name}"], cwd=ROOT, capture_output=True,
            text=True)
        if committed.returncode != 0:
            print(f"{name}: not tracked at HEAD", file=sys.stderr)
            failed = True
            continue
        old = json.loads(committed.stdout)
        new = json.loads((ROOT / name).read_text())
        changes = list(moved(old, new, ""))
        for path, was, now in changes:
            print(f"{name}: {path}: {json.dumps(was)} -> {json.dumps(now)}")
        if changes:
            failed = True
        else:
            print(f"{name}: pins unchanged")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or FILES))
