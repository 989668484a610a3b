"""Pin the simulated-output digests the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/pin.py --workload load-sharded --seeds 0-24,42

Runs one untraced pass per seed and writes every operation's digest to
``perfbench/pins/<workload>.json`` (merged with the seeds already
there).  Re-pin only when a change is meant to alter simulated output;
a speed-only change must leave every pinned digest as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import PINS_DIR, SRC, WORKLOADS, fix_hash_seed


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pin benchmark output digests")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", required=True, help="e.g. 0-24,42")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    fix_hash_seed(Path(__file__).resolve(), argv)
    sys.path.insert(0, str(SRC))
    import suite
    from run import run_pass

    path = PINS_DIR / f"{args.workload}.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    for seed in parse_seeds(args.seeds):
        result = run_pass(suite.build(args.workload, seed), traced=False)
        if result.raised:
            print(f"seed {seed}: an operation raised; not pinned", file=sys.stderr)
            return 1
        problems = [p for op in result.ops for p in suite.point_problems(op)]
        if problems:
            print(f"seed {seed}: {problems}; not pinned", file=sys.stderr)
            return 1
        pins[str(seed)] = {op.op_id: op.digest() for op in result.ops}
        print(f"seed {seed}: {len(result.ops)} digests ({result.seconds:.1f} s)", flush=True)
    PINS_DIR.mkdir(exist_ok=True)
    ordered = {key: pins[key] for key in sorted(pins, key=int)}
    path.write_text(json.dumps(ordered, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
