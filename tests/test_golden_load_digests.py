"""Golden load digests: three small seed-42 HyPer sweeps pinned to fixed
fingerprints.

``tests/test_golden_digests.py`` pins figure cells, which go through
prewarm and replay.  These pins cover the load path instead: engine
execution, trace generation, 2PC pricing, replication and chaos.  Each
digest is ``repro.store.fingerprint`` of ``{"points": [...], "cap":
capacity_tps}``, where every point is its ``dataclasses.asdict`` minus
``obs_metrics`` (which is excluded from equality anyway).  CI runs this
file under two hash seeds.

A change meant to alter simulated output updates these pins in the same
change and says why.
"""

import dataclasses

import pytest

from repro.load import LoadSpec, run_load
from repro.load.resilience import ResilienceSpec, chaos_suite
from repro.store import fingerprint

SEED = 42
MULTIPLIERS = (0.5, 2.0)

SWEEPS = {
    "plain": lambda: LoadSpec(system="hyper", seed=SEED, multipliers=MULTIPLIERS),
    "sharded": lambda: LoadSpec(
        system="hyper", shards=2, remote_pct=10.0, seed=SEED, multipliers=MULTIPLIERS
    ),
    "replicated-chaos": lambda: LoadSpec(
        system="hyper",
        replicas=2,
        ack="quorum",
        chaos=chaos_suite("mixed"),
        resilience=ResilienceSpec(max_retries=2, shed_depth=64),
        seed=SEED,
        multipliers=MULTIPLIERS,
    ),
}

GOLDEN = {
    "plain": "9beeac586c357eea",
    "sharded": "0c2e19f9afddba35",
    "replicated-chaos": "3893e76d2ae785b5",
}


def sweep_digest(name: str) -> str:
    result = run_load(SWEEPS[name](), jobs=1)
    points = []
    for point in result.points:
        payload = dataclasses.asdict(point)
        del payload["obs_metrics"]
        points.append(payload)
    return fingerprint({"points": points, "cap": result.capacity_tps})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_load_sweep_matches_golden_digest(name):
    assert sweep_digest(name) == GOLDEN[name]
