"""Campaign results do not depend on the interpreter's hash seed.

A set or dict iterated in hash order anywhere on the slice path would make
the golden sweep digests (``tests/golden/uniform_sweep_golden.json``) flip
between interpreter runs, and CI would flake instead of failing.  Pinning
two fixed ``PYTHONHASHSEED`` values in fresh interpreters turns that into
a deterministic failure, through the in-process ``Campaign`` and through
``spawn``-started pool workers.  The same interpreters recompute the
engine goldens (``tests/golden/engine_golden.json``): every execution
digest must match too.  Sanitizer report *messages* are part of a result
as well, so a lockorder campaign must render its cycles identically under
two hash seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_allocator_differential import GOLDEN_PATH
from tests.test_engine_differential import GOLDEN_PATH as ENGINE_GOLDEN_PATH

REPO_ROOT = Path(__file__).resolve().parent.parent

SWEEP = """
import json
from repro import bench
from repro.harness.campaign import Campaign
from repro.harness.parallel import ParallelCampaign
from tests.test_allocator_differential import SWEEP_CONFIG, sweep_digests, sweep_tools
from tests.test_engine_differential import _compute_all

programs = [bench.get(name) for name in bench.names()]
serial = Campaign(SWEEP_CONFIG).run(sweep_tools(), programs)
pooled = ParallelCampaign(SWEEP_CONFIG, processes=2, start_method="spawn").run(
    [tool.name for tool in sweep_tools()], bench.names()
)
print(json.dumps({
    "sweep": {"Campaign": sweep_digests(serial), "spawn": sweep_digests(pooled)},
    "engine": _compute_all(),
}))
"""

LOCKORDER = """
import json
from repro import bench
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.persist import result_to_dict
from repro.harness.tools import random_tool

config = CampaignConfig(trials=4, budget=50, base_seed=1, sanitizers=("lockorder",))
result = Campaign(config).run(
    [random_tool()], [bench.get("CS/deadlock01"), bench.get("CS/carter01")]
)
print(json.dumps({
    f"{tool}|{program}": [result_to_dict(r) for r in trials]
    for (tool, program), trials in sorted(result.results.items())
}))
"""


def _run_fresh(script: str, hash_seed: str):
    """The last stdout line of ``script``, JSON-decoded, from a fresh
    interpreter under ``PYTHONHASHSEED=hash_seed``."""
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_sweep_digests_are_hash_seed_independent(hash_seed):
    computed = _run_fresh(SWEEP, hash_seed)
    golden = json.loads(GOLDEN_PATH.read_text())
    for engine, digests in computed["sweep"].items():
        diverged = sorted(key for key in golden if digests.get(key) != golden[key])
        assert set(digests) == set(golden), engine
        assert not diverged, f"{engine} under PYTHONHASHSEED={hash_seed}: {diverged}"
    engine_golden = json.loads(ENGINE_GOLDEN_PATH.read_text())
    recorded = computed["engine"]
    diverged = sorted(name for name in engine_golden if recorded.get(name) != engine_golden[name])
    assert set(recorded) == set(engine_golden)
    assert not diverged, f"engine goldens under PYTHONHASHSEED={hash_seed}: {diverged}"


def test_lockorder_reports_are_hash_seed_independent():
    """The cycle a lockorder report prints used to start wherever
    ``nx.simple_cycles`` began, which follows hash order: these two seeds
    rendered ``mutex:A -> mutex:B -> mutex:A`` and ``mutex:B -> ...``."""
    first, second = (_run_fresh(LOCKORDER, seed) for seed in ("1", "2"))
    messages = [
        report["message"]
        for trials in first.values()
        for cell in trials
        for report in cell.get("sanitizer_reports", ())
    ]
    assert any("potential deadlock" in message for message in messages)
    assert first == second
