"""Campaign results do not depend on the interpreter's hash seed.

A set or dict iterated in hash order anywhere on the slice path would make
the golden sweep digests (``tests/golden/uniform_sweep_golden.json``) flip
between interpreter runs, and CI would flake instead of failing.  Pinning
two fixed ``PYTHONHASHSEED`` values in fresh interpreters turns that into
a deterministic failure, through the in-process ``Campaign`` and through
``spawn``-started pool workers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_allocator_differential import GOLDEN_PATH

REPO_ROOT = Path(__file__).resolve().parent.parent

SWEEP = """
import json
from repro import bench
from repro.harness.campaign import Campaign
from repro.harness.parallel import ParallelCampaign
from tests.test_allocator_differential import SWEEP_CONFIG, sweep_digests, sweep_tools

programs = [bench.get(name) for name in bench.names()]
serial = Campaign(SWEEP_CONFIG).run(sweep_tools(), programs)
pooled = ParallelCampaign(SWEEP_CONFIG, processes=2, start_method="spawn").run(
    [tool.name for tool in sweep_tools()], bench.names()
)
print(json.dumps({"Campaign": sweep_digests(serial), "spawn": sweep_digests(pooled)}))
"""


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_sweep_digests_are_hash_seed_independent(hash_seed):
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    golden = json.loads(GOLDEN_PATH.read_text())
    for engine, digests in json.loads(proc.stdout.splitlines()[-1]).items():
        diverged = sorted(key for key in golden if digests.get(key) != golden[key])
        assert set(digests) == set(golden), engine
        assert not diverged, f"{engine} under PYTHONHASHSEED={hash_seed}: {diverged}"
