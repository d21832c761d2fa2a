"""Importing the package loads neither scipy nor networkx.

Only synthetic image and sensor-field generation and SSIM call scipy, and
only aggregation-tree building calls networkx; each imports its library
where it is used.  Importing the package and running a fleet therefore
load neither, which keeps both the start-up time and the resident memory
of fleet and control-plane runs down.  The check runs in a fresh
interpreter, because this test session has already loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
import sys

import numpy as np

import repro, repro.core, repro.experiments, repro.sim, repro.wsn
from repro.core import EdgeTrainingScheduler, OrcoDCSConfig, OrcoDCSFramework
from repro.sim import ARQConfig, ChannelSpec


def loaded():
    return sorted(name for name in ("scipy", "networkx") if name in sys.modules)


def fleet(**kwargs):
    scheduler = EdgeTrainingScheduler(
        "round_robin", rng=np.random.default_rng(0), **kwargs)
    for k in range(3):
        config = OrcoDCSConfig(input_dim=12, latent_dim=4, batch_size=8, seed=k)
        scheduler.add_cluster(f"c{k}", OrcoDCSFramework(config),
                              np.random.default_rng(k).random((16, 12)),
                              batch_size=8)
    report = scheduler.run(rounds_per_cluster=4)
    return scheduler.execution_plan().engine, sum(report.rounds_per_cluster.values())


report = {"imported": loaded()}
report["fleets"] = [
    fleet(),
    fleet(engine="event",
          channels=ChannelSpec(loss=0.1, arq=ARQConfig(max_retries=2))),
]
report["after_fleets"] = loaded()

network = repro.wsn.WSNetwork(np.random.default_rng(0).random((9, 2)) * 40.0,
                              comm_range_m=25.0)
network.set_aggregator(repro.wsn.select_aggregator(network.positions()))
repro.wsn.build_aggregation_tree(network)
report["after_tree"] = loaded()

repro.datasets.generate_digits(2, np.random.default_rng(0))
report["after_digits"] = loaded()
print(json.dumps(report))
"""


def _run_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_package_and_fleets_load_neither_library_until_used():
    report = _run_fresh_interpreter()
    assert report["imported"] == []
    # Both fleets ran on the engines they were built for and delivered
    # rounds (the lossy one may lose some).
    (ideal, ideal_rounds), (lossy, lossy_rounds) = report["fleets"]
    assert (ideal, ideal_rounds) == ("batched", 12)
    assert lossy == "event" and lossy_rounds > 0
    assert report["after_fleets"] == []
    assert report["after_tree"] == ["networkx"]
    assert report["after_digits"] == ["networkx", "scipy"]
