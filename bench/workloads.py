"""The benchmark's workloads, and how its processes find the program.

Each workload is a fixed set of ``ExperimentConfig`` fields. The seed is
not part of a workload: it comes from the command line, and the program
receives only the config and the dataset generated from it. The three
workloads separate the layers of a trial, so that a change to one layer
moves one workload and leaves another flat (see README.md).

This module imports neither numpy nor the program, so that the set-up
time measured after importing it still covers both imports.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: The seed the stored reference results (reference.json) come from.
DEFAULT_SEED = 0

WORKLOADS = {
    # 65,536 single-user shufflers but only ~174k messages per trial:
    # per-node Python work (provisioning, per-node analyzer calls,
    # detection) dominates. Stresses runtime provisioning and defense.
    "wide-count": dict(
        query="count", protocol="susdp", n=1 << 16, k=1, attack="flood",
    ),
    # 4,095 shufflers carrying ~36M messages per trial: the shuffle and
    # the per-node histogram distance search dominate. Stresses the
    # runtime message layer and queries.dis_to_range.
    "deep-range": dict(query="range", u=15, protocol="hsdp", n=1 << 11),
    # 255 shufflers; per-user NB noise draws dominate, and flood traffic
    # is 2.1M of 3.7M messages, so the adversary and recovery paths run.
    # Stresses noise sampling and the adversary.
    "flat-sum-flood": dict(
        query="sum", u=255, protocol="ohsdp", n=1 << 16, k=4, k_hat=4,
        attack="flood",
    ),
}

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """One BLAS/OpenMP thread, here and in every child process."""
    os.environ.update({var: "1" for var in THREAD_VARS})


def use_checkout_source() -> None:
    """Import the program from this checkout's src/, or exit nonzero."""
    if not (SRC / "shuffleguard" / "__init__.py").is_file():
        raise SystemExit(f"bench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
