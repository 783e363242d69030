"""Time one set-up of a workload in a fresh process.

Set-up runs from before ``import shuffleguard`` (numpy included) through
``experiment_dataset`` and ``build_plan``. Prints the seconds taken.

    python3 bench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
import time

from workloads import WORKLOADS, pin_threads, use_checkout_source


def main(argv: list[str]) -> None:
    name, seed = argv
    fields = WORKLOADS[name]
    pin_threads()
    use_checkout_source()
    start = time.perf_counter()
    from shuffleguard.harness import (
        ExperimentConfig, build_plan, experiment_dataset,
    )

    config = ExperimentConfig(**fields, seed=int(seed))
    experiment_dataset(config)
    build_plan(config)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
