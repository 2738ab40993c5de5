"""One timed set-up of a workload, in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR single|sweep SEEDS

Prints the seconds spent importing hetlora and, for the single-strategy
workloads, loading the default config and generating each seed's task.
The sweep workload makes those two calls inside its timed run, so its
set-up is the import alone. BLAS threads are pinned by the caller's
environment.
"""

import sys
from time import perf_counter

t0 = perf_counter()
src, mode, seeds = sys.argv[1], sys.argv[2], sys.argv[3]
sys.path.insert(0, src)
if mode == "sweep":
    import hetlora.cli  # noqa: E402,F401
else:
    import dataclasses  # noqa: E402

    import hetlora.baselines  # noqa: E402,F401
    from hetlora.config import load_config  # noqa: E402
    from hetlora.tasks import generate_task  # noqa: E402

    cfg = load_config("default")
    for s in seeds.split(","):
        generate_task(dataclasses.replace(cfg.task, seed=int(s)))
print(perf_counter() - t0)
