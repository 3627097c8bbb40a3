"""One workload process: set up, one cold pass, then warm passes for
``--warm-seconds`` (at least one). ``run.py`` starts it with ``src`` on
``PYTHONPATH`` and reads the JSON it writes to ``--out``; it is not meant
to be run by hand.

Set-up time runs from ``--spawned-at`` (the parent's monotonic clock just
before it started this interpreter) until the inputs are written, so it
covers interpreter start, ``import nlmagic`` and input generation. The
first pass pays every lazy cache, as one CLI invocation does. Each time
is also written scaled by the reference kernel run next to it (see
``reference.py``): set-up by the median of three runs right after it,
each operation of a pass by the runs before and after it. With
``--trace 1`` every traced nlmagic function records spans, and the spans
are written next to ``--out`` at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import platform
import statistics
import time
from pathlib import Path

# Set-up is scaled by the median of this many reference kernel runs made
# right after it.
SETUP_REFERENCES = 3


def blas_info() -> dict:
    """OpenBLAS version and thread count, read from the loaded library."""
    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": config.get("name"), "blas_version": config.get("version"), "blas_threads": None}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--warm-seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import nlmagic
    import nlmagic.cli  # noqa: F401  (imported before tracing so it is patched too)

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    inputs = args.out.parent / f"{args.out.stem}_inputs"
    inputs.mkdir()
    workload = workloads.BY_NAME[args.workload](args.seed, inputs)
    setup_s = time.monotonic() - args.spawned_at

    from reference import Reference

    reference = Reference()
    setup_reference = statistics.median(reference.seconds() for _ in range(SETUP_REFERENCES))

    run_pass = workload.run_pass if tracer is None else tracer.wrap(spans.PASS_SPAN, workload.run_pass)
    passes = []
    warm_until = None
    while True:
        gc.collect()
        record = workloads.Pass(reference)
        t0 = time.perf_counter()
        run_pass(record)
        elapsed = time.perf_counter() - t0
        passes.append(
            {
                "s": record.seconds,
                "scaled_s": record.scaled_s,
                "attempted": record.attempted,
                "failures": record.failures,
            }
        )
        if warm_until is None:
            warm_until = time.monotonic() + args.warm_seconds
        elif time.monotonic() + elapsed > warm_until:
            break

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "setup_scaled_s": reference.scaled(setup_s, setup_reference),
        "passes": passes,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nlmagic": nlmagic.__version__,
            **blas_info(),
        },
    }
    if tracer is not None:
        spans_path = args.out.with_suffix(".spans.npz")
        tracer.save(spans_path)
        result["spans"] = spans_path.name
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
