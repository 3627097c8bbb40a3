"""Benchmark of nlmagic's user paths: the CLI reports, exhaustive and
mitigated RCM estimates, and the exact oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reports --seed 1 --seconds 30 --trace 0

Workloads: reports, exhaustive, readout_mitigated, oracles (see
``workloads.py``). The run starts one workload process after another,
never two at once, for as long as ``--seconds`` can hold another; each is
single-threaded Python with one BLAS thread. Each process sets up, makes
one cold pass and then warm passes for a short slice of ``--seconds``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics, medians of load-scaled times.
  - setup_s: median over processes of the time from interpreter start
    until the inputs are written (``import nlmagic`` included).
  - cold_s: median over processes of the first pass; it pays every lazy
    cache, as one CLI invocation does.
  - run_s: median over all warm passes.
  - peak_rss_mb: median over processes of their peak resident memory
    (the reference kernel's buffers add a fixed 8 MB).
- ``--trace 1``: the per-layer metrics. Processes alternate between
  untraced and traced; the traced ones record spans, whose per-pass self
  time, calls, errors and counters become ``<span>.<metric>`` (medians
  over warm passes; ``.cold_s`` from the first pass), and
  ``tracing_overhead`` is traced over untraced run_s.

The three times are load-scaled: each operation's wall time is divided
by the mean time of a fixed reference kernel run just before and after
it (set-up by the median of three runs right after it), and expressed in
seconds on a host where the kernel takes 30 ms (see ``reference.py``).
On a shared 2-core Xeon VM other tenants slowed whole minutes of a run
by up to 1.7x; over ten runs the wall-clock medians of the same code
spread by up to 0.2 of their value, the scaled medians by under 0.1, and
the scaled medians of loaded and quieter hours differ by under 8%. The
lines before the result give, for each time, the scaled and the
wall-clock median and the highest percentile with ten samples beyond it,
with the sample count, plus the error rate (failed over attempted
operations) and an ``env`` block. Exit status is 1, with no result line,
when the program cannot be found or a workload process dies.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

# Each process makes warm passes for this share of --seconds; processes are
# started one after another while the rest of --seconds can hold another.
WARM_SHARE = 0.07
MIN_PROCESSES = 3
# A process still running this long after its expected end is killed.
GRACE_S = 60.0

END_TO_END = {"setup_s": "s", "cold_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for span in spans.TRACED:
        units.update(
            {f"{span}.s": "s", f"{span}.cold_s": "s", f"{span}.calls": "count", f"{span}.errors": "count"}
        )
    for span, (counter, _, _) in spans.COUNTERS.items():
        units[f"{span}.{counter}"] = "bytes" if counter == "bytes" else "count"
    units["noise.clean_probability_vector.per_draw"] = "1/draw"
    units["tracing_overhead"] = "ratio"
    return units


def run_process(root: Path, workdir: Path, index: int, args, traced: bool) -> dict:
    """Start one workload process, wait for it, and return its result."""
    out = workdir / f"p{index}.json"
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    spawned = time.monotonic()
    command = [
        sys.executable,
        str(Path(__file__).with_name("child.py")),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--spawned-at", repr(spawned),
        "--warm-seconds", repr(args.seconds * WARM_SHARE),
        "--trace", "1" if traced else "0",
        "--out", str(out),
    ]
    with open(workdir / f"p{index}.stderr", "w+") as stderr:
        proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(args.seconds * WARM_SHARE + GRACE_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            stderr.seek(0)
            raise RuntimeError(f"workload process exited {proc.returncode}:\n{stderr.read()[-2000:]}")
    result = json.loads(out.read_text())
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    result["wall_s"] = time.monotonic() - spawned
    result["traced"] = traced
    if traced:
        result["summary"] = spans.summarize(workdir / result["spans"])
    return result


def distribution(values: list[float]) -> str:
    """Median and the highest percentile that has ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} s"
    if n > 10:
        text += f", p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f} s"
    return f"{text} (n={n})"


def samples(results: list[dict], wall: bool = False) -> dict:
    """Every sample of each end-to-end metric; load-scaled times unless ``wall``."""
    key = "s" if wall else "scaled_s"
    return {
        "setup_s": [r["setup_s" if wall else "setup_scaled_s"] for r in results],
        "cold_s": [r["passes"][0][key] for r in results],
        "run_s": [p[key] for r in results for p in r["passes"][1:]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }


def end_to_end(results: list[dict]) -> dict:
    return {name: statistics.median(values) for name, values in samples(results).items()}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    cold = [r["summary"][0] for r in traced]
    warm = [layers for r in traced for layers in r["summary"][1:]]

    def field(layers: dict, span: str, key: str) -> float:
        return layers.get(span, {}).get(key, 0)

    values = {}
    for span in spans.TRACED:
        values[f"{span}.s"] = statistics.median(field(w, span, "self_s") for w in warm)
        values[f"{span}.cold_s"] = statistics.median(field(c, span, "self_s") for c in cold)
        values[f"{span}.calls"] = statistics.median(field(w, span, "calls") for w in warm)
        values[f"{span}.errors"] = sum(field(p, span, "errors") for p in cold + warm)
    for span, (counter, _, _) in spans.COUNTERS.items():
        values[f"{span}.{counter}"] = statistics.median(field(w, span, counter) for w in warm)
    values["noise.clean_probability_vector.per_draw"] = statistics.median(
        field(w, "noise.clean_probability_vector", "calls") / field(w, "rcm.collect_dataset", "draws")
        if field(w, "rcm.collect_dataset", "draws")
        else 0.0
        for w in warm
    )
    values["tracing_overhead"] = end_to_end(traced)["run_s"] / end_to_end(untraced)["run_s"]
    return values


def environment(root: Path, child_env: dict) -> dict:
    env = dict(child_env)
    env["nproc"] = os.cpu_count()
    env["cpu"] = None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), None)
    except OSError:
        pass
    env["git_commit"] = git_commit(root)
    env["src_lines"] = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return env


def git_commit(root: Path):
    """HEAD's commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind so that the running workload process is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "nlmagic" / "__init__.py").is_file():
        print(f"error: no src/nlmagic under {root}; run from the root of a checkout", file=sys.stderr)
        return 1
    workdir = root / "perfbench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        end = time.monotonic() + args.seconds
        results = []
        while len(results) < MIN_PROCESSES or time.monotonic() + statistics.median(r["wall_s"] for r in results) <= end:
            i = len(results)
            results.append(run_process(root, workdir, i, args, traced=bool(args.trace and i % 2)))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    passes = [p for r in results for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for message in failures[:20]:
        print(f"failed: {message}", file=sys.stderr)

    untraced = [r for r in results if not r["traced"]]
    timings = end_to_end(untraced)
    observed, wall = samples(untraced), samples(untraced, wall=True)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(results)} processes, "
        f"{len(failures)} of {attempted} operations failed"
    )
    for name, unit in END_TO_END.items():
        if unit == "s":
            spread = f"scaled {distribution(observed[name])}; wall {distribution(wall[name])}"
        else:
            spread = f"n={len(observed[name])}"
        print(f"  {name:<12} {timings[name]:10.4f} {unit:<3} {spread}")
    print(f"  {'error_rate':<12} {len(failures) / attempted:10.4f} ratio ({len(failures)} of {attempted})")
    metrics, units = timings, END_TO_END
    if args.trace:
        metrics = per_layer([r for r in results if r["traced"]], untraced)
        units = per_layer_units()
        for name, unit in units.items():
            print(f"  {name:<48} {metrics[name]:14.6g} {unit}")
    print(json.dumps({"env": environment(root, results[0]["env"])}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
