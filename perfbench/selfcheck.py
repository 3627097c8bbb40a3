"""Self-check of the benchmark harness. It has no timing gate.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Every workload runs once, untraced and traced, for a short time. The
   result line must have exactly the keys ``correct``, ``attempted``,
   ``failed`` and ``metrics``, and every metric that BENCHMARK.json names,
   with its unit. The lines above it must name every end-to-end metric and
   the error rate. No operation may fail.
2. Every correctness check must pass on a real output and fail once the
   output, or the value it is held to, is perturbed.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark must exit non-zero without printing a result.

Exit status 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def problem(message: str) -> None:
    problems.append(message)
    print(f"FAIL {message}")


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_runs(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done = bench(["--workload", workload, "--seed", "0", "--seconds", "2", "--trace", str(trace)], ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problem(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                problem(f"{label}: result keys {sorted(result)}")
                continue
            units = {name: m.get("unit") for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problem(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(expected[trace]))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problem(f"{label}: {result['failed']} of {result['attempted']} operations failed\n{done.stderr[-2000:]}")
            text = "\n".join(lines[:-1])
            for name in [*expected[0], "error_rate"]:
                if name not in text:
                    problem(f"{label}: {name} is not printed by name")
            print(f"ok   {label}: {result['attempted']} operations, {len(units)} metrics")


def perturb_text(text: str, name: str, provenance: str, delta: float) -> str:
    """Shift one value in a report's text table."""
    out = []
    for line in text.splitlines(keepends=True):
        fields = line.split()
        if fields[:2] == [name, provenance]:
            line = line.replace(fields[2], f"{float(fields[2]) + delta:.6f}", 1)
        out.append(line)
    return "".join(out)


def perturb_csv(text: str, column: str, delta: float) -> str:
    header, *rows = text.strip().splitlines()
    k = header.split(",").index(column)
    shifted = []
    for row in rows:
        cells = row.split(",")
        cells[k] = repr(float(cells[k]) + delta)
        shifted.append(",".join(cells))
    return "\n".join([header, *shifted]) + "\n"


def perturb_json(text: str, name: str, provenance: str, delta: float) -> str:
    payload = json.loads(text)
    for v in payload["values"]:
        if (v["name"], v["provenance"]) == (name, provenance):
            v["value"] += delta
    return json.dumps(payload)


def check_checks(workdir: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as w
    from nlmagic import OptConfig, optimize_erasure, run_circuit, sre_exact, state_circuit

    def expect(label: str, call, fails: bool) -> None:
        try:
            call()
        except w.CheckFailed as exc:
            if not fails:
                problem(f"check {label} failed on a real output: {exc}")
            else:
                print(f"ok   check {label} fails when perturbed")
            return
        if fails:
            problem(f"check {label} passed on a perturbed value")

    reports = w.Reports(0, workdir)
    seed = str(reports.report_seed)
    table1 = w.run_cli(["report", "table1", "--seed", seed])
    expect("table1", lambda: w.check_table1(table1), False)
    expect("table1", lambda: w.check_table1(perturb_text(table1, "m.sre", "oracle", 1.0)), True)
    fig3 = w.run_cli(["report", "fig3", "--format", "csv", "--seed", seed])
    expect("fig3", lambda: w.check_fig3(fig3), False)
    expect("fig3", lambda: w.check_fig3(perturb_csv(fig3, "m2_theory", 1.0)), True)
    fig4 = w.run_cli(["report", "fig4", "--format", "json", "--seed", seed])
    expect("fig4", lambda: w.check_fig4(fig4), False)
    expect("fig4", lambda: w.check_fig4(perturb_json(fig4, "nonlocal_magic", "oracle", 1e-6)), True)
    expect("repeat identity", lambda: w.check_identical("table1", table1, table1), False)
    expect(
        "repeat identity",
        lambda: w.check_identical("table1", perturb_text(table1, "m.sre", "estimate", 1e-6), table1),
        True,
    )

    exhaustive = w.run_cli(["rcm", "estimate", "--scenario", str(w.Exhaustive(0, workdir).paths[0]), "--exhaustive"])
    tols = w.Exhaustive.ESTIMATORS
    expect("exhaustive", lambda: w.check_estimates(exhaustive, tols), False)
    expect("exhaustive", lambda: w.check_estimates(perturb_text(exhaustive, "sre", "oracle", 1e-5), tols), True)

    harsh = [
        w.run_cli(["rcm", "estimate", "--scenario", str(path)])
        for path in w.ReadoutMitigated(0, workdir).regimes["harsh"]
    ]
    tols = w.ReadoutMitigated.ESTIMATORS
    expect("readout", lambda: w.check_estimates(harsh[0], tols), False)
    expect("readout", lambda: w.check_estimates(perturb_text(harsh[0], "purity", "oracle", 2.0), tols), True)
    tols = w.ReadoutMitigated.MEAN_ESTIMATORS
    expect("readout mean", lambda: w.check_mean_estimates(harsh, tols), False)
    shifted = [*harsh[:-1], perturb_text(harsh[-1], "sre", "oracle", 1.0)]
    expect("readout mean", lambda: w.check_mean_estimates(shifted, tols), True)

    o = w.Oracles(0, workdir)
    n5 = w.run_cli(["magic", "exact", "--scenario", str(o.n5), "--format", "json"])
    expect("n5 purity", lambda: w.check_purity(n5, o.n5_survival, o.n5_num_cz, 5), False)
    expect("n5 purity", lambda: w.check_purity(n5, o.n5_survival, o.n5_num_cz + 1, 5), True)
    total = w.json_values(w.run_cli(["magic", "exact", "--scenario", str(o.n6), "--format", "json"]))[("sre", "oracle")]
    parts = [sre_exact(run_circuit(c)) for c in o.factors]
    expect("additivity", lambda: w.check_additive(total, *parts), False)
    expect("additivity", lambda: w.check_additive(total + 1e-8, *parts), True)
    erasure = optimize_erasure(run_circuit(state_circuit("m")), OptConfig(seed=o.erasure_seed))
    expect("erasure", lambda: w.check_erasure(erasure), False)
    expect("erasure", lambda: w.check_erasure(SimpleNamespace(residual_m2=erasure.residual_m2 + 1e-6)), True)
    for path, p_true, tol in o.curves:
        fit = w.run_cli(["fit", "rb", "--input", str(path), "--format", "json"])
        expect(f"fit {path.name}", lambda: w.check_fit(fit, p_true, tol), False)
        expect(f"fit {path.name}", lambda: w.check_fit(fit, p_true + 1.5 * tol, tol), True)

    expect("exit status 1", lambda: w.run_cli(["magic", "exact", "--scenario", str(workdir / "missing.json")]), True)
    record = w.Pass()
    record.op("perturbed", lambda: 1.0, lambda x: w.check_close("x", x, 2.0, 0.5))
    if record.attempted != 1 or len(record.failures) != 1:
        problem("a failed check is not recorded as a failed operation")


def check_bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench(["--workload", "reports", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        problem(f"bare directory: exit {done.returncode}, last line {last[0]!r}")
    else:
        print(f"ok   bare directory: exit {done.returncode}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = HERE / ".work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        check_checks(workdir)
        check_bare_directory(workdir)
        check_runs(spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
