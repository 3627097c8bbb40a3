"""Command-line front end.

Subcommands mirror the library layers: ``magic exact`` for oracle values,
``rcm estimate`` for the sampled pipeline, ``mitigate`` for readout
correction, ``erase sweep`` for rotation-angle landscapes, ``fit rb`` for
decay fits, and ``report table1|fig3|fig4`` for the bundled reference
reports. Exit status is 0 when all report flags pass, 2 when any flag
fails, and 1 on errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .benchfit import avg_gate_fidelity, decay_curve_from_csv, fit_exp_decay
from .circuits import run_circuit
from .erasure import landscape_to_csv, sweep_landscape
from .magic import sre_exact, stabilizer_purity_exact
from .mitigation import (
    InitializationCounts,
    calibration_from_counts,
    mitigate_least_squares,
    readout_fidelity,
)
from .noise import CalibrationMatrix, NoiseConfig
from .qcore import partial_trace, purity
from .rcm import exhaustive_size
from .scenarios import (
    Report,
    ReportFlag,
    ReportValue,
    Scenario,
    report_fig3,
    report_fig4,
    report_table1,
    run_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nlmagic")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", type=Path, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", type=Path, default=None, help="directory for outputs")
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text", dest="fmt"
        )

    p_magic = sub.add_parser("magic", help="exact magic oracles")
    magic_sub = p_magic.add_subparsers(dest="action", required=True)
    p_exact = magic_sub.add_parser("exact", help="oracle values for a scenario state")
    add_common(p_exact)

    p_rcm = sub.add_parser("rcm", help="randomized Clifford measurements")
    rcm_sub = p_rcm.add_subparsers(dest="action", required=True)
    p_est = rcm_sub.add_parser("estimate", help="run the sampled pipeline")
    add_common(p_est)
    p_est.add_argument(
        "--exhaustive",
        action="store_true",
        help="use every Clifford tuple exactly once",
    )

    p_mit = sub.add_parser("mitigate", help="readout error mitigation")
    add_common(p_mit)
    p_mit.add_argument("--input", type=Path, required=True, help="JSON with calibration and probabilities")

    p_erase = sub.add_parser("erase", help="local magic erasure")
    erase_sub = p_erase.add_subparsers(dest="action", required=True)
    p_sweep = erase_sub.add_parser("sweep", help="two-angle residual landscape")
    add_common(p_sweep)
    p_sweep.add_argument("--step-deg", type=float, default=7.5)

    p_fit = sub.add_parser("fit", help="benchmarking fits")
    fit_sub = p_fit.add_subparsers(dest="action", required=True)
    p_rb = fit_sub.add_parser("rb", help="exponential decay fit")
    add_common(p_rb)
    p_rb.add_argument("--input", type=Path, required=True, help="CSV of length,survival")
    p_rb.add_argument("--dim", type=int, default=2, help="Hilbert dimension for fidelity")

    p_report = sub.add_parser("report", help="bundled reference reports")
    report_sub = p_report.add_subparsers(dest="action", required=True)
    for name in ("table1", "fig3", "fig4"):
        rp = report_sub.add_parser(name)
        add_common(rp)
        if name in ("table1", "fig3"):
            rp.add_argument("--p-dep", type=float, default=None)
            rp.add_argument("--n-rand", type=int, default=None)
            rp.add_argument("--n-shot", type=int, default=None)
    return parser


def _load_scenario(args) -> Scenario:
    if args.scenario is None:
        raise ValueError("--scenario is required for this command")
    scenario = Scenario.from_json(args.scenario.read_text())
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _emit(report: Report, args) -> int:
    if args.fmt == "json":
        text = report.to_json()
    elif args.fmt == "csv" and report.curves:
        text = report.curve_csv(next(iter(sorted(report.curves))))
    else:
        text = report.to_text()
    sys.stdout.write(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{report.name}.json").write_text(report.to_json())
        (args.out / f"{report.name}.txt").write_text(report.to_text())
        for key in sorted(report.curves):
            (args.out / f"{report.name}_{key}.csv").write_text(report.curve_csv(key))
    return 0 if report.all_passed else 2


def _cmd_magic_exact(args) -> int:
    scenario = _load_scenario(args)
    rho = run_circuit(scenario.build_circuit(), NoiseConfig(p_dep_cz=scenario.p_dep_cz))
    report = Report(name=f"{scenario.name}-exact", seed=scenario.seed)
    report.values.append(ReportValue("purity", "oracle", purity(rho)))
    report.values.append(
        ReportValue("stab_purity", "oracle", stabilizer_purity_exact(rho))
    )
    report.values.append(ReportValue("sre", "oracle", sre_exact(rho)))
    if rho.num_qubits == 2:
        report.values.append(
            ReportValue("rdm_purity[0]", "oracle", purity(partial_trace(rho, {0})))
        )
    return _emit(report, args)


def _cmd_rcm_estimate(args) -> int:
    scenario = _load_scenario(args)
    if args.exhaustive:
        n = scenario.build_circuit().num_qubits
        scenario = dataclasses.replace(scenario, n_rand=exhaustive_size(n))
    return _emit(run_scenario(scenario), args)


def _cmd_mitigate(args) -> int:
    payload = json.loads(args.input.read_text())
    if "counts" in payload:
        ic = InitializationCounts(
            np.array(payload["counts"], dtype=int), int(payload["n_shot"])
        )
        cal = calibration_from_counts(ic)
    else:
        cal = CalibrationMatrix(np.array(payload["calibration"], dtype=float))
    probs = payload.get("probabilities", [])
    vectors = probs if probs and isinstance(probs[0], list) else [probs]
    report = Report(name="mitigate", seed=0)
    report.values.append(ReportValue("readout_fidelity", "oracle", readout_fidelity(cal)))
    rows = []
    for i, p in enumerate(vectors):
        mitigated = mitigate_least_squares(np.array(p, dtype=float), cal)
        rows.append([float(i)] + [float(x) for x in mitigated])
        for j, x in enumerate(mitigated):
            report.values.append(ReportValue(f"p{i}[{j}]", "estimate", float(x)))
    report.curves["mitigated"] = {
        "columns": ["index"] + [f"p{j}" for j in range(cal.dim)],
        "rows": rows,
    }
    return _emit(report, args)


def _cmd_erase_sweep(args) -> int:
    scenario = _load_scenario(args)
    rho = run_circuit(scenario.build_circuit(), NoiseConfig(p_dep_cz=scenario.p_dep_cz))
    grid = np.deg2rad(np.arange(0.0, 360.0, args.step_deg))
    result = sweep_landscape(rho, grid, grid)
    report = Report(name=f"{scenario.name}-sweep", seed=scenario.seed)
    report.values.append(ReportValue("sweep_min", "estimate", result.residual_m2))
    report.values.append(
        ReportValue("gamma_min_deg", "estimate", float(np.degrees(result.angles.gamma)))
    )
    report.values.append(
        ReportValue("phi_min_deg", "estimate", float(np.degrees(result.angles.phi)))
    )
    report.curves["landscape"] = landscape_to_csv(result)
    return _emit(report, args)


def _cmd_fit_rb(args) -> int:
    curve = decay_curve_from_csv(args.input.read_text())
    fit = fit_exp_decay(curve)
    f_cl, f_avg = avg_gate_fidelity(fit.p, args.dim)
    report = Report(name="rb-fit", seed=0)
    report.values.append(ReportValue("a", "estimate", fit.a))
    report.values.append(ReportValue("p", "estimate", fit.p))
    report.values.append(ReportValue("b", "estimate", fit.b))
    report.values.append(ReportValue("residual_rms", "estimate", fit.residual_rms))
    report.values.append(ReportValue("f_clifford", "estimate", f_cl))
    report.values.append(ReportValue("f_avg_gate", "estimate", f_avg))
    return _emit(report, args)


def _cmd_report(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.action == "table1":
        kwargs = {}
        if args.n_rand is not None:
            kwargs["n_rand"] = args.n_rand
        if args.n_shot is not None:
            kwargs["n_shot"] = args.n_shot
        report = report_table1(p_dep=args.p_dep, seed=seed, **kwargs)
    elif args.action == "fig3":
        kwargs = {}
        if args.n_rand is not None:
            kwargs["n_rand"] = args.n_rand
        if args.n_shot is not None:
            kwargs["n_shot"] = args.n_shot
        report = report_fig3(p_dep=args.p_dep, seed=seed, **kwargs)
    else:
        report = report_fig4(seed=seed)
    return _emit(report, args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "magic":
            return _cmd_magic_exact(args)
        if args.command == "rcm":
            return _cmd_rcm_estimate(args)
        if args.command == "mitigate":
            return _cmd_mitigate(args)
        if args.command == "erase":
            return _cmd_erase_sweep(args)
        if args.command == "fit":
            return _cmd_fit_rb(args)
        if args.command == "report":
            return _cmd_report(args)
        parser.error(f"unknown command {args.command}")
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
