"""Command-line front end.

Subcommands mirror the library layers: ``magic exact`` for oracle values,
``rcm estimate`` for the sampled pipeline, ``mitigate`` for readout
correction, ``erase sweep`` for rotation-angle landscapes, ``fit rb`` for
decay fits, and ``report table1|fig3|fig4`` for the bundled reference
reports. Exit status is 0 when all report flags pass, 2 when any flag
fails, and 1 on errors, usage errors included (an unknown flag, or one the
command does not take). ``--help`` exits 0.

Each command takes only the flags it reads: ``--scenario`` and ``--seed``
where a scenario file is loaded (``--seed`` alone on the reports), and
``--format csv`` only where the output has a curve (``report fig3``,
``report fig4``, ``mitigate`` and ``erase sweep``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .benchfit import avg_gate_fidelity, decay_curve_from_csv, fit_exp_decay
from .erasure import degree_grid, landscape_to_csv, sweep_landscape
from .magic import sre_exact, stabilizer_purity_exact
from .mitigation import (
    InitializationCounts,
    calibration_from_counts,
    mitigate_least_squares,
    readout_fidelity,
)
from .noise import CalibrationMatrix
from .qcore import purity, reduced_purity
from .scenarios import (
    Report,
    ReportValue,
    Scenario,
    _array,
    _rows,
    _typed,
    report_fig3,
    report_fig4,
    report_table1,
    run_scenario,
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other error; argparse's own status 2
    means a report flag failed here. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` keeps no
    state between calls."""
    parser = _Parser(prog="nlmagic")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, curve=False):
        """``--out`` and ``--format``; csv prints a curve, so only commands
        that make one offer it."""
        p.add_argument("--out", type=Path, default=None, help="directory for outputs")
        formats = ("json", "csv", "text") if curve else ("json", "text")
        p.add_argument("--format", choices=formats, default="text", dest="fmt")

    def add_scenario(p):
        p.add_argument("--scenario", type=Path, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")

    p_magic = sub.add_parser("magic", help="exact magic oracles")
    magic_sub = p_magic.add_subparsers(dest="action", required=True)
    p_exact = magic_sub.add_parser("exact", help="oracle values for a scenario state")
    add_scenario(p_exact)
    add_output(p_exact)

    p_rcm = sub.add_parser("rcm", help="randomized Clifford measurements")
    rcm_sub = p_rcm.add_subparsers(dest="action", required=True)
    p_est = rcm_sub.add_parser("estimate", help="run the sampled pipeline")
    add_scenario(p_est)
    add_output(p_est)
    p_est.add_argument(
        "--exhaustive",
        action="store_true",
        help=(
            "measure each of the 6^N signed Pauli bases once instead of n_rand random draws "
            "(N <= 6): the mean is the exact 24^N Clifford average, sample_std the spread of "
            "the Clifford ensemble and sampling_error that of a 6^N-draw i.i.d. mean; "
            "n_shot shots are drawn for each basis"
        ),
    )

    p_mit = sub.add_parser("mitigate", help="readout error mitigation")
    add_output(p_mit, curve=True)
    p_mit.add_argument("--input", type=Path, required=True, help="JSON with calibration and probabilities")

    p_erase = sub.add_parser("erase", help="local magic erasure")
    erase_sub = p_erase.add_subparsers(dest="action", required=True)
    p_sweep = erase_sub.add_parser("sweep", help="two-angle residual landscape")
    add_scenario(p_sweep)
    add_output(p_sweep, curve=True)
    p_sweep.add_argument("--step-deg", type=float, default=7.5)

    p_fit = sub.add_parser("fit", help="benchmarking fits")
    fit_sub = p_fit.add_subparsers(dest="action", required=True)
    p_rb = fit_sub.add_parser("rb", help="exponential decay fit")
    add_output(p_rb)
    p_rb.add_argument("--input", type=Path, required=True, help="CSV of length,survival")
    p_rb.add_argument("--dim", type=int, default=2, help="Hilbert dimension for fidelity")

    p_report = sub.add_parser("report", help="bundled reference reports")
    report_sub = p_report.add_subparsers(dest="action", required=True)
    for name in ("table1", "fig3", "fig4"):
        rp = report_sub.add_parser(name)
        rp.add_argument("--seed", type=int, default=0, help="report seed")
        add_output(rp, curve=name != "table1")
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
    elif args.fmt == "csv":
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
    state = scenario.prepare()
    report = Report(name=f"{scenario.name}-exact", seed=scenario.seed)
    report.values.append(ReportValue("purity", "oracle", purity(state)))
    report.values.append(ReportValue("stab_purity", "oracle", stabilizer_purity_exact(state)))
    report.values.append(ReportValue("sre", "oracle", sre_exact(state)))
    if state.num_qubits == 2:
        report.values.append(ReportValue("rdm_purity[0]", "oracle", reduced_purity(state, {0})))
    return _emit(report, args)


def _cmd_rcm_estimate(args) -> int:
    return _emit(run_scenario(_load_scenario(args), args.exhaustive), args)


def _cmd_mitigate(args) -> int:
    typed, array, table = (functools.partial(f, source="mitigate input") for f in (_typed, _array, _rows))
    payload = typed(json.loads(args.input.read_text()), "", "object")
    if "counts" in payload:
        ic = InitializationCounts(
            np.array(table(payload["counts"], "counts", "integer"), dtype=int),
            typed(payload.get("n_shot"), "n_shot", "integer"),
        )
        cal = calibration_from_counts(ic)
    else:
        calibration = table(payload.get("calibration"), "calibration", "number")
        cal = CalibrationMatrix(np.array(calibration, dtype=float))
    probs = typed(payload.get("probabilities"), "probabilities", "array")
    if probs and isinstance(probs[0], list):
        vectors = table(probs, "probabilities", "number")
    else:
        vectors = [array(probs, "probabilities", "number")]
    report = Report(name="mitigate", seed=0)
    report.values.append(ReportValue("readout_fidelity", "oracle", readout_fidelity(cal)))
    rows = []
    for i, mitigated in enumerate(mitigate_least_squares(np.array(vectors, dtype=float), cal)):
        rows.append([float(i)] + [float(x) for x in mitigated])
        for j, x in enumerate(mitigated):
            report.values.append(ReportValue(f"p{i}[{j}]", "estimate", float(x)))
    report.curves["mitigated"] = {
        "columns": ["index"] + [f"p{j}" for j in range(cal.dim)],
        "rows": rows,
    }
    return _emit(report, args)


def _cmd_erase_sweep(args) -> int:
    grid = degree_grid(args.step_deg, "--step-deg")
    scenario = _load_scenario(args)
    result = sweep_landscape(scenario.prepare(), grid, grid)
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
    if args.action == "fig4":
        return _emit(report_fig4(seed=args.seed), args)
    build = report_table1 if args.action == "table1" else report_fig3
    kwargs = {k: getattr(args, k) for k in ("n_rand", "n_shot") if getattr(args, k) is not None}
    return _emit(build(p_dep=args.p_dep, seed=args.seed, **kwargs), args)


_COMMANDS = {
    "magic": _cmd_magic_exact,
    "rcm": _cmd_rcm_estimate,
    "mitigate": _cmd_mitigate,
    "erase": _cmd_erase_sweep,
    "fit": _cmd_fit_rb,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
