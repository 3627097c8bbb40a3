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

``_OPTIONS`` declares each option once, by name: its flag and its argparse
keywords. ``_COMMANDS`` is the one table of commands: their words, handlers,
option names and help. A well-formed command line is read straight from
these tables, with no parser built: a command's words, then only exact
flags of that command, each at most once, each value a token that does
not start with ``-`` and that the option's ``type`` and ``choices``
accept, and every required flag present. It reads as the namespace
argparse would give it. Any other command line (help, a usage error, an
incomplete or unknown command, ``--flag=value``, an abbreviation, a
repeated flag, a value that starts with ``-``) is read by the full
argparse tree, assembled from the same tables, so every message stays
argparse's own.
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
from .mitigation import (
    calibration_from_counts,
    mitigate_least_squares,
    readout_fidelity,
)
from .noise import CalibrationMatrix
from .rcm import estimator
from .scenarios import (
    Report,
    ReportValue,
    Scenario,
    _read,
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


# Each option by name: its flag and its argparse keywords. A command lists
# the names of the options it takes, in the order its help prints them.
_OPTIONS = {
    "scenario": ("--scenario", {"type": Path, "help": "scenario JSON file"}),
    "seed": ("--seed", {"type": int, "help": "override the seed"}),
    "report-seed": ("--seed", {"type": int, "default": 0, "help": "report seed"}),
    "out": ("--out", {"type": Path, "help": "directory for outputs"}),
    "format": ("--format", {"choices": ("json", "text"), "default": "text", "dest": "fmt"}),
    # csv prints a curve, so only commands that make one offer it.
    "curve-format": ("--format", {"choices": ("json", "csv", "text"), "default": "text", "dest": "fmt"}),
    "exhaustive": ("--exhaustive", {"action": "store_true", "help": (
        "measure each of the 6^N signed Pauli bases once instead of n_rand random draws "
        "(N <= 6): the mean is the exact 24^N Clifford average, sample_std the spread of "
        "the Clifford ensemble and sampling_error that of a 6^N-draw i.i.d. mean; "
        "n_shot shots are drawn for each basis"
    )}),
    "mitigate-input": ("--input", {"type": Path, "required": True, "help": "JSON with calibration and probabilities"}),
    "step-deg": ("--step-deg", {"type": float, "default": 7.5}),
    "rb-input": ("--input", {"type": Path, "required": True, "help": "CSV of length,survival"}),
    "dim": ("--dim", {"type": int, "default": 2, "help": "Hilbert dimension for fidelity"}),
    "n-rand": ("--n-rand", {"type": int}),
    "n-shot": ("--n-shot", {"type": int}),
}

# The mitigate input, in the schema form of ``scenarios._SCENARIO_FILE``: a
# calibration matrix or counts with their n_shot, and one vector or a table.
_MITIGATE_INPUT = {"counts": [["integer"]], "n_shot": "integer", "calibration": [["number"]], "probabilities": "array"}


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
    specs = ["purity", "stab_purity", "sre"]
    if state.num_qubits == 2:
        specs.append(("rdm_purity", (0,)))
    for spec in specs:
        label, _, _, oracle = estimator(spec)
        report.values.append(ReportValue(label, "oracle", oracle(state)))
    return _emit(report, args)


def _cmd_rcm_estimate(args) -> int:
    return _emit(run_scenario(_load_scenario(args), args.exhaustive), args)


def _cmd_mitigate(args) -> int:
    source = "mitigate input"
    payload = _read(json.loads(args.input.read_text()), _MITIGATE_INPUT, "", source)
    if "counts" in payload and "calibration" in payload:
        raise ValueError("mitigate input keys counts and calibration are exclusive")
    if "n_shot" in payload and "counts" not in payload:
        raise ValueError("mitigate input key n_shot needs counts")
    # n_shot goes with counts, calibration is needed without them, and
    # probabilities always; an absent one reads as null and is named.
    if "counts" in payload:
        cal = calibration_from_counts(payload["counts"], _read(payload.get("n_shot"), "integer", "n_shot", source))
    else:
        calibration = _read(payload.get("calibration"), [["number"]], "calibration", source)
        cal = CalibrationMatrix(np.array(calibration, dtype=float))
    probs = payload.get("probabilities")
    schema = [["number"]] if probs and isinstance(probs[0], list) else ["number"]
    vectors = np.atleast_2d(np.array(_read(probs, schema, "probabilities", source), dtype=float))
    report = Report(name="mitigate", seed=0)
    report.values.append(ReportValue("readout_fidelity", "oracle", readout_fidelity(cal)))
    rows = []
    for i, mitigated in enumerate(mitigate_least_squares(vectors, cal)):
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
    for flag, value, least in (("--n-rand", args.n_rand, 2), ("--n-shot", args.n_shot, 1)):
        if value is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    build = report_table1 if args.action == "table1" else report_fig3
    kwargs = {k: getattr(args, k) for k in ("n_rand", "n_shot") if getattr(args, k) is not None}
    return _emit(build(seed=args.seed, **kwargs), args)


# The command words, each command's handler, the names of its options in
# ``_OPTIONS``, and the help of each word (None: argparse lists the word
# bare). The full tree lists the commands in this order.
_COMMANDS = {
    ("magic", "exact"): (
        _cmd_magic_exact, "scenario seed out format", ("exact magic oracles", "oracle values for a scenario state")
    ),
    ("rcm", "estimate"): (
        _cmd_rcm_estimate,
        "scenario seed out format exhaustive",
        ("randomized Clifford measurements", "run the sampled pipeline"),
    ),
    ("mitigate",): (_cmd_mitigate, "out curve-format mitigate-input", ("readout error mitigation",)),
    ("erase", "sweep"): (
        _cmd_erase_sweep,
        "scenario seed out curve-format step-deg",
        ("local magic erasure", "two-angle residual landscape"),
    ),
    ("fit", "rb"): (_cmd_fit_rb, "out format rb-input dim", ("benchmarking fits", "exponential decay fit")),
    ("report", "table1"): (_cmd_report, "report-seed out format n-rand n-shot", ("bundled reference reports", None)),
    ("report", "fig3"): (
        _cmd_report, "report-seed out curve-format n-rand n-shot", ("bundled reference reports", None)
    ),
    ("report", "fig4"): (_cmd_report, "report-seed out curve-format", ("bundled reference reports", None)),
}


def _help(text) -> dict:
    return {} if text is None else {"help": text}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The full argument parser, built once per process from ``_COMMANDS``;
    ``parse_args`` keeps no state between calls."""
    parser = _Parser(prog="nlmagic")
    commands = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for words, (_, options, helps) in _COMMANDS.items():
        if len(words) == 1:
            leaf = commands.add_parser(words[0], **_help(helps[0]))
        else:
            if words[0] not in actions:
                group = commands.add_parser(words[0], **_help(helps[0]))
                actions[words[0]] = group.add_subparsers(dest="action", required=True)
            leaf = actions[words[0]].add_parser(words[1], **_help(helps[1]))
        for name in options.split():
            flag, keywords = _OPTIONS[name]
            leaf.add_argument(flag, **keywords)
    return parser


def _read_argv(argv: list):
    """The namespace the full tree gives a well-formed ``argv`` (see the
    module docstring), with every dest of its command at its default unless
    set and ``command`` and ``action`` as the tree sets them; None for any
    other ``argv``."""
    words = tuple(argv[:2])
    if words not in _COMMANDS:
        words = tuple(argv[:1])
        if words not in _COMMANDS:
            return None
    options, values = {}, dict(zip(("command", "action"), words))
    for name in _COMMANDS[words][1].split():
        flag, keywords = _OPTIONS[name]
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        options[flag] = dest, keywords
        values[dest] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
    tokens = iter(argv[len(words):])
    for token in tokens:
        if token not in options:
            return None
        dest, keywords = options.pop(token)  # popped, so a repeated flag is declined
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if any(keywords.get("required") for _, keywords in options.values()):
        return None
    return argparse.Namespace(**values)


def _parse(argv: list):
    """``(handler, args)`` for ``argv``. A well-formed command line is read
    by ``_read_argv`` alone. Only another builds the full tree, which reads
    it as it always did: it prints argparse's own help or usage error and
    exits, or dispatches a command written in a form only argparse accepts."""
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    return _COMMANDS[(args.command, args.action) if "action" in args else (args.command,)][0], args


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        # Every command that takes --seed needs it >= 0, before it prepares anything.
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return handler(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        # numpy's MemoryError names its allocation; one without a message is named by its type.
        print(f"error: {exc or repr(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
