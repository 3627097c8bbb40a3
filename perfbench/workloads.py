"""The four benchmark workloads: seeded inputs, one pass of top-level calls,
and the correctness check applied to every call.

A workload object is built once per process (the set-up the benchmark
times): it derives every input from the run seed and writes the scenario
JSON and CSV files the CLI reads. ``run_pass`` then makes one pass of
top-level calls through the public entry points, ``nlmagic.cli.main`` with
stdout captured where a CLI path exists and the library function where it
does not. Every call is one operation. It fails when it raises, when the
CLI exits 1, or when its output fails a check. Exit status 2 (a report
flag failed) is not a failure here: the flags judge the science, the
checks below judge the program.

The checks do not use the reported sampling errors. Exact paths are held
to the oracle at the printed precision; sampled paths are held to a fixed
band around the oracle, set from the spread of the estimates over seeds
(see ``BANDS``).

Output formats: ``--format json`` raises ``TypeError`` for every report
whose flags carry a sampling error (``table1``, ``fig3`` and every ``rcm
estimate``), because those flags hold ``numpy.bool_``. Those calls use the
text table (six decimals) or, for ``fig3``, the CSV curve (twelve
significant digits); ``fig4``, ``magic exact`` and ``fit rb`` use JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("reports", "exhaustive", "readout_mitigated", "oracles")

# Largest allowed |estimate - oracle| for the sampled paths. Over seeds
# 0-99 of this benchmark the deviations had standard deviations of 0.012
# (sre) to 0.053 (non-local magic) and never exceeded half of these bands,
# which are about eight standard deviations wide, so a correct program does
# not fail on any seed while a wrong oracle, estimator or sampler does.
# ``readout`` holds one readout scenario (50 draws; standard deviations
# 0.031-0.082), ``readout_mean`` the mean deviation over the four scenarios
# of a regime (0.016-0.043); only the latter is tight enough to catch
# unmitigated harsh readout, which biases purity by -0.6.
BANDS = {
    "table1.purity": 0.35,
    "table1.sre": 0.125,
    "table1.nonlocal_magic_rdm": 0.4,
    "fig3.sre": 0.1,
    "fig3.nonlocal_magic_rdm": 0.45,
    "readout.purity": 0.75,
    "readout.sre": 0.26,
    "readout.rdm_purity": 0.35,
    "readout_mean.purity": 0.35,
    "readout_mean.sre": 0.13,
    "readout_mean.rdm_purity": 0.17,
    "rb.p": 2.5e-3,
}
# Two values equal to 1e-12 print the same six decimals, or differ by one
# unit in the last place when they straddle a rounding boundary.
PRINTED_TOL = 1.5e-6
EXACT_TOL = 1e-12
IDENTITY_TOL = 1e-10
# Closed-form non-local magic of the catalogue state ``m``, to 7 digits.
M_NONLOCAL = 0.1926451
M_NONLOCAL_TOL = 5e-8

RB_POINTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class CheckFailed(Exception):
    """An output disagreed with its expected value."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Pass:
    """Counts the operations of one pass, keeps their failures and times them.

    ``seconds`` is the wall time of the operations, checks included. Given
    a ``reference.Reference``, its kernel also runs before the first
    operation and after each one, and ``scaled_s`` sums each operation's
    time scaled by the mean of the two kernel times around it.
    """

    def __init__(self, reference=None):
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds = 0.0
        self.scaled_s = 0.0
        self._reference = reference
        self._before = reference.seconds() if reference is not None else None

    def op(self, name, call, check=None):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
            if check is not None:
                check(result)
        except Exception as exc:  # one failed operation must not end the run
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            result = None
        elapsed = time.perf_counter() - t0
        self.seconds += elapsed
        if self._reference is not None:
            after = self._reference.seconds()
            self.scaled_s += self._reference.scaled(elapsed, (self._before + after) / 2)
            self._before = after
        return result


def run_cli(argv: list[str]) -> str:
    """``nlmagic.cli.main(argv)`` with stdout captured; exit 1 raises."""
    from nlmagic import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _require(code in (0, 2), f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Checks. Each takes an output and its expectation and raises CheckFailed.


def json_values(text: str) -> dict:
    """``{(name, provenance): value}`` from a report's JSON text."""
    payload = json.loads(text)
    return {(v["name"], v["provenance"]): v["value"] for v in payload["values"]}


def text_values(text: str) -> dict:
    """``{(name, provenance): value}`` from a report's text table."""
    lines = text.splitlines()
    _require(len(lines) > 2 and lines[1].split()[:2] == ["value", "provenance"], "no value table")
    values = {}
    for line in lines[2:]:
        if not line.strip():
            break
        name, provenance, value = line.split()[:3]
        values[(name, provenance)] = float(value)
    return values


def csv_rows(text: str) -> list[dict]:
    header, *rows = text.strip().splitlines()
    columns = header.split(",")
    return [dict(zip(columns, map(float, row.split(",")))) for row in rows]


def check_close(label: str, value: float, expected: float, tol: float) -> None:
    _require(
        math.isfinite(value) and abs(value - expected) <= tol,
        f"{label} = {value!r}, expected {expected!r} within {tol:g}",
    )


def check_estimates(text: str, tols: dict) -> None:
    """Each estimate in a report lies within ``tols[label]`` of its oracle.

    ``tols`` maps a value name (or its prefix before ``[``) to a tolerance;
    every named estimator must be present.
    """
    values = text_values(text)
    seen = set()
    for (name, provenance), value in values.items():
        if provenance != "estimate":
            continue
        key = name.split("[")[0]
        _require(key in tols, f"unexpected estimate {name}")
        check_close(name, value, values[(name, "oracle")], tols[key])
        seen.add(key)
    _require(seen == set(tols), f"estimates {sorted(seen)} != {sorted(tols)}")


def check_mean_estimates(texts: list[str], tols: dict) -> None:
    """The mean of each estimate's deviation from its oracle over ``texts``
    lies within ``tols[label]`` of zero."""
    deviations: dict[str, list[float]] = {key: [] for key in tols}
    for text in texts:
        values = text_values(text)
        for (name, provenance), value in values.items():
            key = name.split("[")[0]
            if provenance == "estimate" and key in deviations:
                deviations[key].append(value - values[(name, "oracle")])
    for key, tol in tols.items():
        _require(bool(deviations[key]), f"no {key} estimate")
        check_close(f"mean {key} deviation", sum(deviations[key]) / len(deviations[key]), 0.0, tol)


def check_table1(text: str) -> None:
    values = text_values(text)
    for state in ("lm", "lm_erased", "m", "m_erased"):
        for quantity in ("purity", "sre", "nonlocal_magic_rdm"):
            name = f"{state}.{quantity}"
            check_close(
                name,
                values[(name, "estimate")],
                values[(name, "oracle")],
                BANDS[f"table1.{quantity}"],
            )


def check_fig3(text: str) -> None:
    rows = csv_rows(text)
    _require(len(rows) == 9, f"fig3 has {len(rows)} rows, not 9")
    for row in rows:
        theta = row["theta_deg"]
        check_close(
            f"fig3 m2({theta})", row["m2_estimate"], row["m2_theory"], BANDS["fig3.sre"]
        )
        check_close(
            f"fig3 nonlocal({theta})",
            row["nonlocal_magic_rdm"],
            row["nonlocal_magic_theory"],
            BANDS["fig3.nonlocal_magic_rdm"],
        )


def check_fig4(text: str) -> None:
    values = json_values(text)
    check_close(
        "fig4 noise-free minimum",
        values[("sweep_min(noise-free)", "estimate")],
        values[("nonlocal_magic", "oracle")],
        IDENTITY_TOL,
    )
    check_close("fig4 oracle", values[("nonlocal_magic", "oracle")], M_NONLOCAL, M_NONLOCAL_TOL)


def check_identical(label: str, text: str, reference: str) -> None:
    _require(text == reference, f"{label} output differs from the first pass")


def check_purity(text: str, survival: float, num_cz: int, num_qubits: int) -> None:
    """Purity after ``num_cz`` global depolarizations is q^2 + (1 - q^2)/d."""
    q = survival**num_cz
    d = 2**num_qubits
    check_close(
        "purity",
        json_values(text)[("purity", "oracle")],
        q * q + (1.0 - q * q) / d,
        EXACT_TOL,
    )


def check_additive(total: float, part_a: float, part_b: float) -> None:
    """M2 of a product state is the sum of the M2 of its factors."""
    check_close("sre(product)", total, part_a + part_b, IDENTITY_TOL)


def check_erasure(result) -> None:
    """The erasure optimizer on pure ``m`` reaches its non-local magic."""
    check_close("erasure floor", result.residual_m2, M_NONLOCAL, M_NONLOCAL_TOL)


def check_fit(text: str, p_true: float, tol: float) -> None:
    check_close("rb p", json_values(text)[("p", "estimate")], p_true, tol)


# ---------------------------------------------------------------------------
# Input generation


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def random_gates(rng, num_qubits: int, layers: int, offset: int = 0) -> list[dict]:
    """Brickwork of random single-qubit rotations, T gates and CNOT/CZ.

    Angles are drawn from the generator, in degrees as the scenario format
    expects; ``offset`` shifts every qubit index.
    """
    gates = []
    for layer in range(layers):
        for q in range(num_qubits):
            theta, phi = rng.uniform(0.0, 360.0, size=2)
            gates.append({"kind": "Rxy", "qubits": [q + offset], "angles_deg": [theta, phi]})
            if rng.random() < 0.5:
                gates.append({"kind": "T", "qubits": [q + offset]})
        for q in range(layer % 2, num_qubits - 1, 2):
            kind = "CNOT" if rng.random() < 0.5 else "CZ"
            gates.append({"kind": kind, "qubits": [q + offset, q + 1 + offset]})
    return gates


def scenario_json(name: str, num_qubits: int, gates: list[dict], **fields) -> str:
    payload = {
        "version": 1,
        "name": name,
        "state": {"circuit": {"num_qubits": num_qubits, "gates": gates}},
    }
    payload.update(fields)
    return json.dumps(payload, indent=1)


def _num_cz(gates: list[dict]) -> int:
    return sum(g["kind"] in ("CZ", "CNOT") for g in gates)


# ---------------------------------------------------------------------------
# Workloads


class Reports:
    """``report table1|fig3|fig4 --seed <s>``: the paper's output.

    Cold and warm passes must print byte-identical output for the same seed.
    """

    name = "reports"
    REPORTS = (("table1", "text", check_table1), ("fig3", "csv", check_fig3), ("fig4", "json", check_fig4))

    def __init__(self, seed: int, workdir: Path):
        self.report_seed = int(_rng(seed, self.name).integers(0, 2**31))
        self.first: dict[str, str] = {}

    def run_pass(self, p: Pass) -> None:
        for report, fmt, check_report in self.REPORTS:
            argv = ["report", report, "--format", fmt, "--seed", str(self.report_seed)]

            def check(text, report=report, check_report=check_report):
                check_report(text)
                check_identical(report, text, self.first.setdefault(report, text))

            p.op(f"report {report}", lambda argv=argv: run_cli(argv), check)


class Exhaustive:
    """``rcm estimate --exhaustive`` at N = 2 (576 draws) and N = 3 (13,824).

    Exact probabilities, so every estimate must equal its oracle to the
    printed precision.
    """

    name = "exhaustive"
    ESTIMATORS = dict.fromkeys(("purity", "stab_purity", "sre", "rdm_purity"), PRINTED_TOL)

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, self.name)
        self.paths = []
        for n, keep in ((2, [0]), (3, [0, 2])):
            path = workdir / f"exhaustive_n{n}.json"
            path.write_text(
                scenario_json(
                    f"exhaustive-n{n}",
                    n,
                    random_gates(rng, n, layers=n),
                    noise={"p_dep_cz": float(rng.uniform(0.9, 1.0))},
                    seed=int(rng.integers(0, 2**31)),
                    estimators=["purity", "stab_purity", "sre", {"rdm_purity": {"keep": keep}}],
                )
            )
            self.paths.append(path)

    def run_pass(self, p: Pass) -> None:
        for path in self.paths:
            argv = ["rcm", "estimate", "--scenario", str(path), "--exhaustive"]
            p.op(
                f"rcm estimate {path.name}",
                lambda argv=argv: run_cli(argv),
                lambda text: check_estimates(text, self.ESTIMATORS),
            )


class ReadoutMitigated:
    """``rcm estimate`` with readout error, shots and mitigation, N = 2.

    The mild calibration matrix (flip rates 0.02-0.06) takes about ten
    solver iterations per vector, the harsh one (0.2-0.35 plus correlated
    flips) about a hundred. Both matrices are fixed; the seed picks the four
    states of each regime and their scenario seeds. Each estimate is held to
    a wide band, and the mean deviation over a regime's four to a narrow
    one, checked with the regime's last call.
    """

    name = "readout_mitigated"
    # Regime -> (per-qubit flip rates (p(1|0), p(0|1)), correlation).
    REGIMES = {
        "mild": ([[0.02, 0.04], [0.03, 0.06]], 0.0),
        "harsh": ([[0.2, 0.3], [0.25, 0.35]], 0.05),
    }
    # The solver's iteration count depends on the state: over ten seeds the
    # total per pass varied by 7% (relative standard deviation) with one
    # state of 200 draws per regime, and by 4% with four states of 50.
    STATES = 4
    N_RAND = 50
    N_SHOT = 5000
    ESTIMATORS = {key: BANDS[f"readout.{key}"] for key in ("purity", "sre", "rdm_purity")}
    MEAN_ESTIMATORS = {key: BANDS[f"readout_mean.{key}"] for key in ESTIMATORS}

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, self.name)
        self.regimes: dict[str, list[Path]] = {}
        for regime, (eps, correlation) in self.REGIMES.items():
            self.regimes[regime] = []
            for k in range(self.STATES):
                path = workdir / f"readout_{regime}_{k}.json"
                path.write_text(
                    scenario_json(
                        f"readout-{regime}-{k}",
                        2,
                        random_gates(rng, 2, layers=2),
                        noise={
                            "p_dep_cz": float(rng.uniform(0.9, 1.0)),
                            "readout": {"per_qubit_eps": eps, "correlation": correlation},
                            "n_shot": self.N_SHOT,
                        },
                        n_rand=self.N_RAND,
                        seed=int(rng.integers(0, 2**31)),
                        estimators=["purity", "sre", {"rdm_purity": {"keep": [0]}}],
                        mitigation=True,
                    )
                )
                self.regimes[regime].append(path)

    def run_pass(self, p: Pass) -> None:
        for paths in self.regimes.values():
            texts: list[str] = []
            for path in paths:

                def check(text, last=path == paths[-1], texts=texts):
                    check_estimates(text, self.ESTIMATORS)
                    texts.append(text)
                    if last:
                        check_mean_estimates(texts, self.MEAN_ESTIMATORS)

                argv = ["rcm", "estimate", "--scenario", str(path)]
                p.op(f"rcm estimate {path.name}", lambda argv=argv: run_cli(argv), check)


class Oracles:
    """Exact oracles at N = 5 and 6, the erasure optimizer and RB fits.

    The N = 6 state is the product of two 3-qubit states, so its M2 must be
    the sum of theirs; the N = 5 state is depolarized after every CZ, so its
    purity has a closed form.
    """

    name = "oracles"

    def __init__(self, seed: int, workdir: Path):
        from nlmagic import Scenario, synth_rb_curve

        rng = _rng(seed, self.name)
        n5_gates = random_gates(rng, 5, layers=3)
        self.n5_survival = float(rng.uniform(0.95, 1.0))
        self.n5_num_cz = _num_cz(n5_gates)
        self.n5 = workdir / "oracle_n5.json"
        self.n5.write_text(
            scenario_json("oracle-n5", 5, n5_gates, noise={"p_dep_cz": self.n5_survival})
        )
        halves = [random_gates(rng, 3, layers=2), random_gates(rng, 3, layers=2, offset=3)]
        self.n6 = workdir / "oracle_n6.json"
        self.n6.write_text(scenario_json("oracle-n6", 6, halves[0] + halves[1]))
        # The factors, moved back onto qubits 0-2, for the library oracle.
        for g in halves[1]:
            g["qubits"] = [q - 3 for q in g["qubits"]]
        self.factors = [
            Scenario.from_json(scenario_json(f"factor-{i}", 3, gates)).build_circuit()
            for i, gates in enumerate(halves)
        ]
        self.erasure_seed = int(rng.integers(0, 2**31))
        self.curves = []
        for i, sigma in enumerate((0.0, 0.002)):
            a, p, b = rng.uniform(0.4, 0.5), rng.uniform(0.95, 0.99), rng.uniform(0.45, 0.5)
            curve = synth_rb_curve(a, p, b, RB_POINTS, sigma, int(rng.integers(0, 2**31)))
            path = workdir / f"rb_{i}.csv"
            rows = "".join(f"{n},{float(y)!r}\n" for n, y in zip(curve.n_cliffords, curve.survival))
            path.write_text("length,survival\n" + rows)
            self.curves.append((path, float(p), BANDS["rb.p"] if sigma else IDENTITY_TOL))

    def run_pass(self, p: Pass) -> None:
        from nlmagic import OptConfig, optimize_erasure, run_circuit, sre_exact, state_circuit

        p.op(
            "magic exact n5",
            lambda: run_cli(["magic", "exact", "--scenario", str(self.n5), "--format", "json"]),
            lambda text: check_purity(text, self.n5_survival, self.n5_num_cz, 5),
        )
        text = p.op(
            "magic exact n6",
            lambda: run_cli(["magic", "exact", "--scenario", str(self.n6), "--format", "json"]),
        )
        part = p.op("sre_exact factor 0", lambda: sre_exact(run_circuit(self.factors[0])))
        p.op(
            "sre_exact factor 1",
            lambda: sre_exact(run_circuit(self.factors[1])),
            lambda other: check_additive(json_values(text)[("sre", "oracle")], part, other),
        )
        p.op(
            "optimize_erasure m",
            lambda: optimize_erasure(
                run_circuit(state_circuit("m")), OptConfig(seed=self.erasure_seed)
            ),
            check_erasure,
        )
        for path, p_true, tol in self.curves:
            p.op(
                f"fit rb {path.name}",
                lambda path=path: run_cli(["fit", "rb", "--input", str(path), "--format", "json"]),
                lambda text, p_true=p_true, tol=tol: check_fit(text, p_true, tol),
            )


BY_NAME = {w.name: w for w in (Reports, Exhaustive, ReadoutMitigated, Oracles)}
