"""Scenario-driven pipelines and reference reports.

A scenario bundles a preparation (catalogue id or explicit gate list), a
noise configuration and a list of estimator specs. Every sampled number
reaches a report along one path:

- ``rcm.estimator(spec)`` maps an estimator spec to its label, its
  per-draw statistics and its exact oracle; ``Scenario`` checks the specs
  with it, ``measure`` labels and compares with it, and ``magic exact``
  reads its oracles.
- ``measure`` is the one prepare -> measure -> mitigate -> estimate stage,
  run on a batch of scenarios that share their qubit count, draw count,
  readout, shots, mitigation and estimators. Preparation, Clifford draws,
  shots and oracles stay per scenario; the Walsh transforms, the readout
  product, the cleaning, the mitigation and one reduction of every
  statistic run once over the stacked rows. Each scenario gets the numbers
  a batch of one would give it, each estimate paired with the oracle of
  its prepared state.
- ``run_scenario`` measures a batch of one and compares each estimate with
  its oracle. The table1 and fig3 reports are rows of (row name, state id,
  params); ``_sampled_rows`` measures all rows of a report in one batch at
  the calibrated survival with seed + row index and infers the non-local
  magic from the reduced purity of qubit 0.
- ``_compare`` emits an (estimate, oracle) value pair and its flags, for
  ``run_scenario`` and table1 alike.

fig4 sweeps the erasure angles on exact states and draws nothing. A report
holds every number with its provenance (estimate, oracle, theory or
anchor) and pass/fail flags with explicit tolerances. ``_SCENARIO_FILE``
declares the scenario file format; angles are degrees in files and radians
in memory. Reports serialize to stable JSON: the same scenario and seed
produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuits import STATE_PARAMS, Circuit, GateSpec, state_circuit, run_circuit
from .erasure import degree_grid, landscape_to_csv, sweep_landscape
from .magic import nonlocal_magic, nonlocal_magic_noisy, nonlocal_magic_theta, sre_nlm_depolarized
from .mitigation import mitigate_least_squares
from .noise import CalibrationMatrix, clean_probability_vector, synth_calibration_matrix
from .qcore import DepolarizedState, kept_qubits, reduced_purity
from .rcm import EstimateWithError, collect_rows, estimate_rows, estimator, sample_local_cliffords, signed_bases

SCHEMA_VERSION = 1

DEFAULT_N_RAND = 400
DEFAULT_N_SHOT = 5000

# Reference targets for the bundled reports: theory purity and magic of the
# four catalogue states at the calibrated depolarizing level, and the
# swept-minimum anchor with its frozen survival probability.
TABLE1_PURITY_ANCHOR = 0.94
TABLE1_MAGIC_ANCHORS = {"lm": 0.48, "lm_erased": 0.08, "m": 0.46, "m_erased": 0.27}
TABLE1_PURITY_TOL = 0.02
TABLE1_MAGIC_TOL = 0.05
SWEEP_MIN_ANCHOR = 0.29
SWEEP_MIN_TOL = 0.01
# Survival probability tuned so that the noisy fig4 grid minimum lands on
# SWEEP_MIN_ANCHOR (0.2900 here). It is fitted to that anchor, not derived
# from the table1 calibration: at calibrate_p_dep() = 0.9592 the same
# minimum is 0.2710, so the anchor flag checks the tuning, not a prediction.
SWEEP_P_DEP = 0.949
SWEEP_GRID_STEP_DEG = 7.5
FIG3_THETA_GRID_DEG = tuple(range(5, 50, 5))
# The rows of the sampled reports, each (row name, state id, params).
TABLE1_ROWS = tuple((state_id, state_id, ()) for state_id in TABLE1_MAGIC_ANCHORS)
FIG3_ROWS = tuple((f"nlm(theta={d})", "nlm", (("theta", float(np.deg2rad(d))),)) for d in FIG3_THETA_GRID_DEG)


def calibrate_p_dep() -> float:
    """Survival probability of one global depolarizing application that
    takes a pure two-qubit state to the purity anchor: with d = 4,
    sqrt((d P - 1) / (d - 1))."""
    return float(np.sqrt((4 * TABLE1_PURITY_ANCHOR - 1.0) / (4 - 1.0)))


_JSON_TYPES = {
    "object": dict, "array": list, "string": str, "integer": int, "number": (int, float),
    "boolean": bool,
}

# The scenario file format. A schema is a JSON kind (a key of _JSON_TYPES;
# with a trailing "?" null is allowed too), [item] for an array of items (of
# equally long rows when the item is an array), a tuple of names for an array
# of that many numbers, or a dict for an object of at most its keys, read in
# their order; a key ending in "!" is required, and a null object below the
# top reads as {}. from_json converts state, noise.readout and the estimator
# specs; every other key is the Scenario field of its name.
_SCENARIO_FILE = {
    "version!": "integer",
    "state": {
        "params": "object",
        "circuit": {
            "gates!": [{"angles_deg": ["number"], "qubits!": ["integer"], "kind!": "string"}], "num_qubits!": "integer"
        },
        "id": "string?",
    },
    "noise": {
        "readout": {"matrix": [["number"]], "per_qubit_eps": [("eps01", "eps10")], "correlation": "number"},
        "p_dep_cz": "number",
        "n_shot": "integer?",
    },
    "estimators": "array",  # of names and _RDM_PURITY objects
    "name": "string",
    "n_rand": "integer",
    "seed": "integer",
    "mitigation": "boolean",
}
_RDM_PURITY = {"rdm_purity": {"keep!": ["integer"]}}


def _read(value, schema, path: str, source: str):
    """``value`` once it matches ``schema``, an object holding only the keys
    it has; ``path`` names it in errors, the empty path being the whole file,
    and ``source`` names the kind of file. A boolean is no number, and
    neither is NaN or Infinity."""
    if isinstance(schema, str):
        if value is None and schema[-1] == "?":
            return None
        kind = schema.rstrip("?")
        if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind]):
            problem = f"a JSON {kind}"
        elif isinstance(value, float) and not math.isfinite(value):
            problem = "a finite JSON number"
        else:
            return value
        where = f"{source} key {path}" if path else f"a {source} file"
        raise ValueError(f"{where} must be {problem}, not {json.dumps(value)}")
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            value = {} if value is None and path else _read(value, "object", path, source)
        prefix, keys = f"{path}." if path else "", {key.rstrip("!"): key for key in schema}
        if unknown := sorted(set(value) - set(keys)):
            raise ValueError(f"unknown {source} key {', '.join(prefix + k for k in unknown)}")
        return {k: _read(value.get(k), schema[s], prefix + k, source) for k, s in keys.items() if k in value or k != s}
    if isinstance(schema, tuple):
        numbers = _read(value, ["number"], path, source)
        if len(numbers) != len(schema):
            raise ValueError(f"{source} key {path} has length {len(numbers)}, not {len(schema)} ({', '.join(schema)})")
        return numbers
    if not isinstance(value, list):
        value = _read(value, "array", path, source)
    items = [_read(x, schema[0], f"{path}[{i}]", source) for i, x in enumerate(value)]
    lengths = [len(row) for row in items] if isinstance(schema[0], list) else []
    for i, n in enumerate(lengths):
        if n != lengths[0]:
            raise ValueError(f"{source} key {path}[{i}] has length {n}, {path}[0] has length {lengths[0]}")
    return items


def _keyed(path: str, build, *args):
    """``build(*args)``, a ValueError it raises named by scenario key ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"scenario key {path}: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    name: str
    state_id: Optional[str] = None
    # (name, value) pairs sorted by name, so a scenario is hashable; a dict
    # is accepted and converted.
    state_params: tuple = ()
    circuit: Optional[Circuit] = None
    p_dep_cz: float = 1.0
    readout: Optional[CalibrationMatrix] = None
    n_shot: Optional[int] = None
    n_rand: int = DEFAULT_N_RAND
    seed: int = 0
    estimators: tuple = ("purity", "sre")
    mitigation: bool = False

    def __post_init__(self):
        if (self.state_id is None) == (self.circuit is None):
            raise ValueError("exactly one of state_id or circuit must be given")
        if not self.estimators:
            raise ValueError("estimator list must be non-empty")
        if self.mitigation and self.readout is None:
            raise ValueError("mitigation needs a readout calibration matrix")
        if self.seed < 0:
            raise ValueError(f"scenario key seed must be >= 0, got {self.seed}")
        if self.n_rand < 2:
            raise ValueError(f"scenario key n_rand must be >= 2, got {self.n_rand}")
        if self.n_shot is not None and self.n_shot < 1:
            raise ValueError(f"scenario key noise.n_shot must be >= 1, got {self.n_shot}")
        if not 0.0 <= self.p_dep_cz <= 1.0:
            raise ValueError(f"scenario key noise.p_dep_cz must lie in [0, 1], got {self.p_dep_cz}")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "state_params", tuple(sorted(dict(self.state_params).items())))
        # A catalogue circuit is built here, once, so a bad id or parameter
        # fails on construction as a bad explicit circuit does; so does a bad
        # estimator spec.
        built = self.circuit or state_circuit(self.state_id, dict(self.state_params))
        object.__setattr__(self, "_built", built)
        if self.readout is not None and self.readout.dim != 2**built.num_qubits:
            raise ValueError(
                f"scenario key noise.readout: the calibration is {self.readout.dim}x{self.readout.dim}, "
                f"but the {built.num_qubits}-qubit register has {2**built.num_qubits} outcomes"
            )
        labels = set()
        for i, spec in enumerate(self.estimators):
            label = estimator(spec)[0]
            if label in labels:
                raise ValueError(f"estimator {label} is listed twice")
            labels.add(label)
            if isinstance(spec, tuple):
                _keyed(f"estimators[{i}].rdm_purity.keep", kept_qubits, set(spec[1]), built.num_qubits)

    def build_circuit(self) -> Circuit:
        return self._built

    def prepare(self) -> DepolarizedState:
        """The state (psi, s) the circuit prepares under the depolarizing noise."""
        return run_circuit(self.build_circuit(), self.p_dep_cz)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """The scenario of a file in the ``_SCENARIO_FILE`` format; a key the
        file omits leaves its field at the default."""
        fields = _read(json.loads(text), _SCENARIO_FILE, "", "scenario")
        if (version := fields.pop("version")) != SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario version {version}")
        state, noise = fields.pop("state", {}), fields.pop("noise", {})
        if "params" in state and "circuit" in state:
            raise ValueError("state.params apply to a catalogue id, not to state.circuit")
        if "id" in state:
            fields["state_id"] = state["id"]
        if "params" in state:
            params = fields["state_params"] = {}
            accepted = STATE_PARAMS.get(state.get("id"))
            for k, v in state["params"].items():
                v = _read(v, "number", f"state.params.{k}", "scenario")
                name = k.removesuffix("_deg")
                if accepted is not None and name not in accepted:
                    raise ValueError(
                        f"unknown scenario key state.params.{k} "
                        f"(state {state['id']!r} takes {', '.join(accepted) or 'none'})"
                    )
                if name in params:
                    raise ValueError(f"scenario keys state.params.{name} and state.params.{name}_deg are exclusive")
                params[name] = np.deg2rad(v) if k.endswith("_deg") else v
        if "circuit" in state:
            spec, path = state["circuit"], "state.circuit.gates"
            gates = []
            for i, g in enumerate(spec["gates"]):
                angles = [np.deg2rad(d) for d in g.get("angles_deg", ())]
                gates.append(_keyed(f"{path}[{i}]", GateSpec, g["kind"], g["qubits"], angles))
            try:
                fields["circuit"] = Circuit(spec["num_qubits"], gates)
            except ValueError:
                # Name the key at fault: num_qubits, or the first gate outside the register.
                num_qubits = _keyed("state.circuit.num_qubits", Circuit, spec["num_qubits"], ()).num_qubits
                for i, gate in enumerate(gates):
                    _keyed(f"{path}[{i}]", Circuit, num_qubits, (gate,))
                raise
        readout = noise.pop("readout", {})
        for other in ("per_qubit_eps", "correlation"):
            if "matrix" in readout and other in readout:
                raise ValueError(f"noise.readout.matrix and noise.readout.{other} are exclusive")
        if "matrix" in readout:
            matrix = np.array(readout["matrix"], dtype=float)
            fields["readout"] = _keyed("noise.readout.matrix", CalibrationMatrix, matrix)
        elif "per_qubit_eps" in readout:
            try:
                fields["readout"] = synth_calibration_matrix(**readout)
            except ValueError as exc:
                key = "correlation" if str(exc).startswith("correlation") else "per_qubit_eps"
                raise ValueError(f"scenario key noise.readout.{key}: {exc}") from None
        elif "correlation" in readout:
            raise ValueError("scenario key noise.readout.correlation needs noise.readout.per_qubit_eps")
        fields.update(noise)
        for i, spec in enumerate(fields.get("estimators", ())):
            if isinstance(spec, dict) and "rdm_purity" in spec:
                keep = _read(spec, _RDM_PURITY, f"estimators[{i}]", "scenario")["rdm_purity"]["keep"]
                fields["estimators"][i] = ("rdm_purity", tuple(sorted(keep)))
            elif not isinstance(spec, str):
                raise ValueError(f"unknown estimator spec {spec!r}")
        return cls(**{"name": "scenario", **fields})


@dataclass(frozen=True)
class ReportValue:
    name: str
    provenance: str  # estimate | oracle | theory | anchor
    value: float
    sampling_error: Optional[float] = None
    sample_std: Optional[float] = None
    n_samples: Optional[int] = None

    @classmethod
    def from_estimate(cls, name: str, est: EstimateWithError) -> "ReportValue":
        return cls(name, "estimate", est.mean, est.sampling_error, est.sample_std, est.n_samples)


@dataclass(frozen=True)
class ReportFlag:
    name: str
    value: float
    target: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(abs(self.value - self.target) <= self.tol)


@dataclass
class Report:
    name: str
    seed: int
    values: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(f.passed for f in self.flags)

    def to_payload(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            # A dataclass instance holds its fields in its __dict__;
            # dataclasses.asdict would also deep-copy them, 20x slower.
            "values": [dict(vars(v)) for v in self.values],
            "flags": [{**vars(f), "passed": f.passed} for f in self.flags],
            "curves": self.curves,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"report: {self.name} (seed {self.seed})"]
        lines.append(f"{'value':<34}{'provenance':<11}{'mean':>14}{'error':>12}")
        for v in self.values:
            err = f"{v.sampling_error:.5f}" if v.sampling_error is not None else ""
            lines.append(f"{v.name:<34}{v.provenance:<11}{v.value:>14.6f}{err:>12}")
        if self.flags:
            lines.append("")
            lines.append(f"{'flag':<40}{'value':>12}{'target':>10}{'tol':>9}  status")
            for f in self.flags:
                status = "pass" if f.passed else "FAIL"
                lines.append(
                    f"{f.name:<40}{f.value:>12.5f}{f.target:>10.4f}{f.tol:>9.4f}  {status}"
                )
        return "\n".join(lines) + "\n"

    def curve_csv(self, key: str) -> str:
        curve = self.curves[key]
        if isinstance(curve, str):
            return curve
        lines = [",".join(curve["columns"])]
        for row in curve["rows"]:
            lines.append(",".join(f"{x:.12g}" for x in row))
        return "\n".join(lines) + "\n"


def _flag_tol(est: EstimateWithError, n_shot: Optional[int]) -> float:
    # Exact-probability runs agree with the oracle to float precision; shot
    # noise adds a small plug-in bias on top of the statistical spread.
    floor = 1e-9 if n_shot is None else 5e-3
    return 3.0 * est.sampling_error + floor


def _batch_terms(scenario: Scenario, exhaustive: bool) -> dict:
    """What every scenario of one measured batch must share, by name."""
    return {
        "qubit count": scenario.build_circuit().num_qubits,
        "n_rand": None if exhaustive else scenario.n_rand,
        "readout": scenario.readout,
        "n_shot": scenario.n_shot,
        "mitigation": scenario.mitigation,
        "estimators": scenario.estimators,
    }


def measure(scenarios, exhaustive: bool = False) -> list[dict]:
    """Prepare, measure under random local Cliffords, mitigate readout if
    asked, and estimate, for a batch of scenarios at once.

    Each scenario takes its ``n_rand`` i.i.d. draws and its shots from its
    own seed, or with ``exhaustive`` one draw per signed Pauli basis
    (``signed_bases``), whose mean is the exact Clifford average. The
    scenarios must share the terms of ``_batch_terms``; the first that
    differs is named in a ValueError. Returns, per scenario, ``{label:
    (estimate, oracle)}`` in estimator order, the oracle being the exact
    value on the prepared state; each equals its batch of one.
    """
    if not scenarios:
        raise ValueError("measure needs at least one scenario")
    first = scenarios[0]
    shared = _batch_terms(first, exhaustive)
    for scenario in scenarios[1:]:
        for term, value in _batch_terms(scenario, exhaustive).items():
            if value != shared[term]:
                raise ValueError(
                    f"scenarios measured in one batch must share their {term}: "
                    f"{scenario.name!r} differs from {first.name!r}"
                )
    n = shared["qubit count"]
    if exhaustive:
        bases = signed_bases(n)
        ids = np.broadcast_to(bases, (len(scenarios),) + bases.shape)
    else:
        ids = np.stack([sample_local_cliffords(n, s.n_rand, s.seed) for s in scenarios])
    states = [s.prepare() for s in scenarios]
    seeds = [s.seed for s in scenarios]
    probs = clean_probability_vector(collect_rows(states, ids, first.readout, first.n_shot, seeds))
    if first.mitigation:
        rows = mitigate_least_squares(probs.reshape(-1, probs.shape[-1]), first.readout)
        probs = clean_probability_vector(rows.reshape(probs.shape))
    table = [estimator(spec) for spec in first.estimators]
    return [
        {label: (est, float(oracle(state))) for (label, _, oracle), est in zip(table, estimates)}
        for state, estimates in zip(states, estimate_rows(probs, first.estimators))
    ]


def _compare(report: Report, name: str, est: EstimateWithError, oracle: float, *flags: tuple) -> None:
    """Append ``name``'s estimate and oracle values to ``report``, then one
    flag per ``(flag name, value, target, tol)``."""
    report.values += [ReportValue.from_estimate(name, est), ReportValue(name, "oracle", oracle)]
    report.flags += [ReportFlag(*flag) for flag in flags]


def run_scenario(scenario: Scenario, exhaustive: bool = False) -> Report:
    """Run the scenario's measurement (``measure``) and compare every
    estimate with its oracle."""
    report = Report(name=scenario.name, seed=scenario.seed)
    for label, (est, oracle) in measure([scenario], exhaustive)[0].items():
        _compare(report, label, est, oracle, (f"{label} vs oracle", est.mean, oracle, _flag_tol(est, scenario.n_shot)))
    return report


def _sampled_rows(rows, estimators: tuple, p_dep: Optional[float], seed: int, n_rand: int, n_shot: Optional[int]):
    """Measure every ``(row name, state id, params)`` of a sampled report
    in one batch (``measure``).

    Row i is prepared at the survival ``p_dep`` (``calibrate_p_dep()`` if
    None) and drawn with seed ``seed + i``; ``rdm_purity[0]`` is estimated
    after ``estimators``. Yields ``(scenario, measure results, non-local
    magic inferred from the sampled reduced purity)`` per row, in order.
    """
    p_dep = calibrate_p_dep() if p_dep is None else p_dep
    scenarios = [
        Scenario(
            name=name,
            state_id=state_id,
            state_params=params,
            p_dep_cz=p_dep,
            n_shot=n_shot,
            n_rand=n_rand,
            seed=seed + idx,
            estimators=estimators + (("rdm_purity", (0,)),),
        )
        for idx, (name, state_id, params) in enumerate(rows)
    ]
    for scenario, results in zip(scenarios, measure(scenarios)):
        rdm_est, _ = results["rdm_purity[0]"]
        # A sampled reduced purity may fluctuate past the attainable ceiling
        # of the noise model; tolerate excursions consistent with the
        # sampling error (they clamp to a product state) and only reject
        # real mismatches.
        atol = 3.0 * rdm_est.sampling_error + 1e-6
        yield scenario, results, nonlocal_magic_noisy(min(rdm_est.mean, 1.0), p_dep, atol=atol)


def report_table1(
    p_dep: Optional[float] = None,
    seed: int = 0,
    n_rand: int = DEFAULT_N_RAND,
    n_shot: Optional[int] = DEFAULT_N_SHOT,
) -> Report:
    """Purity and magic of the four catalogue states under calibrated noise.

    The depolarizing survival is calibrated once so every preparation (each
    containing a single two-qubit gate) lands on the purity anchor; the
    estimates are then checked against the reference purity and magic
    anchors and against their own sampling errors.
    """
    report = Report(name="table1", seed=seed)
    for scenario, results, nl_est in _sampled_rows(TABLE1_ROWS, ("purity", "sre"), p_dep, seed, n_rand, n_shot):
        row = scenario.name
        (pur_est, pur_oracle), (sre_est, sre_oracle) = results["purity"], results["sre"]
        magic_anchor = TABLE1_MAGIC_ANCHORS[scenario.state_id]
        # The purity anchor pins the calibration: every preparation holds a
        # single two-qubit gate, so the prepared (theory) purity must sit on
        # the anchor. The estimate is checked at its own statistical scale;
        # its intrinsic spread at 400 draws (about 0.04) is wider than the
        # calibration tolerance.
        _compare(
            report, f"{row}.purity", pur_est, pur_oracle,
            (f"{row}.purity(theory) vs anchor", pur_oracle, TABLE1_PURITY_ANCHOR, TABLE1_PURITY_TOL),
            (f"{row}.purity within 3 errors", pur_est.mean, TABLE1_PURITY_ANCHOR, 3.0 * pur_est.sampling_error),
        )
        _compare(
            report, f"{row}.sre", sre_est, sre_oracle,
            (f"{row}.sre vs anchor", sre_est.mean, magic_anchor, TABLE1_MAGIC_TOL),
            (f"{row}.sre within 3 errors", sre_est.mean, magic_anchor, 3.0 * sre_est.sampling_error),
        )
        rdm_est, rdm_oracle = results["rdm_purity[0]"]
        report.values += [
            ReportValue(f"{row}.purity", "anchor", TABLE1_PURITY_ANCHOR),
            ReportValue(f"{row}.sre", "anchor", magic_anchor),
            ReportValue.from_estimate(f"{row}.rdm_purity[0]", rdm_est),
            ReportValue(f"{row}.nonlocal_magic_rdm", "estimate", nl_est),
            ReportValue(f"{row}.nonlocal_magic_rdm", "oracle", nonlocal_magic_noisy(rdm_oracle, scenario.p_dep_cz)),
        ]
    return report


def report_fig3(
    p_dep: Optional[float] = None,
    seed: int = 0,
    n_rand: int = DEFAULT_N_RAND,
    n_shot: Optional[int] = DEFAULT_N_SHOT,
) -> Report:
    """Magic of the Schmidt-angle family versus the closed-form noisy curve.

    Emits one row per angle of ``FIG3_THETA_GRID_DEG`` with the estimate,
    its error, the closed-form value, and the non-local magic inferred from
    the reduced-state purity.
    """
    report = Report(name="fig3", seed=seed)
    rows = []
    sampled = _sampled_rows(FIG3_ROWS, ("sre",), p_dep, seed, n_rand, n_shot)
    for theta_deg, (scenario, results, nl_est) in zip(FIG3_THETA_GRID_DEG, sampled):
        theta = dict(scenario.state_params)["theta"]
        sre_est, _ = results["sre"]
        theory = sre_nlm_depolarized(1.0 - scenario.p_dep_cz, theta)
        nl_theory = nonlocal_magic_theta(theta)
        rows.append(
            [
                float(theta_deg),
                sre_est.mean,
                sre_est.sampling_error,
                theory,
                nl_est,
                nl_theory,
            ]
        )
        report.flags.append(
            ReportFlag(
                f"sre(theta={theta_deg}) within 3 errors of theory",
                sre_est.mean,
                theory,
                _flag_tol(sre_est, n_shot),
            )
        )
    report.curves["fig3"] = {
        "columns": [
            "theta_deg",
            "m2_estimate",
            "m2_sampling_error",
            "m2_theory",
            "nonlocal_magic_rdm",
            "nonlocal_magic_theory",
        ],
        "rows": rows,
    }
    return report


def report_fig4(seed: int = 0) -> Report:
    """Residual-magic landscape over the two Rz sweep angles, on a
    ``SWEEP_GRID_STEP_DEG`` grid.

    Runs the sweep twice: noise free, whose minimum must equal the state's
    exact non-local magic, and at ``SWEEP_P_DEP``, whose grid minimum is
    checked against the landscape anchor. That survival probability was
    tuned to put this minimum on the anchor, so the anchor flag confirms the
    tuning rather than tests a prediction.
    """
    grid = degree_grid(SWEEP_GRID_STEP_DEG)
    base = state_circuit("m")
    noisy = run_circuit(base, SWEEP_P_DEP)
    clean = run_circuit(base)
    noisy_sweep = sweep_landscape(noisy, grid, grid)
    clean_sweep = sweep_landscape(clean, grid, grid)
    nl_oracle = nonlocal_magic(reduced_purity(clean, {0}))

    report = Report(name="fig4", seed=seed)
    report.values.append(
        ReportValue("sweep_min(noisy)", "estimate", noisy_sweep.residual_m2)
    )
    report.values.append(ReportValue("sweep_min(noisy)", "anchor", SWEEP_MIN_ANCHOR))
    report.values.append(
        ReportValue("sweep_min(noise-free)", "estimate", clean_sweep.residual_m2)
    )
    report.values.append(ReportValue("nonlocal_magic", "oracle", nl_oracle))
    report.values.append(
        ReportValue("gamma_min_deg", "estimate", float(np.degrees(noisy_sweep.angles.gamma)))
    )
    report.values.append(
        ReportValue("phi_min_deg", "estimate", float(np.degrees(noisy_sweep.angles.phi)))
    )
    report.flags.append(
        ReportFlag(
            "sweep minimum vs anchor",
            noisy_sweep.residual_m2,
            SWEEP_MIN_ANCHOR,
            SWEEP_MIN_TOL,
        )
    )
    report.flags.append(
        ReportFlag(
            "noise-free minimum vs non-local magic",
            clean_sweep.residual_m2,
            nl_oracle,
            1e-6,
        )
    )
    report.curves["fig4"] = landscape_to_csv(noisy_sweep)
    return report
