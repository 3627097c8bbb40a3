import types

import numpy as np
import pytest

import nlmagic
from nlmagic import (
    collect_dataset,
    run_circuit,
    sample_local_cliffords,
    state_circuit,
    sweep_landscape,
    synth_rb_curve,
)

# The public surface; a change that adds or removes a name updates this.
PUBLIC_NAMES = 49


def test_all_lists_resolvable_names_and_no_module():
    assert len(nlmagic.__all__) == len(set(nlmagic.__all__)) == PUBLIC_NAMES
    for name in nlmagic.__all__:
        assert not isinstance(getattr(nlmagic, name), types.ModuleType), name
    namespace = {}
    exec("from nlmagic import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nlmagic.__all__)
    # The marginal and the partial trace live on as the test suite's
    # references for reduced purity.
    assert not hasattr(nlmagic, "marginalize")
    assert not hasattr(nlmagic, "partial_trace")
    # Non-local magic is the one formula nonlocal_magic(P_A); the Schmidt
    # weight form lives on as the test suite's reference.
    for name in ("magic_report", "MagicReport", "SchmidtSpectrum", "schmidt_spectrum", "nonlocal_magic_schmidt"):
        assert not hasattr(nlmagic, name), name


# One instance of each frozen dataclass that holds an array, except
# CalibrationMatrix, which compares by value so that scenarios do.
ARRAY_HOLDERS = {
    "DepolarizedState": lambda: run_circuit(state_circuit("m")),
    "RcmDataset": lambda: collect_dataset(run_circuit(state_circuit("m")), sample_local_cliffords(2, 3, 0)),
    "DecayCurve": lambda: synth_rb_curve(0.5, 0.99, 0.5, (1, 10, 20, 50), 0.0, 0),
    "ErasureResult": lambda: sweep_landscape(run_circuit(state_circuit("m")), np.zeros(2), np.zeros(2)),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holding_dataclasses_compare_and_hash_by_identity(make):
    x, y = make(), make()
    assert type(x).__name__ in ARRAY_HOLDERS
    assert (x == x) is True
    assert (x == y) is (x is y)
    assert hash(x) == hash(x)
    assert len({x, y}) == 1 + (x is not y)
