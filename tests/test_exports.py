import types

import nlmagic

# The public surface; a change that adds or removes a name updates this.
PUBLIC_NAMES = 55


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
