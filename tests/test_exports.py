import types

import nlmagic


def test_all_lists_resolvable_names_and_no_module():
    assert len(nlmagic.__all__) == len(set(nlmagic.__all__))
    for name in nlmagic.__all__:
        assert not isinstance(getattr(nlmagic, name), types.ModuleType), name
    namespace = {}
    exec("from nlmagic import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nlmagic.__all__)
