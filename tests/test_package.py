"""The package's export list: every name it declares must exist on the package."""

import quasijoint as qj


def test_every_exported_name_resolves():
    missing = [name for name in qj.__all__ if not hasattr(qj, name)]
    assert missing == []
    assert len(set(qj.__all__)) == len(qj.__all__)
    namespace = {}
    exec("from quasijoint import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qj.__all__)
