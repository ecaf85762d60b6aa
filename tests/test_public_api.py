"""The package's public names: ``__all__`` lists exactly what it exports."""

import atomwall


def test_every_public_name_resolves():
    assert [name for name in atomwall.__all__ if not hasattr(atomwall, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from atomwall import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(atomwall.__all__)
