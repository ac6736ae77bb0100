"""The package's public names: every name in ``tcspin.__all__`` resolves."""

import tcspin


def test_every_exported_name_resolves():
    assert [name for name in tcspin.__all__ if not hasattr(tcspin, name)] == []
    assert len(set(tcspin.__all__)) == len(tcspin.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from tcspin import *", namespace)
    assert set(tcspin.__all__) <= set(namespace)
