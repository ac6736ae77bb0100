"""The package's public names: every name in ``tcspin.__all__`` resolves, and
the helpers that only the tests call live in ``tests/oracles.py``."""

import importlib

import pytest

import tcspin
from tcspin.pauli import Operator, PauliString

# module -> the names that moved from it to tests/oracles.py
MOVED = {
    "tcspin.dynamics": ("evolve",),
    "tcspin.models": ("build_ghz", "GHZSign"),
    "tcspin.pauli": ("strings_commute", "global_flip_operator", "_BITS_TO_LETTER"),
}


def test_every_exported_name_resolves():
    assert [name for name in tcspin.__all__ if not hasattr(tcspin, name)] == []
    assert len(set(tcspin.__all__)) == len(tcspin.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from tcspin import *", namespace)
    assert set(tcspin.__all__) <= set(namespace)


@pytest.mark.parametrize("module", sorted(MOVED))
def test_moved_names_are_gone_from_the_package(module):
    for name in MOVED[module]:
        assert name not in tcspin.__all__
        assert not hasattr(tcspin, name)
        assert not hasattr(importlib.import_module(module), name)


def test_moved_methods_are_gone_and_the_dataclass_reprs_remain():
    assert not hasattr(Operator, "from_label_terms")
    assert not hasattr(PauliString, "letters")
    s = PauliString.from_letters("XZ", 0.5)
    assert repr(s) == "PauliString(n_sites=2, x_mask=1, z_mask=2, coeff=(0.5+0j))"
    assert repr(Operator(2, (s,))) == f"Operator(n_sites=2, terms=({s!r},))"
