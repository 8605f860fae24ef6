import pytest

import cogrelay
from cogrelay import analytics, model, optimizer, oracle, simulator


@pytest.mark.parametrize("module", [analytics, model, optimizer, oracle, simulator])
def test_package_exports_every_public_name(module):
    for name in module.__all__:
        assert name in cogrelay.__all__
        assert getattr(cogrelay, name) is getattr(module, name)


def test_package_exports_are_unique():
    assert len(cogrelay.__all__) == len(set(cogrelay.__all__))
    assert "__version__" in cogrelay.__all__
