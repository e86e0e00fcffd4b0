"""The package namespace: every module's public names, each re-exported once."""

import qillum
from qillum import gaussian, link, montecarlo, protocol, receivers


def test_package_all_is_the_union_of_the_module_alls():
    modules = (gaussian, protocol, receivers, montecarlo, link)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert qillum.__all__ == ["__version__", *names]
    for module in modules:
        for name in module.__all__:
            assert getattr(qillum, name) is getattr(module, name)
