"""The package's public names: every export resolves and none is stale."""

import fermigte
from fermigte import bisep, geometry


def test_every_export_resolves():
    assert len(set(fermigte.__all__)) == len(fermigte.__all__)
    for name in fermigte.__all__:
        assert getattr(fermigte, name) is not None, name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from fermigte import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fermigte.__all__)


def test_shapes_have_one_constructor():
    # a configuration is scaled(kfr, <family>_shape(...), dim)
    for name in ("collinear", "isosceles", "polar", "equilateral"):
        assert not hasattr(fermigte, name) and not hasattr(geometry, name)
        assert hasattr(geometry, f"{name}_shape")


def test_bisep_defines_no_types():
    # a section is (r_plus, r3) and its hexagon a tuple of vertices
    owned = [v for v in vars(bisep).values() if isinstance(v, type) and v.__module__ == bisep.__name__]
    assert owned == []
