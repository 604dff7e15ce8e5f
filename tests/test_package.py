"""The package root: every name in ``__all__`` resolves."""

import diversitree


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from diversitree import *", namespace)  # raises on a stale name
    assert sorted(set(diversitree.__all__) - set(namespace)) == []
    assert len(set(diversitree.__all__)) == len(diversitree.__all__)
