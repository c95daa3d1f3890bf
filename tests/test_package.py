"""The public package namespace."""

import orbitq


def test_every_exported_name_resolves():
    missing = [name for name in orbitq.__all__ if not hasattr(orbitq, name)]
    assert not missing
    assert len(set(orbitq.__all__)) == len(orbitq.__all__)
