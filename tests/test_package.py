"""The package's public names."""

import hoidet


def test_every_public_name_resolves():
    # a stale __all__ entry breaks only ``from hoidet import *``
    assert [name for name in hoidet.__all__ if not hasattr(hoidet, name)] == []
