"""The public names of the braidwalk package."""

import braidwalk


def test_every_exported_name_resolves():
    # a removal that leaves its name in __all__ breaks `from braidwalk import *`
    missing = [name for name in braidwalk.__all__ if not hasattr(braidwalk, name)]
    assert missing == []
    assert len(set(braidwalk.__all__)) == len(braidwalk.__all__)
