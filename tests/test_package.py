"""The package's export list."""

from collections import Counter

import nilquat


def test_all_names_resolve_once():
    repeated = [k for k, c in Counter(nilquat.__all__).items() if c > 1]
    assert not repeated
    missing = [k for k in nilquat.__all__ if not hasattr(nilquat, k)]
    assert not missing
