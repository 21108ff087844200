"""The package's export list."""

import lagrange_kit


def test_every_export_resolves_once():
    names = lagrange_kit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(lagrange_kit, name)]
    assert missing == []
