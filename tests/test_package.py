import driftless


def test_all_exports_resolve():
    missing = [name for name in driftless.__all__ if not hasattr(driftless, name)]
    assert missing == []
