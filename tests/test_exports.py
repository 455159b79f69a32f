import riccialign


def test_every_exported_name_resolves():
    missing = [name for name in riccialign.__all__ if not hasattr(riccialign, name)]
    assert missing == []
