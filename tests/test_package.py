import morlext


def test_every_export_resolves():
    missing = [name for name in morlext.__all__ if not hasattr(morlext, name)]
    assert missing == []
    assert len(set(morlext.__all__)) == len(morlext.__all__)
