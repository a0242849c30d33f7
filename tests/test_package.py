import importlib

import morlext


def test_every_export_resolves():
    missing = [name for name in morlext.__all__ if not hasattr(morlext, name)]
    assert missing == []
    assert len(set(morlext.__all__)) == len(morlext.__all__)


def test_importing_the_main_module_runs_nothing():
    # Tools that walk the package (the bench tracer) import every module.
    importlib.import_module("morlext.__main__")
