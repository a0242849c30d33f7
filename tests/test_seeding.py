import numpy as np

from morlext.seeding import derive_seed, seed_sequence


def stream(root_seed, *path):
    return np.random.default_rng(seed_sequence(root_seed, *path)).standard_normal(4)


def test_same_path_same_stream():
    a = stream(7, "init", 3)
    b = stream(7, "init", 3)
    assert (a == b).all()


def test_different_paths_independent():
    a = stream(7, "init", 3)
    b = stream(7, "init", 4)
    c = stream(8, "init", 3)
    assert not (a == b).all()
    assert not (a == c).all()


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(0, "eval.final")
    assert s1 == derive_seed(0, "eval.final")
    assert s1 != derive_seed(0, "eval.select")
    assert s1 != derive_seed(1, "eval.final")
    assert 0 <= s1 < 2**31
