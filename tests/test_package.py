import gpdevopt


def test_star_import_resolves_every_public_name():
    # A name left in __all__ after its import is gone breaks only a star import.
    namespace = {}
    exec("from gpdevopt import *", namespace)
    for name in gpdevopt.__all__:
        assert namespace[name] is getattr(gpdevopt, name)
