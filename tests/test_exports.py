"""The package's public names: a star import works and exports them all."""

import nvlog


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from nvlog import *", namespace)
    missing = [name for name in nvlog.__all__ if name not in namespace]
    assert missing == []
    for name in nvlog.__all__:
        assert namespace[name] is getattr(nvlog, name)
