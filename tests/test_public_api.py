import hypercut


def test_every_exported_name_resolves():
    assert len(hypercut.__all__) == len(set(hypercut.__all__))
    for name in hypercut.__all__:
        assert getattr(hypercut, name, None) is not None, name


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from hypercut import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(hypercut.__all__)
