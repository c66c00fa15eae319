import polysmooth


def test_every_public_name_resolves():
    missing = [name for name in polysmooth.__all__ if not hasattr(polysmooth, name)]
    assert not missing
    assert len(set(polysmooth.__all__)) == len(polysmooth.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polysmooth import *", namespace)  # a name in __all__ that the package lacks raises here
    assert set(polysmooth.__all__) <= set(namespace)
