import shutil
import tempfile

import pytest

from compdepth import CameraIntrinsics

try:
    from hypothesis import configuration, settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Derandomized, with no example database, so every run of the suite
    # tries the same examples. What hypothesis still stores (its constants
    # and unicode caches, and the patches of failing examples) goes to a
    # temporary home that pytest_unconfigure removes, so a run leaves none
    # of its files behind.
    settings.register_profile("reproducible", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("reproducible")
    _HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
    configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)

    def pytest_unconfigure(config):
        shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture
def kitti_cam():
    """Intrinsics of a typical KITTI left color camera."""
    return CameraIntrinsics(f_x=721.5377, f_y=721.5377, c_u=609.5593, c_v=172.854)


@pytest.fixture
def simple_cam():
    """Round numbers so expected pixels can be derived by hand."""
    return CameraIntrinsics(f_x=700.0, f_y=700.0, c_u=600.0, c_v=200.0)
