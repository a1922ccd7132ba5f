import numpy as np
import pytest

from compdepth import fuse, weights
from fusion_reference import soft_fuse, table_of


def fuse_one(branches):
    """fuse's depth and weights' row for one object's (z, sigma) pairs."""
    z, sigma = np.array(branches, dtype=float).T
    table = table_of(z[None], sigma[None])
    return fuse(table)[0], tuple(weights(table)[0].tolist())


def test_fuse_hand_value():
    z_soft, w = fuse_one([(20.0, 1.0), (22.0, 3.0)])
    assert z_soft == pytest.approx(20.5)
    assert w == pytest.approx((0.75, 0.25))


def test_fuse_single_branch():
    z_soft, w = fuse_one([(17.3, 2.5)])
    assert z_soft == 17.3
    assert w == (1.0,)


def test_fuse_equal_sigmas_is_mean():
    z_soft, w = fuse_one([(10.0, 2.0), (20.0, 2.0), (30.0, 2.0)])
    assert z_soft == pytest.approx(20.0)
    assert w == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_fuse_properties():
    rng = np.random.default_rng(71)
    for _ in range(300):
        n = rng.integers(1, 6)
        z = rng.uniform(2.0, 80.0, n)
        sigma = rng.uniform(0.05, 9.0, n)
        branches = list(zip(z, sigma))
        z_soft, w = fuse_one(branches)

        # convex combination inside the branch hull, weights sum to 1
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        assert all(wi > 0 for wi in w)
        assert z.min() - 1e-9 <= z_soft <= z.max() + 1e-9

        # scaling every sigma by the same factor changes nothing
        scaled_z, scaled_w = fuse_one([(zi, 3.7 * si) for zi, si in branches])
        assert scaled_z == pytest.approx(z_soft, rel=1e-12)
        assert scaled_w == pytest.approx(w, rel=1e-12)

        # permutation equivariance
        perm = rng.permutation(n)
        shuffled_z, shuffled_w = fuse_one([branches[i] for i in perm])
        assert shuffled_z == pytest.approx(z_soft, rel=1e-12)
        for slot, src in enumerate(perm):
            assert shuffled_w[slot] == pytest.approx(w[src], rel=1e-12)


def test_two_branch_fusion_matches_coupling_error():
    # |z_soft - z*| equals the absolute weighted error sum by construction
    rng = np.random.default_rng(72)
    for _ in range(200):
        z_star = rng.uniform(5.0, 60.0)
        e1, e2 = rng.normal(0.0, 2.0, 2)
        s1, s2 = rng.uniform(0.1, 5.0, 2)
        z_soft, (w1, _) = fuse_one([(z_star + e1, s1), (z_star + e2, s2)])
        assert abs(z_soft - z_star) == pytest.approx(
            abs(w1 * e1 + (1.0 - w1) * e2), abs=1e-12)


def test_soft_fuse_array_matches_scalar():
    rng = np.random.default_rng(73)
    z = rng.uniform(2.0, 80.0, (50, 4))
    sigma = rng.uniform(0.05, 9.0, (50, 4))
    fused = fuse(table_of(z, sigma))
    assert fused.shape == (50,)
    for i in range(50):
        want = soft_fuse(list(zip(z[i], sigma[i]))).z_soft
        assert fused[i] == pytest.approx(want, rel=1e-12)


def test_soft_fuse_array_axis():
    # one fused depth per object, across its branches
    table = table_of([[10.0, 20.0], [30.0, 40.0]], np.ones((2, 2)))
    assert fuse(table).tolist() == [15.0, 35.0]


def test_soft_fuse_array_mask_validation():
    # masked-out cells get weight 0
    table = table_of([[10.0, 20.0], [30.0, 40.0]], np.ones((2, 2)),
                     valid=[[True, False], [False, True]])
    assert fuse(table).tolist() == [10.0, 40.0]
