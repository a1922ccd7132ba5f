import numpy as np
import pytest

from compdepth import (
    AllBranchesInvalid,
    EmptyEnsemble,
    LengthMismatch,
    NonPositiveSigma,
    soft_fuse_array,
)
from fusion_reference import soft_fuse


def test_soft_fuse_hand_value():
    fused = soft_fuse([(20.0, 1.0), (22.0, 3.0)])
    assert fused.z_soft == pytest.approx(20.5)
    assert fused.weights == pytest.approx((0.75, 0.25))


def test_soft_fuse_single_branch():
    fused = soft_fuse([(17.3, 2.5)])
    assert fused.z_soft == 17.3
    assert fused.weights == (1.0,)


def test_soft_fuse_equal_sigmas_is_mean():
    fused = soft_fuse([(10.0, 2.0), (20.0, 2.0), (30.0, 2.0)])
    assert fused.z_soft == pytest.approx(20.0)
    assert fused.weights == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_soft_fuse_validation():
    with pytest.raises(EmptyEnsemble):
        soft_fuse_array(np.empty((2, 0)), np.empty((2, 0)))
    with pytest.raises(NonPositiveSigma):
        soft_fuse_array([[20.0]], [[0.0]])
    with pytest.raises(NonPositiveSigma):
        soft_fuse_array([[20.0, 21.0]], [[1.0, -2.0]])


def test_soft_fuse_properties():
    rng = np.random.default_rng(71)
    for _ in range(300):
        n = rng.integers(1, 6)
        z = rng.uniform(2.0, 80.0, n)
        sigma = rng.uniform(0.05, 9.0, n)
        branches = list(zip(z, sigma))
        fused = soft_fuse(branches)

        # convex combination inside the branch hull, weights sum to 1
        assert sum(fused.weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w > 0 for w in fused.weights)
        assert z.min() - 1e-9 <= fused.z_soft <= z.max() + 1e-9

        # scaling every sigma by the same factor changes nothing
        scaled = soft_fuse([(zi, 3.7 * si) for zi, si in branches])
        assert scaled.z_soft == pytest.approx(fused.z_soft, rel=1e-12)
        assert scaled.weights == pytest.approx(fused.weights, rel=1e-12)

        # permutation equivariance
        perm = rng.permutation(n)
        shuffled = soft_fuse([branches[i] for i in perm])
        assert shuffled.z_soft == pytest.approx(fused.z_soft, rel=1e-12)
        for slot, src in enumerate(perm):
            assert shuffled.weights[slot] == pytest.approx(
                fused.weights[src], rel=1e-12)


def test_two_branch_fusion_matches_coupling_error():
    # |z_soft - z*| equals the absolute weighted error sum by construction
    rng = np.random.default_rng(72)
    for _ in range(200):
        z_star = rng.uniform(5.0, 60.0)
        e1, e2 = rng.normal(0.0, 2.0, 2)
        s1, s2 = rng.uniform(0.1, 5.0, 2)
        fused = soft_fuse([(z_star + e1, s1), (z_star + e2, s2)])
        w1 = fused.weights[0]
        assert abs(fused.z_soft - z_star) == pytest.approx(
            abs(w1 * e1 + (1.0 - w1) * e2), abs=1e-12)


def test_soft_fuse_array_matches_scalar():
    rng = np.random.default_rng(73)
    z = rng.uniform(2.0, 80.0, (50, 4))
    sigma = rng.uniform(0.05, 9.0, (50, 4))
    fused = soft_fuse_array(z, sigma)
    assert fused.shape == (50,)
    for i in range(50):
        want = soft_fuse(list(zip(z[i], sigma[i]))).z_soft
        assert fused[i] == pytest.approx(want, rel=1e-12)


def test_soft_fuse_array_axis():
    # the branches are the last axis, whatever the array's rank
    z = np.array([[[10.0, 20.0], [30.0, 40.0]], [[50.0, 60.0], [70.0, 80.0]]])
    sigma = np.ones_like(z)
    assert soft_fuse_array(z, sigma).tolist() == [[15.0, 35.0], [55.0, 75.0]]


def test_soft_fuse_array_mask_validation():
    z = np.array([[10.0, 20.0], [30.0, 40.0]])
    sigma = np.ones_like(z)
    with pytest.raises(LengthMismatch):
        soft_fuse_array(z, sigma, valid=np.ones((2, 3), dtype=bool))
    with pytest.raises(AllBranchesInvalid):
        soft_fuse_array(z, sigma, valid=[[True, False], [False, False]])
    assert soft_fuse_array(z, sigma, valid=[[True, False], [False, True]]).tolist() == [
        10.0, 40.0]
