import itertools

import numpy as np
import pytest

import sweep_reference as ref
from compdepth import (
    EnsembleTable,
    SweepCurve,
    disturb_sweep,
    flip,
    flip_sweep,
    fuse,
    generate_ensembles,
    multi_flip_sweep,
)
from fusion_reference import soft_fuse, table_of
from prediction_records import columns, read_records


# ---------------------------------------------------------------------------
# flip and the two-branch error identities
# ---------------------------------------------------------------------------

def test_flip_mirrors_across_truth():
    assert flip(22.0, 20.0) == 18.0
    assert flip(18.0, 20.0) == 22.0
    assert flip(20.0, 20.0) == 20.0  # zero error is a fixed point


def test_flip_is_involution():
    # exact up to the one rounding in the intermediate 2*z_star - z_hat
    rng = np.random.default_rng(90)
    z_hat = rng.uniform(1.0, 80.0, 1000)
    z_star = rng.uniform(1.0, 80.0, 1000)
    assert np.allclose(flip(flip(z_hat, z_star), z_star), z_hat,
                       rtol=1e-12, atol=0.0)


def two_branch_error(e1, e2, w1, flip_second=False, z_star=20.0):
    """|fused error| of two branches with errors e1, e2 and fusion weights
    w1, 1 - w1 (sigmas 1/w1 and 1/(1 - w1)), optionally flipping branch 2."""
    w1 = np.asarray(w1, dtype=float)
    z2 = z_star + np.asarray(e2, dtype=float)
    if flip_second:
        z2 = flip(z2, z_star)
    z = np.column_stack([z_star + e1, z2])
    sigma = np.column_stack([1.0 / w1, 1.0 / (1.0 - w1)])
    return np.abs(fuse(table_of(z, sigma)) - z_star)


def test_error_identities_hand_values():
    assert two_branch_error(2.0, -1.0, 0.5) == pytest.approx(0.5)
    assert two_branch_error(2.0, -1.0, 0.5, flip_second=True) == pytest.approx(1.5)
    assert two_branch_error(2.0, 1.0, 0.75) == pytest.approx(1.75)
    assert two_branch_error(2.0, 1.0, 0.75, flip_second=True) == pytest.approx(1.25)


def test_flipping_one_of_two_coupled_errors_helps():
    # when both errors share a sign, flipping the second branch turns the
    # fused error from a weighted sum into a weighted difference, which is
    # strictly smaller; opposite signs reverse the inequality
    rng = np.random.default_rng(91)
    e1 = rng.standard_normal(10000)
    e2 = rng.standard_normal(10000)
    w1 = rng.uniform(0.01, 0.99, 10000)
    same = e1 * e2 > 0
    coupled = two_branch_error(e1, e2, w1)
    flipped = two_branch_error(e1, e2, w1, flip_second=True)
    assert np.all(flipped[same] < coupled[same])
    assert np.all(flipped[~same] >= coupled[~same])


# ---------------------------------------------------------------------------
# synthetic error model
# ---------------------------------------------------------------------------

def test_config_validation():
    truths = [20.0]
    coupling = (r"^coupling_rate must be in \[0.5, 1\]: the symmetric sign model cannot "
                "produce same-sign proportions below 0.5$")
    with pytest.raises(ValueError, match=coupling):
        generate_ensembles(truths, coupling_rate=0.4)
    with pytest.raises(ValueError, match=coupling):
        generate_ensembles(truths, coupling_rate=1.01)
    with pytest.raises(ValueError, match="^need at least 2 branches, got 1$"):
        generate_ensembles(truths, n_branches=1)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="error_scale must be finite and positive"):
            generate_ensembles(truths, error_scale=bad)
    with pytest.raises(ValueError, match="^sigma_model must be 'constant' or 'proportional'$"):
        generate_ensembles(truths, sigma_model="gaussian")
    assert generate_ensembles(truths, coupling_rate=1.0).names == ("b0", "b1", "b2", "b3")


def test_settings_are_checked_in_order_before_the_truths():
    # n_branches, coupling_rate, error_scale, sigma_model, then the truths:
    # each bad setting is reported while every later one is bad too
    bad = {"n_branches": 1, "coupling_rate": 0.4, "error_scale": -1.0,
           "sigma_model": "gaussian"}
    messages = ["need at least 2 branches", "coupling_rate must be in",
                "error_scale must be finite", "sigma_model must be",
                "truths must be a non-empty"]
    for i, message in enumerate(messages):
        with pytest.raises(ValueError, match=f"^{message}"):
            generate_ensembles([], **dict(list(bad.items())[i:]))


def test_generate_ensembles_shape_and_determinism():
    truths = np.linspace(5.0, 60.0, 40)
    a = generate_ensembles(truths, seed=3)
    b = generate_ensembles(truths, seed=3)
    assert columns(a) == columns(b)
    assert len(a) == 40 and a.z.shape == (40, 4) and a.valid.all()
    assert a.frame[0] == "000000" and a.index[0] == 0
    assert a.z_star.tolist() == truths.tolist()
    assert a.names == ("b0", "b1", "b2", "b3")
    assert (a.sigma == 1.0).all()


def test_generate_ensembles_seed_changes_errors():
    truths = np.linspace(5.0, 60.0, 40)
    a = generate_ensembles(truths, seed=3)
    b = generate_ensembles(truths, seed=4)
    assert not np.array_equal(a.z, b.z)


def test_generate_ensembles_full_coupling():
    truths = np.full(200, 30.0)
    ens = generate_ensembles(truths, coupling_rate=1.0, seed=1)
    signs = np.sign(ens.z - ens.z_star[:, None])
    assert (signs == signs[:, :1]).all()  # every branch errs the same way


def test_generate_ensembles_calibration():
    truths = np.full(100000, 30.0)
    ens = generate_ensembles(truths, coupling_rate=0.8, seed=2)
    errors = ens.z - ens.z_star[:, None]
    props = [np.mean(errors[:, i] * errors[:, j] > 0)
             for i, j in itertools.combinations(range(4), 2)]
    assert np.mean(props) == pytest.approx(0.8, abs=0.01)


def test_generate_ensembles_proportional_sigma():
    truths = np.linspace(5.0, 60.0, 50)
    ens = generate_ensembles(truths, sigma_model="proportional", seed=3)
    assert ens.sigma == pytest.approx(np.maximum(np.abs(ens.z - ens.z_star[:, None]), 1e-3))


def test_generate_ensembles_rejects_overflowing_draws():
    # normal draws scaled by 1e308 overflow to inf; the error names the scale
    with pytest.raises(ValueError, match=r"^a draw at error_scale 1e\+308 overflowed to "
                                         "a non-finite depth$"):
        generate_ensembles(np.full(2000, 30.0), error_scale=1e308)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@pytest.fixture
def ensembles():
    truths = np.random.default_rng(97).uniform(5.0, 60.0, 4000)
    return generate_ensembles(truths, seed=11)


def test_flip_sweep_baseline_is_untouched_mae(ensembles):
    curve = flip_sweep(ensembles, "b0", (0.0, 0.5, 1.0), seed=5)
    untouched = np.mean(np.abs(fuse(ensembles) - ensembles.z_star))
    assert curve.mae[0] == pytest.approx(untouched, rel=1e-12)
    assert curve.baseline_mae == pytest.approx(untouched, rel=1e-12)
    assert curve.label == "flip:b0"
    assert curve.counts == (4000, 4000, 4000)


def test_flip_sweep_decreases_under_coupling(ensembles):
    curve = flip_sweep(ensembles, "b0", (0.0, 0.25, 0.5, 0.75, 1.0), seed=5)
    assert all(a > b for a, b in zip(curve.mae, curve.mae[1:]))


def test_flip_sweep_nested_subsets(ensembles):
    # coarse and fine proportion grids agree wherever they overlap, because
    # each proportion flips a prefix of one shared shuffled order
    coarse = flip_sweep(ensembles, "b1", (0.0, 1.0), seed=5)
    fine = flip_sweep(ensembles, "b1", (0.0, 0.5, 1.0), seed=5)
    assert fine.mae[0] == coarse.mae[0]
    assert fine.mae[2] == coarse.mae[1]


def test_flip_sweep_validation(ensembles):
    with pytest.raises(ValueError, match=r"^branch 'nope' not in \['b0', 'b1', 'b2', 'b3'\]$"):
        flip_sweep(ensembles, "nope")
    with pytest.raises(ValueError, match="^proportions must not be empty$"):
        flip_sweep(ensembles, "b0", ())
    with pytest.raises(ValueError):
        flip_sweep(ensembles, "b0", (0.5, 0.5))
    with pytest.raises(ValueError):
        flip_sweep(ensembles, "b0", (0.0, 1.5))


def test_disturb_sweep_monotone_and_crosses_baseline(ensembles):
    curve = disturb_sweep(ensembles, "b0", (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0),
                          seed=5)
    assert all(a <= b for a, b in zip(curve.mae, curve.mae[1:]))
    assert curve.mae[0] < curve.baseline_mae  # half-flipped beats untouched
    assert curve.mae[-1] > curve.baseline_mae  # big noise overwhelms the gain
    assert curve.label == "disturb:b0"


def test_disturb_sweep_zero_amplitude_matches_half_flip(ensembles):
    curve = disturb_sweep(ensembles, "b2", (0.0, 3.0), seed=5)
    half = flip_sweep(ensembles, "b2", (0.0, 0.5), seed=5)
    assert curve.mae[0] == pytest.approx(half.mae[1], rel=1e-12)


def test_disturb_sweep_validation(ensembles):
    with pytest.raises(ValueError, match="^amplitudes must not be empty$"):
        disturb_sweep(ensembles, "b0", [])
    with pytest.raises(ValueError):
        disturb_sweep(ensembles, "b0", (1.0, 1.0))
    with pytest.raises(ValueError):
        disturb_sweep(ensembles, "b0", (-1.0, 1.0))
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            disturb_sweep(ensembles, "b0", (0.0, bad))
        with pytest.raises(ValueError):
            flip_sweep(ensembles, "b0", (0.0, bad))


def test_sweep_curve_rejects_unequal_lengths_and_unordered_x():
    with pytest.raises(ValueError) as exc:
        SweepCurve(x=(0.0, 1.0), mae=(1.0,), counts=(2, 2))
    assert str(exc.value) == "x, mae, counts must have equal length"
    for x in ((0.0, 0.0), (1.0, 0.0)):
        with pytest.raises(ValueError) as exc:
            SweepCurve(x=x, mae=(1.0, 1.0), counts=(2, 2))
        assert str(exc.value) == "x must be strictly increasing"


def test_sweep_curve_rejects_non_finite_mae():
    with pytest.raises(ValueError):
        SweepCurve(x=(0.0, 1.0), mae=(1.0, float("inf")), counts=(2, 2))
    with pytest.raises(ValueError):
        SweepCurve(x=(0.0,), mae=(1.0,), counts=(2,), baseline_mae=float("nan"))


def test_multi_flip_endpoints_and_mirror(ensembles):
    maes = [multi_flip_sweep(ensembles, [k], seed=5).mae[0] for k in range(5)]
    # flipping everything mirrors the fused estimate around the truth
    assert maes[0] == pytest.approx(maes[4], abs=1e-12)
    assert maes[1] == pytest.approx(maes[3], abs=1e-12)
    assert min(maes) == maes[2]


def test_multi_flip_k_out_of_range(ensembles):
    with pytest.raises(ValueError, match="^k=5 outside 0..4$"):
        multi_flip_sweep(ensembles, [5])
    with pytest.raises(ValueError, match="^k=-1 outside 0..4$"):
        multi_flip_sweep(ensembles, [-1])
    with pytest.raises(ValueError, match="^k=5 outside 0..4$"):
        multi_flip_sweep(ensembles, [0, 2, 5])
    for ks in ([], [1, 1]):
        with pytest.raises(ValueError, match="^ks must be non-empty and distinct$"):
            multi_flip_sweep(ensembles, ks)


# ---------------------------------------------------------------------------
# bench scale: the sweeps against the full-table reference
# ---------------------------------------------------------------------------

@pytest.fixture(params=["constant", "proportional", "ragged"])
def bench_table(request):
    """100k objects: the lab command's 4-branch tables, or 8 branches with
    arbitrary sigmas and about 30% of the cells missing."""
    n = 100_000
    rng = np.random.default_rng(2)
    truths = rng.uniform(5.0, 60.0, n)
    if request.param != "ragged":
        return generate_ensembles(truths, sigma_model=request.param, seed=1)
    valid = rng.random((n, 8)) >= 0.3
    valid[np.arange(n), rng.integers(0, 8, n)] = True
    return EnsembleTable(names=[f"b{j}" for j in range(8)],
                         z=truths[:, None] + rng.normal(0.0, 2.0, (n, 8)),
                         sigma=rng.uniform(1e-3, 5.0, (n, 8)), valid=valid, z_star=truths)


def test_sweeps_equal_the_reference_at_bench_scale(bench_table):
    table = bench_table
    before = [array.copy() for array in (table.z, table.sigma, table.valid, table.z_star)]
    branch = table.names[-1]
    props = (0.0, 0.25, 0.5, 0.75, 1.0)
    amps = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    ks = range(len(table.names) + 1)
    assert flip_sweep(table, branch, props, seed=2) == ref.flip_sweep(table, branch, props, 2)
    assert (disturb_sweep(table, branch, amps, seed=2)
            == ref.disturb_sweep(table, branch, amps, 2))
    assert multi_flip_sweep(table, ks, seed=2) == SweepCurve(
        x=tuple(map(float, ks)), mae=tuple(ref.multi_flip(table, k, 2) for k in ks),
        counts=(len(table),) * len(ks), baseline_mae=ref.multi_flip(table, 0, 2),
        label="multiflip")
    after = (table.z, table.sigma, table.valid, table.z_star)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


# ---------------------------------------------------------------------------
# ragged ensembles: objects that lack some branches
# ---------------------------------------------------------------------------

@pytest.fixture
def ragged():
    """Every third object lacks b0, every fifth lacks b3."""
    truths = np.random.default_rng(98).uniform(5.0, 60.0, 300)
    dense = generate_ensembles(truths, sigma_model="proportional", seed=12)
    records = []
    for i in range(len(dense)):
        drop = {"b0"} if i % 3 == 0 else set()
        drop |= {"b3"} if i % 5 == 0 else set()
        records.append({
            "frame": dense.frame[i], "index": i, "z_star": dense.z_star[i],
            "branches": [{"name": name, "z": dense.z[i, j], "sigma": dense.sigma[i, j]}
                         for j, name in enumerate(dense.names) if name not in drop]})
    return read_records(records)


def _rows(table):
    """Each row's (name, z, sigma) branches and its z_star, as Python values."""
    for i in range(len(table)):
        yield ([(name, float(table.z[i, j]), float(table.sigma[i, j]))
                for j, name in enumerate(table.names) if table.valid[i, j]],
               float(table.z_star[i]))


def _scalar_mae(table, flipped):
    """Fused MAE by the scalar reference, with flipped[(i, name)] applied."""
    errors = []
    for i, (branches, z_star) in enumerate(_rows(table)):
        pairs = [(flip(z, z_star) if (i, name) in flipped else z, sigma)
                 for name, z, sigma in branches]
        errors.append(abs(soft_fuse(pairs).z_soft - z_star))
    return float(np.mean(errors))


def test_ragged_flip_sweep_flips_present_branches_only(ragged):
    assert ragged.names == ("b1", "b2", "b0", "b3")  # first-appearance order
    curve = flip_sweep(ragged, "b0", (0.0, 1.0), seed=5)
    assert curve.counts == (300, 300)
    assert curve.mae[0] == curve.baseline_mae
    assert curve.baseline_mae == pytest.approx(_scalar_mae(ragged, set()), rel=1e-12)
    every_b0 = {(i, "b0") for i, (branches, _) in enumerate(_rows(ragged))
                if "b0" in [name for name, _, _ in branches]}
    assert curve.mae[1] == pytest.approx(_scalar_mae(ragged, every_b0), rel=1e-12)


def test_ragged_disturb_zero_amplitude_matches_half_flip(ragged):
    curve = disturb_sweep(ragged, "b3", (0.0, 2.0), seed=5)
    half = flip_sweep(ragged, "b3", (0.0, 0.5), seed=5)
    assert curve.counts == (300, 300)
    assert curve.mae[0] == half.mae[1]


def test_ragged_multi_flip_mirrors(ragged):
    maes = [multi_flip_sweep(ragged, [k], seed=5).mae[0] for k in range(5)]
    assert maes[0] == pytest.approx(_scalar_mae(ragged, set()), rel=1e-12)
    assert maes[0] == pytest.approx(maes[4], rel=1e-12)


def test_sweeps_require_truth():
    # a record without z_star, and a file without records, end in the same
    # errors whichever sweep reads them
    table = read_records([
        {"frame": "000000", "index": 0, "z_star": 20.0, "branches": [{"name": "a", "z": 21.0}]},
        {"frame": "000004", "index": 7, "branches": [{"name": "a", "z": 19.0}]},
    ])
    empty = read_records([])
    sweeps = (lambda t: flip_sweep(t, "a"), lambda t: disturb_sweep(t, "a"),
              lambda t: multi_flip_sweep(t, [0, 1]))
    for sweep in sweeps:
        with pytest.raises(ValueError, match=r"^ensemble \(000004, 7\) has no z_star$"):
            sweep(table)
        with pytest.raises(ValueError, match="^need at least one ensemble$"):
            sweep(empty)
