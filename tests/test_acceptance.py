"""Acceptance suite: one test per shipped guarantee.

Each test pins a user-facing contract of the package at its stated
tolerance: published-score reproduction, exact geometric recovery, the
flip lemma, sensitivity signs, sweep shapes, round trips, CLI noise
experiments, fusion contracts, determinism, and parser goldens. Run with
-v to get one pass/fail line per criterion.
"""

import numpy as np
import pytest

from compdepth import (
    CameraIntrinsics,
    CompdepthError,
    GroundPlane,
    HorizonLine,
    box_keypoints,
    complementarity_score,
    disturb_sweep,
    esop,
    fit_horizon,
    flip,
    flip_sweep,
    format_calib,
    format_labels,
    fuse,
    generate_ensembles,
    heatmap_from_pgm,
    horizon_pgm,
    horizon_to_plane,
    make_scene,
    multi_flip_sweep,
    parse_calib,
    parse_labels,
    plane_to_horizon,
    read_predictions,
    y_global,
    z_alt,
    z_comp,
    z_global,
    z_key,
)
from compdepth.cli import main
from fusion_reference import soft_fuse, table_of

# Published ablation rows from a driving benchmark, as (MAE m, ESOP %, CS);
# every row that reports all three values, two of which coincide across tables
CS_TABLE_ROWS = [
    (4.03, 18.63, 4.62),
    (8.47, 45.72, 5.40),
    (3.29, 36.91, 11.22),
    (3.23, 59.08, 18.29),
    (6.72, 42.51, 6.33),
    (3.09, 38.19, 12.36),
    (2.27, 25.69, 11.32),
    (8.65, 45.40, 5.25),
    (3.09, 38.19, 12.36),
]


@pytest.fixture(scope="module")
def lab_ensembles():
    """10^4 objects, 4 branches, 95% sign coupling: shared by criteria 5-7."""
    truths = np.random.default_rng(13).uniform(5.0, 60.0, 10000)
    return generate_ensembles(truths, n_branches=4, coupling_rate=0.95, error_scale=1.0,
                              sigma_model="constant", seed=11)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Synthetic two-frame KITTI-style dataset for the CLI criteria."""
    root = tmp_path_factory.mktemp("acceptance_data")
    (root / "calib").mkdir()
    (root / "label_2").mkdir()
    for frame, seed in (("000000", 21), ("000001", 22)):
        scene = make_scene(200, seed=seed)
        (root / "calib" / f"{frame}.txt").write_text(format_calib(scene.intrinsics))
        (root / "label_2" / f"{frame}.txt").write_text(format_labels(scene.objects))
    return root


def test_c01_cs_table_reproduction():
    for mae_m, esop_pct, cs in CS_TABLE_ROWS:
        got = complementarity_score(esop_pct, mae_m)
        assert got == pytest.approx(cs, abs=0.01), (mae_m, esop_pct, cs, got)
    print(f"criterion 1 PASS: {len(CS_TABLE_ROWS)} published CS rows within 0.01")


def test_c02_exact_recovery_on_sloped_planes():
    scene = make_scene(1000, seed=2024)
    k = scene.intrinsics
    x, y, z, h = np.array([(o.x, o.y, o.z, o.h) for o in scene.objects]).T
    _, v_b, v_t = box_keypoints(x, y, z, h, k)
    estimates = np.array([z_key(h, v_b, v_t, k), z_global(y, v_b, k),
                          z_comp(y, h, v_b, v_t, k), z_alt(y, h, v_t, k)])
    # NaN on any singularity: none allowed
    worst = float(np.max(np.abs(estimates - z) / z))
    assert worst <= 1e-9
    print(f"criterion 2 PASS: 1000 objects, all four estimators, "
          f"worst relative error {worst:.2e}")


def test_c03_flip_lemma():
    rng = np.random.default_rng(42)
    n = 100000
    sign = rng.choice([-1.0, 1.0], n)
    e1 = sign * (np.abs(rng.standard_normal(n)) + 1e-12)
    e2 = sign * (np.abs(rng.standard_normal(n)) + 1e-12)
    w1 = rng.uniform(0.01, 0.99, n)
    assert np.all(e1 * e2 > 0)
    # two branches fused with weights w1 and 1 - w1, branch 2 as drawn and
    # with its error sign flipped about the truth
    z_star = rng.uniform(5.0, 60.0, n)
    sigma = np.column_stack([1.0 / w1, 1.0 / (1.0 - w1)])
    z1, z2 = z_star + e1, z_star + e2
    e_coupled = np.abs(fuse(table_of(np.column_stack([z1, z2]), sigma)) - z_star)
    e_flipped = np.abs(fuse(table_of(np.column_stack([z1, flip(z2, z_star)]), sigma))
                       - z_star)
    assert np.all(e_flipped <= e_coupled)
    assert np.all(e_flipped < e_coupled)  # strict: no error here is zero
    print("criterion 3 PASS: flipped error strictly below coupled error "
          "on 100000 same-sign triples")


def test_c04_opposite_height_sensitivity():
    k = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
    rng = np.random.default_rng(51)
    n = 10000
    depth = rng.uniform(5.0, 60.0, n)
    height = rng.uniform(1.0, 2.0, n)
    y = height + rng.uniform(0.05, 0.8, n)  # bottom below camera, top below c_v
    step = 1e-6
    for i in range(n):
        v_b = k.f_y * y[i] / depth[i] + k.c_v
        v_t = k.f_y * (y[i] - height[i]) / depth[i] + k.c_v
        assert v_t > k.c_v
        d_key = (z_key(height[i] + step, v_b, v_t, k)
                 - z_key(height[i] - step, v_b, v_t, k))
        d_comp = (z_comp(y[i], height[i] + step, v_b, v_t, k)
                  - z_comp(y[i], height[i] - step, v_b, v_t, k))
        assert d_key > 0
        assert d_comp < 0
    print("criterion 4 PASS: 10000/10000 objects show opposite "
          "height-sensitivity signs at step 1e-6")


def test_c05_flip_sweep_monotone_and_uniform(lab_ensembles):
    proportions = (0.0, 0.25, 0.5, 0.75, 1.0)
    curves = [flip_sweep(lab_ensembles, name, proportions, seed=17)
              for name in lab_ensembles.names]
    for curve in curves:
        assert all(a > b for a, b in zip(curve.mae, curve.mae[1:])), curve.label
    grid = np.array([c.mae for c in curves])
    spread = float(np.max((grid.max(axis=0) - grid.min(axis=0)) / grid.max(axis=0)))
    assert spread <= 0.10
    print(f"criterion 5 PASS: 4 strictly decreasing flip curves, "
          f"max cross-branch spread {spread:.1%}")


def test_c06_disturbance_crossover(lab_ensembles):
    curve = disturb_sweep(lab_ensembles, "b0",
                          (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0), seed=17)
    assert all(a <= b for a, b in zip(curve.mae, curve.mae[1:]))
    assert curve.mae[0] < curve.baseline_mae
    crossings = [x for x, m in zip(curve.x, curve.mae) if m > curve.baseline_mae]
    assert crossings, "curve never exceeded the unflipped baseline"
    print(f"criterion 6 PASS: non-decreasing disturbance curve crosses "
          f"baseline at amplitude {crossings[0]:g}")


def test_c07_multi_flip_symmetry(lab_ensembles):
    maes = [multi_flip_sweep(lab_ensembles, [k], seed=17).mae[0] for k in range(5)]
    assert min(maes) == maes[2]
    assert all(maes[2] < maes[k] for k in (0, 1, 3, 4))
    assert abs(maes[0] - maes[4]) <= 1e-9
    assert abs(maes[1] - maes[3]) <= 1e-9
    print(f"criterion 7 PASS: MAE(k) minimized at k=2, mirror gap "
          f"{max(abs(maes[0] - maes[4]), abs(maes[1] - maes[3])):.2e}")


def test_c08_plane_horizon_round_trips():
    k = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(10000):
        g = GroundPlane.from_heightfield(
            rng.uniform(-0.09, 0.09), rng.uniform(-0.09, 0.09),
            rng.uniform(1.2, 2.2))
        assert g.b < 0
        h = plane_to_horizon(g, k)
        g2 = horizon_to_plane(h, k, cam_height=g.cam_height)
        h2 = plane_to_horizon(g2, k)
        worst = max(worst, abs(g2.a - g.a), abs(g2.b - g.b), abs(g2.c - g.c),
                    abs(h2.k_h - h.k_h), abs(h2.b_h - h.b_h))
    assert worst <= 1e-9

    width, height = 1242, 375
    for _ in range(25):
        true = HorizonLine(rng.uniform(-0.05, 0.05), rng.uniform(80.0, 280.0))
        fit = fit_horizon(heatmap_from_pgm(horizon_pgm(true, width, height)))
        assert abs(fit.b_h - true.b_h) <= 0.5
        assert abs(fit.k_h - true.k_h) <= 0.5 / width

    oracle_worst = 0.0
    for _ in range(1000):
        g = GroundPlane.from_heightfield(
            rng.uniform(-0.09, 0.09), rng.uniform(-0.09, 0.09),
            rng.uniform(1.3, 2.0))
        u = rng.uniform(0.0, 1242.0)
        v = rng.uniform(k.c_v + 20.0, 375.0)
        d = np.array([(u - k.c_u) / k.f_x, (v - k.c_v) / k.f_y, 1.0])
        t = -g.cam_height / float(np.array([g.a, g.b, g.c]) @ d)
        want = t * d[1]
        oracle_worst = max(oracle_worst,
                           abs(y_global(u, v, g, k) - want) / abs(want))
    assert oracle_worst <= 1e-9
    print(f"criterion 8 PASS: 10000 round trips (worst {worst:.2e}), 25 "
          f"raster fits in bounds, 1000 ray-cast checks "
          f"(worst rel {oracle_worst:.2e})")


def test_c09_height_noise_complementarity(dataset, tmp_path, capsys):
    preds = tmp_path / "hnoise.jsonl"
    code = main(["oracle", "--calib-dir", str(dataset / "calib"),
                 "--label-dir", str(dataset / "label_2"),
                 "--noise-h-rel", "0.1", "--seed", "6", "--out", str(preds)])
    capsys.readouterr()
    assert code == 0
    table = read_predictions(preds.read_text())
    assert len(table) == 400 and table.valid.all()
    err = table.z - table.z_star[:, None]
    key_err = err[:, table.names.index("key")]
    comp_err = err[:, table.names.index("comp")]
    opposite = esop(key_err, comp_err)
    assert opposite > 90.0

    # top-edge form destabilizes when camera height matches object height
    k = CameraIntrinsics(721.5377, 721.5377, 609.5593, 172.854)
    rng = np.random.default_rng(23)
    alt_err, comp2_err = [], []
    for _ in range(2000):
        z = rng.uniform(5.0, 60.0)
        h = rng.uniform(1.55, 1.75)  # near the 1.65 m camera height
        y = 1.65
        v_b = k.f_y * y / z + k.c_v
        v_t = k.f_y * (y - h) / z + k.c_v + rng.uniform(-1.0, 1.0)
        comp2_err.append(abs(z_comp(y, h, v_b, v_t, k) - z))
        alt_err.append(abs(z_alt(y, h, v_t, k) - z))
    assert float(np.mean(alt_err)) > float(np.mean(comp2_err))
    print(f"criterion 9 PASS: height-noise ESOP {opposite:.1f}% > 90%, "
          f"top-edge MAE {np.mean(alt_err):.1f} m vs midpoint "
          f"{np.mean(comp2_err):.2f} m")


def test_c10_fusion_contracts_and_determinism(dataset, tmp_path, capsys):
    rng = np.random.default_rng(99)
    z = rng.uniform(2.0, 80.0, (10000, 4))
    sigma = rng.uniform(0.05, 9.0, (10000, 4))
    fused = fuse(table_of(z, sigma))
    assert np.all(fused >= z.min(axis=1) - 1e-9)
    assert np.all(fused <= z.max(axis=1) + 1e-9)
    scaled = fuse(table_of(z, 3.7 * sigma))
    assert np.allclose(scaled, fused, rtol=1e-12, atol=0.0)
    perm = rng.permutation(4)
    shuffled = fuse(table_of(z[:, perm], sigma[:, perm]))
    assert np.allclose(shuffled, fused, rtol=1e-12, atol=0.0)
    for i in range(0, 10000, 500):  # scalar path agrees with the array path
        got = soft_fuse(list(zip(z[i], sigma[i])))
        assert got.z_soft == pytest.approx(fused[i], rel=1e-12)
        assert sum(got.weights) == pytest.approx(1.0, abs=1e-12)

    preds = tmp_path / "det.jsonl"
    report = tmp_path / "report.json"
    oracle_args = ["oracle", "--calib-dir", str(dataset / "calib"),
                   "--label-dir", str(dataset / "label_2"),
                   "--noise-px", "1.0", "--seed", "12", "--out", str(preds)]
    eval_args = ["eval", "--calib-dir", str(dataset / "calib"),
                 "--label-dir", str(dataset / "label_2"),
                 "--predictions", str(preds), "--out", str(report)]
    assert main(oracle_args) == 0
    first_preds = preds.read_bytes()
    assert main(eval_args) == 0
    first_report = report.read_bytes()
    assert main(oracle_args) == 0
    assert main(eval_args) == 0
    capsys.readouterr()
    assert preds.read_bytes() == first_preds
    assert report.read_bytes() == first_report
    print("criterion 10 PASS: fusion contracts on 10000 ensembles at 1e-12, "
          "byte-identical oracle and eval reruns")


def test_c11_parser_goldens():
    calib_text = (
        "P2: 7.215377e+02 0.000000e+00 6.095593e+02 4.485728e+01 "
        "0.000000e+00 7.215377e+02 1.728540e+02 2.163791e-01 "
        "0.000000e+00 0.000000e+00 1.000000e+00 2.745884e-03\n")
    k = parse_calib(calib_text)
    assert (k.f_x, k.f_y, k.c_u, k.c_v) == (721.5377, 721.5377, 609.5593, 172.854)

    label_text = ("Car 0.00 0 -1.58 587.0 173.3 614.1 200.1 "
                  "1.50 1.67 3.64 -0.65 1.65 20.00 -1.59\n")
    labels = parse_labels(label_text)
    assert labels.class_names == ("Car",)
    _, _, _, *bbox2d, h, w, l, x, y, z, theta, _ = labels.values[0].tolist()
    assert (h, w, l) == (1.50, 1.67, 3.64)
    assert (x, y, z) == (-0.65, 1.65, 20.00)
    assert theta == -1.59
    assert tuple(bbox2d) == (587.0, 173.3, 614.1, 200.1)

    with pytest.raises(CompdepthError) as exc:
        parse_labels(label_text + "Car 1 2 3\n")
    assert str(exc.value) == "line 2: expected 15 or 16 fields, got 4"

    with pytest.raises(CompdepthError) as exc:
        read_predictions('{"frame":"0","index":0,"branches":'
                         '[{"name":"key","z":1.0}]}\n'
                         '{"frame":"0","index":0,"branches":'
                         '[{"name":"key","z":1.0,"sigma":-1.0}]}\n')
    assert str(exc.value) == "line 2: field 'branches[0].sigma': must be a finite positive number"
    print("criterion 11 PASS: calib, label, and prediction fixtures parse "
          "exactly; malformed inputs report line numbers")
