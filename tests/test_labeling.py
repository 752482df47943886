import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from polycubelabel import graphcut, labeling, shapes
from polycubelabel.labeling import (
    LABEL_DIRECTIONS,
    SMOOTHNESS_MODES,
    CutEnergy,
    compute_labeling,
    data_costs,
    fidelity_score,
    naive_labeling,
    nearest_label,
    restricted_relabel,
    smoothness_weights,
    tilted_normals,
)
from polycubelabel.mesh import SurfaceMesh

from helpers import build, face_mask
from oracles import reference_restricted_relabel, ring_grow


def test_label_encoding_helpers():
    # the axis of a label is label >> 1 and its opposite is label ^ 1
    for lab in range(6):
        assert (lab ^ 1) ^ 1 == lab
        assert lab >> 1 == (lab ^ 1) >> 1
        assert np.dot(LABEL_DIRECTIONS[lab], LABEL_DIRECTIONS[lab ^ 1]) == -1.0


def test_nearest_label_matches_bruteforce():
    rng = np.random.default_rng(5)
    n = rng.normal(size=(500, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    got = nearest_label(n)
    for i in range(len(n)):
        dots = [float(np.dot(n[i], d)) for d in LABEL_DIRECTIONS]
        best = max(dots)
        # first index attaining the max = lowest encoding
        assert got[i] == dots.index(best)


def test_nearest_label_tie_breaks_low():
    s = 1.0 / math.sqrt(2.0)
    n = np.array([[s, s, 0.0], [0.0, s, s], [-s, 0.0, -s]])
    assert nearest_label(n).tolist() == [0, 2, 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(lambda v: sum(x * x for x in v) > 1e-6))
def test_nearest_label_is_argmax(v):
    n = np.array([v]) / np.linalg.norm(v)
    lab = int(nearest_label(n)[0])
    dots = n[0] @ LABEL_DIRECTIONS.T
    assert dots[lab] >= dots.max() - 1e-12


def test_naive_labeling_cube_two_per_face(cube_mesh):
    labels = naive_labeling(cube_mesh)
    assert np.bincount(labels, minlength=6).tolist() == [2] * 6


def test_tilt_flags_only_near_ties():
    s = 1.0 / math.sqrt(2.0)
    normals = np.array([[1.0, 0.0, 0.0], [s, s, 0.0], [0.6, 0.8, 0.0]])
    out, flagged = tilted_normals(normals)
    assert flagged.tolist() == [False, True, False]
    assert np.array_equal(out[~flagged], normals[~flagged])
    # tilt is a rotation: unit length preserved, tie actually broken
    assert np.linalg.norm(out[1]) == pytest.approx(1.0)
    d = out[1] @ LABEL_DIRECTIONS.T
    top2 = np.sort(d)[-2:]
    assert top2[1] - top2[0] > 1e-3


def test_tilt_zero_sensitivity_is_identity():
    rng = np.random.default_rng(0)
    n = rng.normal(size=(40, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    out, flagged = tilted_normals(n, CutEnergy(sensitivity=0.0))
    assert not flagged.any()
    assert np.array_equal(out, n)


def test_data_costs_zero_on_axis_and_scales():
    n = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    c1 = data_costs(n, CutEnergy(fidelity=1.0))
    assert c1[0, 4] == 0.0 and c1[1, 0] == 0.0
    assert c1[0, 5] == pytest.approx(math.pi)
    assert np.allclose(data_costs(n, CutEnergy(fidelity=3.0)), 3.0 * c1)


def test_smoothness_modes(cube_mesh):
    flat = np.isclose(cube_mesh.dihedral_angles, math.pi)
    uni = smoothness_weights(cube_mesh, CutEnergy(compactness=2.5))
    assert np.all(uni == 2.5)
    prop = smoothness_weights(cube_mesh, CutEnergy(smoothness_mode="angle-proportional"))
    assert np.allclose(prop[flat], 0.0)
    assert np.allclose(prop[~flat], math.pi / 2)
    disc = smoothness_weights(cube_mesh, CutEnergy(smoothness_mode="crease-discount"))
    assert np.allclose(disc[flat], 1.0)
    assert np.all(disc[~flat] < 1e-8)  # right-angle creases are free to cut
    with pytest.raises(ValueError, match="smoothness mode"):
        CutEnergy(smoothness_mode="bogus")


@pytest.mark.parametrize("mode", SMOOTHNESS_MODES)
def test_smoothness_weights_read_the_dihedral_angles_only_where_the_mode_does(mode):
    m = SurfaceMesh(*shapes.subdivide(*shapes.l_prism(), 1))
    w = smoothness_weights(m, CutEnergy(compactness=2.5, smoothness_mode=mode))
    assert ("dihedral_angles" in vars(m)) == (mode != "uniform-potts")
    deviation = np.abs(m.dihedral_angles - math.pi)
    expected = {"uniform-potts": np.full(m.n_edges, 2.5),
                "angle-proportional": 2.5 * deviation,
                "crease-discount": 2.5 * np.exp(-((deviation / 0.25) ** 2))}[mode]
    assert w.dtype == np.float64 and np.array_equal(w, expected)


@pytest.mark.parametrize("name, value, match", [
    ("fidelity", -3.0, "fidelity must be finite and non-negative, not -3.0"),
    ("sensitivity", math.nan, "sensitivity must be finite, not nan"),
    ("sensitivity", math.inf, "sensitivity must be finite, not inf"),
    ("tilt_angle", math.nan, "tilt_angle must be finite, not nan"),
], ids=["fidelity-negative", "sensitivity-nan", "sensitivity-inf", "tilt-angle-nan"])
def test_cut_energy_is_checked_however_it_is_built(name, value, match):
    # a negative fidelity turns the data term around: on a subdivided L prism
    # the cut then gives every triangle the opposite of its nearest axis
    with pytest.raises(ValueError, match=match):
        CutEnergy(**{name: value})
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(CutEnergy(), **{name: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(CutEnergy(), name, value)


def test_cut_energy_reaches_the_cut_only_whole():
    # the loose keywords are gone, so no entry point takes an unchecked value
    m = SurfaceMesh(*shapes.subdivide(*shapes.l_prism(), 2))
    labels = naive_labeling(m)
    with pytest.raises(TypeError):
        compute_labeling(m, fidelity=-3.0)
    with pytest.raises(TypeError):
        restricted_relabel(m, labels, np.arange(m.n_triangles), fidelity=-3.0)
    assert np.array_equal(compute_labeling(m, CutEnergy()), labels)
    assert np.array_equal(restricted_relabel(m, labels ^ 1, np.arange(m.n_triangles)), labels)


# -- fidelity ----------------------------------------------------------------


def test_fidelity_cube_exactly_one(cube_mesh):
    rep = fidelity_score(cube_mesh, naive_labeling(cube_mesh))
    assert rep.area_weighted == 1.0
    assert rep.uniform == 1.0
    rep_angle = fidelity_score(cube_mesh, naive_labeling(cube_mesh), mode="angle")
    assert rep_angle.area_weighted == 1.0


def test_fidelity_worst_case(cube_mesh):
    flipped = naive_labeling(cube_mesh) ^ 1  # every normal opposite its label
    rep = fidelity_score(cube_mesh, flipped)
    assert rep.area_weighted == pytest.approx(0.0)
    assert fidelity_score(cube_mesh, flipped, mode="angle").uniform == pytest.approx(0.0)


def test_fidelity_sphere_matches_quadrature():
    # Independent oracle: mean of (1 + n.d)/2 over the sphere, where d is the
    # nearest axis. By symmetry that is six copies of the +Z gnomonic square:
    #   E[n.d] = 6/(4pi) * iint_{[-1,1]^2} (1 + x^2 + y^2)^-2 dx dy
    val, err = dblquad(lambda y, x: (1.0 + x * x + y * y) ** -2, -1, 1, -1, 1)
    assert err < 1e-6
    expect = (1.0 + 6.0 * val / (4.0 * math.pi)) / 2.0
    m = SurfaceMesh(*shapes.icosphere(3))
    rep = fidelity_score(m, naive_labeling(m))
    assert rep.area_weighted == pytest.approx(expect, abs=5e-4)


@pytest.mark.parametrize("labels, match", [
    ([-1] * 12, "label -1 of triangle 0 outside 0..5"),
    ([2.5] * 12, "label 2.5 of triangle 0 is not an integer"),
    ([6] * 12, "label 6 of triangle 0 outside 0..5"),
    ([0] * 3, "3 labels for 12 triangles"),
], ids=["negative", "not-integer", "past-5", "too-few"])
def test_fidelity_rejects_labels_outside_the_contract(cube_mesh, labels, match):
    with pytest.raises(ValueError, match=match):
        fidelity_score(cube_mesh, labels)


def test_fidelity_unknown_mode(cube_mesh):
    with pytest.raises(ValueError):
        fidelity_score(cube_mesh, naive_labeling(cube_mesh), mode="nope")


# -- restricted relabel ---------------------------------------------------------


def _energy(mesh, labels, region_mask, allowed_labels, fixed_labels):
    """Reference objective for the region subproblem, computed from scratch."""
    costs = data_costs(mesh.normals, CutEnergy(fidelity=3.0))
    w = smoothness_weights(mesh, CutEnergy(compactness=1.0))
    total = float(np.sum(costs[region_mask, labels[region_mask]]))
    for eid, (a, b) in enumerate(mesh.edge_tris):
        la = labels[a] if region_mask[a] else fixed_labels[a]
        lb = labels[b] if region_mask[b] else fixed_labels[b]
        if not (region_mask[a] or region_mask[b]):
            continue
        if la != lb:
            total += float(w[eid])
    return total


def test_restricted_relabel_matches_enumeration(cube_mesh):
    # free the +Z face pair plus the two +Y triangles: 4 free triangles,
    # two allowed labels each -> 16 assignments, small enough to enumerate.
    base = naive_labeling(cube_mesh)
    region = face_mask(cube_mesh, 2, 1.0) | face_mask(cube_mesh, 1, 1.0)
    assert int(region.sum()) == 4
    allowed = np.zeros(6, dtype=bool)
    allowed[[2, 4]] = True

    got = restricted_relabel(cube_mesh, base, region, allowed=allowed)
    assert np.array_equal(got[~region], base[~region])  # fixed stays fixed
    assert np.all(np.isin(got[region], [2, 4]))

    idx = np.nonzero(region)[0]
    best = math.inf
    for combo in itertools.product((2, 4), repeat=len(idx)):
        trial = base.copy()
        trial[idx] = combo
        best = min(best, _energy(cube_mesh, trial, region, allowed, base))
    assert _energy(cube_mesh, got, region, allowed, base) == pytest.approx(best)


def test_restricted_relabel_absorbs_surrounded_triangle(cube_mesh):
    # one free triangle with all-zero preference pull: neighbors' labels win
    base = naive_labeling(cube_mesh)
    region = np.zeros(cube_mesh.n_triangles, dtype=bool)
    tri = int(np.nonzero(face_mask(cube_mesh, 0, 1.0))[0][0])
    region[tri] = True
    # force the data term silent by allowing only the two labels adjacent
    # to the +X axis; the +X neighbors dominate through the boundary terms
    got = restricted_relabel(cube_mesh, base, region)
    assert got[tri] == base[tri]  # already optimal: stays put


def test_restricted_relabel_empty_region(cube_mesh):
    base = naive_labeling(cube_mesh)
    out = restricted_relabel(cube_mesh, base, np.zeros(cube_mesh.n_triangles, dtype=bool))
    assert np.array_equal(out, base)
    assert out is not base


def test_restricted_relabel_accepts_index_sets(cube_mesh):
    base = naive_labeling(cube_mesh)
    a = restricted_relabel(cube_mesh, base, {3, 1})
    b = restricted_relabel(cube_mesh, base, np.array([1, 3]))
    assert np.array_equal(a, b)


def test_restricted_relabel_refuses_a_free_triangle_with_no_allowed_label(cube_mesh):
    base = naive_labeling(cube_mesh)
    with pytest.raises(ValueError, match="free triangle 0 no label"):
        restricted_relabel(cube_mesh, base, [0, 1], allowed=np.zeros(6, dtype=bool))
    rows = np.ones((2, 6), dtype=bool)
    rows[1] = False  # one row per free triangle: the second, triangle 7, has none
    with pytest.raises(ValueError, match="free triangle 7 no label"):
        restricted_relabel(cube_mesh, base, [3, 7], allowed=rows)


def _cuboid_mesh():
    return SurfaceMesh(*shapes.subdivide(*shapes.cuboid(2, 1, 1), 1))  # 48 triangles


def _with(labels, at, value):
    out = np.array(labels)
    out[at] = value
    return out


@pytest.mark.parametrize("make_labels, region, match", [
    (lambda base: base, [-1], "region id -1 outside 0..47"),
    (lambda base: base, [3, 48], "region id 48 outside 0..47"),
    (lambda base: base, np.ones(53, dtype=bool), "region mask of length 53 for 48 triangles"),
    (lambda base: base, np.ones(47, dtype=bool), "region mask of length 47 for 48 triangles"),
    (lambda base: base, [0.5, 2.0], "region id 0.5 is not a triangle id"),
    (lambda base: base[:47], [0], "47 labels for 48 triangles"),
    (lambda base: np.append(base, 0), [0], "49 labels for 48 triangles"),
    (lambda base: _with(base, 3, 7), [0], "label 7 of triangle 3 outside 0..5"),
    (lambda base: _with(base, 5, -1), [0], r"label -1 of triangle 5 outside 0\.\.5"),
    (lambda base: _with(base.astype(float), 2, 1.5), [0], "label 1.5 of triangle 2 is not an integer"),
], ids=["id-negative", "id-past-F", "mask-too-long", "mask-too-short", "id-not-integer",
        "labels-too-few", "labels-too-many", "label-past-5", "label-negative", "label-not-integer"])
def test_restricted_relabel_refuses_input_outside_its_contract(make_labels, region, match):
    m = _cuboid_mesh()
    base = naive_labeling(m)
    with pytest.raises(ValueError, match=match):
        restricted_relabel(m, make_labels(base), region)


def test_restricted_relabel_takes_every_triangle_id_and_whole_masks():
    m = _cuboid_mesh()
    base = naive_labeling(m)
    ids = np.arange(m.n_triangles)
    assert np.array_equal(restricted_relabel(m, base, ids), base)
    assert np.array_equal(restricted_relabel(m, base.tolist(), [0, 47]), base)
    assert np.array_equal(restricted_relabel(m, base, ids == 47), base)
    assert np.array_equal(restricted_relabel(m, base, np.array([], dtype=np.int64)), base)
    assert np.array_equal(restricted_relabel(m, base, []), base)


RELABEL_MESHES = {
    "cube": lambda: SurfaceMesh(*shapes.subdivide(*shapes.cube(), 1)),
    "l-prism": lambda: SurfaceMesh(*shapes.l_prism()),
    "wedge": lambda: SurfaceMesh(*shapes.wedge()),
    "cylinder": lambda: SurfaceMesh(*shapes.cylinder(8)),
    "cone": lambda: SurfaceMesh(*shapes.cone(8)),
    "sphere": lambda: SurfaceMesh(*shapes.icosphere(1)),
    "torus": lambda: SurfaceMesh(*shapes.torus(nu=8, nv=4)),
    "staircase": lambda: SurfaceMesh(*shapes.subdivide(*shapes.staircase(), 1)),
}
_relabel_meshes = {}


def _relabel_or_refusal(relabel, *args, **kw):
    try:
        return relabel(*args, **kw)
    except ValueError as e:
        return e


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(RELABEL_MESHES)),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["mask", "ids"]),
    st.sampled_from(["shared", "rows", "two-labels", "one-row-empty"]),
    st.sampled_from(labeling.SMOOTHNESS_MODES),
    st.sampled_from([0.0, 0.5, 1.0, 1e3, 1e15, 1e16, 1e17, 1e300, 1e307]),
    st.sampled_from([0.0, 3.0, 1e15]),
)
def test_restricted_relabel_as_the_reference_cut(shape, seed, form, kind, mode, compactness,
                                                 fidelity):
    """A region that `allowed` leaves one label per free triangle takes it
    with no cut, with the labels the cut gives; every other region gets the
    cut, and both refuse the same input with the same message."""
    if shape not in _relabel_meshes:
        _relabel_meshes[shape] = RELABEL_MESHES[shape]()
    m = _relabel_meshes[shape]
    rng = np.random.default_rng(seed)
    labels = naive_labeling(m)
    flip = rng.random(m.n_triangles) < 0.3
    labels[flip] = rng.integers(0, 6, size=int(flip.sum()))
    ids = np.array(sorted(ring_grow(m, [int(rng.integers(m.n_triangles))],
                                    int(rng.integers(1, 4)))))
    region = np.isin(np.arange(m.n_triangles), ids) if form == "mask" else rng.permutation(ids)
    if kind == "shared":
        allowed = np.arange(6) == rng.integers(6)
    else:
        allowed = np.arange(6) == rng.integers(0, 6, size=(len(ids), 1))
        if kind == "two-labels":
            allowed[0, (np.argmax(allowed[0]) + 1) % 6] = True
        elif kind == "one-row-empty":
            allowed[-1] = False
    energy = CutEnergy(compactness=compactness, fidelity=fidelity, smoothness_mode=mode)
    with mock.patch.object(graphcut, "alpha_expansion", wraps=graphcut.alpha_expansion) as cut:
        got = _relabel_or_refusal(restricted_relabel, m, labels, region, allowed, energy)
    want = _relabel_or_refusal(reference_restricted_relabel, m, labels, region, allowed, energy)
    if isinstance(want, ValueError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype and got.flags.writeable
    assert np.array_equal(got, want)
    shortcut = kind in ("shared", "rows") and (
        len(ids) * math.pi * (fidelity + 6 * compactness) < graphcut.BIG / 2)
    assert cut.call_count == (0 if shortcut else 1)


# -- full initial labeling -------------------------------------------------------


def test_compute_labeling_cube_is_naive(cube_mesh):
    assert np.array_equal(labeling.compute_labeling(cube_mesh), naive_labeling(cube_mesh))


def test_compute_labeling_deterministic():
    v, f = shapes.icosphere(2)
    m = SurfaceMesh(v, f)
    runs = [labeling.compute_labeling(m) for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def test_compute_labeling_smooths_jittered_flats():
    # jitter makes lone triangles prefer a wrong axis; the cut cleans them up
    v, f = shapes.subdivide(*shapes.cube(), 2)
    v = shapes.jitter(v, 1e-2, seed=7)
    m = SurfaceMesh(v, f, feature_angle=math.pi / 3)
    smoothed = labeling.compute_labeling(m, CutEnergy(compactness=1.0))
    assert len(np.unique(smoothed)) == 6
    naive = naive_labeling(m)
    # smoothing never increases the number of label islands
    from polycubelabel.graph import LabelingGraph

    assert len(LabelingGraph(m, smoothed).charts) <= len(LabelingGraph(m, naive).charts)
