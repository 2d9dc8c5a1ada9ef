import numpy as np
import pytest

from mpet.mesh import (
    Mesh,
    MeshError,
    build_affine_map,
    dump_mesh,
    generate_annulus,
    generate_unit_square,
    load_mesh,
    LOCAL_EDGE_VERTICES,
)


def brute_force_edges(elements):
    """Enumeration oracle: the set of undirected element edges."""
    edges = set()
    for tri in elements:
        for a, b in LOCAL_EDGE_VERTICES:
            edges.add(tuple(sorted((int(tri[a]), int(tri[b])))))
    return edges


def test_unit_square_n1_counts():
    mesh = generate_unit_square(1)
    assert mesh.n_elements == 2
    assert mesh.n_facets == 5
    assert len(mesh.boundary_facets) == 4
    assert all(mesh.boundary_tags[int(f)] == "boundary" for f in mesh.boundary_facets)


def test_unit_square_n2_facet_count_matches_enumeration():
    mesh = generate_unit_square(2)
    assert mesh.n_elements == 8
    edges = brute_force_edges(mesh.elements)
    assert len(edges) == 16
    assert mesh.n_facets == 16
    assert edges == {tuple(fv) for fv in mesh.facet_vertices}


def test_unit_square_n4_h():
    mesh = generate_unit_square(4)
    assert mesh.n_elements == 32
    # characteristic size: shortest edges are 1/4, diagonals sqrt(2)/4
    assert np.isclose(mesh.facet_length.min(), 0.25)
    assert np.isclose(mesh.element_h.max(), np.sqrt(2.0) / 4.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_unit_square_area(n):
    mesh = generate_unit_square(n)
    assert abs(mesh.element_area.sum() - 1.0) <= 1e-10


def test_annulus_small():
    mesh = generate_annulus(1.0, 2.0, 1, 4)
    assert mesh.n_elements == 8
    tags = [mesh.boundary_tags[int(f)] for f in mesh.boundary_facets]
    assert tags.count("ventricle") == 4
    assert tags.count("skull") == 4


def test_annulus_brain_analog_positive_areas():
    mesh = generate_annulus(30.0, 70.0, 4, 32)
    # orientation check oracle: recompute signed areas from scratch
    v = mesh.vertices[mesh.elements]
    cross = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - (
        v[:, 1, 1] - v[:, 0, 1]
    ) * (v[:, 2, 0] - v[:, 0, 0])
    assert np.all(cross > 0)
    mesh.validate()


def test_annulus_area_converges():
    exact = np.pi * (2.0**2 - 1.0**2)
    errs = []
    for n_ang in (8, 16, 32):
        mesh = generate_annulus(1.0, 2.0, 2, n_ang)
        errs.append(abs(mesh.element_area.sum() - exact))
    assert errs[0] > errs[1] > errs[2]
    # polygonal approximation error is O(n_angular^-2)
    assert errs[2] < errs[0] / 8.0


def test_annulus_invalid_geometry():
    with pytest.raises(MeshError, match="invalid geometry"):
        generate_annulus(2.0, 1.0, 1, 4)
    with pytest.raises(MeshError, match="invalid geometry"):
        generate_annulus(0.0, 1.0, 1, 4)
    with pytest.raises(MeshError, match="invalid geometry"):
        generate_annulus(1.0, 2.0, 1, 2)


def test_affine_map_reference_triangle_identity():
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    mesh.tag_boundary(lambda x: True, "boundary")
    amap = build_affine_map(mesh, 0)
    assert np.allclose(amap.jacobian, np.eye(2))
    assert np.isclose(amap.det, 1.0)


def test_affine_map_scaling():
    mesh = Mesh([(0, 0), (2, 0), (0, 2)], [(0, 1, 2)])
    amap = build_affine_map(mesh, 0)
    assert np.isclose(amap.det, 4.0)


def test_affine_map_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(-1, 1, size=2)
        m = rng.uniform(-1, 1, size=(2, 2))
        if np.linalg.det(m) < 0:
            m = m[::-1]
        if abs(np.linalg.det(m)) < 0.1:
            m = m + 0.5 * np.eye(2)
        if np.linalg.det(m) < 0:
            m = m[::-1]
        verts = np.array([a, a + m[:, 0], a + m[:, 1]])
        mesh = Mesh(verts, [(0, 1, 2)])
        amap = build_affine_map(mesh, 0)
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1 / 3, 1 / 3]])
        back = amap.to_reference(amap.to_physical(ref))
        assert np.allclose(back, ref, atol=1e-12)


def test_degenerate_element_rejected():
    with pytest.raises(MeshError):
        Mesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])
    with pytest.raises(MeshError):
        # inverted orientation
        Mesh([(0, 0), (0, 1), (1, 0)], [(0, 1, 2)])


def test_facet_adjacency_symmetry_and_signs():
    mesh = generate_unit_square(3)
    mesh.validate()
    for f in mesh.interior_facets:
        tl, tr = mesh.facet_elements[f]
        jl, jr = mesh.facet_local[f]
        assert mesh.element_facets[tl, jl] == f
        assert mesh.element_facets[tr, jr] == f
        assert mesh.facet_sign[tl, jl] == -mesh.facet_sign[tr, jr]
    # global normal equals the left element's outward normal
    for f in range(mesh.n_facets):
        tl = mesh.facet_elements[f, 0]
        jl = mesh.facet_local[f, 0]
        assert mesh.facet_sign[tl, jl] == 1


def test_mesh_is_immutable():
    mesh = generate_unit_square(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


def test_locate_point():
    mesh = generate_unit_square(2)
    t, ref = mesh.locate_point((0.9, 0.1))
    amap = build_affine_map(mesh, t)
    assert np.allclose(amap.to_physical(ref), (0.9, 0.1))
    with pytest.raises(MeshError):
        mesh.locate_point((3.0, 3.0))


def test_locate_point_on_shared_edges_and_vertices_takes_lowest_element():
    mesh = generate_unit_square(2)
    # a diagonal edge, a vertical edge between cells, an interior vertex
    for point in [(0.25, 0.25), (0.5, 0.25), (0.5, 0.5)]:
        containing = []
        for t in range(mesh.n_elements):
            ref = build_affine_map(mesh, t).to_reference(point)
            if ref.min() >= -1e-10 and ref.sum() <= 1.0 + 1e-10:
                containing.append(t)
        t, ref = mesh.locate_point(point)
        assert len(containing) >= 2 and t == containing[0]
        assert np.allclose(build_affine_map(mesh, t).to_physical(ref), point)


def test_dump_load_roundtrip(tmp_path):
    mesh = generate_annulus(30.0, 70.0, 2, 8)
    path = tmp_path / "annulus.txt"
    dump_mesh(mesh, path)
    other = load_mesh(path)
    assert np.array_equal(mesh.vertices, other.vertices)
    assert np.array_equal(mesh.elements, other.elements)
    assert mesh.boundary_tags == other.boundary_tags
    # dumping again is bit-identical
    path2 = tmp_path / "again.txt"
    dump_mesh(other, path2)
    assert path.read_text() == path2.read_text()
