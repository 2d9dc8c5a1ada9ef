import numpy as np
import pytest

from mpet.mesh import (
    Mesh,
    MeshError,
    build_affine_map,
    generate_annulus,
    generate_unit_square,
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


def _corrupted(mesh, name, index, value):
    """``mesh`` with one entry of a copy of its table ``name`` replaced."""
    table = getattr(mesh, name).copy()
    table[index] = value
    setattr(mesh, name, table)
    return mesh


def test_validate_names_the_first_corrupted_facet():
    """Each corrupted table fails with the message the per-facet loops gave."""
    mesh = generate_unit_square(3)
    f0, f1 = mesh.interior_facets[[2, 5]]
    for f in (f1, f0):   # the message names the first bad facet, not the last corrupted
        tl, jl = mesh.facet_elements[f, 0], mesh.facet_local[f, 0]
        _corrupted(mesh, "facet_sign", (tl, jl), -mesh.facet_sign[tl, jl])
    with pytest.raises(MeshError, match=rf"^facet {f0} normal signs not opposite$"):
        mesh.validate()

    mesh = generate_unit_square(3)
    t, j = mesh.facet_elements[f0, 1], mesh.facet_local[f0, 1]
    _corrupted(mesh, "element_facets", (t, j), f1)
    with pytest.raises(MeshError, match="^facet/element adjacency tables disagree$"):
        mesh.validate()

    mesh = generate_unit_square(3)
    for f in mesh.boundary_facets[[4, 1]]:
        del mesh.boundary_tags[int(f)]
    with pytest.raises(MeshError, match=rf"^boundary facet {mesh.boundary_facets[1]} has no tag$"):
        mesh.validate()


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


def loop_facets(vertices, elements):
    """Per-element loop reference for the facet tables built by ``Mesh``.

    Facets are numbered in the order their first (element, local edge)
    appears; the normal is the outward normal of that first side.
    """
    first_seen, fv, f_elems, f_local = {}, [], [], []
    for t, tri in enumerate(elements):
        for j, (a, b) in enumerate(LOCAL_EDGE_VERTICES):
            key = tuple(sorted((int(tri[a]), int(tri[b]))))
            if key not in first_seen:
                first_seen[key] = len(fv)
                fv.append(key)
                f_elems.append([t, -1])
                f_local.append([j, -1])
            else:
                f = first_seen[key]
                if f_elems[f][1] != -1:
                    raise MeshError(f"facet {key} adjacent to more than two elements")
                f_elems[f][1] = t
                f_local[f][1] = j
    normals = []
    for t, j in zip(np.array(f_elems)[:, 0], np.array(f_local)[:, 0]):
        a, b = LOCAL_EDGE_VERTICES[j]
        d = vertices[elements[t, b]] - vertices[elements[t, a]]
        n = np.array([d[1], -d[0]])
        normals.append(n / np.linalg.norm(n))
    return np.array(fv), np.array(f_elems), np.array(f_local), np.array(normals)


def perturbed_square(n, seed):
    base = generate_unit_square(n)
    rng = np.random.default_rng(seed)
    verts = base.vertices.copy()
    inner = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[inner] += rng.uniform(-0.2, 0.2, size=(inner.sum(), 2)) / n
    mesh = Mesh(verts, base.elements)
    mesh.tag_boundary(lambda x: True, "boundary")
    return mesh


@pytest.mark.parametrize(
    "mesh",
    [generate_unit_square(5), generate_annulus(1.0, 2.0, 3, 11), perturbed_square(6, 3)],
    ids=["square", "annulus", "perturbed"],
)
def test_facet_tables_equal_loop_reference_bitwise(mesh):
    fv, f_elems, f_local, normals = loop_facets(mesh.vertices, mesh.elements)
    assert np.array_equal(mesh.facet_vertices, fv)
    assert np.array_equal(mesh.facet_elements, f_elems)
    assert np.array_equal(mesh.facet_local, f_local)
    assert np.array_equal(mesh.facet_normal, normals)
    for f, ((tl, tr), (jl, jr)) in enumerate(zip(f_elems, f_local)):
        assert mesh.element_facets[tl, jl] == f
        if tr >= 0:
            assert mesh.element_facets[tr, jr] == f
    mesh.validate()


def test_non_manifold_facet_rejected():
    # three triangles on the edge (0, 1)
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, 2.0), (0.5, 3.0)]
    elems = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(MeshError, match=r"facet \(0, 1\) adjacent to more than two"):
        Mesh(verts, elems)
