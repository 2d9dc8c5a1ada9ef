"""Simplicial 2D meshes with facet topology, orientations and boundary tags.

A mesh stores triangles with a consistent positive orientation plus a full
facet (edge) table.  Every facet carries a fixed global normal direction:
for interior facets it is the outward normal of the adjacent element with
the lower index, for boundary facets the outward normal of the domain.
The two elements sharing an interior facet therefore see the global normal
with opposite signs, which makes assembly signs deterministic.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "Mesh",
    "AffineMap",
    "generate_unit_square",
    "generate_annulus",
    "build_affine_map",
]

# local edge j is opposite local vertex j, ordered (a, b)
LOCAL_EDGE_VERTICES = ((1, 2), (2, 0), (0, 1))


class MeshError(ValueError):
    """Raised for degenerate or inconsistent mesh input."""


@dataclass(frozen=True)
class AffineMap:
    """Affine map from the reference triangle {(0,0),(1,0),(0,1)} to an element.

    ``Mesh.element_maps`` holds the maps of all elements in one instance,
    every field with a leading element axis.
    """

    element: int
    origin: np.ndarray          # image of (0, 0)
    jacobian: np.ndarray        # 2x2, columns are edge vectors
    det: float
    inv_transpose: np.ndarray   # J^{-T}

    def to_physical(self, ref_points):
        """Map reference coordinates (m, 2) to physical coordinates.

        The maps of many elements give one ``(e, m, 2)`` block.
        """
        ref_points = np.asarray(ref_points, dtype=float)
        if np.ndim(self.det):
            return self.origin[:, None, :] + ref_points @ np.swapaxes(self.jacobian, 1, 2)
        return self.origin + ref_points @ self.jacobian.T

    def to_reference(self, phys_points):
        """Map physical coordinates (m, 2) back to reference coordinates."""
        phys_points = np.asarray(phys_points, dtype=float)
        return (phys_points - self.origin) @ self.inv_transpose


class Mesh:
    """Triangle mesh with facet topology.

    Parameters
    ----------
    vertices : (nv, 2) array
        Vertex coordinates.
    elements : (ne, 3) array
        Vertex index triples, each with positive signed area.
    boundary_tags : dict
        Map ``facet index -> tag string`` covering every boundary facet.
        Facet indices refer to the facet numbering built here, so
        generators tag through :meth:`tag_boundary` with a predicate.

    All arrays are frozen after construction; instances are safe for
    shared concurrent reads.
    """

    def __init__(self, vertices, elements, boundary_tags=None):
        self.vertices = np.array(vertices, dtype=float)
        self.elements = np.array(elements, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise MeshError("elements must be an (ne, 3) array")

        self._build_geometry()
        self._build_facets()

        self.boundary_tags = dict(boundary_tags) if boundary_tags else {}
        self._freeze()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_geometry(self):
        v = self.vertices[self.elements]            # (ne, 3, 2)
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0.0):
            bad = int(np.argmax(det <= 0.0))
            raise MeshError(f"element {bad} has non-positive signed area")
        self.element_area = 0.5 * det
        # affine maps of all elements, batched along a leading element axis
        jac = np.stack([e1, e2], axis=2)
        cofactor = np.stack([jac[:, 1, 1], -jac[:, 1, 0], -jac[:, 0, 1], jac[:, 0, 0]], axis=1)
        self.element_maps = AffineMap(
            element=np.arange(len(det)),
            origin=v[:, 0],
            jacobian=jac,
            det=det,
            inv_transpose=cofactor.reshape(-1, 2, 2) / det[:, None, None],
        )
        lengths = np.stack(
            [np.linalg.norm(v[:, b] - v[:, a], axis=1) for a, b in LOCAL_EDGE_VERTICES],
            axis=1,
        )
        self.element_h = lengths.max(axis=1)

    def _build_facets(self):
        ne = len(self.elements)
        # local edges element-major, (t, j) at row 3 t + j; facets are
        # numbered in the order their first edge appears
        a, b = np.array(LOCAL_EDGE_VERTICES).T
        ga, gb = self.elements[:, a].ravel(), self.elements[:, b].ravel()
        keys = np.stack([np.minimum(ga, gb), np.maximum(ga, gb)], axis=1)
        _, first, inverse, counts = np.unique(
            keys, axis=0, return_index=True, return_inverse=True, return_counts=True
        )
        if np.any(counts > 2):
            key = tuple(int(v) for v in keys[first[np.argmax(counts > 2)]])
            raise MeshError(f"facet {key} adjacent to more than two elements")
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        facet_of_edge = rank[inverse.ravel()]
        first = first[order]
        nf = len(first)

        # the second edge of each interior facet, found by blanking the first
        second = np.full(nf, -1)
        seen_twice = np.ones(3 * ne, dtype=bool)
        seen_twice[first] = False
        second[facet_of_edge[seen_twice]] = np.nonzero(seen_twice)[0]
        sides = np.stack([first, second], axis=1)
        self.facet_vertices = keys[first]
        self.facet_elements = np.where(sides >= 0, sides // 3, -1)
        self.facet_local = np.where(sides >= 0, sides % 3, -1)

        # global facet frame: tangent from lower to higher vertex index,
        # normal = outward normal of the lower-indexed ("left") element
        va = self.vertices[self.facet_vertices[:, 0]]
        vb = self.vertices[self.facet_vertices[:, 1]]
        d = vb - va
        self.facet_length = np.linalg.norm(d, axis=1)
        if np.any(self.facet_length <= 0.0):
            raise MeshError("zero-length facet")
        self.facet_tangent = d / self.facet_length[:, None]
        self.facet_midpoint = 0.5 * (va + vb)

        outward = self._outward_normals()
        self.facet_normal = outward[first]

        # per-element facet table with sign data:
        #   facet_sign      sigma = +1 if element outward normal == global normal
        #   facet_direction o     = +1 if local edge direction == global tangent
        self.element_facets = facet_of_edge.reshape(ne, 3)
        self.facet_direction = np.where(ga < gb, 1, -1).reshape(ne, 3)
        along = np.einsum("ka,ka->k", outward, self.facet_normal[facet_of_edge])
        self.facet_sign = np.where(along > 0.0, 1, -1).reshape(ne, 3)

        self.n_facets = nf
        bdry = self.facet_elements[:, 1] == -1
        self.boundary_facets = np.nonzero(bdry)[0]
        self.interior_facets = np.nonzero(~bdry)[0]

    def _outward_normals(self):
        """Unit outward normals ``(3 ne, 2)`` of every local edge, element-major."""
        v = self.vertices[self.elements]
        a, b = np.array(LOCAL_EDGE_VERTICES).T
        d = (v[:, b] - v[:, a]).reshape(-1, 2)
        # rotate tangent by -90 deg; for positively oriented triangles this
        # points out of the element on every edge
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        # one dot product per normal, as np.linalg.norm takes it (with the
        # rounding of a fused multiply-add where BLAS uses one)
        return n / np.sqrt(n[:, None, :] @ n[:, :, None])[:, 0]

    def _freeze(self):
        for value in [*vars(self).values(), *vars(self.element_maps).values()]:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def n_elements(self):
        return len(self.elements)

    def tag_boundary(self, predicate, tag):
        """Tag all boundary facets whose midpoint satisfies ``predicate``."""
        for f in self.boundary_facets:
            if predicate(self.facet_midpoint[f]):
                self.boundary_tags[int(f)] = tag

    def validate(self):
        """Check the structural invariants; raises MeshError on failure.

        Each message names the first offending facet, in the order of
        ``boundary_facets`` and ``interior_facets``.
        """
        untagged = ~np.isin(self.boundary_facets, np.fromiter(self.boundary_tags, int))
        if untagged.any():
            raise MeshError(f"boundary facet {int(self.boundary_facets[untagged][0])} has no tag")
        sides = self.facet_elements != -1
        facets = np.broadcast_to(np.arange(self.n_facets)[:, None], sides.shape)
        seen = self.element_facets[self.facet_elements[sides], self.facet_local[sides]]
        if np.any(seen != facets[sides]):
            raise MeshError("facet/element adjacency tables disagree")
        # interior facets must be seen with opposite signs from both sides
        f = self.interior_facets
        signs = self.facet_sign[self.facet_elements[f], self.facet_local[f]]
        opposite = signs[:, 0] * signs[:, 1] == -1
        if not opposite.all():
            raise MeshError(f"facet {int(f[~opposite][0])} normal signs not opposite")
        return True

    def locate_point(self, point, tol=1e-10):
        """Return (element, reference coords) of the element containing ``point``."""
        point = np.asarray(point, dtype=float)
        maps = self.element_maps
        ref = np.einsum("ea,eab->eb", point - maps.origin, maps.inv_transpose)
        inside = (ref[:, 0] >= -tol) & (ref[:, 1] >= -tol) & (ref.sum(axis=1) <= 1.0 + tol)
        if not inside.any():
            raise MeshError(f"point {point} lies outside the mesh")
        t = int(np.argmax(inside))      # the lowest-index containing element
        return t, build_affine_map(self, t).to_reference(point)


def build_affine_map(mesh, element):
    """Affine map of ``element``, read from ``mesh.element_maps``."""
    m = mesh.element_maps
    parts = (m.origin, m.jacobian, m.det, m.inv_transpose)
    return AffineMap(element, *(a[element] for a in parts))


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def generate_unit_square(n_per_side):
    """Uniform triangulation of (0,1)^2 with ``2 n^2`` elements.

    Every cell of the n-by-n grid is split along the (0,0)-(1,1) diagonal.
    All boundary facets are tagged ``"boundary"``.
    """
    n = int(n_per_side)
    if n < 1:
        raise MeshError("n_per_side must be at least 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([(x, y) for y in xs for x in xs])
    vid = lambda i, j: j * (n + 1) + i
    elems = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            elems.append((v00, v10, v11))
            elems.append((v00, v11, v01))
    mesh = Mesh(verts, elems)
    mesh.tag_boundary(lambda x: True, "boundary")
    mesh.validate()
    return mesh


def generate_annulus(r_inner, r_outer, n_radial, n_angular):
    """Structured triangulation of an annulus.

    The inner circle is tagged ``"ventricle"`` and the outer ``"skull"``.
    Radii must satisfy ``0 < r_inner < r_outer`` and ``n_angular >= 3``.
    """
    if not (0.0 < r_inner < r_outer) or n_radial < 1 or n_angular < 3:
        raise MeshError("invalid geometry")
    radii = np.linspace(r_inner, r_outer, n_radial + 1)
    angles = 2.0 * np.pi * np.arange(n_angular) / n_angular
    verts = np.array(
        [(r * np.cos(a), r * np.sin(a)) for r in radii for a in angles]
    )
    vid = lambda k, j: k * n_angular + (j % n_angular)
    elems = []
    for k in range(n_radial):
        for j in range(n_angular):
            a, b = vid(k, j), vid(k + 1, j)
            c, d = vid(k + 1, j + 1), vid(k, j + 1)
            elems.append((a, b, c))
            elems.append((a, c, d))
    mesh = Mesh(verts, elems)
    # ring membership decides the tag; midpoint radii are unreliable for
    # coarse angular resolutions
    n_outer_start = n_radial * n_angular
    for f in mesh.boundary_facets:
        va, vb = mesh.facet_vertices[f]
        if va < n_angular and vb < n_angular:
            mesh.boundary_tags[int(f)] = "ventricle"
        elif va >= n_outer_start and vb >= n_outer_start:
            mesh.boundary_tags[int(f)] = "skull"
    mesh.validate()
    return mesh
