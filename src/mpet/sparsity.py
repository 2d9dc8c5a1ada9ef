"""Sparse compositions replayed as gathers on recorded patterns.

A parameter sweep composes the same sparse matrices over and over: the
operator's block grid, its restriction to the free DOFs, the condensed
operator and the preconditioner blocks.  Their sparsity patterns depend
on the mesh and on which DOFs and couplings are present, not on the
parameter values, so each composition is recorded once and every later
composition writes the parameter-weighted kernel data into the recorded
pattern with numpy gathers.

A composition is recorded by running scipy's own operations on *id
matrices*: copies of the operands whose data number the source entries
1, 2, ...  Operations that only move entries (``bmat``, fancy indexing,
transposes, ``block_diag``) carry the ids along, so the result's data
say where each of its entries comes from and its pattern and entry
order are scipy's.  Sums and differences are
recorded by :class:`Union`, and weighted copies by :func:`weighted_ids`.

A recorded map is kept as runs of consecutive source positions
(:class:`Runs`), a few per matrix row, and the recorded ``indices`` and
``indptr`` arrays are read-only and shared by every matrix composed on
them: each composition gets fresh ``data`` only, and scipy cannot sort
a shared pattern in place.
"""

import numpy as np
import scipy.sparse as sps

__all__ = ["Gather", "Runs", "Structure", "Union", "numbered", "weighted_ids"]


def numbered(*mats, start=0):
    """Id matrices of ``mats`` (CSR), numbering their entries consecutively from ``start + 1``.

    They share the read-only patterns of recorded matrices and copy any
    other, which scipy might sort in place.
    """
    out = []
    for mat in mats:
        ids = np.arange(start + 1, start + mat.nnz + 1, dtype=np.int32)
        pattern = [a if not a.flags.writeable else a.copy() for a in (mat.indices, mat.indptr)]
        out.append(sps.csr_matrix((ids, *pattern), shape=mat.shape))
        start += mat.nnz
    return out


def weighted_ids(place, n_weights, mat):
    """Id matrix of ``place(w, mat)`` numbering ``np.multiply.outer(w, mat.data).ravel()``.

    ``place(w, m)`` multiplies each entry of ``m`` by one of the ``n_weights``
    weights and moves it (a Kronecker product, a weighted embedding).  A
    pass with unit weights numbers the entries of ``mat``, and a pass with
    unit data numbers the weights; both products are exact in float64.
    """
    (ids,) = numbered(mat)
    entry = place(np.ones(n_weights), ids)
    ones = sps.csr_matrix((np.ones(mat.nnz), ids.indices, ids.indptr), shape=mat.shape)
    weight = place(np.arange(1.0, n_weights + 1), ones)
    entry.data = (weight.data - 1) * mat.nnz + entry.data
    return entry


class Runs:
    """An integer array stored as runs of consecutive values.

    ``values[k] = shift[r] + k`` on run ``r``; :meth:`expand` rebuilds the
    array.  Recorded maps follow the rows of their source blocks, so a
    matrix needs a few runs per row where an index array needs one entry
    per nonzero.
    """

    def __init__(self, values):
        starts = np.flatnonzero(values[1:] - values[:-1] != 1) + 1
        starts = np.concatenate([[0], starts]) if len(values) else starts
        self.shift = values[starts].astype(np.int64) - starts
        self.lengths = np.diff(starts, append=len(values)).astype(np.int32)
        self.size = len(values)

    def expand(self):
        values = np.repeat(self.shift, self.lengths)
        values += np.arange(self.size)
        return values


def _shared(ids):
    """``ids``' pattern arrays, made read-only to be shared by the replayed matrices."""
    for array in (ids.indices, ids.indptr):
        array.flags.writeable = False
    return ids.shape, ids.indices, ids.indptr


class Gather:
    """A recorded CSR pattern and, for each entry, the source entry it takes.

    Built from the id matrix a recording produced; :meth:`matrix` places
    ``source[take]`` into the shared pattern.
    """

    def __init__(self, ids):
        self.shape, self.indices, self.indptr = _shared(ids)
        self.take = Runs(ids.data - 1)

    def matrix(self, source):
        return sps.csr_matrix(
            (source[self.take.expand()], self.indices, self.indptr), shape=self.shape
        )


class Union:
    """The entries of ``P + Q`` (or ``P - Q``) for id matrices ``P`` and ``Q``.

    scipy's sum and difference walk the same merged pattern, in an order
    that depends only on the two patterns, so one recorded sum serves
    both: with ``Q``'s ids scaled by ``m = max(P) + 1`` every entry of
    ``P + m Q`` decodes to the pair of source entries it adds.  scipy
    drops an entry whose result is zero, so :meth:`values` returns every
    merged entry and :meth:`kept` the pattern without the dropped ones;
    callers key what they record on the dropped positions.
    """

    def __init__(self, p, q):
        m = float(p.data.max()) + 1.0
        p = sps.csr_matrix((p.data.astype(float), p.indices, p.indptr), shape=p.shape)
        q = sps.csr_matrix((q.data * m, q.indices, q.indptr), shape=q.shape)
        merged = p + q
        code = merged.data      # exact in float64 while m * max(Q) < 2^53
        b = np.floor(code / m)
        a = code - b * m - 1    # -1 where an operand has no entry
        b -= 1
        self.shape, self.indices, self.indptr = _shared(merged)
        self.size = len(code)
        self.has_a, self.has_b = a >= 0, b >= 0
        self.a, self.b = Runs(a[self.has_a]), Runs(b[self.has_b])

    def values(self, a, b, op=np.add):
        """``op`` of the two sources on every merged entry.

        This is scipy's per-entry arithmetic: where ``Q`` has no entry the
        result is ``P``'s (scipy's ``op(p, 0)``, equal to it unless both
        are zero), and where ``P`` has none it is ``op(0, q)``.
        """
        out = np.zeros(self.size)
        out[self.has_a] = a[self.a.expand()]
        out[self.has_b] = op(out[self.has_b], b[self.b.expand()])
        return out

    def kept(self, drop):
        """Id matrix of the result without the entries at ``drop``, numbering the merged entries.

        Without dropped entries it shares the merged pattern.
        """
        ids = np.arange(1, self.size + 1, dtype=np.int32)
        if not len(drop):
            return sps.csr_matrix((ids, self.indices, self.indptr), shape=self.shape)
        ids[drop] = 0
        kept = sps.csr_matrix((ids, self.indices.copy(), self.indptr.copy()), shape=self.shape)
        kept.eliminate_zeros()
        return kept


class Structure:
    """Recorded data of one composition step and the structures recorded on top of it.

    ``derive(key, record)`` returns the structure recorded under ``key``,
    calling ``record()`` the first time; a key names what the derived
    pattern depends on beyond this structure.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)
        self.derived = {}

    def derive(self, key, record):
        found = self.derived.get(key)
        if found is None:
            found = self.derived[key] = record()
        return found

    def clear(self):
        """Forget every structure recorded on top of this one; they are recorded again on use."""
        for found in self.derived.values():
            if isinstance(found, Structure):
                found.clear()
        self.derived.clear()
