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
order are scipy's.  A transposed block is the transpose of its id
matrix, so it takes the entries of the block itself and the source
holds no transposed data.  Weighted copies of a matrix (a Kronecker
product, a per-network embedding) are placed by index with
:func:`copies`, which numbers every copy's entries at once.  Sums and
differences are recorded by :class:`Union`; a sum that is restricted
afterwards is recorded as the sum of its restricted operands.

The operands store no zeros and a term whose weight is zero is left
out, so a sum's merged pattern is the result's: a recorded pattern
depends only on the mesh, the constrained DOFs and which weights are
nonzero.  An entry whose two sources cancel exactly would stay as a
stored zero where scipy drops it; none occurs in any preset or test
cell.

A recorded map is kept as runs of consecutive source positions
(:class:`Runs`), a few per matrix row, and the recorded ``indices`` and
``indptr`` arrays are read-only and shared by every matrix composed on
them: each composition gets fresh ``data`` only, and scipy cannot sort
a shared pattern in place.
"""

import numpy as np
import scipy.sparse as sps

__all__ = ["Gather", "Runs", "Structure", "Union", "copies", "numbered"]


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


def copies(mat, n, place, shape):
    """Id matrix of ``n`` copies of ``mat`` placed by index, of the given ``shape``.

    ``place(k, row, col)`` gives the positions of copy ``k``'s entries from
    their positions in ``mat`` (``k`` a column of copy numbers, ``row`` and
    ``col`` those of ``mat``'s entries in ``data`` order).  Copy ``k``'s
    entries are numbered ``k nnz + 1, ...``, the positions of their values
    in ``np.multiply.outer(w, mat.data).ravel()`` for weights ``w``.
    Copies must not overlap.
    """
    coo = mat.tocoo()
    rows, cols = place(np.arange(n)[:, None], coo.row, coo.col)
    ids = np.arange(1, n * mat.nnz + 1, dtype=np.int32)
    return sps.csr_matrix((ids, (rows.ravel(), cols.ravel())), shape=shape)


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
        self.shift = (values[starts] - starts).astype(np.int32)
        self.lengths = np.diff(starts, append=len(values)).astype(np.int32)
        self.size = len(values)

    def expand(self):
        values = np.arange(self.size)
        values += np.repeat(self.shift, self.lengths)
        return values


class _Pattern:
    """A recorded CSR pattern whose read-only ``indices`` and ``indptr`` are
    shared by every matrix placed on it."""

    def __init__(self, ids):
        for array in (ids.indices, ids.indptr):
            array.flags.writeable = False
        self.shape, self.indices, self.indptr = ids.shape, ids.indices, ids.indptr

    def _on(self, data):
        return sps.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


class Gather(_Pattern):
    """A recorded CSR pattern and, for each entry, the source entry it takes.

    Built from the id matrix a recording produced; :meth:`matrix` places
    ``source[take]`` into the shared pattern.
    """

    def __init__(self, ids):
        super().__init__(ids)
        self.take = Runs(ids.data - 1)

    def matrix(self, source):
        return self._on(source[self.take.expand()])


class Union(_Pattern):
    """The entries of ``P + Q`` (or ``P - Q``) for id matrices ``P`` and ``Q``.

    scipy's sum and difference walk the same merged pattern, in an order
    that depends only on the two patterns, so one recorded sum serves
    both: with ``Q``'s ids scaled by ``m = max(P) + 1`` every entry of
    ``P + m Q`` decodes to the pair of source entries it adds.  Operands
    without stored zeros and a nonzero weight on each make the merged
    pattern the result's; scipy would drop an entry that cancels exactly,
    which stays here as a stored zero (none occurs in any preset or test
    cell).
    """

    def __init__(self, p, q):
        m = float(p.data.max()) + 1.0
        p = sps.csr_matrix((p.data.astype(float), p.indices, p.indptr), shape=p.shape)
        q = sps.csr_matrix((q.data * m, q.indices, q.indptr), shape=q.shape)
        merged = p + q
        super().__init__(merged)
        code = merged.data      # exact in float64 while m * max(Q) < 2^53
        b = np.floor(code / m)
        a = code - b * m - 1    # -1 where an operand has no entry
        b -= 1
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

    def matrix(self, a, b, op=np.add):
        """:meth:`values` on the merged pattern."""
        return self._on(self.values(a, b, op))

    def ids(self):
        """Id matrix numbering the merged entries, on the merged pattern."""
        return self._on(np.arange(1, self.size + 1, dtype=np.int32))


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
