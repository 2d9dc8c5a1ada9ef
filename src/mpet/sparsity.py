"""Sparse compositions recorded on their second use and replayed as gathers.

A parameter sweep composes the same sparse matrices over and over: the
operator's block grid, its restriction to the free DOFs, the condensed
operator and the preconditioner blocks.  Their sparsity patterns depend
on the mesh and on which DOFs and couplings are present, not on the
parameter values, so once a composition is recorded every later one
writes the parameter-weighted kernel data into the recorded pattern with
one numpy gather.

A composition is a function of its *operands*, sparse matrices whose
data are weighted kernel data, built from scipy operations that only
move entries (``bmat``, fancy indexing, transposes, ``block_diag``) and
at most one final sum.  :meth:`Structure.compose` runs it on the real
operands the first time it is used under a key, which is all that a
structure used once (a single cold solve) ever pays.  The second use
runs the same function on *id matrices*: copies of the operands whose
data number the source entries 1, 2, ...  The ids move with the entries,
so the result's data say where each of its entries comes from, and its
pattern and entry order are scipy's.  From then on the composition is
one gather from the operands' data.  Weighted copies of a
matrix (a Kronecker product, a per-network embedding) are operands on
:class:`Copies`, placed by index.  A :class:`Stack` takes several
operands as one, whose data it concatenates once for all the
compositions that replay from it.  A final sum is recorded by
:class:`Union`; a sum that is restricted afterwards is composed as the
sum of its restricted operands, and a difference as the sum with the
negated operand, which is the same floating-point operation.

The operands store no zeros and a term whose weight is zero is left
out, so a sum's merged pattern is the result's: a recorded pattern
depends only on the mesh, the constrained DOFs and which weights are
nonzero.  An entry whose two sources cancel exactly would stay as a
stored zero where scipy drops it; none occurs in any preset or test
cell.

A recorded map is a plain index array of numpy's ``intp``: numpy gathers
with any other integer type by casting it first, which made a replay
about 1.5 times as slow as with ``intp`` (int32, at 8x8 order 2).  The
recorded ``indices`` and ``indptr`` arrays are read-only and shared by
every matrix composed on them: each composition gets fresh ``data``
only, and scipy cannot sort a shared pattern in place.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sps

__all__ = ["Copies", "Gather", "Stack", "Structure", "Union"]


class Copies:
    """The pattern of ``n`` copies of ``mat`` placed by index, in a matrix of ``shape``.

    ``place(k, row, col)`` gives the positions of copy ``k``'s entries from
    their positions in ``mat`` (``k`` a column of copy numbers, ``row`` and
    ``col`` those of ``mat``'s entries in ``data`` order).  An operand on
    it holds copy ``k`` weighted by ``w[k]`` as the data
    ``np.multiply.outer(w, mat.data).ravel()``.  Copies must not overlap.
    """

    def __init__(self, mat, n, place, shape):
        self.mat, self.n, self.place, self.shape = mat, n, place, shape
        self.nnz = n * mat.nnz

    def on(self, data):
        coo = self.mat.tocoo()
        rows, cols = self.place(np.arange(self.n)[:, None], coo.row, coo.col)
        return sps.csr_matrix((data, (rows.ravel(), cols.ravel())), shape=self.shape)


class Stack:
    """Operands ``(pattern, data)`` taken as one operand of a composition.

    The composition gets their matrices as one list, and its recording
    numbers their entries in list order.  A replay gathers from
    :attr:`data`, their data concatenated on the first replay and kept,
    so every composition replayed from one stack shares one copy.
    """

    def __init__(self, *operands):
        self.operands = operands

    @cached_property
    def data(self):
        return np.concatenate([data for _, data in self.operands])


def _matrices(operand, on):
    """``on(pattern, data)`` of an operand, or the list of those of a :class:`Stack`."""
    if isinstance(operand, Stack):
        return [on(*pair) for pair in operand.operands]
    return on(*operand)


def _source(operand):
    """The data a replay gathers an operand's entries from."""
    return operand.data if isinstance(operand, Stack) else operand[1]


def _on(pattern, data):
    """``data`` on ``pattern``: :class:`Copies` or a CSR matrix, whose
    entries ``data`` lists in order (the matrix itself if ``data`` is its
    own).  A writeable CSR pattern is copied, because scipy might sort it
    in place."""
    if isinstance(pattern, Copies):
        return pattern.on(data)
    if data is pattern.data:
        return pattern
    shared = [a if not a.flags.writeable else a.copy() for a in (pattern.indices, pattern.indptr)]
    return sps.csr_matrix((data, *shared), shape=pattern.shape)


def _numbered(operands):
    """Id matrices on the patterns of ``operands``, their entries numbered
    consecutively from 1."""
    stop = 0

    def ids(pattern, _):
        nonlocal stop
        stop += pattern.nnz
        return _on(pattern, np.arange(stop - pattern.nnz + 1, stop + 1, dtype=np.int32))

    return [_matrices(operand, ids) for operand in operands]


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
        self.take = (ids.data - 1).astype(np.intp)

    def matrix(self, source):
        return self._on(source[self.take])


class Union(_Pattern):
    """The entries of ``P + Q`` for id matrices ``P`` and ``Q``.

    scipy's sum walks the merged pattern in an order that depends only on
    the two patterns: with ``Q``'s ids scaled by ``m = max(P) + 1`` every
    entry of ``P + m Q`` decodes to the pair of source entries it adds,
    ``a`` from ``P``'s source and ``b`` from ``Q``'s, whose ids follow the
    ``start`` ids of ``P``'s.  Operands without stored zeros and a nonzero
    weight on each make the merged pattern the result's; scipy would drop
    an entry that cancels exactly, which stays here as a stored zero (none
    occurs in any preset or test cell).
    """

    def __init__(self, p, q, start):
        m = float(p.data.max()) + 1.0
        p = sps.csr_matrix((p.data.astype(float), p.indices, p.indptr), shape=p.shape)
        q = sps.csr_matrix((q.data * m, q.indices, q.indptr), shape=q.shape)
        merged = p + q
        super().__init__(merged)
        code = merged.data      # exact in float64 while m * max(Q) < 2^53
        b = np.floor(code / m)
        a = code - b * m - 1    # -1 where an operand has no entry
        b -= start + 1
        self.size = len(code)
        self.has_a, self.has_b = a >= 0, b >= 0
        self.a, self.b = a[self.has_a].astype(np.intp), b[self.has_b].astype(np.intp)

    def matrix(self, p, q):
        """scipy's per-entry sum on the merged pattern of the sources ``p``
        and ``q``: where ``Q`` has no entry the result is ``P``'s (scipy's
        ``p + 0``, equal to it unless both are zero), and where ``P`` has
        none it is ``0 + q``."""
        out = np.zeros(self.size)
        out[self.has_a] = p[self.a]
        out[self.has_b] += q[self.b]
        return self._on(out)


_SEEN = "composed once"   # marks a key whose one composition ran directly


class Structure:
    """Data of one composition step and the structures recorded on top of it.

    ``derive(key, build)`` returns the data derived under ``key``, calling
    ``build()`` the first time; ``compose`` runs a composition directly on
    its first use under a key, records it on the second and replays it
    from then on.  A key names what the derived data or the composed
    pattern depend on beyond this structure.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)
        self.derived = {}

    def derive(self, key, build):
        found = self.derived.get(key)
        if found is None:
            found = self.derived[key] = build()
        return found

    def compose(self, key, fn, *operands):
        """``fn`` on the ``operands``, as a CSR matrix.

        Each operand is a pair ``(pattern, data)``, a CSR matrix whose
        entries ``data`` lists in order or :class:`Copies`, or a
        :class:`Stack` of such pairs.  ``fn`` takes the operands as
        matrices (a stack as a list of them) and returns the composed
        matrix, or the pair ``(P, Q)`` whose sum it is, ``P`` composed
        from the first of two operands and ``Q`` from the second.  Its
        first use under ``key`` runs on the real operands; the second
        records it and the later ones replay the recording, each one
        gather from the operands' data.  A composition takes one operand,
        recorded as a :class:`Gather`, or two whose sum it returns,
        recorded as a :class:`Union`.
        """
        found = self.derived.get(key)
        if found is None:
            self.derived[key] = _SEEN
            result = fn(*(_matrices(operand, _on) for operand in operands))
            return result[0] + result[1] if isinstance(result, tuple) else result
        sources = [_source(operand) for operand in operands]
        if found is _SEEN:
            ids = fn(*_numbered(operands))
            found = Union(*ids, len(sources[0])) if isinstance(ids, tuple) else Gather(ids)
            self.derived[key] = found
        return found.matrix(*sources)

    def clear(self):
        """Forget everything derived and recorded on top of this structure."""
        for found in self.derived.values():
            if isinstance(found, Structure):
                found.clear()
        self.derived.clear()
