"""Block decomposition with component overlapping (paper §6).

The grid's ``n²`` unknowns are split into horizontal strips of whole grid
lines, one strip ("block") per processor.  Each block *owns* a contiguous
range of grid lines; with overlap ``o`` it additionally *computes* ``o``
lines on each side (components computed by two processors).  Crucially —
and this is the paper's point — the data exchanged per neighbour stays **one
grid line (n components)** regardless of the overlap: the line a block needs
is the boundary line of its *extended* region, which lies inside the
neighbour's owned region as long as ``o + 1 ≤`` the neighbour's strip width.

The decomposition is derived purely from the sparse matrix: the external
components a block needs are exactly the columns outside its extended range
that carry nonzeros in its rows.  For the 5-point Laplacian these are the
one grid line above and below; the machinery is generic, so other banded
operators (e.g. the implicit heat-equation matrix) decompose identically.

The global matrix, every ``A_local`` and every ``B_coupling`` are
:class:`~repro.numerics.csr.CsrMatrix` values: a scipy matrix handed in is
canonicalized and wrapped once, at the constructor, and each block's row
range is sliced once and split into ``A_local`` / ``B_coupling`` with
vectorized index arithmetic on the raw CSR arrays, without scipy.

Because every task of an application — and every churn replacement — derives
the *same* decomposition from the application parameters,
:func:`shared_decomposition` memoizes builds process-wide.  Cached
decompositions are frozen (``writeable=False`` on every array; the
matrices are read-only by construction) so a task mutating shared
operators fails loudly instead of corrupting its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.numerics.csr import CsrMatrix

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["BlockInfo", "BlockDecomposition", "DecompositionCache",
           "DECOMPOSITION_CACHE", "shared_decomposition"]


@dataclass
class BlockInfo:
    """Everything one processor needs for its local sub-iterations."""

    index: int
    #: owned global index range [own_start, own_end)
    own_start: int
    own_end: int
    #: extended (computed) global range [ext_start, ext_end)
    ext_start: int
    ext_end: int
    #: local sub-matrix A[ext, ext]
    A_local: CsrMatrix
    #: global column indices outside the extended range with nonzeros in
    #: this block's rows — the components that must come from neighbours
    ext_cols: np.ndarray
    #: coupling matrix A[ext, ext_cols]: local_rhs = b_ext - B @ ext_vals
    B_coupling: CsrMatrix
    #: local right-hand side b[ext]
    b_local: np.ndarray
    #: map neighbour block index -> (positions in ext_cols owned by them)
    ext_sources: dict[int, np.ndarray] = field(default_factory=dict)
    #: map neighbour block index -> global indices this block must SEND them
    send_map: dict[int, np.ndarray] = field(default_factory=dict)
    #: map neighbour block index -> *local* indices of the same components
    #: (``send_map[nb] - ext_start``, precomputed once)
    send_local: dict[int, np.ndarray] = field(default_factory=dict)
    #: neighbours whose send indices form one contiguous local run, as
    #: ``slice(start, stop)`` — for strip decompositions that is every
    #: neighbour (a whole grid line), which is what makes the zero-copy
    #: boundary payloads of :meth:`values_to_send_view` possible
    send_slices: dict[int, slice] = field(default_factory=dict)
    #: scratch slot for per-matrix solver state (e.g. the cached
    #: :class:`~repro.numerics.cg.CgOperator`); keyed by consumer name.
    #: Excluded from equality: it is a cache, not part of the decomposition.
    op_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_owned(self) -> int:
        return self.own_end - self.own_start

    @property
    def n_ext(self) -> int:
        return self.ext_end - self.ext_start

    def owned_of(self, x_local: np.ndarray) -> np.ndarray:
        """Extract the owned components from an extended-range local vector."""
        lo = self.own_start - self.ext_start
        return x_local[lo : lo + self.n_owned]

    def values_to_send(self, x_local: np.ndarray, neighbour: int) -> np.ndarray:
        """The components destined for ``neighbour`` (one grid line each)."""
        idx = self.send_local.get(neighbour)
        if idx is None:
            idx = self.send_map[neighbour] - self.ext_start
        return x_local[idx]

    def values_to_send_view(self, x_local: np.ndarray, neighbour: int) -> np.ndarray:
        """Zero-copy variant: a frozen (read-only) view when the send
        indices are one contiguous run, else the copying fallback.

        Value-identical to :meth:`values_to_send`; the returned array is
        marked non-writeable so a receiver mutating a boundary payload in
        place fails loudly instead of corrupting the sender's state.
        """
        sl = self.send_slices.get(neighbour)
        if sl is None:
            return self.values_to_send(x_local, neighbour)
        v = x_local[sl]
        v.flags.writeable = False
        return v

    def outgoing_payloads(self, x_local: np.ndarray) -> dict[int, np.ndarray]:
        """One boundary payload per neighbour, as frozen zero-copy views.

        Safe for every task in :mod:`repro.apps`: they *rebind* their
        solution vector each iteration (never mutate it in place), so an
        in-flight view keeps showing the values it was sent with.
        """
        return {nb: self.values_to_send_view(x_local, nb)
                for nb in self.send_map}

    def coupled_rows(self) -> tuple[np.ndarray, CsrMatrix, np.ndarray]:
        """``(rows, B_coupling[rows], b_local[rows])`` for the local rows
        ``B_coupling`` reaches, cached in :attr:`op_cache`.

        Only these rows of ``b_local − B_coupling·ext`` depend on ``ext``.
        Every stored entry of ``B_coupling`` sits in one of them, so the
        restriction keeps its data and column arrays as they are — same
        terms, same order per row — and only drops the empty rows from
        ``indptr``: its product is byte-identical to those rows of the full
        one.
        """
        cached = self.op_cache.get("coupled_rows")
        if cached is None:
            B = self.B_coupling
            rows = np.flatnonzero(np.diff(B.indptr))
            indptr = np.concatenate((B.indptr[:1], B.indptr[rows + 1]))
            B_rows = CsrMatrix(B.data, B.indices, indptr,
                               (rows.size, B.shape[1]))
            b_rows = self.b_local[rows]
            for arr in (rows, b_rows):
                arr.flags.writeable = False
            cached = self.op_cache["coupled_rows"] = (rows, B_rows, b_rows)
        return cached

    def _index_slices(self) -> None:
        """Precompute :attr:`send_slices` from :attr:`send_local`."""
        for nb, idx in self.send_local.items():
            if idx.size and idx[-1] - idx[0] == idx.size - 1 and (
                idx.size < 2 or bool((np.diff(idx) == 1).all())
            ):
                self.send_slices[nb] = slice(int(idx[0]), int(idx[-1]) + 1)


class BlockDecomposition:
    """Split ``A x = b`` into ``nblocks`` strip blocks with overlap.

    Parameters
    ----------
    A, b:
        The global system: a :class:`~repro.numerics.csr.CsrMatrix` or a
        scipy sparse matrix, and a dense vector.
    nblocks:
        Number of processors.
    line:
        Size of one indivisible line of components (the paper's ``n``:
        block boundaries are multiples of a discretized grid line).  Use 1
        for unstructured systems.
    overlap:
        Number of *lines* computed by two neighbouring processors on each
        side.  Must leave every extended boundary inside the neighbour's
        owned range (``overlap + 1 <= min strip width in lines``).
    """

    def __init__(
        self,
        A: CsrMatrix | sp.spmatrix,
        b: np.ndarray,
        nblocks: int,
        line: int = 1,
        overlap: int = 0,
    ):
        if not isinstance(A, CsrMatrix):
            A = A.tocsr()
            if not A.has_canonical_format:
                # the split keeps sorted, duplicate-free rows canonical
                A = A.copy()
                A.sum_duplicates()
            A = CsrMatrix.of(A)
        N = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        b = np.asarray(b, dtype=float)
        if b.shape != (N,):
            raise ValueError("b shape mismatch")
        if N % line != 0:
            raise ValueError(f"system size {N} is not a multiple of line={line}")
        nlines = N // line
        if not 1 <= nblocks <= nlines:
            raise ValueError(f"nblocks must be in [1, {nlines}]")
        if overlap < 0:
            raise ValueError("overlap must be >= 0")

        self.A = A
        self.b = b
        self.N = N
        self.line = line
        self.nblocks = nblocks
        self.overlap = overlap

        # Balanced strip partition in whole lines.
        base, extra = divmod(nlines, nblocks)
        widths = [base + (1 if k < extra else 0) for k in range(nblocks)]
        if overlap > 0 and nblocks > 1 and overlap + 1 > min(widths):
            raise ValueError(
                f"overlap={overlap} too large for strip width {min(widths)} lines"
            )
        starts_l = np.concatenate([[0], np.cumsum(widths)])

        self.blocks: list[BlockInfo] = []
        for k in range(nblocks):
            own_s = int(starts_l[k]) * line
            own_e = int(starts_l[k + 1]) * line
            ext_s = max(0, own_s - overlap * line)
            ext_e = min(N, own_e + overlap * line)
            A_local, ext_cols, B_coupling = _split_rows(A, ext_s, ext_e)
            info = BlockInfo(
                index=k,
                own_start=own_s,
                own_end=own_e,
                ext_start=ext_s,
                ext_end=ext_e,
                A_local=A_local,
                ext_cols=ext_cols,
                B_coupling=B_coupling,
                b_local=b[ext_s:ext_e].copy(),
            )
            self.blocks.append(info)

        # Wire up who supplies each external component and what each block
        # must send.  Ownership is unambiguous (owned ranges partition [0,N)).
        owner_of = np.empty(N, dtype=int)
        for blk in self.blocks:
            owner_of[blk.own_start : blk.own_end] = blk.index
        for blk in self.blocks:
            if blk.ext_cols.size == 0:
                continue
            owners = owner_of[blk.ext_cols]
            for src in np.unique(owners):
                positions = np.where(owners == src)[0]
                blk.ext_sources[int(src)] = positions
                needed_globals = blk.ext_cols[positions]
                src_blk = self.blocks[int(src)]
                src_blk.send_map[blk.index] = needed_globals
                src_blk.send_local[blk.index] = needed_globals - src_blk.ext_start
        for blk in self.blocks:
            blk._index_slices()

    # -- global assembly helpers ---------------------------------------------

    def neighbours(self, k: int) -> list[int]:
        """Blocks that block ``k`` exchanges data with (symmetric)."""
        blk = self.blocks[k]
        return sorted(set(blk.ext_sources) | set(blk.send_map))

    def assemble(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Stitch a global vector from each block's owned components."""
        if len(locals_) != self.nblocks:
            raise ValueError("need one local vector per block")
        x = np.zeros(self.N)
        for blk, xl in zip(self.blocks, locals_):
            if xl.shape != (blk.n_ext,):
                raise ValueError(
                    f"block {blk.index}: local vector has shape {xl.shape}, "
                    f"expected ({blk.n_ext},)"
                )
            x[blk.own_start : blk.own_end] = blk.owned_of(xl)
        return x

    def exchange_volume(self, k: int) -> int:
        """Total components block ``k`` sends per outer iteration.

        For the 5-point Laplacian this is ``n`` per neighbour, independent
        of the overlap — the paper's "exchanged data are constant".
        """
        return int(sum(v.size for v in self.blocks[k].send_map.values()))

    def local_rhs(self, k: int, ext_values: np.ndarray) -> np.ndarray:
        """``b_ext - B @ ext_values`` for block ``k``, in a fresh array,
        byte for byte; only the coupled rows (:meth:`BlockInfo.coupled_rows`)
        are computed, the others are ``b_ext``."""
        blk = self.blocks[k]
        rhs = blk.b_local.copy()
        if blk.ext_cols.size == 0:
            return rhs
        if ext_values.shape != (blk.ext_cols.size,):
            raise ValueError("ext_values shape mismatch")
        rows, B_rows, b_rows = blk.coupled_rows()
        rhs[rows] = b_rows - B_rows @ ext_values
        return rhs


def _split_rows(A: CsrMatrix, ext_s: int, ext_e: int):
    """Split rows [ext_s, ext_e) into (A_local, ext_cols, B_coupling).

    Works directly on the CSR arrays: one boolean mask separates each
    stored entry into the diagonal block (columns inside the row range) and
    the coupling block (columns outside), each built from its raw
    ``(data, indices, indptr)``.  Within-row column order is preserved, so
    a canonical parent gives canonical blocks.
    """
    indptr, indices, data = A.indptr, A.indices, A.data
    start, end = int(indptr[ext_s]), int(indptr[ext_e])
    cols = indices[start:end]
    vals = data[start:end]
    nloc = ext_e - ext_s
    row_counts = np.diff(indptr[ext_s : ext_e + 1])
    row_ids = np.repeat(np.arange(nloc), row_counts)

    inside = (cols >= ext_s) & (cols < ext_e)

    in_rows = row_ids[inside]
    indptr_in = np.zeros(nloc + 1, dtype=indptr.dtype)
    np.cumsum(np.bincount(in_rows, minlength=nloc), out=indptr_in[1:])
    A_local = CsrMatrix(
        vals[inside], (cols[inside] - ext_s).astype(indptr.dtype, copy=False),
        indptr_in, (nloc, nloc))

    outside = ~inside
    out_cols_g = cols[outside]
    ext_cols = np.unique(out_cols_g).astype(np.intp, copy=False)
    out_rows = row_ids[outside]
    indptr_out = np.zeros(nloc + 1, dtype=indptr.dtype)
    np.cumsum(np.bincount(out_rows, minlength=nloc), out=indptr_out[1:])
    B_coupling = CsrMatrix(
        vals[outside],
        np.searchsorted(ext_cols, out_cols_g).astype(indptr.dtype, copy=False),
        indptr_out, (nloc, ext_cols.size))
    return A_local, ext_cols, B_coupling


# -- process-wide decomposition memo ----------------------------------------


def _freeze_array(a: np.ndarray) -> None:
    a.flags.writeable = False


def freeze_decomposition(decomp: BlockDecomposition) -> BlockDecomposition:
    """Make every array of ``decomp`` read-only (shared-safe) and return it."""
    _freeze_array(decomp.b)
    for blk in decomp.blocks:
        _freeze_array(blk.b_local)
        _freeze_array(blk.ext_cols)
        for mapping in (blk.ext_sources, blk.send_map, blk.send_local):
            for arr in mapping.values():
                _freeze_array(arr)
    return decomp


class DecompositionCache:
    """Process-wide memo of frozen :class:`BlockDecomposition` builds.

    Every task of an application — and every churn replacement — rebuilds
    the same global system and decomposition from the application
    parameters; this cache amortizes P tasks + R recoveries to one build.
    Entries are frozen on insertion, so sharing is safe: any attempt to
    mutate a cached operator raises instead of corrupting sibling tasks.
    """

    def __init__(self):
        self._entries: dict = {}
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key, builder) -> BlockDecomposition:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        entry = freeze_decomposition(builder())
        self._entries[key] = entry
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses}


#: The process-wide instance.
DECOMPOSITION_CACHE = DecompositionCache()


def shared_decomposition(
    problem_key: tuple,
    build_system,
    *,
    nblocks: int,
    line: int = 1,
    overlap: int = 0,
) -> BlockDecomposition:
    """Memoized decomposition build for task setup/recovery.

    ``problem_key`` identifies the global system (e.g. ``("poisson",
    "manufactured", n)``); together with ``nblocks``/``line``/``overlap`` it
    forms the cache key.  ``build_system()`` must deterministically return
    the global ``(A, b)`` for that key — it only runs on a miss.
    """
    key = (problem_key, nblocks, line, overlap)

    def builder() -> BlockDecomposition:
        A, b = build_system()
        return BlockDecomposition(A, b, nblocks=nblocks, line=line,
                                  overlap=overlap)

    return DECOMPOSITION_CACHE.get_or_build(key, builder)
