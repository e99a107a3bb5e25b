"""Sparse storage formats and metadata-cost accounting.

Reproduces the storage analysis of Sec. III-A and Fig. 4 (right) of the
paper: the CRISP hybrid format needs only block column-indices
(Blocked-Ellpack over the coarse grid) plus 2-bit intra-group offsets for the
N:M values, which is several times cheaper than general-purpose CSR or
ELLPACK encodings of the same matrix.

This module is the only place that knows what a storage format *is*.  Every
format subclasses :class:`WeightFormat` and declares one contract: a ``name``
(its key in :data:`FORMATS` and in a backend's kernel table), the ``shape``
of the matrix it encodes, ``array_names`` / ``param_names`` (the stored
arrays and scalars that together *are* the encoding), ``from_dense`` /
``to_dense`` (a lossless round trip for matrices that satisfy the format's
structural assumptions), ``summary`` (``data_bits`` for the retained
values, ``metadata_bits`` for indices / pointers / padding bookkeeping) and
``scale_columns`` (how an engine folds batch-norm into a stored encoding).
Everything else is generic over that contract — :func:`encode` by name,
``arrays()`` / ``params()`` / ``from_parts`` to ship an encoding between
processes (:mod:`repro.shm`) — so changing what a format stores, or adding
one, is an edit here plus one kernel per backend.

The paper's closed-form metadata estimates are available as
:func:`paper_block_metadata_bits` and :func:`paper_nm_metadata_bits`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, Mapping, Tuple, Type

import numpy as np

from .block import BlockGrid, partition_into_blocks
from .masks import pad_to_multiple

__all__ = [
    "FormatSummary",
    "WeightFormat",
    "FORMATS",
    "encode",
    "DenseFormat",
    "CSRFormat",
    "ELLPACKFormat",
    "BlockedEllpackFormat",
    "CRISPFormat",
    "paper_block_metadata_bits",
    "paper_nm_metadata_bits",
    "compare_formats",
    "DEFAULT_VALUE_BITS",
    "DEFAULT_INDEX_BITS",
]

#: Bits per stored weight value (8-bit quantised deployment, as in edge inference).
DEFAULT_VALUE_BITS = 8
#: Bits per general-purpose index/pointer (CSR / ELLPACK column indices).
DEFAULT_INDEX_BITS = 16


def _ceil_log2(value: int) -> int:
    """``ceil(log2(value))`` with a floor of 1 bit (an index always costs >= 1 bit)."""
    if value <= 1:
        return 1
    return int(math.ceil(math.log2(value)))


@dataclass
class FormatSummary:
    """Bit-cost summary of one encoded matrix."""

    format_name: str
    shape: Tuple[int, int]
    nnz: int
    data_bits: int
    metadata_bits: int

    @property
    def total_bits(self) -> int:
        return self.data_bits + self.metadata_bits

    def metadata_overhead_vs(self, other: "FormatSummary") -> float:
        """Ratio of this format's metadata bits to another's (Fig. 4 comparison)."""
        if other.metadata_bits == 0:
            return math.inf
        return self.metadata_bits / other.metadata_bits


@dataclass(eq=False, repr=False)
class WeightFormat(ABC):
    """One encoded weight matrix: the contract every storage format declares.

    Subclasses are dataclasses whose fields are exactly ``array_names`` plus
    ``param_names``, so ``from_parts(fmt.params(), fmt.arrays())`` is the same
    encoding over the same buffers.
    """

    #: Key in :data:`FORMATS` and in every backend's kernel table.
    name: ClassVar[str]
    #: Stored ``ndarray`` attributes, in the order a serializer lays them out.
    array_names: ClassVar[Tuple[str, ...]]
    #: Scalar attributes (ints, bools, the ``shape`` tuple) stored next to them.
    param_names: ClassVar[Tuple[str, ...]]
    #: Whether ``to_dense`` returns exactly the matrix that was encoded.  A
    #: format that can drop values stores this per encoding instead.
    is_lossless = True

    #: Memo of what a kernel derives from the stored arrays alone (the fast
    #: backend's decoded GEMM operands).  Never serialized, so a rebuilt
    #: encoding starts empty; stale if arrays are mutated in place — re-encode.
    derived: dict = field(default_factory=dict, init=False)

    @classmethod
    @abstractmethod
    def from_dense(cls, matrix: np.ndarray, **params) -> "WeightFormat":
        """Encode a 2-D matrix (each format names the parameters it takes)."""

    @abstractmethod
    def to_dense(self) -> np.ndarray:
        """Decode back to the ``shape`` matrix."""

    @abstractmethod
    def summary(self) -> FormatSummary:
        """Bit cost of this encoding."""

    def scale_columns(self, scale: np.ndarray) -> "WeightFormat":
        """A copy whose column ``j`` is this encoding's column ``j`` times ``scale[j]``.

        How an engine folds batch-norm into a stored ``(reduction, out)``
        weight: every stored value gets the one product ``w * scale[j]`` that
        encoding the scaled matrix would have stored.  This default decodes,
        scales and re-encodes; a format that can scale its stored values in
        place of that overrides it.
        """
        params = {key: self.params().get(key) for key in ("n", "m", "block_size", "value_bits")}
        return encode(self.name, self.to_dense() * scale, **params)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The stored arrays by name (the objects themselves, not copies)."""
        return {name: getattr(self, name) for name in self.array_names}

    def params(self) -> Dict[str, object]:
        """The scalar parameters by name, JSON-compatible (``shape`` as a list)."""
        params = {}
        for name in self.param_names:
            value = getattr(self, name)
            params[name] = list(value) if isinstance(value, tuple) else value
        return params

    @classmethod
    def from_parts(
        cls, params: Mapping[str, object], arrays: Mapping[str, np.ndarray]
    ) -> "WeightFormat":
        """Rebuild an encoding from ``params()`` and ``arrays()``.

        Arrays are adopted as they are (read-only views stay views); names
        other than the declared ones raise ``ValueError``.
        """
        if set(params) != set(cls.param_names) or set(arrays) != set(cls.array_names):
            raise ValueError(
                f"{cls.name} format stores params {sorted(cls.param_names)} and arrays "
                f"{sorted(cls.array_names)}; got {sorted(params)} and {sorted(arrays)}"
            )
        scalars = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in params.items()
        }
        return cls(**scalars, **arrays)


@dataclass(eq=False, repr=False)
class DenseFormat(WeightFormat):
    """Baseline dense storage: every element stored, no metadata.

    ``matrix`` keeps the memory order it is given in (an engine encodes an
    F-contiguous transposed view; BLAS sums in a different order over a
    repacked copy); ``from_dense`` copies it in that order.
    """

    name = "dense"
    array_names = ("matrix",)
    param_names = ("value_bits",)

    matrix: np.ndarray
    value_bits: int = DEFAULT_VALUE_BITS

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    @classmethod
    def from_dense(cls, matrix: np.ndarray, value_bits: int = DEFAULT_VALUE_BITS) -> "DenseFormat":
        return cls(np.array(matrix, dtype=np.float64, order="K"), value_bits)

    def to_dense(self) -> np.ndarray:
        return self.matrix.copy()

    def scale_columns(self, scale: np.ndarray) -> "DenseFormat":
        return replace(self, matrix=self.matrix * scale)  # keeps the memory order

    def summary(self) -> FormatSummary:
        return FormatSummary(
            format_name=self.name,
            shape=self.matrix.shape,
            nnz=int(np.count_nonzero(self.matrix)),
            data_bits=self.matrix.size * self.value_bits,
            metadata_bits=0,
        )


@dataclass(eq=False, repr=False)
class CSRFormat(WeightFormat):
    """Compressed sparse row format.

    Stores the non-zero values row by row, with per-value column indices and
    a row-pointer array.  Column indices cost ``ceil(log2(cols))`` bits and
    row pointers ``ceil(log2(nnz + 1))`` bits each.
    """

    name = "csr"
    array_names = ("values", "col_indices", "row_ptr")
    param_names = ("shape", "value_bits")

    shape: Tuple[int, int]
    values: np.ndarray
    col_indices: np.ndarray
    row_ptr: np.ndarray
    value_bits: int = DEFAULT_VALUE_BITS

    @classmethod
    def from_dense(cls, matrix: np.ndarray, value_bits: int = DEFAULT_VALUE_BITS) -> "CSRFormat":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"Expected a 2-D matrix, got shape {matrix.shape}")
        rows, _ = matrix.shape
        # np.nonzero scans in row-major order, which is exactly CSR order.
        row_idx, col_indices = np.nonzero(matrix)
        counts = np.bincount(row_idx, minlength=rows)
        row_ptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        return cls(
            shape=matrix.shape,
            values=matrix[row_idx, col_indices],
            col_indices=col_indices.astype(np.int64),
            row_ptr=row_ptr,
            value_bits=value_bits,
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        row_idx = np.repeat(np.arange(self.shape[0]), np.diff(self.row_ptr))
        dense[row_idx, self.col_indices] = self.values
        return dense

    def scale_columns(self, scale: np.ndarray) -> "CSRFormat":
        return replace(self, values=self.values * scale[self.col_indices])

    def summary(self) -> FormatSummary:
        stored = len(self.values)  # all non-zero, unless a zero scale was folded in
        col_bits = _ceil_log2(self.shape[1])
        ptr_bits = _ceil_log2(stored + 1)
        metadata = stored * col_bits + len(self.row_ptr) * ptr_bits
        return FormatSummary(
            format_name=self.name,
            shape=self.shape,
            nnz=int(np.count_nonzero(self.values)),
            data_bits=stored * self.value_bits,
            metadata_bits=metadata,
        )


@dataclass(eq=False, repr=False)
class ELLPACKFormat(WeightFormat):
    """ELLPACK format: fixed number of slots per row (the max row population).

    Rows shorter than the widest row are zero-padded, and every slot —
    including padding — carries a column index, which is why ELLPACK has the
    largest metadata overhead in Fig. 4 for irregular sparsity.  It is here
    for that storage comparison; no backend has a kernel for it.
    """

    name = "ellpack"
    array_names = ("values", "col_indices", "row_lengths")
    param_names = ("shape", "value_bits")

    shape: Tuple[int, int]
    values: np.ndarray  # (rows, slots)
    col_indices: np.ndarray  # (rows, slots)
    row_lengths: np.ndarray
    value_bits: int = DEFAULT_VALUE_BITS

    @classmethod
    def from_dense(cls, matrix: np.ndarray, value_bits: int = DEFAULT_VALUE_BITS) -> "ELLPACKFormat":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"Expected a 2-D matrix, got shape {matrix.shape}")
        rows, _ = matrix.shape
        row_idx, col_idx = np.nonzero(matrix)
        row_lengths = np.bincount(row_idx, minlength=rows).astype(np.int64)
        slots = max(1, int(row_lengths.max())) if rows > 0 else 1
        values = np.zeros((rows, slots))
        col_indices = np.zeros((rows, slots), dtype=np.int64)
        # Slot of each nnz = its rank within its row (nonzero scans row-major).
        row_starts = np.concatenate([[0], np.cumsum(row_lengths)[:-1]])
        slot_idx = np.arange(row_idx.size) - np.repeat(row_starts, row_lengths)
        values[row_idx, slot_idx] = matrix[row_idx, col_idx]
        col_indices[row_idx, slot_idx] = col_idx
        return cls(matrix.shape, values, col_indices, row_lengths, value_bits)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        slots = self.values.shape[1]
        valid = np.arange(slots)[None, :] < self.row_lengths[:, None]
        row_idx, slot_idx = np.nonzero(valid)
        dense[row_idx, self.col_indices[row_idx, slot_idx]] = self.values[row_idx, slot_idx]
        return dense

    def summary(self) -> FormatSummary:
        rows, slots = self.values.shape
        col_bits = _ceil_log2(self.shape[1])
        # Every slot stores a value and an index, padded or not.
        data_bits = rows * slots * self.value_bits
        metadata_bits = rows * slots * col_bits
        return FormatSummary(
            format_name=self.name,
            shape=self.shape,
            nnz=int(self.row_lengths.sum()),
            data_bits=data_bits,
            metadata_bits=metadata_bits,
        )


def _retained_tile_slots(tiles: np.ndarray):
    """Where each non-zero tile of a ``(block_rows, block_cols, B, B)`` grid is stored.

    Returns ``(br_idx, bc_idx, slot_idx, blocks_per_row)``: the grid
    coordinates of every retained tile in row-major order, its slot (its rank
    within its block-row) and the per-block-row retained count.
    """
    block_rows, block_cols = tiles.shape[:2]
    nonzero = tiles.reshape(block_rows, block_cols, -1).any(axis=2)
    blocks_per_row = nonzero.sum(axis=1).astype(np.int64)
    br_idx, bc_idx = np.nonzero(nonzero)
    row_starts = np.cumsum(blocks_per_row) - blocks_per_row
    slot_idx = np.arange(br_idx.size) - np.repeat(row_starts, blocks_per_row)
    return br_idx, bc_idx, slot_idx, blocks_per_row


def _tile_column_scale(fmt, scale: np.ndarray) -> np.ndarray:
    """``(block_rows, slots, B)``: the scale of every column of every tile ``fmt`` stores
    (the edge block's padding columns, which hold zeros, get 0)."""
    padded = np.concatenate([scale, np.zeros(-len(scale) % fmt.block_size)])
    return padded.reshape(-1, fmt.block_size)[fmt.block_cols]


@dataclass(eq=False, repr=False)
class BlockedEllpackFormat(WeightFormat):
    """Blocked-Ellpack: dense ``B x B`` blocks indexed per block-row.

    Retained blocks are stored densely; metadata is one block-column index
    per retained block.  Assumes (but does not require) a uniform number of
    blocks per row — when rows differ, slots are padded to the widest row as
    in element-wise ELLPACK.
    """

    name = "blocked-ellpack"
    array_names = ("blocks", "block_cols", "blocks_per_row")
    param_names = ("shape", "block_size", "value_bits")

    shape: Tuple[int, int]
    block_size: int
    blocks: np.ndarray  # (block_rows, slots, B, B)
    block_cols: np.ndarray  # (block_rows, slots)
    blocks_per_row: np.ndarray
    value_bits: int = DEFAULT_VALUE_BITS

    @classmethod
    def from_dense(
        cls,
        matrix: np.ndarray,
        block_size: int,
        value_bits: int = DEFAULT_VALUE_BITS,
    ) -> "BlockedEllpackFormat":
        matrix = np.asarray(matrix, dtype=np.float64)
        tiles, grid = partition_into_blocks(matrix, block_size)
        br_idx, bc_idx, slot_idx, blocks_per_row = _retained_tile_slots(tiles)
        slots = max(1, int(blocks_per_row.max()))
        blocks = np.zeros((grid.block_rows, slots, block_size, block_size))
        block_cols = np.zeros((grid.block_rows, slots), dtype=np.int64)
        blocks[br_idx, slot_idx] = tiles[br_idx, bc_idx]
        block_cols[br_idx, slot_idx] = bc_idx
        return cls(matrix.shape, block_size, blocks, block_cols, blocks_per_row, value_bits)

    def to_dense(self) -> np.ndarray:
        grid = BlockGrid(self.shape[0], self.shape[1], self.block_size)
        slots = self.block_cols.shape[1]
        valid = np.arange(slots)[None, :] < self.blocks_per_row[:, None]
        br_idx, slot_idx = np.nonzero(valid)
        tiles = np.zeros(
            (grid.block_rows, grid.block_cols, self.block_size, self.block_size)
        )
        tiles[br_idx, self.block_cols[br_idx, slot_idx]] = self.blocks[br_idx, slot_idx]
        padded = tiles.transpose(0, 2, 1, 3).reshape(grid.padded_shape)
        return padded[: self.shape[0], : self.shape[1]]

    def scale_columns(self, scale: np.ndarray) -> "BlockedEllpackFormat":
        return replace(self, blocks=self.blocks * _tile_column_scale(self, scale)[:, :, None, :])

    def summary(self) -> FormatSummary:
        grid = BlockGrid(self.shape[0], self.shape[1], self.block_size)
        stored_blocks = int(self.blocks_per_row.sum())
        index_bits = _ceil_log2(grid.block_cols)
        data_bits = stored_blocks * self.block_size * self.block_size * self.value_bits
        metadata_bits = stored_blocks * index_bits
        return FormatSummary(
            format_name=self.name,
            shape=self.shape,
            # Slot and edge padding is zero by construction, so the stored
            # array has exactly the matrix's non-zeros; no decode needed.
            nnz=int(np.count_nonzero(self.blocks)),
            data_bits=data_bits,
            metadata_bits=metadata_bits,
        )


@dataclass(eq=False, repr=False)
class CRISPFormat(WeightFormat):
    """The CRISP hybrid format: Blocked-Ellpack block indices + N:M intra-group offsets.

    Encoding (Fig. 4 / Fig. 5, step 5 of the paper):

    * For block sparsity, the column index of each retained block is stored
      per block-row (Blocked-Ellpack over the block grid).
    * Inside each retained block, only the N values of every group of M
      consecutive rows are stored, each with a ``ceil(log2(M))``-bit offset
      locating it inside its group.

    The round trip is exact when the matrix satisfies the hybrid pattern
    (uniform blocks per row, N:M compliant inside retained blocks); matrices
    that violate N:M are encoded lossily by keeping the N largest-magnitude
    values per group (a warning is available via ``is_lossless``).  Among
    equal magnitudes the *later* row of the group survives: ``[1, -1, 1, -1]``
    at 2:4 stores offsets ``[2, 3]``.

    Stored layout, which ``to_dense`` and the matmul kernels rely on:
    ``slots = max(1, widest block-row)``, so an all-zero matrix still
    encodes; a group's kept values fill positions ``k = 0, 1, ...`` in row
    order, so stored offsets ascend; every unused slot and unfilled position
    holds value 0 **and** offset 0.  Offsets are ``uint8`` (``m <= 256``).
    """

    name = "crisp"
    array_names = ("block_cols", "blocks_per_row", "group_values", "group_offsets")
    param_names = ("shape", "n", "m", "block_size", "is_lossless", "value_bits")

    shape: Tuple[int, int]
    n: int
    m: int
    block_size: int
    block_cols: np.ndarray  # (block_rows, slots)
    blocks_per_row: np.ndarray  # (block_rows,)
    # group_values / group_offsets: (block_rows, slots, groups_per_block, B, n)
    group_values: np.ndarray
    group_offsets: np.ndarray
    is_lossless: bool = True
    value_bits: int = DEFAULT_VALUE_BITS

    @classmethod
    def from_dense(
        cls,
        matrix: np.ndarray,
        n: int,
        m: int,
        block_size: int,
        value_bits: int = DEFAULT_VALUE_BITS,
    ) -> "CRISPFormat":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"Expected a 2-D matrix, got shape {matrix.shape}")
        if block_size % m != 0 or m > 256:
            raise ValueError(
                f"block_size ({block_size}) must be a multiple of M ({m}) so groups do not straddle "
                f"blocks, and M at most 256 (offsets are stored as uint8)"
            )
        tiles, grid = partition_into_blocks(matrix, block_size)
        br_idx, bc_idx, slot_idx, blocks_per_row = _retained_tile_slots(tiles)
        slots = max(1, int(blocks_per_row.max()))
        groups_per_block = block_size // m
        stored_shape = (grid.block_rows, slots, groups_per_block, block_size, n)

        block_cols = np.zeros((grid.block_rows, slots), dtype=np.int64)
        block_cols[br_idx, slot_idx] = bc_idx
        group_values = np.zeros(stored_shape)
        group_offsets = np.zeros(stored_shape, dtype=np.uint8)

        # Every retained tile at once, as (tile, group, block col, row-in-group):
        # the last axis holds the M candidates one stored group chooses from.
        groups = (
            tiles[br_idx, bc_idx]
            .reshape(-1, groups_per_block, m, block_size)
            .transpose(0, 1, 3, 2)
        )
        present = groups != 0
        # Survivors are the N largest |w|; the stable ascending sort puts the
        # later row last among equals, so the later row is the one kept.
        ascending = np.argsort(np.abs(groups), axis=-1, kind="stable")
        rank = np.argsort(ascending, axis=-1)  # inverse permutation
        keep = (rank >= m - n) & present
        lossless = bool(np.count_nonzero(keep) == np.count_nonzero(present))

        # A survivor's position k is its rank among the group's survivors in
        # row order, so offsets ascend and unfilled positions stay 0 / 0.
        tile, g, col, offset = np.nonzero(keep)
        k = (np.cumsum(keep, axis=-1) - 1)[tile, g, col, offset]
        stored = (br_idx[tile], slot_idx[tile], g, col, k)
        group_values[stored] = groups[tile, g, col, offset]
        group_offsets[stored] = offset

        return cls(
            shape=matrix.shape,
            n=n,
            m=m,
            block_size=block_size,
            block_cols=block_cols,
            blocks_per_row=blocks_per_row,
            group_values=group_values,
            group_offsets=group_offsets,
            is_lossless=lossless,
            value_bits=value_bits,
        )

    def to_dense(self) -> np.ndarray:
        grid = BlockGrid(self.shape[0], self.shape[1], self.block_size)
        padded = np.zeros(grid.padded_shape)
        # Unused slots hold all-zero groups, so selecting the non-zero stored
        # values also filters out slot padding.
        br, slot, g, col, k = np.nonzero(self.group_values)
        offsets = self.group_offsets[br, slot, g, col, k]
        rows = br * self.block_size + g * self.m + offsets
        cols = self.block_cols[br, slot] * self.block_size + col
        padded[rows, cols] = self.group_values[br, slot, g, col, k]
        return padded[: self.shape[0], : self.shape[1]]

    def scale_columns(self, scale: np.ndarray) -> "CRISPFormat":
        tile_scale = _tile_column_scale(self, scale)[:, :, None, :, None]  # (.., group, col, k)
        return replace(self, group_values=self.group_values * tile_scale)

    def summary(self) -> FormatSummary:
        grid = BlockGrid(self.shape[0], self.shape[1], self.block_size)
        stored_blocks = int(self.blocks_per_row.sum())
        groups_per_block = self.block_size // self.m
        values_per_block = groups_per_block * self.block_size * self.n

        block_index_bits = _ceil_log2(grid.block_cols)
        offset_bits = _ceil_log2(self.m)

        data_bits = stored_blocks * values_per_block * self.value_bits
        metadata_bits = (
            stored_blocks * block_index_bits
            + stored_blocks * values_per_block * offset_bits
        )
        return FormatSummary(
            format_name=self.name,
            shape=self.shape,
            # Unused slots and unfilled positions hold value 0 (see the class
            # docstring), so the stored array has exactly the kept non-zeros.
            nnz=int(np.count_nonzero(self.group_values)),
            data_bits=data_bits,
            metadata_bits=metadata_bits,
        )


#: Every storage format, by ``name``.  The one list of formats in ``src/``.
FORMATS: Dict[str, Type[WeightFormat]] = {
    cls.name: cls
    for cls in (DenseFormat, CSRFormat, ELLPACKFormat, BlockedEllpackFormat, CRISPFormat)
}


def encode(
    name: str,
    matrix: np.ndarray,
    n: int,
    m: int,
    block_size: int,
    value_bits: int = DEFAULT_VALUE_BITS,
) -> WeightFormat:
    """Encode ``matrix`` in the format registered as ``name``.

    Of the hybrid pattern ``n`` / ``m`` / ``block_size`` a format is handed
    what it stores (``param_names``).  ``from_dense`` is looked up per call,
    so a profiler that wraps it on the class sees every encode.
    """
    cls = FORMATS[name]
    pattern = {"n": n, "m": m, "block_size": block_size}
    stored = {key: value for key, value in pattern.items() if key in cls.param_names}
    return cls.from_dense(matrix, value_bits=value_bits, **stored)


# ---------------------------------------------------------------------------
# Closed-form estimates from the paper (Sec. III-A)
# ---------------------------------------------------------------------------

def paper_block_metadata_bits(
    s: int, k: int, k_prime: int, block_size: int
) -> float:
    """Paper's block-sparsity metadata estimate.

    ``(S * K' * floor(log2(K'/B))) / (B * B)`` bits, where ``S`` is the number
    of output channels (rows of the transposed view), ``K`` the reshaped column
    count, ``K'`` the retained column count, and ``B`` the block size.
    """
    if k_prime <= 0 or k_prime > k:
        raise ValueError(f"k_prime must be in (0, {k}], got {k_prime}")
    index_bits = max(1, int(math.floor(math.log2(max(2, k_prime / block_size)))))
    return s * k_prime * index_bits / (block_size * block_size)


def paper_nm_metadata_bits(s: int, k_prime: int, n: int, m: int) -> float:
    """Paper's N:M metadata estimate: ``S * K' * (N/M) * floor(log2(M))`` bits."""
    if n <= 0 or m <= 0 or n > m:
        raise ValueError(f"Invalid N:M ratio {n}:{m}")
    return s * k_prime * (n / m) * max(1, int(math.floor(math.log2(m))))


def compare_formats(
    matrix: np.ndarray,
    n: int = 2,
    m: int = 4,
    block_size: int = 16,
    value_bits: int = DEFAULT_VALUE_BITS,
) -> Dict[str, FormatSummary]:
    """Encode ``matrix`` in every format and return their summaries keyed by name.

    This is the primitive behind the Fig. 4 (right) metadata comparison.
    """
    return {
        name: encode(name, matrix, n, m, block_size, value_bits).summary()
        for name in FORMATS
    }
