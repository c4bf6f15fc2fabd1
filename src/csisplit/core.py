"""Shared data model: complex CSI matrices, real-concatenated views, node
geometry and the binary file format used to exchange datasets.

Conventions fixed here and relied on by every other module:

* a CSI matrix is complex valued with shape (m, n): m time snapshots down
  the rows, n nodes across the columns;
* the real view stacks real parts above imaginary parts, giving a
  (2m, n) float64 matrix ([Re; Im] column stacking);
* all arithmetic is float64 / complex128;
* squared distances between points are :func:`squared_distances`, summed
  in coordinate order: the neighbor table's ties rest on them;
* node i's k nearest neighbors are row i of ``NodeGeometry.neighbors(k)``:
  nearest first, equal distances in ascending node index.
"""

from __future__ import annotations

import enum
import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

CSI_MAGIC = b"CSI1"
_HEADER = struct.Struct("<4sIIBd")  # magic | u32 m | u32 n | u8 direction | f64 snr_db
#: refuse to allocate more complex entries than this when reading a file (1 GiB payload)
MAX_FILE_ENTRIES = 1 << 26


class Direction(enum.IntEnum):
    UPLINK = 0
    DOWNLINK = 1


class CsiFileError(ValueError):
    """Malformed CSI file: bad magic, truncated, zero or oversized dimensions,
    bad direction byte or trailing bytes."""


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CsiMatrix:
    """Immutable m x n complex matrix of channel snapshots.

    ``snr_db`` records the simulated noise level when known (None for
    measured/ingested data).
    """

    data: np.ndarray
    direction: Direction = Direction.UPLINK
    snr_db: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"CSI data must be a 2-D m x n matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("CSI data contains non-finite entries")
        object.__setattr__(self, "data", _as_readonly(arr))
        object.__setattr__(self, "direction", Direction(self.direction))

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def to_real_view(csi: CsiMatrix) -> np.ndarray:
    """Real-concatenated view: rows 1..m are real parts, rows m+1..2m imaginary."""
    return np.vstack([csi.data.real, csi.data.imag])


def from_real_view(
    view: np.ndarray,
    direction: Direction = Direction.UPLINK,
    snr_db: float | None = None,
) -> CsiMatrix:
    """Inverse of :func:`to_real_view`; requires an even row count."""
    view = np.asarray(view, dtype=np.float64)
    if view.ndim != 2 or view.shape[0] % 2 != 0:
        raise ValueError(f"real view must be 2-D with an even row count, got {view.shape}")
    m = view.shape[0] // 2
    return CsiMatrix(view[:m] + 1j * view[m:], direction=direction, snr_db=snr_db)


def view_to_complex(view: np.ndarray) -> np.ndarray:
    """Real view (2m, n) -> bare complex array (m, n), no CsiMatrix wrapping."""
    view = np.asarray(view, dtype=np.float64)
    m = view.shape[0] // 2
    return view[:m] + 1j * view[m:]


class Decomposition(NamedTuple):
    """A split of a real view into its predictable and unpredictable parts."""

    predictable: np.ndarray
    unpredictable: np.ndarray


#: entries of one block of rows of the node distance matrix; the neighbor
#: table holds one block at a time, never all n x n
_BLOCK_ENTRIES = 1 << 16


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_ENTRIES // n)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances between the rows of a and
    those of b, built one coordinate at a time in place: no (len(a), len(b),
    dim) difference array is made."""
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 *= d2
    for c in range(1, a.shape[1]):
        diff = np.subtract.outer(a[:, c], b[:, c])
        diff *= diff
        d2 += diff
    return d2


@dataclass(frozen=True, eq=False)
class NodeGeometry:
    """Node positions in R^2 or R^3 (meters) plus the neighbor rule defaults.

    Neighbor queries use Euclidean distance with ties broken by ascending
    node index, so results are reproducible across platforms. Every neighbor
    query reads the table of :meth:`neighbors`, built once per k and cached
    on the object; equality and hashing are by identity, like the cache.
    """

    positions: np.ndarray
    k: int = 8
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"'k' must be an integer >= 1, got {self.k!r}")
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[0] < 1 or pos.shape[1] not in (2, 3):
            raise ValueError(f"positions must be (n, 2) or (n, 3) with n >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions contain non-finite values")
        # equal rows are adjacent once sorted (-0.0 == 0.0 here, as in ==)
        ordered = pos[np.lexsort(pos.T)]
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ValueError("node positions must be pairwise distinct")
        object.__setattr__(self, "positions", _as_readonly(pos))

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def neighbors(self, k: int) -> np.ndarray:
        """Read-only (n, k) table: row i holds the k nodes closest to node i,
        self excluded, nearest first.

        Distances are ``sqrt`` of :func:`squared_distances`. Each row is
        partitioned at its k-th distance, and only the candidates at or below
        it are sorted, by distance and then ascending node index: the table
        of a stable argsort of each full row, so ``neighbors(k)[:, :j]``
        equals ``neighbors(j)``. A k below one already cached is served as
        that wider table's first k columns; otherwise the table is built
        once per k, a block of rows at a time. The same array is returned
        on every later call. Raises ValueError unless 1 <= k < n.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if k >= self.n:
            raise ValueError(f"insufficient nodes: k={k} with only {self.n} nodes")
        table = self._tables.get(k)
        if table is None:
            wider = next((t for width, t in list(self._tables.items()) if width > k), None)
            if wider is not None:
                table = wider[:, :k]  # a view of a read-only array is read-only
            else:
                table = np.empty((self.n, k), dtype=np.intp)
                rows = _block_rows(self.n)
                for start in range(0, self.n, rows):
                    d2 = squared_distances(self.positions[start : start + rows], self.positions)
                    np.fill_diagonal(d2[:, start:], np.inf)  # self excluded: d2[r, start + r]
                    dist = np.sqrt(d2, out=d2)
                    # candidates: every node at or below the row's k-th distance, ties included
                    row, col = np.nonzero(dist <= np.partition(dist, k - 1, axis=1)[:, k - 1 : k])
                    order = np.lexsort((col, dist[row, col], row))
                    first = np.searchsorted(row, np.arange(len(dist)))  # each row's first candidate
                    table[start : start + len(dist)] = col[order][first[:, None] + np.arange(k)]
                table.setflags(write=False)
            table = self._tables.setdefault(k, table)  # one object even when threads race
        return table


def nearest_neighbors(geom: NodeGeometry, node: int, k: int) -> np.ndarray:
    """Indices of the k nodes closest to ``node`` (self excluded): a copy of
    row ``node`` of ``geom.neighbors(k)``.

    Sorted by distance, ties by ascending index. Raises ValueError when
    k >= number of nodes.
    """
    if not 0 <= node < geom.n:
        raise ValueError(f"node index {node} out of range [0, {geom.n})")
    return geom.neighbors(k)[node].copy()


def neighbor_pairs(geom: NodeGeometry, k: int) -> list[tuple[int, int]]:
    """All ordered (node, neighbor) pairs under the k-nearest-neighbor rule,
    node-major, neighbors nearest first."""
    return [(i, j) for i, row in enumerate(geom.neighbors(k).tolist()) for j in row]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_csi_file(csi: CsiMatrix, path) -> None:
    """Binary CSI format, little-endian.

    Layout: magic "CSI1" | u32 m | u32 n | u8 direction (0=UL, 1=DL)
    | f64 snr_db (NaN = absent) | m*n entries column-major, each f64 re
    then f64 im.
    """
    snr = math.nan if csi.snr_db is None else float(csi.snr_db)
    header = _HEADER.pack(CSI_MAGIC, csi.m, csi.n, int(csi.direction), snr)
    flat = csi.data.flatten(order="F")
    payload = np.empty(2 * flat.size, dtype="<f8")
    payload[0::2] = flat.real
    payload[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_csi_file(path) -> CsiMatrix:
    """Read the binary CSI format written by :func:`write_csi_file`. The
    header's dimensions are checked against the file's size before the
    payload is read, so a file with missing or trailing bytes is refused
    without reading its payload."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CsiFileError(f"truncated header: {len(raw)} bytes, need {_HEADER.size}")
        magic, m, n, direction, snr = _HEADER.unpack(raw)
        if magic != CSI_MAGIC:
            raise CsiFileError(f"bad magic {magic!r}, expected {CSI_MAGIC!r}")
        if m == 0 or n == 0 or m * n > MAX_FILE_ENTRIES:
            raise CsiFileError(f"unsupported dimensions m={m}, n={n}")
        if direction not in (0, 1):
            raise CsiFileError(f"invalid direction byte {direction}")
        expected = _HEADER.size + 16 * m * n
        if size < expected:
            raise CsiFileError(f"truncated payload: {size} bytes, need {expected}")
        if size > expected:
            raise CsiFileError(f"trailing bytes: {size - expected} past end of payload")
        raw = fh.read(16 * m * n)
    if len(raw) < 16 * m * n:  # the file shrank after fstat
        raise CsiFileError(f"truncated payload: {_HEADER.size + len(raw)} bytes, need {expected}")
    payload = np.frombuffer(raw, dtype="<f8")
    data = (payload[0::2] + 1j * payload[1::2]).reshape((m, n), order="F")
    return CsiMatrix(data, direction=Direction(direction), snr_db=None if math.isnan(snr) else snr)
