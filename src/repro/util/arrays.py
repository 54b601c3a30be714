"""Zero-copy int64 views and sorted-array set primitives (numpy).

Every vectorized code path in the library funnels through this module:
the zero-copy adaptation of ``array('q')``/memoryview buffers into int64
ndarrays, and the packed-row encoding that turns fixed-arity int64 key
tuples into scalars whose memcmp order equals signed lexicographic tuple
order — which is what lets one ``np.searchsorted`` probe a multi-column
key table sorted by ``sorted(entries)``. numpy is the library's one
runtime dependency and is imported unconditionally.
"""

from __future__ import annotations

import numpy as np

#: XOR-ing the sign bit makes big-endian byte order agree with signed
#: int64 order, so packed rows compare correctly via memcmp.
_SIGN_BIT = np.int64(-2**63)


def as_int64(buffer):
    """Zero-copy int64 ndarray over an ``array('q')``, a memoryview cast
    to ``'q'`` (the artifact warm-start path), or an existing ndarray.

    The returned array aliases the source storage — treat it as
    read-only, exactly like the frozen buffers it views.
    """
    if isinstance(buffer, np.ndarray):
        return buffer if buffer.dtype == np.int64 \
            else buffer.astype(np.int64)
    if len(buffer) == 0:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(buffer, dtype=np.int64)


def pack_matrix(rows):
    """Encode an ``(n, k)`` int64 matrix as ``n`` comparable scalars.

    ``k == 0`` returns zeros (every row is the empty tuple), ``k == 1``
    the column itself; ``k > 1`` returns fixed-width byte strings (sign-flipped big-endian rows) whose memcmp order equals
    signed lexicographic row order. Sorting / searchsorted over the
    result therefore agrees with Python's tuple order — the order
    ``FrozenConstraintIndex.to_buffers`` writes its keys in.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise ValueError(f"pack_matrix expects a 2-d matrix, got shape "
                         f"{rows.shape}")
    n, k = rows.shape
    if k <= 1:
        return np.ascontiguousarray(rows[:, 0]) if k else np.zeros(n, np.int64)
    flipped = np.ascontiguousarray((rows ^ _SIGN_BIT).astype(">i8"))
    return flipped.view(f"S{8 * k}").reshape(n)


def combo_matrix(pools):
    """``(n, k)`` int64 matrix enumerating the cartesian product of the
    1-d int64 ``pools`` (row order matches ``itertools.product``: the
    last pool cycles fastest). No pools is the one empty combo."""
    if len(pools) == 1:
        return pools[0].reshape(-1, 1)
    total = 1
    for pool in pools:
        total *= len(pool)
    out = np.empty((total, len(pools)), dtype=np.int64)
    if total == 0:
        return out
    inner = total
    outer = 1
    for j, pool in enumerate(pools):
        inner //= len(pool)
        column = np.repeat(pool, inner) if inner > 1 else pool
        out[:, j] = np.tile(column, outer) if outer > 1 else column
        outer *= len(pool)
    return out


#: Wire dtype codes for :func:`pack_ints` / :func:`unpack_ints`. All
#: multi-byte widths are explicit little-endian so a packed buffer means
#: the same thing on any peer, whatever its native byte order.
_PACK_DTYPES = {"u1": "u1", "u2": "<u2", "i4": "<i4", "i8": "<i8"}
_PACK_NP = {code: np.dtype(spec) for code, spec in _PACK_DTYPES.items()}


def pack_ints(values):
    """Pack an int array (any shape) into ``(dtype_code, bytes)``.

    The narrowest lossless width wins — ``u1``/``u2`` for small
    non-negative values (edge-flag masks, per-combo counts, node ids in
    small partitions), ``i4`` for ids that fit 32 bits (every bundled
    dataset), ``i8`` otherwise — so the wire cost tracks the data, not
    the worst case. The bytes come straight from ``ndarray.tobytes()``;
    :func:`unpack_ints` re-adopts them with ``np.frombuffer``. No
    per-element Python loop on either side.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)  # (a list of ints past int64 raises)
    arr = arr.reshape(-1)
    code = "i8"
    if arr.size:
        lo = int(np.minimum.reduce(arr))
        hi = int(np.maximum.reduce(arr))
        if 0 <= lo and hi <= 0xFF:
            code = "u1"
        elif 0 <= lo and hi <= 0xFFFF:
            code = "u2"
        elif -2**31 <= lo and hi < 2**31:
            code = "i4"
    if arr.dtype != _PACK_NP[code]:
        arr = arr.astype(_PACK_NP[code])
    return code, arr.tobytes()


def unpack_ints(code, buffer):
    """Zero-copy int ndarray over a buffer packed by :func:`pack_ints`.

    Adopts the (memoryview) buffer in place — the result aliases the
    received frame and is read-only. Raises :class:`ValueError` on an
    unknown dtype code or a buffer whose size is not a multiple of the
    item width (callers map it to their typed protocol error).
    """
    dtype = _PACK_DTYPES.get(code)
    if dtype is None:
        raise ValueError(f"unknown packed dtype code {code!r}")
    return np.frombuffer(buffer, dtype=dtype)


def in_sorted(haystack, needles):
    """Boolean membership mask of ``needles`` in the *sorted* array
    ``haystack`` (any dtype searchsorted supports, including the byte
    strings :func:`pack_matrix` produces)."""
    if len(haystack) == 0:
        return np.zeros(len(needles), dtype=bool)
    positions = haystack.searchsorted(needles)
    np.minimum(positions, len(haystack) - 1, out=positions)
    return haystack[positions] == needles


def take_segments(data, starts, lengths):
    """Gather ragged segments ``data[starts[i] : starts[i]+lengths[i]]``
    concatenated into one array (CSR payload gather without a Python
    loop; one segment is a view)."""
    if len(starts) == 1:
        return data[starts[0]:starts[0] + lengths[0]]
    ends = lengths.cumsum(dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return data[:0]
    index = np.arange(total, dtype=np.int64)
    index += (starts - ends + lengths).repeat(lengths)
    return data[index]


def sorted_unique(values):
    """Sorted distinct elements of a 1-d array, by sort + neighbour
    compare: on the tens to hundreds of ids a fetch returns this is
    several times faster than ``np.unique``."""
    if len(values) < 2:
        return values
    values = values.copy()
    values.sort()
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


__all__ = [
    "as_int64",
    "combo_matrix",
    "in_sorted",
    "pack_ints",
    "pack_matrix",
    "sorted_unique",
    "unpack_ints",
    "take_segments",
]
