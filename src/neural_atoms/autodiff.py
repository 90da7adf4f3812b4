"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable computation in this package runs on the small engine in
this module.  A :class:`Tensor` wraps a C-contiguous float64 numpy array.
Each operation that has to be differentiated records a :class:`TapeEntry`
holding its inputs and a backward closure; :func:`backward` collects the
entries reachable from a scalar loss into a :class:`GradTape` and replays
them exactly once in reverse topological order, accumulating gradients into
the leaves.  Inside :func:`no_grad` nothing is recorded, so inference
builds no tape.

The engine is deliberately plain: no broadcasting beyond row-vector bias
addition, no views, no dtype zoo.  :func:`grad_check` provides the
independent central-difference oracle the test suite compares against.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


_OP_IDS = itertools.count()

# Backward closures take the gradient flowing into the op's output and return
# one gradient array per input (None for inputs that need no gradient).
BackwardFn = Callable[[np.ndarray], tuple]


@dataclass
class TapeEntry:
    """One recorded operation: monotone id, name, inputs, backward closure."""

    op_id: int
    name: str
    inputs: tuple["Tensor", ...]
    backward: BackwardFn


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode.

    ``grad`` is populated by :func:`backward` for leaves with
    ``requires_grad=True``.  Non-leaf tensors keep a reference to the tape
    entry that produced them; leaves have ``entry None``.
    """

    __slots__ = ("data", "requires_grad", "grad", "entry")

    def __init__(self, data, requires_grad: bool = False):
        # order="C" keeps 0-d scalars 0-d, unlike ascontiguousarray
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.entry: TapeEntry | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


_recording = True


@contextmanager
def no_grad():
    """Record no tape entries inside the block, for inference.

    Results built inside carry no entry and do not require gradients, so
    nothing can be backpropagated through them.  The previous setting comes
    back on exit, so blocks nest.  The setting is process-wide.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _result(data: np.ndarray, name: str, inputs: tuple[Tensor, ...], backward: BackwardFn) -> Tensor:
    """Wrap an op result, recording a tape entry only when a gradient can flow."""
    out = Tensor(data)
    if _recording and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.entry = TapeEntry(next(_OP_IDS), name, inputs, backward)
    return out


class GradTape:
    """The ordered record of operations behind one tensor.

    Entries are sorted by creation id, which is a valid topological order by
    construction: an op's inputs always exist before its output.
    """

    def __init__(self, entries: list[TapeEntry]):
        self.entries = entries

    @classmethod
    def trace(cls, output: Tensor) -> "GradTape":
        """Collect every tape entry that ``output`` depends on, exactly once."""
        seen: set[int] = set()
        entries: list[TapeEntry] = []
        stack = [output]
        while stack:
            t = stack.pop()
            e = t.entry
            if e is None or e.op_id in seen:
                continue
            seen.add(e.op_id)
            entries.append(e)
            stack.extend(e.inputs)
        entries.sort(key=lambda e: e.op_id)
        return cls(entries)


def backward(loss: Tensor, params: Sequence[Tensor] | None = None) -> None:
    """Populate ``grad`` on every requires-grad leaf that ``loss`` depends on.

    ``loss`` must hold a single element.  When ``params`` is given, each
    listed tensor gets its gradient zero-initialised first, so parameters the
    loss does not touch come back with exact zeros instead of ``None``.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if params is not None:
        for p in params:
            p.grad = np.zeros_like(p.data)
    if loss.entry is None:
        return  # constant loss: nothing depends on anything

    tape = GradTape.trace(loss)
    # Pending gradients of non-leaves, keyed by producing op id; leaves
    # accumulate straight into ``grad``.  Each tape entry is visited once.
    pending: dict[int, np.ndarray] = {loss.entry.op_id: np.ones_like(loss.data)}
    for entry in reversed(tape.entries):
        g_out = pending.pop(entry.op_id)
        for t, g in zip(entry.inputs, entry.backward(g_out)):
            if g is None:
                continue
            if t.entry is not None:
                key = t.entry.op_id
                pending[key] = pending[key] + g if key in pending else g
            elif t.requires_grad:
                t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# Elementwise and structural operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a (d,) or (1, d) row added to an (n, d) matrix."""
    if a.shape == b.shape:
        return _result(a.data + b.data, "add", (a, b), lambda g: (g, g))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return _result(a.data + b.data, "add_row", (a, b), lambda g: (g, g.sum(axis=0)))
    if a.data.ndim == 2 and b.shape == (1, a.shape[1]):
        return _result(a.data + b.data, "add_row", (a, b), lambda g: (g, g.sum(axis=0, keepdims=True)))
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, "neg", (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python float (the float is a constant, not a tensor)."""
    c = float(factor)
    return _result(a.data * c, "scale", (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    return _result(a.data @ b.data, "matmul", (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def affine(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """``x @ w``, plus the (d,) row ``b`` when given, through a ReLU when ``relu``.

    One tape entry for what :func:`matmul`, the row branch of :func:`add`
    and :func:`relu` record as up to three, with the same values and
    gradients.  The bias and the ReLU are applied in place, so the op makes
    one result array where the three ops make one each, and the tape keeps
    only that one alive.  ``g @ w.T`` is skipped when ``x`` needs no
    gradient.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine needs rank-2 operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: inner dimensions differ, {x.shape} vs {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"affine: bias must have shape ({w.shape[1]},), got {b.shape}")
    out = x.data @ w.data
    if b is not None:
        out += b.data
    if relu:
        np.maximum(out, 0.0, out=out)
    needs_dx = x.requires_grad

    def back(g: np.ndarray) -> tuple:
        if relu:
            # out > 0 exactly where the input to the ReLU was, so no mask is kept
            g = g * (out > 0.0)
        grads = (g @ w.data.T if needs_dx else None, x.data.T @ g)
        return grads if b is None else grads + (g.sum(axis=0),)

    return _result(out, "affine", (x, w) if b is None else (x, w, b), back)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 tensor, got {a.shape}")
    return _result(np.ascontiguousarray(a.data.T), "transpose", (a,), lambda g: (g.T,))


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken to be 0."""
    mask = a.data > 0.0
    return _result(np.where(mask, a.data, 0.0), "relu", (a,), lambda g: (g * mask,))


def rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Copy of the row slice [start, stop); gradient scatters back into place."""
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"rows: slice [{start}, {stop}) out of range for shape {a.shape}")
    n = a.shape[0]

    def back(g: np.ndarray) -> tuple:
        full = np.zeros((n,) + g.shape[1:])
        full[start:stop] = g
        return (full,)

    return _result(a.data[start:stop].copy(), "rows", (a,), back)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows by integer index (repeats allowed); gradient accumulates."""
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows needs a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")

    def back(g: np.ndarray) -> tuple:
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _result(a.data[idx], "gather_rows", (a,), back)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_rows needs at least one tensor")
    counts = [p.shape[0] for p in parts]
    splits = np.cumsum(counts)[:-1]

    def back(g: np.ndarray) -> tuple:
        return tuple(np.split(g, splits, axis=0))

    return _result(np.concatenate([p.data for p in parts], axis=0), "concat_rows", tuple(parts), back)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols needs at least one tensor")
    counts = [p.shape[1] for p in parts]
    splits = np.cumsum(counts)[:-1]

    def back(g: np.ndarray) -> tuple:
        return tuple(np.split(g, splits, axis=1))

    return _result(np.concatenate([p.data for p in parts], axis=1), "concat_cols", tuple(parts), back)


def _checked_entries(diagonal, edges, edge_weights, op: str) -> tuple:
    """(diagonal, (E, 2) edges, edge weights) as arrays that fit an (n, n) matrix."""
    diag = np.asarray(diagonal, dtype=np.float64)
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    w = np.asarray(edge_weights, dtype=np.float64)
    if diag.ndim != 1 or w.shape != (pairs.shape[0],):
        raise ShapeError(f"{op}: diagonal {diag.shape}, edges {pairs.shape} "
                         f"and edge weights {w.shape} do not fit together")
    n = diag.shape[0]
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ShapeError(f"{op}: edge index out of range for {n} rows")
    return diag, pairs, w


class SlotMatrix:
    """A sparse symmetric (n, n) matrix, stored so that a product needs no scatter-add.

    The matrix is ``diag(diagonal)`` plus, for every undirected edge (u, v)
    with weight w, w at both (u, v) and (v, u); repeated edges add up.  The
    off-diagonal entries are grouped by row and a row's k-th entry goes to
    slot k.  No row repeats within a slot, so the product is the diagonal
    term plus ``out[rows] += w * x[cols]`` once per slot, exact without
    ``np.add.at``; there are as many slots as the largest row has edges.
    Build it once per graph and reuse it for every product.  Every slot
    costs a gather and a scatter, so :func:`symmetric_matrix` keeps this
    form for graphs whose dense blocks would be large and mostly empty.
    """

    def __init__(self, diagonal: np.ndarray, edges: np.ndarray, edge_weights: np.ndarray):
        diag, pairs, w = _checked_entries(diagonal, edges, edge_weights, "SlotMatrix")
        n = diag.shape[0]
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        w = np.concatenate([w, w])
        by_row = np.argsort(rows, kind="stable")
        rows, cols, w = rows[by_row], cols[by_row], w[by_row]
        counts = np.bincount(rows, minlength=n)
        rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        by_slot = np.argsort(rank, kind="stable")
        rows, cols, w = rows[by_slot], cols[by_slot], w[by_slot, None]
        sizes = np.bincount(rank)
        ends = np.cumsum(sizes)
        self.num_rows = n
        self.diagonal = diag[:, None]
        # a slot that covers every row updates ``out`` in place, not through an index
        self.slots = [(rows[a:b] if b - a < n else slice(None), cols[a:b], w[a:b])
                      for a, b in zip(ends - sizes, ends)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The product ``M @ x`` for an (n, d) array ``x``."""
        out = self.diagonal * x
        for rows, cols, w in self.slots:
            term = x[cols]
            term *= w
            out[rows] += term
        return out


class BlockMatrix:
    """The matrix of :class:`SlotMatrix`, block-diagonal over row segments and stored dense.

    ``offsets`` splits the rows into segments as for the segment ops below,
    and every edge must join two rows of one segment.  Segment b's block is
    kept as an (m, m) matrix, zero-padded to the longest segment's m rows,
    so the product is one batched matmul of the (B, m, m) blocks with the
    padded (B, m, d) view of ``x``.
    """

    def __init__(self, diagonal: np.ndarray, edges: np.ndarray, edge_weights: np.ndarray,
                 offsets):
        diag, pairs, w = _checked_entries(diagonal, edges, edge_weights, "BlockMatrix")
        n = diag.shape[0]
        self.layout = segments, width, slot = _segment_layout(offsets, n, "BlockMatrix")
        segment = np.repeat(np.arange(segments), np.diff(np.asarray(offsets, dtype=np.intp)))
        u, v = pairs.T
        if (segment[u] != segment[v]).any():
            raise ShapeError("BlockMatrix: an edge joins rows of two segments")
        padded = np.arange(n) if slot is None else slot     # row in the (B * m) padded rows
        local = padded - segment * width                    # row within its own block
        # entry (r, c) of block b is flat entry (b * m + r) * m + c; bincount
        # sums the weights of repeated edges as the slots do
        flat = np.concatenate([padded * width + local,
                               padded[u] * width + local[v], padded[v] * width + local[u]])
        self.num_rows = n
        self.blocks = np.bincount(flat, np.concatenate([diag, w, w]),
                                  minlength=segments * width * width
                                  ).reshape(segments, width, width)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The product ``M @ x`` for an (n, d) array ``x``."""
        return _unpadded(self.blocks @ _padded(x, self.layout), self.layout)


# The dense blocks win while they hold at most this many entries per stored
# nonzero (n + 2E): one batched matmul against a gather and a scatter per
# slot.  Set from the measured crossover of the two products.
BLOCK_CROSSOVER = 32


def symmetric_matrix(diagonal: np.ndarray, edges: np.ndarray, edge_weights: np.ndarray,
                     offsets) -> BlockMatrix | SlotMatrix:
    """The matrix of :class:`SlotMatrix` in the cheaper of its two forms.

    Blocks when B * m**2 <= ``BLOCK_CROSSOVER`` * (n + 2E) for B segments
    of at most m rows, n rows and E edges, else slots.
    """
    segments, width, _ = _segment_layout(offsets, len(diagonal), "symmetric_matrix")
    if segments * width * width <= BLOCK_CROSSOVER * (len(diagonal) + 2 * len(edges)):
        return BlockMatrix(diagonal, edges, edge_weights, offsets)
    return SlotMatrix(diagonal, edges, edge_weights)


def slot_matmul(matrix: BlockMatrix | SlotMatrix, x: Tensor) -> Tensor:
    """``matrix @ x`` for a constant symmetric ``matrix`` in either form.

    The matrix equals its transpose, so the backward applies it again.
    """
    if x.data.ndim != 2 or x.shape[0] != matrix.num_rows:
        raise ShapeError(f"slot_matmul: {matrix.num_rows}-row matrix vs x {x.shape}")
    return _result(matrix.apply(x.data), "slot_matmul", (x,), lambda g: (matrix.apply(g),))


# ---------------------------------------------------------------------------
# Reductions and normalisation
# ---------------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d scalar tensor."""
    return _result(np.asarray(a.data.sum()), "sum_all", (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


# ---------------------------------------------------------------------------
# Segment ops: a batch of graphs as consecutive row segments
# ---------------------------------------------------------------------------
#
# A batch stacks the node rows of B graphs; ``offsets`` holds B + 1 strictly
# increasing row indices from 0 to the total, so segment b owns rows
# offsets[b]:offsets[b + 1].  Per-segment results with K rows each are
# stacked the same way, as (B * K, d) with segment b at rows b*K:(b+1)*K.
# Every op below pads the rows into a (B, max_n, ·) view and does the
# per-graph arithmetic for all segments as one batched matmul.


def _segment_layout(offsets, n: int, op: str) -> tuple[int, int, np.ndarray | None]:
    """(segment count B, longest segment max_n, padded slot of each row) for ``n`` rows.

    The padded buffer holds B * max_n rows, viewed as (B, max_n, ·): row i
    of segment b sits at buffer row b * max_n + i, and the rest is padding.
    ``slot`` maps each of the ``n`` rows to its buffer row.  It is None when
    every segment has max_n rows, since the buffer is then the rows
    themselves, reshaped.
    """
    off = np.asarray(offsets, dtype=np.intp)
    if off.ndim != 1 or off.size < 2 or off[0] != 0 or off[-1] != n \
            or (np.diff(off) < 1).any():
        raise ShapeError(f"{op}: offsets must rise strictly from 0 to {n}, got {off.tolist()}")
    counts = np.diff(off)
    segments, width = counts.size, int(counts.max())
    if counts.min() == width:
        return segments, width, None
    return segments, width, np.arange(n) + np.repeat(np.arange(segments) * width - off[:-1], counts)


def _padded(x: np.ndarray, layout: tuple, fill: float = 0.0) -> np.ndarray:
    """(n, c) rows in the (B, max_n, c) padded view of ``layout``, padding ``fill``."""
    segments, width, slot = layout
    if slot is None:
        return x.reshape(segments, width, x.shape[1])
    # keep the memory order, so a transposed (K, N) matrix stays K-major and
    # the reductions over max_n run along contiguous memory
    buf = np.full((segments * width, x.shape[1]), fill,
                  order="F" if x.flags.f_contiguous else "C")
    buf[slot] = x
    return buf.reshape(segments, width, x.shape[1])


def _unpadded(padded: np.ndarray, layout: tuple) -> np.ndarray:
    """The (n, c) rows of a (B, max_n, c) padded array, inverse of :func:`_padded`."""
    flat = padded.reshape(-1, padded.shape[2])
    return flat if layout[2] is None else flat[layout[2]]


def _softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis``; a logit of -inf gets weight 0."""
    # the shift may overflow to -inf for pathologically spread rows; exp
    # then gives the correct limit 0, so the overflow flag is noise
    with np.errstate(over="ignore"):
        shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def segment_attention(queries: Tensor, keys: Tensor, offsets, inv_scale: float) -> Tensor:
    """Shared queries attending over every segment of ``keys`` separately.

    Returns the (K, N) weights softmax(inv_scale * queries @ keys.T), with
    the softmax taken over each segment's columns on its own: column block
    b is exactly the attention of the K queries onto graph b, so every
    block is row-stochastic.
    """
    if queries.data.ndim != 2 or keys.data.ndim != 2 \
            or queries.shape[1] != keys.shape[1]:
        raise ShapeError(
            f"segment_attention: queries {queries.shape} vs keys {keys.shape}")
    layout = _segment_layout(offsets, keys.shape[0], "segment_attention")
    c = float(inv_scale)
    # (B, max_n, K) logits with the padding at -inf, so it gets weight 0
    y = _softmax(_padded((c * (queries.data @ keys.data.T)).T, layout, fill=-np.inf), axis=1)

    def back(g: np.ndarray) -> tuple:
        gy = _padded(g.T, layout) * y
        d_logits = _unpadded(gy - y * gy.sum(axis=1, keepdims=True), layout)   # (N, K)
        return c * (d_logits.T @ keys.data), c * (d_logits @ queries.data)

    return _result(_unpadded(y, layout).T, "segment_attention", (queries, keys), back)


def segment_pool(weights: Tensor, values: Tensor, offsets, heads: int = 1) -> Tensor:
    """Each segment's values pooled by its own column block of ``weights``.

    ``weights`` is (K, N) and ``values`` (N, d); segment b yields the K rows
    weights[:, seg b] @ values[seg b], stacked into a (B * K, d) result.
    With ``heads`` = H, ``weights`` is H row blocks of (K, N) over shared
    values; head m fills columns m*d:(m+1)*d of a (B * K, H * d) result.
    """
    if weights.data.ndim != 2 or values.data.ndim != 2 \
            or weights.shape[1] != values.shape[0]:
        raise ShapeError(f"segment_pool: weights {weights.shape} vs values {values.shape}")
    if heads < 1 or weights.shape[0] % heads:
        raise ShapeError(f"segment_pool: {weights.shape[0]} rows do not split into {heads} heads")
    layout = _segment_layout(offsets, values.shape[0], "segment_pool")
    k, d = weights.shape[0] // heads, values.shape[1]
    w = _padded(weights.data.T, layout)                     # (B, max_n, H * K)
    v = _padded(values.data, layout)                        # (B, max_n, d)
    pooled = w.transpose(0, 2, 1) @ v                       # (B, H * K, d)

    def back(g: np.ndarray) -> tuple:
        g3 = g.reshape(-1, k, heads, d).swapaxes(1, 2).reshape(pooled.shape)
        return (_unpadded(v @ g3.transpose(0, 2, 1), layout).T,
                _unpadded(w @ g3, layout))

    # (B, H, K, d) -> (B, K, H, d), a view for one head
    return _result(pooled.reshape(-1, heads, k, d).swapaxes(1, 2).reshape(-1, heads * d),
                   "segment_pool", (weights, values), back)


def segment_mean(values: Tensor, offsets) -> Tensor:
    """(B, d) column means of each segment: ``segment_pool`` with 1/N_b weights."""
    _segment_layout(offsets, values.shape[0], "segment_mean")
    counts = np.diff(np.asarray(offsets))
    return segment_pool(Tensor(np.repeat(1.0 / counts, counts)[None, :]), values, offsets)


def segment_broadcast(weights: Tensor, states: Tensor, offsets) -> Tensor:
    """Each row mixes the K states of its own segment: the adjoint of ``segment_pool``.

    ``weights`` is (K, N), as ``segment_pool`` takes it, and ``states``
    (B * K, d); row n of the (N, d) result is weights[:, n] @ states[b*K:(b+1)*K]
    for n's segment b.
    """
    if weights.data.ndim != 2 or states.data.ndim != 2:
        raise ShapeError(f"segment_broadcast: weights {weights.shape} vs states {states.shape}")
    layout = _segment_layout(offsets, weights.shape[1], "segment_broadcast")
    segments, k, d = layout[0], weights.shape[0], states.shape[1]
    if states.shape[0] != segments * k:
        raise ShapeError(f"segment_broadcast: {segments} segments of {k} states "
                         f"need {segments * k} rows, got {states.shape}")
    w = _padded(weights.data.T, layout)                     # (B, max_n, K)
    s = states.data.reshape(segments, k, d)

    def back(g: np.ndarray) -> tuple:
        g3 = _padded(g, layout)                             # (B, max_n, d)
        return (_unpadded(g3 @ s.transpose(0, 2, 1), layout).T,
                (w.transpose(0, 2, 1) @ g3).reshape(-1, d))

    return _result(_unpadded(w @ s, layout), "segment_broadcast", (weights, states), back)


def block_attention(qkv: Tensor, block: int, heads: int, inv_scale: float) -> Tensor:
    """Self-attention of every head within each consecutive block of ``block`` rows.

    ``qkv`` packs, for each of its (B * block) rows, the queries of heads 0
    to H-1, then their keys, then their values, d columns each.  Head m of
    block b returns softmax(inv_scale * q_bm @ k_bm.T) @ v_bm, with no weight
    between different blocks; the (B * block, H * d) result holds head m in
    columns m*d:(m+1)*d.
    """
    if qkv.data.ndim != 2 or heads < 1 or qkv.shape[1] % (3 * heads):
        raise ShapeError(f"block_attention: {qkv.shape} does not split into "
                         f"3 * {heads} column blocks")
    n, width = qkv.shape
    if block < 1 or n % block:
        raise ShapeError(f"block_attention: {n} rows do not split into blocks of {block}")
    c, d = float(inv_scale), width // (3 * heads)
    # strided (B, H, block, d) views of the packed columns; results are
    # written straight into their packed layout, so no large temporary is made
    q, k, v = qkv.data.reshape(-1, block, 3, heads, d).transpose(2, 0, 3, 1, 4)
    y = _softmax(c * (q @ k.swapaxes(2, 3)), axis=3)
    out = np.empty((n // block, block, heads, d))
    np.matmul(y, v, out=out.transpose(0, 2, 1, 3))

    def back(g: np.ndarray) -> tuple:
        g4 = g.reshape(-1, block, heads, d).transpose(0, 2, 1, 3)
        dy = g4 @ v.swapaxes(2, 3)
        d_logits = c * y * (dy - (dy * y).sum(axis=3, keepdims=True))
        grad = np.empty(qkv.shape)
        dq, dk, dv = grad.reshape(-1, block, 3, heads, d).transpose(2, 0, 3, 1, 4)
        np.matmul(d_logits, k, out=dq)
        np.matmul(d_logits.swapaxes(2, 3), q, out=dk)
        np.matmul(y.swapaxes(2, 3), g4, out=dv)
        return (grad,)

    return _result(out.reshape(n, heads * d), "block_attention", (qkv,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise standardisation of an (n, d) matrix followed by gain and bias.

    Each row is shifted to mean 0 and scaled by 1/sqrt(variance + eps); the
    variance is the biased (divide by d) estimate.
    """
    if eps <= 0.0:
        raise ContractError("layer_norm: eps must be positive")
    if x.data.ndim != 2 or x.shape[1] < 1:
        raise ShapeError(f"layer_norm needs an (n, d) tensor with d >= 1, got {x.shape}")
    if gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({x.shape[1]},)")
    mu = x.data.mean(axis=1, keepdims=True)
    centred = x.data - mu
    var = (centred * centred).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = xhat * gain.data + bias.data

    def back(g: np.ndarray) -> tuple:
        d_gain = (g * xhat).sum(axis=0)
        d_bias = g.sum(axis=0)
        gx = g * gain.data
        dx = inv * (gx - gx.mean(axis=1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=1, keepdims=True))
        return dx, d_gain, d_bias

    return _result(out, "layer_norm", (x, gain, bias), back)


# ---------------------------------------------------------------------------
# Losses (fused scalar ops with hand-derived, numerically stable backwards)
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under row softmax."""
    lab = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2 or lab.shape != (logits.shape[0],):
        raise ShapeError(f"softmax_cross_entropy: logits {logits.shape} vs labels {lab.shape}")
    if lab.size and (lab.min() < 0 or lab.max() >= logits.shape[1]):
        raise ContractError("softmax_cross_entropy: label outside class range")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    n = z.shape[0]
    loss = (lse - z[np.arange(n), lab]).mean()
    probs = np.exp(z - zmax)
    probs /= probs.sum(axis=1, keepdims=True)

    def back(g: np.ndarray) -> tuple:
        d = probs.copy()
        d[np.arange(n), lab] -= 1.0
        return (d * (float(g.reshape(())) / n),)

    return _result(np.asarray(loss), "softmax_cross_entropy", (logits,), back)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw scores, computed in stable form."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: logits {logits.shape} vs targets {t.shape}")
    z = logits.data
    # max(z, 0) - z*t + log(1 + exp(-|z|)) is exact and never overflows
    loss = (np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean()
    sig = 1.0 / (1.0 + np.exp(-z))
    n = z.size

    def back(g: np.ndarray) -> tuple:
        return ((sig - t) * (float(g.reshape(())) / n),)

    return _result(np.asarray(loss), "bce_with_logits", (logits,), back)


def mse_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against constant targets."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != pred.shape:
        raise ShapeError(f"mse_loss: pred {pred.shape} vs targets {t.shape}")
    diff = pred.data - t
    n = diff.size

    def back(g: np.ndarray) -> tuple:
        return (diff * (2.0 * float(g.reshape(())) / n),)

    return _result(np.asarray((diff * diff).mean()), "mse_loss", (pred,), back)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` rebuilds the scalar loss from scratch on every call (it closes over
    ``params``).  Returns the worst relative error
    ``|analytic - numeric| / max(1, |analytic|)`` over every parameter entry.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    loss = f()
    backward(loss, params=params)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ref in zip(params, analytic):
        flat = p.data.reshape(-1)
        ref_flat = ref.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = f().item()
            flat[i] = saved - eps
            f_minus = f().item()
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ref_flat[i] - numeric) / max(1.0, abs(ref_flat[i]))
            worst = max(worst, err)
    return worst


def parameter(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> Tensor:
    """A trainable tensor with i.i.d. normal(0, std) entries."""
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)
