"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable computation in this package runs on the small engine in
this module.  A :class:`Tensor` wraps a float64 numpy array, C-contiguous
(the bits of the products that read it depend on that) unless it is a
leaf's :func:`view`, which may be transposed.  Each operation that has to be
differentiated records a :class:`TapeEntry` holding its inputs and a
backward closure; :func:`backward` collects the entries reachable from a
scalar loss into a :class:`GradTape` and replays them exactly once in
reverse topological order, adding gradients in place into the leaves.
Inside :func:`no_grad` nothing is recorded, so inference builds no tape.

The engine is deliberately plain: no broadcasting beyond the bias rule of
:func:`affine`, no views but of leaves, no dtype zoo.  The test suite checks
every op's backward against central differences.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """The engine's one refusal: an operand whose shape, type or range the op cannot take."""


_OP_IDS = itertools.count()
LAYER_NORM_EPS = 1e-5    # added to the variance in every layer_norm

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
    ``requires_grad=True``, in place once it exists, so it may be a view.
    Non-leaf tensors keep a reference to the tape entry that produced them.
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
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


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
    listed tensor gets its gradient zero-filled first, so parameters the
    loss does not touch come back with exact zeros instead of ``None``.
    Gradients are added in place, into fresh zeros where ``grad`` is None,
    so no ``grad`` is a closure's output and views of one array sum into it.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    for p in params or ():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        p.grad.fill(0.0)
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
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g


# ---------------------------------------------------------------------------
# Products and structural operations
# ---------------------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """``x @ w``, plus the bias ``b`` when given, through a ReLU when ``relu``.

    ``b`` is (d,) or has r rows of the output's width d, where r divides the
    n rows of ``x @ w``; it is added to every block of r consecutive rows
    and its gradient is the sum over those blocks.  So one rule covers a
    dense layer's row bias (r = 1), K per-graph rows tiled down B * K rows
    (r = K) and a same-shape residual (r = n).

    With no bias and no ReLU it is the plain product.  It is one tape entry
    for what a product, a tiling, a sum and a ReLU would record as up to
    four, with the same values and gradients.  The bias and the ReLU are
    applied in place, so the tape keeps only the one result array alive.
    ``g @ w.T`` is skipped when ``x`` needs no gradient.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine needs rank-2 operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: inner dimensions differ, {x.shape} vs {w.shape}")
    n, d = x.shape[0], w.shape[1]
    if b is not None and not (b.shape == (d,) or (b.data.ndim == 2 and b.shape[1] == d
                                                  and b.shape[0] > 0 and n % b.shape[0] == 0)):
        raise ShapeError(f"affine: bias must be ({d},) or (r, {d}) with r dividing {n}, "
                         f"got {b.shape}")
    out = x.data @ w.data
    if b is not None:
        out.reshape(-1, *b.shape)[...] += b.data
    if relu:
        np.maximum(out, 0.0, out=out)
    needs_dx = x.requires_grad

    def back(g: np.ndarray) -> tuple:
        if relu:
            # out > 0 exactly where the input to the ReLU was, so no mask is kept
            g = g * (out > 0.0)
        grads = (g @ w.data.T if needs_dx else None, x.data.T @ g)
        return grads if b is None else grads + (g.reshape(-1, *b.shape).sum(axis=0),)

    return _result(out, "affine", (x, w) if b is None else (x, w, b), back)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Rows of an (n, d) tensor by a (P, c) integer index (repeats allowed), as (P, c * d):
    row i holds the c rows ``index[i]`` side by side.  The gradient accumulates.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows needs rows of an (n, d) tensor, got {a.shape}")
    blocks = _index(index, 2, "gather_rows", "index")
    if blocks.size and (blocks.min() < 0 or blocks.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    p, c = blocks.shape

    def back(g: np.ndarray) -> tuple:
        # column block j sums into a buffer of its own, and the blocks are
        # added last first: the bits of c one-column gathers side by side
        parts = np.zeros((c,) + a.shape)
        np.add.at(parts, (np.arange(c), blocks), g.reshape(p, c, a.shape[1]))
        return (parts[::-1].sum(axis=0),)

    return _result(a.data[blocks].reshape(p, c * a.shape[1]), "gather_rows", (a,), back)


def _index(values, ndim: int, op: str, what: str) -> np.ndarray:
    """An index operand as intp: integers of rank ``ndim``, or empty, never cast or reshaped."""
    a = np.asarray(values)
    if a.ndim != ndim or (a.size and a.dtype.kind not in "iu"):
        raise ShapeError(f"{op}: {what} must be a {ndim}-D integer array, got {a.dtype} {a.shape}")
    return a.astype(np.intp, copy=False)


def _checked_entries(edges: np.ndarray, n: int, scale: np.ndarray | None, op: str) -> tuple:
    """((E, 2) edges, scale or None), checked to fit ``n`` rows."""
    pairs = _index(edges, 2, op, "edges")
    if scale is not None:
        scale = np.asarray(scale, dtype=np.float64)
        if scale.shape != (n,):
            raise ShapeError(f"{op}: scale {scale.shape} and {n} rows do not fit together")
    if pairs.shape[1] != 2 or pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ShapeError(f"{op}: edges must be (E, 2) with no index out of range "
                         f"for {n} rows, got {pairs.shape}")
    return pairs, scale


def _narrow(keys: np.ndarray) -> np.ndarray:
    """Non-negative keys in the narrowest unsigned type: numpy radix-sorts 8 and 16 bits."""
    return keys.astype(np.min_scalar_type(keys.max(initial=0)), copy=False)


class SlotMatrix:
    """S(A + I)S for a sparse graph, stored so that a product needs no scatter-add.

    A counts every stored undirected edge (u, v) once at (u, v) and once at
    (v, u), so repeated edges add up; S is ``diag(scale)``, or the identity
    when ``scale`` is None.  The edges are grouped by row and a row's k-th
    neighbour goes to slot k.  No row repeats within a slot, so
    ``(A + I) @ x`` is ``x`` plus ``out[rows] += x[cols]`` once per slot,
    exact without ``np.add.at`` and with no per-entry weight; there are as
    many slots as the largest row has edges.  The slots need no segments,
    only the row count ``n``.  Build it once per graph and reuse it for
    every product.  Every slot costs a gather and a scatter, so a
    batch keeps this form for graphs whose dense blocks would be large and
    mostly empty.
    """

    def __init__(self, edges: np.ndarray, n: int, scale: np.ndarray | None):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ShapeError(f"SlotMatrix: the row count must be a non-negative integer, got {n!r}")
        pairs, scale = _checked_entries(edges, n, scale, "SlotMatrix")
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        by_row = np.argsort(_narrow(rows), kind="stable")
        rows, cols = rows[by_row], cols[by_row]
        counts = np.bincount(rows, minlength=n)
        rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        by_slot = np.argsort(_narrow(rank), kind="stable")
        rows, cols = rows[by_slot], cols[by_slot]
        sizes = np.bincount(rank)
        ends = np.cumsum(sizes)
        self.num_rows = n
        self.scale = None if scale is None else scale[:, None]
        # a slot that covers every row updates ``out`` in place, not through an index
        self.slots = [(rows[a:b] if b - a < n else slice(None), cols[a:b])
                      for a, b in zip(ends - sizes, ends)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The product ``S(A + I)S @ x`` for an (n, d) array ``x``."""
        if self.scale is not None:
            x = self.scale * x
        out = x.copy()
        for rows, cols in self.slots:
            out[rows] += x[cols]
        if self.scale is not None:
            out *= self.scale
        return out


class BlockMatrix:
    """The matrix of :class:`SlotMatrix`, block-diagonal over row segments and stored dense.

    ``offsets`` splits the rows into segments as for the segment ops below,
    and every edge must join two rows of one segment.  Segment b's block is
    kept as an (m, m) matrix, zero-padded to the longest segment's m rows,
    with s_u * s_v at every edge's two entries and s_u**2 on the diagonal
    (all ones when ``scale`` is None).  The product is one batched matmul
    of the (B, m, m) blocks with the padded (B, m, d) view of ``x``.
    """

    def __init__(self, edges: np.ndarray, offsets, scale: np.ndarray | None):
        self.layout = starts, counts, width, slot = _segments(offsets, None, "BlockMatrix")
        n = int(starts[-1] + counts[-1])
        pairs, scale = _checked_entries(edges, n, scale, "BlockMatrix")
        segment = np.repeat(np.arange(counts.size), counts)
        u, v = pairs.T
        if (segment[u] != segment[v]).any():
            raise ShapeError("BlockMatrix: an edge joins rows of two segments")
        s = np.ones(n) if scale is None else scale
        diag, w = s * s, s[u] * s[v]
        padded = np.arange(n) if slot is None else slot     # row in the (B * m) padded rows
        local = padded - segment * width                    # row within its own block
        # entry (r, c) of block b is flat entry (b * m + r) * m + c; bincount
        # sums the weights of repeated edges as the slots do
        flat = np.concatenate([padded * width + local,
                               padded[u] * width + local[v], padded[v] * width + local[u]])
        self.num_rows = n
        self.blocks = np.bincount(flat, np.concatenate([diag, w, w]),
                                  minlength=counts.size * width * width
                                  ).reshape(counts.size, width, width)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The product ``S(A + I)S @ x`` for an (n, d) array ``x``."""
        return _unpadded(self.blocks @ _padded(x, self.layout), self.layout)


def slot_matmul(matrix: BlockMatrix | SlotMatrix, x: Tensor) -> Tensor:
    """``matrix @ x`` for a constant symmetric ``matrix`` in either form.

    The matrix equals its transpose, so the backward applies it again.
    """
    if x.data.ndim != 2 or x.shape[0] != matrix.num_rows:
        raise ShapeError(f"slot_matmul: {matrix.num_rows}-row matrix vs x {x.shape}")
    return _result(matrix.apply(x.data), "slot_matmul", (x,), lambda g: (matrix.apply(g),))


# ---------------------------------------------------------------------------
# Segment ops: a batch of graphs as consecutive row segments
# ---------------------------------------------------------------------------
#
# A batch stacks the node rows of B graphs; ``offsets`` holds B + 1 strictly
# increasing row indices from 0 to the total, so segment b owns rows
# offsets[b]:offsets[b + 1].  Per-segment results with V >= 1 rows each are
# stacked the same way, as (B * V, d) with segment b at rows b*V:(b+1)*V.
# An op that makes such rows or node rows adds them onto an ``onto`` of
# their shape in place, so the sum records no tape entry of its own.
# Every op reads the offsets once, through ``_segments``, and takes each
# segment's first row, its length, the longest length and the padded slots
# from that one description.  The reductions over a segment's rows
# (``segment_attention``'s softmax, ``segment_mean`` and ``segment_expand``)
# run on the rows themselves, with ``reduceat`` or a product with a ones
# vector and ``np.repeat`` by segment length.  The ops that multiply a
# segment's rows by per-row weights (``segment_pool``, ``segment_broadcast``)
# pad the rows into a (B, max_n, ·) view and run one batched matmul for all
# segments.


def _segments(offsets, n: int | None, op: str) -> tuple:
    """(first row, length of each segment, longest length max_n, padded slot of each row)
    of ``offsets``, checked to rise strictly from 0 to ``n`` (to any end when None).

    The padded buffer holds B * max_n rows, viewed as (B, max_n, ·): row i
    of segment b sits at buffer row b * max_n + i, and the rest is padding.
    The slot maps each row to its buffer row.  It is None when every segment
    has max_n rows, since the buffer is then the rows themselves, reshaped.
    """
    off = _index(offsets, 1, op, "offsets")
    counts = np.diff(off)
    if off.size < 2 or off[0] != 0 or (counts < 1).any() or n is not None and off[-1] != n:
        raise ShapeError(f"{op}: offsets must rise strictly from 0"
                         f"{'' if n is None else f' to {n}'}, got {off.tolist()}")
    starts, width = off[:-1], int(counts.max())
    if counts.min() == width:
        return starts, counts, width, None
    shift = np.arange(counts.size) * width - starts     # buffer row minus row, per segment
    return starts, counts, width, np.arange(off[-1]) + np.repeat(shift, counts)


def _rows_per_part(rows: int, parts: int, op: str, what: str, part: str) -> int:
    """V, for ``rows`` that split into ``parts`` equal parts of V >= 1 rows each."""
    if parts < 1 or rows < parts or rows % parts:
        raise ShapeError(f"{op}: {rows} {what} rows do not split into {parts} {part} of 1+ rows")
    return rows // parts


def _padded(x: np.ndarray, layout: tuple) -> np.ndarray:
    """(n, c) rows in the (B, max_n, c) padded view of a :func:`_segments` layout, zero-padded."""
    _, counts, width, slot = layout
    if slot is None:
        return x.reshape(counts.size, width, x.shape[1])
    # keep the memory order, so a transposed (K, N) matrix stays K-major
    buf = np.zeros((counts.size * width, x.shape[1]), order="F" if x.flags.f_contiguous else "C")
    buf[slot] = x
    return buf.reshape(counts.size, width, x.shape[1])


def _unpadded(padded: np.ndarray, layout: tuple) -> np.ndarray:
    """The (n, c) rows of a (B, max_n, c) padded array, inverse of :func:`_padded`."""
    flat = padded.reshape(-1, padded.shape[2])
    return flat if layout[3] is None else flat[layout[3]]


def _segment_sums(x: np.ndarray, layout: tuple) -> np.ndarray:
    """(B, d) sums of each segment's rows of the (n, d) array ``x``."""
    starts, counts, width, slot = layout
    if slot is None:    # a ones product beats reduceat on equal segments
        return np.ones(width) @ x.reshape(counts.size, width, x.shape[1])
    return np.add.reduceat(x, starts, axis=0)


def segment_attention(queries: Tensor, keys: Tensor, offsets) -> Tensor:
    """Shared queries attending over every segment of ``keys`` separately.

    Returns the (K, N) weights softmax(queries @ keys.T / sqrt(d)) for
    d-wide queries and keys, with the softmax taken over each segment's
    columns on its own: column block b is exactly the attention of the K
    queries onto graph b, so every block is row-stochastic.
    """
    if queries.data.ndim != 2 or keys.data.ndim != 2 or queries.shape[1] != keys.shape[1]:
        raise ShapeError(f"segment_attention: queries {queries.shape} vs keys {keys.shape}")
    starts, counts, _, _ = _segments(offsets, keys.shape[0], "segment_attention")
    c = queries.shape[1] ** -0.5     # not 1 / sqrt(d): at d = 32 the two differ in the last bit
    logits = c * (queries.data @ keys.data.T)                             # (K, N)
    # the shift may overflow to -inf for pathologically spread segments; exp
    # then gives the correct limit 0, so the overflow flag is noise
    with np.errstate(over="ignore"):
        logits -= np.repeat(np.maximum.reduceat(logits, starts, axis=1), counts, axis=1)
    y = np.exp(logits)
    y /= np.repeat(np.add.reduceat(y, starts, axis=1), counts, axis=1)

    def back(g: np.ndarray) -> tuple:
        gy = g * y
        d_logits = gy - y * np.repeat(np.add.reduceat(gy, starts, axis=1), counts, axis=1)
        return c * (d_logits @ keys.data), c * (d_logits.T @ queries.data)

    return _result(y, "segment_attention", (queries, keys), back)


def segment_pool(weights: Tensor, values: Tensor, offsets, heads: int = 1) -> Tensor:
    """Each segment's values pooled by its own column block of ``weights``.

    ``weights`` is (K, N) and ``values`` (N, d); segment b yields the K rows
    weights[:, seg b] @ values[seg b], stacked into a (B * K, d) result.
    With ``heads`` = H, ``weights`` is H row blocks of (K, N) over shared
    values; head m fills columns m*d:(m+1)*d of a (B * K, H * d) result.
    """
    if weights.data.ndim != 2 or values.data.ndim != 2 or weights.shape[1] != values.shape[0]:
        raise ShapeError(f"segment_pool: weights {weights.shape} vs values {values.shape}")
    k = _rows_per_part(weights.shape[0], heads, "segment_pool", "weight", "heads")
    layout = _segments(offsets, values.shape[0], "segment_pool")
    d = values.shape[1]
    w = _padded(weights.data.T, layout)                     # (B, max_n, H * K)
    # in C order, as a transposed leaf view would change the product's bits
    v = _padded(np.ascontiguousarray(values.data), layout)  # (B, max_n, d)
    pooled = w.transpose(0, 2, 1) @ v                       # (B, H * K, d)

    def back(g: np.ndarray) -> tuple:
        g3 = g.reshape(-1, k, heads, d).swapaxes(1, 2).reshape(pooled.shape)
        return _unpadded(v @ g3.transpose(0, 2, 1), layout).T, _unpadded(w @ g3, layout)

    # (B, H, K, d) -> (B, K, H, d), a view for one head
    return _result(pooled.reshape(-1, heads, k, d).swapaxes(1, 2).reshape(-1, heads * d),
                   "segment_pool", (weights, values), back)


def segment_mean(values: Tensor, offsets, onto: Tensor) -> Tensor:
    """``onto`` plus, on each row, its segment's column mean of ``values``: the
    row sum times 1/N_b.  ``values`` is (N, d) in the B segments of ``offsets``
    and ``onto`` (B * V, d), segment b's V rows at b*V:(b+1)*V."""
    if values.data.ndim != 2 or onto.data.ndim != 2 or onto.shape[1] != values.shape[1]:
        raise ShapeError(f"segment_mean: values {values.shape} vs onto {onto.shape}")
    layout = _, counts, _, _ = _segments(offsets, values.shape[0], "segment_mean")
    count = _rows_per_part(onto.shape[0], counts.size, "segment_mean", "onto", "segments")
    inv = (1.0 / counts)[:, None]
    out = np.repeat(_segment_sums(values.data, layout) * inv, count, axis=0)
    out += onto.data
    # the gradient sums over a segment's V rows, then repeats down its N_b rows
    return _result(out, "segment_mean", (values, onto), lambda g: (
        np.repeat(g.reshape(counts.size, count, -1).sum(axis=1) * inv, counts, axis=0), g))


def segment_expand(states: Tensor, offsets, onto: Tensor) -> Tensor:
    """``onto`` plus, on each row, the sum of its own segment's V states.

    ``states`` is (B * V, d), segment b's states at rows b*V:(b+1)*V, and
    ``onto`` is (N, d) in the B segments of ``offsets``.  The backward gives
    every state its segment's row sum of the gradient.
    """
    if states.data.ndim != 2 or onto.data.ndim != 2 or states.shape[1] != onto.shape[1]:
        raise ShapeError(f"segment_expand: states {states.shape} vs onto {onto.shape}")
    layout = _, counts, _, _ = _segments(offsets, onto.shape[0], "segment_expand")
    count = _rows_per_part(states.shape[0], counts.size, "segment_expand", "state", "segments")
    out = np.repeat(states.data.reshape(counts.size, count, -1).sum(axis=1), counts, axis=0)
    out += onto.data

    def back(g: np.ndarray) -> tuple:
        return np.repeat(_segment_sums(g, layout), count, axis=0), g

    return _result(out, "segment_expand", (states, onto), back)


def segment_broadcast(weights: Tensor, states: Tensor, offsets, onto: Tensor,
                      heads: int = 1) -> Tensor:
    """``onto`` plus each row's mix of the K states of its own segment.

    The mix is the adjoint of ``segment_pool``: ``weights`` is (K, N) and
    ``states`` (B * K, d); row n of the mix is weights[:, n] @ states[b*K:(b+1)*K]
    for n's segment b.  With ``heads`` = H, ``weights`` is H row blocks of
    (K, N), and their mean, summed in head order, takes its place.  The
    (N, d) ``onto`` is added in place into the mix, so it needs no tape entry.
    No gradient is formed for ``weights`` when it needs none.
    """
    if weights.data.ndim != 2 or states.data.ndim != 2:
        raise ShapeError(f"segment_broadcast: weights {weights.shape} vs states {states.shape}")
    k = _rows_per_part(weights.shape[0], heads, "segment_broadcast", "weight", "heads")
    layout = _segments(offsets, weights.shape[1], "segment_broadcast")
    segments, d = layout[1].size, states.shape[1]
    if states.shape[0] != segments * k:
        raise ShapeError(f"segment_broadcast: {segments} segments of {k} states "
                         f"need {segments * k} rows, got {states.shape}")
    if onto.shape != (weights.shape[1], d):
        raise ShapeError(f"segment_broadcast: onto must be ({weights.shape[1]}, {d}), "
                         f"got {onto.shape}")
    c = 1.0 / heads
    w = _padded((weights.data.reshape(heads, k, -1).sum(axis=0) * c).T, layout)  # (B, max_n, K)
    s = states.data.reshape(segments, k, d)
    out = _unpadded(w @ s, layout)
    out += onto.data
    needs_dw = weights.requires_grad

    def back(g: np.ndarray) -> tuple:
        g3 = _padded(g, layout)                             # (B, max_n, d)
        g_states = (w.transpose(0, 2, 1) @ g3).reshape(-1, d)
        if not needs_dw:
            return None, g_states, g
        # C order: the reductions upstream sum in memory order, so this layout sets their bits
        g_mean = np.multiply(_unpadded(g3 @ s.transpose(0, 2, 1), layout).T, c, order="C")
        return np.tile(g_mean, (heads, 1)), g_states, g

    return _result(out, "segment_broadcast", (weights, states, onto), back)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums along the short last axis of ``x``, as one product with a ones vector."""
    return (x.reshape(-1, x.shape[-1]) @ np.ones(x.shape[-1])).reshape(x.shape[:-1] + (1,))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the short last axis of ``logits``; its max runs along the
    long axis of a transposed copy, since a reduction along a short axis pays per row."""
    rows = logits.reshape(-1, logits.shape[-1])
    # the shift may overflow to -inf for pathologically spread rows; exp
    # then gives the correct limit 0, so the overflow flag is noise
    with np.errstate(over="ignore"):
        e = rows - rows.T.copy().max(axis=0)[:, None]
    np.exp(e, out=e)
    e /= _row_sums(e)
    return e.reshape(logits.shape)


def block_attention(qkv: Tensor, block: int, heads: int) -> Tensor:
    """Self-attention of every head within each consecutive block of ``block`` rows.

    ``qkv`` packs, for each of its (B * block) rows, the queries of heads 0
    to H-1, then their keys, then their values, d columns each.  Head m of
    block b returns softmax(q_bm @ k_bm.T / sqrt(d)) @ v_bm, with no weight
    between different blocks; the (B * block, H * d) result holds head m in
    columns m*d:(m+1)*d.
    """
    if qkv.data.ndim != 2 or heads < 1 or qkv.shape[1] % (3 * heads):
        raise ShapeError(f"block_attention: {qkv.shape} does not split into "
                         f"3 * {heads} column blocks")
    n, width = qkv.shape
    if block < 1 or n % block:
        raise ShapeError(f"block_attention: {n} rows do not split into blocks of {block}")
    d = width // (3 * heads)
    c = 1.0 / np.sqrt(d)     # not d ** -0.5: at d = 32 the two differ in the last bit
    # strided (B, H, block, d) views of the packed columns; results are
    # written straight into their packed layout, so no large temporary is made
    q, k, v = qkv.data.reshape(-1, block, 3, heads, d).transpose(2, 0, 3, 1, 4)
    y = _softmax(c * (q @ k.swapaxes(2, 3)))
    out = np.empty((n // block, block, heads, d))
    np.matmul(y, v, out=out.transpose(0, 2, 1, 3))

    def back(g: np.ndarray) -> tuple:
        g4 = g.reshape(-1, block, heads, d).transpose(0, 2, 1, 3)
        dy = g4 @ v.swapaxes(2, 3)
        d_logits = c * y * (dy - _row_sums(dy * y))
        grad = np.empty(qkv.shape)
        dq, dk, dv = grad.reshape(-1, block, 3, heads, d).transpose(2, 0, 3, 1, 4)
        np.matmul(d_logits, k, out=dq)
        np.matmul(d_logits.swapaxes(2, 3), q, out=dk)
        np.matmul(y.swapaxes(2, 3), g4, out=dv)
        return (grad,)

    return _result(out.reshape(n, heads * d), "block_attention", (qkv,), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Row-wise standardisation of an (n, d) matrix followed by gain and bias.

    Each row is shifted to mean 0 and scaled by 1/sqrt(variance + eps), with
    eps = ``LAYER_NORM_EPS``; the variance is the biased (divide by d) estimate.
    """
    if x.data.ndim != 2 or x.shape[1] < 1:
        raise ShapeError(f"layer_norm needs an (n, d) tensor with d >= 1, got {x.shape}")
    if gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({x.shape[1]},)")
    mu = x.data.mean(axis=1, keepdims=True)
    centred = x.data - mu
    var = (centred * centred).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
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
    lab = _index(labels, 1, "softmax_cross_entropy", "labels")
    if logits.data.ndim != 2 or lab.shape != (logits.shape[0],):
        raise ShapeError(f"softmax_cross_entropy: logits {logits.shape} vs labels {lab.shape}")
    if lab.size and (lab.min() < 0 or lab.max() >= logits.shape[1]):
        raise ShapeError("softmax_cross_entropy: label outside class range")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    total = e.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(total[:, 0])
    n = z.shape[0]
    loss = (lse - z[np.arange(n), lab]).mean()

    def back(g: np.ndarray) -> tuple:
        d = e / total
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
    n = z.size

    def back(g: np.ndarray) -> tuple:
        with np.errstate(over="ignore"):    # exp(-z) is inf below z = -709; sig is 0 there
            sig = 1.0 / (1.0 + np.exp(-z))
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
# Parameters
# ---------------------------------------------------------------------------


def parameter(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> Tensor:
    """A trainable tensor with i.i.d. normal(0, std) entries."""
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def view(owner: Tensor, index, transposed: bool = False) -> Tensor:
    """A leaf over ``owner.data[index]``, or its ``.T`` when ``transposed``, for basic
    slices only, with no copy and no tape entry; its ``grad`` is the same view of
    ``owner.grad``, so views sum into their owner."""
    if owner.grad is None:
        owner.grad = np.zeros_like(owner.data)
    leaf = Tensor(0.0, owner.requires_grad)
    data, grad = owner.data[index], owner.grad[index]
    leaf.data, leaf.grad = (data.T, grad.T) if transposed else (data, grad)
    return leaf


def pack(leaves: Sequence[Tensor]) -> Tensor:
    """Move the leaves' values into one flat leaf and return it; the leaves'
    ``data`` and ``grad`` become views of the flat ones, so one call covers all."""
    flat = Tensor(np.concatenate([t.data.ravel() for t in leaves]), requires_grad=True)
    flat.grad = np.zeros_like(flat.data)
    splits = np.cumsum([t.data.size for t in leaves])[:-1]
    for t, data, grad in zip(leaves, np.split(flat.data, splits), np.split(flat.grad, splits)):
        t.data, t.grad = data.reshape(t.shape), grad.reshape(t.shape)
    return flat
