"""Helpers shared by the test files: reference forms the package itself never calls."""

import math
from collections.abc import Callable, Sequence

import numpy as np

from neural_atoms.attention import MultiHeadParams
from neural_atoms.autodiff import (ShapeError, Tensor, _result, _segments,
                                   _unpadded, backward, gather_rows, layer_norm,
                                   segment_attention, segment_broadcast, segment_expand,
                                   segment_mean, segment_pool, view)
from neural_atoms.ewald import (SQRT_PI, EwaldError, EwaldMatrix, EwaldSystem, _image_sums,
                                _integer_shells)
from neural_atoms.graphs import GraphBatch, GraphError, MolecularGraph
from neural_atoms.model import named_leaves
from neural_atoms.neural_atom import NeuralAtomLayerParams, NeuralAtomTrace, enhance_segments


# ---------------------------------------------------------------------------
# Tape ops the package no longer records, the finite-difference oracle,
# rescaled initial weights and the tensor-by-tensor optimiser
# ---------------------------------------------------------------------------


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, "neg", (a,), lambda g: (-g,))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of same-shape tensors: the op the virtual-node round
    recorded before ``segment_mean`` added the node means onto the states."""
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data + b.data, "add", (a, b), lambda g: (g, g))


def transpose(a: Tensor) -> Tensor:
    """A C-contiguous copy of a matrix's transpose: the op the atom projection
    recorded for W_k^T before it took W_k^T as a transposed view of ``qkv``."""
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 tensor, got {a.shape}")
    return _result(np.ascontiguousarray(a.data.T), "transpose", (a,), lambda g: (g.T,))


def add_row(a: Tensor, b: Tensor) -> Tensor:
    """A (d,) or (1, d) row added to every row of an (n, d) matrix: the row
    branch ``add`` had before ``affine`` took over every bias."""
    if a.data.ndim != 2 or b.shape not in ((a.shape[1],), (1, a.shape[1])):
        raise ShapeError(f"add_row: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data + b.data, "add_row", (a, b),
                   lambda g: (g, g.sum(axis=0).reshape(b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The plain product as a tape op of its own: ``affine`` with no bias."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    return _result(a.data @ b.data, "matmul", (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Tensors of one row count side by side, as a tape op of its own."""
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    counts = [p.shape[1] for p in parts]
    splits = np.cumsum(counts)[:-1]

    def back(g: np.ndarray) -> tuple:
        return tuple(np.split(g, splits, axis=1))

    return _result(np.concatenate([p.data for p in parts], axis=1), "concat_cols", tuple(parts), back)


def side_by_side_gathers(a: Tensor, index: np.ndarray) -> Tensor:
    """``gather_rows`` of a (P, c) index as ``concat_cols`` of c one-column
    gathers: the pair head's form before one gather took the 2-D index."""
    return concat_cols([gather_rows(a, column[:, None]) for column in np.asarray(index).T])


def broadcast_then_add(weights: Tensor, states: Tensor, offsets, onto: Tensor,
                       heads: int = 1) -> Tensor:
    """``segment_broadcast`` onto zeros, then ``add`` of ``onto``: the two
    tape entries the enhancement took before the op added ``onto`` itself."""
    mix = segment_broadcast(weights, states, offsets, Tensor(np.zeros(onto.shape)), heads=heads)
    return add(onto, mix)


def mean_then_add(values: Tensor, offsets, onto: Tensor) -> Tensor:
    """``segment_mean`` onto zeros, each mean repeated down its segment's V rows
    by ``gather_rows``, then ``add`` of ``onto``: the three tape entries the
    virtual-node round took before the op added the means onto its states."""
    segments = len(offsets) - 1
    means = segment_mean(values, offsets, Tensor(np.zeros((segments, values.shape[1]))))
    repeat = np.repeat(np.arange(segments), onto.shape[0] // segments)
    return add(onto, gather_rows(means, repeat[:, None]))


def expand_then_add(states: Tensor, offsets, onto: Tensor) -> Tensor:
    """``segment_expand`` onto zeros, then ``add`` of ``onto``: the two tape
    entries the virtual-node output would take if the op did not add ``onto``."""
    return add(onto, segment_expand(states, offsets, Tensor(np.zeros(onto.shape))))


def padded_segment_mean(values: Tensor, offsets) -> Tensor:
    """``segment_mean`` as it was before it became a tape op: ``segment_pool``
    with a constant (1, N) row of 1/N_b weights."""
    counts = np.diff(np.asarray(offsets))
    return segment_pool(Tensor(np.repeat(1.0 / counts, counts)[None, :]), values, offsets)


def ones_broadcast(states: Tensor, offsets, onto: Tensor) -> Tensor:
    """``segment_expand`` as the virtual-node round ran it before: ``segment_broadcast``
    of the V states with an all-ones (V, N) weight."""
    count = states.shape[0] // (len(offsets) - 1)
    return segment_broadcast(Tensor(np.ones((count, onto.shape[0]))), states, offsets, onto)


def padded_segment_attention(queries: Tensor, keys: Tensor, offsets) -> Tensor:
    """``segment_attention`` as it was before it worked on the (K, N) logits:
    the softmax of a (B, max_n, K) padded copy whose padding holds -inf."""
    layout = _, counts, width, slot = _segments(offsets, keys.shape[0], "padded_segment_attention")
    c = queries.shape[1] ** -0.5

    def padded(x, fill):
        if slot is None:
            return x.reshape(counts.size, width, x.shape[1])
        buf = np.full((counts.size * width, x.shape[1]), fill,
                      order="F" if x.flags.f_contiguous else "C")
        buf[slot] = x
        return buf.reshape(counts.size, width, x.shape[1])

    logits = padded((c * (queries.data @ keys.data.T)).T, -np.inf)
    with np.errstate(over="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g: np.ndarray) -> tuple:
        gy = padded(g.T, 0.0) * y
        d_logits = _unpadded(gy - y * gy.sum(axis=1, keepdims=True), layout)   # (N, K)
        return c * (d_logits.T @ keys.data), c * (d_logits @ queries.data)

    return _result(_unpadded(y, layout).T, "padded_segment_attention", (queries, keys), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _result(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken to be 0."""
    mask = a.data > 0.0
    return _result(np.where(mask, a.data, 0.0), "relu", (a,), lambda g: (g * mask,))


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python float (the float is a constant, not a tensor)."""
    c = float(factor)
    return _result(a.data * c, "scale", (a,), lambda g: (g * c,))


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


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_rows needs at least one tensor")
    counts = [p.shape[0] for p in parts]
    splits = np.cumsum(counts)[:-1]

    def back(g: np.ndarray) -> tuple:
        return tuple(np.split(g, splits, axis=0))

    return _result(np.concatenate([p.data for p in parts], axis=0), "concat_rows", tuple(parts), back)


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d scalar tensor."""
    return _result(np.asarray(a.data.sum()), "sum_all", (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` rebuilds the scalar loss from scratch on every call (it closes over
    ``params``).  Returns the worst relative error
    ``|analytic - numeric| / max(1, |analytic|)`` over every parameter entry.
    Entries are perturbed by index, so a strided view is perturbed in place
    rather than through a copy.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ShapeError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    loss = f()
    backward(loss, params=params)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ref in zip(params, analytic):
        for i in np.ndindex(p.shape):
            saved = p.data[i]
            p.data[i] = saved + eps
            f_plus = f().item()
            p.data[i] = saved - eps
            f_minus = f().item()
            p.data[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ref[i] - numeric) / max(1.0, abs(ref[i]))
            worst = max(worst, err)
    return worst


def rescale_weights(params, std: float):
    """``params`` with every weight matrix scaled from its fan-in default
    normal(0, rows ** -0.5) to normal(0, std); biases are left as they are."""
    for name in ("weight", "w1", "w2"):
        w = getattr(params, name, None)
        if w is not None:
            w.data *= std * w.shape[0] ** 0.5
    return params


class TensorByTensorAdam:
    """Adam as one update per parameter tensor: the oracle for the flat ``Adam``."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.first_moment = [np.zeros(p.shape) for p in params]
        self.second_moment = [np.zeros(p.shape) for p in params]

    def step(self) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.BETA1 ** self.step_count
        correction2 = 1.0 - self.BETA2 ** self.step_count
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            m *= self.BETA1
            m += (1.0 - self.BETA1) * p.grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * p.grad * p.grad
            update = (m / correction1) / (np.sqrt(v / correction2) + self.EPS)
            p.data -= self.lr * update


# ---------------------------------------------------------------------------
# Ewald totals and the brute-force direct-sum reference
# ---------------------------------------------------------------------------


def interaction_energy(matrix: EwaldMatrix) -> float:
    """Half the off-diagonal sum: the total pairwise interaction strength."""
    off = matrix.total - np.diag(np.diag(matrix.total))
    return 0.5 * float(off.sum())


def lattice_energy(system: EwaldSystem) -> float:
    """The physical electrostatic energy per cell of the full periodic system.

    This is the textbook Ewald total: all cross pair terms plus each atom's
    interaction with its own images, the Gaussian self correction, and the
    uniform-background correction for a net-charged cell.
    """
    real, recip = _image_sums(system)
    z = system.atomic_numbers.astype(np.float64)
    a = system.splitting
    # the diagonal of the image sums counts each atom's own images once
    pairs = 0.5 * float(z @ (real + recip) @ z)
    per_atom = -a / SQRT_PI * float((z * z).sum())
    background = -math.pi / (2.0 * a * a * system.volume) * float(z.sum()) ** 2
    return pairs + per_atom + background


def direct_sum_oracle(system: EwaldSystem, shells: int) -> np.ndarray:
    """Plain 1/r image sums with no range splitting, truncated at ``shells``.

    Entry (i, j) sums Z_i Z_j / |r_i - r_j + L| over all lattice vectors L
    with integer coordinates of max-norm at most ``shells``; the L = 0 term
    is skipped on the diagonal.  Individual entries diverge as shells grow;
    only charge-balanced totals converge, which is what the trend tests use.
    """
    if shells < 0:
        raise EwaldError("shells must be non-negative")
    n = system.num_atoms
    z = system.atomic_numbers.astype(np.float64)
    lattice = _integer_shells(shells, drop_zero=False) * system.cell_edge if shells > 0 \
        else np.zeros((1, 3))
    nonzero = (lattice != 0.0).any(axis=1)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            d = system.positions[i] - system.positions[j]
            r = np.linalg.norm(d + lattice, axis=1)
            if i == j:
                r = r[nonzero]
            out[i, j] = out[j, i] = z[i] * z[j] * float((1.0 / r).sum()) if r.size else 0.0
    return out


def direct_total_energy(system: EwaldSystem, shells: int) -> float:
    """Half the full matrix sum of the direct oracle (self images counted once)."""
    return 0.5 * float(direct_sum_oracle(system, shells).sum())


def mean_reciprocal_rank(ranks: list[int]) -> float:
    """Average of 1/rank; ranks count from 1."""
    if not ranks:
        raise ValueError("need at least one rank")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks count from 1")
    return float(np.mean([1.0 / r for r in ranks]))


# ---------------------------------------------------------------------------
# Graph forms
# ---------------------------------------------------------------------------


class WeightedSlotMatrix:
    """``diag(diagonal)`` plus w at (u, v) and (v, u) for every edge (u, v) of
    weight w, as slots that carry one weight per entry: the form the unweighted
    S(A + I)S slots of ``SlotMatrix`` replaced, kept as their oracle.

    The off-diagonal entries are grouped by row and a row's k-th entry goes
    to slot k, so no row repeats within a slot and the product is the
    diagonal term plus ``out[rows] += w * x[cols]`` once per slot.
    """

    def __init__(self, diagonal: np.ndarray, edges: np.ndarray, edge_weights: np.ndarray):
        pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        w = np.asarray(edge_weights, dtype=np.float64)
        n = len(diagonal)
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
        self.diagonal = np.asarray(diagonal, dtype=np.float64)[:, None]
        self.slots = [(rows[a:b] if b - a < n else slice(None), cols[a:b], w[a:b])
                      for a, b in zip(ends - sizes, ends)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = self.diagonal * x
        for rows, cols, w in self.slots:
            term = x[cols]
            term *= w
            out[rows] += term
        return out


def param_leaves(params) -> list[Tensor]:
    """Every leaf of a parameter dataclass, in the order the model packs them."""
    return [t for _, t in named_leaves("", params)]


def head_block(attn: MultiHeadParams, role: int, m: int) -> tuple[slice, slice]:
    """The ``qkv`` columns of head m's W_q (role 0), W_k (role 1) or W_v (role 2)."""
    d = attn.qkv.shape[0]
    first = (role * attn.heads + m) * d
    return np.s_[:, first:first + d]


def head_weights(attn: MultiHeadParams) -> list[tuple[Tensor, Tensor, Tensor]]:
    """(W_q, W_k, W_v) of every head, as views of their columns of ``qkv``."""
    return [tuple(view(attn.qkv, head_block(attn, role, m)) for role in range(3))
            for m in range(attn.heads)]


def neural_atom_block(h_prev: Tensor, batch: GraphBatch,
                      gnn_layer: Callable[[Tensor, GraphBatch], Tensor],
                      params: NeuralAtomLayerParams) -> tuple[Tensor, NeuralAtomTrace]:
    """One full block on a batch, most often of one graph: message passing,
    then the three neural-atom steps, as the model runs them."""
    h = gnn_layer(h_prev, batch)
    return enhance_segments(h, batch.offsets, params)


def looped_projection(h_nodes: Tensor, params: NeuralAtomLayerParams,
                      offsets: np.ndarray) -> tuple[Tensor, Tensor]:
    """``project_to_neural_atoms`` with each head's two weight products built
    in a loop over the heads and stacked by ``concat_rows``: the form the
    one ``segment_pool`` per product replaced."""
    attn, k, d = params.project, params.num_atoms, params.queries.shape[1]
    queries = concat_rows([matmul(matmul(params.queries, wq), transpose(wk))
                           for wq, wk, _ in head_weights(attn)])
    weights = segment_attention(queries, h_nodes, offsets)
    pooled = segment_pool(weights, h_nodes, offsets, heads=attn.heads)
    mix = concat_rows([matmul(wv, view(attn.wo, np.s_[m * d:(m + 1) * d]))
                       for m, (_, _, wv) in enumerate(head_weights(attn))])
    stacked = gather_rows(params.queries, np.tile(np.arange(k), len(offsets) - 1)[:, None])
    atoms = layer_norm(add(stacked, matmul(pooled, mix)),
                       params.project_norm.gain, params.project_norm.bias)
    return atoms, weights


def contact_like_graph(rng, n, dim=4):
    """A tree that mostly grows chains, plus n // 12 tries at closing a 5-7 atom ring."""
    edges = [(int(rng.integers(i)) if rng.random() < 0.2 else i - 1, i) for i in range(1, n)]
    for _ in range(n // 12):
        u = int(rng.integers(n - 7))
        edges.append((u, u + int(rng.integers(4, 7))))
    return MolecularGraph(n, edges, rng.normal(size=(n, dim)), graph_label=0)


def permute_graph(graph: MolecularGraph, perm) -> MolecularGraph:
    """Relabel nodes so old node ``i`` becomes new node ``perm[i]``."""
    p = [int(i) for i in perm]
    if sorted(p) != list(range(graph.num_nodes)):
        raise GraphError(f"perm is not a bijection over {graph.num_nodes} nodes")
    feats = np.empty_like(graph.node_features)
    feats[p] = graph.node_features
    edges = [(p[u], p[v]) for u, v in graph.edges]
    pairs = None
    if graph.pair_labels is not None:
        pairs = [(p[u], p[v], hit) for u, v, hit in graph.pair_labels]
    label = graph.graph_label
    if isinstance(label, np.ndarray):
        label = label.copy()
    return MolecularGraph(graph.num_nodes, edges, feats, label, pairs)
