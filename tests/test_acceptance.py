"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``, and in the failure report otherwise).  The synthetic-task
criteria share one module-scoped fixture that trains the three model
variants at the reference budget, so expect this file to take a few
minutes; everything else is seconds.
"""

import time

import numpy as np
import pytest

from neural_atoms.autodiff import (
    Tensor,
    backward,
)
from neural_atoms.ewald import (
    EwaldSystem,
    ewald_sum_matrix,
)
from neural_atoms.gnn import GcnLayerParams, gcn_forward
from neural_atoms.graphs import MolecularGraph, batch_graphs, generate_lri_task, save_dataset
from neural_atoms.model import TrainConfig, compute_k_schedule
from neural_atoms.neural_atom import (
    NeuralAtomLayerParams,
    project_to_neural_atoms,
)
from neural_atoms.training import evaluate, load_checkpoint, train
from helpers import (direct_total_energy, grad_check, interaction_energy, lattice_energy,
                     mean_reciprocal_rank, mul, neural_atom_block, param_leaves, permute_graph,
                     rows, sum_all)


def report(num, passed, detail):
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num}: {detail}"


def random_graph(rng, n, dim):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    if not edges:
        edges = [(0, 1)]
    return MolecularGraph(n, edges, rng.normal(size=(n, dim)), graph_label=0)


def test_criterion_01_block_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    dim = 8
    g = random_graph(rng, 6, dim)
    params = NeuralAtomLayerParams.init(3, dim, 2, rng)
    gcn = GcnLayerParams.init(dim, dim, rng)
    x = Tensor(g.node_features, requires_grad=True)
    probe = Tensor(rng.normal(size=(6, dim)))
    batch = batch_graphs([g])

    def f():
        enhanced, _ = neural_atom_block(x, batch, lambda t, gr: gcn_forward(t, gr, gcn), params)
        return sum_all(mul(enhanced, probe))

    start = time.monotonic()
    worst = grad_check(f, param_leaves(params) + [gcn.weight, x], eps=1e-5)
    wall = time.monotonic() - start
    report(1, worst < 1e-4 and wall < 10.0,
           f"max rel err {worst:.3g}, {wall:.1f}s")


def test_criterion_02_allocations_are_row_stochastic():
    rng = np.random.default_rng(1)
    dim = 8
    worst = 0.0
    params = None
    for trial in range(1000):
        if trial % 25 == 0:
            params = NeuralAtomLayerParams.init(3, dim, 2, rng)
        n = int(rng.integers(2, 17))
        h = Tensor(rng.normal(scale=2.0, size=(n, dim)))
        _, weights = project_to_neural_atoms(h, params, [0, n])     # every head's rows
        worst = max(worst, float(np.abs(weights.data.sum(axis=1) - 1.0).max()))
    report(2, worst < 1e-10, f"worst row-sum deviation {worst:.3g} over 1000 inputs")


def test_criterion_03_permutation_equivariance_and_atom_invariance():
    rng = np.random.default_rng(2)
    dim = 6
    worst_nodes = worst_atoms = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        g = random_graph(rng, n, dim)
        params = NeuralAtomLayerParams.init(3, dim, 2, rng)
        gcn = GcnLayerParams.init(dim, dim, rng)
        layer = lambda t, gr: gcn_forward(t, gr, gcn)
        base, trace = neural_atom_block(Tensor(g.node_features), batch_graphs([g]), layer, params)
        perm = rng.permutation(n)
        pg = permute_graph(g, perm)
        moved, trace_p = neural_atom_block(Tensor(pg.node_features), batch_graphs([pg]), layer,
                                           params)
        worst_nodes = max(worst_nodes, float(np.abs(moved.data[perm] - base.data).max()))
        worst_atoms = max(worst_atoms,
                          float(np.abs(trace_p.atom_states - trace.atom_states).max()),
                          float(np.abs(trace_p.exchanged_states - trace.exchanged_states).max()))
    report(3, worst_nodes < 1e-10 and worst_atoms < 1e-10,
           f"node equivariance {worst_nodes:.3g}, atom invariance {worst_atoms:.3g}")


def test_criterion_04_one_block_couples_path_endpoints():
    rng = np.random.default_rng(3)
    dim = 4
    edges = [(i, i + 1) for i in range(5)]
    g = MolecularGraph(6, edges, rng.normal(size=(6, dim)), graph_label=0)
    params = NeuralAtomLayerParams.init(3, dim, 2, rng)
    gcn = GcnLayerParams.init(dim, dim, rng)
    pick = np.zeros((1, dim))
    pick[0, 0] = 1.0
    batch = batch_graphs([g])

    x = Tensor(g.node_features, requires_grad=True)
    enhanced, _ = neural_atom_block(x, batch, lambda t, gr: gcn_forward(t, gr, gcn), params)
    backward(sum_all(mul(rows(enhanced, 5, 6), Tensor(pick))))
    atom_reach = float(np.abs(x.grad[0]).max())

    y = Tensor(g.node_features, requires_grad=True)
    backward(sum_all(mul(rows(gcn_forward(y, batch, gcn), 5, 6), Tensor(pick))))
    plain_reach = float(np.abs(y.grad[0]).max())

    report(4, atom_reach > 1e-8 and plain_reach == 0.0,
           f"d node5 / d node0: {atom_reach:.3g} with atoms, {plain_reach} plain")


def test_criterion_05_k_schedule_matches_published_configuration():
    counts = compute_k_schedule("fixed", 0.15, 150.94, 5)
    report(5, counts == [22] * 5, f"fixed schedule {counts}")


def test_criterion_06_ewald_splitting_invariance_and_direct_sum_trend():
    # Charges +1,+1,-1,-1 at r1, r2, r1+w, r2-w: balanced and dipole-free, so
    # the cube-truncated direct sum converges to the Ewald energy instead of
    # to it plus a shape-dependent surface term.
    start = time.monotonic()
    rng = np.random.default_rng(4)
    r1 = rng.uniform(0.05, 0.65, 3)
    r2 = rng.uniform(0.35, 0.65, 3)
    w = rng.uniform(0.05, 0.3, 3)
    base = dict(atomic_numbers=np.array([1, 1, -1, -1]),
                positions=np.array([r1, r2, r1 + w, r2 - w]),
                cell_edge=1.0, real_cutoff=12, recip_cutoff=10)
    narrow_system = EwaldSystem(splitting=0.3, **base)
    e_narrow = interaction_energy(ewald_sum_matrix(narrow_system))
    e_wide = interaction_energy(ewald_sum_matrix(EwaldSystem(splitting=0.5, **base)))
    rel = abs(e_narrow - e_wide) / abs(e_narrow)

    target = lattice_energy(narrow_system)
    gaps = [abs(direct_total_energy(narrow_system, shells) - target)
            for shells in (1, 2, 4, 8)]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    wall = time.monotonic() - start
    report(6, rel < 1e-4 and monotone and wall < 30.0,
           f"energy rel diff {rel:.3g}, direct-sum gaps {[f'{g:.2e}' for g in gaps]}, {wall:.1f}s")


# --- synthetic long-range task at the reference budget ----------------------


REFERENCE = dict(backbone="gcn", layers=3, hidden=32, heads=2,
                 k_strategy="fixed", proportion=0.2, virtual_nodes=1,
                 epochs=50, lr=0.02, batch=64, seed=0)


@pytest.fixture(scope="module")
def synthetic_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("lri")
    train_path, test_path = root / "train.jsonl", root / "test.jsonl"
    save_dataset(generate_lri_task(2000, 20, 4, seed=0), train_path)
    test_graphs = generate_lri_task(500, 20, 4, seed=1)
    save_dataset(test_graphs, test_path)

    runs = {}
    for augment in ("none", "neural-atoms", "virtual-node"):
        cfg = TrainConfig(dataset=str(train_path), out=str(root / augment),
                          augment=augment, **REFERENCE)
        start = time.monotonic()
        model, _ = train(cfg)
        wall = time.monotonic() - start
        runs[augment] = (evaluate(model, test_graphs)["accuracy"], wall)
    return runs


def test_criterion_07_atoms_solve_the_task_plain_gcn_cannot(synthetic_runs):
    plain_acc, plain_wall = synthetic_runs["none"]
    atom_acc, atom_wall = synthetic_runs["neural-atoms"]
    wall = plain_wall + atom_wall
    report(7, plain_acc <= 0.60 and atom_acc >= 0.90 and wall < 300.0,
           f"plain {plain_acc:.3f}, with atoms {atom_acc:.3f}, {wall:.0f}s")


def test_criterion_08_atoms_keep_pace_with_virtual_node(synthetic_runs):
    atom_acc = synthetic_runs["neural-atoms"][0]
    vnode_acc = synthetic_runs["virtual-node"][0]
    report(8, atom_acc >= vnode_acc - 0.02,
           f"atoms {atom_acc:.3f} vs virtual node {vnode_acc:.3f}")


def test_criterion_09_runs_are_deterministic_and_checkpoints_exact(tmp_path):
    data_path = tmp_path / "tiny.jsonl"
    save_dataset(generate_lri_task(24, 6, 3, seed=5), data_path)
    metrics = []
    for name in ("first", "second"):
        cfg = TrainConfig(dataset=str(data_path), out=str(tmp_path / name),
                          augment="neural-atoms", layers=2, hidden=8, heads=2,
                          proportion=0.5, epochs=2, batch=8, seed=7)
        model, ckpt_path = train(cfg)
        metrics.append((tmp_path / name / "metrics.csv").read_bytes())
    identical = metrics[0] == metrics[1]

    graphs = generate_lri_task(24, 6, 3, seed=5)
    before = evaluate(model, graphs)
    reloaded, _ = load_checkpoint(ckpt_path)
    after = evaluate(reloaded, graphs)
    report(9, identical and before == after,
           f"byte-identical CSVs: {identical}; metrics drift: "
           f"{ {k: after[k] - before[k] for k in before} }")


def test_criterion_10_reciprocal_rank_unit_values():
    partial = mean_reciprocal_rank([1, 2, 4])
    perfect = mean_reciprocal_rank([1, 1, 1])
    report(10, abs(partial - 7.0 / 12.0) < 1e-9 and perfect == 1.0,
           f"[1,2,4] -> {partial!r}, all ones -> {perfect!r}")
