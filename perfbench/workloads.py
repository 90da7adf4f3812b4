"""The benchmark's workloads and the seeded generators of their inputs.

Inputs are made here, apart from the program, and handed to it only as
JSON Lines files, so no change to the program can change what it is fed.
The same seed always gives the same files.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LRI_PATH_LEN = 20
LRI_COLORS = 4
CONTACT_ATOM_TYPES = 5
CONTACT_POSITIVES = 4      # labelled pairs at graph distance 2..3
CONTACT_NEGATIVES = 8      # labelled pairs at graph distance >= 6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs and its model."""

    name: str
    task: str
    backbone: str
    augment: str
    train_graphs: int
    heldout_graphs: int

    def make_graphs(self, count: int, rng: np.random.Generator) -> list[dict]:
        if self.task == "pair-contact":
            return [contact_graph(rng) for _ in range(count)]
        return lri_graphs(count, rng)


WORKLOADS = {w.name: w for w in (
    # The atom block, its attention and the segment tape ops do most of the
    # work; message passing is light on short sparse paths.
    Workload("lri-atoms", "graph-classification", "gcn", "neural-atoms",
             train_graphs=2000, heldout_graphs=500),
    # Same data and backbone; the per-graph virtual-node round does most of
    # the work and the atoms do none.
    Workload("lri-vnode", "graph-classification", "gcn", "virtual-node",
             train_graphs=2000, heldout_graphs=500),
    # Larger ragged graphs and a link-level head: message passing, batch
    # building and the pair head do the work, and neither augmentation runs.
    Workload("contact-gin", "pair-contact", "gin", "none",
             train_graphs=600, heldout_graphs=200),
)}


def lri_graphs(count: int, rng: np.random.Generator) -> list[dict]:
    """Path graphs labelled 1 iff their two endpoint colours match.

    Interior nodes carry only the constant "exists" channel, so the label
    depends on nodes 19 hops apart.  Exactly half of the graphs are positive.
    """
    labels = np.zeros(count, dtype=np.int64)
    labels[: count // 2] = 1
    rng.shuffle(labels)
    edges = [[i, i + 1] for i in range(LRI_PATH_LEN - 1)]
    records = []
    for label in labels:
        first = int(rng.integers(LRI_COLORS))
        last = first if label else (first + 1 + int(rng.integers(LRI_COLORS - 1))) % LRI_COLORS
        feats = np.zeros((LRI_PATH_LEN, LRI_COLORS + 1))
        feats[:, LRI_COLORS] = 1.0
        feats[0, first] = 1.0
        feats[-1, last] = 1.0
        records.append({"num_nodes": LRI_PATH_LEN, "edges": edges,
                        "node_feats": feats.tolist(), "graph_label": int(label)})
    return records


def _distances(adjacency: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def contact_graph(rng: np.random.Generator) -> dict:
    """A molecule-like graph with labelled contact pairs.

    A random tree that mostly grows chains, plus ring closures of five to
    seven atoms, with 40 to 160 nodes.  Node features are a one-hot atom
    type and a constant channel.  Positives are pairs two or three bonds
    apart, negatives are pairs six or more bonds apart.
    """
    n = int(rng.integers(40, 161))
    parent = [-1] * n
    for i in range(1, n):
        parent[i] = i - 1 if rng.random() < 0.7 else int(rng.integers(i))
    edges = {(parent[i], i) for i in range(1, n)}
    for _ in range(n // 12):
        tip = int(rng.integers(n))
        ancestor, steps = tip, int(rng.integers(4, 7))
        while steps and parent[ancestor] >= 0:
            ancestor, steps = parent[ancestor], steps - 1
        if steps == 0:
            edges.add((ancestor, tip))
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)

    positives: set[tuple[int, int]] = set()
    negatives: set[tuple[int, int]] = set()
    for _ in range(10 * n):
        u = int(rng.integers(n))
        dist = _distances(adjacency, u)
        near = [v for v in range(n) if 2 <= dist[v] <= 3]
        far = [v for v in range(n) if dist[v] >= 6]
        if near and len(positives) < CONTACT_POSITIVES:
            positives.add((u, near[int(rng.integers(len(near)))]))
        if far and len(negatives) < CONTACT_NEGATIVES:
            negatives.add((u, far[int(rng.integers(len(far)))]))
        if len(positives) == CONTACT_POSITIVES and len(negatives) == CONTACT_NEGATIVES:
            break
    else:
        raise RuntimeError(f"could not place the labelled pairs on a {n}-node graph")
    pairs = [[u, v, 1] for u, v in sorted(positives)] + [[u, v, 0] for u, v in sorted(negatives)]
    order = rng.permutation(len(pairs))

    feats = np.zeros((n, CONTACT_ATOM_TYPES + 1))
    feats[np.arange(n), rng.integers(CONTACT_ATOM_TYPES, size=n)] = 1.0
    feats[:, CONTACT_ATOM_TYPES] = 1.0
    return {"num_nodes": n, "edges": [list(e) for e in sorted(edges)],
            "node_feats": feats.tolist(), "pair_labels": [pairs[i] for i in order]}


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path, list]:
    """Write the training and held-out JSONL files for one seed.

    Returns both paths and the held-out labels as generated: an int class
    per graph, or an array of 0/1 pair flags per graph.
    """
    paths, heldout_labels = [], []
    for split, count in (("train", workload.train_graphs), ("heldout", workload.heldout_graphs)):
        records = workload.make_graphs(count, np.random.default_rng([seed, len(paths)]))
        path = directory / f"{split}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        paths.append(path)
    for record in records:
        if "pair_labels" in record:
            heldout_labels.append(np.array([hit for _, _, hit in record["pair_labels"]]))
        else:
            heldout_labels.append(record["graph_label"])
    return paths[0], paths[1], heldout_labels
