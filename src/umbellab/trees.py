"""Finite rooted trees and their path metric.

Two tree codings are supported: binary trees, whose vertices are tuples of
signs in {-1, +1}, and increasing trees, whose vertices are strictly
increasing tuples of labels drawn from {1..b}.  The empty tuple is the root
and the tree metric is the usual path metric.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import TableSpace, _fields

Vertex = tuple

BINARY = "binary"
INCREASING = "increasing"

VERTEX_CAP = 200_000  # the most vertices a tree is built with


class TreeSpecError(ValueError):
    pass


@dataclass(frozen=True)
class TreeSpec:
    """A finite rooted tree: binary or increasing-tuple coding."""

    kind: str
    height: int
    branching: int | None = None

    def __post_init__(self):
        if self.kind not in (BINARY, INCREASING):
            raise TreeSpecError(f"unknown tree kind {self.kind!r}")
        if self.height < 0:
            raise TreeSpecError("height must be nonnegative")
        if self.kind == INCREASING:
            if self.branching is None:
                raise TreeSpecError("increasing trees need a branching bound b")
            if self.branching < self.height:
                raise TreeSpecError(
                    f"b={self.branching} < h={self.height}: no full-height vertex exists"
                )
        elif self.branching is not None:
            raise TreeSpecError("binary trees take no branching bound")

    def vertex_count(self) -> int:
        if self.kind == BINARY:
            return 2 ** (self.height + 1) - 1
        return sum(math.comb(self.branching, l) for l in range(self.height + 1))


def parse_tree_spec(text: str) -> TreeSpec:
    """Parse compact descriptors "bin:h=4" and "inc:h=8,b=10"."""
    head, fields = _fields(text, {"bin": "h", "inc": "h b"}, TreeSpecError)
    try:
        if head == "bin":
            return TreeSpec(BINARY, int(fields["h"]))
        return TreeSpec(INCREASING, int(fields["h"]), int(fields["b"]))
    except (ValueError, KeyError) as exc:
        raise TreeSpecError(f"bad tree descriptor {text!r}") from exc


def format_tree_spec(spec: TreeSpec) -> str:
    if spec.kind == BINARY:
        return f"bin:h={spec.height}"
    return f"inc:h={spec.height},b={spec.branching}"


def _check_size(spec: TreeSpec) -> None:
    """Raise TreeSpecError when the tree has more than VERTEX_CAP vertices.
    The level sizes are added until they pass the cap, so a huge tree costs
    a few terms, not its whole count."""
    count = 0
    for level in range(spec.height + 1):
        count += (2 ** level if spec.kind == BINARY
                  else math.comb(spec.branching, level))
        if count > VERTEX_CAP:
            raise TreeSpecError(f"{format_tree_spec(spec)} has more than "
                                f"{VERTEX_CAP} vertices")


def vertices_at_height(spec: TreeSpec, h: int) -> list[Vertex]:
    """All vertices of exact height h, in lexicographic order.  Trees past
    the vertex cap are refused."""
    if h < 0 or h > spec.height:
        raise TreeSpecError(f"height {h} out of range")
    _check_size(spec)
    if spec.kind == BINARY:
        return list(itertools.product((-1, 1), repeat=h))
    return list(itertools.combinations(range(1, spec.branching + 1), h))


def vertices(spec: TreeSpec) -> list[Vertex]:
    """All vertices ordered by height, then lexicographically."""
    out: list[Vertex] = []
    for h in range(spec.height + 1):
        out.extend(vertices_at_height(spec, h))
    return out


# ---------------------------------------------------------------------------
# Binary -> increasing tree morphism


def binary_to_increasing(k: int, J: Callable[[Vertex, Vertex], int]) -> dict[Vertex, Vertex]:
    """Height- and extension-preserving morphism of the binary tree of height k
    into the increasing-tuple tree, driven by a threshold function J on
    extension pairs of the image tree.

    At each node the +1 subtree receives the smallest available label, and the
    -1 subtree receives the label j0 = max over queried thresholds, clamped
    below by start + 1 so tuples stay strictly increasing and the two children
    of a node never share a label.
    """
    if k < 0:
        raise TreeSpecError("k must be nonnegative")
    _check_size(TreeSpec(BINARY, k))

    def rec(height: int, prefix_img: Vertex, start: int) -> dict[Vertex, Vertex]:
        out: dict[Vertex, Vertex] = {(): ()}
        if height == 0:
            return out
        plus = rec(height - 1, prefix_img + (start,), start + 1)
        j0 = start + 1
        for suffix in plus.values():
            j0 = max(j0, J(prefix_img, prefix_img + (start,) + suffix))
        minus = rec(height - 1, prefix_img + (j0,), j0 + 1)
        for eps, img in plus.items():
            out[(1,) + eps] = (start,) + img
        for eps, img in minus.items():
            out[(-1,) + eps] = (j0,) + img
        return out

    return rec(k, (), 1)


def check_star_property(k: int, J: Callable[[Vertex, Vertex], int],
                        phi: dict[Vertex, Vertex]) -> bool:
    """Exhaustively verify the branching property of a binary->increasing
    morphism: heights and extensions are preserved, all -1-side children under
    a node share one label j', and j' dominates every queried threshold."""
    for eps, img in phi.items():
        if len(img) != len(eps):
            return False
        if eps and phi[eps[:-1]] != img[:-1]:
            return False
    for eps in phi:
        if len(eps) >= k:
            continue
        # the first loop made every -1-side descendant extend this label
        j_prime = phi[eps + (-1,)][len(eps)]
        if j_prime == phi[eps + (1,)][len(eps)]:
            return False
        for delta in vertices(TreeSpec(BINARY, k - len(eps) - 1)):
            if j_prime < J(phi[eps], phi[eps + (1,) + delta]):
                return False
    return True


# ---------------------------------------------------------------------------
# Graph spaces


class TreeGraph(TableSpace):
    """A tree in its path metric, with its vertices listed by height; points
    are vertex indices.

    n is the spec's vertex count.  depth[i] is the height of vertex i,
    parent[i] the index of its parent (0 at the root), anc[i, l] the index
    of its length-l prefix (for l <= depth[i]) and label[i] its last label
    (0 at the root); the edge list is derived from them on request.
    Distances are depth(u) + depth(v) - 2 lcp(u, v), so no table is built.
    The arrays, the vertex tuples and their index are built on first read
    only, by the paths that read vertices, so a graph that only stands for
    its spec (the identity map's target) builds none of them.  They and
    `plans`, which holds what is compiled over this tree, live exactly as
    long as tree_graph's cache entry."""

    quasi_constant = 1.0

    def __init__(self, spec: TreeSpec):
        self.spec, self.n, self.plans = spec, spec.vertex_count(), {}

    @functools.cached_property
    def _levels(self) -> tuple:
        return _level_arrays(self.spec)

    @functools.cached_property
    def depth(self) -> np.ndarray:
        return self._levels[0]

    @functools.cached_property
    def parent(self) -> np.ndarray:
        return self._levels[1]

    @functools.cached_property
    def label(self) -> np.ndarray:
        return self._levels[2]

    @functools.cached_property
    def anc(self) -> np.ndarray:
        return _ancestors(self.depth, self.parent)

    @functools.cached_property
    def vertices(self) -> list[Vertex]:
        """The vertex tuples in vertex order: trees.vertices(spec)."""
        return vertices(self.spec)

    @functools.cached_property
    def index(self) -> dict[Vertex, int]:
        """The vertex-order index of every vertex tuple."""
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def edges(self) -> tuple:
        """The (parent, child) index pairs, by child."""
        return tuple(zip(self.parent[1:].tolist(), range(1, self.n)))

    def describe(self) -> str:
        return f"graph:n={self.n}"

    def lcp(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Common prefix lengths of the vertices u and v (index arrays,
        broadcast against each other): the levels at which their ancestors
        agree, an ancestor index being 0 only at the root level."""
        out = np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)), dtype=np.intp)
        for level in range(1, self.anc.shape[1]):
            column = self.anc[:, level]  # a 1-d gather beats anc[u, level]
            au = column[u]
            out += (au == column[v]) & (au != 0)
        return out

    def distance_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Tree distances of index arrays a and b, broadcast against each
        other."""
        return (self.depth[a] + self.depth[b] - 2 * self.lcp(a, b)).astype(float)


@functools.lru_cache(maxsize=64)
def tree_graph(spec: TreeSpec) -> TreeGraph:
    """The tree itself as a TreeGraph.  Trees past the vertex cap are
    refused before anything is allocated."""
    _check_size(spec)
    return TreeGraph(spec)


def _level_arrays(spec: TreeSpec):
    """(depth, parent, label) of the vertices in vertex order, built level by
    level, the root its own parent: the children of a level come in their
    parents' order, (-1, +1) under a binary vertex and last + 1 .. b under an
    increasing vertex whose last label is `last`."""
    parent, label = [np.zeros(1, dtype=np.intp)], [np.zeros(1, dtype=np.intp)]
    first = 0  # the index of the parent level's first vertex
    for _ in range(spec.height):
        last = label[-1]
        if spec.kind == BINARY:
            counts = np.full(len(last), 2)
            children = np.tile([-1, 1], len(last))
        else:
            counts = spec.branching - last
            # a ragged arange: run i counts up from last[i] + 1
            starts = np.cumsum(counts) - counts
            children = np.arange(counts.sum()) - np.repeat(starts - last - 1, counts)
        parent.append(np.repeat(np.arange(first, first + len(last)), counts))
        label.append(children)
        first += len(last)
    depth = np.repeat(np.arange(len(label)), [len(level) for level in label])
    return depth, np.concatenate(parent), np.concatenate(label)


def _ancestors(depth: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """anc[i, l]: index of the length-l prefix of vertex i, for l <= depth(i),
    of a tree whose vertices are listed by height with parent[i] the index
    of the parent of vertex i."""
    height = int(depth.max())
    anc = np.zeros((len(depth), height + 1), dtype=np.intp)
    starts = np.searchsorted(depth, np.arange(height + 2)).tolist()
    for level in range(1, height + 1):
        lo, hi = starts[level], starts[level + 1]  # the level's vertices
        anc[lo:hi, :level] = anc[parent[lo:hi], :level]
        anc[lo:hi, level] = np.arange(lo, hi)
    return anc
