"""Unrooted binary trees on labeled leaves, with a canonical Newick form.

Leaves carry labels 0..n-1; internal node ids are arbitrary integers >= n.
Two topologies are equal iff they induce the same set of nontrivial leaf
splits, so internal numbering never matters for identity or hashing.

The canonical Newick string roots the tree at its unweighted center (one
node, or the midpoint of the central edge) and sorts children by the
smallest leaf label in their subtree.  That makes the string unique per
topology and stable across runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class TreeError(ValueError):
    """Raised for malformed trees or Newick input."""


class TreeTopology:
    """Immutable unrooted tree with all internal vertices of degree 3."""

    __slots__ = ("n", "_adj", "_splits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 3:
            raise TreeError("need at least 3 leaves")
        adj: dict[int, list[int]] = {}
        seen = set()
        for u, v in edges:
            if u == v:
                raise TreeError(f"self loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise TreeError(f"duplicate edge {key}")
            seen.add(key)
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        for leaf in range(n):
            if leaf not in adj:
                raise TreeError(f"leaf {leaf} missing from edge list")
            if len(adj[leaf]) != 1:
                raise TreeError(f"leaf {leaf} has degree {len(adj[leaf])}")
        if any(u < 0 for u in adj):
            raise TreeError("node ids must be nonnegative")
        internals = [u for u in adj if u >= n]
        for u in internals:
            if len(adj[u]) != 3:
                raise TreeError(f"internal node {u} has degree {len(adj[u])}")
        if len(seen) != len(adj) - 1:
            raise TreeError("edge count does not match a tree")
        self.n = n
        self._adj = {u: tuple(sorted(vs)) for u, vs in adj.items()}
        self._splits = self._compute_splits()

    # -- identity ----------------------------------------------------------

    def _compute_splits(self) -> frozenset:
        """Nontrivial splits in one post-order pass of the tree hung from leaf 0.

        The leaves below each node are the side of its parent edge without
        leaf 0.  The pass also checks that every node hangs from leaf 0.
        """
        parent = {0: None}
        order = [0]
        for u in order:  # breadth first: parents before their children
            for v in self._adj[u]:
                if v not in parent:
                    parent[v] = u
                    order.append(v)
        if len(order) != len(self._adj):
            raise TreeError("tree is not connected")
        below: dict = {}
        out = set()
        for u in reversed(order[1:]):
            if u < self.n:
                below[u] = frozenset((u,))
                continue
            side = below[u] = frozenset().union(
                *(below[v] for v in self._adj[u] if v != parent[u])
            )
            # two children put two leaves below; the edge at leaf 0 is trivial
            if len(side) <= self.n - 2:
                out.add(side)
        return frozenset(out)

    @property
    def splits(self) -> frozenset:
        """Nontrivial splits, each stored as the side not containing leaf 0."""
        return self._splits

    def __eq__(self, other):
        if not isinstance(other, TreeTopology):
            return NotImplemented
        return self.n == other.n and self._splits == other._splits

    def __hash__(self):
        return hash((self.n, self._splits))

    def __repr__(self):
        return f"TreeTopology({self.newick()!r})"

    # -- structure ---------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, vs in self._adj.items() for v in vs if u < v]

    def cherries(self) -> list[tuple[int, int]]:
        """Leaf pairs adjacent to a common internal node, sorted."""
        out = []
        for u, vs in self._adj.items():
            if u >= self.n:
                leaves = sorted(v for v in vs if v < self.n)
                out.extend(
                    (leaves[i], leaves[j])
                    for i in range(len(leaves))
                    for j in range(i + 1, len(leaves))
                )
        return sorted(out)

    # -- canonical Newick ----------------------------------------------------

    def _center(self) -> list[int]:
        remaining = {u: set(vs) for u, vs in self._adj.items()}
        alive = set(remaining)
        layer = [u for u in alive if len(remaining[u]) <= 1]
        while len(alive) > 2:
            nxt = []
            for u in layer:
                alive.discard(u)
                for v in remaining[u]:
                    remaining[v].discard(u)
                    if len(remaining[v]) == 1 and v in alive:
                        nxt.append(v)
                remaining[u].clear()
            layer = nxt
        return sorted(alive)

    def _render(self, node: int, parent: int, name) -> tuple[int, str]:
        if node < self.n:
            return node, name(node)
        parts = sorted(
            self._render(v, node, name) for v in self._adj[node] if v != parent
        )
        return parts[0][0], "(" + ",".join(p[1] for p in parts) + ")"

    def newick(self, names: Sequence[str] | None = None) -> str:
        """Canonical Newick string; names maps leaf index to label text."""
        if names is None:
            name = str
        else:
            if len(names) != self.n:
                raise TreeError("names must list one label per leaf")
            name = lambda i: str(names[i])
        center = self._center()
        if len(center) == 1:
            c = center[0]
            parts = sorted(self._render(v, c, name) for v in self._adj[c])
        else:
            u, v = center
            parts = sorted([self._render(u, v, name), self._render(v, u, name)])
        return "(" + ",".join(p[1] for p in parts) + ");"

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_trace(cls, n: int, merges) -> "TreeTopology":
        """Tree realized by a sequence of cluster joins, ending in a 3-star.

        merges lists pairs of leaf sets; each pair is replaced by their
        union.  After n-3 joins the three remaining clusters are attached
        to one final internal node.
        """
        node_of = {frozenset([i]): i for i in range(n)}
        edges = []
        nxt = n
        for a, b in merges:
            a, b = frozenset(a), frozenset(b)
            if a not in node_of or b not in node_of:
                raise TreeError(f"join of unknown clusters {set(a)}, {set(b)}")
            edges.append((node_of.pop(a), nxt))
            edges.append((node_of.pop(b), nxt))
            node_of[a | b] = nxt
            nxt += 1
        if len(node_of) != 3:
            raise TreeError(f"{len(merges)} joins leave {len(node_of)} clusters, expected 3")
        edges.extend((u, nxt) for u in node_of.values())
        return cls(n, edges)

    @classmethod
    def from_newick(cls, text: str, names: Sequence[str] | None = None) -> "TreeTopology":
        root = _parse_newick(text)
        labels: list[str] = []
        _collect_leaves(root, labels)
        if len(set(labels)) != len(labels):
            raise TreeError("duplicate leaf labels")
        n = len(labels)
        if names is not None:
            index = {str(nm): i for i, nm in enumerate(names)}
            if len(index) != len(names):
                raise TreeError("duplicate names")
            try:
                leaf_id = {lab: index[lab] for lab in labels}
            except KeyError as exc:
                raise TreeError(f"leaf {exc.args[0]!r} not among the given names") from exc
            if len(labels) != len(names):
                raise TreeError("tree does not cover all names")
        elif all(lab.lstrip("-").isdigit() for lab in labels):
            leaf_id = {lab: int(lab) for lab in labels}
            if sorted(leaf_id.values()) != list(range(n)):
                raise TreeError("integer leaf labels must be 0..n-1")
        else:
            leaf_id = {lab: i for i, lab in enumerate(sorted(labels))}

        edges = []
        counter = [n]

        def build(node) -> int:
            if isinstance(node, str):
                return leaf_id[node]
            me = counter[0]
            counter[0] += 1
            for child in node:
                edges.append((me, build(child)))
            return me

        build(root)
        # drop degree-2 vertices (the artificial root of a rooted file, and
        # any chains from redundant parentheses)
        adj: dict[int, set[int]] = {}
        for u, v in edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        changed = True
        while changed:
            changed = False
            for u in list(adj):
                if u >= n and len(adj[u]) == 2:
                    x, y = adj.pop(u)
                    adj[x].discard(u)
                    adj[y].discard(u)
                    adj[x].add(y)
                    adj[y].add(x)
                    changed = True
        flat = [(u, v) for u, vs in adj.items() for v in vs if u < v]
        return cls(n, flat)


def _collect_leaves(node, acc: list) -> None:
    if isinstance(node, str):
        acc.append(node)
    else:
        for child in node:
            _collect_leaves(child, acc)


def _parse_newick(text: str):
    """Parse one Newick statement into nested lists of leaf-label strings."""
    s = text.strip()
    if s.endswith(";"):
        s = s[:-1]
    pos = 0

    def skip_length():
        nonlocal pos
        if pos < len(s) and s[pos] == ":":
            pos += 1
            start = pos
            while pos < len(s) and s[pos] not in "(),;":
                pos += 1
            float(s[start:pos])  # must be a number

    def label() -> str:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos] not in "(),;:":
            pos += 1
        return s[start:pos].strip()

    def node():
        nonlocal pos
        if pos >= len(s):
            raise TreeError("unexpected end of Newick input")
        if s[pos] == "(":
            pos += 1
            children = [node()]
            while pos < len(s) and s[pos] == ",":
                pos += 1
                children.append(node())
            if pos >= len(s) or s[pos] != ")":
                raise TreeError("unbalanced parentheses")
            pos += 1
            label()  # internal names are ignored
            skip_length()
            if len(children) == 1:
                return children[0]
            return children
        lab = label()
        if not lab:
            raise TreeError(f"empty leaf label near position {pos}")
        skip_length()
        return lab

    out = node()
    if pos != len(s):
        raise TreeError(f"trailing characters after tree: {s[pos:]!r}")
    if isinstance(out, str):
        raise TreeError("a tree needs more than one leaf")
    return out


# ---------------------------------------------------------------------------
# Random trees and path metrics.


def random_topology(n: int, rng) -> TreeTopology:
    """Grow a random binary tree by attaching leaves to random edges."""
    if n < 3:
        raise TreeError("need at least 3 leaves")
    edges = [(0, n), (1, n), (2, n)]
    nxt = n + 1
    for leaf in range(3, n):
        u, v = edges.pop(int(rng.integers(len(edges))))
        edges.extend([(u, nxt), (v, nxt), (leaf, nxt)])
        nxt += 1
    return TreeTopology(n, edges)


def path_metric(n: int, edges, lengths) -> list:
    """Pairwise leaf distances along the tree; exact if lengths are exact.

    lengths maps (min(u,v), max(u,v)) to an edge length.
    """
    adj: dict[int, list[tuple[int, object]]] = {}
    for u, v in edges:
        w = lengths[(min(u, v), max(u, v))]
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    out = [None] * (n * (n - 1) // 2)
    for a in range(n):
        dist = {a: 0}
        stack = [a]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        for b in range(a):
            out[a * (a - 1) // 2 + b] = dist[b]
    return out
