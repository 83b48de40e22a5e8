"""Connected multigraphs, their automorphisms, and fundamental-group data.

Each edge stores one fixed orientation; an automorphism carries an explicit
per-edge reversal flag instead of doubling the edge set.  A non-loop edge may
never map to itself reversed; loops may.  Spanning trees are chosen by a
deterministic breadth-first search with edge-id tie-breaking, so canonical
generators are reproducible; custom bases are reached through
``endos.change_basis``, never by special-casing tree selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .endos import Endomorphism, is_basis
from .words import Word, reduce as reduce_word


@dataclass(frozen=True, slots=True)
class Graph:
    """Vertices by id and oriented edges (id, source, target); loops and
    parallel edges allowed.  Must be connected."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    ends: dict[str, tuple[str, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        ends: dict[str, tuple[str, str]] = {}
        for name, src, dst in self.edges:
            if name in ends:
                raise ValueError(f"duplicate edge id {name!r}")
            if src not in vset or dst not in vset:
                raise ValueError(f"edge {name!r} has missing endpoint")
            ends[name] = (src, dst)
        object.__setattr__(self, "ends", ends)
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        if not self.vertices:
            return False
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for _, src, dst in self.edges:
            adj[src].add(dst)
            adj[dst].add(src)
        seen = {self.vertices[0]}
        queue = [self.vertices[0]]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)

    def endpoints(self, edge_id: str) -> tuple[str, str]:
        return self.ends[edge_id]

    def rank(self) -> int:
        """First Betti number |E| - |V| + 1."""
        return len(self.edges) - len(self.vertices) + 1


@dataclass(frozen=True, slots=True)
class EdgeStep:
    edge: str
    forward: bool

    def reversed(self) -> "EdgeStep":
        return EdgeStep(self.edge, not self.forward)


@dataclass(frozen=True, slots=True)
class EdgePath:
    """A walk: consecutive traversals share endpoints."""

    graph: Graph
    start: str
    steps: tuple[EdgeStep, ...]

    def __post_init__(self) -> None:
        self._walk()

    def _walk(self) -> str:
        at = self.start
        if at not in self.graph.vertices:
            raise ValueError(f"unknown start vertex {self.start!r}")
        index = self.graph.ends
        for step in self.steps:
            if step.edge not in index:
                raise ValueError(f"unknown edge {step.edge!r}")
            src, dst = index[step.edge]
            frm, to = (src, dst) if step.forward else (dst, src)
            if frm != at:
                raise ValueError(
                    f"step over {step.edge!r} starts at {frm!r}, path is at {at!r}"
                )
            at = to
        return at

    @property
    def end(self) -> str:
        return self._walk()

    def reversed(self) -> "EdgePath":
        return EdgePath(
            self.graph, self.end, tuple(s.reversed() for s in reversed(self.steps))
        )

    def __add__(self, other: "EdgePath") -> "EdgePath":
        if self.graph != other.graph:
            raise ValueError("paths on different graphs")
        if self.end != other.start:
            raise ValueError("paths do not concatenate")
        return EdgePath(self.graph, self.start, self.steps + other.steps)


def path_from_ids(graph: Graph, start: str, atoms: Iterable[tuple[str, bool]]) -> EdgePath:
    return EdgePath(graph, start, tuple(EdgeStep(e, f) for e, f in atoms))


class GraphAut:
    """A graph automorphism: vertex permutation plus edge permutation with
    orientation flags."""

    def __init__(
        self,
        graph: Graph,
        vertex_map: Mapping[str, str],
        edge_map: Mapping[str, tuple[str, bool]],
    ) -> None:
        self.graph = graph
        self.vertex_map = dict(vertex_map)
        self.edge_map = {e: (t, bool(r)) for e, (t, r) in edge_map.items()}
        self._validate()

    def _validate(self) -> None:
        g = self.graph
        if set(self.vertex_map) != set(g.vertices) or set(
            self.vertex_map.values()
        ) != set(g.vertices):
            raise ValueError("vertex map is not a permutation of the vertices")
        ids = {name for name, _, _ in g.edges}
        if set(self.edge_map) != ids or {t for t, _ in self.edge_map.values()} != ids:
            raise ValueError("edge map is not a permutation of the edges")
        index = g.ends
        for e, (target, rev) in self.edge_map.items():
            src, dst = index[e]
            tsrc, tdst = index[target]
            want = (tdst, tsrc) if rev else (tsrc, tdst)
            if (self.vertex_map[src], self.vertex_map[dst]) != want:
                raise ValueError(f"edge {e!r} image is incompatible with incidence")
            if target == e and rev and src != dst:
                raise ValueError(
                    f"non-loop edge {e!r} maps to itself reversed (inversion)"
                )

    @staticmethod
    def identity(graph: Graph) -> "GraphAut":
        return GraphAut(
            graph,
            {v: v for v in graph.vertices},
            {name: (name, False) for name, _, _ in graph.edges},
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GraphAut)
            and self.graph == other.graph
            and self.vertex_map == other.vertex_map
            and self.edge_map == other.edge_map
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.graph,
                tuple(sorted(self.vertex_map.items())),
                tuple(sorted(self.edge_map.items())),
            )
        )

    def compose(self, other: "GraphAut") -> "GraphAut":
        """(self . other): apply ``other`` first."""
        if self.graph != other.graph:
            raise ValueError("automorphisms of different graphs")
        vmap = {v: self.vertex_map[other.vertex_map[v]] for v in self.graph.vertices}
        emap: dict[str, tuple[str, bool]] = {}
        for e, (mid, r1) in other.edge_map.items():
            target, r2 = self.edge_map[mid]
            emap[e] = (target, r1 != r2)
        return GraphAut(self.graph, vmap, emap)

    def __mul__(self, other: "GraphAut") -> "GraphAut":
        return self.compose(other)

    def __pow__(self, n: int) -> "GraphAut":
        if n < 0:
            return self.inverse() ** (-n)
        out = GraphAut.identity(self.graph)
        for _ in range(n):
            out = out.compose(self)
        return out

    def inverse(self) -> "GraphAut":
        vmap = {w: v for v, w in self.vertex_map.items()}
        emap = {t: (e, r) for e, (t, r) in self.edge_map.items()}
        return GraphAut(self.graph, vmap, emap)

    def is_identity(self) -> bool:
        return self == GraphAut.identity(self.graph)

    def apply_path(self, path: EdgePath) -> EdgePath:
        steps = []
        for step in path.steps:
            target, rev = self.edge_map[step.edge]
            steps.append(EdgeStep(target, step.forward != rev))
        return EdgePath(self.graph, self.vertex_map[path.start], tuple(steps))

    def __repr__(self) -> str:
        moved = {e: t for e, t in self.edge_map.items() if t != (e, False)}
        return f"GraphAut({moved})"


class Pi1Presentation:
    """Basepoint, BFS spanning tree, and the canonical free basis indexed by
    the non-tree edges in id order."""

    def __init__(self, graph: Graph, basepoint: str) -> None:
        if basepoint not in graph.vertices:
            raise ValueError(f"unknown basepoint {basepoint!r}")
        self.graph = graph
        self.basepoint = basepoint
        self._parent: dict[str, EdgeStep] = {}
        self.tree_edges: frozenset[str] = self._build_tree()
        self.generators: tuple[str, ...] = tuple(
            sorted(name for name, _, _ in graph.edges if name not in self.tree_edges)
        )
        self.rank = graph.rank()
        assert len(self.generators) == self.rank
        self._gen_index = {e: i for i, e in enumerate(self.generators)}

    def _build_tree(self) -> frozenset[str]:
        g = self.graph
        steps_at: dict[str, list[tuple[str, EdgeStep, str]]] = {
            v: [] for v in g.vertices
        }
        for name, src, dst in g.edges:
            steps_at[src].append((name, EdgeStep(name, True), dst))
            if src != dst:
                steps_at[dst].append((name, EdgeStep(name, False), src))
        for v in steps_at:
            steps_at[v].sort(key=lambda item: (item[0], not item[1].forward))
        visited = {self.basepoint}
        queue = [self.basepoint]
        tree: set[str] = set()
        while queue:
            v = queue.pop(0)
            for name, step, other in steps_at[v]:
                if other not in visited:
                    visited.add(other)
                    tree.add(name)
                    self._parent[other] = step
                    queue.append(other)
        return frozenset(tree)

    def tree_path_from_base(self, v: str) -> EdgePath:
        steps: list[EdgeStep] = []
        while v != self.basepoint:
            step = self._parent[v]
            steps.append(step)
            src, dst = self.graph.endpoints(step.edge)
            v = src if step.forward else dst
        return EdgePath(self.graph, self.basepoint, tuple(reversed(steps)))

    def generator_loop(self, edge_id: str) -> EdgePath:
        """The canonical loop: tree path to the edge, the edge, tree path back."""
        if edge_id not in self._gen_index:
            raise ValueError(f"{edge_id!r} is not a canonical generator edge")
        src, dst = self.graph.endpoints(edge_id)
        out = self.tree_path_from_base(src)
        out = out + EdgePath(self.graph, src, (EdgeStep(edge_id, True),))
        return out + self.tree_path_from_base(dst).reversed()

    def path_to_word(self, path: EdgePath) -> Word:
        """Express a basepoint loop in the canonical generators.

        Collapsing the spanning tree sends tree edges to the basepoint, so a
        loop reads off the signed sequence of non-tree edges it crosses;
        backtracks vanish under free reduction.
        """
        if path.graph != self.graph:
            raise ValueError("path on a different graph")
        if path.start != self.basepoint or path.end != self.basepoint:
            raise ValueError("path must start and end at the basepoint")
        letters: list[int] = []
        for step in path.steps:
            idx = self._gen_index.get(step.edge)
            if idx is None:
                continue
            letters.append(idx + 1 if step.forward else -(idx + 1))
        return reduce_word(letters, self.rank)


def presentation(graph: Graph, basepoint: str) -> Pi1Presentation:
    return Pi1Presentation(graph, basepoint)


def induced_endo(pres: Pi1Presentation, aut: GraphAut) -> Endomorphism:
    """Action of a basepoint-fixing automorphism on the canonical basis."""
    if aut.graph != pres.graph:
        raise ValueError("automorphism of a different graph")
    base = pres.basepoint
    if aut.vertex_map[base] != base:
        raise ValueError(f"automorphism moves the basepoint {base!r}")
    images = [
        pres.path_to_word(aut.apply_path(pres.generator_loop(e)))
        for e in pres.generators
    ]
    out = Endomorphism(pres.rank, tuple(images))
    if not is_basis(out.images):
        raise AssertionError("graph automorphism induced a non-basis image tuple")
    return out


def induced_out_rep(
    pres: Pi1Presentation, aut: GraphAut, delta: EdgePath
) -> Endomorphism:
    """Outer representative gamma -> delta . aut(gamma) . delta^-1, for a
    connecting path delta from the basepoint to its image."""
    if aut.graph != pres.graph:
        raise ValueError("automorphism of a different graph")
    if delta.start != pres.basepoint:
        raise ValueError("delta must start at the basepoint")
    if delta.end != aut.vertex_map[pres.basepoint]:
        raise ValueError("delta must end at the image of the basepoint")
    back = delta.reversed()
    images = [
        pres.path_to_word(delta + aut.apply_path(pres.generator_loop(e)) + back)
        for e in pres.generators
    ]
    out = Endomorphism(pres.rank, tuple(images))
    if not is_basis(out.images):
        raise AssertionError("outer representative is not an automorphism")
    return out


def collapse_forest(
    graph: Graph, forest: Iterable[str], aut: GraphAut
) -> tuple[Graph, GraphAut]:
    """Contract an invariant forest; homotopy type, hence rank, is preserved."""
    forest_ids = set(forest)
    index = graph.ends
    for e in forest_ids:
        if e not in index:
            raise ValueError(f"unknown edge {e!r} in forest")
    image_ids = {aut.edge_map[e][0] for e in forest_ids}
    if image_ids != forest_ids:
        raise ValueError("forest is not invariant under the automorphism")

    root: dict[str, str] = {v: v for v in graph.vertices}

    def find(v: str) -> str:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in sorted(forest_ids):
        src, dst = index[e]
        a, b = find(src), find(dst)
        if a == b:
            raise ValueError(f"forest contains a cycle through edge {e!r}")
        # Canonical component name: the smaller vertex id survives.
        keep, drop = (a, b) if a <= b else (b, a)
        root[drop] = keep

    new_vertices = tuple(sorted({find(v) for v in graph.vertices}))
    new_edges = tuple(
        (name, find(src), find(dst))
        for name, src, dst in graph.edges
        if name not in forest_ids
    )
    collapsed = Graph(new_vertices, new_edges)

    vmap = {find(v): find(aut.vertex_map[v]) for v in graph.vertices}
    emap = {e: aut.edge_map[e] for e in aut.edge_map if e not in forest_ids}
    collapsed_aut = GraphAut(collapsed, vmap, emap)
    assert collapsed.rank() == graph.rank()
    return collapsed, collapsed_aut


# --- constructors for the recurring graph families --------------------------


def rose(n: int) -> Graph:
    """One vertex with n loops s1..sn."""
    if n < 1:
        raise ValueError("need at least one petal")
    return Graph(("v0",), tuple((f"s{i}", "v0", "v0") for i in range(1, n + 1)))


def hairy(n: int) -> Graph:
    """Two vertices joined by n parallel edges s1..sn."""
    if n < 1:
        raise ValueError("need at least one edge")
    return Graph(("v0", "v1"), tuple((f"s{i}", "v0", "v1") for i in range(1, n + 1)))


def ring(r: int, m: int) -> Graph:
    """An r-cycle of vertices with m-1 loops at each vertex.

    Cycle edges s1..sr with s_i from v_{i-1} to v_i (indices mod r); loops
    l{i}_{j} at vertex v_i for j = 1..m-1.
    """
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    vertices = tuple(f"v{i}" for i in range(r))
    edges: list[tuple[str, str, str]] = [
        (f"s{i}", f"v{i - 1}", f"v{i % r}") for i in range(1, r + 1)
    ]
    for i in range(r):
        for j in range(1, m):
            edges.append((f"l{i}_{j}", f"v{i}", f"v{i}"))
    return Graph(vertices, tuple(edges))


def closed_chain(k: int) -> Graph:
    """k vertices in a cycle, consecutive ones joined by two parallel edges
    s{i}_1, s{i}_2."""
    if k < 1:
        raise ValueError("need at least one vertex")
    vertices = tuple(f"v{i}" for i in range(k))
    edges: list[tuple[str, str, str]] = []
    for i in range(1, k + 1):
        src, dst = f"v{i - 1}", f"v{i % k}"
        edges.append((f"s{i}_1", src, dst))
        edges.append((f"s{i}_2", src, dst))
    return Graph(vertices, tuple(edges))


def open_chain(k: int) -> Graph:
    """A segment of k vertices with doubled edges, plus one loop at each end:
    loop s0 at v0, pairs s{i}_1, s{i}_2 between v_{i-1} and v_i, loop s{k} at
    the far end."""
    if k < 1:
        raise ValueError("need at least one vertex")
    vertices = tuple(f"v{i}" for i in range(k))
    edges: list[tuple[str, str, str]] = [("s0", "v0", "v0")]
    for i in range(1, k):
        edges.append((f"s{i}_1", f"v{i - 1}", f"v{i}"))
        edges.append((f"s{i}_2", f"v{i - 1}", f"v{i}"))
    edges.append((f"s{k}", f"v{k - 1}", f"v{k - 1}"))
    return Graph(vertices, tuple(edges))


# The scenario language's graph constructors, by keyword.
CONSTRUCTORS = {
    "rose": rose, "hairy": hairy, "ring": ring,
    "closedchain": closed_chain, "openchain": open_chain,
}


def rotation_aut(graph: Graph) -> GraphAut:
    """The rotation of a rose, hairy graph, or loop-decorated cycle built by
    the constructors above: s_i -> s_{i+1} and l{i}_{j} -> l{i+1}_{j}."""
    names = [name for name, _, _ in graph.edges]
    s_ids = sorted(
        (int(n[1:]) for n in names if n.startswith("s") and "_" not in n),
        key=int,
    )
    if not s_ids or s_ids != list(range(1, len(s_ids) + 1)):
        raise ValueError("graph does not carry rotation labels s1..sr")
    r = len(s_ids)
    loop_ids = [n for n in names if n.startswith("l")]
    if len(graph.vertices) == 1 or (len(graph.vertices) == 2 and not loop_ids):
        # Rose or hairy graph: cycle the parallel/loop edges.
        if loop_ids:
            raise ValueError("unexpected loop edges for a rose or hairy rotation")
        vmap = {v: v for v in graph.vertices}
        emap = {f"s{i}": (f"s{i % r + 1}", False) for i in s_ids}
        return GraphAut(graph, vmap, emap)
    # Loop-decorated cycle: rotate vertices, cycle edges, shift loop layers.
    if sorted(graph.vertices) != sorted(f"v{i}" for i in range(r)):
        raise ValueError("graph does not look like an r-cycle with loops")
    vmap = {f"v{i}": (f"v{(i + 1) % r}") for i in range(r)}
    emap: dict[str, tuple[str, bool]] = {
        f"s{i}": (f"s{i % r + 1}", False) for i in s_ids
    }
    for name in loop_ids:
        body = name[1:]
        i_part, j_part = body.split("_", 1)
        emap[name] = (f"l{(int(i_part) + 1) % r}_{j_part}", False)
    return GraphAut(graph, vmap, emap)


def pair_swap_aut(graph: Graph) -> GraphAut:
    """Swap s{i}_1 with s{i}_2 in every doubled pair; everything else fixed.

    The order-2 automorphism carried by closed and open chains.
    """
    emap: dict[str, tuple[str, bool]] = {}
    names = {name for name, _, _ in graph.edges}
    for name in names:
        if name.endswith("_1") and name[:-2] + "_2" in names:
            emap[name] = (name[:-2] + "_2", False)
        elif name.endswith("_2") and name[:-2] + "_1" in names:
            emap[name] = (name[:-2] + "_1", False)
        else:
            emap[name] = (name, False)
    vmap = {v: v for v in graph.vertices}
    return GraphAut(graph, vmap, emap)


# The scenario language's built-in graph automorphisms, by keyword.
SYMMETRIES = {"rotation": rotation_aut, "pairswap": pair_swap_aut}
