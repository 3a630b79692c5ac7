"""Text formats: instances, solutions, and rate trees.

Instance files are line records with ``#`` comments::

    PST 1            (or: PNWST 1)
    k <int>
    nodes <n>
    source <v>
    terminal <v> <level>
    edge <u> <v> [w1 .. wk]    (weights for PST only)
    node <v> <w1 .. wk>        (PNWST only; unlisted vertices are free)

Weights are finite, nonnegative and nondecreasing in the level.

Solution files hold one ``rate`` line per selected element: ``rate u-v
<level>`` for edges, ``rate v <level>`` for vertices.  Node-weighted
solution files may also carry explicit ``edge u v`` tree lines; without
them the checker rebuilds a tree that favors high-rate vertices, which
realizes a feasible tree whenever one exists.

Rate-tree files (for the spider decomposition command)::

    RATETREE 1
    root <v>
    vertex <v> <level>
    edge <u> <v>
"""

from __future__ import annotations

import math
from typing import Optional

from .instances import (
    EdgeRateSolution,
    Instance,
    PnwstInstance,
    PriorityGraph,
    PstInstance,
    Solution,
    VertexRateSolution,
    _DisjointSets,
    canonical_edge,
)
from .spiders import RateTree, SpiderDecomposition


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _records(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _weight(line_no: int, token: str) -> float:
    try:
        w = float(token)
    except ValueError:
        raise ParseError(line_no, f"expected a number, got {token!r}") from None
    if not (0.0 <= w < math.inf):
        raise ParseError(line_no, f"weight {token!r} is negative or not finite")
    return w


def _weight_row(line_no: int, tokens: list[str]) -> tuple[float, ...]:
    # Every solver and the oracle assume a weight never drops as the level
    # rises; a falling row would make the oracle report a wrong optimum.
    row = [_weight(line_no, x) for x in tokens]
    if row != sorted(row):
        raise ParseError(line_no, "weights decrease as the level rises")
    return tuple(row)


def _int(line_no: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, got {token!r}") from None


def parse_instance(text: str) -> Instance:
    kind = None
    k = None
    n = None
    source = None
    terminals: dict[int, int] = {}
    terminal_lines: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    edge_rows: list[tuple[float, ...]] = []
    node_rows: dict[int, tuple[float, ...]] = {}
    node_lines: dict[int, int] = {}

    for line_no, toks in _records(text):
        head = toks[0]
        if kind is None:
            if head not in ("PST", "PNWST"):
                raise ParseError(line_no, f"unknown header {head!r}")
            if len(toks) != 2 or toks[1] != "1":
                raise ParseError(line_no, "unsupported format version")
            kind = head
            continue
        if head == "k":
            k = _int(line_no, toks[1])
        elif head == "nodes":
            n = _int(line_no, toks[1])
        elif head == "source":
            source = _int(line_no, toks[1])
        elif head == "terminal":
            if len(toks) != 3:
                raise ParseError(line_no, "terminal takes vertex and level")
            t = _int(line_no, toks[1])
            if t in terminals:
                raise ParseError(line_no, f"terminal {t} declared twice")
            terminals[t] = _int(line_no, toks[2])
            terminal_lines[t] = line_no
        elif head == "edge":
            if k is None:
                raise ParseError(line_no, "edge before k")
            u = _int(line_no, toks[1])
            v = _int(line_no, toks[2])
            rest = toks[3:]
            if kind == "PST":
                if len(rest) != k:
                    raise ParseError(line_no, f"expected {k} edge weights")
                edge_rows.append(_weight_row(line_no, rest))
            elif rest:
                raise ParseError(line_no, "node-weighted edges take no weights")
            edges.append((u, v))
        elif head == "node":
            if kind != "PNWST":
                raise ParseError(line_no, "node lines are for PNWST files")
            if k is None:
                raise ParseError(line_no, "node before k")
            v = _int(line_no, toks[1])
            if v in node_rows:
                raise ParseError(line_no, f"vertex {v} weighted twice")
            if len(toks) != 2 + k:
                raise ParseError(line_no, f"expected {k} node weights")
            node_rows[v] = _weight_row(line_no, toks[2:])
            node_lines[v] = line_no
        else:
            raise ParseError(line_no, f"unknown record {head!r}")

    if kind is None:
        raise ParseError(1, "missing PST/PNWST header")
    for name, val in (("k", k), ("nodes", n), ("source", source)):
        if val is None:
            raise ParseError(1, f"missing {name} record")
    for t, lvl in terminals.items():
        line_no = terminal_lines[t]
        if not (1 <= t <= n):
            raise ParseError(line_no, f"terminal {t} outside vertices 1..{n}")
        if t == source:
            raise ParseError(line_no, f"terminal {t} is the source")
        if not (1 <= lvl <= k):
            raise ParseError(line_no, f"terminal {t} level {lvl} outside 1..{k}")
    graph = PriorityGraph(n, edges, k)
    if kind == "PST":
        return PstInstance(graph, source, terminals, edge_rows)
    for v, line_no in node_lines.items():
        if not (1 <= v <= n):
            raise ParseError(line_no, f"node {v} out of range")
    zeros = tuple(0.0 for _ in range(k))
    rows = [node_rows.get(v, zeros) for v in range(1, n + 1)]
    return PnwstInstance(graph, source, terminals, rows)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _fmt(w: float) -> str:
    return str(int(w)) if w == int(w) else repr(w)


def write_instance(inst: Instance, comment: Optional[str] = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    g = inst.graph
    lines.append(f"{inst.kind} 1")
    lines.append(f"k {g.k}")
    lines.append(f"nodes {g.n}")
    lines.append(f"source {inst.source}")
    for t in sorted(inst.terminals):
        lines.append(f"terminal {t} {inst.terminals[t]}")
    if isinstance(inst, PstInstance):
        for eid, (u, v) in enumerate(g.edges):
            row = " ".join(_fmt(w) for w in inst.edge_weights[eid])
            lines.append(f"edge {u} {v} {row}")
    else:
        for (u, v) in g.edges:
            lines.append(f"edge {u} {v}")
        for v in range(1, g.n + 1):
            row = inst.vertex_weights[v - 1]
            if any(w != 0 for w in row):
                lines.append(f"node {v} " + " ".join(_fmt(w) for w in row))
    return "\n".join(lines) + "\n"


def write_solution(sol: Solution) -> str:
    lines = []
    if isinstance(sol, EdgeRateSolution):
        for (u, v), lvl in sorted(sol.rates.items()):
            lines.append(f"rate {u}-{v} {lvl}")
    else:
        for v, lvl in sorted(sol.rates.items()):
            lines.append(f"rate {v} {lvl}")
        for (u, v) in sol.edges:
            lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def bottleneck_tree(
    inst: PnwstInstance, rates: dict[int, int]
) -> tuple[tuple[int, int], ...]:
    """Spanning tree of the selected vertices favoring high-rate edges.

    Kruskal over induced edges ranked by the lower endpoint rate keeps, for
    any two selected vertices, a path whose weakest vertex is as strong as
    on any induced path; if some tree satisfies the terminal constraints,
    this one does.
    """
    selected = {v for v, r in rates.items() if r > 0}
    pool = sorted(
        (-min(rates[u], rates[v]), (u, v))
        for (u, v) in inst.graph.edges
        if u in selected and v in selected
    )
    ds = _DisjointSets(inst.graph.n)
    return tuple(pair for _, pair in pool if ds.union(*pair))


def parse_solution(text: str, inst: Instance) -> Solution:
    erates: dict[tuple[int, int], int] = {}
    vrates: dict[int, int] = {}
    tree_edges: list[tuple[int, int]] = []
    for line_no, toks in _records(text):
        if toks[0] == "rate" and len(toks) == 3:
            lvl = _int(line_no, toks[2])
            if "-" in toks[1]:
                a, _, b = toks[1].partition("-")
                pair = canonical_edge(_int(line_no, a), _int(line_no, b))
                if pair in erates:
                    raise ParseError(line_no, f"edge {pair} rated twice")
                erates[pair] = lvl
            else:
                v = _int(line_no, toks[1])
                if v in vrates:
                    raise ParseError(line_no, f"vertex {v} rated twice")
                vrates[v] = lvl
        elif toks[0] == "edge" and len(toks) == 3:
            tree_edges.append(
                canonical_edge(_int(line_no, toks[1]), _int(line_no, toks[2]))
            )
        else:
            raise ParseError(line_no, f"unknown solution record {toks[0]!r}")

    if isinstance(inst, PstInstance):
        if vrates or tree_edges:
            raise ParseError(1, "edge-weighted solutions use rate u-v lines")
        return EdgeRateSolution(erates)
    if erates:
        raise ParseError(1, "node-weighted solutions use rate v lines")
    if not tree_edges:
        tree_edges = list(bottleneck_tree(inst, vrates))
    return VertexRateSolution(vrates, tuple(tree_edges))


def parse_rate_tree(text: str) -> RateTree:
    root = None
    rates: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    header_seen = False
    for line_no, toks in _records(text):
        if not header_seen:
            if toks[0] != "RATETREE" or len(toks) != 2 or toks[1] != "1":
                raise ParseError(line_no, "expected 'RATETREE 1' header")
            header_seen = True
            continue
        if toks[0] == "root" and len(toks) == 2:
            root = _int(line_no, toks[1])
        elif toks[0] == "vertex" and len(toks) == 3:
            rates[_int(line_no, toks[1])] = _int(line_no, toks[2])
        elif toks[0] == "edge" and len(toks) == 3:
            edges.append((_int(line_no, toks[1]), _int(line_no, toks[2])))
        else:
            raise ParseError(line_no, f"unknown rate-tree record {toks[0]!r}")
    if not header_seen:
        raise ParseError(1, "missing RATETREE header")
    if root is None:
        raise ParseError(1, "missing root record")
    for (u, v) in edges:
        for x in (u, v):
            if x not in rates:
                raise ParseError(1, f"vertex {x} has no declared level")
    if root not in rates:
        raise ParseError(1, "root has no declared level")
    return RateTree(root, rates, tuple(edges))


def format_decomposition(decomp: SpiderDecomposition) -> str:
    """Indented rendering of a spider decomposition (debugging aid)."""
    out = []
    for i, sp in enumerate(decomp.spiders, start=1):
        out.append(
            f"spider {i}: root {sp.root} center {sp.center} "
            f"vertices {len(sp.vertices)}"
        )
        marked_in = sorted(set(sp.vertices) & set(decomp.marked))
        out.append(f"  marked: {' '.join(str(v) for v in marked_in)}")
        for leaf in sorted(sp.leaves()):
            if leaf == sp.root and leaf != sp.center:
                continue
            out.append(f"  leg to {leaf}")
        for (u, v) in sp.edges:
            out.append(f"    edge {u} {v} (levels {sp.rates[u]},{sp.rates[v]})")
    return "\n".join(out) + "\n"
