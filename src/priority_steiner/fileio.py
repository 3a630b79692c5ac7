"""Text formats: instances, solutions, and rate trees.

Instance files are line records with ``#`` comments::

    PST 1            (or: PNWST 1)
    k <int>
    nodes <n>
    source <v>
    terminal <v> <level>
    edge <u> <v> [w1 .. wk]    (weights for PST only)
    node <v> <w1 .. wk>        (PNWST only; unlisted vertices are free)

``k``, ``nodes`` and ``source`` appear once each, ``nodes`` is at most
``MAX_NODES`` and ``k`` at most ``MAX_LEVELS``, and ``edge`` and ``node``
records come after ``k``.  :func:`parse_instance` checks the text itself
(record shapes, tokens, repeats, vertex ids the graph stores) and then the
instance model of :func:`~priority_steiner.instances.validate_instance`: a
simple graph, weights finite, nonnegative and nondecreasing in the level,
terminals that are vertices other than the source with levels in 1..k,
and in PNWST files a free source and terminals free up to their level.
Connectivity is left to the solvers.  Every error is a
:class:`ParseError` naming a line.

Solution files hold one ``rate`` line per selected element: ``rate u-v
<level>`` for edges, ``rate v <level>`` for vertices, levels in 0..k.
Node-weighted solution files may also carry explicit ``edge u v`` tree
lines; without them the checker rebuilds a tree that favors high-rate
vertices, which realizes a feasible tree whenever one exists.

Rate-tree files (for the spider decomposition command)::

    RATETREE 1
    root <v>
    vertex <v> <level>
    edge <u> <v>

Vertex ids and levels are at least 1 (0 is the parent marker of the tree
kernels), ``root`` and each vertex's ``vertex`` record appear once, and
every ``edge`` end and the root need a ``vertex`` record;
:func:`parse_rate_tree` reports a breach as a :class:`ParseError` naming
its line (the ``edge`` or ``root`` line for a missing ``vertex`` record).
Levels must not rise away from the root:
:func:`~priority_steiner.spiders.marked_optimize` refuses a tree where one
does.
"""

from __future__ import annotations

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
    _faults,
    canonical_edge,
)
from .spiders import RateTree, SpiderDecomposition


# Size caps checked where the ``nodes`` and ``k`` records are read, before
# anything of that size is allocated: the searches allocate lists of n + 1
# entries and the PNWST parser a zero row of k entries, so a huge count
# would otherwise end in a MemoryError.  They are 200x and 20x the largest
# benchmark instance (n=5000, k=5).
MAX_NODES = 1_000_000
MAX_LEVELS = 100


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _records(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        toks = raw.partition("#")[0].split()
        if toks:
            yield i, toks


def _int(line_no: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an integer, got {token!r}") from None


def _weights(line_no: int, tokens: list[str]) -> tuple[float, ...]:
    try:
        return tuple(map(float, tokens))
    except ValueError as exc:
        raise ParseError(line_no, f"expected numbers: {exc}") from None


def parse_instance(text: str) -> Instance:
    """Read an instance file, enforcing the instance model at load.

    The record loop checks only what text needs: record shapes, integer and
    number tokens, and records given twice; after it, the source, edge ends
    and ``node`` rows must name vertices in 1..n, which a graph cannot hold
    otherwise.  The model rules are the ones
    :func:`~priority_steiner.instances.validate_instance` reports, bar
    connectivity; the first record that breaks one is reported by line.
    """
    kind = None
    once: dict[str, int] = {}
    terminals: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    edge_rows: list[tuple[float, ...]] = []
    node_rows: dict[int, tuple[float, ...]] = {}
    # Edge weight rows by their tokens: generated files repeat a few
    # thousand rows over tens of thousands of edges, and equal tokens parse
    # to equal floats, so each distinct row is parsed and stored once.
    parsed_rows: dict[tuple[str, ...], tuple[float, ...]] = {}

    for line_no, toks in _records(text):
        head = toks[0]
        if kind is None:
            if head not in ("PST", "PNWST"):
                raise ParseError(line_no, f"unknown header {head!r}")
            if len(toks) != 2 or toks[1] != "1":
                raise ParseError(line_no, "unsupported format version")
            kind = head
            continue
        k = once.get("k")
        if head in ("edge", "node") and k is None:
            raise ParseError(line_no, f"{head} before k")
        if head in ("k", "nodes", "source"):
            if len(toks) != 2:
                raise ParseError(line_no, f"{head} takes one value")
            if head in once:
                raise ParseError(line_no, f"{head} declared twice")
            once[head] = _int(line_no, toks[1])
            if once[head] < 1:
                raise ParseError(line_no, f"{head} must be positive")
            cap = {"nodes": MAX_NODES, "k": MAX_LEVELS}.get(head)
            if cap is not None and once[head] > cap:
                raise ParseError(line_no, f"{head} must be at most {cap}")
        elif head == "terminal":
            if len(toks) != 3:
                raise ParseError(line_no, "terminal takes vertex and level")
            t = _int(line_no, toks[1])
            if t in terminals:
                raise ParseError(line_no, f"terminal {t} declared twice")
            terminals[t] = _int(line_no, toks[2])
        elif head == "edge":
            if len(toks) < 3:
                raise ParseError(line_no, "edge takes two vertices")
            if kind == "PST":
                if len(toks) != 3 + k:
                    raise ParseError(line_no, f"expected {k} edge weights")
                key = tuple(toks[3:])
                row = parsed_rows.get(key)
                if row is None:
                    row = parsed_rows[key] = _weights(line_no, toks[3:])
                edge_rows.append(row)
            elif len(toks) > 3:
                raise ParseError(line_no, "node-weighted edges take no weights")
            edges.append((_int(line_no, toks[1]), _int(line_no, toks[2])))
        elif head == "node":
            if kind != "PNWST":
                raise ParseError(line_no, "node lines are for PNWST files")
            if len(toks) != 2 + k:
                raise ParseError(line_no, f"expected {k} node weights")
            v = _int(line_no, toks[1])
            if v in node_rows:
                raise ParseError(line_no, f"vertex {v} weighted twice")
            node_rows[v] = _weights(line_no, toks[2:])
        else:
            raise ParseError(line_no, f"unknown record {head!r}")

    if kind is None:
        raise ParseError(1, "missing PST/PNWST header")
    for name in ("k", "nodes", "source"):
        if name not in once:
            raise ParseError(1, f"missing {name} record")
    k, n, source = once["k"], once["nodes"], once["source"]
    # A graph holds no vertex outside 1..n; terminals are the rule pass's.
    outside = [
        (("node", v), f"node {v} out of range 1..{n}")
        for v in node_rows
        if not 1 <= v <= n
    ]
    if source > n:
        outside.append((("source", source), f"source {source} out of range 1..{n}"))
    try:
        graph = PriorityGraph(n, edges, k)
    except ValueError:  # its one check a parsed file can fail: an edge end
        outside += [
            (("edge", eid), f"edge ({u},{v}) leaves vertices 1..{n}")
            for eid, (u, v) in enumerate(edges)
            if not (1 <= u <= n and 1 <= v <= n)
        ]
    if outside:
        raise _first_fault(text, outside)
    if kind == "PST":
        inst: Instance = PstInstance(graph, source, terminals, edge_rows)
    else:
        zeros = (0.0,) * k
        rows = [node_rows.get(v, zeros) for v in range(1, n + 1)]
        inst = PnwstInstance(graph, source, terminals, rows)
    faults = _faults(inst)
    if faults:
        raise _first_fault(text, faults)
    return inst


def _first_fault(text: str, faults: list) -> ParseError:
    """The error for the first record, in file order, that holds a fault.

    ``faults`` holds (element, message) pairs; an element's first message
    wins.  An element is keyed by the head of its record and, for an edge,
    its position among the edge records, else the record's first value.
    The records are walked a second time, so a file that loads keeps no
    table of record lines.
    """
    first = dict(reversed(faults))
    eid = -1
    for line_no, toks in _records(text):
        head = toks[0]
        eid += head == "edge"
        key = (head, eid if head == "edge" else int(toks[1]))
        if key in first:
            return ParseError(line_no, first[key])
    raise RuntimeError(f"no record holds {faults[0][0]}")


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _fmt(w: float) -> str:
    return str(int(w)) if float(w).is_integer() else repr(w)


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
        # Generated tables repeat rows often, so each distinct row is
        # formatted once.
        rows: dict[tuple[float, ...], str] = {}
        for (u, v), weights in zip(g.edges, inst.edge_weights):
            row = rows.get(weights)
            if row is None:
                row = rows[weights] = " ".join(map(_fmt, weights))
            lines.append(f"edge {u} {v} {row}")
    else:
        for (u, v) in g.edges:
            lines.append(f"edge {u} {v}")
        for v in range(1, g.n + 1):
            row = inst.vertex_weights[v - 1]
            if any(row):
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
            if lvl not in range(inst.graph.k + 1):
                raise ParseError(line_no, f"level {lvl} outside 0..{inst.graph.k}")
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
    root_line = 1
    rates: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    header_seen = False
    for line_no, toks in _records(text):
        if not header_seen:
            if toks[0] != "RATETREE" or len(toks) != 2 or toks[1] != "1":
                raise ParseError(line_no, "expected 'RATETREE 1' header")
            header_seen = True
            continue
        head = toks[0]
        if len(toks) != {"root": 2, "vertex": 3, "edge": 3}.get(head):
            raise ParseError(line_no, f"unknown rate-tree record {head!r}")
        nums = [_int(line_no, tok) for tok in toks[1:]]
        ids = nums[:1] if head == "vertex" else nums
        if min(ids) < 1:
            raise ParseError(line_no, f"vertex id {min(ids)} below 1")
        if head == "root":
            if root is not None:
                raise ParseError(line_no, "root declared twice")
            root, root_line = nums[0], line_no
        elif head == "vertex":
            if nums[1] < 1:
                raise ParseError(line_no, f"level {nums[1]} below 1")
            if nums[0] in rates:
                raise ParseError(line_no, f"vertex {nums[0]} declared twice")
            rates[nums[0]] = nums[1]
        else:
            edges.append((nums[0], nums[1]))
            edge_lines.append(line_no)
    if not header_seen:
        raise ParseError(1, "missing RATETREE header")
    if root is None:
        raise ParseError(1, "missing root record")
    for line_no, (u, v) in zip(edge_lines, edges):
        for x in (u, v):
            if x not in rates:
                raise ParseError(line_no, f"vertex {x} has no declared level")
    if root not in rates:
        raise ParseError(root_line, "root has no declared level")
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
