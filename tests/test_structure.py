"""Structure guard: each shared kernel has exactly one implementation.

The search loop, the union-find, the oracle's tree growth and its one
entry, and the instance rules are each written once in
``src/priority_steiner``; these checks fail when a second copy appears, so a
change to one of them has one place to go.
The package also holds no ``assert`` statement, so its checks survive
``python -O``.
"""

import ast
from pathlib import Path

import priority_steiner

PACKAGE = Path(priority_steiner.__file__).parent


def _functions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _callees(fn):
    """Names fn's own body, not a nested function's, calls."""
    names = set()
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            names.add(_callee(node))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _calls(fn, name):
    """True when fn's own body, not a nested function's, calls ``name``."""
    return name in _callees(fn)


def _reached(tree, root):
    """The module-level functions of ``tree`` that ``root`` reaches by calls."""
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached = {}
    stack = [root]
    while stack:
        name = stack.pop()
        if name in defs and name not in reached:
            reached[name] = defs[name]
            stack.extend(_callees(defs[name]))
    return list(reached.values())


def _modules():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_one_search_loop():
    users = [
        f"{name}:{fn.name}"
        for name, tree in _modules().items()
        for fn in _functions(tree)
        if _calls(fn, "heappop")
    ]
    assert len(users) == 1, users


def test_one_union_find():
    finds = [
        name
        for name, tree in _modules().items()
        for fn in _functions(tree)
        if fn.name == "find"
    ]
    assert len(finds) == 1, finds


def test_one_bridge_sweep():
    # krho's bridge MST is one Kruskal sweep over the keys in sorted order:
    # one union-find, and no search for a threshold to sort up to.
    tree = _modules()["pst.py"]
    (sweep,) = [fn for fn in _functions(tree) if fn.name == "_bridge_mst"]
    unions = [
        node
        for node in ast.walk(sweep)
        if isinstance(node, ast.Call) and _callee(node) == "_DisjointSets"
    ]
    assert len(unions) == 1, [node.lineno for node in unions]
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "bisect" not in imported, sorted(filter(None, imported))


def test_one_recursive_oracle_search():
    tree = _modules()["oracle.py"]
    nested = {
        inner
        for outer in _functions(tree)
        for inner in _functions(outer)
        if inner is not outer
    }
    recursive = sorted(fn.name for fn in nested if _calls(fn, fn.name))
    assert len(recursive) == 1, recursive


def test_one_exact_entry():
    # Both oracles are one entry: the guard, the answer without terminals,
    # the zero tables of the flavour's other side and its disconnected
    # message are decided in _exact_search, so the wrappers only call it.
    tree = _modules()["oracle.py"]
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for name in ("exact_pst", "exact_pnwst"):
        body = defs[name].body[1:]  # after the docstring
        assert _callees(defs[name]) == {"_exact_search"}, (name, _callees(defs[name]))
        assert len(body) == 1 and isinstance(body[0], ast.Return), name
    zero_tables = sorted(
        {
            fn.name
            for fn in _functions(tree)
            for node in ast.walk(fn)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Tuple)
            and all(
                isinstance(x, ast.Constant) and x.value == 0 for x in node.left.elts
            )
        }
    )
    assert zero_tables == ["_exact_search"], zero_tables
    answers = sorted(fn.name for fn in _functions(tree) if _calls(fn, "OracleResult"))
    assert answers == ["_exact_search"], answers


def test_no_assert_statements():
    # python -O strips asserts, so an invariant or input check written as
    # one would silently stop holding.
    asserts = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == [], asserts


def _parser_breaches(fn):
    """Where fn checks a weight or a terminal itself, as 'name:line what'."""
    out = []
    # Names the terminal records feed into the terminals dict.
    fed = {
        name.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Subscript)
        and getattr(target.value, "id", None) == "terminals"
        for part in (target.slice, node.value)
        for name in ast.walk(part)
        if isinstance(name, ast.Name)
    }
    allowed = set()  # uses of ``terminals`` that store, test membership or hand on
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            allowed.add(id(node.value))
        elif isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            allowed.update(id(x) for x in node.comparators)
        elif isinstance(node, ast.Call):
            allowed.update(id(x) for x in node.args)
    for node in ast.walk(fn):
        where = f"{fn.name}:{getattr(node, 'lineno', '?')}"
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("inf", "isfinite", "isinf", "isnan"):
            out.append(f"{where} tests finiteness")
        if isinstance(node, ast.Constant) and str(node.value).lower() in (
            "inf", "infinity", "nan"
        ):
            out.append(f"{where} builds infinity")
        if isinstance(node, ast.Call) and _callee(node) in ("sorted", "sort"):
            out.append(f"{where} sorts")
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(x, ast.Constant) and type(x.value) in (int, float)
                and x.value == 0
                for x in operands
            ):
                out.append(f"{where} compares against 0")
            if not all(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) and any(
                getattr(x, "id", None) in fed for x in operands
            ):
                out.append(f"{where} checks a terminal")
        if (
            isinstance(node, ast.Name)
            and node.id == "terminals"
            and isinstance(node.ctx, ast.Load)
            and id(node) not in allowed
        ):
            out.append(f"{where} reads the terminals back")
    return out


def test_one_instance_rule_set():
    # The instance model (weights finite, nonnegative and nondecreasing in
    # the level, terminals in range, and the rest) is written once, in the
    # rule pass validate_instance runs.  The parser enforces it by reaching
    # that same pass, and checks only what text needs itself.
    modules = _modules()
    instances = modules["instances.py"]
    rule_passes = {fn.name for fn in instances.body if isinstance(fn, ast.FunctionDef)}
    (validate,) = [
        fn for fn in _functions(instances) if fn.name == "validate_instance"
    ]
    parser = _reached(modules["fileio.py"], "parse_instance")
    shared = rule_passes & _callees(validate) & set().union(*map(_callees, parser))
    assert shared, "parse_instance does not reach validate_instance's rule pass"
    breaches = [b for fn in parser for b in _parser_breaches(fn)]
    assert breaches == [], breaches


def test_one_required_level_pass():
    # An element must carry the highest priority among the terminals it
    # serves.  Feasibility, forced rates and the merge check read that level
    # from the one bottom-up subtree-max pass; none walks each terminal's
    # path to the root on its own.
    modules = _modules()
    both = ast.Module(
        body=modules["instances.py"].body + modules["pnwst.py"].body, type_ignores=[]
    )
    for root in ("check_feasible", "forced_rates", "_check_serves_terminals"):
        reached = _reached(both, root)
        names = {fn.name for fn in reached}
        assert "_raise_to_subtree_max" in names, (root, sorted(names))
        loops = [
            f"{fn.name}:{node.lineno}"
            for fn in reached
            for node in ast.walk(fn)
            if isinstance(node, ast.While)
        ]
        assert loops == [], (root, loops)


def test_one_trimming_pass():
    # Marked trimming is written once, in _trim; the spider decomposition
    # runs on one parent map and cuts it down after each spider, so its loop
    # neither rebuilds a RateTree nor walks the tree again.
    tree = _modules()["spiders.py"]
    names = {fn.name for fn in _functions(tree)}
    assert not names & {"structure", "_subtree", "_cut_spider"}, sorted(names)
    raisers = sorted(
        fn.name for fn in _functions(tree) if _calls(fn, "_raise_to_subtree_max")
    )
    assert raisers == ["_trim"], raisers
    (decompose,) = [
        fn for fn in _functions(tree) if fn.name == "decompose_rate_spiders"
    ]
    assert "RateTree" not in _callees(decompose)
    in_loop = {
        _callee(node)
        for loop in ast.walk(decompose)
        if isinstance(loop, (ast.While, ast.For))
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
    }
    rewalks = in_loop & {"parents", "_tree_parents", "marked_optimize", "RateTree"}
    assert rewalks == set(), sorted(rewalks)


def test_one_merge_path_recovery():
    # The charging mode only sets the vertex prices.  Both modes keep the
    # same search state, distances, the charges they are exact for and the
    # per-center leg and head rows read from them, and rebuild the winner's
    # paths the same way, so the scan reads the mode only to check it and
    # to build the charge columns.  The rows are kept, never transposed
    # afresh from the distances on every call.
    tree = _modules()["pnwst.py"]
    (searches,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "_Searches"
    ]
    fields = [
        node.target.id for node in searches.body if isinstance(node, ast.AnnAssign)
    ]
    assert fields == ["dist", "charges", "rows", "heads"], fields
    assert "_by_center" not in {fn.name for fn in _functions(tree)}
    (scan,) = [fn for fn in _functions(tree) if fn.name == "minimize_merge_ratio"]
    reads = {
        id(node)
        for node in ast.walk(scan)
        if isinstance(node, ast.Name)
        and node.id == "charging"
        and isinstance(node.ctx, ast.Load)
    }
    allowed = set()
    for node in ast.walk(scan):
        if not isinstance(node, ast.If):
            continue
        checks = all(isinstance(stmt, ast.Raise) for stmt in node.body)
        builds = all(
            isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) in ("charges", "paid") for t in stmt.targets)
            for stmt in node.body
        )
        if (checks or builds) and not node.orelse:
            allowed.update(id(x) for x in ast.walk(node))
    stray = sorted(
        node.lineno
        for node in ast.walk(scan)
        if id(node) in reads - allowed
    )
    assert stray == [], f"charging read outside the charge columns at {stray}"


def test_one_head_walk():
    # The merge scan reads every head, of the roots at and above the level,
    # from one row per center: one loop walks it, and no loop walks a leg
    # row for more heads.
    tree = _modules()["pnwst.py"]
    (scan,) = [fn for fn in _functions(tree) if fn.name == "minimize_merge_ratio"]
    walked = [
        ast.unparse(node.iter) for node in ast.walk(scan) if isinstance(node, ast.For)
    ]
    assert walked.count("heads[v]") == 1, walked
    legs = [it for it in walked if it == "row" or it.startswith("rows[")]
    assert legs == [], walked


def test_one_spider_walk():
    # verify_spider walks the spider once, from its root; the center's legs
    # are covered by the branching and level checks, not by a second walk.
    tree = _modules()["spiders.py"]
    (verify,) = [fn for fn in _functions(tree) if fn.name == "verify_spider"]
    walks = [
        node.lineno
        for node in ast.walk(verify)
        if isinstance(node, ast.Call) and _callee(node) == "_tree_parents"
    ]
    assert len(walks) == 1, walks


def test_one_tree_shape():
    # Rate trees and spiders share one vertex set and one degree count:
    # ``vertices`` is defined once, and only ``degrees`` counts edge ends,
    # for both ``leaves`` and the branching checks of ``verify_spider``.
    tree = _modules()["spiders.py"]
    fns = _functions(tree)
    names = [fn.name for fn in fns]
    assert names.count("vertices") == 1, names
    counters = sorted(
        fn.name
        for fn in fns
        if any(
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Subscript)
            and isinstance(node.value, ast.Constant)
            and node.value.value == 1
            for node in ast.walk(fn)
        )
    )
    assert counters == ["degrees"], counters
    readers = sorted(fn.name for fn in fns if _calls(fn, "degrees"))
    assert readers == ["leaves", "verify_spider"], readers


def test_one_solver_table():
    # Each solver and oracle the command line runs is named once, as a bare
    # function in a module-level table; lookups read the tables and the
    # instance's ``kind``, never its class.
    tree = _modules()["cli.py"]
    runners = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.module in ("pst", "pnwst", "oracle")
        for alias in node.names
        if alias.name[0].islower()
    }
    assert runners >= {"best_of", "greedy_merge", "exact_pst", "exact_pnwst"}, runners
    tables = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets]
        in (["PST_SOLVERS"], ["PNWST_SOLVERS"], ["ORACLES"])
    ]
    in_tables = {id(value) for table in tables for value in table.values}
    stray = sorted(
        f"{node.id}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id in runners
        and id(node) not in in_tables
    )
    assert stray == [], stray
    forks = sorted(
        f"{name.id}:{name.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "isinstance"
        for name in ast.walk(node.args[1])
        if isinstance(name, ast.Name) and name.id.endswith("Instance")
    )
    assert forks == [], forks
    assert len(tables) == 3 and all(isinstance(t, ast.Dict) for t in tables)
    listed = sorted(
        v.id for table in tables for v in table.values if isinstance(v, ast.Name)
    )
    assert listed == sorted(runners), listed


def test_graph_holds_no_search_state():
    # The stopped search's scratch lists belong to the run that searches,
    # so a graph shared by copies or worker processes carries no search
    # state and needs no custom pickling.
    modules = _modules()
    nodes = list(ast.walk(modules["instances.py"]))
    imported = {n.module for n in nodes if isinstance(n, ast.ImportFrom)} | {
        alias.name for n in nodes if isinstance(n, ast.Import) for alias in n.names
    }
    assert "threading" not in imported, imported
    (graph,) = [
        node
        for node in modules["instances.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "PriorityGraph"
    ]
    methods = {fn.name for fn in graph.body if isinstance(fn, ast.FunctionDef)}
    assert not methods & {"__getstate__", "__setstate__"}, methods
    (search,) = [
        fn
        for fn in modules["paths.py"].body
        if isinstance(fn, ast.FunctionDef) and fn.name == "stopped_search"
    ]
    params = {arg.arg for arg in search.args.args}
    # Bindings of the names themselves; stores into their entries are the
    # search's own work.
    sources = [
        node.value
        for node in ast.walk(search)
        if isinstance(node, ast.Assign)
        for target in node.targets
        for name in getattr(target, "elts", [target])
        if isinstance(name, ast.Name) and name.id in ("dist", "parent")
    ]
    assert sources, "stopped_search names no dist or parent list"
    assert all(
        isinstance(value, ast.Name) and value.id in params for value in sources
    ), [ast.unparse(value) for value in sources]


def test_derived_structure_built_once():
    # The graph's tables are cached properties, not hand-written caches; the
    # spider entries check a tree on one walk, never by running a second
    # marked_optimize; and the level rule of rate trees is written once
    # beside verify_spider's own report of it.
    modules = _modules()
    (graph,) = [
        node
        for node in modules["instances.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "PriorityGraph"
    ]
    stored = sorted(
        target.attr
        for node in ast.walk(graph)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Attribute)
        and getattr(target.value, "id", None) == "self"
        and target.attr in ("_adj", "_edge_index")
    )
    assert stored == [], stored
    decorated = {
        fn.name: [ast.unparse(d) for d in fn.decorator_list]
        for fn in graph.body
        if isinstance(fn, ast.FunctionDef)
    }
    for name in ("adjacency", "edge_index"):
        assert decorated[name] == ["cached_property"], (name, decorated[name])

    tree = modules["spiders.py"]
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for name in ("is_marked_optimized", "decompose_rate_spiders"):
        assert not _calls(defs[name], "marked_optimize"), name
    # Level comparisons: one rate table read on both sides of an order test.
    ordered = (ast.Gt, ast.GtE, ast.Lt, ast.LtE)
    comparing = sorted(
        fn.name
        for fn in _functions(tree)
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and all(isinstance(op, ordered) for op in node.ops)
        and all(
            isinstance(x, ast.Subscript) and ast.unparse(x.value).endswith("rates")
            for x in (node.left, *node.comparators)
        )
    )
    outside = [name for name in comparing if name != "verify_spider"]
    assert len(outside) == 1 and len(comparing) == 2, comparing
