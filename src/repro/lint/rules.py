"""The ``repro lint`` rule set: determinism (D) and protocol-contract (P) rules.

Each rule mirrors one invariant the differential/resume/shard suites pin at
runtime — the linter's job is to catch the violation *before* a sweep runs,
the way PR 4's "drivers ignored their seed" corruption could have been
caught at review time.  Rules are deliberately narrow: a finding should be
a near-certain hazard, not a style opinion, because every finding gates CI.

Determinism rules
-----------------
* ``D101 unseeded-random`` — module-level ``random.*`` / ``numpy.random.*``
  draws (process-global RNG state: results change across worker counts).
* ``D102 global-rng-seed`` — ``random.seed`` / ``numpy.random.seed``
  (reseeding shared state leaks across cells in the same worker).
* ``D103 unsorted-set-iteration`` — iterating a set into ordered output
  (row emission, sends, heap pushes, joins) without ``sorted(...)``.
* ``D104 unsorted-json-digest`` — hashing ``json.dumps`` output without
  ``sort_keys=True`` (digest depends on dict construction order).
* ``D105 wall-clock`` — wall-clock reads outside :mod:`repro.bench`
  (measured rows must never embed timing).
* ``D106 identity-ordering`` — ``sorted/min/max/.sort`` keyed on ``id()``
  or ``hash()`` (both vary per process run).
* ``D107 environ-read`` — ``os.environ`` / ``os.getenv`` outside the
  plugin-discovery path (hidden config axes break cell reproducibility).

Protocol-contract rules
-----------------------
* ``P201 inbox-mutation`` — an ``on_round`` mutating its :class:`Inbox`
  view (runner-owned, reused buffers).
* ``P202 context-retention`` — storing the ``ctx``/``inbox`` argument on
  ``self`` (both are runner-pooled and invalid across rounds).
* ``P203 seed-ignoring-rng`` — a constant-seeded RNG inside a function
  that takes a ``seed`` parameter (the PR 4 corruption class).
* ``P204 unjson-scenario-params`` — ``Scenario(params=...)`` values that
  do not survive a JSON round trip.
* ``P205 undeclared-quality-column`` — driver-returned quality columns
  whose keys are not string literals, collide with the core
  :data:`ROW_FIELDS`, or carry non-JSON-safe literal values.
"""

from __future__ import annotations

import ast

from .engine import FileContext, Rule

__all__ = ["RULES", "ROW_FIELDS_SNAPSHOT"]

#: Frozen copy of :data:`repro.sim.experiments.ROW_FIELDS` so path-mode
#: linting never imports the simulation stack; a test pins the two equal.
ROW_FIELDS_SNAPSHOT = (
    "scenario",
    "family",
    "algorithm",
    "n",
    "m",
    "seed",
    "size",
    "params_digest",
    "latency_model",
    "rounds",
    "messages",
    "lost_messages",
    "congestion",
    "energy",
)


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _import_map(ctx: FileContext) -> dict:
    """``{local name: canonical dotted module/object}`` for the file."""
    cached = getattr(ctx, "_lint_imports", None)
    if cached is not None:
        return cached
    imports: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    ctx._lint_imports = imports
    return imports


def _dotted_parts(node: ast.AST) -> list | None:
    """``a.b.c`` expression -> ``["a", "b", "c"]`` (None when not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _qualified(node: ast.AST, ctx: FileContext) -> str | None:
    """Canonical dotted name of an expression, resolved through imports.

    ``np.random.rand`` under ``import numpy as np`` resolves to
    ``numpy.random.rand``; an unimported root keeps its literal spelling
    (so snippets without imports still lint).  Chains rooted in anything
    but a plain name (``self.rng.random``) return ``None`` — the rule set
    never guesses at attribute types.
    """
    parts = _dotted_parts(node)
    if parts is None:
        return None
    resolved = _import_map(ctx).get(parts[0])
    if resolved is not None:
        parts = resolved.split(".") + parts[1:]
    return ".".join(parts)


def _terminal_name(func: ast.AST) -> str | None:
    """The rightmost name of a call target (``x.y.send`` -> ``send``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _contains_names(node: ast.AST) -> bool:
    """Whether any sub-expression references a name (i.e. is not constant)."""
    return any(
        isinstance(child, (ast.Name, ast.Attribute)) for child in ast.walk(node)
    )


def _scopes(tree: ast.Module):
    """Yield ``(scope_node, scope_statements)`` for the module and each def.

    Nested defs are their own scope; statements of a scope exclude the
    bodies of the functions/classes it contains.
    """
    def direct(body):
        out = []
        stack = list(body)
        while stack:
            node = stack.pop()
            out.append(node)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # its body is a separate scope, yielded later
            stack.extend(ast.iter_child_nodes(node))
        return out

    pending = [tree]
    while pending:
        scope = pending.pop()
        body = scope.body
        nodes = direct(body)
        yield scope, nodes
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                pending.append(node)


_JSON_SAFE_CONSTS = (str, int, float, bool, type(None))


def _json_safe_literal(node: ast.AST) -> "bool | None":
    """True/False for checkable literals; ``None`` when not a literal."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, _JSON_SAFE_CONSTS)
    if isinstance(node, ast.List):
        verdicts = [_json_safe_literal(elt) for elt in node.elts]
        return False if False in verdicts else (None if None in verdicts else True)
    if isinstance(node, ast.Dict):
        for key in node.keys:
            if key is None or not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                return False
        verdicts = [_json_safe_literal(value) for value in node.values]
        return False if False in verdicts else (None if None in verdicts else True)
    if isinstance(node, (ast.Tuple, ast.Set)):
        return False  # JSON has neither; tuples come back as lists
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _json_safe_literal(node.operand)
    return None


# ----------------------------------------------------------------------
# D-rules: determinism
# ----------------------------------------------------------------------
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle", "sample",
    "uniform", "triangular", "betavariate", "expovariate", "gammavariate",
    "gauss", "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "getrandbits", "randbytes",
})
_NUMPY_RANDOM_FNS = frozenset({
    "rand", "randn", "randint", "random", "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "random_sample", "bytes", "sample",
})


class UnseededRandom(Rule):
    id = "D101"
    name = "unseeded-random"
    severity = "error"
    summary = (
        "module-level random.* / numpy.random.* draw: process-global RNG "
        "state makes results depend on worker count and call history"
    )
    example_bad = (
        "import random\n"
        "import numpy as np\n"
        "\n"
        "\n"
        "def drive_demo(graph, metrics):\n"
        "    source = random.choice(sorted(graph.nodes()))  # expect: D101\n"
        "    noise = np.random.rand()  # expect: D101\n"
        "    rng = random.Random()  # expect: D101\n"
        "    return {\"noise\": noise, \"source\": repr(source), \"r\": rng.random()}\n"
    )
    example_good = (
        "import random\n"
        "\n"
        "\n"
        "def drive_demo(graph, seed, metrics):\n"
        "    rng = random.Random(seed)\n"
        "    source = rng.choice(sorted(graph.nodes()))\n"
        "    return {\"source\": repr(source)}\n"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qual = _qualified(node.func, self.ctx)
        if qual is not None:
            head, _, tail = qual.rpartition(".")
            if head == "random" and tail in _GLOBAL_RANDOM_FNS:
                self.report(
                    node,
                    f"{qual}() draws from the process-global RNG; build a "
                    f"random.Random(seed) instead",
                )
            elif qual == "random.Random" and not node.args and not node.keywords:
                self.report(
                    node,
                    "random.Random() with no arguments seeds from OS entropy; "
                    "pass an explicit seed",
                )
            elif qual == "random.SystemRandom":
                self.report(
                    node, "random.SystemRandom is OS entropy and never reproducible"
                )
            elif head.endswith("numpy.random") and tail in _NUMPY_RANDOM_FNS:
                self.report(
                    node,
                    f"{qual}() draws from numpy's process-global RNG; use "
                    f"numpy.random.default_rng(seed)",
                )
            elif (
                qual.endswith("numpy.random.default_rng")
                and not node.args
                and not node.keywords
            ):
                self.report(
                    node,
                    "numpy.random.default_rng() with no seed is OS entropy; "
                    "pass an explicit seed",
                )
        self.generic_visit(node)


class GlobalRngSeed(Rule):
    id = "D102"
    name = "global-rng-seed"
    severity = "error"
    summary = (
        "random.seed / numpy.random.seed mutates process-global state that "
        "leaks across every cell the worker runs afterwards"
    )
    example_bad = (
        "import random\n"
        "\n"
        "\n"
        "def drive_demo(graph, seed, metrics):\n"
        "    random.seed(seed)  # expect: D102\n"
        "    return None\n"
    )
    example_good = (
        "import random\n"
        "\n"
        "\n"
        "def drive_demo(graph, seed, metrics):\n"
        "    rng = random.Random(seed)\n"
        "    del rng\n"
        "    return None\n"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qual = _qualified(node.func, self.ctx)
        if qual == "random.seed" or (
            qual is not None and qual.endswith("numpy.random.seed")
        ):
            self.report(
                node,
                f"{qual}() reseeds the process-global RNG — state leaks into "
                f"every later cell on this worker; use a local "
                f"random.Random(seed)",
            )
        self.generic_visit(node)


_ORDER_SINKS = frozenset({
    "send", "broadcast", "heappush", "heappushpop", "append", "extend",
    "appendleft", "write", "writerow", "writelines", "put", "emit", "update",
})
_ORDER_SAFE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "min", "max", "sum", "len", "any", "all",
    "Counter",
})
_MATERIALIZERS = frozenset({"tuple", "list", "iter", "enumerate"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


class UnsortedSetIteration(Rule):
    id = "D103"
    name = "unsorted-set-iteration"
    severity = "warning"
    summary = (
        "iterating a set into ordered output (sends, appends, heap pushes, "
        "joins) — set order depends on insertion history, and on the "
        "per-process hash seed for str/bytes elements or containers of "
        "them; wrap the set in sorted(...)"
    )
    example_bad = (
        "def emit_rows(cells, rows):\n"
        "    pending = {cell for cell in cells if cell.dirty}\n"
        "    for cell in pending:  # expect: D103\n"
        "        rows.append(cell.row())\n"
        "    return list(set(cells))  # expect: D103\n"
    )
    example_good = (
        "def emit_rows(cells, rows):\n"
        "    pending = {cell for cell in cells if cell.dirty}\n"
        "    for cell in sorted(pending, key=repr):\n"
        "        rows.append(cell.row())\n"
        "    total = sum(cell.n for cell in pending)\n"
        "    return sorted(set(cells), key=repr) + [total]\n"
    )

    def run(self):
        for _scope, nodes in _scopes(self.ctx.tree):
            self._check_scope(nodes)
        return self.findings

    # -- scope analysis -------------------------------------------------
    def _check_scope(self, nodes: list) -> None:
        set_names: set[str] = set()
        unset_names: set[str] = set()
        for node in nodes:
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target] if isinstance(node.target, ast.Name) else []
                value = node.value
            else:
                continue
            for target in targets:
                if self._is_set_expr(value, set_names):
                    set_names.add(target.id)
                else:
                    unset_names.add(target.id)
        set_names -= unset_names  # ambiguous rebinding: give the benefit of doubt

        safe: set[int] = set()
        for node in nodes:
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name in _ORDER_SAFE_CONSUMERS:
                    for arg in node.args:
                        safe.add(id(arg))
                        if isinstance(arg, ast.Call) and _terminal_name(
                            arg.func
                        ) in _MATERIALIZERS:
                            safe.update(id(inner) for inner in arg.args)

        for node in nodes:
            if isinstance(node, ast.For):
                if self._is_set_expr(node.iter, set_names) and self._has_sink(
                    node.body
                ):
                    self.report(
                        node,
                        "loop over a set feeds ordered output; iterate "
                        "sorted(...) instead",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if id(node) in safe:
                    continue
                for comp in node.generators:
                    if self._is_set_expr(comp.iter, set_names):
                        self.report(
                            node,
                            "comprehension over a set materializes hash order; "
                            "iterate sorted(...) instead",
                        )
                        break
            elif isinstance(node, ast.Call) and id(node) not in safe:
                name = _terminal_name(node.func)
                if (
                    name in _MATERIALIZERS or name == "join"
                ) and node.args and self._is_set_expr(node.args[0], set_names):
                    self.report(
                        node,
                        f"{name}(...) over a set materializes hash order; "
                        f"wrap the set in sorted(...)",
                    )

    def _is_set_expr(self, node: ast.AST, set_names: set) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and name in _SET_METHODS
                and self._is_set_expr(node.func.value, set_names)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False

    def _has_sink(self, body: list) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(node, ast.Call) and _terminal_name(
                    node.func
                ) in _ORDER_SINKS:
                    return True
        return False


class UnsortedJsonDigest(Rule):
    id = "D104"
    name = "unsorted-json-digest"
    severity = "error"
    summary = (
        "hashing json.dumps output without sort_keys=True: the digest "
        "depends on dict construction order, so equal payloads can hash "
        "differently"
    )
    example_bad = (
        "import hashlib\n"
        "import json\n"
        "\n"
        "\n"
        "def digest(payload: dict) -> str:\n"
        "    text = json.dumps(payload)  # expect: D104\n"
        "    return hashlib.sha256(text.encode()).hexdigest()\n"
    )
    example_good = (
        "import hashlib\n"
        "import json\n"
        "\n"
        "\n"
        "def digest(payload: dict) -> str:\n"
        "    text = json.dumps(payload, sort_keys=True)\n"
        "    return hashlib.sha256(text.encode()).hexdigest()\n"
    )

    def run(self):
        for _scope, nodes in _scopes(self.ctx.tree):
            self._check_scope(nodes)
        return self.findings

    def _dumps_without_sort(self, node: ast.AST) -> "ast.Call | None":
        if not isinstance(node, ast.Call):
            return None
        if _qualified(node.func, self.ctx) != "json.dumps":
            return None
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                if isinstance(value, ast.Constant) and value.value is False:
                    return node
                return None  # sort_keys passed (and not literal False)
        return node

    def _check_scope(self, nodes: list) -> None:
        unsorted_names: dict[str, ast.Call] = {}
        for node in nodes:
            if isinstance(node, ast.Assign):
                dumps = self._dumps_without_sort(node.value)
                if dumps is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            unsorted_names[target.id] = dumps
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            qual = _qualified(node.func, self.ctx)
            if qual is None or not qual.startswith("hashlib."):
                continue
            reported: set[int] = set()
            for arg in node.args:
                for sub in ast.walk(arg):
                    dumps = self._dumps_without_sort(sub)
                    if dumps is None and isinstance(sub, ast.Name):
                        dumps = unsorted_names.get(sub.id)
                    if dumps is not None and id(dumps) not in reported:
                        reported.add(id(dumps))
                        self.report(
                            dumps,
                            "json.dumps feeding a hash needs sort_keys=True — "
                            "the digest must not depend on dict build order",
                        )


_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClock(Rule):
    id = "D105"
    name = "wall-clock"
    severity = "error"
    summary = (
        "wall-clock read outside repro.bench: measured rows and digests "
        "must be pure functions of (scenario, n, seed)"
    )
    exempt_paths = ("repro/bench.py",)
    example_bad = (
        "import time\n"
        "\n"
        "\n"
        "def probe_timing(graph, metrics):\n"
        "    start = time.perf_counter()  # expect: D105\n"
        "    return {\"elapsed\": time.perf_counter() - start}  # expect: D105\n"
    )
    example_good = (
        "def probe_timing(graph, metrics):\n"
        "    return {\"probe_depth\": metrics.summary()[\"rounds\"]}\n"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qual = _qualified(node.func, self.ctx)
        if qual in _WALL_CLOCK:
            self.report(
                node,
                f"{qual}() is a wall-clock read; timing belongs in "
                f"repro.bench, never in measured results",
            )
        self.generic_visit(node)


class IdentityOrdering(Rule):
    id = "D106"
    name = "identity-ordering"
    severity = "error"
    summary = (
        "ordering by id() or hash(): both vary across process runs, so the "
        "order is unreproducible"
    )
    example_bad = (
        "def stable_nodes(nodes):\n"
        "    return sorted(nodes, key=id)  # expect: D106\n"
    )
    example_good = (
        "def stable_nodes(nodes):\n"
        "    return sorted(nodes, key=repr)\n"
    )

    _ORDERERS = frozenset({"sorted", "min", "max", "sort"})

    def visit_Call(self, node: ast.Call) -> None:
        name = _terminal_name(node.func)
        if name in self._ORDERERS:
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                bad = None
                if isinstance(value, ast.Name) and value.id in ("id", "hash"):
                    bad = value.id
                elif isinstance(value, ast.Lambda):
                    for sub in ast.walk(value.body):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id in ("id", "hash")
                        ):
                            bad = sub.func.id
                            break
                if bad is not None:
                    self.report(
                        node,
                        f"{name}(..., key={bad}) orders by per-process "
                        f"{bad}() values; key on a stable attribute "
                        f"(e.g. repr) instead",
                    )
        self.generic_visit(node)


class EnvironRead(Rule):
    id = "D107"
    name = "environ-read"
    severity = "error"
    summary = (
        "os.environ read outside plugin discovery: an environment variable "
        "is a hidden sweep axis no digest records"
    )
    exempt_paths = ("repro/api/algorithms.py",)
    example_bad = (
        "import os\n"
        "\n"
        "\n"
        "def horizon():\n"
        "    return int(os.environ.get(\"REPRO_HORIZON\", \"16\"))  # expect: D107\n"
    )
    example_good = (
        "def horizon(bound: int = 16) -> int:\n"
        "    return bound\n"
    )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _qualified(node, self.ctx) == "os.environ":
            self.report(
                node,
                "os.environ read: environment state is a hidden axis that "
                "never reaches rows or digests; take it as a parameter "
                "(plugin discovery in repro.api.algorithms is the one "
                "sanctioned reader)",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _qualified(node.func, self.ctx) == "os.getenv":
            self.report(
                node,
                "os.getenv read: environment state is a hidden axis that "
                "never reaches rows or digests; take it as a parameter",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# P-rules: protocol / spec contracts
# ----------------------------------------------------------------------
def _on_round_params(node) -> "tuple[str | None, str, str] | None":
    """``(self_name, ctx_name, inbox_name)`` of an ``on_round`` definition."""
    if node.name != "on_round":
        return None
    names = [arg.arg for arg in (*node.args.posonlyargs, *node.args.args)]
    self_name = None
    if names and names[0] == "self":
        self_name, names = names[0], names[1:]
    if len(names) < 2:
        return None
    return self_name, names[0], names[1]


_MUTATORS = frozenset({
    "clear", "append", "extend", "insert", "pop", "remove", "sort", "reverse",
    "popleft", "appendleft", "add", "discard", "update", "setdefault",
})


class InboxMutation(Rule):
    id = "P201"
    name = "inbox-mutation"
    severity = "error"
    summary = (
        "on_round mutating its Inbox view: the runner owns and reuses those "
        "buffers; clearing or editing them corrupts delivery"
    )
    example_bad = (
        "class Flood:\n"
        "    def on_round(self, ctx, inbox):\n"
        "        best = min(inbox.payloads, default=None)\n"
        "        inbox.senders.clear()  # expect: P201\n"
        "        if best is not None:\n"
        "            ctx.broadcast(best)\n"
    )
    example_good = (
        "class Flood:\n"
        "    def on_round(self, ctx, inbox):\n"
        "        best = min(inbox.payloads, default=None)\n"
        "        if best is not None:\n"
        "            ctx.broadcast(best)\n"
    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        params = _on_round_params(node)
        if params is not None:
            _self_name, _ctx_name, inbox_name = params
            self._check_body(node, inbox_name)
        self.generic_visit(node)

    def _is_inbox_rooted(self, node: ast.AST, inbox_name: str) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == inbox_name

    def _check_body(self, func, inbox_name: str) -> None:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS and self._is_inbox_rooted(
                    node.func.value, inbox_name
                ):
                    self.report(
                        node,
                        f"on_round calls .{node.func.attr}() on its Inbox "
                        f"view; the runner owns those buffers — copy what "
                        f"you need instead",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and self._is_inbox_rooted(target, inbox_name):
                        self.report(
                            node,
                            "on_round assigns into its Inbox view; the "
                            "runner owns those buffers",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if self._is_inbox_rooted(target, inbox_name) and not (
                        isinstance(target, ast.Name)
                    ):
                        self.report(
                            node, "on_round deletes from its Inbox view"
                        )


class ContextRetention(Rule):
    id = "P202"
    name = "context-retention"
    severity = "error"
    summary = (
        "on_round storing ctx/inbox on self: both are runner-pooled views, "
        "invalid outside the current round (and across restarts)"
    )
    example_bad = (
        "class Flood:\n"
        "    def on_round(self, ctx, inbox):\n"
        "        self.ctx = ctx  # expect: P202\n"
        "        self.ctx.broadcast(1)\n"
    )
    example_good = (
        "class Flood:\n"
        "    def on_round(self, ctx, inbox):\n"
        "        self.last_round = ctx.round\n"
        "        ctx.broadcast(1)\n"
    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        params = _on_round_params(node)
        if params is not None and params[0] is not None:
            self_name, ctx_name, inbox_name = params
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Assign):
                    continue
                value = sub.value
                if not (
                    isinstance(value, ast.Name)
                    and value.id in (ctx_name, inbox_name)
                ):
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        self.report(
                            sub,
                            f"on_round stores {value.id!r} on self; Context "
                            f"and Inbox are pooled per-round views — keep "
                            f"values, not the view",
                        )
        self.generic_visit(node)


class SeedIgnoringRng(Rule):
    id = "P203"
    name = "seed-ignoring-rng"
    severity = "error"
    summary = (
        "constant-seeded RNG inside a seed-taking function: every "
        "(scenario, n, seed) cell computes the identical run — the PR 4 "
        "silent-corruption class"
    )
    example_bad = (
        "import random\n"
        "\n"
        "\n"
        "def drive_demo(graph, seed, metrics):\n"
        "    rng = random.Random(42)  # expect: P203\n"
        "    return {\"draw\": rng.random()}\n"
    )
    example_good = (
        "import random\n"
        "\n"
        "\n"
        "def drive_demo(graph, seed, metrics):\n"
        "    rng = random.Random(seed)\n"
        "    return {\"draw\": rng.random()}\n"
    )

    _RNG_FACTORIES = ("random.Random", "numpy.random.default_rng",
                      "numpy.random.RandomState")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        arg_names = {arg.arg for arg in (*node.args.posonlyargs, *node.args.args,
                                         *node.args.kwonlyargs)}
        if "seed" in arg_names:
            for sub in ast.walk(node):
                if not (isinstance(sub, ast.Call) and sub.args):
                    continue
                qual = _qualified(sub.func, self.ctx)
                if qual not in self._RNG_FACTORIES:
                    continue
                if not any(_contains_names(arg) for arg in sub.args):
                    self.report(
                        sub,
                        f"{qual}({ast.unparse(sub.args[0])}) inside a "
                        f"seed-taking function ignores its seed — every "
                        f"cell of the seed axis repeats the same run",
                    )
        self.generic_visit(node)


class UnjsonScenarioParams(Rule):
    id = "P204"
    name = "unjson-scenario-params"
    severity = "error"
    summary = (
        "Scenario params that do not survive a JSON round trip: specs, "
        "stores, and digests all serialize params as JSON"
    )
    example_bad = (
        "def register(register_scenario, Scenario):\n"
        "    register_scenario(Scenario(\n"
        "        \"demo/er\", \"er\", \"demo\",\n"
        "        params=((\"quanta\", (1, 2)),),  # expect: P204\n"
        "    ))\n"
    )
    example_good = (
        "def register(register_scenario, Scenario):\n"
        "    register_scenario(Scenario(\n"
        "        \"demo/er\", \"er\", \"demo\",\n"
        "        params=((\"quanta\", [1, 2]),),\n"
        "    ))\n"
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _terminal_name(node.func) == "Scenario":
            for keyword in node.keywords:
                if keyword.arg == "params":
                    self._check_params(keyword.value)
        self.generic_visit(node)

    def _check_value(self, key_text: str, value: ast.AST) -> None:
        if isinstance(value, ast.Tuple):
            self.report(
                value,
                f"params[{key_text}] is a tuple literal; JSON round-trips "
                f"it to a list — declare a list",
            )
        elif _json_safe_literal(value) is False:
            self.report(
                value,
                f"params[{key_text}] is not JSON-round-trippable (sets, "
                f"bytes, and non-string keys do not survive the spec/store "
                f"serialization)",
            )

    def _check_params(self, params: ast.AST) -> None:
        if isinstance(params, ast.Dict):
            for key, value in zip(params.keys, params.values):
                if key is None:
                    continue
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    self.report(key or params, "params keys must be string literals")
                    continue
                self._check_value(repr(key.value), value)
            return
        if isinstance(params, (ast.Tuple, ast.List)):
            for pair in params.elts:
                if not isinstance(pair, (ast.Tuple, ast.List)) or len(pair.elts) != 2:
                    continue  # not a literal pair; nothing checkable
                key, value = pair.elts
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    self.report(key, "params keys must be string literals")
                    continue
                self._check_value(repr(key.value), value)


class UndeclaredQualityColumn(Rule):
    id = "P205"
    name = "undeclared-quality-column"
    severity = "error"
    summary = (
        "driver-returned quality columns must be string-keyed, JSON-safe, "
        "and distinct from the core ROW_FIELDS (collisions raise at run "
        "time, deep inside a sweep)"
    )
    example_bad = (
        "def drive_demo(graph, metrics):\n"
        "    return {\"rounds\": 3}  # expect: P205\n"
    )
    example_good = (
        "def drive_demo(graph, metrics):\n"
        "    return {\"tree_weight\": 3}\n"
    )

    def _is_driver(self, node) -> bool:
        if node.name.startswith("drive_"):
            return True
        names = [arg.arg for arg in (*node.args.posonlyargs, *node.args.args)]
        return names[:3] == ["graph", "seed", "metrics"]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._is_driver(node):
            self._check_returns(node)
        self.generic_visit(node)

    def _check_returns(self, func) -> None:
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs return their own things
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                self._check_dict(node.value)
            stack.extend(ast.iter_child_nodes(node))

    def _check_dict(self, mapping: ast.Dict) -> None:
        for key, value in zip(mapping.keys, mapping.values):
            if key is None:
                continue  # **spread: not statically checkable
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                self.report(
                    key,
                    "quality column keys must be string literals — they "
                    "become JSONL row columns",
                )
                continue
            if key.value in ROW_FIELDS_SNAPSHOT or key.value == "metrics":
                self.report(
                    key,
                    f"quality column {key.value!r} collides with a core "
                    f"ROW_FIELDS column; the sweep engine rejects the row "
                    f"at run time",
                )
            if _json_safe_literal(value) is False:
                self.report(
                    value,
                    f"quality column {key.value!r} carries a non-JSON-safe "
                    f"literal; rows must survive the JSONL store round trip",
                )


#: Every registered rule, id-sorted; the engine and CLI consume this.
RULES = sorted(
    (
        UnseededRandom,
        GlobalRngSeed,
        UnsortedSetIteration,
        UnsortedJsonDigest,
        WallClock,
        IdentityOrdering,
        EnvironRead,
        InboxMutation,
        ContextRetention,
        SeedIgnoringRng,
        UnjsonScenarioParams,
        UndeclaredQualityColumn,
    ),
    key=lambda rule: rule.id,
)
