"""The project-specific rules: documented contracts, machine-checked.

Each rule enforces an invariant an earlier PR established by convention
and DESIGN.md documents in prose (see "Static invariants" there). Rules
are deliberately narrow: they prove a violation from the AST alone and
never guess — anything genuinely intentional goes through an inline
suppression or the committed baseline, both of which are themselves
audited (unused suppressions and stale baseline entries are findings).
"""

from __future__ import annotations

import ast

from repro.devtools.lint.registry import register_rule

# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #


def _dotted(node: "ast.AST | None") -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` otherwise."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _walk_with_function_stack(tree: ast.AST):
    """Yield ``(node, function_name_stack)`` over the whole tree."""

    def visit(node: ast.AST, stack: "tuple[str, ...]"):
        yield node, stack
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + (node.name,)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, stack)

    yield from visit(tree, ())


def _function_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _statement_blocks(tree: ast.AST):
    """Every list of statements in the tree (module/function/branch bodies)."""
    for node in ast.walk(tree):
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(node, attr, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


# --------------------------------------------------------------------- #
# REPRO001 — named-error policy
# --------------------------------------------------------------------- #

#: Builtins the library must never raise bare — callers are promised one
#: catchable ReproError family (errors.py). NotImplementedError and
#: StopIteration stay legal: they are protocol, not error reporting.
_BARE_BUILTINS = frozenset({
    "KeyError", "TypeError", "ValueError", "IndexError",
    "AttributeError", "RuntimeError", "Exception",
})


@register_rule(
    "REPRO001",
    name="error-policy",
    rationale=(
        "Library code raises the repro.errors hierarchy, never bare "
        "builtins: callers catch ReproError as one family, and the named "
        "subclasses carry the context a bare KeyError loses (PR 5 removed "
        "the last registry KeyError/TypeError leaks)."
    ),
)
def check_error_policy(ctx):
    if not ctx.in_repro_source() or ctx.path == "src/repro/errors.py":
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        if name in _BARE_BUILTINS:
            yield ctx.finding(
                check_error_policy._rule, node,
                f"bare `raise {name}` in a public module — raise a "
                "repro.errors subclass (e.g. ValidationError) so callers "
                "can catch the ReproError family",
            )


# --------------------------------------------------------------------- #
# REPRO002 — fingerprint boundary
# --------------------------------------------------------------------- #

#: Functions that feed content keys (store addresses, campaign node
#: keys, kernel fingerprints). DESIGN.md "KernelSpec is the fingerprint
#: boundary" / "Campaign node keys".
_KEY_FUNCS = frozenset({
    "fingerprint", "_fingerprint_extra", "stable_config",
    "node_key", "context_cache_record", "gram_key", "tile_key",
    "tile_keyer_for",
})

#: ExecutionContext fields that are scheduling/persistence, not values.
#: The engine-equivalence tests pin these to identical results, so they
#: must never enter a content key: moving a campaign to another store or
#: engine must *skip*, not recompute.
_SCHEDULE_FIELDS = frozenset({
    "engine", "tile_size", "store", "sink", "sink_factory",
    "tile_checkpoint",
})


@register_rule(
    "REPRO002",
    name="fingerprint-boundary",
    rationale=(
        "Key-producing functions (fingerprint/node_key/gram_key) may read "
        "only value-relevant ExecutionContext fields; engine, tile size "
        "and store placement are scheduling and must not leak into "
        "content keys (PR 5/PR 8 cache-boundary design)."
    ),
)
def check_fingerprint_boundary(ctx):
    if not ctx.in_repro_source():
        return
    rule = check_fingerprint_boundary._rule
    for func in _function_defs(ctx.tree):
        if func.name not in _KEY_FUNCS:
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr in _SCHEDULE_FIELDS:
                yield ctx.finding(
                    rule, node,
                    f"key function {func.name}() reads schedule-only field "
                    f".{node.attr} — only value-relevant fields (normalize, "
                    "ensure_psd, precision, entropy) may enter a "
                    "content key",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in _SCHEDULE_FIELDS
            ):
                yield ctx.finding(
                    rule, node,
                    f"key function {func.name}() reads schedule-only record "
                    f"field {node.args[0].value!r} — scheduling must not "
                    "enter a content key",
                )
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and node.slice.value in _SCHEDULE_FIELDS
            ):
                yield ctx.finding(
                    rule, node,
                    f"key function {func.name}() reads schedule-only record "
                    f"field {node.slice.value!r} — scheduling must not "
                    "enter a content key",
                )


# --------------------------------------------------------------------- #
# REPRO003 — lock discipline
# --------------------------------------------------------------------- #


@register_rule(
    "REPRO003",
    name="lock-discipline",
    rationale=(
        "Locks are held through `with`, never a naked .acquire(): every "
        "early return/exception path must release, and `with` proves it "
        "structurally. The one legal manual form is acquire immediately "
        "followed by try/finally releasing the same lock."
    ),
)
def check_lock_discipline(ctx):
    if not ctx.in_repro_source():
        return
    rule = check_lock_discipline._rule
    allowed: "set[int]" = set()
    for block in _statement_blocks(ctx.tree):
        for index, stmt in enumerate(block):
            call = _acquire_call(stmt)
            if call is None:
                continue
            receiver = _dotted(call.func.value)
            follower = block[index + 1] if index + 1 < len(block) else None
            if (
                receiver
                and isinstance(follower, ast.Try)
                and any(
                    _is_release_of(inner, receiver)
                    for fin in follower.finalbody
                    for inner in ast.walk(fin)
                )
            ):
                allowed.add(id(call))
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and id(node) not in allowed
        ):
            receiver = _dotted(node.func.value) or "<lock>"
            yield ctx.finding(
                rule, node,
                f"{receiver}.acquire() without a try/finally "
                f"{receiver}.release() — hold locks via `with {receiver}:`",
            )


def _acquire_call(stmt: ast.stmt) -> "ast.Call | None":
    value = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "acquire"
    ):
        return value
    return None


def _is_release_of(node: ast.AST, receiver: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "release"
        and _dotted(node.func.value) == receiver
    )


# --------------------------------------------------------------------- #
# REPRO004 — clock discipline
# --------------------------------------------------------------------- #

#: Modules whose time-dependent behaviour must flow through an injected
#: ``clock`` parameter so lease/backoff/uptime tests run in virtual time.
#: ``time.monotonic`` stays legal — it measures *elapsed* real time
#: (poll loops, deadlines on real blocking), which no FakeClock can
#: meaningfully replace.
_CLOCK_PATHS = (
    "src/repro/store/claims.py",
    "src/repro/serve/jobs.py",
    "src/repro/serve/batcher.py",
    "src/repro/serve/server.py",
    "src/repro/campaign/db.py",
)


@register_rule(
    "REPRO004",
    name="clock-discipline",
    rationale=(
        "Lease, backoff and uptime logic reads wall-clock time only "
        "through an injected clock (the store.claims FakeClock seam, "
        "PR 7/8): a naked time.time() makes expiry untestable without "
        "real sleeps and un-fakeable in virtual-time tests."
    ),
)
def check_clock_discipline(ctx):
    if not any(ctx.path.startswith(prefix) for prefix in _CLOCK_PATHS):
        return
    rule = check_clock_discipline._rule
    bare_time_imported = any(
        isinstance(node, ast.ImportFrom)
        and node.module == "time"
        and any(alias.name == "time" for alias in node.names)
        for node in ast.walk(ctx.tree)
    )
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        is_naked = (
            _dotted(node.func) == "time.time"
            or (
                bare_time_imported
                and isinstance(node.func, ast.Name)
                and node.func.id == "time"
            )
        )
        if is_naked:
            yield ctx.finding(
                rule, node,
                "naked time.time() call in a clock-disciplined module — "
                "read the injected `clock` (default `clock=time.time` in "
                "the constructor is the one legal reference)",
            )


# --------------------------------------------------------------------- #
# REPRO005 — sqlite transaction discipline
# --------------------------------------------------------------------- #

#: The transaction/read helpers a shared-connection module must route
#: every statement through (their bodies are the one place a raw
#: ``self._conn.execute`` is legal).
_TXN_HELPERS = frozenset({"_txn", "_read"})

_EXECUTE_METHODS = frozenset({"execute", "executemany", "executescript"})


@register_rule(
    "REPRO005",
    name="sqlite-discipline",
    rationale=(
        "Every statement on a shared sqlite connection runs inside the "
        "module's _txn()/_read() helper: _txn serialises writers with "
        "BEGIN IMMEDIATE and guarantees COMMIT-or-ROLLBACK, so a process "
        "killed at any point leaves whole rows, never torn ones (the "
        "durability contract of CampaignDB and the server's JobTable)."
    ),
)
def check_sqlite_discipline(ctx):
    if not ctx.in_repro_source():
        return
    rule = check_sqlite_discipline._rule
    for node, stack in _walk_with_function_stack(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _EXECUTE_METHODS
            and _dotted(node.func.value).endswith("._conn")
            and not any(name in _TXN_HELPERS for name in stack)
        ):
            yield ctx.finding(
                rule, node,
                f"raw {_dotted(node.func.value)}.{node.func.attr}() outside "
                "the _txn()/_read() helpers — shared-connection statements "
                "must run inside one committed transaction",
            )


# --------------------------------------------------------------------- #
# REPRO006 — float64 accumulation in backend reductions
# --------------------------------------------------------------------- #

#: Reductions in ``repro.backend`` contracted to return float64 whatever
#: the compute precision: the eigensolver entropy sum (support.py) and
#: the Chebyshev trace and spectral-bound reductions (chebyshev.py).
_REDUCTIONS = frozenset({"eig_entropies", "trace", "pair_trace", "gershgorin"})


@register_rule(
    "REPRO006",
    name="float64-accumulation",
    rationale=(
        "Backend reductions accumulate and return float64 even when "
        "compute runs float32 — the mixed-precision accuracy tiers "
        "(DESIGN.md 'why accumulation stays float64', PR 6) assume tile "
        "sums never inherit float32 round-off. A float32 accumulator "
        "silently breaks the documented 1e-5 tier."
    ),
)
def check_float64_accumulation(ctx):
    if not ctx.path.startswith("src/repro/backend/"):
        return
    rule = check_float64_accumulation._rule
    for func in _function_defs(ctx.tree):
        if func.name not in _REDUCTIONS:
            continue
        for node in ast.walk(func):
            is_float32 = (
                isinstance(node, ast.Attribute) and node.attr == "float32"
            ) or (
                isinstance(node, ast.Constant) and node.value == "float32"
            )
            if is_float32:
                yield ctx.finding(
                    rule, node,
                    f"float32 in reduction {func.name}() — backend "
                    "reductions accumulate and return float64",
                )


# --------------------------------------------------------------------- #
# REPRO007 — no mutable default arguments
# --------------------------------------------------------------------- #

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})


@register_rule(
    "REPRO007",
    name="mutable-defaults",
    rationale=(
        "A mutable default is one shared object across every call — "
        "state leaks between Sessions/requests in the long-lived serving "
        "process. Use None plus an in-body default (or "
        "dataclasses.field(default_factory=...))."
    ),
)
def check_mutable_defaults(ctx):
    rule = check_mutable_defaults._rule
    for func in _function_defs(ctx.tree):
        defaults = list(func.args.defaults)
        defaults.extend(d for d in func.args.kw_defaults if d is not None)
        for default in defaults:
            if _is_mutable_literal(default):
                yield ctx.finding(
                    rule, default,
                    f"mutable default argument in {func.name}() — one "
                    "object is shared across every call; default to None "
                    "and materialise inside the body",
                )


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_FACTORIES
    )


# --------------------------------------------------------------------- #
# REPRO008 — thread-spawn hygiene
# --------------------------------------------------------------------- #


@register_rule(
    "REPRO008",
    name="thread-hygiene",
    rationale=(
        "Every threading.Thread is daemon=True (dies with a crashing "
        "owner — the worker-heartbeat rationale, PR 7) or joined by the "
        "code that spawned it; an untracked non-daemon thread keeps the "
        "process alive after close() and leaks under test."
    ),
)
def check_thread_hygiene(ctx):
    if not ctx.in_repro_source():
        return
    rule = check_thread_hygiene._rule
    assigned: "dict[int, str]" = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = _dotted(node.targets[0])
            if target:
                assigned[id(node.value)] = target
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and _is_thread_ctor(node.func)):
            continue
        daemon = next(
            (kw.value for kw in node.keywords if kw.arg == "daemon"), None
        )
        if isinstance(daemon, ast.Constant) and daemon.value is True:
            continue
        target = assigned.get(id(node))
        attr = target.split(".")[-1] if target else None
        if attr and f"{attr}.join(" in ctx.source:
            continue
        yield ctx.finding(
            rule, node,
            "threading.Thread is neither daemon=True nor joined by its "
            "owner — pass daemon=True, or keep a handle and join it in "
            "close()",
        )


def _is_thread_ctor(func: ast.AST) -> bool:
    if isinstance(func, ast.Attribute):
        return func.attr == "Thread" and _dotted(func.value) == "threading"
    return isinstance(func, ast.Name) and func.id == "Thread"


# --------------------------------------------------------------------- #
# REPRO009 — public-surface guard
# --------------------------------------------------------------------- #

_EXPORTS_FILE = "tests/api/expected_exports.txt"
_INIT_FILE = "src/repro/__init__.py"
_REGEN_HINT = (
    "after review, regenerate with: PYTHONPATH=src python -c "
    "\"import repro; print('\\n'.join(sorted(repro.__all__)))\" "
    f"> {_EXPORTS_FILE}"
)


@register_rule(
    "REPRO009",
    name="public-surface",
    rationale=(
        "repro.__all__ and the committed tests/api/expected_exports.txt "
        "agree exactly: adding or dropping a top-level export is a "
        "reviewed decision (PR 5), and lint reports the symbol-level diff "
        "with a regeneration hint instead of a bare test assertion."
    ),
    scope="project",
)
def check_public_surface(project):
    from repro.devtools.lint.findings import Finding

    rule = check_public_surface._rule
    init_source = project.read(_INIT_FILE)
    if init_source is None:
        # No top-level package under this root (e.g. a fixture project):
        # there is no public surface to guard.
        return
    expected_text = project.read(_EXPORTS_FILE)
    if expected_text is None:
        yield Finding(
            rule=rule.id, rule_name=rule.name, path=_EXPORTS_FILE, line=1,
            message=(
                f"{_INIT_FILE} declares a public surface but "
                f"{_EXPORTS_FILE} is missing; {_REGEN_HINT}"
            ),
        )
        return
    declared, line = _parse_all(init_source)
    if declared is None:
        yield Finding(
            rule=rule.id, rule_name=rule.name, path=_INIT_FILE, line=1,
            message="__all__ must be a literal list of strings",
        )
        return
    expected = {entry.strip() for entry in expected_text.splitlines() if entry.strip()}
    for symbol in sorted(set(declared) - expected):
        yield Finding(
            rule=rule.id, rule_name=rule.name, path=_INIT_FILE, line=line,
            message=(
                f"accidental export: {symbol!r} is in repro.__all__ but "
                f"not in {_EXPORTS_FILE}; {_REGEN_HINT}"
            ),
            snippet=f"__all__ += [{symbol!r}]",
        )
    for symbol in sorted(expected - set(declared)):
        yield Finding(
            rule=rule.id, rule_name=rule.name, path=_INIT_FILE, line=line,
            message=(
                f"unexported public symbol: {symbol!r} is promised by "
                f"{_EXPORTS_FILE} but missing from repro.__all__; "
                f"{_REGEN_HINT}"
            ),
            snippet=f"__all__ -= [{symbol!r}]",
        )


def _parse_all(source: str) -> "tuple[list[str] | None, int]":
    tree = ast.parse(source)
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        value = node.value
        if isinstance(value, (ast.List, ast.Tuple)) and all(
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            for elt in value.elts
        ):
            return [elt.value for elt in value.elts], node.lineno
        return None, node.lineno
    return None, 1


# --------------------------------------------------------------------- #
# REPRO010 — environment discipline
# --------------------------------------------------------------------- #

#: The library's environment readers: the execution context
#: (``ExecutionContext.from_env``) and the registry's protocol-scale
#: switch ``REPRO_FULL_SCALE``, which enters kernel fingerprints.
_ENV_READERS = frozenset({
    "src/repro/api/context.py",
    "src/repro/kernels/registry.py",
})


@register_rule(
    "REPRO010",
    name="environment-discipline",
    rationale=(
        "Execution is selected in one place: only ExecutionContext.from_env "
        "reads the REPRO_* environment. A read anywhere else is a hidden "
        "second selector beneath an explicit context, and the records, "
        "node keys and report footers built from that context would no "
        "longer describe the run. Writes stay legal."
    ),
)
def check_environment_discipline(ctx):
    if not ctx.in_repro_source() or ctx.path in _ENV_READERS:
        return
    rule = check_environment_discipline._rule
    environ, getenv = {"os.environ"}, {"os.getenv"}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name == "environ":
                    environ.add(alias.asname or alias.name)
                elif alias.name == "getenv":
                    getenv.add(alias.asname or alias.name)
    for node in ast.walk(ctx.tree):
        read = None
        if isinstance(node, ast.Call):
            func = _dotted(node.func)
            if func in getenv or (
                func.endswith(".get") and func[: -len(".get")] in environ
            ):
                read = f"{func}()"
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and _dotted(node.value) in environ
        ):
            read = f"{_dotted(node.value)}[...]"
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) and _dotted(right) in environ
            for op, right in zip(node.ops, node.comparators)
        ):
            read = "`in os.environ`"
        if read is not None:
            yield ctx.finding(
                rule, node,
                f"{read} reads the environment outside "
                "ExecutionContext.from_env — take a ctx= and let the entry "
                "point build it from the environment",
            )


# --------------------------------------------------------------------- #
# Back-references: each checker knows its Rule record (set at import).
# --------------------------------------------------------------------- #

def _bind_rules() -> None:
    from repro.devtools.lint.registry import all_rules

    checkers = {
        "REPRO001": check_error_policy,
        "REPRO002": check_fingerprint_boundary,
        "REPRO003": check_lock_discipline,
        "REPRO004": check_clock_discipline,
        "REPRO005": check_sqlite_discipline,
        "REPRO006": check_float64_accumulation,
        "REPRO007": check_mutable_defaults,
        "REPRO008": check_thread_hygiene,
        "REPRO009": check_public_surface,
        "REPRO010": check_environment_discipline,
    }
    for rule in all_rules():
        if rule.id in checkers:
            checkers[rule.id]._rule = rule


_bind_rules()
