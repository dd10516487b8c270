"""Footprint pass: every rule's declared footprint matches its check body.

The fused engine (:mod:`repro.core.rules.fused`) feeds each rule only the
facts its :class:`~repro.core.rules.fused.Footprint` declaration names —
a rule whose ``check`` body reads more than it declares would silently
lose findings the moment the fused engine becomes the default.  This pass
makes that impossible: it re-derives each rule's footprint from the AST
of its reference ``check`` implementation and errors when declaration and
analysis diverge.

What the analyzer extracts from a ``check(self, result)`` body:

* **events** — ``result.events_of("kind")`` literals, and iteration of
  ``result.events`` filtered by ``event.kind == ...`` / ``event.kind in
  CONST`` (class or module constants are resolved);
* **errors** — ``result.errors_of(ErrorCode.X)`` and ``error.code ==
  ErrorCode.X`` comparisons;
* **token attributes** — use of ``iter_start_tag_attrs`` /
  ``result.tokens`` / ``result.start_tags``; the attribute-name variable's
  comparisons narrow the footprint (``name == "target"``, ``name in
  URL_ATTRIBUTES``), otherwise the wildcard ``"*"`` is required;
* **tags** — DOM walks via ``result.document.iter_elements()`` (directly
  or through a same-module helper): tag-name guards that dominate every
  use of the element variable narrow the footprint, any unguarded read
  widens it to ``"*"``;
* **regions** — calls to helpers that scan ``ancestors()`` against a
  literal element name (``head``/``body``) and reads of
  ``result.document.doctype``.

Streamability — the properties the one-pass engine relies on — is
verified over the same body:

* no assignment to ``self.*`` (cross-call state would leak between
  documents when one rule instance is reused);
* no mutation of the :class:`ParseResult` (assignments into ``result``
  or calls to mutating methods on its collections);
* no re-ordering of shared streams (``sorted``/``reversed`` over
  ``result``-rooted data — the fused walk delivers document order and
  nothing else);
* no regex construction (``re.compile`` *and* the implicitly-compiling
  ``re.match``/``re.search``/... calls) inside ``check`` — patterns must
  be hoisted to module level so the hot path never re-compiles.

Handler consistency rides along: every non-empty footprint field must
have its ``fused_*`` handler implemented on the class (or a same-module
base), or the fused compiler would reject the registry at import time.

``fused_element`` handlers carry one extra obligation: the stream check
(``Checker.check_bytes``, the production parse) feeds them the elements
the tree builder emitted in pre-order *during* the parse, whose text
children are never materialized.  A handler reading ``.children`` or
``.parent`` would therefore see a text-free tree there and a full one
under ``check_parse`` of a full DOM — a silent parity break the fuzz
oracle can only catch after the fact.  The pass bans those reads
statically.
"""
from __future__ import annotations

import ast
from typing import Callable

from ..engine import LintPass, SourceFile, attribute_chain, literal_str
from .registry_consistency import _rule_classes_in

PASS_ID = "footprint"

#: footprint field -> fused handler method it requires
HANDLER_FOR_FIELD = {
    "events": "fused_event",
    "errors": "fused_error",
    "token_attrs": "fused_attr",
    "tags": "fused_element",
}

#: list/dict methods that mutate in place — forbidden on result-rooted data
_MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort",
     "reverse", "update", "setdefault", "popitem"}
)

#: every ``re.<name>`` call below builds or implicitly compiles a pattern
_REGEX_CALLS = frozenset(
    {"compile", "match", "fullmatch", "search", "sub", "subn", "split",
     "findall", "finditer", "escape", "template"}
)

_FOOTPRINT_FIELDS = ("events", "errors", "token_attrs", "tags", "regions")

#: declared-only fields: a hint to the engine that the analyzer cannot
#: re-derive from ``check``; it must be a string, and the fused compiler
#: rejects it without ``token_attrs``
_HINT_FIELDS = ("value_chars",)

#: tree-structure attributes forbidden inside ``fused_element`` handlers:
#: the stream check emits elements pre-order during the parse, without
#: text children — structural reads would diverge from the full DOM walk
_STRUCTURE_ATTRS = frozenset({"children", "parent"})


class _Unresolvable(Exception):
    """A declaration/constant the evaluator cannot statically resolve."""


def _evaluate(node: ast.AST, resolve: Callable[[str], object]):
    """Statically evaluate the constant sub-language footprints use.

    Literals, tuples/lists/sets, name references to resolvable constants,
    ``frozenset(...)``/``tuple(...)``/``sorted(...)`` calls over those,
    and ``|`` unions — exactly what the rule modules' declarations need,
    nothing more.
    """
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(_evaluate(element, resolve) for element in node.elts)
    if isinstance(node, ast.Set):
        return frozenset(_evaluate(element, resolve) for element in node.elts)
    if isinstance(node, ast.Name):
        return resolve(node.id)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        # class constants referenced as self._KINDS etc.
        return resolve(node.attr)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _evaluate(node.left, resolve)
        right = _evaluate(node.right, resolve)
        if isinstance(left, frozenset) and isinstance(right, frozenset):
            return left | right
        raise _Unresolvable(ast.dump(node))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.keywords or len(node.args) != 1:
            raise _Unresolvable(ast.dump(node))
        inner = _evaluate(node.args[0], resolve)
        if node.func.id == "frozenset":
            return frozenset(inner)
        if node.func.id == "tuple":
            return tuple(inner)
        if node.func.id == "sorted":
            return tuple(sorted(inner))
    raise _Unresolvable(ast.dump(node))


def _as_name_set(value) -> frozenset[str]:
    if isinstance(value, str):
        return frozenset((value,))
    if isinstance(value, (tuple, list, frozenset, set)):
        if all(isinstance(item, str) for item in value):
            return frozenset(value)
    raise _Unresolvable(repr(value))


def _references(node: ast.AST, var: str) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id == var
        for child in ast.walk(node)
    )


def _conjuncts(test: ast.AST) -> list[ast.AST]:
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return list(test.values)
    return [test]


class _ClassRecord:
    """One concrete rule class queued for analysis at finish()."""

    __slots__ = ("file", "node", "chain")

    def __init__(self, file: SourceFile, node: ast.ClassDef,
                 chain: list[ast.ClassDef]) -> None:
        self.file = file
        self.node = node
        self.chain = chain  # local MRO: class itself, then local bases


class FootprintPass(LintPass):
    id = PASS_ID
    name = "Rule footprint verification"
    description = (
        "each Rule's declared Footprint matches the AST-analyzed footprint "
        "of its check body; check bodies are streamable (no ParseResult "
        "mutation, cross-call state, re-sorting, or inline regex "
        "construction); fused_* handlers exist for every declared field and "
        "fused_element bodies never read tree structure (.children/.parent), "
        "which the stream check mode has not built yet"
    )

    def __init__(self) -> None:
        super().__init__()
        #: module-level constants across all scanned files, name -> value
        self._constants: dict[str, object] = {}
        #: module-level functions: (file rel, name) -> FunctionDef
        self._functions: dict[tuple[str, str], ast.FunctionDef] = {}
        self._records: list[_ClassRecord] = []

    # ------------------------------------------------------------ collection

    def select(self, file: SourceFile) -> bool:
        return True

    def begin_file(self, file: SourceFile) -> None:
        for node in file.tree.body:
            if isinstance(node, ast.FunctionDef):
                self._functions[(file.rel, node.name)] = node
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    try:
                        value = _evaluate(node.value, self._resolve_constant)
                    except _Unresolvable:
                        continue
                    self._constants[target.id] = value
        rule_classes = _rule_classes_in(file.tree)
        for name, node in rule_classes.items():
            if name.startswith("_"):
                continue  # abstract helper; analyzed through its subclasses
            chain = [node]
            cursor = node
            while True:
                base = next(
                    (rule_classes[b] for b in _class_base_names(cursor)
                     if b in rule_classes),
                    None,
                )
                if base is None or base in chain:
                    break
                chain.append(base)
                cursor = base
            self._records.append(_ClassRecord(file, node, chain))

    def _resolve_constant(self, name: str):
        if name in self._constants:
            return self._constants[name]
        raise _Unresolvable(name)

    # -------------------------------------------------------------- analysis

    def finish(self) -> None:
        analyzed = 0
        for record in self._records:
            if self._analyze_class(record):
                analyzed += 1
        self.metrics["rules_analyzed"] = analyzed

    def _class_attr(self, record: _ClassRecord, name: str) -> ast.AST | None:
        for node in record.chain:
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        if isinstance(target, ast.Name) and target.id == name:
                            return statement.value
                elif isinstance(statement, ast.AnnAssign):
                    if (
                        isinstance(statement.target, ast.Name)
                        and statement.target.id == name
                        and statement.value is not None
                    ):
                        return statement.value
        return None

    def _class_method(self, record: _ClassRecord, name: str) -> ast.FunctionDef | None:
        for node in record.chain:
            for statement in node.body:
                if isinstance(statement, ast.FunctionDef) and statement.name == name:
                    return statement
        return None

    def _resolve_for_class(self, record: _ClassRecord) -> Callable[[str], object]:
        def resolve(name: str):
            value_node = self._class_attr(record, name)
            if value_node is not None:
                return _evaluate(value_node, resolve)
            return self._resolve_constant(name)

        return resolve

    def _analyze_class(self, record: _ClassRecord) -> bool:
        file, node = record.file, record.node
        check = self._class_method(record, "check")
        if check is None:
            return False  # abstract at runtime; nothing to verify
        declared_node = self._class_attr(record, "footprint")
        if declared_node is None:
            self.report(
                file, node,
                f"rule {node.name} has no declared footprint",
                fix_hint="add a class-level `footprint = Footprint(...)` "
                "declaration so the fused engine can subscribe it",
            )
            return False
        resolve = self._resolve_for_class(record)
        declared = self._evaluate_footprint(file, node, declared_node, resolve)
        if declared is None:
            return False
        analyzer = _CheckAnalyzer(self, file, record, resolve)
        analyzed = analyzer.run(check)
        for field in _FOOTPRINT_FIELDS:
            left, right = declared.get(field, frozenset()), analyzed[field]
            if left != right:
                self.report(
                    file, declared_node,
                    f"rule {node.name} footprint field {field!r} diverges "
                    f"from its check body: declared "
                    f"{sorted(left) or '(empty)'}, analyzed "
                    f"{sorted(right) or '(empty)'}",
                    fix_hint="the declaration and the reference check must "
                    "read exactly the same facts; update whichever is wrong",
                )
        for field, method in HANDLER_FOR_FIELD.items():
            if declared.get(field) and self._class_method(record, method) is None:
                self.report(
                    file, node,
                    f"rule {node.name} declares footprint.{field} but does "
                    f"not implement {method}()",
                    fix_hint="the fused compiler rejects a subscribed rule "
                    "without its streaming handler",
                )
        handler = self._class_method(record, "fused_element")
        if handler is not None:
            self._check_element_handler_stream_safe(file, node, handler)
        return True

    def _check_element_handler_stream_safe(
        self, file: SourceFile, cls: ast.ClassDef, handler: ast.FunctionDef
    ) -> None:
        """Ban ``.children`` / ``.parent`` reads in fused_element bodies."""
        for node in ast.walk(handler):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _STRUCTURE_ATTRS
            ):
                self.report(
                    file, node,
                    f"rule {cls.name} fused_element() reads .{node.attr} — "
                    "the stream check mode delivers elements pre-order "
                    "during the parse, before tree structure is complete",
                    fix_hint="derive structural context from the walk "
                    "(the in_head flag, the per-document state dict), "
                    "never from the node's own links",
                )

    def _evaluate_footprint(
        self,
        file: SourceFile,
        cls: ast.ClassDef,
        declared: ast.AST,
        resolve: Callable[[str], object],
    ) -> dict[str, frozenset[str]] | None:
        if not (
            isinstance(declared, ast.Call)
            and isinstance(declared.func, ast.Name)
            and declared.func.id == "Footprint"
            and not declared.args
        ):
            self.report(
                file, declared,
                f"rule {cls.name} footprint is not a keyword-only "
                "Footprint(...) call",
                fix_hint="declare `footprint = Footprint(events=..., ...)` "
                "with statically evaluable values",
            )
            return None
        fields: dict[str, frozenset[str]] = {}
        for keyword in declared.keywords:
            if keyword.arg in _HINT_FIELDS:
                try:
                    hint = _evaluate(keyword.value, resolve)
                except _Unresolvable:
                    hint = None
                if not isinstance(hint, str):
                    self.report(
                        file, declared,
                        f"rule {cls.name} footprint field {keyword.arg!r} "
                        "is not a statically evaluable string",
                    )
                    return None
                continue
            if keyword.arg not in _FOOTPRINT_FIELDS:
                self.report(
                    file, declared,
                    f"rule {cls.name} footprint has unknown field "
                    f"{keyword.arg!r}",
                )
                return None
            try:
                fields[keyword.arg] = _as_name_set(
                    _evaluate(keyword.value, resolve)
                )
            except _Unresolvable:
                self.report(
                    file, declared,
                    f"rule {cls.name} footprint field {keyword.arg!r} is "
                    "not statically evaluable",
                    fix_hint="use literals or module/class constants the "
                    "analyzer can resolve",
                )
                return None
        return fields

    # ------------------------------------------------------- helper analysis

    def _helper(self, file: SourceFile, name: str) -> ast.FunctionDef | None:
        return self._functions.get((file.rel, name))

    def _helper_region(self, func: ast.FunctionDef) -> str | None:
        """``head``/``body`` when ``func`` scans ancestors for that name."""
        uses_ancestors = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "ancestors"
            for node in ast.walk(func)
        )
        if not uses_ancestors:
            return None
        for node in ast.walk(func):
            if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                continue
            if not isinstance(node.ops[0], ast.Eq):
                continue
            sides = (node.left, node.comparators[0])
            for this, other in (sides, sides[::-1]):
                if (
                    isinstance(this, ast.Attribute)
                    and this.attr == "name"
                    and literal_str(other) in ("head", "body")
                ):
                    return literal_str(other)
        return None

    def _helper_tree_tags(
        self, func: ast.FunctionDef, resolve: Callable[[str], object]
    ) -> frozenset[str] | None:
        """Tag set a tree helper narrows to; None when it is no tree helper."""
        if not func.args.args:
            return None
        result_var = func.args.args[0].arg
        for node in ast.walk(func):
            if not isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                continue
            for generator in node.generators:
                if not _is_iter_elements_call(generator.iter, result_var):
                    continue
                if not isinstance(generator.target, ast.Name):
                    return frozenset(("*",))
                var = generator.target.id
                tags: set[str] = set()
                for test in generator.ifs:
                    for conjunct in _conjuncts(test):
                        names = _name_test(
                            conjunct, _element_name_matcher(var), resolve
                        )
                        if names is not None:
                            tags |= names
                return frozenset(tags) if tags else frozenset(("*",))
        return None


def _class_base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_iter_elements_call(node: ast.AST, result_var: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attribute_chain(node.func)
    return chain == (result_var, "document", "iter_elements")


def _element_name_matcher(var: str) -> Callable[[ast.AST], bool]:
    def matches(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "name"
            and isinstance(node.value, ast.Name)
            and node.value.id == var
        )

    return matches


def _plain_name_matcher(var: str) -> Callable[[ast.AST], bool]:
    def matches(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == var

    return matches


def _name_test(
    node: ast.AST,
    matches: Callable[[ast.AST], bool],
    resolve: Callable[[str], object],
) -> frozenset[str] | None:
    """The set of names ``node`` constrains the matched variable to.

    ``x.name == "base"`` -> {"base"}; ``name in URL_ATTRIBUTES`` -> the
    resolved set; an ``or`` of name tests -> their union; anything else
    (including tests mixing names with other conditions under ``or``)
    -> None, meaning "does not narrow".
    """
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        union: set[str] = set()
        for value in node.values:
            part = _name_test(value, matches, resolve)
            if part is None:
                return None
            union |= part
        return frozenset(union)
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
        return None
    left, op, right = node.left, node.ops[0], node.comparators[0]
    try:
        if isinstance(op, ast.Eq):
            for this, other in ((left, right), (right, left)):
                if matches(this):
                    value = literal_str(other)
                    if value is None and isinstance(other, ast.Name):
                        return _as_name_set(resolve(other.id))
                    if value is not None:
                        return frozenset((value,))
            return None
        if isinstance(op, ast.In) and matches(left):
            return _as_name_set(_evaluate(right, resolve))
    except _Unresolvable:
        return None
    return None


class _CheckAnalyzer:
    """Extracts one check body's footprint and streamability findings."""

    def __init__(
        self,
        owner: FootprintPass,
        file: SourceFile,
        record: _ClassRecord,
        resolve: Callable[[str], object],
    ) -> None:
        self.owner = owner
        self.file = file
        self.record = record
        self.resolve = resolve
        self.footprint: dict[str, set[str]] = {
            field: set() for field in _FOOTPRINT_FIELDS
        }

    def report(self, node: ast.AST, message: str, *, fix_hint: str = "") -> None:
        self.owner.report(self.file, node, message, fix_hint=fix_hint)

    def run(self, check: ast.FunctionDef) -> dict[str, frozenset[str]]:
        args = check.args.args
        self.result_var = args[1].arg if len(args) > 1 else "result"
        for node in ast.walk(check):
            self._visit(node)
        self._analyze_event_stream(check)
        self._analyze_error_stream(check)
        self._analyze_token_stream(check)
        self._analyze_tree(check)
        return {
            field: frozenset(values)
            for field, values in self.footprint.items()
        }

    # -------------------------------------------------- streamability guards

    def _visit(self, node: ast.AST) -> None:
        cls = self.record.node.name
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                chain = attribute_chain(target)
                if not chain and isinstance(target, ast.Subscript):
                    chain = attribute_chain(target.value)
                if len(chain) >= 2 and chain[0] == "self":
                    self.report(
                        node,
                        f"rule {cls} check() assigns to self."
                        f"{'.'.join(chain[1:])} — cross-call state breaks "
                        "streamability",
                        fix_hint="keep per-document state in locals (or the "
                        "fused handler's state dict)",
                    )
                elif chain and chain[0] == self.result_var and len(chain) > 1:
                    self.report(
                        node,
                        f"rule {cls} check() mutates the ParseResult "
                        f"({'.'.join(chain)})",
                        fix_hint="rules must be pure readers of the shared "
                        "parse",
                    )
        elif isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if not chain:
                return
            if (
                len(chain) >= 3
                and chain[0] == self.result_var
                and chain[-1] in _MUTATING_METHODS
            ):
                self.report(
                    node,
                    f"rule {cls} check() calls {'.'.join(chain)}() — "
                    "mutating the shared ParseResult",
                    fix_hint="rules must be pure readers of the shared parse",
                )
            elif chain[-1] in ("sorted", "reversed") and len(chain) == 1:
                for arg in node.args:
                    arg_chain = attribute_chain(arg)
                    if not arg_chain and isinstance(arg, ast.Call):
                        arg_chain = attribute_chain(arg.func)
                    if arg_chain and arg_chain[0] == self.result_var:
                        self.report(
                            node,
                            f"rule {cls} check() re-orders "
                            f"{'.'.join(arg_chain)} with {chain[-1]}() — "
                            "the fused walk guarantees document order only",
                            fix_hint="consume the stream in document order",
                        )
            elif chain[0] == "re" and len(chain) == 2 and chain[1] in _REGEX_CALLS:
                self.report(
                    node,
                    f"rule {cls} check() builds a regex inline "
                    f"(re.{chain[1]}) — compile patterns at module level",
                    fix_hint="hoist to a module-level re.compile() constant "
                    "so the per-page hot path never re-compiles",
                )

    # --------------------------------------------------------- event stream

    def _result_attr_used(self, check: ast.FunctionDef, attr: str) -> ast.AST | None:
        for node in ast.walk(check):
            chain = attribute_chain(node) if isinstance(node, ast.Attribute) else ()
            if chain == (self.result_var, attr):
                return node
        return None

    def _result_method_calls(self, check: ast.FunctionDef, method: str):
        for node in ast.walk(check):
            if (
                isinstance(node, ast.Call)
                and attribute_chain(node.func) == (self.result_var, method)
            ):
                yield node

    def _analyze_event_stream(self, check: ast.FunctionDef) -> None:
        cls = self.record.node.name
        kinds = self.footprint["events"]
        for call in self._result_method_calls(check, "events_of"):
            kind = literal_str(call.args[0]) if call.args else None
            if kind is None:
                self.report(
                    call,
                    f"rule {cls} calls events_of() with a non-literal kind "
                    "— not statically analyzable",
                    fix_hint="pass the kind as a string literal",
                )
            else:
                kinds.add(kind)
        used = self._result_attr_used(check, "events")
        if used is None:
            return
        narrowed = False
        for node in ast.walk(check):
            names = _name_test(
                node, self._kind_matcher("kind"), self.resolve
            )
            if names is not None:
                kinds.update(names)
                narrowed = True
        if not narrowed:
            self.report(
                used,
                f"rule {cls} reads result.events without a statically "
                "recognizable kind filter",
                fix_hint="filter on event.kind against literals or a class "
                "constant so the footprint can be derived",
            )

    def _kind_matcher(self, attr: str) -> Callable[[ast.AST], bool]:
        def matches(node: ast.AST) -> bool:
            return isinstance(node, ast.Attribute) and node.attr == attr

        return matches

    # --------------------------------------------------------- error stream

    def _analyze_error_stream(self, check: ast.FunctionDef) -> None:
        cls = self.record.node.name
        codes = self.footprint["errors"]
        for call in self._result_method_calls(check, "errors_of"):
            code = None
            if call.args:
                chain = attribute_chain(call.args[0])
                if len(chain) == 2 and chain[0] == "ErrorCode":
                    code = chain[1]
            if code is None:
                self.report(
                    call,
                    f"rule {cls} calls errors_of() with a non-literal "
                    "ErrorCode — not statically analyzable",
                    fix_hint="pass ErrorCode.<MEMBER> directly",
                )
            else:
                codes.add(code)
        used = self._result_attr_used(check, "errors")
        if used is None:
            return
        narrowed = False
        for node in ast.walk(check):
            if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                continue
            if not isinstance(node.ops[0], ast.Eq):
                continue
            sides = (node.left, node.comparators[0])
            for this, other in (sides, sides[::-1]):
                if isinstance(this, ast.Attribute) and this.attr == "code":
                    chain = attribute_chain(other)
                    if len(chain) == 2 and chain[0] == "ErrorCode":
                        codes.add(chain[1])
                        narrowed = True
        if not narrowed:
            self.report(
                used,
                f"rule {cls} reads result.errors without a statically "
                "recognizable ErrorCode filter",
                fix_hint="compare error.code against ErrorCode members",
            )

    # ---------------------------------------------------------- token stream

    def _analyze_token_stream(self, check: ast.FunctionDef) -> None:
        attrs = self.footprint["token_attrs"]
        sources: list[tuple[ast.AST, str | None]] = []
        for node in ast.walk(check):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "iter_start_tag_attrs":
                    sources.append((node, self._attr_var_for(check, node)))
                elif attribute_chain(func) == (self.result_var, "start_tags"):
                    sources.append((node, None))
            elif isinstance(node, ast.Attribute):
                if attribute_chain(node) == (self.result_var, "tokens"):
                    sources.append((node, None))
        if not sources:
            return
        names: set[str] = set()
        narrowed = True
        for _source, var in sources:
            if var is None:
                narrowed = False
                continue
            found = self._narrowing_names(check, _plain_name_matcher(var))
            if found is None:
                narrowed = False
            else:
                names |= found
        if narrowed and names:
            attrs.update(names)
        else:
            attrs.add("*")

    def _attr_var_for(self, check: ast.FunctionDef, call: ast.Call) -> str | None:
        """The attribute-name variable of the 3-tuple unpack over the call."""
        for node in ast.walk(check):
            target = None
            if isinstance(node, ast.For) and node.iter is call:
                target = node.target
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if generator.iter is call:
                        target = generator.target
            if (
                isinstance(target, ast.Tuple)
                and len(target.elts) == 3
                and isinstance(target.elts[1], ast.Name)
            ):
                return target.elts[1].id
        return None

    def _narrowing_names(
        self, check: ast.FunctionDef, matches: Callable[[ast.AST], bool]
    ) -> frozenset[str] | None:
        names: set[str] = set()
        for node in ast.walk(check):
            if isinstance(node, (ast.If, ast.IfExp)):
                for conjunct in _conjuncts(node.test):
                    found = _name_test(conjunct, matches, self.resolve)
                    if found is not None:
                        names |= found
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for generator in node.generators:
                    for test in generator.ifs:
                        for conjunct in _conjuncts(test):
                            found = _name_test(conjunct, matches, self.resolve)
                            if found is not None:
                                names |= found
        return frozenset(names) if names else None

    # ------------------------------------------------------------- tree walk

    def _analyze_tree(self, check: ast.FunctionDef) -> None:
        tags = self.footprint["tags"]
        regions = self.footprint["regions"]
        owner, file = self.owner, self.file
        for node in ast.walk(check):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                helper = owner._helper(file, node.func.id)
                if helper is None:
                    continue
                region = owner._helper_region(helper)
                if region is not None:
                    regions.add(region)
                    continue
                helper_tags = owner._helper_tree_tags(helper, self.resolve)
                if helper_tags is not None:
                    tags.update(helper_tags)
            elif isinstance(node, ast.Attribute):
                if attribute_chain(node) == (
                    self.result_var, "document", "doctype",
                ):
                    regions.add("doctype")
        for node in ast.walk(check):
            if isinstance(node, ast.For) and _is_iter_elements_call(
                node.iter, self.result_var
            ):
                self._analyze_raw_tree_loop(node)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_iter_elements_call(generator.iter, self.result_var):
                        self._analyze_raw_tree_comp(generator)

    def _analyze_raw_tree_loop(self, loop: ast.For) -> None:
        tags = self.footprint["tags"]
        if not isinstance(loop.target, ast.Name):
            tags.add("*")
            return
        var = loop.target.id
        matches = _element_name_matcher(var)
        wildcard = False
        for statement in loop.body:
            guard: frozenset[str] | None = None
            if isinstance(statement, ast.If):
                for conjunct in _conjuncts(statement.test):
                    guard = _name_test(conjunct, matches, self.resolve)
                    if guard is not None:
                        break
            if guard is not None:
                tags.update(guard)
            elif _references(statement, var):
                wildcard = True
        if wildcard or not tags:
            tags.clear()
            tags.add("*")

    def _analyze_raw_tree_comp(self, generator: ast.comprehension) -> None:
        tags = self.footprint["tags"]
        if not isinstance(generator.target, ast.Name):
            tags.add("*")
            return
        matches = _element_name_matcher(generator.target.id)
        found: set[str] = set()
        for test in generator.ifs:
            for conjunct in _conjuncts(test):
                names = _name_test(conjunct, matches, self.resolve)
                if names is not None:
                    found |= names
        if found:
            tags.update(found)
        else:
            tags.add("*")
