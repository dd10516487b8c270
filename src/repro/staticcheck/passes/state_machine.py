"""State-machine exhaustiveness pass over the HTML parser.

The tokenizer (``repro/html/tokenizer.py``) and tree builder
(``repro/html/treebuilder.py``) are method-per-state machines: states are
methods matching a naming convention (``_<name>_state`` /
``_mode_<name>``) and transitions are attribute references
(``self._state = self._tag_open_state``, ``self.mode =
self._mode_in_body``).  The paper's violation definitions are anchored on
*named* tokenizer error states and insertion modes, so a handler that
exists but is never reachable — or a transition naming a handler that was
renamed away — silently changes which violations can ever fire.

For every class that looks like a state machine (three or more methods
matching a handler pattern) this pass checks:

* **no unreachable handlers** — every handler method is referenced as
  ``self.<handler>`` somewhere in the class (entry states are referenced
  by ``__init__``/``switch_to``, so they count);
* **no dangling transitions** — every ``self.<x>`` reference matching a
  handler pattern resolves to a defined method;
* **content-model coverage** — when a method holds a dispatch dict whose
  values are all handler references (the tokenizer's ``switch_to``),
  its keys must cover every public ALL-CAPS module-level string constant
  (the declared content models: DATA, RCDATA, RAWTEXT, ...).

The bytes-domain tokenizer (``repro/html/bytes_tokenizer.py``) bulk-scans
some tokenizer states instead of dispatching per character.  Each chunked
state's delimiter set is declared once, in ``CHUNK_BREAK_SETS`` in
``tokenizer.py`` (handler name -> the characters its run pattern stops
at), and the per-character reference ``Tokenizer`` there defines the
state itself.  That adds a family of invariants (the cross-file ones are
emitted from :meth:`finish`, since the declaration and the bytes
patterns live in different modules):

* **declared handlers exist** — every ``CHUNK_BREAK_SETS`` key names a
  state handler defined in the declaring module;
* **single source of truth** — the ``_bytes_scanner`` factory must
  derive its patterns from ``CHUNK_BREAK_SETS`` (it references the
  imported dict), and every ``_bytes_scanner("...")`` call names a
  declared state;
* **full bytes coverage** — every declared state is either compiled by
  ``_bytes_scanner`` or folded into the module's combined ``_MASTER``
  pattern, whose leading text-run class ``([^...]*+)`` is parsed and
  compared character-for-character against that state's declared break
  set (widening a break set without updating the master class is a lint
  error, not a silent divergence);
* **override lock-step** — every ``Tokenizer`` subclass that re-chunks
  states (``BytesTokenizer``) must define exactly the declared state set:
  the static twin of the tier-1 ``BYTES_OVERRIDES ==
  set(CHUNK_BREAK_SETS)`` assertion;
* **bytes handlers handle their breaks** — each bytes handler references
  its own run pattern (or ``_MASTER``), and each character of its
  declared break set appears in a string literal inside the handler, a
  helper method it calls on ``self``, or a module string constant those
  bodies reference, with byte-literal (``b"<"``) and small-int
  (``0x3C``) spellings counted as handling the corresponding character.
  Widening a break set without adding the branch for the new delimiter
  is a lint error: the run pattern would stop at a character the state
  then silently drops.

Limitations (documented, suppressible): classes with explicit base
classes are skipped by the unreachable/dangling checks — their handlers
may be referenced by (or inherited from) a base defined in another
module, which a single-file AST pass cannot resolve.  ``BytesTokenizer``
is such a class; its lock-step with the reference is enforced here
structurally and at runtime by the tier-1 equivalence test plus the
``bytes_parity`` fuzz oracle.  Break-character coverage is lexical: an
integer constant below 128 in a handler body counts as handling
``chr(value)`` even when it is used for something else.
"""
from __future__ import annotations

import ast
import re

from ..engine import LintPass, SourceFile, literal_str

PASS_ID = "state-machine"

#: naming conventions that mark a method as a state handler
HANDLER_PATTERNS: tuple[re.Pattern[str], ...] = (
    re.compile(r"\A_\w+_state\Z"),   # tokenizer states
    re.compile(r"\A_mode_\w+\Z"),    # tree-builder insertion modes
)

#: a class is treated as a state machine once it has this many handlers
MIN_HANDLERS = 3

#: the tokenizer's chunked-state declaration
BREAK_SETS_NAME = "CHUNK_BREAK_SETS"

#: the bytes-domain pattern factory and the combined data-state pattern
BYTES_SCANNER_NAME = "_bytes_scanner"
MASTER_NAME = "_MASTER"

#: regex escape spellings the master-class parser understands
_CLASS_ESCAPES = {
    "t": "\t", "n": "\n", "r": "\r", "f": "\f", "v": "\v", "0": "\0",
    "\\": "\\", "]": "]", "^": "^", "-": "-", "&": "&", "<": "<",
}


def _parse_class_chars(content: str) -> set[str] | None:
    """The character set of a regex class body (no ranges), else None."""
    chars: set[str] = set()
    index = 0
    while index < len(content):
        char = content[index]
        if char == "\\":
            index += 1
            if index >= len(content):
                return None
            escape = content[index]
            if escape == "x":
                if index + 2 >= len(content):
                    return None
                chars.add(chr(int(content[index + 1:index + 3], 16)))
                index += 3
                continue
            if escape not in _CLASS_ESCAPES:
                return None
            chars.add(_CLASS_ESCAPES[escape])
            index += 1
            continue
        if char == "-" and 0 < index < len(content) - 1:
            return None  # a range: out of this parser's contract
        chars.add(char)
        index += 1
    return chars


def _matching(pattern: re.Pattern[str], names: set[str]) -> set[str]:
    return {name for name in names if pattern.match(name)}


def _printable(char: str) -> str:
    """A break character as it should appear in a lint message."""
    return repr(char)


class StateMachinePass(LintPass):
    id = PASS_ID
    name = "Parser state-machine exhaustiveness"
    description = (
        "tokenizer/tree-builder handler tables have no unreachable "
        "states, no dangling transitions and cover every declared content "
        "model; bytes-domain run patterns derive from the "
        "CHUNK_BREAK_SETS declaration, the bytes override set stays in "
        "lock-step with it, and every chunked bytes state handles each "
        "declared break character"
    )

    def __init__(self) -> None:
        super().__init__()
        #: the one module declaring CHUNK_BREAK_SETS: (file, sets, node)
        self._truth: tuple[SourceFile, dict[str, str], ast.Dict] | None = None
        #: modules compiling bytes run patterns, keyed by file.rel
        self._bytes_modules: list[dict] = []
        #: Tokenizer subclasses that re-chunk states (the bytes scanner)
        self._twin_classes: list[dict] = []

    def select(self, file: SourceFile) -> bool:
        return "html" in file.parts[:-1]

    # ----------------------------------------------------------- module level

    def visit_Module(self, file: SourceFile, node: ast.Module) -> None:
        self._collect_bytes_module(file, node)
        break_sets, dict_node = self._break_set_declaration(node)
        if break_sets is None or dict_node is None:
            return
        self._truth = (file, break_sets, dict_node)

        handlers = {
            statement.name
            for cls in node.body
            if isinstance(cls, ast.ClassDef)
            for statement in cls.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for state in sorted(set(break_sets) - handlers):
            self.report(
                file, dict_node,
                f"{BREAK_SETS_NAME} declares a break set for {state}, which "
                "is not a defined state handler in this module",
                fix_hint="remove the entry or define the handler",
            )

    # ------------------------------------------------------ bytes-domain twin

    @staticmethod
    def _imports_break_sets(tree: ast.Module) -> bool:
        return any(
            isinstance(statement, ast.ImportFrom)
            and any(alias.name == BREAK_SETS_NAME for alias in statement.names)
            for statement in tree.body
        )

    def _collect_bytes_module(self, file: SourceFile, node: ast.Module) -> None:
        """Record a module compiling bytes run patterns for :meth:`finish`."""
        calls = [
            sub
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == BYTES_SCANNER_NAME
        ]
        if not calls:
            return
        compiled: dict[str, ast.Call] = {}
        for call in calls:
            state = literal_str(call.args[0]) if call.args else None
            if state is None:
                self.report(
                    file, call,
                    f"{BYTES_SCANNER_NAME}(...) must be called with a "
                    f"literal {BREAK_SETS_NAME} key",
                    fix_hint="pass the state name as a string literal",
                )
                continue
            compiled[state] = call
        factory = next(
            (
                statement
                for statement in node.body
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and statement.name == BYTES_SCANNER_NAME
            ),
            None,
        )
        if factory is not None and not any(
            isinstance(sub, ast.Name) and sub.id == BREAK_SETS_NAME
            for sub in ast.walk(factory)
        ):
            self.report(
                file, factory,
                f"{BYTES_SCANNER_NAME} does not derive its patterns from "
                f"{BREAK_SETS_NAME} (a second source of truth for break sets)",
                fix_hint=f"compile the pattern from {BREAK_SETS_NAME}[state]",
            )
        master_chars, master_node = self._master_class_chars(node)
        self._bytes_modules.append({
            "file": file,
            "tree": node,
            "compiled": compiled,
            "run_names": self._run_pattern_names(node),
            "master_chars": master_chars,
            "master_node": master_node,
        })

    @staticmethod
    def _master_class_chars(
        tree: ast.Module,
    ) -> tuple[set[str] | None, ast.AST | None]:
        """The character set of ``_MASTER``'s leading ``([^...]*+)`` text-run
        class, parsed from its bytes-literal pattern (None when the module
        has no such constant or the prefix has another shape)."""
        for statement in tree.body:
            if not isinstance(statement, ast.Assign):
                continue
            if not any(
                isinstance(target, ast.Name) and target.id == MASTER_NAME
                for target in statement.targets
            ):
                continue
            value = statement.value
            if not (
                isinstance(value, ast.Call)
                and value.args
                and isinstance(value.args[0], ast.Constant)
                and isinstance(value.args[0].value, bytes)
            ):
                return None, statement
            pattern = value.args[0].value.decode("latin-1")
            if not pattern.startswith("([^"):
                return None, statement
            index = 3
            while index < len(pattern) and pattern[index] != "]":
                index += 2 if pattern[index] == "\\" else 1
            if index >= len(pattern):
                return None, statement
            return _parse_class_chars(pattern[3:index]), statement
        return None, None

    def finish(self) -> None:
        if self._truth is None:
            return
        _truth_file, break_sets, _dict_node = self._truth
        declared = set(break_sets)

        for module in self._bytes_modules:
            file = module["file"]
            compiled: dict[str, ast.Call] = module["compiled"]
            for state, call in sorted(compiled.items()):
                if state not in declared:
                    self.report(
                        file, call,
                        f"{BYTES_SCANNER_NAME}({state!r}) compiles a run "
                        f"pattern for a state with no {BREAK_SETS_NAME} entry",
                        fix_hint=f"declare the state in {BREAK_SETS_NAME}",
                    )
            master_chars = module["master_chars"]
            master_node = module["master_node"]
            master_covered = {
                state
                for state in declared
                if master_chars is not None
                and master_chars == set(break_sets[state])
            }
            for state in sorted(declared - set(compiled) - master_covered):
                self.report(
                    file, master_node or module["tree"],
                    f"declared chunked state {state} has no bytes run "
                    f"pattern: neither compiled by {BYTES_SCANNER_NAME} nor "
                    f"folded into {MASTER_NAME}'s text-run class",
                    fix_hint=f"compile it with {BYTES_SCANNER_NAME} or "
                    f"match {MASTER_NAME}'s class to its break set",
                )
            module_strings = self._module_string_constants(module["tree"])
            run_names: dict[str, str] = module["run_names"]
            for twin in self._twin_classes:
                if twin["file"] is not file:
                    continue
                methods = twin["methods"]
                class_name = twin["node"].name
                for state in sorted(declared):
                    handler = methods.get(state)
                    if handler is None:
                        continue  # the lock-step check reports the absence
                    reachable = self._reachable_strings(
                        handler, methods, module_strings
                    )
                    run_name = run_names.get(state)
                    if run_name is not None:
                        # a state with its own compiled pattern must use it,
                        # even when its break set coincides with the master
                        # class (e.g. rcdata shares the data-state set)
                        if run_name not in reachable.names:
                            self.report(
                                file, handler,
                                f"bytes chunked state {class_name}.{state} "
                                f"never references its run pattern "
                                f"{run_name} (scans with the wrong pattern "
                                "or not at all)",
                                fix_hint=f"scan with {run_name} or "
                                "undeclare the state",
                            )
                    elif state in master_covered:
                        if MASTER_NAME not in reachable.names:
                            self.report(
                                file, handler,
                                f"bytes chunked state {class_name}.{state} "
                                f"never references {MASTER_NAME} (scans with "
                                "the wrong pattern or not at all)",
                                fix_hint=f"scan with {MASTER_NAME} or compile "
                                f"a {BYTES_SCANNER_NAME} pattern for it",
                            )
                    handled = "".join(reachable.strings)
                    for char in break_sets[state]:
                        if char not in handled:
                            self.report(
                                file, handler,
                                f"bytes chunked state {class_name}.{state} "
                                f"declares break character {_printable(char)} "
                                "but no reachable branch handles it "
                                "(silently dropped delimiter)",
                                fix_hint="add the per-character branch or "
                                f"narrow the {BREAK_SETS_NAME} entry",
                            )

        # override lock-step: the static twin of the tier-1 assertion
        # BYTES_OVERRIDES == set(CHUNK_BREAK_SETS)
        for twin in self._twin_classes:
            class_name = twin["node"].name
            states: set[str] = twin["states"]
            for name in sorted(declared - states):
                self.report(
                    twin["file"], twin["node"],
                    f"{class_name} does not re-implement declared chunked "
                    f"state {name} (it silently falls back to the inherited "
                    "per-character loop)",
                    fix_hint="define the handler or narrow "
                    f"{BREAK_SETS_NAME}",
                )
            for name in sorted(states - declared):
                self.report(
                    twin["file"], twin["methods"][name],
                    f"{class_name}.{name} re-chunks a state with no "
                    f"{BREAK_SETS_NAME} entry (unverified override)",
                    fix_hint=f"declare the state in {BREAK_SETS_NAME} or "
                    "drop the override",
                )

    @staticmethod
    def _break_set_declaration(
        tree: ast.Module,
    ) -> tuple[dict[str, str] | None, ast.Dict | None]:
        """The module's ``CHUNK_BREAK_SETS`` literal, if it declares one."""
        for statement in tree.body:
            if isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
                value = statement.value
            elif isinstance(statement, ast.Assign):
                targets = list(statement.targets)
                value = statement.value
            else:
                continue
            if not any(
                isinstance(target, ast.Name) and target.id == BREAK_SETS_NAME
                for target in targets
            ):
                continue
            if not isinstance(value, ast.Dict):
                return None, None
            declared: dict[str, str] = {}
            for key, entry in zip(value.keys, value.values):
                state = literal_str(key)
                breaks = literal_str(entry)
                if state is None or breaks is None:
                    return None, None
                declared[state] = breaks
            return declared, value
        return None, None

    # ------------------------------------------------------------ class level

    def visit_ClassDef(self, file: SourceFile, node: ast.ClassDef) -> None:
        methods = {
            statement.name: statement
            for statement in node.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        has_base = any(
            not (isinstance(base, ast.Name) and base.id == "object")
            for base in node.bases
        )
        if has_base and self._imports_break_sets(file.tree):
            # a Tokenizer subclass re-chunking states in a module that
            # imports the break-set declaration: the reference and bytes
            # twins, held in lock-step with the declaration by finish()
            states = _matching(HANDLER_PATTERNS[0], set(methods))
            if len(states) >= MIN_HANDLERS:
                self._twin_classes.append({
                    "file": file,
                    "node": node,
                    "methods": methods,
                    "states": states,
                })
        self_refs: dict[str, ast.Attribute] = {}
        stored: set[str] = set()
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                self_refs.setdefault(sub.attr, sub)
                if isinstance(sub.ctx, ast.Store):
                    # an instance *variable* (e.g. the tokenizer's
                    # ``self._return_state`` holding a state), not a handler
                    stored.add(sub.attr)

        if not has_base:
            # with a base class, handlers may override states reached via
            # base-class transitions, and transitions may target inherited
            # handlers — neither resolvable from this file's AST alone
            for pattern in HANDLER_PATTERNS:
                defined = _matching(pattern, set(methods))
                if len(defined) < MIN_HANDLERS:
                    continue
                referenced = _matching(pattern, set(self_refs))
                for name in sorted(defined - referenced):
                    self.report(
                        file, methods[name],
                        f"state handler {node.name}.{name} is defined but "
                        "never referenced (unreachable state)",
                        fix_hint="wire a transition to it or delete it",
                    )
                for name in sorted(referenced - defined - stored):
                    self.report(
                        file, self_refs[name],
                        f"transition references undefined handler "
                        f"self.{name} in {node.name}",
                        fix_hint="define the handler or fix the transition name",
                    )

        self._check_dispatch_dicts(file, node, methods)

    class _Reachable:
        __slots__ = ("strings", "names")

        def __init__(self) -> None:
            self.strings: list[str] = []
            self.names: set[str] = set()

    def _reachable_strings(
        self,
        handler: ast.AST,
        methods: dict[str, ast.AST],
        module_strings: dict[str, str],
    ) -> "StateMachinePass._Reachable":
        """String literals visible from ``handler``: its own body, helper
        methods it calls on ``self`` (one hop), and module string constants
        either body references by name."""
        reachable = self._Reachable()
        bodies: list[ast.AST] = [handler]
        for sub in ast.walk(handler):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == "self"
                and sub.func.attr in methods
            ):
                helper = methods[sub.func.attr]
                if helper is not handler:
                    bodies.append(helper)
        for body in bodies:
            for sub in ast.walk(body):
                if isinstance(sub, ast.Constant):
                    value = sub.value
                    if isinstance(value, str):
                        reachable.strings.append(value)
                    elif isinstance(value, bytes):
                        # bytes handlers spell delimiters as byte literals
                        reachable.strings.append(value.decode("latin-1"))
                    elif (
                        isinstance(value, int)
                        and not isinstance(value, bool)
                        and 0 <= value < 128
                    ):
                        # ... or as small ints (``byte == 0x3C``); lexical,
                        # so any sub-128 int counts (documented limitation)
                        reachable.strings.append(chr(value))
                elif isinstance(sub, ast.Name):
                    reachable.names.add(sub.id)
                    constant = module_strings.get(sub.id)
                    if constant is not None:
                        reachable.strings.append(constant)
        return reachable

    @staticmethod
    def _run_pattern_names(tree: ast.Module) -> dict[str, str]:
        """Map declared state -> module constant holding its run pattern
        (``_RUN_RCDATA_B = _bytes_scanner("_rcdata_state")`` ->
        ``{"_rcdata_state": "_RUN_RCDATA_B"}``)."""
        names: dict[str, str] = {}
        for statement in tree.body:
            if not isinstance(statement, ast.Assign):
                continue
            value = statement.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == BYTES_SCANNER_NAME
                and value.args
            ):
                continue
            state = literal_str(value.args[0])
            if state is None:
                continue
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    names[state] = target.id
        return names

    @staticmethod
    def _module_string_constants(tree: ast.Module) -> dict[str, str]:
        constants: dict[str, str] = {}
        for statement in tree.body:
            if not isinstance(statement, ast.Assign):
                continue
            value = literal_str(statement.value)
            if value is None and isinstance(statement.value, ast.Constant):
                raw = statement.value.value
                if isinstance(raw, bytes):  # bytes twins of _WHITESPACE etc.
                    value = raw.decode("latin-1")
            if value is None:
                continue
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = value
        return constants

    def _check_dispatch_dicts(
        self,
        file: SourceFile,
        node: ast.ClassDef,
        methods: dict[str, ast.AST],
    ) -> None:
        declared = self._declared_content_models(file.tree)
        if not declared:
            return
        for method in methods.values():
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Dict) or not sub.values:
                    continue
                if not all(
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and any(p.match(value.attr) for p in HANDLER_PATTERNS)
                    for value in sub.values
                ):
                    continue
                keys = {
                    key.id for key in sub.keys if isinstance(key, ast.Name)
                }
                for name in sorted(declared - keys):
                    self.report(
                        file, sub,
                        f"declared content-model state {name} has no entry "
                        "in the dispatch table",
                        fix_hint="add the state to the switch_to table",
                    )

    @staticmethod
    def _declared_content_models(tree: ast.Module) -> set[str]:
        declared: set[str] = set()
        for statement in tree.body:
            if not isinstance(statement, ast.Assign):
                continue
            if not (
                isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)
            ):
                continue
            for target in statement.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id.isupper()
                    and not target.id.startswith("_")
                ):
                    declared.add(target.id)
        return declared
