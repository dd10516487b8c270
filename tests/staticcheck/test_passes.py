"""Per-pass behaviour on injected-violation fixture trees."""
from __future__ import annotations

from repro.cli import main
from repro.staticcheck import Severity, run_lint
from repro.staticcheck.passes import (
    DeterminismPass,
    ExceptionHygienePass,
    RegexSafetyPass,
    RegistryConsistencyPass,
    StateMachinePass,
)


def messages(result):
    return [finding.message for finding in result.findings]


class TestRegistryConsistency:
    def test_unregistered_id_flagged(self, make_tree):
        root = make_tree({
            "core/rules/evil.py": '''
                class Evil(Rule):
                    """ZZ9 — bogus (HTML 1.2.3)."""
                    id = "ZZ9"
                    def check(self, result):
                        return []
            ''',
        })
        result = run_lint(root, [RegistryConsistencyPass()])
        assert len(result.findings) == 1
        assert "'ZZ9'" in result.findings[0].message
        assert result.findings[0].severity is Severity.ERROR

    def test_lint_cli_exits_nonzero_on_unregistered_rule(self, make_tree, capsys):
        root = make_tree({
            "core/rules/evil.py": '''
                class Evil(Rule):
                    """ZZ9 — bogus (HTML 1.2.3)."""
                    id = "ZZ9"
                    def check(self, result):
                        return []
            ''',
        })
        assert main(["lint", str(root)]) == 1
        assert "registry-consistency" in capsys.readouterr().out

    def test_missing_and_nonliteral_ids(self, make_tree):
        root = make_tree({
            "core/rules/evil.py": '''
                PREFIX = "F"

                class NoId(Rule):
                    """No id at all (HTML 1.2.3)."""
                    def check(self, result):
                        return []

                class ComputedId(Rule):
                    """Computed id (HTML 1.2.3)."""
                    id = PREFIX + "B1"
                    def check(self, result):
                        return []
            ''',
        })
        result = run_lint(root, [RegistryConsistencyPass()])
        assert any("does not define an id" in m for m in messages(result))
        assert any("not a string literal" in m for m in messages(result))

    def test_duplicate_implementation_flagged(self, make_tree):
        root = make_tree({
            "core/rules/a.py": '''
                class First(Rule):
                    """FB1 once (HTML 13.2.5.40)."""
                    id = "FB1"
                    def check(self, result):
                        return []
            ''',
            "core/rules/b.py": '''
                class Second(Rule):
                    """FB1 again (HTML 13.2.5.40)."""
                    id = "FB1"
                    def check(self, result):
                        return []
            ''',
        })
        result = run_lint(root, [RegistryConsistencyPass()])
        assert any("implemented by both" in m for m in messages(result))

    def test_missing_spec_citation_is_warning(self, make_tree):
        root = make_tree({
            "core/rules/a.py": '''
                class NoCitation(Rule):
                    """FB1 with no citation anywhere."""
                    id = "FB1"
                    def check(self, result):
                        return []
            ''',
        })
        result = run_lint(root, [RegistryConsistencyPass()])
        assert len(result.findings) == 1
        assert result.findings[0].severity is Severity.WARNING
        assert "spec section" in result.findings[0].message

    def test_transitive_subclasses_and_abstract_helpers(self, make_tree):
        root = make_tree({
            "core/rules/a.py": '''
                class _Helper(Rule):
                    def check(self, result):
                        return []

                class Leaf(_Helper):
                    """Unknown id via helper base (HTML 1.2)."""
                    id = "NOPE"
            ''',
        })
        result = run_lint(root, [RegistryConsistencyPass()])
        assert len(result.findings) == 1
        assert "'NOPE'" in result.findings[0].message


class TestDeterminism:
    def test_flags_seeded_randomness_regression(self, make_tree):
        root = make_tree({
            "analysis/evil.py": '''
                import random

                def sample():
                    return random.random()
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert len(result.findings) == 1
        assert "shared global RNG" in result.findings[0].message

    def test_suppression_silences_exactly_one_finding(self, make_tree):
        root = make_tree({
            "analysis/evil.py": '''
                import random

                def sample():
                    a = random.random()  # staticcheck: ignore[determinism]
                    b = random.random()
                    return a + b
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert len(result.findings) == 1
        assert result.suppressed == 1
        # the un-suppressed draw is the `b = ...` line (line 6 of the file:
        # dedent keeps the leading blank line of the triple-quoted fixture)
        assert result.findings[0].location.line == 6

    def test_wall_clock_environ_and_datetime(self, make_tree):
        root = make_tree({
            "pipeline/evil.py": '''
                import os
                import time
                from datetime import datetime

                def stamp():
                    when = time.time()
                    today = datetime.now()
                    scale = os.environ.get("REPRO_SCALE")
                    other = os.getenv("HOME")
                    return when, today, scale, other
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert len(result.findings) == 4

    def test_seeded_idioms_allowed(self, make_tree):
        root = make_tree({
            "commoncrawl/fine.py": '''
                import random
                import numpy as np

                def draw(seed, domain):
                    rng = random.Random(f"{seed}:{domain}")
                    arr = np.random.default_rng(seed).integers(0, 10, 4)
                    return rng.random() + arr.sum()
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert result.findings == ()

    def test_config_modules_and_other_dirs_exempt(self, make_tree):
        root = make_tree({
            "analysis/config.py": "import os\nSCALE = os.environ.get('X')\n",
            "study.py": "import os\nCACHE = os.environ.get('Y')\n",
        })
        result = run_lint(root, [DeterminismPass()])
        assert result.findings == ()

    def test_fuzz_dir_is_guarded(self, make_tree):
        root = make_tree({
            "fuzz/evil.py": '''
                import random

                def pick():
                    return random.choice("ab")
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert len(result.findings) == 1
        assert "shared global RNG" in result.findings[0].message

    def test_unseeded_random_instance_flagged(self, make_tree):
        root = make_tree({
            "fuzz/evil.py": '''
                import random

                def make_rng():
                    return random.Random()
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert len(result.findings) == 1
        assert "OS entropy" in result.findings[0].message

    def test_seeded_random_instance_allowed_in_fuzz(self, make_tree):
        root = make_tree({
            "fuzz/fine.py": '''
                import random

                def make_rng(seed, iteration):
                    return random.Random(f"{seed}:{iteration}")
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert result.findings == ()

    def test_as_completed_in_pipeline_flagged(self, make_tree):
        """Both the bare-name and dotted spellings are completion-order
        consumption and must route through the reorder buffer."""
        root = make_tree({
            "pipeline/evil.py": '''
                from concurrent.futures import as_completed
                import concurrent.futures

                def drain(futures):
                    for future in as_completed(futures):
                        yield future.result()

                def drain_dotted(futures):
                    for future in concurrent.futures.as_completed(futures):
                        yield future.result()
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert len(result.findings) == 2
        for finding in result.findings:
            assert "completion order" in finding.message
            assert "streamed_map" in (finding.fix_hint or "")

    def test_as_completed_allowed_in_reorder_module(self, make_tree):
        root = make_tree({
            "pipeline/reorder.py": '''
                from concurrent.futures import as_completed

                def drain(futures):
                    for future in as_completed(futures):
                        yield future.result()
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert result.findings == ()

    def test_as_completed_outside_pipeline_not_flagged(self, make_tree):
        """The store-order contract is pipeline/'s; fuzz/ and friends may
        consume completion order when their oracle sorts afterwards."""
        root = make_tree({
            "fuzz/fine.py": '''
                from concurrent.futures import as_completed

                def drain(futures):
                    return sorted(future.result() for future in as_completed(futures))
            ''',
        })
        result = run_lint(root, [DeterminismPass()])
        assert result.findings == ()


class TestStateMachine:
    def test_unreachable_handler_flagged(self, make_tree):
        root = make_tree({
            "html/machine.py": '''
                class Machine:
                    def __init__(self):
                        self._state = self._a_state

                    def _a_state(self):
                        self._state = self._b_state

                    def _b_state(self):
                        self._state = self._a_state

                    def _c_state(self):
                        return None
            ''',
        })
        result = run_lint(root, [StateMachinePass()])
        assert len(result.findings) == 1
        assert "Machine._c_state" in result.findings[0].message
        assert "unreachable" in result.findings[0].message

    def test_dangling_transition_flagged(self, make_tree):
        root = make_tree({
            "html/machine.py": '''
                class Machine:
                    def _a_state(self):
                        self._state = self._b_state

                    def _b_state(self):
                        self._state = self._typo_state

                    def _c_state(self):
                        self._state = self._a_state
            ''',
        })
        result = run_lint(root, [StateMachinePass()])
        dangling = [m for m in messages(result) if "undefined handler" in m]
        assert len(dangling) == 1
        assert "self._typo_state" in dangling[0]

    def test_state_variable_not_treated_as_dangling(self, make_tree):
        root = make_tree({
            "html/machine.py": '''
                class Machine:
                    def __init__(self):
                        self._return_state = None

                    def _a_state(self):
                        self._state = self._b_state

                    def _b_state(self):
                        self._return_state = self._a_state

                    def _c_state(self):
                        self._state = self._return_state
            ''',
        })
        result = run_lint(root, [StateMachinePass()])
        assert all("_return_state" not in m for m in messages(result))

    def test_dispatch_dict_coverage(self, make_tree):
        root = make_tree({
            "html/machine.py": '''
                DATA = "data"
                RCDATA = "rcdata"

                class Machine:
                    def switch_to(self, model):
                        states = {DATA: self._a_state}
                        self._state = states[model]

                    def _a_state(self):
                        self._state = self._b_state

                    def _b_state(self):
                        self._state = self._c_state

                    def _c_state(self):
                        self._state = self._a_state
            ''',
        })
        result = run_lint(root, [StateMachinePass()])
        coverage = [m for m in messages(result) if "content-model" in m]
        assert len(coverage) == 1
        assert "RCDATA" in coverage[0]

    def test_small_classes_ignored(self, make_tree):
        root = make_tree({
            "html/tiny.py": '''
                class NotAMachine:
                    def _only_state(self):
                        return None
            ''',
        })
        result = run_lint(root, [StateMachinePass()])
        assert result.findings == ()

    def test_subclass_overrides_not_flagged(self, make_tree):
        # a per-character twin overriding base-class states: its handlers
        # are reached via base transitions this pass cannot see, so classes
        # with a base are exempt from unreachable/dangling
        root = make_tree({
            "html/reference.py": '''
                class ReferenceMachine(Machine):
                    def _a_state(self):
                        self._state = self._b_state

                    def _b_state(self):
                        self._state = self._inherited_state

                    def _c_state(self):
                        return None
            ''',
        })
        result = run_lint(root, [StateMachinePass()])
        assert result.findings == ()


CHUNKED_MACHINE = '''
    CHUNK_BREAK_SETS = {"_a_state": "<&"}

    class Machine:
        def __init__(self):
            self._state = self._a_state

        def _a_state(self):
            char = "?"
            if char == "<":
                self._state = self._b_state
            elif char == "&":
                self._state = self._c_state

        def _b_state(self):
            self._state = self._a_state

        def _c_state(self):
            self._state = self._a_state
'''


class TestStateMachineBreakSets:
    def test_clean_chunked_machine(self, make_tree):
        # a declaration naming a defined per-character state is clean
        root = make_tree({"html/machine.py": CHUNKED_MACHINE})
        result = run_lint(root, [StateMachinePass()])
        assert result.findings == ()

    def test_declared_handler_must_exist(self, make_tree):
        source = CHUNKED_MACHINE.replace(
            '{"_a_state"', '{"_ghost_state": "<", "_a_state"'
        )
        root = make_tree({"html/machine.py": source})
        result = run_lint(root, [StateMachinePass()])
        ghost = [
            m for m in messages(result)
            if "not a defined state handler" in m
        ]
        assert len(ghost) == 1
        assert "_ghost_state" in ghost[0]


BYTES_TRUTH = r'''
    CHUNK_BREAK_SETS = {"_a_state": "<&\x00", "_b_state": "<", "_c_state": "&"}

    class Machine:
        def __init__(self):
            self._state = self._a_state

        def _a_state(self):
            if "<" == "&":
                return "\x00"
            self._state = self._b_state

        def _b_state(self):
            if "<":
                self._state = self._c_state

        def _c_state(self):
            if "&":
                self._state = self._a_state
'''

BYTES_TWIN = r'''
    import re

    from .machine import CHUNK_BREAK_SETS, Machine

    def _bytes_scanner(state):
        return re.compile(
            b"[^" + re.escape(CHUNK_BREAK_SETS[state].encode("ascii")) + b"]+"
        )

    _RUN_B_B = _bytes_scanner("_b_state")
    _RUN_C_B = _bytes_scanner("_c_state")

    _MASTER = re.compile(rb"([^<&\x00]*+)(?:<([a-z]+)>)?")

    class BytesMachine(Machine):
        def _a_state(self):
            scan = _MASTER
            byte = 0x3C
            if byte == 0x26:
                return None
            return "\x00"

        def _b_state(self):
            match = _RUN_B_B.match(b"")
            if b"<":
                return None

        def _c_state(self):
            match = _RUN_C_B.match(b"")
            if "&" == "&":
                return None
'''


class TestStateMachineBytesDomain:
    """The cross-file bytes-twin family: derivation from the one break-set
    declaration, master-class folding, and override lock-step."""

    def make_machines(self, make_tree, *, twin=BYTES_TWIN):
        return make_tree({
            "html/machine.py": BYTES_TRUTH,
            "html/bytes_machine.py": twin,
        })

    def test_clean_bytes_twin(self, make_tree):
        # _a folds into _MASTER (break chars spelled as ints and a str
        # literal), _b/_c use their compiled patterns (bytes/str literals)
        root = self.make_machines(make_tree)
        result = run_lint(root, [StateMachinePass()])
        assert result.findings == ()

    def test_master_class_drift_flagged(self, make_tree):
        # narrowing _MASTER's text class below the declared break set
        # leaves _a_state with no bytes scan source at all
        twin = BYTES_TWIN.replace(r"([^<&\x00]*+)", "([^<&]*+)")
        root = self.make_machines(make_tree, twin=twin)
        result = run_lint(root, [StateMachinePass()])
        missing = [m for m in messages(result) if "no bytes run pattern" in m]
        assert len(missing) == 1
        assert "_a_state" in missing[0]

    def test_override_lockstep_both_directions(self, make_tree):
        twin = BYTES_TWIN.replace("def _c_state", "def _d_state")
        root = self.make_machines(make_tree, twin=twin)
        result = run_lint(root, [StateMachinePass()])
        dropped = [m for m in messages(result) if "does not re-implement" in m]
        extra = [m for m in messages(result) if "re-chunks a state" in m]
        assert len(dropped) == 1 and "_c_state" in dropped[0]
        assert len(extra) == 1 and "_d_state" in extra[0]

    def test_factory_must_derive_from_declaration(self, make_tree):
        twin = BYTES_TWIN.replace(
            'b"[^" + re.escape(CHUNK_BREAK_SETS[state].encode("ascii")) + b"]+"',
            'b"[^<]+"',
        )
        root = self.make_machines(make_tree, twin=twin)
        result = run_lint(root, [StateMachinePass()])
        derive = [m for m in messages(result) if "does not derive" in m]
        assert len(derive) == 1

    def test_non_literal_scanner_key_flagged(self, make_tree):
        twin = BYTES_TWIN + '    _RUN_X = _bytes_scanner(object)\n'
        root = self.make_machines(make_tree, twin=twin)
        result = run_lint(root, [StateMachinePass()])
        literal = [m for m in messages(result) if "literal" in m]
        assert len(literal) == 1

    def test_undeclared_bytes_scanner_flagged(self, make_tree):
        twin = BYTES_TWIN + '    _RUN_Z_B = _bytes_scanner("_z_state")\n'
        root = self.make_machines(make_tree, twin=twin)
        result = run_lint(root, [StateMachinePass()])
        undeclared = [
            m for m in messages(result) if "no CHUNK_BREAK_SETS entry" in m
        ]
        assert len(undeclared) == 1
        assert "_z_state" in undeclared[0]

    def test_dropped_break_byte_flagged(self, make_tree):
        twin = BYTES_TWIN.replace('if b"<":', "if None:")
        root = self.make_machines(make_tree, twin=twin)
        result = run_lint(root, [StateMachinePass()])
        dropped = [m for m in messages(result) if "silently dropped" in m]
        assert len(dropped) == 1
        assert "BytesMachine._b_state" in dropped[0]
        assert "'<'" in dropped[0]

    def test_wrong_run_pattern_flagged(self, make_tree):
        twin = BYTES_TWIN.replace("match = _RUN_B_B.match", "match = _RUN_C_B.match")
        root = self.make_machines(make_tree, twin=twin)
        result = run_lint(root, [StateMachinePass()])
        wrong = [m for m in messages(result) if "never references its run" in m]
        assert len(wrong) == 1
        assert "_RUN_B_B" in wrong[0]

    def test_handler_must_use_master(self, make_tree):
        twin = BYTES_TWIN.replace("scan = _MASTER\n", "\n")
        root = self.make_machines(make_tree, twin=twin)
        result = run_lint(root, [StateMachinePass()])
        wrong = [m for m in messages(result) if "never references _MASTER" in m]
        assert len(wrong) == 1
        assert "_a_state" in wrong[0]


class TestRegexSafety:
    def test_nested_quantifier_flagged(self, make_tree):
        root = make_tree({
            "core/patterns.py": '''
                import re

                EVIL = re.compile(r"(a+)+b")
            ''',
        })
        result = run_lint(root, [RegexSafetyPass()])
        assert len(result.findings) == 1
        assert "nested unbounded quantifier" in result.findings[0].message

    def test_overlapping_alternation_flagged(self, make_tree):
        root = make_tree({
            "core/patterns.py": '''
                import re

                EVIL = re.compile(r"(a|ab)+$")
            ''',
        })
        result = run_lint(root, [RegexSafetyPass()])
        assert len(result.findings) == 1
        assert "overlapping alternation" in result.findings[0].message

    def test_safe_patterns_pass(self, make_tree):
        root = make_tree({
            "core/patterns.py": '''
                import re

                SPEC = re.compile(r"\\b\\d+\\.\\d+(?:\\.\\d+)*\\b")
                TAG = re.compile(r"<([a-z][a-z0-9]*)\\s*")
                found = re.search(r"charset=([\\w-]+)", "charset=utf-8")
            ''',
        })
        result = run_lint(root, [RegexSafetyPass()])
        assert result.findings == ()

    def test_invalid_pattern_reported(self, make_tree):
        root = make_tree({
            "core/patterns.py": 'import re\nBAD = re.compile("(unclosed")\n',
        })
        result = run_lint(root, [RegexSafetyPass()])
        assert len(result.findings) == 1
        assert "invalid regular expression" in result.findings[0].message

    def test_only_core_scanned(self, make_tree):
        root = make_tree({
            "analysis/patterns.py": 'import re\nEVIL = re.compile(r"(a+)+b")\n',
        })
        result = run_lint(root, [RegexSafetyPass()])
        assert result.findings == ()


class TestExceptionHygiene:
    def test_bare_except_is_error(self, make_tree):
        root = make_tree({
            "pipeline/evil.py": '''
                def run(stage):
                    try:
                        stage()
                    except:
                        pass
            ''',
        })
        result = run_lint(root, [ExceptionHygienePass()])
        assert len(result.findings) == 1
        assert result.findings[0].severity is Severity.ERROR
        assert "bare" in result.findings[0].message

    def test_blanket_swallow_is_warning(self, make_tree):
        root = make_tree({
            "pipeline/evil.py": '''
                def run(stage):
                    try:
                        stage()
                    except Exception:
                        return None
            ''',
        })
        result = run_lint(root, [ExceptionHygienePass()])
        assert len(result.findings) == 1
        assert result.findings[0].severity is Severity.WARNING

    def test_logged_or_reraised_blanket_allowed(self, make_tree):
        root = make_tree({
            "pipeline/ok.py": '''
                import logging

                logger = logging.getLogger(__name__)

                def run(stage):
                    try:
                        stage()
                    except Exception:
                        logger.exception("stage failed")
                    try:
                        stage()
                    except (Exception, KeyboardInterrupt):
                        raise
                    try:
                        stage()
                    except ValueError:
                        return None
            ''',
        })
        result = run_lint(root, [ExceptionHygienePass()])
        assert result.findings == ()
