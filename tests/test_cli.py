"""CLI tests (check / fix / lint subcommands; run/report share the study path)."""
from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import Checker

DIRTY = (
    "<!DOCTYPE html><html><head><title>t</title></head><body>"
    '<img src="a.png"onerror="x()"></body></html>'
)
CLEAN = (
    "<!DOCTYPE html><html><head><title>t</title></head>"
    "<body><p>x</p></body></html>"
)
#: several violation families at once: FB2 (no space between attributes),
#: FB1 (slash separator), DM3 (duplicate attribute), DM2_1 (base in body)
MULTI_DIRTY = (
    "<!DOCTYPE html><html><head><title>t</title></head><body>"
    '<img src="a.png"onerror="x()">'
    '<img/src="b.png"/alt="b">'
    '<p id="a" id="b">dup</p>'
    '<base href="https://evil.example/">'
    "</body></html>"
)


class TestCheckCommand:
    def test_dirty_file_reports_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "dirty.html"
        path.write_text(DIRTY)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FB2" in out

    def test_clean_file_exits_0(self, tmp_path, capsys):
        path = tmp_path / "clean.html"
        path.write_text(CLEAN)
        assert main(["check", str(path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_non_utf8_file_reports_typed_failure_and_exits_2(
        self, tmp_path, capsys
    ):
        path = tmp_path / "legacy.html"
        path.write_bytes("<p>äöü".encode("latin-1"))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8-decodable" in err

    def test_non_utf8_failure_mentions_declared_encoding(
        self, tmp_path, capsys
    ):
        path = tmp_path / "declared.html"
        path.write_bytes(
            b'<meta charset="shift_jis"><p>\x83e\x83X\x83g'
        )
        assert main(["check", str(path)]) == 2
        assert "shift_jis" in capsys.readouterr().err

    def test_multi_violation_document_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "multi.html"
        path.write_text(MULTI_DIRTY)
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        for violation_id in ("FB1", "FB2", "DM3", "DM2_1"):
            assert violation_id in out, out
        # findings carry source offsets and evidence snippets
        assert "@" in out
        assert "onerror" in out
        # the summary counts both findings and distinct violation types
        assert "violation type(s)" in out


class TestFixCommand:
    def test_fix_outputs_repaired_html(self, tmp_path, capsys):
        path = tmp_path / "dirty.html"
        path.write_text(DIRTY)
        assert main(["fix", str(path)]) == 0
        captured = capsys.readouterr()
        assert 'src="a.png" onerror="x()"' in captured.out
        assert "repaired 1 finding" in captured.err

    def test_fix_repairs_every_auto_fixable_violation(self, tmp_path, capsys):
        path = tmp_path / "multi.html"
        path.write_text(MULTI_DIRTY)
        assert main(["fix", str(path)]) == 0
        captured = capsys.readouterr()
        fixed_html = captured.out
        # re-check the repaired output: the auto-fixable families are gone
        report = Checker().check_html(fixed_html)
        for violation_id in ("FB1", "FB2", "DM3", "DM2_1"):
            assert not report.has(violation_id), (violation_id, fixed_html)
        assert "repaired" in captured.err

    def test_fix_clean_file_is_identity(self, tmp_path, capsys):
        path = tmp_path / "clean.html"
        path.write_text(CLEAN)
        assert main(["fix", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip("\n") == CLEAN
        assert "repaired 0 finding" in captured.err


class TestLintCommand:
    def test_lint_repo_is_clean_and_exits_0(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "registry-consistency" in out

    def test_lint_json_format(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro.staticcheck"
        assert payload["counts"]["error"] == 0
        assert payload["counts"]["warning"] == 0

    def test_lint_writes_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        assert main(["lint", "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert "repro.staticcheck baseline" in baseline.read_text()

    def test_lint_stats_table(self, capsys):
        assert main(["lint", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "footprint" in out
        assert "rules_analyzed=" in out
        assert "total" in out

    def test_lint_json_carries_stats(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = {entry["pass"]: entry for entry in payload["stats"]}
        assert stats["footprint"]["metrics"]["rules_analyzed"] >= 20

    def test_lint_check_baseline_round_trips(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        assert main(["lint", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", "--check-baseline", str(baseline)]) == 0

    def test_lint_check_baseline_flags_stale_entry(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        assert main(["lint", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        with baseline.open("a") as handle:
            handle.write("  core/rules/gone.py:1:0: error [footprint] x\n")
        assert main(["lint", "--check-baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry no longer fires" in out
        assert "regenerate baseline" in out

    def test_lint_check_baseline_missing_file_is_usage_error(self, capsys):
        assert main(["lint", "--check-baseline", "/no/such/file.txt"]) == 2

    def test_lint_fail_on_warning_fixture(self, tmp_path, capsys):
        target = tmp_path / "pipeline"
        target.mkdir()
        (target / "swallow.py").write_text(
            "def run(stage):\n"
            "    try:\n"
            "        stage()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        # a blanket-swallow handler is warning severity: error gate passes,
        # warning gate fails
        assert main(["lint", str(tmp_path), "--fail-on", "error"]) == 0
        capsys.readouterr()
        assert main(["lint", str(tmp_path), "--fail-on", "warning"]) == 1


class TestBenchCommand:
    def test_quick_writes_valid_snapshot(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_test.json"
        assert main(["bench", "--quick", "--no-rules",
                     "--label", "cli-test", "--output", str(out_path)]) == 0
        table = capsys.readouterr().out
        assert "tokenizer_bytes_clean" in table and "pages/s" in table
        snapshot = json.loads(out_path.read_text())
        assert snapshot["schema"] == "repro-bench/1"
        assert snapshot["label"] == "cli-test"
        assert snapshot["rules"] == {}
        case = snapshot["cases"]["tokenizer_bytes_dirty"]
        assert case["chars"] > 0 and case["tokens"] > 0
        assert case["best_seconds"] > 0
        assert case["chars_per_second"] == pytest.approx(
            case["chars"] / case["best_seconds"]
        )

    def test_rule_costs_keyed_by_rule_id(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_rules.json"
        assert main(["bench", "--quick", "--output", str(out_path)]) == 0
        snapshot = json.loads(out_path.read_text())
        rule_ids = {rule.id for rule in Checker().rules}
        assert set(snapshot["rules"]) == rule_ids
        assert all(r["best_seconds"] > 0 for r in snapshot["rules"].values())


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


@pytest.mark.slow
class TestStudyCommands:
    def test_run_and_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert main(["run", "--domains", "40", "--pages", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert main(["report", "--domains", "40", "--pages", "2"]) == 0
        out = capsys.readouterr().out
        for piece in ("Figure 8", "Figure 9", "Figure 10",
                      "Section 4.4", "Section 4.5", "Section 4.2"):
            assert piece in out

    def test_dynamic_command(self, capsys):
        assert main(["dynamic", "--domains", "40", "--fragments", "5"]) == 0
        out = capsys.readouterr().out
        assert "Dynamic-content pre-study" in out
        assert "Generalization" in out

    def test_incremental_run_and_replay(self, tmp_path, capsys, monkeypatch):
        """End-to-end through the CLI: an incremental run writes a
        manifest, `repro-study replay` re-executes and verifies it."""
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert main([
            "run", "--domains", "6", "--pages", "2", "--incremental",
            "--years", "2021,2022", "--overlap", "0.8",
        ]) == 0
        out = capsys.readouterr().out
        assert "run manifest:" in out
        manifest_path = next(tmp_path.glob("results-*-inc.manifest.json"))
        manifest = json.loads(manifest_path.read_text())
        assert manifest["run"]["incremental"] is True
        assert manifest["dedup_counters"]["carried"] > 0

        assert main(["replay", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out

        # a tampered result digest must fail the replay with exit 1
        manifest["results"]["aggregate_sha256"] = "f" * 64
        tampered = tmp_path / "tampered.manifest.json"
        tampered.write_text(json.dumps(manifest))
        assert main(["replay", str(tampered)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_replay_malformed_manifest_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["replay", str(path)]) == 2
        assert "replay:" in capsys.readouterr().err
