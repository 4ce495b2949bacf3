"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_arg_parser, main


class TestCLI:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "spider" in out
        assert "bank_financials" in out

    def test_eval_zeroshot(self, capsys):
        assert main([
            "eval", "--dataset", "spider", "--model", "codes-1b",
            "--mode", "zeroshot", "--limit", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "EX%" in out

    def test_eval_fewshot(self, capsys):
        assert main([
            "eval", "--dataset", "spider", "--model", "codes-1b",
            "--mode", "fewshot", "--shots", "1", "--limit", "4",
        ]) == 0
        assert "codes-1b" in capsys.readouterr().out

    def test_ask_command(self, capsys):
        assert main([
            "ask", "--dataset", "bank_financials", "--model", "codes-1b",
            "--question", "How many clients are there?",
        ]) == 0
        out = capsys.readouterr().out
        assert "SQL:" in out
        assert "SELECT" in out

    def test_augment_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "pairs.json"
        assert main([
            "augment", "--domain", "bank_financials",
            "--question-to-sql", "3", "--sql-to-question", "5",
            "--out", str(out_file),
        ]) == 0
        payload = json.loads(out_file.read_text())
        assert len(payload) >= 5
        assert {"question", "sql", "db_id"} <= set(payload[0])

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["eval", "--dataset", "nope", "--limit", "1"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["eval", "--model", "gpt-9"])

    def test_serve_jsonl_roundtrip(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"question": "How many clients are there?", "id": "a"})
            + "\n"
            + json.dumps({"question": "List all districts", "id": "b"})
            + "\n"
        )
        assert main([
            "serve", "--dataset", "bank_financials", "--model", "codes-1b",
            "--input", str(requests),
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert [first["id"], second["id"]] == ["a", "b"]  # input order
        assert first["status"] == "completed"
        assert "SELECT" in first["sql"]

    def test_loadgen_seed_is_byte_stable(self, capsys):
        argv = [
            "loadgen", "--dataset", "bank_financials", "--model", "codes-1b",
            "--seed", "7", "--n", "24", "--rate", "40",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "throughput rps" in first
        assert "shed total" in first


class TestCheckExitCodes:
    """``repro check`` exit codes are a stable contract:
    0 = clean, 1 = findings, 2 = usage error."""

    def _tree(self, tmp_path, source: str):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "mod.py").write_text(source, encoding="utf-8")
        return root

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self._tree(tmp_path, "x = 1\n")
        assert main(["check", "--root", str(root)]) == 0
        assert "staticcheck: OK" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = self._tree(tmp_path, "import time\nt = time.time()\n")
        assert main(["check", "--root", str(root)]) == 1
        assert "ARCH001" in capsys.readouterr().out

    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert main(["check", "--root", str(tmp_path / "nope")]) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        root = self._tree(tmp_path, "x = 1\n")
        assert main([
            "check", "--root", str(root), "--rules", "NOPE999",
        ]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unknown_explain_exits_two(self, capsys):
        assert main(["check", "--explain", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_unreadable_source_exits_two(self, tmp_path, capsys):
        root = self._tree(tmp_path, "x = 1\ny = (\n")
        (root / "latin1.py").write_bytes(b"x = 1\ny = '\xe9'\n")
        assert main(["check", "--root", str(root)]) == 2
        assert "repro check: latin1.py:2: not valid UTF-8" in (
            capsys.readouterr().err
        )
        (root / "latin1.py").unlink()
        assert main(["check", "--root", str(root)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro check: mod.py:2: ")
        assert captured.out == ""

    def test_unknown_argument_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            build_arg_parser().parse_args(["check", "--bogus"])
        assert excinfo.value.code == 2

