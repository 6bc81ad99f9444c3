"""The ``python -m repro.analysis`` entry point: exit codes and output.

Scope prefixes are package-relative (``sim/``, ``algebra/``), so the
fixtures are staged into a miniature package layout: linting the staged
directory resolves ``<dir>/storage/persist.py`` to the scope path
``storage/persist.py`` exactly as ``src/repro`` resolves for CI.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def staged_tree(tmp_path):
    """Fixture files placed where the default scopes apply to them."""
    for package in ("storage", "sim", "algebra"):
        (tmp_path / package).mkdir()
    shutil.copy(FIXTURES / "runtime_assert_bad.py", tmp_path / "storage" / "persist.py")
    shutil.copy(FIXTURES / "runtime_assert_bad.py", tmp_path / "sim" / "disk.py")
    return tmp_path


def test_clean_file_exits_zero(capsys):
    code = main([str(FIXTURES / "runtime_assert_good.py")])
    assert code == 0
    assert "0 findings" in capsys.readouterr().out


def test_findings_exit_one_with_location_lines(staged_tree, capsys):
    code = main([str(staged_tree)])
    out = capsys.readouterr().out
    assert code == 1
    assert "persist.py:6:5: [runtime-assert]" in out
    assert "disk.py:12:9: [runtime-assert]" in out


def test_scopes_keep_rules_off_unrelated_files(staged_tree, capsys):
    # the same asserts staged under algebra/, outside runtime-assert's
    # scope, stay silent while the storage/ copy fires
    shutil.copy(FIXTURES / "runtime_assert_bad.py", staged_tree / "algebra" / "cursor.py")
    code = main([str(staged_tree), "--rules", "runtime-assert"])
    out = capsys.readouterr().out
    assert code == 1
    assert "persist.py:" in out
    assert "cursor.py" not in out


def test_unused_suppressions_are_always_reported(tmp_path, capsys):
    (tmp_path / "storage").mkdir()
    shutil.copy(FIXTURES / "unused_suppression.py", tmp_path / "storage" / "persist.py")
    # the live comment silences the only finding; the stale one fails the run
    code = main([str(tmp_path), "--rules", "runtime-assert"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[unused-suppression]" in out
    assert "silenced nothing" in out


def test_unknown_rule_id_is_a_usage_error(capsys):
    code = main([str(FIXTURES / "runtime_assert_bad.py"), "--rules", "no-such-rule"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(capsys):
    code = main([str(FIXTURES / "does_not_exist.py")])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


def test_no_paths_is_a_usage_error(capsys):
    code = main([])
    assert code == 2
    capsys.readouterr()


def test_list_rules(capsys):
    code = main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [
        "runtime-assert",
        "set-iteration",
        "determinism-taint",
    ]
