"""The ``python -m repro.analysis`` entry point: exit codes and output.

Scope prefixes are package-relative (``sim/``, ``algebra/``), so the
fixtures are staged into a miniature package layout: linting the staged
directory resolves ``<dir>/sim/clocks.py`` to the scope path
``sim/clocks.py`` exactly as ``src/repro`` resolves for CI.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def staged_tree(tmp_path):
    """Fixture files placed where the default scopes apply to them."""
    (tmp_path / "sim").mkdir()
    (tmp_path / "algebra").mkdir()
    shutil.copy(FIXTURES / "nondeterminism_bad.py", tmp_path / "sim" / "clocks.py")
    shutil.copy(FIXTURES / "slots_bad.py", tmp_path / "algebra" / "tuples.py")
    return tmp_path


def test_clean_file_exits_zero(capsys):
    code = main([str(FIXTURES / "nondeterminism_good.py"), "--no-config"])
    assert code == 0
    assert "0 findings" in capsys.readouterr().out


def test_findings_exit_one_with_location_lines(staged_tree, capsys):
    code = main([str(staged_tree), "--no-config", "--rules", "nondeterminism"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[nondeterminism]" in out
    assert "clocks.py:" in out


def test_json_report_shape(staged_tree, capsys):
    code = main([str(staged_tree), "--no-config", "--rules", "slots", "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 3
    assert report["counts"] == {"slots": 3}
    assert report["rules"] == ["slots"]
    assert all(
        {"rule", "path", "line", "col", "message"} <= set(f) for f in report["findings"]
    )


def test_scopes_keep_rules_off_unrelated_files(staged_tree, capsys):
    # the slots fixture sits under algebra/, outside nondeterminism's scope,
    # and the clocks fixture declares no classes: tuples.py stays silent here
    code = main([str(staged_tree), "--no-config", "--rules", "nondeterminism"])
    out = capsys.readouterr().out
    assert code == 1
    assert "tuples.py" not in out


def test_warn_unused_suppressions_flag(tmp_path, capsys):
    (tmp_path / "sim").mkdir()
    shutil.copy(FIXTURES / "unused_suppression.py", tmp_path / "sim" / "helpers.py")
    # without the flag the stale comment is invisible: the live one
    # silences the only finding and the run is clean
    code = main([str(tmp_path), "--no-config", "--rules", "nondeterminism"])
    assert code == 0
    capsys.readouterr()
    code = main(
        [
            str(tmp_path),
            "--no-config",
            "--rules",
            "nondeterminism",
            "--warn-unused-suppressions",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[unused-suppression]" in out
    assert "silenced nothing" in out


def test_unknown_rule_id_is_a_usage_error(capsys):
    code = main([str(FIXTURES / "slots_bad.py"), "--rules", "no-such-rule"])
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
    for rule_id in ("nondeterminism", "runtime-assert", "charge-accounting"):
        assert rule_id in out
