"""The engine's own source tree lints clean — the repo-wide invariant.

Every rule runs over the whole package, and every suppression comment
that silences nothing is reported too: reintroducing a runtime assert in
the storage layer, iterating a dedup set or leaving a stale suppression
behind fails here before CI.
"""

from pathlib import Path

from repro.analysis import lint_paths

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_package_tree_has_no_findings():
    findings = lint_paths([PACKAGE_ROOT])
    assert [f.format() for f in findings] == []
