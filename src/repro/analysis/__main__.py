"""CLI for replint: ``python -m repro.analysis [paths...]``.

Exit status: 0 clean, 1 findings, 2 usage/parse error.  Every run also
reports the suppression comments that silenced nothing (the
``unused-suppression`` pseudo-rule).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import lint_paths
from repro.analysis.rules import all_rules, rules_by_id


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="replint: AST-based invariant checker for the repro engine",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (e.g. src/repro)"
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:>16}  {rule.description}")
        return 0
    rules = all_rules()
    if args.rules is not None:
        catalogue = rules_by_id()
        wanted = [part.strip() for part in args.rules.split(",") if part.strip()]
        unknown = [rule_id for rule_id in wanted if rule_id not in catalogue]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [catalogue[rule_id]() for rule_id in wanted]
    paths = [Path(p) for p in args.paths]
    if not paths:
        print("no paths given (try src/repro)", file=sys.stderr)
        return 2
    for path in paths:
        if not path.exists():
            print(f"no such path: {path}", file=sys.stderr)
            return 2
    try:
        findings = lint_paths(paths, rules=rules)
    except SyntaxError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.format())
    label = "finding" if len(findings) == 1 else "findings"
    print(f"replint: {len(findings)} {label}")
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        status = main()
    except BrokenPipeError:
        # downstream consumer (head, grep -q) closed the pipe; exit
        # quietly like other unix filters, without a traceback
        sys.stderr.close()
        status = 1
    sys.exit(status)
