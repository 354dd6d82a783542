"""Per-rule fixture tests for the invariant linter.

Every registered RPL rule is exercised against a deliberately violating
fixture (flagged at exactly the ``# expect: RPLxxx``-marked lines) and a
clean fixture (no findings).  AST rules lint the fixture files under
``tests/lint_fixtures/``; the semi-dynamic picklability rules import
fixture *modules* from the same directory.

Marker syntax mirrors suppressions: a trailing ``# expect: RPLxxx``
targets its own line, a standalone one targets the next line.
"""

import re
import shutil
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import all_rules, lint_paths
from repro.analysis.lint.core import get_rule
from repro.analysis.lint.rules import picklable

FIXTURES = Path(__file__).parent / "lint_fixtures"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(RPL\d{3})")

#: Rules whose fixtures are linted as files (AST + engine meta rules).
FILE_RULES = (
    "RPL000", "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
    "RPL010", "RPL011", "RPL012", "RPL030",
    "RPL090", "RPL091", "RPL092",
)
#: Rules whose fixtures are imported as modules and probed.
MODULE_RULES = ("RPL020", "RPL021")


def expected_findings(path: Path) -> set:
    """(code, line) pairs declared by the fixture's # expect markers."""
    out = set()
    for lineno, text in enumerate(
        path.read_text(encoding="utf-8").splitlines(), 1
    ):
        match = _EXPECT_RE.search(text)
        if not match:
            continue
        standalone = not text.split("#", 1)[0].strip()
        out.add((match.group(1), lineno + 1 if standalone else lineno))
    return out


def lint_fixture(name: str, code: str, tmp_path: Path) -> set:
    path = FIXTURES / name
    rule = get_rule(code)
    if rule.library_only:
        # library_only rules skip anything under tests/ — lint a copy
        # from a neutral directory so the fixture actually runs.
        path = Path(shutil.copy(path, tmp_path / path.name))
    select = None if rule.meta else [code]
    result = lint_paths([str(path)], select=select, dynamic=False)
    return {(f.code, f.line) for f in result.findings}


@pytest.mark.parametrize("code", FILE_RULES)
def test_bad_fixture_flagged_at_marked_lines(code, tmp_path):
    name = f"{code.lower()}_bad.py"
    expected = expected_findings(FIXTURES / name)
    assert expected, f"{name} declares no # expect markers"
    assert lint_fixture(name, code, tmp_path) == expected


@pytest.mark.parametrize("code", FILE_RULES)
def test_clean_fixture_has_no_findings(code, tmp_path):
    assert lint_fixture(f"{code.lower()}_clean.py", code, tmp_path) == set()


# -- semi-dynamic picklability fixtures --------------------------------------


@pytest.fixture
def probe_fixture_module(monkeypatch):
    """Run ``check_modules`` against a fixture module by name."""
    monkeypatch.syspath_prepend(str(FIXTURES))
    loaded = []

    def probe(name):
        loaded.append(name)
        return picklable.check_modules([name])

    yield probe
    for name in loaded:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("code", MODULE_RULES)
def test_bad_module_fixture_flagged(code, probe_fixture_module):
    name = f"{code.lower()}_bad"
    findings = probe_fixture_module(name)
    assert {f.code for f in findings} == {code}
    assert all(f.path.endswith(f"{name}.py") for f in findings)


@pytest.mark.parametrize("code", MODULE_RULES)
def test_clean_module_fixture_passes(code, probe_fixture_module):
    assert probe_fixture_module(f"{code.lower()}_clean") == []


def test_unimportable_module_is_reported():
    findings = picklable.check_modules(["repro_no_such_module_xyz"])
    assert [f.code for f in findings] == ["RPL020"]
    assert "cannot import" in findings[0].message


def test_real_message_modules_are_picklable():
    assert picklable.check_modules() == []


def test_every_registered_rule_has_fixture_coverage():
    covered = set(FILE_RULES) | set(MODULE_RULES)
    assert {r.code for r in all_rules()} == covered
    for code in FILE_RULES + MODULE_RULES:
        assert (FIXTURES / f"{code.lower()}_bad.py").is_file()
        assert (FIXTURES / f"{code.lower()}_clean.py").is_file()
