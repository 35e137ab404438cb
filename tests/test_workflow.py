"""The CI workflow's inline Python compiles.

``.github/workflows/tests.yml`` runs Python written inside its YAML: the
``ALL_CORRECT`` block, which checks the benchmark's output, and the
``python -c "..."`` check that the package imports from site-packages once
installed. A syntax error there
shows only when the workflow runs, so each snippet is compiled here, read
off the file's text (no YAML parser needed).
"""

import re
import textwrap
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# ``python -c "<code>"`` or ``python3 -c "<code>"``; the snippets quote
# their own strings with single quotes
_INLINE = re.compile(r'\bpython3? -c "([^"]*)"')


def _block(text: str, key: str) -> str | None:
    """The literal block scalar ``key: |``: the lines indented past the key."""
    match = re.search(rf"^( *){key}: \|\n((?:\1 +\S.*\n|\n)+)", text, re.MULTILINE)
    return textwrap.dedent(match.group(2)) if match else None


def _snippets(text: str) -> list[tuple[str, str | None]]:
    """Each inline Python snippet as ``(label, code)``, in file order; a
    ``python -c "$NAME"`` is the block of ``NAME``, ``None`` if there is none."""
    found = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for code in _INLINE.findall(line):
            if code.startswith("$"):
                name = code.strip("${}")
                found.append((f"line {lineno}: ${name}", _block(text, name)))
            else:
                found.append((f"line {lineno}", code))
    return found


def _compile_errors(text: str) -> list[str]:
    """The label and error of each snippet that does not compile."""
    errors = []
    for label, code in _snippets(text):
        if code is None:
            errors.append(f"{label}: no such block")
            continue
        try:
            compile(code, label, "exec")
        except SyntaxError as exc:
            errors.append(f"{label}: {exc}")
    return errors


def test_workflow_snippets_compile():
    text = WORKFLOW.read_text()
    found = _snippets(text)
    # every "-c" in the file is one snippet: none slipped past the pattern
    assert len(found) == text.count(' -c "') >= 3
    assert _compile_errors(text) == []


def test_all_correct_block_is_read_whole():
    code = _block(WORKFLOW.read_text(), "ALL_CORRECT")
    assert code.startswith("import json, sys\n") and "sys.exit(" in code


def test_guard_flags_broken_snippets():
    text = (
        "env:\n"
        "  GOOD: |\n"
        "    import sys\n"
        "    sys.exit(0)\n"
        "  BAD: |\n"
        "    if True\n"
        "      pass\n"
        "steps:\n"
        "  - run: |\n"
        "      python -c \"import json; json.load(open('x'))\"\n"
        "      python -c \"print(1\" x.json\n"
        "      python3 -c \"$GOOD\" out.txt\n"
        "      python3 -c \"$BAD\" out.txt\n"
        "      python3 -c \"$MISSING\" out.txt\n"
    )
    assert len(_snippets(text)) == 5
    errors = _compile_errors(text)
    assert [error.split(": ")[0] for error in errors] == ["line 11", "line 13", "line 14"]
    assert "$BAD" in errors[1] and "$MISSING" in errors[2]
