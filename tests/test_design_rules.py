"""The library's design rules run as a tier-1 test.

The rules are one AST script, the heredoc of the design-rule step in
``.github/workflows/tests.yml``: it walks ``src/whopf`` from the directory
it runs in, prints ``path:line`` for each node that breaks a rule and exits
1, or prints an empty line and exits 0.  This test runs that very script on the
library, and on a copy of the library with one ``assert`` injected, to see
that it still catches a break.
"""

import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def design_rules():
    """The AST script of the workflow's design-rule step, dedented."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    found = re.findall(r"python - <<'EOF'\n(.*?)\n[ \t]*EOF\n", workflow, re.DOTALL)
    assert len(found) == 1, "one design-rule heredoc in the workflow"
    return textwrap.dedent(found[0])


def run_rules(cwd):
    return subprocess.run(
        [sys.executable, "-"], input=design_rules(), cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_the_library_keeps_the_design_rules():
    got = run_rules(ROOT)
    assert (got.returncode, got.stdout.strip(), got.stderr) == (0, "", "")


def test_the_design_rules_catch_an_injected_assert(tmp_path):
    shutil.copytree(ROOT / "src" / "whopf", tmp_path / "src" / "whopf", ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "whopf" / "errors.py"
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines + ["assert WhopfError"]) + "\n")
    got = run_rules(tmp_path)
    assert got.returncode == 1
    assert got.stdout.split() == [f"src/whopf/errors.py:{len(lines) + 1}"]
