import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, path], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_quick_start_prints_its_comments(capsys):
    """The README's library quick start runs, and each `print` line writes
    what the `# ...` comment on that line says."""
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert expected
