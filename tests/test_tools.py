"""The repository's tools, run as their users run them."""

import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def code_lines(*paths):
    proc = subprocess.run([sys.executable, str(CODE_LINES), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_code_lines_walks_a_directory_as_its_sorted_files(tmp_path):
    """A directory prints what the list of its .py files, in sorted order,
    prints: one line per file and the total; other files are skipped."""
    tree = tmp_path / "pkg"
    (tree / "sub").mkdir(parents=True)
    (tree / "b.py").write_text('"""Doc."""\n\nx = 1\n')
    (tree / "a.py").write_text("# comment\ndef f():\n    return 2\n")
    (tree / "sub" / "c.py").write_text("y = [\n    3,\n]\n")
    (tree / "notes.txt").write_text("z = 4\n")
    files = [tree / "a.py", tree / "b.py", tree / "sub" / "c.py"]
    out = code_lines(tree)
    assert out == code_lines(*files)
    assert out.splitlines() == [f"     2  {files[0]}", f"     1  {files[1]}",
                                f"     3  {files[2]}", "     6  total"]
