"""A stdlib twin of the CI ``lint`` job (``ruff check .``) for the rules it can decide exactly.

It walks the same trees as ``[tool.ruff] src`` in ``pyproject.toml`` and
checks, with ``ast`` and ``tokenize`` only:

* F401 — an import that nothing in its file reads.  A name listed in
  ``__all__`` counts as read, and an ``__init__.py`` re-exports what it
  imports;
* E501 — a line longer than ``[tool.ruff] line-length`` (110) columns,
  except one unbroken word or a line that ends in a URL, as ruff allows;
* W291 / W293 — trailing whitespace, on a code line or on a blank one.

A ``# noqa`` comment on the line, bare or naming the rule, silences it as
it does for ruff.
"""

import ast
import io
import os
import re
import tokenize

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ruff_setting(key):
    """One value of the ``[tool.ruff]`` table (the stdlib of 3.9 reads no TOML)."""
    with open(os.path.join(ROOT, "pyproject.toml"), "r", encoding="utf-8") as handle:
        table = handle.read().split("[tool.ruff]", 1)[1].split("\n[", 1)[0]
    return ast.literal_eval(re.search(rf"^{key}\s*=\s*(.+)$", table, re.M).group(1))


LINE_LENGTH = _ruff_setting("line-length")


def _python_files():
    for tree in _ruff_setting("src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, tree)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__pycache__")))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


FILES = [os.path.relpath(path, ROOT) for path in _python_files()]


def _noqa_lines(source):
    """{line number: the rules its ``# noqa`` names (empty: all of them)}."""
    lines = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            match = re.search(r"#\s*noqa(?::\s*([A-Z0-9, ]+))?", token.string, re.I)
            if match:
                codes = match.group(1) or ""
                lines[token.start[0]] = {code.strip() for code in codes.split(",") if code.strip()}
    return lines


def _silenced(noqa, line, code):
    return line in noqa and (not noqa[line] or code in noqa[line])


def _names_read(tree):
    """Every name the module reads: loads, attribute roots, ``__all__`` and string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            every_arg = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            every_arg += [node.args.vararg, node.args.kwarg]
            annotations.extend(arg.annotation for arg in every_arg if arg is not None)
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) and node.value:
                names.update(c.value for c in ast.walk(node.value)
                             if isinstance(c, ast.Constant) and isinstance(c.value, str))
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def unused_imports(path):
    """F401 findings in one file, as ``(line, bound name)``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    if os.path.basename(path) == "__init__.py":
        return []
    tree = ast.parse(source, filename=path)
    noqa = _noqa_lines(source)
    read = _names_read(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in read and not _silenced(noqa, node.lineno, "F401"):
                    found.append((node.lineno, bound))
    return found


def _one_word(line):
    """Ruff's E501 exemption: one unbroken word, alone or as a comment, or a trailing URL."""
    words = line.split()
    return (len(words) == 1 or (len(words) == 2 and words[0] == "#")
            or ("://" in words[-1] and line.rindex(words[-1]) < LINE_LENGTH))


def layout_findings(path):
    """E501, W291 and W293 findings in one file, as ``(line, code)``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    noqa = _noqa_lines(source)
    found = []
    for number, line in enumerate(source.splitlines(), 1):
        if len(line) > LINE_LENGTH and not _one_word(line):
            found.append((number, "E501"))
        if line != line.rstrip():
            found.append((number, "W293" if not line.strip() else "W291"))
    return [(number, code) for number, code in found if not _silenced(noqa, number, code)]


def test_the_walk_covers_the_ruff_trees():
    assert any(path.startswith("src") for path in FILES)
    assert any(path.startswith("tests") for path in FILES)
    assert os.path.join("tests", "test_lint.py") in FILES


def test_the_checks_find_what_they_look_for(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import os\n"
        "from typing import List, Optional  # noqa: E501\n"
        "import json  # noqa: F401\n"
        "__all__ = ['Optional']\n"
        "x: 'List[int]' = []\n"
        f"y = '{'a' * LINE_LENGTH}'\n"
        "z = 1 \n"
        "  \n"
        f"# {'https://example.invalid/' + 'b' * LINE_LENGTH}\n"
    )
    assert unused_imports(str(bad)) == [(1, "os")]
    assert layout_findings(str(bad)) == [(6, "E501"), (7, "W291"), (8, "W293")]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_import(path):
    assert unused_imports(os.path.join(ROOT, path)) == []


@pytest.mark.parametrize("path", FILES)
def test_no_long_line_or_trailing_whitespace(path):
    assert layout_findings(os.path.join(ROOT, path)) == []
