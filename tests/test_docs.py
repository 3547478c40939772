"""Documentation checks: links resolve, fenced Python parses, doctests pass.

Keeps ``docs/*.md`` and the READMEs from rotting: every relative link
must point at a real file, every fenced ``python`` block must at least
compile against current syntax, every name it imports ``from repro…``
must exist, and blocks written as interpreter sessions (``>>>``) are
executed as doctests against the live package — so an API rename or
removal breaks CI here instead of silently breaking the docs.
Fast (no benchmarks), part of the tier-1 ``-m "not bench"`` run.
"""

import ast
import doctest
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [ROOT / "README.md", ROOT / "examples" / "README.md"]
    + list((ROOT / "docs").glob("*.md"))
)

FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.DOTALL | re.MULTILINE)
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")

doc_ids = [str(path.relative_to(ROOT)) for path in DOC_FILES]


def test_docs_tree_exists():
    assert (ROOT / "docs").is_dir()
    for name in ("architecture.md", "serving.md", "performance.md"):
        assert (ROOT / "docs" / name).is_file(), f"docs/{name} missing"
    assert (ROOT / "README.md").is_file()


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids)
def test_relative_links_resolve(path):
    text = path.read_text()
    broken = []
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            broken.append(target)
    assert not broken, f"{path.name}: broken relative links {broken}"


def python_fences(path):
    for match in FENCE.finditer(path.read_text()):
        language, body = match.group(1), match.group(2)
        if language == "python":
            yield body


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids)
def test_python_fences_compile(path):
    for i, body in enumerate(python_fences(path)):
        if ">>>" in body:
            continue  # executed by the doctest check below
        try:
            compile(body, f"{path.name}[fence {i}]", "exec")
        except SyntaxError as exc:  # pragma: no cover - failure path
            pytest.fail(f"{path.name} fence {i} does not compile: {exc}")


def repro_imports(path):
    """``(module, name)`` for every name a fenced python block of
    ``path`` imports ``from repro…`` (doctest prompts stripped)."""
    parser = doctest.DocTestParser()
    for body in python_fences(path):
        if ">>>" in body:
            body = "".join(example.source for example in parser.get_examples(body))
        for node in ast.walk(ast.parse(body)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def _resolves(module, name):
    """Would ``from module import name`` succeed?"""
    try:
        return hasattr(importlib.import_module(module), name) or bool(
            importlib.import_module(f"{module}.{name}")
        )
    except ImportError:
        return False


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids)
def test_fenced_repro_imports_resolve(path):
    missing = [
        f"from {module} import {name}"
        for module, name in repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not missing, f"{path.name}: fenced imports that fail: {missing}"
    if path.name == "serving.md":
        assert any(repro_imports(path))  # the check actually found imports


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids)
def test_doctest_fences_pass(path):
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    ran = 0
    for i, body in enumerate(python_fences(path)):
        if ">>>" not in body:
            continue
        test = parser.get_doctest(
            body, {}, name=f"{path.name}[fence {i}]", filename=str(path), lineno=0
        )
        result = runner.run(test, clear_globs=True)
        ran += result.attempted
        assert result.failed == 0, f"{path.name} fence {i}: doctest failures"
    if path.name == "serving.md":
        assert ran > 0  # the guide's doctest examples actually executed
