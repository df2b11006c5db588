"""Every ``from repro... import ...`` in the docs' python blocks resolves.

The README and ``docs/*.md`` show the public API in fenced ``python``
blocks.  A name that is renamed or deleted in ``src/`` would leave a
stale import there; this test imports every such name.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
FROM_IMPORT = re.compile(
    r"^\s*from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n]*)", re.MULTILINE
)


def doc_imports(text):
    """``(module, name)`` for every name a ``from repro`` import names."""
    for block in FENCE.findall(text):
        code = "\n".join(line.split("#", 1)[0] for line in block.splitlines())
        for module, names in FROM_IMPORT.findall(code):
            for name in names.strip("()").split(","):
                name = name.split(" as ")[0].strip()
                if name:
                    yield module, name


#: One case per file and name; a name a file imports twice is checked once.
CASES = [
    pytest.param(module, name, id=f"{filename}:{module}.{name}")
    for filename, module, name in dict.fromkeys(
        (path.name, module, name)
        for path in DOCS
        for module, name in doc_imports(path.read_text(encoding="utf-8"))
    )
]


def test_docs_show_repro_imports():
    assert len(CASES) > 50


@pytest.mark.parametrize("module,name", CASES)
def test_doc_import_resolves(module, name):
    imported = importlib.import_module(module)
    if not hasattr(imported, name):
        # ``from package import submodule`` names a module, not an attribute.
        importlib.import_module(f"{module}.{name}")


def test_comments_are_stripped_before_names_split():
    text = (
        "```python\n"
        "from repro.metrics import (\n"
        "    delay_report,   # Fig. 4, a, b\n"
        "    jain_index as jain,\n"
        ")\n"
        "```\n"
    )
    assert list(doc_imports(text)) == [
        ("repro.metrics", "delay_report"),
        ("repro.metrics", "jain_index"),
    ]
