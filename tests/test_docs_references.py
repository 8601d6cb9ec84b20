"""Every dotted ``repro.…`` reference in the docs and docstrings resolves.

Two sources are scanned:

* backticked code spans in ``docs/*.md``, ``README.md``, ``DESIGN.md``
  and ``EXPERIMENTS.md`` (the dotted ``repro`` prefix of the span, so
  ``python -m repro.experiments --full`` checks ``repro.experiments``);
* Sphinx ``:func:``/``:class:``/``:mod:``/``:meth:`` roles in the
  docstrings under ``src/``.

A reference resolves when its longest importable module prefix imports
and the remaining names are attributes of it.  Deleting or renaming a
public name then fails here instead of leaving a dangling reference.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
]
_DOTTED = r"repro(?:\.\w+)+"
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_IN_SPAN = re.compile(rf"(?<![\w.]){_DOTTED}")
_ROLE = re.compile(rf":(?:func|class|mod|meth):`~?\.?({_DOTTED})`")


def doc_references():
    """``(file, reference)`` pairs from backticked code spans."""
    found = []
    for path in DOC_FILES:
        for span in _CODE_SPAN.findall(path.read_text()):
            found += [(path.name, ref) for ref in _IN_SPAN.findall(span)]
    return found


def source_references():
    """``(file, reference)`` pairs from docstring cross-reference roles."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        name = str(path.relative_to(ROOT))
        found += [(name, ref) for ref in _ROLE.findall(path.read_text())]
    return found


def resolves(reference: str) -> bool:
    parts = reference.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            # Only the candidate (or a parent of it) may be missing; a
            # module that fails on its own imports is a real error.
            if not (module_name + ".").startswith(f"{error.name}."):
                raise
            continue
        break
    else:
        return False
    for attribute in parts[split:]:
        if not hasattr(target, attribute):
            return False
        target = getattr(target, attribute)
    return True


def dangling(references):
    return sorted({(where, ref) for where, ref in references if not resolves(ref)})


def test_resolver_flags_missing_names():
    assert resolves("repro.san.lumping.lumped_state_space")
    assert resolves("repro.san.assembled.AssembledChain.rerate")
    assert not resolves("repro.san.lumping.no_such_function")
    assert not resolves("repro.san.no_such_module")
    assert not resolves("repro.san.assembled.AssembledChain.no_such_method")


@pytest.mark.parametrize(
    "collect, minimum",
    [(doc_references, 50), (source_references, 100)],
    ids=["docs", "docstrings"],
)
def test_every_reference_resolves(collect, minimum):
    references = collect()
    # A broken pattern would find nothing and pass vacuously.
    assert len(references) >= minimum
    assert dangling(references) == []
