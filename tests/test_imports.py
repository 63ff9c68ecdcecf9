"""Every top-level import of a `grrs` module is used in that module, every
private helper of the package is read somewhere in it, and every public
name is exported, documented or read.

No linter runs with the suite, so a name left imported after its last use
would go unnoticed.  `__init__.py` imports to re-export and is exempt, as
is `from __future__`.  A private name (one leading underscore, not a
dunder) defined at the top level of a module, or as a method, is dead when
no module of `src/grrs` reads it: as a name, as an attribute, or by
importing it.  A public top-level name or method is dead when the package
does not export it, neither the README nor a demo names it, and no module
of `src/grrs` reads it.  No module but `linalg` reads a space's `gram`
view: the integer rows are the one representation of a Gram matrix.  Every
derived reading of a finite system is kept once per distinct system, in the
shared store of `finite._readings`: none is a per-object `cached_property`.
"""

import ast
import re
from functools import cached_property
from pathlib import Path

import pytest

from grrs import finite

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "grrs"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """The names bound by the top-level imports of `source` that nothing in
    it reads, in the order they are imported."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(source) == ["os", "c"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(sources, kind):
    """The top-level names and methods that `sources` (module name ->
    source text) define and that satisfy `kind`, as "module.name" or
    "module.Class.name", and the set of names the sources read."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [getattr(node, "name", None)] + [getattr(t, "id", None) for t in targets]
            defined += [f"{module}.{n}" for n in names if n and kind(n)]
            if isinstance(node, ast.ClassDef):
                defined += [f"{module}.{node.name}.{m.name}" for m in node.body
                            if isinstance(m, ast.FunctionDef) and kind(m.name)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return defined, read


def unread_private_names(sources):
    """The private top-level names and methods defined in `sources` (module
    name -> source text) that none of them reads."""
    defined, read = _definitions(sources, _private)
    return [name for name in defined if name.rpartition(".")[2] not in read]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\ndef _dead(v):\n    return v\n"
             "def _used():\n    return _LIMIT\n"
             "class C:\n    def __init__(self):\n        self._x = _used()\n"
             "    def _step(self):\n        return self._x\n",
        "b": "from .a import _used\n",
    }
    assert unread_private_names(sources) == ["a._dead", "a.C._step"]


# Public names kept although the lint would flag them, with the reason.
KEPT_PUBLIC = {
    # bench/tracer.py wraps both, and tests/test_bench_hooks.py checks that
    # every name it wraps resolves
    "linalg.Lattice.intersect",
    "linalg.Lattice.coset_representatives",
}


def unread_public_names(sources, exported, docs):
    """The public top-level names and methods defined in `sources` (module
    name -> source text) that are not in `exported` (the names the package
    exports, which counts for top-level names only), that no word of `docs`
    names and that none of the sources reads."""
    defined, read = _definitions(sources, lambda n: not n.startswith("_"))
    named = set(re.findall(r"\w+", docs))
    return [name for name in defined
            if (name.count(".") > 1 or name.rpartition(".")[2] not in exported)
            and not {name.rpartition(".")[2]} & (named | read)]


def test_no_unread_public_names():
    sources = {p.stem: p.read_text() for p in MODULES}
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    docs = "\n".join(p.read_text() for p in [ROOT / "README.md", *sorted(ROOT.glob("demos/*.py"))])
    assert sorted(set(unread_public_names(sources, exported, docs)) - KEPT_PUBLIC) == []
    # the kept names are still flagged, or the allowance is stale
    assert KEPT_PUBLIC <= set(unread_public_names(sources, exported, docs))


def test_the_check_sees_an_unread_public_name():
    sources = {
        "a": "LIMIT = 3\ndef dead(v):\n    return v\ndef shown():\n    return LIMIT\n"
             "def exported():\n    pass\n"
             "class C:\n    def step(self):\n        return shown()\n"
             "    def exported(self):\n        pass\n",
        "b": "from .a import C\n",
    }
    assert unread_public_names(sources, {"exported", "C"}, "`C.step` steps") == [
        "a.dead", "a.C.exported"]


def gram_readers(sources):
    """The modules of `sources` (module name -> source text), `linalg`
    aside, that read an attribute named `gram`: a space's `Fraction` view
    of its Gram matrix, which the library reads on its integer rows."""
    return [module for module, source in sources.items() if module != "linalg" and any(
        isinstance(n, ast.Attribute) and n.attr == "gram" and isinstance(n.ctx, ast.Load)
        for n in ast.walk(ast.parse(source)))]


def test_only_linalg_reads_the_gram_view():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert gram_readers(sources) == []


def test_the_check_sees_a_gram_reader():
    sources = {
        "linalg": "def view(space):\n    return space.gram\n",
        "a": "def first(space):\n    return space.gram[0]\n",
        "b": "gram = [[1]]\ndef rows(space):\n    return space._rows, gram\n",
    }
    assert gram_readers(sources) == ["a"]


# The derived readings of a finite system, each computed once per distinct
# system into its shared store.
FINITE_READINGS = (
    "roots", "_span", "_over_span", "_lookup", "_unit", "_gram_rows", "_pairings", "_norms",
    "_neg", "_packed", "_image_rows", "_fingerprints",
)


def per_object_readings(cls):
    """The attributes of `cls` cached per object by a plain `cached_property`,
    which an equal object would compute again."""
    return [name for name, attr in vars(cls).items() if isinstance(attr, cached_property)]


def test_finite_readings_are_shared():
    assert per_object_readings(finite.FiniteRootSystem) == []
    shared = [name for name, attr in vars(finite.FiniteRootSystem).items()
              if isinstance(attr, finite._shared)]
    assert sorted(shared) == sorted(FINITE_READINGS)


def test_the_check_sees_a_per_object_reading():
    class System:
        @cached_property
        def _pairings(self):
            return []

        @finite._shared
        def _norms(self):
            return ()

    assert per_object_readings(System) == ["_pairings"]
