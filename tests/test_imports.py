"""No module imports a name it never uses, and the package ships no test-only code.

A name bound by ``import`` or ``from ... import`` counts as used when it
appears anywhere in the module as a bare name (``latnf.resonance.BLOCK`` uses
``latnf``).  Package ``__init__`` files re-export their imports and are
exempt.

Every public top-level function, class or assigned name of ``src/latnf``
must be read somewhere other than its own definition: in the package, in ``scripts/`` or
in ``perfbench/``.  Code that only the tests call belongs under ``tests/``
(``tests/oracles.py``, ``tests/estimates.py``).  The exceptions are listed in
``UNCALLED``.

Every field of a public dataclass of ``src/latnf`` must be read as an
attribute (``x.field``) somewhere in the package, in ``scripts/`` or in
``perfbench/``: a result that nothing reads is not computed.  A load in
the arguments of a call of the field's own dataclass only copies the field
into a new instance and is no read.  The scan matches names only, so a read
of a same-named attribute of another object counts.  The exceptions are
listed in ``UNREAD``.

Every defaulted parameter of a public top-level function of ``src/latnf``,
and every defaulted field of a public dataclass, must be set by some call in
the package, in ``scripts/`` or in ``perfbench/``: a default that no caller
overrides is a constant.  The exceptions are listed in ``UNSET``.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path.relative_to(REPO).as_posix()
    for folder in ("src/latnf", "tests", "scripts")
    for path in (REPO / folder).glob("*.py")
    if path.name != "__init__.py"
)

#: public names that nothing outside the tests calls, kept on purpose:
#: ``transform_state`` awaits the command that runs it (ROADMAP item 7)
UNCALLED = {("normalform", "transform_state")}

#: dataclass fields that nothing outside the tests reads, kept on purpose:
#: none now, but the scan stays, so that such a field must be listed here
UNREAD = set()

#: dataclasses whose fields are all read by ``dataclasses.asdict``, which no
#: attribute load shows: the ``commutation`` block of the normal-form
#: manifest and the runs of the ``stability_sweep.py --out`` report
SERIALIZED = {("normalform", "CommutationReport"), ("dynamics", "StabilityRun")}

#: defaulted parameters that no caller outside the tests sets, kept on purpose:
#: the options of ``transform_state`` await the command that runs it
#: (ROADMAP item 7), and only the tests start a trajectory from given modes
#: (``SimulationConfig.initial_modes`` and ``initial_velocity_modes``), as
#: the comparison of the normal form with the dynamics of item 7 will
UNSET = {
    ("normalform", "transform_state", name)
    for name in ("lattice", "s", "ball", "inverse", "tol", "max_steps")
} | {
    ("dynamics", "SimulationConfig", "initial_modes"),
    ("dynamics", "SimulationConfig", "initial_velocity_modes"),
}


def unused_imports(source: str):
    """``(line, name)`` of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import latnf.resonance\n"
        "from typing import Dict as D, Tuple\n"
        "def f(x: D) -> int:\n"
        "    return latnf.resonance.BLOCK + len(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Tuple")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((REPO / module).read_text()) == []


def _read_names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _latnf_modules(tree, modules):
    """Names that the imports of ``tree`` bind to ``latnf`` or one of its ``modules``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(
                a.asname or "latnf" for a in node.names if a.name.split(".")[0] == "latnf"
            )
        elif isinstance(node, ast.ImportFrom):
            # ``from latnf import forms`` and, in the package, ``from . import forms``
            if node.module == "latnf" or (node.level and node.module is None):
                bound.update(a.asname or a.name for a in node.names if a.name in modules)
    return bound


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_reads(node, bound):
    """Bare names, and attributes whose root name is one of the ``bound`` modules."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) or isinstance(n, ast.Attribute) and _root(n) in bound
    }


def _defined_names(node):
    """The names a top-level statement defines: a def, a class or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def uncalled_definitions(package, outside):
    """``(module, name)`` of each public top-level def, class or assigned name that nothing reads.

    ``package`` maps module names to sources, ``outside`` lists the sources
    of the scripts and the benchmark.  A definition is read when its name
    appears in another top-level statement of the package or anywhere in an
    outside source, as a bare name or as an attribute of a name that an
    import binds to ``latnf`` or one of its modules (``np.conjugate`` reads
    no ``conjugate`` of the package).
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    statements = []
    for module, tree in trees.items():
        bound = _latnf_modules(tree, trees)
        statements += [(module, node, _module_reads(node, bound)) for node in tree.body]
    read_outside = set()
    for tree in map(ast.parse, outside):
        read_outside |= _module_reads(tree, _latnf_modules(tree, trees))
    found = set()
    for module, node, _ in statements:
        for name in _defined_names(node):
            if name.startswith("_") or name in read_outside:
                continue
            if not any(name in names for _, other, names in statements if other is not node):
                found.add((module, name))
    return found


def test_the_scan_sees_uncalled_definitions():
    package = {
        "a": (
            "def called():\n    pass\n"
            "def caller():\n    return called()\n"
            "def recursive():\n    return recursive()\n"
            "class Read:\n    pass\n"
            "def scripted():\n    pass\n"
            "def aliased():\n    pass\n"
            "def imported():\n    pass\n"
            "def conjugate():\n    pass\n"
            "def _private():\n    pass\n"
            "UNREAD = 1\n"
            "TYPED: int = 2\n"
            "SHARED = 3\n"
            "_PRIVATE = 4\n"
        ),
        "b": "from . import a\nx = a.Read, a.SHARED\n",
        # an attribute of numpy reads no definition of the package
        "c": "import numpy as np\ny = np.conjugate(1j)\n",
    }
    outside = [
        "import latnf\nlatnf.a.scripted()\n",
        "import latnf.a as mod\nfrom latnf import a\nmod.aliased(a.imported)\n",
    ]
    assert uncalled_definitions(package, outside) == {
        ("a", "caller"), ("a", "recursive"), ("a", "conjugate"),
        ("a", "UNREAD"), ("a", "TYPED"),
        # the assigned names ``x`` and ``y`` of b and c are read nowhere either
        ("b", "x"), ("c", "y"),
    }


def _sources():
    """The package modules by name, and the sources of the scripts and the benchmark."""
    package = {
        path.stem: path.read_text()
        for path in (REPO / "src" / "latnf").glob("*.py")
        if path.name != "__init__.py"
    }
    outside = [
        path.read_text() for folder in ("scripts", "perfbench") for path in (REPO / folder).glob("*.py")
    ]
    return package, outside


def test_the_package_ships_only_what_runs():
    assert uncalled_definitions(*_sources()) == UNCALLED


def _defaulted_parameters(node):
    """``(name, position)`` of each defaulted parameter; keyword-only ones have no position."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _is_dataclass(node):
    return any("dataclass" in _read_names(d) for d in node.decorator_list)


def _fields(node):
    """The field declarations of a dataclass; a ``ClassVar`` annotation declares none."""
    return [
        s for s in node.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        and "ClassVar" not in _read_names(s.annotation)
    ]


def _defaulted_fields(node):
    """``(name, position)`` of each defaulted field of a dataclass, in field order."""
    return [(f.target.id, i) for i, f in enumerate(_fields(node)) if f.value is not None]


def _sets(call, name, position):
    """Whether ``call`` may pass the parameter ``name`` (a ``*``/``**`` splat may)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unset_defaults(package, outside):
    """``(module, function, parameter)`` of each default that no call overrides.

    A call is a call of a bare name or an attribute that matches the
    function's name, anywhere in ``package`` or ``outside``.
    """
    calls = {}
    for source in list(package.values()) + list(outside):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr
                calls.setdefault(name, []).append(node)
    found = set()
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defaulted = _defaulted_parameters(node)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                defaulted = _defaulted_fields(node)
            else:
                continue
            if node.name.startswith("_"):
                continue
            for name, position in defaulted:
                if not any(_sets(call, name, position) for call in calls.get(node.name, ())):
                    found.add((module, node.name, name))
    return found


def test_the_scan_sees_unset_defaults():
    package = {
        "a": (
            "def f(x, y=1, z=2, *, k=3, m=4):\n    pass\n"
            "def g(x=0):\n    pass\n"
            "def h(x=0):\n    pass\n"
            "def _private(x=0):\n    pass\n"
            "def run():\n    f(0, 5, k=6)\n    h(*args)\n"
            "@dataclass(frozen=True)\n"
            "class C:\n    x: int\n    k: ClassVar[int] = 0\n    y: int = 1\n    z: int = 2\n"
            "    w: int = 3\n"
            "    @property\n    def v(self):\n        return 4\n"
            "class Plain:\n    k: int = 0\n"
            "def build():\n    return C(0, 1, w=5)\n"
        ),
    }
    outside = ["import latnf\nlatnf.a.g(**opts)\n"]
    assert unset_defaults(package, outside) == {("a", "f", "z"), ("a", "f", "m"), ("a", "C", "z")}


def test_every_default_is_set_by_a_caller():
    assert unset_defaults(*_sources()) == UNSET


def _attribute_loads(tree):
    """``(attribute, names of the calls whose arguments hold it)`` of each attribute load."""
    around = {}
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for arg in [*call.args, *call.keywords]:
                for n in ast.walk(arg):
                    around.setdefault(id(n), set()).add(name)
    return [
        (n.attr, around.get(id(n), set())) for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    ]


def unread_fields(package, outside):
    """``(module, class, field)`` of each field of a public dataclass that nothing reads.

    A field is read when an attribute of its name is loaded anywhere in
    ``package`` or ``outside``, other than in the arguments of a call of
    its own class; an assignment to it is no read.
    """
    loads = {}
    for source in list(package.values()) + list(outside):
        for attr, calls in _attribute_loads(ast.parse(source)):
            loads.setdefault(attr, []).append(calls)
    return {
        (module, node.name, f.target.id)
        for module, source in package.items()
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and not node.name.startswith("_")
        for f in _fields(node)
        if all(node.name in calls for calls in loads.get(f.target.id, ()))
    }


def test_the_scan_sees_unread_fields():
    package = {
        "a": (
            "@dataclass\n"
            "class Report:\n    shown: int\n    echoed: int\n    unread: int\n    copied: int\n"
            "    passed: int\n"
            "    k: ClassVar[int] = 0\n"
            "    def total(self):\n        return self.shown\n"
            "@dataclass\nclass _Private:\n    hidden: int\n"
            "class Plain:\n    plain: int = 0\n"
            "def make():\n    r = Report(1, 2, 3, 4, 5)\n    r.unread = 4\n    return r\n"
            # a copy into a new Report is no read; an argument of another call is
            "def copy(r):\n    return Report(r.shown, r.echoed, r.unread, f(r.copied), r.passed)\n"
            "def wrap(r):\n    return Plain(r.passed)\n"
        ),
    }
    outside = ["print(report.echoed)\n"]
    assert unread_fields(package, outside) == {("a", "Report", "unread"), ("a", "Report", "copied")}


def test_every_dataclass_field_is_read():
    unread = {field for field in unread_fields(*_sources()) if field[:2] not in SERIALIZED}
    assert unread == UNREAD
