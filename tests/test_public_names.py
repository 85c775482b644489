"""Every public top-level def or class of the package has a use in
`src/` outside its own body, or is named in FIXTURES_ONLY with the
reason it stays.  The list is exact: a listed name that gains a use in
`src/`, or disappears, fails the guard too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "clustermirror"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# module.name -> why it stays with no use in src/
FIXTURES_ONLY = {
    "almost_toric.skeleton_from_base":
        "ROADMAP item 8 routes `base trade --skeleton` through it",
    "local_system.mutate_symbolic":
        "the oracle of the closed-form chart transitions; perfbench's tracer wraps it by name",
    "seed.seed_equivalent": "acceptance criterion 4",
    "skeleton.bondal_strata": "acceptance criterion 6",
}


def _relative_imports(nodes):
    """local name -> (module, name) bound by the relative imports among nodes."""
    return {alias.asname or alias.name: (node.module, alias.name) for node in nodes
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def unused_public_names(sources):
    """(module, name) of every public top-level def or class in sources
    (module -> source text) that no module names outside that def's own
    body.  A name resolves through the relative imports inside the
    top-level statement that uses it, then through its module's top
    level; an import alone is not a use."""
    public, used = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scope = {top.name: (module, top.name) for top in tree.body if isinstance(top, DEFS)}
        public |= {ref for name, ref in scope.items() if not name.startswith("_")}
        scope.update(_relative_imports(tree.body))
        for top in tree.body:
            own = scope.get(top.name) if isinstance(top, DEFS) else None
            names = dict(scope, **_relative_imports(ast.walk(top)))
            used |= {names[node.id] for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id in names} - {own}
    return public - used


def test_every_public_name_is_used_or_listed():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    found = {"%s.%s" % ref for ref in unused_public_names(sources)}
    assert found == set(FIXTURES_ONLY), (found - set(FIXTURES_ONLY),
                                         set(FIXTURES_ONLY) - found)


def test_every_unused_public_name_is_found():
    sources = {
        "a": "from .b import used as alias\n"
             "def public():\n    return helper() + alias() + lonely()\n"
             "def helper():\n    return 1\n"
             "def lonely():\n    return 2\n"
             "def recursive(n):\n    return recursive(n - 1)\n"
             "def _private():\n    return 3\n"
             "class Record:\n    pass\n"
             "ENTRY = public\n",
        "b": "from .a import recursive\n"
             "def used():\n    return 0\n"
             "def lonely():\n    return 0\n"
             "def caller():\n    from .a import Record as R\n    return R\n",
        # the same local name, imported from a and from b in two functions
        "c": "def one():\n    from .a import helper as f\n    return f()\n"
             "def two():\n    from .b import used as f\n    return f\n"
             "def three():\n    from .b import lonely as f\n    return 0\n",
    }
    assert unused_public_names(sources) == {
        ("a", "recursive"), ("b", "lonely"), ("b", "caller"),
        ("c", "one"), ("c", "two"), ("c", "three")}
