"""Source hygiene: every name a package or test module imports is used in that
module, every private module-level name of the package is read somewhere in
it, the package imports nothing its declared dependencies lack, it draws
random numbers only through ``numpy.random.Generator``'s methods, only
``search`` counts solutions or doubles an oracle, only the oracle compiler
constructs an ``OracleCircuit``, and no package module reads another's
private name."""

import ast
import re
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "qslice"


def unused_imports(source: str) -> set[str]:
    """Names bound by the imports (``from __future__`` aside) that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as ``np.random.Generator`` reads its root as a Name
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_by_module(modules) -> dict[str, list[str]]:
    unused = {p.name: sorted(unused_imports(p.read_text())) for p in modules}
    return {name: names for name, names in unused.items() if names}


def test_every_name_a_module_imports_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 6
    assert not unused_by_module(modules)


def test_every_name_a_test_module_imports_is_used():
    modules = sorted(TESTS.glob("*.py"))
    assert len(modules) >= 10
    assert not unused_by_module(modules)


def private_definitions(source: str) -> set[str]:
    """Module-level functions, classes and constants named with one leading underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unread_privates(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each private definition that no module reads, as a name or an attribute."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_definitions(source) - read
    }


def test_the_private_rule_finds_unread_definitions():
    sources = {
        "a": "_LIMIT = 3\n_USED = 4\ndef _helper(): return _USED\nclass _Gone: pass\n"
        "def public(): return _helper()\n__all__ = ['public']\n",
        "b": "_ANNOTATED: int = 2\n_STORED = 1\n_STORED = 2\ndef f(a): return a._LIMIT\n",
    }
    assert unread_privates(sources) == {"a._Gone", "b._ANNOTATED", "b._STORED"}


def test_every_private_definition_in_the_package_is_read():
    # a helper, class or constant that its last caller no longer names is a
    # leftover of a deletion
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert len(sources) >= 7
    assert unread_privates(sources) == set()


def imported_roots(source: str) -> set[str]:
    """Top-level names of the modules an absolute import in ``source`` loads."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_the_package_imports_only_the_standard_library_and_numpy():
    # pyproject.toml declares numpy alone; a module that a development
    # environment happens to hold (scipy, say) would pass every test and
    # break a clean install
    allowed = set(sys.stdlib_module_names) | {"numpy", "qslice"}
    foreign = {
        p.name: sorted(imported_roots(p.read_text()) - allowed) for p in PACKAGE.glob("*.py")
    }
    assert {name: roots for name, roots in foreign.items() if roots} == {}
    assert "numpy" in imported_roots((PACKAGE / "search.py").read_text())


#: Memos keyed on a few small integers, which may grow without a bound.
UNBOUNDED_MEMOS = {"cli._parser", "search._qes_ceilings"}


def unbounded_memos(source: str) -> set[str]:
    """Memos made by ``functools.cache``, or by ``lru_cache`` without an integer maxsize.

    A decorator names the function it decorates; a call form, such as
    ``lru_cache(None)(f)`` or ``cache(f)``, the name it is assigned to, or
    else its line.
    """
    tree = ast.parse(source)
    labels, bare = {}, []  # each node of a decorator or an assigned value, with its memo's name
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            labels.update((n, node.name) for d in node.decorator_list for n in ast.walk(d))
            bare += [d for d in node.decorator_list if not isinstance(d, ast.Call)]
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            labels.update((n, node.targets[0].id) for n in ast.walk(node.value))

    def named(func: ast.expr) -> str | None:
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)

    def unbounded(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):  # a bare decorator
            return named(node) in ("cache", "lru_cache")
        sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
        bounded = any(isinstance(s, ast.Constant) and type(s.value) is int for s in sizes)
        return named(node.func) == "cache" or named(node.func) == "lru_cache" and not bounded

    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return {labels.get(node, f"line {node.lineno}") for node in calls + bare if unbounded(node)}


def test_the_memo_rule_finds_unbounded_caches():
    source = (
        "@functools.cache\ndef a(): pass\n@cache\ndef b(): pass\n"
        "@lru_cache(maxsize=None)\ndef c(): pass\n@functools.lru_cache(None)\ndef d(): pass\n"
        "@lru_cache\ndef e(): pass\n@lru_cache(maxsize=8)\ndef f(): pass\n"
        "@functools.lru_cache(64)\ndef g(): pass\n@property\ndef h(): pass\n"
        # call forms: unbounded, then bounded
        "i = lru_cache(None)(g)\nj = functools.cache(g)\nk = lru_cache(g)\nl = lru_cache()(g)\n"
        "def m():\n    n = lru_cache(maxsize=None)(lambda t: t)\n    return cache(n)\n"
        "o = lru_cache(maxsize=4)(lambda t: g(t))\np = functools.lru_cache(16)(g)\n"
    )
    want = {"a", "b", "c", "d", "e", "i", "j", "k", "l", "n", "line 23"}
    assert unbounded_memos(source) == want


def test_every_memo_in_the_package_names_a_bound():
    # a memo keyed on tables or circuits would otherwise hold every one a
    # long-lived process ever built; a bare lru_cache counts as unbounded too,
    # so that each memo states its own bound
    found = {
        f"{p.stem}.{name}" for p in PACKAGE.glob("*.py") for name in unbounded_memos(p.read_text())
    }
    assert found == UNBOUNDED_MEMOS


#: Bit-generator internals: raw words, jumps, and the pending 32-bit half
#: that ``Generator.integers`` keeps in the state.
BIT_GENERATOR_INTERNALS = re.compile(r"\b(random_raw|advance|has_uint32|uinteger)\b")


def test_the_package_draws_only_through_generator_methods():
    # code that reads or sets these copies one bit generator's word use, which
    # numpy does not document as stable and which differs between generators
    found = {p.name: BIT_GENERATOR_INTERNALS.findall(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: words for name, words in found.items() if words} == {}
    assert BIT_GENERATOR_INTERNALS.findall("bits.advance(3); s['has_uint32'], rng.integers(0, 2)") == [
        "advance",
        "has_uint32",
    ]


#: The counting primitives, which only ``search`` calls: its ``count_solutions``
#: is the one count-then-double rule of ``slice`` and ``count``.
COUNTING_PRIMITIVES = {"quantum_counting", "_median_count", "_count"}


def counting_calls(source: str) -> set[str]:
    """Calls of ``.doubled()``, and of a counting primitive that ``search``
    names: imported from it by name, or read as an attribute of a module."""
    tree = ast.parse(source)
    from_search = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "search"
        for alias in node.names
        if alias.name in COUNTING_PRIMITIVES
    }
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in COUNTING_PRIMITIVES | {"doubled"}:
            found.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in from_search:
            found.add(func.id)
    return found


def test_the_counting_rule_finds_doubling_and_primitive_calls():
    source = (
        "from .search import count_solutions, m_exact, quantum_counting as qc\n"
        "def _count(args): return qc(args.oracle, 3, args.rng)\n"  # a local _count is not search's
        "def run(oracle, rng):\n"
        "    _count(oracle)\n"
        "    count_solutions(oracle, m_exact, 0, 1, rng)\n"
        "    search._median_count(oracle, 5, rng, 'dense', 15)\n"
        "    return oracle.doubled()\n"
    )
    assert counting_calls(source) == {"qc", "_median_count", "doubled"}


def test_only_search_counts_or_doubles():
    # a second count-then-double rule outside search would let slice and
    # count drift apart again
    found = {p.stem: counting_calls(p.read_text()) for p in PACKAGE.glob("*.py") if p.stem != "search"}
    assert {module: names for module, names in found.items() if names} == {}


def oracle_constructions(source: str) -> set[str]:
    """Where ``OracleCircuit(...)`` is called, by name or as an attribute: the
    dotted path of the functions and classes around each call, or
    ``<module>`` at module level."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "OracleCircuit":
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_oracle_rule_finds_constructions_outside_the_compiler():
    source = (
        "from .oracles import OracleCircuit\n"
        "from . import oracles\n"
        "def _compile(cond):\n"
        "    return OracleCircuit(cond, lambda: _compile(cond))\n"
        "def direct(n): return oracles.OracleCircuit(n)\n"
        "class Builder:\n"
        "    def make(self): return OracleCircuit(self)\n"
        "LOOSE = OracleCircuit(None)\n"
        "def typed(oracle: OracleCircuit) -> OracleCircuit: return oracle\n"  # names, not calls
    )
    assert oracle_constructions(source) == {"_compile", "direct", "Builder.make", "<module>"}


def test_only_the_compiler_constructs_an_oracle():
    # every oracle then has the compiler's layout, oracle qubit and operator
    # key, so no caller needs a branch for one that lacks them
    found = {
        f"{p.stem}.{scope}" for p in PACKAGE.glob("*.py") for scope in oracle_constructions(p.read_text())
    }
    assert found == {"oracles._compile"}


def foreign_privates(source: str) -> set[str]:
    """``module._name`` for each private name of a qslice module that ``source``
    imports by name, or reads as an attribute of a qslice module it imports."""
    tree = ast.parse(source)
    modules, found = {}, set()  # each name bound to a qslice module, with the module's own name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name.split(".")[-1])
                           for a in node.names if a.name.startswith("qslice."))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "qslice"):
            module = (node.module or "qslice").split(".")[-1]
            for a in node.names:
                if module == "qslice":  # ``from . import sim``: a module by name
                    modules[a.asname or a.name] = a.name
                elif a.name.startswith("_") and not a.name.startswith("__"):
                    found.add(f"{module}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__"):
            module = modules.get(ast.unparse(node.value))
            if module:
                found.add(f"{module}.{node.attr}")
    return found


def test_the_foreign_private_rule_finds_reads_across_modules():
    source = (
        "import qslice.comparators\n"
        "from . import sim, portfolio as pf\n"
        "from qslice import cli\n"
        "from .oracles import ValueTable, _preparation\n"
        "from qslice.search import _operator_slot as slot, __doc__\n"
        "_OWN = 1\n"
        "def f(state):\n"
        "    sim.apply(state, sim._Marginal(3, (0,)))\n"
        "    pf._padded(state, 4), cli.__name__, state._private, _OWN\n"  # none of these
        "    return qslice.comparators._helper(slot)\n"
    )
    want = {"oracles._preparation", "search._operator_slot", "sim._Marginal", "portfolio._padded",
            "comparators._helper"}
    assert foreign_privates(source) == want


def test_no_package_module_reads_another_modules_private_name():
    # a private name is free to change with its module; a reader elsewhere
    # would tie the two together
    found = {f"{p.stem}: {name}" for p in PACKAGE.glob("*.py") for name in foreign_privates(p.read_text())}
    assert found == set()
