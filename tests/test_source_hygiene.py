"""Source hygiene of the package, read from its syntax trees.

No `assert` statement: `python -O` strips them, so every check the
package relies on must be a real raise.  No module-level import left
unused: a dead import is dead API in waiting.  `__init__.py` re-exports
by importing, and `from __future__` imports are directives, so neither
counts.

No private module-level function or class without a reader: a name
that starts with an underscore is read somewhere in the package (by name,
as an attribute, by a from-import or in a string annotation), or it is
dead code.

No cache without a size bound: every `lru_cache` names a `maxsize`
other than None and `functools.cache` is not used, so a long sweep holds a
bounded number of results.  One caller per oracle kernel: each cached
function of `oracle` is called from one function of that module, which
checks the kernel's matrices against the capacity, so that happens in one
place and every operation composes those functions, not kernels.  One
elimination kernel: `_gauss_jordan` is the one Gauss-Jordan loop, called
by `_eliminate` on its core and by `column_space`, which keeps its reduced
column echelon form; `_eliminate` reaches no matrix product,
`rank_profile` reaches no `column_space`, and the graded tensor kernel
`_tensor_pair`, which reduces single rows, reaches no elimination and no
matrix product.  Only the rank path multiplies: `matmul_mod` is called by
`rank_profile` and `_on_image` alone, so the step kernels of restriction
and induction build their matrices and take no product.

One integer-type rule: only the function `_int_type` names np.int16,
np.int32 or np.int64 (bare, through numpy, or as a dtype string), so the
oracle's every integer type is chosen in one place.

No coercion in a constructor: no `__init__` or `__post_init__` calls the
builtin `int` or `float` (nor maps it), which would turn 2.5 or "2" into
an integer field; `operator.index` refuses whatever is not an integer.

No `dataclasses`: no module imports it, at any depth.  Every command
imports the package, and `dataclasses` brings `inspect` with it (with
`ast`, `dis` and `tokenize`); the value classes stand on `groups._Value`.

Only `cli.main` writes output: `print`, `sys.stdout` and `sys.stderr`
appear nowhere else in the package, and `sys.exit` only in a
`if __name__ == "__main__"` guard.  Commands return records and raise to
stop, so the exit code and every byte written are decided in one place:
the exit codes `EXIT_OK`, `EXIT_RECORD_ERROR` and `EXIT_PARSE_ERROR` are
read nowhere else either.

One direction across the certification boundary: the closed-form modules
import nothing from `oracle`, `verify` or `cli`, and `oracle` imports from
the package only the group, the module multiset, the two group checks and
`is_permutation`, so the oracle never calls the closed forms it certifies.
Imports inside functions count as well.

One ledger of what is certified: every public top-level function of
`modules`, `dade` and `blocks` is named in `verify.CERTIFIED` or
`verify.CROSS_CHECKED`, or it is on `UNCERTIFIED` below with its reason;
every name on these lists is such a function, and every suite they name
is in `verify.SUITES`.
"""

import ast
from pathlib import Path

import pytest

from cyclicsource import verify

PACKAGE = Path(__file__).parents[1] / "src" / "cyclicsource"
SOURCES = sorted(PACKAGE.glob("*.py"))


def tree_of(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(tree):
    """Names bound by the module's top-level imports that nothing reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = names(tree) | annotation_names(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def annotation_names(tree):
    """Names read only inside string annotations, such as "ModuleSum"."""
    found = set()
    annotations = [ann for node in ast.walk(tree)
                   for ann in (getattr(node, "annotation", None),
                               getattr(node, "returns", None))
                   if ann is not None]
    for ann in annotations:
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                found |= names(ast.parse(const.value, mode="eval"))
    return found


def unread_privates(trees):
    """(module, line, name) of each private module-level function or class
    of `trees` (module name -> syntax tree) that no module reads: by name,
    as an attribute, by a from-import or in a string annotation."""
    read = set()
    for tree in trees.values():
        read |= names(tree) | annotation_names(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        read |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted((module, node.lineno, node.name)
                  for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_")
                  and not node.name.startswith("__")
                  and node.name not in read)


CACHES = ("lru_cache", "functools.lru_cache")
BARE_CACHES = ("cache", "functools.cache")


def cache_decorator(dec):
    """The name of `dec` if it is a cache decorator, called or bare."""
    name = _dotted(dec.func if isinstance(dec, ast.Call) else dec)
    return name if name in (*CACHES, *BARE_CACHES) else None


def unbounded_caches(tree):
    """(line, name) of each cache without a size bound: `cache` used as a
    decorator, or `lru_cache` called with maxsize None."""
    found = []
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            if (name := cache_decorator(dec)) in BARE_CACHES:
                found.append((dec.lineno, name))
        if isinstance(node, ast.Call) and _dotted(node.func) in CACHES:
            sizes = [*node.args[:1],
                     *(k.value for k in node.keywords if k.arg == "maxsize")]
            if any(isinstance(s, ast.Constant) and s.value is None
                   for s in sizes):
                found.append((node.lineno, _dotted(node.func)))
    return sorted(found)


def callers_of(tree, names):
    """{name: callers} for each of `names`: the top-level definitions of
    `tree` (or "<module>") that call it by name."""
    callers = {name: set() for name in names}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and \
                    (name := _dotted(node.func)) in callers:
                callers[name].add(getattr(top, "name", "<module>"))
    return {name: sorted(found) for name, found in callers.items()}


def kernel_callers(tree):
    """callers_of each cached top-level function of `tree`."""
    return callers_of(tree, [node.name for node in tree.body
                             if isinstance(node, ast.FunctionDef)
                             and any(map(cache_decorator, node.decorator_list))])


def reached(tree, start):
    """The top-level functions of `tree` that `start` calls by name,
    directly or through others of them."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Call) and (name := _dotted(node.func)) \
                    in defs and name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


OUTPUT = ("print", "sys.stdout", "sys.stderr")


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def output_uses(tree, writer=None):
    """(line, name) of each use of print, sys.stdout, sys.stderr or
    sys.exit outside where it is allowed: the first three in the top-level
    function named `writer`, sys.exit in the `__main__` guard."""
    found = []
    for top in tree.body:
        allowed = ()
        if isinstance(top, ast.FunctionDef) and top.name == writer:
            allowed = OUTPUT
        elif isinstance(top, ast.If) and \
                ast.unparse(top.test) == "__name__ == '__main__'":
            allowed = ("sys.exit",)
        found += [(node.lineno, name) for node in ast.walk(top)
                  if (name := _dotted(node)) in (*OUTPUT, "sys.exit")
                  and name not in allowed]
    return sorted(found)


EXIT_CODES = ("EXIT_OK", "EXIT_RECORD_ERROR", "EXIT_PARSE_ERROR")


def exit_code_reads(tree, reader=None):
    """(line, name) of each read of an exit code, by name or as an
    attribute, outside the top-level function named `reader`; the
    assignments that define them are no reads."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == reader:
            continue
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) \
                else getattr(node, "attr", None)
            if name in EXIT_CODES and isinstance(node.ctx, ast.Load):
                found.append((node.lineno, name))
    return sorted(found)


INT_TYPES = {f"{prefix}int{bits}" for prefix in ("", "np.", "numpy.")
             for bits in (16, 32, 64)}


def int_type_uses(tree, rule="_int_type"):
    """(line, name) of each integer type named outside the top-level
    function `rule`."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == rule:
            continue
        for node in ast.walk(top):
            name = node.value if isinstance(node, ast.Constant) else _dotted(node)
            if name in INT_TYPES:
                found.append((node.lineno, name))
    return sorted(found)


def package_imports(tree):
    """(line, module, name) of each import from the package, at any depth:
    `from .m import n` gives (line, "m", "n"), and `from . import m` or
    `import cyclicsource.m` gives (line, "m", None)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "cyclicsource":
                    continue
                module = module.removeprefix("cyclicsource").lstrip(".")
            if module:
                found += [(node.lineno, module, a.name) for a in node.names]
            else:
                found += [(node.lineno, a.name, None) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name.removeprefix("cyclicsource."), None)
                      for a in node.names
                      if a.name.startswith("cyclicsource.")]
    return sorted(found, key=lambda item: item[0])


CLOSED_FORMS = ("groups", "modules", "dade", "blocks", "trees", "descriptors")
CERTIFIERS = ("oracle", "verify", "cli")
ORACLE_IMPORTS = {("groups", "GroupSpec"), ("modules", "ModuleSum"),
                  ("modules", "_check_group"), ("modules", "_check_subgroup"),
                  ("modules", "is_permutation")}


LEDGER_MODULES = ("modules", "dade", "blocks")
LATTICE = "waits for a lattice oracle of the characters (ROADMAP item 4)"
UNCERTIFIED = {
    "modules.heller": "it is relative_heller(m, 0)",
    "modules.vertex": "waits for the relative syzygy above q (ROADMAP item 8)",
    "modules.is_permutation": "a definition that the oracle reads",
    "modules.cap_part": "a definition that the suites read",
    "dade.dade_zero": "the zero bit vector",
    "dade.w_module_sum": "it is w_module as a one-part module",
    "dade.enumerate_elements": "the classes that the suites sweep",
    "dade.element_from_jordan": "the inverse of w_module, held to it in "
                                "tests/test_dade.py",
    "blocks.infer_w": LATTICE,
    "blocks.is_trivial_by_signs": LATTICE,
    "blocks.metadata_criteria": "maps user-asserted flags to the trivial "
                                "class, with nothing to compute",
    "blocks.analyze": LATTICE,
}


def public_functions(trees):
    """"module.name" of each public top-level function of `trees` (module
    name -> syntax tree)."""
    return {f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def ledger_faults(functions, ledgers, uncertified, suites):
    """What the ledgers (name -> suites) and `uncertified` (name -> reason)
    get wrong about `functions`: a function on no list, a name on two
    lists or on one that is no function, and a suite not in `suites`."""
    listed = [name for ledger in ledgers for name in ledger] + list(uncertified)
    faults = [f"{name}: on no list" for name in sorted(functions)
              if name not in listed]
    faults += [f"{name}: listed twice" for name in sorted(set(listed))
               if listed.count(name) > 1]
    faults += [f"{name}: no such function" for name in listed
               if name not in functions]
    faults += [f"{name}: no suite {suite}" for ledger in ledgers
               for name, named in ledger.items() for suite in named
               if suite not in suites]
    return faults


COERCIONS = ("int", "float")


def constructor_coercions(tree):
    """(line, name) of each call of the builtin `int` or `float` in an
    `__init__` or a `__post_init__`, directly or as the function a `map`
    applies."""
    found = []
    for init in ast.walk(tree):
        if not (isinstance(init, ast.FunctionDef)
                and init.name in ("__init__", "__post_init__")):
            continue
        for node in ast.walk(init):
            if not isinstance(node, ast.Call):
                continue
            called = _dotted(node.func)
            if called == "map" and node.args:
                called = _dotted(node.args[0])
            if called in COERCIONS:
                found.append((node.lineno, called))
    return sorted(found)


def dataclass_imports(tree):
    """The line of each import of `dataclasses`, or of a name from it, at
    any depth."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "dataclasses"]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "oracle.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    asserts = [node.lineno for node in ast.walk(tree_of(path))
               if isinstance(node, ast.Assert)]
    assert asserts == [], f"{path.name}: assert at lines {asserts}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(tree_of(path)) == []


def test_unused_import_is_seen():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom x import a, b as c\n"
                     "def f(y: 'a') -> None:\n    return os\n")
    assert unused_imports(tree) == [(3, "c")]


def test_private_definitions_are_read():
    assert unread_privates({p.name: tree_of(p) for p in SOURCES}) == []


def test_unread_private_is_seen():
    a = ast.parse("def _dead(): pass\ndef _called(): pass\n"
                  "class _Imported: pass\nclass _Hinted: pass\n"
                  "def _by_attribute(): pass\ndef __getattr__(name): pass\n"
                  "def f(x: '_Hinted'):\n    def _nested(): pass\n"
                  "    return _called()\n")
    b = ast.parse("from a import _Imported\nimport a\na._by_attribute()\n"
                  "class _Dead:\n    def _method(self): pass\n")
    assert unread_privates({"a.py": a, "b.py": b}) == [
        ("a.py", 1, "_dead"), ("b.py", 4, "_Dead")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_output_only_in_cli_main(path):
    writer = "main" if path.name == "cli.py" else None
    assert output_uses(tree_of(path), writer) == []


def test_output_use_is_seen():
    tree = ast.parse("import sys\n"
                     "def main():\n    print(1)\n    sys.exit(1)\n"
                     "def cmd(out=sys.stderr):\n    sys.stdout.write('x')\n"
                     "if __name__ == '__main__':\n    sys.exit(main())\n"
                     "    print(2)\n")
    assert output_uses(tree, "main") == [
        (4, "sys.exit"), (5, "sys.stderr"), (6, "sys.stdout"), (9, "print")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exit_codes_only_in_cli_main(path):
    reader = "main" if path.name == "cli.py" else None
    assert exit_code_reads(tree_of(path), reader) == []


def test_exit_code_read_is_seen():
    tree = ast.parse("EXIT_OK = 0\nEXIT_PARSE_ERROR = 2\n"
                     "class E(Exception):\n"
                     "    def __init__(self, code=EXIT_PARSE_ERROR):\n"
                     "        self.code = code\n"
                     "def cmd():\n    raise E(EXIT_OK)\n"
                     "def main():\n    return EXIT_OK\n"
                     "code = cli.EXIT_RECORD_ERROR\n")
    assert exit_code_reads(tree, "main") == [
        (4, "EXIT_PARSE_ERROR"), (7, "EXIT_OK"), (10, "EXIT_RECORD_ERROR")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_integer_types_only_in_the_type_rule(path):
    assert int_type_uses(tree_of(path)) == []


def test_integer_type_use_is_seen():
    tree = ast.parse("import numpy as np\nfrom numpy import int32\n"
                     "def _int_type(b):\n    return np.int16 if b else np.int64\n"
                     "def f(a):\n    return a.astype(np.int64), 'int8'\n"
                     "class M:\n    def _int_type(self):\n"
                     "        return int32, numpy.int16, 'int32', np.float32\n")
    assert int_type_uses(tree) == [
        (6, "np.int64"), (9, "int32"), (9, "int32"), (9, "numpy.int16")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    assert unbounded_caches(tree_of(path)) == []


def test_unbounded_cache_is_seen():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@lru_cache(maxsize=None)\ndef f(): pass\n"
                     "@functools.lru_cache(None)\ndef g(): pass\n"
                     "@cache\ndef h(): pass\n"
                     "@lru_cache\ndef i(): pass\n"
                     "@lru_cache(maxsize=4096)\ndef j(): pass\n"
                     "k = lru_cache(maxsize=None)(len)\n"
                     "cache = {}\n")
    assert unbounded_caches(tree) == [
        (3, "lru_cache"), (5, "functools.lru_cache"), (7, "cache"),
        (13, "lru_cache")]


def test_one_caller_per_oracle_kernel():
    callers = kernel_callers(tree_of(PACKAGE / "oracle.py"))
    assert callers, "no cached kernel found in oracle.py"
    assert {name: found for name, found in callers.items()
            if len(found) != 1} == {}


# what the graded tensor kernel reaches none of
ELIMINATION = {"_gauss_jordan", "_eliminate", "column_space", "matmul_mod"}


def test_one_elimination_kernel():
    tree = tree_of(PACKAGE / "oracle.py")
    assert callers_of(tree, ["_gauss_jordan"]) == {
        "_gauss_jordan": ["_eliminate", "column_space"]}
    assert "column_space" not in reached(tree, "rank_profile")
    assert "_eliminate" in reached(tree, "rank_profile")
    assert "matmul_mod" not in reached(tree, "_eliminate")
    assert ELIMINATION & reached(tree, "_tensor_pair") == set()


def test_only_the_rank_path_multiplies():
    tree = tree_of(PACKAGE / "oracle.py")
    assert callers_of(tree, ["matmul_mod"]) == {
        "matmul_mod": ["_on_image", "rank_profile"]}


def test_second_elimination_caller_is_seen():
    tree = ast.parse("def _gauss_jordan(a): pass\n"
                     "def _eliminate(a): return _gauss_jordan(a)\n"
                     "def column_space(a): return _gauss_jordan(a)[0]\n"
                     "def _helper(a): return column_space(a)\n"
                     "def rank_profile(a): return _helper(a), _eliminate(a)\n"
                     "def other(a):\n    return _gauss_jordan(a)\n")
    assert callers_of(tree, ["_gauss_jordan"]) == {
        "_gauss_jordan": ["_eliminate", "column_space", "other"]}
    assert reached(tree, "rank_profile") == {
        "_helper", "column_space", "_eliminate", "_gauss_jordan"}


def test_elimination_in_the_tensor_kernel_is_seen():
    # an elimination through a helper, and a product called directly
    tree = ast.parse("from functools import lru_cache\n"
                     "def _gauss_jordan(a): pass\n"
                     "def column_space(a): return _gauss_jordan(a)[0]\n"
                     "def matmul_mod(a, b): pass\n"
                     "def _reduce(a): return a\n"
                     "def _walk(a): return column_space(a)\n"
                     "@lru_cache(maxsize=8)\n"
                     "def _tensor_pair(a):\n"
                     "    return _reduce(a), _walk(a), matmul_mod(a, a)\n")
    assert reached(tree, "_tensor_pair") == {
        "_reduce", "_walk", "column_space", "_gauss_jordan", "matmul_mod"}
    assert ELIMINATION & reached(tree, "_tensor_pair") == {
        "column_space", "_gauss_jordan", "matmul_mod"}


def test_kernel_callers_are_seen():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@lru_cache(maxsize=8)\ndef _a(n): return n\n"
                     "@functools.lru_cache(8)\ndef _b(n): return _a(n)\n"
                     "@cache\ndef _c(n): pass\n"
                     "@lru_cache\ndef _d(n): pass\n"
                     "def one(n):\n    return _a(n) + _a(n + 1) + len(_d)\n"
                     "def two(n):\n    def inner(): return _a(n)\n"
                     "    return inner() + _b(n)\n"
                     "class K:\n    def f(self): return _c(1)\n"
                     "@other\ndef plain(n): return _b(n)\n"
                     "x = _b(1)\n")
    assert kernel_callers(tree) == {
        "_a": ["_b", "one", "two"], "_b": ["<module>", "plain", "two"],
        "_c": ["K"], "_d": []}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_coercion_in_post_init(path):
    assert constructor_coercions(tree_of(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert dataclass_imports(tree_of(path)) == []


def test_dataclasses_import_is_seen():
    tree = ast.parse("import dataclasses\nimport os, dataclasses as dc\n"
                     "from dataclasses import dataclass, field\n"
                     "import dataclasses_json\nfrom .dataclasses import x\n"
                     "from . import dataclasses\n"
                     "def f():\n    from dataclasses import replace\n")
    assert sorted(dataclass_imports(tree)) == [1, 2, 3, 8]


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_forms_import_no_certifier(name):
    tree = tree_of(PACKAGE / f"{name}.py")
    assert [found for found in package_imports(tree)
            if found[1] in CERTIFIERS] == []


def test_oracle_imports_only_what_it_does_not_certify():
    tree = tree_of(PACKAGE / "oracle.py")
    assert [found for found in package_imports(tree)
            if found[1:] not in ORACLE_IMPORTS] == []


def test_package_import_is_seen():
    tree = ast.parse("import os\nimport cyclicsource.oracle\n"
                     "from . import dade, verify\n"
                     "from .modules import ModuleSum, cap_part as cap\n"
                     "from cyclicsource.cli import main\nfrom numpy import eye\n"
                     "def f():\n    from .groups import GroupSpec\n")
    assert package_imports(tree) == [
        (2, "oracle", None), (3, "dade", None), (3, "verify", None),
        (4, "modules", "ModuleSum"), (4, "modules", "cap_part"),
        (5, "cli", "main"), (8, "groups", "GroupSpec")]


def test_coercion_in_post_init_is_seen():
    tree = ast.parse("import operator\n"
                     "class A:\n    def __post_init__(self):\n"
                     "        self.a = tuple(int(v) for v in self.a)\n"
                     "        self.b = list(map(float, self.b))\n"
                     "        self.c = tuple(map(operator.index, self.c))\n"
                     "        isinstance(self.c, int)\n"
                     "class B:\n    def scale(self):\n"
                     "        return float(self.b)\n"
                     "class C:\n    def __init__(self, n, m):\n"
                     "        self.n, self.m = int(n), operator.index(m)\n")
    assert constructor_coercions(tree) == [(4, "int"), (5, "float"),
                                           (13, "int")]


def ledger_trees():
    return {name: tree_of(PACKAGE / f"{name}.py") for name in LEDGER_MODULES}


def test_every_public_closed_form_is_in_the_ledger():
    assert ledger_faults(public_functions(ledger_trees()),
                         (verify.CERTIFIED, verify.CROSS_CHECKED),
                         UNCERTIFIED, verify.SUITES) == []


def test_ledger_faults_are_seen():
    # a public function added to modules, a stale name, a name on two
    # lists and a suite that does not exist
    trees = ledger_trees()
    trees["modules"].body += ast.parse("def new_form(m): pass\n"
                                       "def _helper(m): pass\n").body
    certified = {**verify.CERTIFIED, "dade.gone": ("dade-law",),
                 "modules.heller": ("no-such-suite",)}
    assert ledger_faults(public_functions(trees),
                         (certified, verify.CROSS_CHECKED),
                         UNCERTIFIED, verify.SUITES) == [
        "modules.new_form: on no list", "modules.heller: listed twice",
        "dade.gone: no such function",
        "modules.heller: no suite no-such-suite"]
