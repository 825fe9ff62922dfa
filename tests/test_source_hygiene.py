"""Source hygiene of the library, read with the standard `ast` module: every
import in a module of `umbellab` is used in that module, every module-level
private name is read somewhere in the package, and every public function,
class and method is read somewhere in the repository's code, every
exported name is read outside the tests, and every option of a CLI
subcommand is read by its handler, not only echoed into its document.
Deletions leave such names behind; this test finds them.  It also keeps the
CLI to one document writer: no handler encodes or prints on its own."""

import ast
import pathlib
import re

import pytest

import umbellab
from umbellab import cli

SOURCES = sorted(pathlib.Path(umbellab.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
REPO = pathlib.Path(__file__).resolve().parents[1]
READERS = ("src", "tests", "demos", "perfbench")


def _reads(tree: ast.AST) -> set:
    """The names a module reads: loaded names, attribute names and the names
    it imports from other modules of the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            out.update(alias.name for alias in node.names)
    return out


def _imports(tree: ast.AST):
    """(bound name, line) of every import in a module, except __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _private_definitions(tree: ast.Module):
    """(name, line) of every _private name a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", TREES)
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{module}.py:{line} {name}" for name, line in _imports(tree)
              if name not in used]
    assert not unused, unused


def test_every_private_module_name_is_read():
    read = set().union(*map(_reads, TREES.values()))
    unread = [f"{module}.py:{line} {name}" for module, tree in TREES.items()
              for name, line in _private_definitions(tree) if name not in read]
    assert not unread, unread


def _public_definitions(tree: ast.Module):
    """(name, line) of every public function and class a module defines at
    its top level, and of every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            members = node.body if isinstance(node, ast.ClassDef) else []
            for n in [node, *(m for m in members if isinstance(m, ast.FunctionDef))]:
                if not n.name.startswith("_"):
                    yield n.name, n.lineno


def _names_read(tree: ast.AST) -> set:
    """Loaded names, attribute names, imported names and the identifiers in
    string constants (such as the package's export table), docstrings
    excepted."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def test_every_public_name_is_read():
    read = set()
    for folder in READERS:
        for path in (REPO / folder).rglob("*.py"):
            read |= _names_read(ast.parse(path.read_text(), str(path)))
    unread = [f"{module}.py:{line} {name}" for module, tree in TREES.items()
              for name, line in _public_definitions(tree) if name not in read]
    assert not unread, unread


def test_every_export_is_read_outside_the_tests():
    paths = [path for path in SOURCES if path.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        paths += (REPO / folder).rglob("*.py")
    read = set()
    for path in paths:
        read |= _names_read(ast.parse(path.read_text(), str(path)))
    assert sorted(set(umbellab._EXPORTS) - read) == []


def _args_read(function: ast.FunctionDef) -> set:
    """The attributes a CLI handler reads off its parsed `args`, other than
    as a value of a dict display: a value only echoed into the document."""
    echoed = {id(value) for node in ast.walk(function) if isinstance(node, ast.Dict)
              for value in node.values}
    return {node.attr for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and id(node) not in echoed}


@pytest.mark.parametrize("name", cli._HANDLERS)
def test_every_option_is_read_by_its_handler(name):
    # an option its subcommand's handler never reads, or only echoes into
    # its document, drives nothing: a dead flag
    handlers = {node.name: node for node in TREES["cli"].body
                if isinstance(node, ast.FunctionDef)}
    read = _args_read(handlers[cli._HANDLERS[name].__name__])
    unread = [flags for flags, dest, _ in cli._options(name) if dest not in read]
    assert unread == []


def _calls(function: ast.FunctionDef) -> set:
    """The names and dotted attributes a function calls: `print`, `json.dumps`."""
    return {ast.unparse(node.func) for node in ast.walk(function)
            if isinstance(node, ast.Call)}


def test_no_handler_writes_its_document_itself():
    # every document leaves the CLI through cli._emit, one compact line
    # printed or appended to --out; a handler's own json.dumps or print is
    # a second writer
    writers = [f"{node.name}: {call}" for node in TREES["cli"].body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
               for call in sorted(_calls(node) & {"json.dumps", "print"})]
    assert writers == []


# math notation in README.md's code spans that reads like a call: the
# paper's G_d, a partial sum of the Bourgain profile
README_MATH = {"G_d"}


def _readme_names(text: str) -> set:
    """The Python names README.md's code spans speak of: each name called,
    `name(`, each part of a dotted name, `module.name`, and each span that
    is one name with an underscore, `snake_case`; file names aside."""
    out = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        span = re.sub(r"[\w./-]*\.(?:py|toml|md|json|csv)\b", "", span)
        out.update(re.findall(r"([A-Za-z_]\w*)\(", span))
        for dotted in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            out.update(dotted.split("."))
        if re.fullmatch(r"\w*_\w*", span) and not span[0].isdigit():
            out.add(span)
    return out


def test_readme_names_are_names_of_the_code():
    # a name the README speaks of that no code defines or reads is left
    # over from a deletion or a rename; this module's strings name deleted
    # names on purpose
    known = set()
    for folder in READERS:
        for path in (REPO / folder).rglob("*.py"):
            if path.resolve() == pathlib.Path(__file__).resolve():
                continue
            tree = ast.parse(path.read_text(), str(path))
            known |= _names_read(tree) | {path.stem}
            known.update(node.name for node in ast.walk(tree) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    unknown = _readme_names((REPO / "README.md").read_text()) - known - README_MATH
    assert sorted(unknown) == []


def test_readme_names_catch_a_deleted_name():
    assert _readme_names("a `ramsey_refine`'s points, `x.no_such`, `gone(1)` "
                         "and `max_i (1 - t)`, `demos/01_a.py`") == {
        "ramsey_refine", "x", "no_such", "gone"}
