"""No function body under src/relicforge reads an enum member off its class.

On Python 3.10 and 3.11 `EnumType` defines a Python-level `__getattr__`,
so `NodeKind.MOVE` takes the slow attribute path (about 140-230 ns a read,
against 15-50 ns for a module global). A module whose function bodies
need an enum's members binds them once as module constants, and the
bodies read those. AST nodes need none: code tells them apart by class
(`tests/test_node_class_dispatch.py`). Module-level and class-level reads
run once at import and stay allowed.
"""

import ast
import enum
import importlib
import pkgutil
from pathlib import Path

import relicforge

SRC = Path(relicforge.__file__).parent


def _modules():
    yield relicforge
    for info in pkgutil.walk_packages(relicforge.__path__, "relicforge."):
        yield importlib.import_module(info.name)


def package_enums() -> dict[str, type[enum.Enum]]:
    """Every enum.Enum subclass defined in the package, by class name."""
    found = {}
    for module in _modules():
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, enum.Enum)
                    and obj.__module__ == module.__name__):
                found[obj.__name__] = obj
    return found


def constant_for(cls: type[enum.Enum], member: str) -> str | None:
    """The module-level name in cls's own module that holds the member."""
    module = importlib.import_module(cls.__module__)
    value = cls[member]
    names = [k for k, v in vars(module).items() if v is value]
    return member if member in names else (names[0] if names else None)


class _FunctionReads(ast.NodeVisitor):
    """`<Enum>.<MEMBER>` and `<module>.<Enum>.<MEMBER>` reads inside a
    function or lambda body. Decorators and default values are evaluated
    where the function is defined, so they count as outside it."""

    def __init__(self, enums: dict[str, set[str]]):
        self.enums = enums
        self.depth = 0
        self.found: list[tuple[int, str, str, str | None]] = []

    def _function(self, node, body) -> None:
        for expr in getattr(node, "decorator_list", []):
            self.visit(expr)
        for expr in node.args.defaults + [d for d in node.args.kw_defaults if d]:
            self.visit(expr)
        self.depth += 1
        for stmt in body:
            self.visit(stmt)
        self.depth -= 1

    def visit_FunctionDef(self, node):
        self._function(node, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._function(node, [node.body])

    def visit_Attribute(self, node):
        owner = node.value
        alias = None
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name):
            alias, name = owner.value.id, owner.attr
        elif isinstance(owner, ast.Name):
            name = owner.id
        else:
            name = None
        if self.depth and node.attr in self.enums.get(name, ()):
            self.found.append((node.lineno, name, node.attr, alias))
            return
        self.generic_visit(node)


def function_body_reads(source: str, enums: dict[str, set[str]]):
    """(line, enum class, member, module alias or None) for each read."""
    finder = _FunctionReads(enums)
    finder.visit(ast.parse(source))
    return finder.found


def test_no_function_body_reads_an_enum_member_off_its_class():
    enums = package_enums()
    members = {name: set(cls.__members__) for name, cls in enums.items()}
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        reads = function_body_reads(path.read_text(encoding="utf-8"), members)
        for line, name, member, alias in reads:
            cls = enums[name]
            constant = constant_for(cls, member)
            if constant is None:
                use = f"a module constant `{member} = {name}.{member}` in {cls.__module__}"
            elif alias is not None:
                use = f"`{alias}.{constant}`"
            else:
                use = f"`{constant}` from {cls.__module__}"
            read = f"{alias}.{name}.{member}" if alias else f"{name}.{member}"
            where = path.relative_to(SRC.parent.parent)
            problems.append(f"{where}:{line}: `{read}` in a function body; use {use}")
    assert not problems, "\n".join(problems)


def test_each_bound_constant_is_its_own_member():
    # A constant bound to the wrong member (say after the class was
    # reordered) would silently change behaviour.
    for cls in package_enums().values():
        module = importlib.import_module(cls.__module__)
        for name, value in vars(module).items():
            if isinstance(value, cls) and not name.startswith("_"):
                assert value is cls[name], f"{cls.__module__}.{name} is {value}"


def test_the_finder_sees_reads_in_functions_only():
    source = '''
import enum
from pkg import nodes as n

class Kind(enum.Enum):
    A = 1
    B = 2

TOP = Kind.A
TABLE = {Kind.B: 1}

class Holder:
    kind = Kind.A

    def method(self):
        return self.kind is Kind.B

def plain(x, default=Kind.A):
    return x is Kind.A or x is n.Kind.B

def outer():
    def inner():
        return Kind.B
    return inner, lambda: n.Kind.A, Kind.C, Kind.__members__
'''
    found = function_body_reads(source, {"Kind": {"A", "B"}})
    assert found == [
        (16, "Kind", "B", None),
        (19, "Kind", "A", None),
        (19, "Kind", "B", "n"),
        (23, "Kind", "B", None),
        (24, "Kind", "A", "n"),
    ]


def test_the_package_defines_the_enums_it_is_known_to():
    # The guard takes its enum names from the package; it must find some.
    assert {"NodeKind", "TokenKind", "JKind", "CfgNodeKind"} <= set(package_enums())
