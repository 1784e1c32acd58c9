"""Code under src/relicforge tells AST nodes apart by class, never by a
`NodeKind` or `JKind` member.

A node's `kind` names it in `to_json` and gives the step features their
kind id; dispatch reads `node.__class__` or `isinstance`. So no module
reads `n.MOVE`-style names off `cobol.nodes` or `transpile.jnodes`, and no
module binds a module constant to a member of either enum. The class and
kind of each node are kept one-to-one by `tests/test_node_kinds.py`.
"""

import ast

from relicforge.cobol import nodes as n
from relicforge.transpile import jnodes as j
from tests.test_enum_members_bound import SRC, _modules

# The module each enum lives in, and its members.
_MODULES = {
    "relicforge.cobol.nodes": set(n.NodeKind.__members__),
    "relicforge.transpile.jnodes": set(j.JKind.__members__),
}


class _MemberReads(ast.NodeVisitor):
    """`<alias>.<MEMBER>` reads, where alias names a module of `_MODULES`,
    and `from <module> import <MEMBER>` imports, anywhere in a source."""

    def __init__(self):
        self.aliases: dict[str, str] = {}  # local name -> module
        self.found: list[tuple[int, str]] = []

    def visit_Import(self, node):
        for name in node.names:
            if name.name in _MODULES and name.asname:
                self.aliases[name.asname] = name.name

    def visit_ImportFrom(self, node):
        for name in node.names:
            full = f"{node.module}.{name.name}"
            if full in _MODULES:
                self.aliases[name.asname or name.name] = full
            elif name.name in _MODULES.get(node.module, ()):
                self.found.append((node.lineno, full))

    def visit_Attribute(self, node):
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in self.aliases:
            if node.attr in _MODULES[self.aliases[owner.id]]:
                self.found.append((node.lineno, f"{owner.id}.{node.attr}"))
        self.generic_visit(node)


def member_reads(source: str) -> list[tuple[int, str]]:
    """(line, read) for each enum member read off a nodes module."""
    finder = _MemberReads()
    finder.visit(ast.parse(source))
    return finder.found


def test_no_module_reads_a_node_kind_member_off_a_nodes_module():
    problems = [
        f"{path.relative_to(SRC.parent.parent)}:{line}: `{read}`; test the node's class"
        for path in sorted(SRC.rglob("*.py"))
        for line, read in member_reads(path.read_text(encoding="utf-8"))
    ]
    assert not problems, "\n".join(problems)


def test_no_module_binds_a_constant_to_a_node_kind_member():
    problems = [
        f"{module.__name__}.{name} = {value}"
        for module in _modules()
        for name, value in vars(module).items()
        if isinstance(value, (n.NodeKind, j.JKind))
    ]
    assert not problems, "\n".join(problems)


def test_the_reader_sees_every_spelling():
    source = '''
from relicforge.cobol import nodes as n
from relicforge.transpile import jnodes
import relicforge.cobol.nodes as cn
from relicforge.cobol.nodes import MOVE, Move

def f(x):
    return x.kind is n.IF or x is n.If

TABLE = {jnodes.ASSIGN: 1, cn.GOTO: 2, n.NodeKind.CALL: 3, n.LOOP_KINDS: 4}
'''
    assert member_reads(source) == [
        (5, "relicforge.cobol.nodes.MOVE"),
        (8, "n.IF"),
        (10, "jnodes.ASSIGN"),
        (10, "cn.GOTO"),
    ]
