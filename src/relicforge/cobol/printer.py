"""Canonical source rendering for CobolAst.

One sentence per top-level statement, 4-space nesting, double-quoted
strings. parse(tokenize(pretty_print(ast))) must structurally equal ast;
the tests enforce that over the whole sample corpus.
"""

from __future__ import annotations

from relicforge.cobol import nodes as n

_INDENT = "    "


def _quote(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def _value_text(v: int | str) -> str:
    return str(v) if isinstance(v, int) else _quote(v)


def _data_item_lines(item: n.DataItem, depth: int, out: list[str]) -> None:
    parts = [f"{item.level:02d}", item.name]
    if item.picture is not None:
        parts.append(f"PIC {item.picture}")
    if item.value is not None:
        parts.append(f"VALUE {_value_text(item.value)}")
    out.append(_INDENT * depth + " ".join(parts) + ".")
    for child in item.children:
        _data_item_lines(child, depth + 1, out)


def _stmt_lines(stmt: n.Stmt, depth: int, out: list[str]) -> None:
    pad = _INDENT * depth
    cls = stmt.__class__
    if cls is n.Move:
        out.append(f"{pad}MOVE {n.expr_text(stmt.src)} TO {stmt.dst}")
    elif cls is n.Compute:
        out.append(f"{pad}COMPUTE {stmt.dst} = {n.expr_text(stmt.expr)}")
    elif cls is n.Arith:
        a = n.expr_text(stmt.a)
        b = n.expr_text(stmt.b)
        joiner = {"ADD": "TO", "SUBTRACT": "FROM", "MULTIPLY": "BY", "DIVIDE": "INTO"}
        text = f"{pad}{stmt.op} {a} {joiner[stmt.op]} {b}"
        if stmt.giving is not None:
            text += f" GIVING {stmt.giving}"
        out.append(text)
    elif cls is n.If:
        out.append(f"{pad}IF {n.cond_text(stmt.cond)}")
        for s in stmt.then_body:
            _stmt_lines(s, depth + 1, out)
        if stmt.else_body:
            out.append(f"{pad}ELSE")
            for s in stmt.else_body:
                _stmt_lines(s, depth + 1, out)
        out.append(f"{pad}END-IF")
    elif cls is n.Evaluate:
        out.append(f"{pad}EVALUATE {n.expr_text(stmt.subject)}")
        for arm in stmt.arms:
            out.append(f"{pad}{_INDENT}WHEN {n.expr_text(arm.value)}")
            for s in arm.body:
                _stmt_lines(s, depth + 2, out)
        if stmt.other is not None:
            out.append(f"{pad}{_INDENT}WHEN OTHER")
            for s in stmt.other:
                _stmt_lines(s, depth + 2, out)
        out.append(f"{pad}END-EVALUATE")
    elif cls is n.PerformPara:
        out.append(f"{pad}PERFORM {stmt.target}")
    elif cls is n.PerformTimes:
        if stmt.target is not None:
            out.append(f"{pad}PERFORM {stmt.target} {n.expr_text(stmt.count)} TIMES")
        else:
            out.append(f"{pad}PERFORM {n.expr_text(stmt.count)} TIMES")
            for s in stmt.body or []:
                _stmt_lines(s, depth + 1, out)
            out.append(f"{pad}END-PERFORM")
    elif cls is n.PerformUntil:
        out.append(f"{pad}PERFORM UNTIL {n.cond_text(stmt.cond)}")
        for s in stmt.body:
            _stmt_lines(s, depth + 1, out)
        out.append(f"{pad}END-PERFORM")
    elif cls is n.PerformVarying:
        out.append(
            f"{pad}PERFORM VARYING {stmt.var} FROM {n.expr_text(stmt.from_)}"
            f" BY {n.expr_text(stmt.by)} UNTIL {n.cond_text(stmt.until)}"
        )
        for s in stmt.body:
            _stmt_lines(s, depth + 1, out)
        out.append(f"{pad}END-PERFORM")
    elif cls is n.Display:
        out.append(pad + "DISPLAY " + " ".join(n.expr_text(a) for a in stmt.args))
    elif cls is n.Accept:
        out.append(f"{pad}ACCEPT {stmt.target}")
    elif cls is n.Call:
        text = f"{pad}CALL {_quote(stmt.program)}"
        if stmt.using:
            text += " USING " + " ".join(stmt.using)
        out.append(text)
    elif cls is n.GoTo:
        out.append(f"{pad}GO TO {stmt.target}")
    else:
        out.append(f"{pad}STOP RUN")


def pretty_print(ast: n.CobolAst | n.Program) -> str:
    program = ast.program if isinstance(ast, n.CobolAst) else ast
    out: list[str] = []
    out.append("IDENTIFICATION DIVISION.")
    out.append(f"PROGRAM-ID. {program.program_id}.")
    if program.data_items:
        out.append("DATA DIVISION.")
        out.append("WORKING-STORAGE SECTION.")
        for item in program.data_items:
            _data_item_lines(item, 0, out)
    out.append("PROCEDURE DIVISION.")
    for para in program.paragraphs:
        out.append(f"{para.name}.")
        for stmt in para.body:
            lines: list[str] = []
            _stmt_lines(stmt, 1, lines)
            lines[-1] += "."
            out.extend(lines)
    return "\n".join(out) + "\n"
