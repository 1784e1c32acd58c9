"""Deterministic Java source emission: 4-space indent, braces always.

The emitted file carries a main() wrapper plus a fixed runtime-support
block (in/num/fit/str) so the text is compilable-shaped; neither is part
of the JavaAst.
"""

from __future__ import annotations

from relicforge.transpile import jnodes as j

RUNTIME_SUPPORT = """\
    private static final java.util.Scanner STDIN = new java.util.Scanner(System.in);

    private static String in() {
        return STDIN.nextLine();
    }

    private static long num(String v) {
        return Long.parseLong(v.trim());
    }

    private static String fit(String v, int w) {
        if (v.length() > w) {
            return v.substring(0, w);
        }
        StringBuilder b = new StringBuilder(v);
        while (b.length() < w) {
            b.append(' ');
        }
        return b.toString();
    }

    private static String str(long v) {
        return String.valueOf(v);
    }

    private static String str(String v) {
        return v;
    }
"""


def _field_line(field: j.JField) -> str:
    if field.jtype == "long":
        return f"    private long {field.name} = {field.initial};"
    return f"    private String {field.name} = {j.java_quote(field.initial)};"


def _emit_body(lines: list[str], body, depth: int) -> None:
    pad = "    " * depth
    for stmt in body:
        cls = stmt.__class__
        if cls is j.Assign:
            lines.append(f"{pad}{stmt.target} = {j.jexpr_text(stmt.expr)};")
        elif cls is j.MethodCall:
            args = ", ".join(j.jexpr_text(a) for a in stmt.args)
            lines.append(f"{pad}{stmt.name}({args});")
        elif cls is j.Print:
            rendered = " + ".join(f"str({j.jexpr_text(a)})" for a in stmt.args)
            lines.append(f"{pad}System.out.println({rendered or j.java_quote('')});")
        elif cls is j.IfElse:
            lines.append(f"{pad}if ({j.jcond_text(stmt.cond)}) {{")
            _emit_body(lines, stmt.then_body, depth + 1)
            if stmt.else_body:
                lines.append(f"{pad}}} else {{")
                _emit_body(lines, stmt.else_body, depth + 1)
            lines.append(f"{pad}}}")
        elif cls is j.While:
            lines.append(f"{pad}while ({j.jcond_text(stmt.cond)}) {{")
            _emit_body(lines, stmt.body, depth + 1)
            lines.append(f"{pad}}}")
        elif cls is j.DoWhile:
            lines.append(f"{pad}do {{")
            _emit_body(lines, stmt.body, depth + 1)
            lines.append(f"{pad}}} while ({j.jcond_text(stmt.cond)});")
        elif cls is j.For:
            init, update = j.assign_text(stmt.init), j.assign_text(stmt.update)
            cond = j.jcond_text(stmt.cond) if stmt.cond else ""
            lines.append(f"{pad}for ({init}; {cond}; {update}) {{")
            _emit_body(lines, stmt.body, depth + 1)
            lines.append(f"{pad}}}")
        elif cls is j.Switch:
            lines.append(f"{pad}switch ({j.jexpr_text(stmt.subject)}) {{")
            for case in stmt.cases:
                lines.append(f"{pad}    case {j.jexpr_text(case.value)}: {{")
                _emit_body(lines, case.body, depth + 2)
                lines.append(f"{pad}        break;")
                lines.append(f"{pad}    }}")
            if stmt.default is not None:
                lines.append(f"{pad}    default: {{")
                _emit_body(lines, stmt.default, depth + 2)
                lines.append(f"{pad}        break;")
                lines.append(f"{pad}    }}")
            lines.append(f"{pad}}}")
        elif cls is j.Return:
            lines.append(f"{pad}return;")
        elif cls is j.Break:
            lines.append(f"{pad}break;")
        else:
            raise TypeError(f"unknown statement {stmt!r}")


def emit_java(jast: j.JavaAst) -> str:
    lines: list[str] = [f"public class {jast.class_name} {{"]
    for field in jast.fields:
        lines.append(_field_line(field))
    if jast.fields:
        lines.append("")
    lines.append("    public static void main(String[] args) {")
    lines.append(f"        new {jast.class_name}().run();")
    lines.append("    }")
    for method in jast.methods:
        lines.append("")
        visibility = "public" if method.name == "run" else "private"
        lines.append(f"    {visibility} void {method.name}() {{")
        _emit_body(lines, method.body, 2)
        lines.append("    }")
    lines.append("")
    lines.append(RUNTIME_SUPPORT.rstrip("\n"))
    lines.append("}")
    return "\n".join(lines) + "\n"
