"""Loader for the packaged reference coefficient tables.

The JSON file stores each table entry as an expression string in N exactly as
transcribed; the private reader ``_parse`` canonicalizes them, so comparisons
against computed tables are semantic, independent of how either side was
factored.  Its grammar: integers, the symbol N, parentheses, unary and binary
+ and -, * and /, and ``^`` with a nonnegative integer literal as exponent.
"""

from __future__ import annotations

import ast
import json
import operator
import re
from functools import lru_cache
from importlib import resources

from .exactmath import N, RatFuncN
from .partitions import Partition


@lru_cache(maxsize=None)
def _raw() -> dict:
    path = resources.files("sunint.data").joinpath("reference_tables.json")
    return json.loads(path.read_text(encoding="utf-8"))


def reference_families() -> list[str]:
    return sorted(_raw().keys())


def reference_weights(family: str) -> list[int]:
    return sorted(int(k) for k in _raw()[family])


def reference_table(family: str, n: int) -> dict[Partition, RatFuncN]:
    """The packaged table for one family and weight, parsed and canonical."""
    raw = _raw()[family][str(n)]
    return {Partition.from_string(key): _parse(text)
            for key, text in raw.items()}


# the grammar's characters, every '^' followed by digits: ast drops the
# parentheses of N^(2), which the grammar refuses
_ALPHABET = re.compile(r"(?:[0-9N+\-*/()\s]|\^\s*[0-9])*")
_LEADING_ZEROS = re.compile(r"\b0+(?=[0-9])")
_UNARY = {ast.UAdd: lambda value: value, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _parse(text: str) -> RatFuncN:
    """Read an expression in N.

    Grammar (whitespace-insensitive): integers, the symbol N, parentheses,
    unary and binary + and -, * and /, and ``^`` with a nonnegative integer
    literal as exponent; ``^`` binds tighter than unary minus and does not
    chain.  With ``^`` spelled ``**`` this is Python's expression grammar
    with Python's precedence, so ``ast.parse`` reads the text and a
    whitelist evaluates the tree: int constants, the name N, unary + and -,
    binary + - * /, and ``**`` with an int literal exponent.  Nothing is
    compiled or executed.  Any other character or node, malformed text and
    input nested beyond Python's recursion limit raise ValueError; a zero
    divisor raises ZeroDivisionError.  Nothing bounds the size of the
    result: the only text read is the packaged tables'.
    This accepts everything ``str(RatFuncN)`` emits, plus factored input
    like ``8*(2*N^2 - 3)/((N^2 - 9)*N^2)``.
    """
    if not _ALPHABET.fullmatch(text) or "**" in text:
        raise ValueError("unexpected character or exponent in expression")
    # one line of Python with no leading zeros, which its tokenizer refuses
    source = _LEADING_ZEROS.sub("", " ".join(text.split()))
    try:
        tree = ast.parse(source.replace("^", "**"), mode="eval")
        return _evaluate(tree.body)
    except SyntaxError as exc:
        raise ValueError(f"malformed expression: {exc.msg}") from None
    except RecursionError:
        raise ValueError("expression nested too deeply") from None


def _evaluate(node: ast.expr) -> RatFuncN:
    op = type(getattr(node, "op", None))
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return RatFuncN(node.value)
    if isinstance(node, ast.Name) and node.id == "N":
        return RatFuncN(N)
    if isinstance(node, ast.UnaryOp) and op in _UNARY:
        return _UNARY[op](_evaluate(node.operand))
    if isinstance(node, ast.BinOp) and op in _BINARY:
        return _BINARY[op](_evaluate(node.left), _evaluate(node.right))
    if (isinstance(node, ast.BinOp) and op is ast.Pow
            and isinstance(node.right, ast.Constant)
            and type(node.right.value) is int):
        return _evaluate(node.left) ** node.right.value
    raise ValueError(f"unsupported {type(node).__name__} in expression")
