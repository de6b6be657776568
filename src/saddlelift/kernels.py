"""Kernels: expressions lowered to straight-line Python.

A tape lowers a tuple of expressions, sharing subexpressions by node
identity, into the source of one Python function per kernel: one statement
per node or sum term, no nested parentheses, so a 1000-term sum compiles.
Each node's arithmetic is written in the order the exact chain rule
evaluates it (a square's gradient is (2.0*v)*g_i, sums add left to right
from 0.0 with explicit '+'), so every value and gradient is bitwise
reproducible.  The gradient kernel is sparse forward mode: a node carries
only the gradient entries of the variables below it.  The batch kernel
writes the value kernel's statements over rows of a (dim, N) array of
points, with numpy's exp/log/sin and NaN where the value kernel raises a
domain error; each temporary is deleted after its last reader, so peak
memory stays near that of evaluating the tree node by node.  Only names,
indices, ints and reprs of finite floats are written into the source;
other constants and the nodes named by errors are passed in the namespace.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import (
    Affine,
    Const,
    DimensionError,
    DomainEvalError,
    Exp,
    Expr,
    IntPow,
    Log,
    RealPow,
    Scale,
    Sin,
    Square,
    Sum,
    Var,
)


def _overflow_pow(v: float, e) -> float:
    """``v ** e`` where Python floats raise OverflowError: numpy gives inf."""
    with np.errstate(over="ignore"):
        return float(np.float64(v) ** e)


def _postorder(outputs) -> list[Expr]:
    """Every node under ``outputs`` once, children before parents."""
    order: list[Expr] = []
    seen: set[int] = set()
    for root in outputs:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                order.append(node)
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in reversed(node.children()))
    return order


class _Lowering:
    """Writes the body of one kernel of ``outputs``.

    ``mode`` is "value", "grad" (adds the gradient entries) or "batch"
    (numpy rows for points, NaN for domain errors, dead temporaries
    deleted).
    """

    def __init__(self, outputs, mode: str):
        self.grad = mode == "grad"
        self.batch = mode == "batch"
        lib = np if self.batch else math
        self.lines: list[str] = []
        self.namespace = {
            "exp": lib.exp,
            "log": lib.log,
            "sin": lib.sin,
            "cos": math.cos,
            "_where": np.where,
            "_abs": np.abs,
            "_overflow_pow": _overflow_pow,
            "DomainEvalError": DomainEvalError,
        }
        self.value: dict[int, str] = {}  # node id -> operand
        # node id -> {variable index: entry}, an entry being a float known
        # at compile time or the name of a local
        self.entries: dict[int, dict[int, float | str]] = {}
        self.kinks: dict[int, str] = {}  # node id -> local naming its kink
        self.used: set[int] = set()
        order = _postorder(outputs)
        last_reader = {id(c): k for k, node in enumerate(order) for c in node.children()}
        keep = {id(e) for e in outputs}
        for k, node in enumerate(order):
            self._lower(k, node)
            if self.batch:
                # Var rows are views of the points, and shared by index
                dead = {
                    self.value[id(c)]
                    for c in node.children()
                    if last_reader[id(c)] == k and id(c) not in keep and not isinstance(c, Var)
                }
                if dead:
                    self.emit(f"del {', '.join(sorted(dead))}")

    def const(self, c: float) -> str:
        c = float(c)
        if math.isfinite(c):
            return repr(c)
        name = f"_c{len(self.namespace)}"
        self.namespace[name] = c
        return name

    def node_name(self, k: int, node: Expr) -> str:
        self.namespace[f"_n{k}"] = node
        return f"_n{k}"

    def operand(self, entry) -> str:
        return self.const(entry) if isinstance(entry, float) else entry

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def _lower(self, k: int, node: Expr) -> None:
        t = f"t{k}"
        if isinstance(node, Var):
            i = int(node.index)
            self.used.add(i)
            self.value[id(node)] = f"p{i}"
            self.entries[id(node)] = {i: 1.0}
            return
        self.value[id(node)] = t
        if isinstance(node, Const):
            self.emit(f"{t} = {self.const(node.c)}")
            self.entries[id(node)] = {}
        elif isinstance(node, Affine):
            self._affine(t, node)
        elif isinstance(node, Sum):
            self._sum(k, t, node)
        else:
            self._unary(k, t, node)

    def _affine(self, t: str, node: Affine) -> None:
        line = f"{t} = {self.const(node.offset)}"
        grad: dict[int, float] = {}
        for n, (i, c) in enumerate(node.terms):
            i = int(i)
            self.used.add(i)
            term = f"{self.const(c)} * p{i}"
            self.emit(f"{line} + {term}" if n == 0 else f"{t} = {t} + {term}")
            grad[i] = grad.get(i, 0.0) + float(c)
        if not node.terms:
            self.emit(line)
        self.entries[id(node)] = grad

    def _sum(self, k: int, t: str, node: Sum) -> None:
        for n, c in enumerate(node.parts):
            self.emit(f"{t} = {'0.0' if n == 0 else t} + {self.value[id(c)]}")
        if not node.parts:
            self.emit(f"{t} = 0.0")
        if not self.grad:
            return
        columns: dict[int, list] = {}
        for c in node.parts:
            for i, e in self.entries[id(c)].items():
                columns.setdefault(i, []).append(e)
        grad: dict[int, float | str] = {}
        for i, col in columns.items():
            if all(isinstance(e, float) for e in col):
                acc = 0.0
                for e in col:
                    acc += e
                grad[i] = acc
                continue
            g = f"g{k}_{i}"
            for n, e in enumerate(col):
                self.emit(f"{g} = {'0.0' if n == 0 else g} + {self.operand(e)}")
            grad[i] = g
        self.entries[id(node)] = grad

    def _unary(self, k: int, t: str, node: Expr) -> None:
        a = self.value[id(node.child)]
        d = f"d{k}"
        factor: float | str = d
        if isinstance(node, Scale):
            self.emit(f"{t} = {self.const(node.c)} * {a}")
            factor = float(node.c)
        elif isinstance(node, Square):
            self.emit(f"{t} = {a} * {a}")
            if self.grad:
                self.emit(f"{d} = 2.0 * {a}")
        elif isinstance(node, IntPow):
            kk = int(node.k)
            body = [f"{t} = {a} ** {kk}"]
            fallback = [f"{t} = _overflow_pow({a}, {kk})"]
            if self.grad:
                body.append(f"{d} = {kk} * {a} ** {kk - 1}")
                fallback.append(f"{d} = {kk} * _overflow_pow({a}, {kk - 1})")
            self.emit(*_guarded(body, fallback))
        elif isinstance(node, RealPow):
            self._real_pow(k, t, d, a, node)
        elif isinstance(node, Exp):
            self.emit(f"{t} = exp({a})")
            factor = t
        elif isinstance(node, Log) and self.batch:
            nan = self.const(math.nan)
            self.emit(f"{t} = _where({a} <= 0.0, {nan}, log(_where({a} <= 0.0, 1.0, {a})))")
        elif isinstance(node, Log):
            n = self.node_name(k, node)
            self.emit(
                f"if {a} <= 0.0:",
                f"    raise DomainEvalError(f'log of non-positive value {{{a}}}', {n})",
                f"{t} = log({a})",
            )
            factor = None  # entries divide by the argument
        elif isinstance(node, Sin):
            self.emit(f"{t} = sin({a})")
            if self.grad:
                self.emit(f"{d} = cos({a})")
        else:
            raise TypeError(f"cannot compile node {type(node).__name__}")
        if not self.grad:
            return
        grad: dict[int, float | str] = {}
        for i, e in self.entries[id(node.child)].items():
            if factor is None:
                grad[i] = f"g{k}_{i}"
                self.emit(f"g{k}_{i} = {self.operand(e)} / {a}")
            elif isinstance(factor, float) and isinstance(e, float):
                grad[i] = factor * e
            elif isinstance(e, float) and e == 1.0:
                grad[i] = factor  # factor * 1.0 is the factor, bit for bit
            else:
                grad[i] = f"g{k}_{i}"
                self.emit(f"g{k}_{i} = {self.operand(factor)} * {self.operand(e)}")
        self.entries[id(node)] = grad

    def _real_pow(self, k: int, t: str, d: str, a: str, node: RealPow) -> None:
        e = self.const(node.a)
        if self.batch:
            # |a| ** e, not a ** e: a zero of either sign gives +0.0
            self.emit(f"{t} = _where({a} < 0.0, {self.const(math.nan)}, _abs({a}) ** {e})")
            return
        n = self.node_name(k, node)
        self.emit(
            f"if {a} < 0.0:",
            f"    raise DomainEvalError(f'real power of negative value {{{a}}}', {n})",
        )
        if not self.grad:
            self.emit(*_guarded([f"{t} = {a} ** {e}"], [f"{t} = _overflow_pow({a}, {e})"]))
            return
        em1 = self.const(node.a - 1.0)
        if node.a < 1.0:
            self.kinks[id(node)] = f"k{k}"
            self.emit(f"k{k} = None")
            at_zero = [f"k{k} = {n}", f"{d} = 0.0"]
        else:
            at_zero = [f"{d} = {'1.0' if node.a == 1.0 else '0.0'}"]
        body = [f"{t} = {a} ** {e}", f"{d} = {e} * {a} ** {em1}"]
        fallback = [f"{t} = _overflow_pow({a}, {e})", f"{d} = {e} * _overflow_pow({a}, {em1})"]
        self.emit(
            f"if {a} == 0.0:",
            f"    {t} = 0.0",
            *("    " + s for s in at_zero),
            "else:",
            *("    " + s for s in _guarded(body, fallback)),
        )


def _guarded(body: list[str], fallback: list[str]) -> list[str]:
    """Lines running ``body``, or ``fallback`` where a float power overflows."""
    return [
        "try:",
        *("    " + s for s in body),
        "except OverflowError:",
        *("    " + s for s in fallback),
    ]


class Tape:
    """Compiled kernels evaluating the expressions ``outputs`` together.

    ``value(p)`` maps the point, a list of floats, to the list of output
    values.  ``value_grad(p)`` returns that list, the gradients as an array
    of shape (len(outputs), len(p)), and per output the first node (in
    evaluation order) where the gradient does not exist, or None; a
    gradient is only valid where that entry is None.  Domain errors raise
    :class:`DomainEvalError` from either kernel.  ``value_batch(points)``
    evaluates every column of a (dim, N) array, giving one array of shape
    ``points.shape[1:]`` per output, NaN where the point is outside a
    node's domain.  ``dim`` is one more than the largest variable index
    referenced.  The value kernel is compiled when the tape is made, the
    others on their first call.
    """

    def __init__(self, outputs):
        self.outputs = tuple(outputs)
        leaves = (n for n in _postorder(self.outputs) if isinstance(n, (Var, Affine)))
        self.dim = 1 + max((n.max_index() for n in leaves), default=-1)
        self.value = self._compile("value")
        self._value_grad = None
        self._value_batch = None

    def value_grad(self, p: list) -> tuple[list, np.ndarray, tuple]:
        if self._value_grad is None:
            self._value_grad = self._compile("grad")
        return self._value_grad(p)

    def value_batch(self, points) -> list[np.ndarray]:
        if self._value_batch is None:
            self._value_batch = self._compile("batch")
        p = np.asarray(points, dtype=float)
        if p.shape[0] < self.dim:
            raise DimensionError(
                f"expressions reference index {self.dim - 1} "
                f"but points have dimension {p.shape[0]}"
            )
        with np.errstate(all="ignore"):
            values = self._value_batch(p)
        outs = [np.empty(p.shape[1:]) for _ in values]
        for out, v in zip(outs, values):
            out[...] = v  # a fresh array, also where v is a float or a row of p
        return outs

    def _compile(self, mode: str):
        low = _Lowering(self.outputs, mode)
        outs = ", ".join(low.value[id(e)] for e in self.outputs)
        body = [f"p{i} = p[{i}]" for i in sorted(low.used)] + low.lines
        if mode != "grad":
            body.append(f"return [{outs}]")
        else:
            rows, cols, entries = [], [], []
            for r, e in enumerate(self.outputs):
                for i, entry in sorted(low.entries[id(e)].items()):
                    rows.append(r)
                    cols.append(i)
                    entries.append(low.operand(entry))
            low.namespace.update(
                _zeros=np.zeros,
                _rows=np.array(rows, dtype=np.intp),
                _cols=np.array(cols, dtype=np.intp),
            )
            body.append(f"jac = _zeros(({len(self.outputs)}, len(p)))")
            if entries:
                body.append(f"jac[_rows, _cols] = [{', '.join(entries)}]")
            kinks = []
            for e in self.outputs:
                names = [low.kinks[id(n)] for n in _postorder((e,)) if id(n) in low.kinks]
                kinks.append(" or ".join(names) or "None")
            body.append(f"return [{outs}], jac, ({', '.join(kinks)},)")
        source = "def kernel(p):\n" + "".join(f"    {line}\n" for line in body)
        exec(compile(source, "<saddlelift kernel>", "exec"), low.namespace)
        return low.namespace["kernel"]
