"""Kernels: expressions lowered to straight-line Python.

A tape lowers a tuple of expressions into the source of one Python
function per kernel: one statement per node, no nested parentheses, and a
sum written as one chain ``t = 0.0 + a + b + ...`` of at most ``_CHAIN``
terms a statement, so a sum of thousands of terms compiles.
Subexpressions are shared by structure: a node with the type, fields and
children of one lowered before it (tags ignored), however it was built,
reads that node's locals, so each distinct subexpression is evaluated once
per call and an error names the first copy in evaluation order.
Each node's arithmetic is written in the order the exact chain rule
evaluates it (a square's gradient is (2.0*v)*g_i, sums add left to right
from 0.0 with explicit '+'), so every value and gradient is bitwise
reproducible.  The gradient kernel is sparse forward mode: a node carries
only the gradient entries of the variables below it.  The batch kernel
writes the value kernel's statements over numpy arrays, one per variable:
the rows of a (dim, N) array of points or the axes of an open grid that
broadcast against each other, with numpy's exp/log/sin and NaN where the
value kernel raises a domain error.  Each temporary is deleted after its
last reader, so peak memory stays near that of evaluating the tree node by
node.  Every kernel is compiled on its first call.  Only names,
indices, ints and reprs of finite floats are written into the source;
other constants and the nodes named by errors are passed in the namespace.

A penalty kernel reads the outputs as a form's (g, g_1..g_s, h_1..h_r) and
appends an epilogue to the value or gradient kernel: it returns the
smoothed penalty sign*g + rho * sum max(g_i,0)^power + rho * sum
|h_j|^power, with sign, rho and power passed per call, and in gradient
mode also its full-space gradient.  The epilogue is the plain sum written
out: terms added to 0.0 in constraint order, a NaN g_i counted as
violated, the coefficient rho*power*v**(power-1.0) (times the sign of h_j)
added into one accumulator per variable from 0.0, and sign*dg added last,
so value and gradient are bit for bit those of that sum over the dense
Jacobian.  One rule covers a term that is not finite: a float power that
overflows makes the value inf, and it or a coefficient that is not finite
makes the gradient NaN throughout.  A missing gradient raises only for g
and the active constraints.
"""

from __future__ import annotations

import math
from functools import cached_property

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
    first_copies,
    kink_error,
    postorder,
)


# terms added per statement of a sum: CPython's compiler cannot take one
# chain of about 3,000, and a chain adds left to right like single steps
_CHAIN = 64


def _chain(target: str, start: str, terms: list[str]) -> list[str]:
    """Statements adding ``terms`` to ``start`` left to right into ``target``."""
    return [
        f"{target} = {' + '.join([start if n == 0 else target, *terms[n : n + _CHAIN]])}"
        for n in range(0, len(terms), _CHAIN)
    ] or [f"{target} = {start}"]


def _overflow_pow(v: float, e) -> float:
    """``v ** e`` where Python floats raise OverflowError: numpy gives inf."""
    with np.errstate(over="ignore"):
        return float(np.float64(v) ** e)


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
            "_kink_error": kink_error,
            "_inf": math.inf,
        }
        self.value: dict[int, str] = {}  # node id -> operand
        # node id -> {variable index: entry}, an entry being a float known
        # at compile time or the name of a local
        self.entries: dict[int, dict[int, float | str]] = {}
        self.kinks: dict[int, str] = {}  # node id -> local naming its kink
        self.used: set[int] = set()
        order = list(postorder(outputs))
        first = self.first = first_copies(order)
        # first copy -> index of the node that reads it last; an output is
        # read after every node
        self.last_reader = {
            first[id(c)]: k
            for k, node in enumerate(order)
            if first[id(node)] == id(node)
            for c in node.children()
        }
        self.last_reader.update((first[id(e)], len(order)) for e in outputs)
        for k, node in enumerate(order):
            orig = first[id(node)]
            if orig != id(node):  # a copy reads the locals of the first one
                for table in (self.value, self.entries, self.kinks):
                    if orig in table:
                        table[id(node)] = table[orig]
                continue
            self._lower(k, node)
            if self.batch:
                # Var rows are views of the points, and shared by index
                dead = {
                    self.value[id(c)]
                    for c in node.children()
                    if self.last_reader[first[id(c)]] == k and not isinstance(c, Var)
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

    def kink(self, e: Expr) -> str | None:
        """The expression naming the first kink met under ``e``, or None."""
        names = [self.kinks[id(n)] for n in postorder((e,)) if id(n) in self.kinks]
        return " or ".join(dict.fromkeys(names)) or None

    def penalty(self, outputs, ineq: int) -> list[str]:
        """Lines returning the smoothed penalty of ``outputs`` read as
        (g, g_1..g_ineq, h_1..), and in grad mode its gradient too."""
        terms: list[str] = []
        for k, e in enumerate(outputs[1:], 1):
            t = self.value[id(e)]
            v = t if k <= ineq else f"abs({t})"
            terms += [  # a NaN g_i counts as violated
                f"if not {t} <= 0.0:" if k <= ineq else f"if {t} != 0.0:",
                f"    pen = pen + rho * {v} ** power",
            ]
            if not self.grad:
                continue
            sgn = "" if k <= ineq else f" * (-1.0 if {t} < 0.0 else 1.0)"
            terms.append(f"    coef = rho * power * {v} ** pm1{sgn}")
            kink = self.kink(e)
            if kink:
                terms += [f"    if {kink}:", f"        raise _kink_error({kink})"]
            for i, entry in sorted(self.entries[id(e)].items()):
                term = "coef" if entry == 1.0 else f"coef * {self.operand(entry)}"
                terms.append(f"    a{i} = a{i} + {term}")
            terms += ["    if coef - coef != 0.0:", "        finite = False"]
        g = self.value[id(outputs[0])]
        lines = ["pen = 0.0"]
        if self.grad:
            kink = self.kink(outputs[0])
            if kink:
                lines += [f"if {kink}:", f"    raise _kink_error({kink})"]
            acc = {i for e in outputs[1:] for i in self.entries[id(e)]}
            lines += [f"a{i} = 0.0" for i in sorted(acc)] + ["pm1 = power - 1.0", "finite = True"]
        if terms:
            overflow = ["    pen = _inf"] + (["    finite = False"] if self.grad else [])
            lines += ["try:", *("    " + s for s in terms), "except OverflowError:", *overflow]
        if not self.grad:
            return lines + [f"return sign * {g} + pen"]
        if terms:
            # a term whose power overflows or whose coefficient is not finite: NaN throughout
            lines += ["if not finite:", f"    return sign * {g} + pen, _full(len(p), _nan)"]
        dg = self.entries[id(outputs[0])]
        cols = sorted(acc | set(dg))
        # sign*0.0 + a_i is a_i bit for bit: a sum from 0.0 is never -0.0
        finals = [
            f"sign * {self.operand(dg[i])} + {f'a{i}' if i in acc else '0.0'}" if i in dg else f"a{i}"
            for i in cols
        ]
        self.namespace.update(
            _zeros=np.zeros, _cols=np.array(cols, dtype=np.intp), _full=np.full, _nan=math.nan
        )
        lines.append("grad = _zeros(len(p))")
        if finals:
            lines.append(f"grad[_cols] = [{', '.join(finals)}]")
        return lines + [f"return sign * {g} + pen, grad"]

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
        terms = []
        grad: dict[int, float] = {}
        for i, c in node.terms:
            i = int(i)
            self.used.add(i)
            terms.append(f"{self.const(c)} * p{i}")
            grad[i] = grad.get(i, 0.0) + float(c)
        self.emit(*_chain(t, self.const(node.offset), terms))
        self.entries[id(node)] = grad

    def _sum(self, k: int, t: str, node: Sum) -> None:
        self.emit(*_chain(t, "0.0", [self.value[id(c)] for c in node.parts]))
        if not self.grad:
            return
        # a first part that is a sum no later node reads hands over its entries:
        # a sum from 0.0 is never -0.0, so 0.0 + e is e (a `+` chain: a line a term)
        parts = node.parts
        grad: dict[int, float | str] = {}
        if parts and isinstance(parts[0], Sum) and self.last_reader[self.first[id(parts[0])]] == k:
            grad, parts = self.entries[id(parts[0])], parts[1:]
        columns: dict[int, list] = {}
        for c in parts:
            for i, e in self.entries[id(c)].items():
                columns.setdefault(i, []).append(e)
        for i, col in columns.items():
            if i in grad:  # an entry handed over
                col.insert(0, grad[i])
            if all(isinstance(e, float) for e in col):
                acc = 0.0
                for e in col:
                    acc += e
                grad[i] = acc
                continue
            grad[i] = f"g{k}_{i}"
            self.emit(*_chain(grad[i], "0.0", [self.operand(e) for e in col]))
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
            if self.batch:
                self.emit(f"{t} = exp({a})")
            else:  # math.exp raises where numpy's exp gives inf
                self.emit(*_guarded([f"{t} = exp({a})"], [f"{t} = _inf"]))
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
            body = [f"{t} = sin({a})"] + ([f"{d} = cos({a})"] if self.grad else [])
            if self.batch:
                self.emit(*body)
            else:  # math.sin raises at an infinite argument where numpy's sin gives NaN
                nan = self.const(math.nan)
                fallback = [f"{t} = {nan}"] + ([f"{d} = {nan}"] if self.grad else [])
                self.emit(*_guarded(body, fallback, "ValueError"))
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


def _guarded(body: list[str], fallback: list[str], error: str = "OverflowError") -> list[str]:
    """Lines running ``body``, or ``fallback`` where it raises ``error``: an
    overflowing float power or exp, or a sine of an infinite argument."""
    return [
        "try:",
        *("    " + s for s in body),
        f"except {error}:",
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
    evaluates many points at once, NaN where a point is outside a node's
    domain: ``points`` is a sequence of per-variable arrays that broadcast
    against each other, giving one array of their broadcast shape per
    output, writable and sharing memory with no row and no other output.
    The rows of a (dim, N) array are one such sequence, giving shape (N,);
    an open grid is another.  On an open grid a subexpression
    is evaluated at its operands' shape, so one reading only x is computed
    once, not once per point; every operation is elementwise, so each point
    gets the same IEEE operations as on the dense grid.  ``dim`` is one more
    than the largest variable index referenced.  Every kernel is compiled
    on its first call.  ``penalty(ineq, grad)`` is the penalty kernel
    ``(p, sign, rho, power)`` of the outputs read as (g, g_1..g_ineq, h_1..)
    (see the module docstring), compiled on first use and kept.
    """

    def __init__(self, outputs):
        self.outputs = tuple(outputs)
        self.dim = 1 + max((e.max_index() for e in self.outputs), default=-1)
        self._penalties = {}

    @cached_property
    def value(self):
        return self._compile("value")

    @cached_property
    def value_grad(self):
        return self._compile("grad")

    @cached_property
    def _batch(self):
        return self._compile("batch")

    def value_batch(self, points) -> list[np.ndarray]:
        p = [np.asarray(row, dtype=float) for row in points]
        shape = np.broadcast_shapes(*(row.shape for row in p))
        if len(p) < self.dim:
            raise DimensionError(
                f"expressions reference index {self.dim - 1} "
                f"but points have dimension {len(p)}"
            )
        with np.errstate(all="ignore"):
            values = self._batch(p)
        outs: list[np.ndarray] = []
        for v in values:
            # a fresh float array of the full shape is returned as it is; a
            # float, a row of p, a view, a smaller shape or a repeat is copied
            fresh = isinstance(v, np.ndarray) and v.dtype == np.float64 and v.base is None
            if not (fresh and v.shape == shape and all(v is not a for a in (*p, *outs))):
                out = np.empty(shape)
                out[...] = v
                v = out
            outs.append(v)
        return outs

    def penalty(self, ineq: int, grad: bool):
        if (ineq, grad) not in self._penalties:
            self._penalties[ineq, grad] = self._compile("grad" if grad else "value", ineq)
        return self._penalties[ineq, grad]

    def _compile(self, mode: str, ineq: int | None = None):
        low = _Lowering(self.outputs, mode)
        outs = ", ".join(low.value[id(e)] for e in self.outputs)
        body = [f"p{i} = p[{i}]" for i in sorted(low.used)] + low.lines
        args = "p"
        if ineq is not None:
            args = "p, sign, rho, power"
            body += low.penalty(self.outputs, ineq)
        elif mode != "grad":
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
            kinks = ", ".join(low.kink(e) or "None" for e in self.outputs)
            body.append(f"return [{outs}], jac, ({kinks},)")
        source = f"def kernel({args}):\n" + "".join(f"    {line}\n" for line in body)
        exec(compile(source, "<saddlelift kernel>", "exec"), low.namespace)
        return low.namespace["kernel"]
