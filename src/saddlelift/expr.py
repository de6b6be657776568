"""Differentiable scalar expressions over a flat variable vector.

Every scalar function handled by this package (saddle objectives, constraint
left-hand sides, penalty ingredients) is an immutable expression tree built
from the node types below.  All evaluation runs on kernels: a tape
(:mod:`saddlelift.kernels`) lowers one or more trees into straight-line
Python, compiled on first evaluation and cached on the node (or on the form
whose components it evaluates together).  From one lowering it gives exact
values, the exact chain-rule gradient in sparse forward mode, and the
lenient batch values over many points that the grid audit scans.
Curvature is *declared* metadata attached to each node and checked
empirically by sampling, never inferred symbolically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

if TYPE_CHECKING:
    from .kernels import Tape

CONVEX = "convex"
CONCAVE = "concave"
AFFINE = "affine"
NONE = "none"

_TAGS = (CONVEX, CONCAVE, AFFINE, NONE)

_REPR_CHARS = 200  # an expression's repr shows this much of its text


class ExprError(Exception):
    """Base class for expression failures."""


class DimensionError(ExprError):
    pass


class DomainEvalError(ExprError):
    """Evaluation outside a node's domain (log of non-positive, etc.)."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(message)
        self.node = node


class NondifferentiableError(ExprError):
    """Gradient requested at a kink of a nonsmooth node."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(message)
        self.node = node


class ParseError(ExprError):
    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Expr:
    """Immutable expression node.  Subclasses are frozen dataclasses.  A
    node fixes its largest variable index and its affinity when it is made,
    from its children's, so asking either reads a field.  Two trees are
    equal when they have the same structure, tags included and floats
    compared by their bits (:func:`first_copies`); the hash reads only what
    a node fixes when it is made, so equal trees hash alike."""

    tag: str

    def __post_init__(self):
        kids = self.children()
        if isinstance(self, Var):
            indices = [self.index]
        elif isinstance(self, Affine):
            indices = [i for i, _ in self.terms]
        else:
            indices = [c._max_index for c in kids]
        object.__setattr__(self, "_max_index", max([-1, *indices]))
        affine = isinstance(self, _AFFINE_NODES) and all(c._affine for c in kids)
        object.__setattr__(self, "_affine", affine)

    def __repr__(self) -> str:
        # the grammar text with variables v0, v1, ..., cut short: a shared
        # node is written once per path, so the whole text can be huge
        text = ""
        for piece in _pieces(self, "v{}".format):
            text += piece
            if len(text) > _REPR_CHARS:
                return f"{type(self).__name__}<{text[:_REPR_CHARS]}...>"
        return f"{type(self).__name__}<{text}>"

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        first = first_copies(postorder((self, other)), tags=True)
        return first[id(self)] == first[id(other)]

    def __hash__(self):
        return hash((type(self), self._max_index, self._affine))

    # -- evaluation ---------------------------------------------------------

    def value(self, point: np.ndarray) -> float:
        """Exact value at ``point``; raises on domain violations."""
        p, tape = self._checked(point)
        return float(tape.value(p.tolist())[0])

    def value_batch(self, points: np.ndarray) -> np.ndarray:
        """Lenient vectorized value over ``points``, a sequence of ``dim``
        per-variable arrays that broadcast against each other (the rows of a
        (dim, N) array, or an open grid), at their broadcast shape.

        Out-of-domain entries become NaN instead of raising; callers treat
        NaN as infeasible.
        """
        return self.tape().value_batch(points)[0]

    def value_grad(self, point: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and exact gradient (length ``len(point)``) at ``point``."""
        p, tape = self._checked(point)
        vals, jac, kinks = tape.value_grad(p.tolist())
        if kinks[0] is not None:
            raise kink_error(kinks[0])
        return float(vals[0]), jac[0]

    def tape(self) -> Tape:
        """This expression's kernels, compiled on first use and kept on the node."""
        return cached_tape(self, (self,))

    def _checked(self, point) -> tuple[np.ndarray, Tape]:
        p = np.asarray(point, dtype=float)
        if p.ndim != 1:
            raise DimensionError(f"expected 1-d point, got shape {p.shape}")
        tape = self.tape()
        if tape.dim > p.size:
            raise DimensionError(
                f"expression references index {tape.dim - 1} "
                f"but point has dimension {p.size}"
            )
        return p, tape

    def __getstate__(self):
        # compiled kernels do not pickle; a copy compiles its own
        state = dict(self.__dict__)
        state.pop("_tape", None)
        return state

    # -- structure ----------------------------------------------------------

    def children(self) -> tuple["Expr", ...]:
        return ()

    def max_index(self) -> int:
        """Largest variable index referenced, or -1 for constants."""
        return self._max_index

    def is_affine(self) -> bool:
        """Structural affinity (decidable without sampling): every node is
        a constant, variable, affine map, sum or scaling."""
        return self._affine

    def remap(self, mapping: dict[int, int]) -> "Expr":
        """New expression with every variable index sent through ``mapping``."""

        def leaf(node):
            if isinstance(node, Var):
                return replace(node, index=mapping.get(node.index, node.index))
            return replace(node, terms=tuple((mapping.get(i, i), c) for i, c in node.terms))

        return self._rebuild(leaf)

    def subst(self, index: int, sub: "Expr") -> "Expr":
        """Replace references to variable ``index`` with expression ``sub``."""

        def leaf(node):
            if isinstance(node, Var):
                return sub if node.index == index else node
            if all(i != index for i, _ in node.terms):
                return node
            kept = Affine(tuple((i, c) for i, c in node.terms if i != index), node.offset)
            return add(kept, *(scale(sub, c) for i, c in node.terms if i == index))

        return self._rebuild(leaf)

    def _rebuild(self, leaf: Callable[["Expr"], "Expr"]) -> "Expr":
        """This tree rebuilt children first, each variable and affine map
        replaced by ``leaf`` of it; a shared node is rebuilt once and stays
        shared.  A node whose tag was its derived one gets the derived tag
        of its rebuilt self; an explicit tag is kept."""
        new: dict[int, Expr] = {}
        for node in postorder((self,)):
            if isinstance(node, Sum):
                made = replace(node, parts=tuple(new[id(c)] for c in node.parts))
            elif isinstance(node, _Unary):
                made = replace(node, child=new[id(node.child)])
            else:
                new[id(node)] = node if isinstance(node, Const) else leaf(node)
                continue
            new[id(node)] = _finish(made) if node.tag == _derived_tag(node) else made
        return new[id(self)]

    def with_tag(self, tag: str) -> "Expr":
        if tag not in _TAGS:
            raise ValueError(f"unknown curvature tag {tag!r}")
        return replace(self, tag=tag)

    # -- sugar (scalar-only products; there is no general product node) ------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            return other
        return Const(float(other))

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __radd__(self, other):
        return add(self._coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(self._coerce(other)))

    def __rsub__(self, other):
        return add(self._coerce(other), neg(self))

    def __neg__(self):
        return neg(self)

    def __mul__(self, c):
        if isinstance(c, Expr):
            return NotImplemented
        return scale(self, float(c))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# node types


@dataclass(frozen=True, repr=False, eq=False)
class Const(Expr):
    c: float
    tag: str = AFFINE


@dataclass(frozen=True, repr=False, eq=False)
class Var(Expr):
    index: int
    tag: str = AFFINE


@dataclass(frozen=True, repr=False, eq=False)
class Affine(Expr):
    """Sparse affine combination  sum_i coeff_i * v_i + offset."""

    terms: tuple[tuple[int, float], ...]
    offset: float = 0.0
    tag: str = AFFINE


@dataclass(frozen=True, repr=False, eq=False)
class Sum(Expr):
    parts: tuple[Expr, ...]
    tag: str = NONE

    def children(self):
        return self.parts


@dataclass(frozen=True, repr=False, eq=False)
class _Unary(Expr):
    """A node of one child; ``tag`` is keyword-only, so a subclass's own
    fields follow ``child`` positionally."""

    child: Expr
    tag: str = field(default=NONE, kw_only=True)

    def children(self):
        return (self.child,)


@dataclass(frozen=True, repr=False, eq=False)
class Scale(_Unary):
    c: float


class Square(_Unary):
    pass


@dataclass(frozen=True, repr=False, eq=False)
class IntPow(_Unary):
    k: int

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("integer power requires k >= 1")
        super().__post_init__()


@dataclass(frozen=True, repr=False, eq=False)
class RealPow(_Unary):
    """child ** a for real a > 0, defined on child >= 0 only."""

    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("real power requires exponent a > 0")
        super().__post_init__()


class Exp(_Unary):
    pass


class Log(_Unary):
    pass


class Sin(_Unary):
    """sin of an affine argument (the only trigonometric node needed)."""

    def __post_init__(self):
        if not self.child.is_affine():
            raise ValueError("sin node requires an affine argument")
        super().__post_init__()


# the nodes an affine expression is made of
_AFFINE_NODES = (Const, Var, Affine, Sum, Scale)


# ---------------------------------------------------------------------------
# the walk: the kernels, remap, subst and == read it, so a tree of any depth
# is walked without recursion and a shared node once


def postorder(roots) -> Iterator[Expr]:
    """Every node under ``roots`` once, children before parents, left to right."""
    seen: set[int] = set()
    for root in roots:
        if id(root) in seen:
            continue
        seen.add(id(root))
        stack = [(root, iter(root.children()))]  # each node with its unwalked children
        while stack:
            node, kids = stack[-1]
            for c in kids:
                if id(c) not in seen:
                    seen.add(id(c))
                    stack.append((c, iter(c.children())))
                    break
            else:
                stack.pop()
                yield node


def first_copies(order, tags: bool = False) -> dict[int, int]:
    """Node id -> id of the first node of ``order`` (a :func:`postorder`)
    with the same structure: the same type, fields and children (by their
    first copies), tags compared only with ``tags``.  Floats compare by
    their bits, so 0.0 and -0.0 stay apart."""
    first: dict[int, int] = {}
    seen: dict[tuple, int] = {}

    def key(v):
        if isinstance(v, Expr):
            return first[id(v)]
        if isinstance(v, tuple):
            return tuple(key(u) for u in v)
        return struct.pack("d", v) if isinstance(v, float) else v

    for node in order:
        names = [f.name for f in fields(node) if tags or f.name != "tag"]
        k = (type(node), *(key(getattr(node, name)) for name in names))
        first[id(node)] = seen.setdefault(k, id(node))
    return first


# ---------------------------------------------------------------------------
# constructors: every node carries its derived curvature tag; `.with_tag`
# overrides it

def _derived_tag(node: Expr) -> str:
    """Structural tag where one is forced; NONE elsewhere."""
    if node.is_affine():
        return AFFINE
    if isinstance(node, (Square, Exp)) and node.child.is_affine():
        return CONVEX
    if isinstance(node, Log) and node.child.is_affine():
        return CONCAVE
    if isinstance(node, IntPow) and node.child.is_affine() and node.k % 2 == 0:
        return CONVEX
    if isinstance(node, RealPow) and node.child.is_affine() and node.a >= 1.0:
        return CONVEX
    if isinstance(node, Sum):
        tags = [c.tag for c in node.parts]
        if all(t in (CONVEX, AFFINE) for t in tags):
            return CONVEX
        if all(t in (CONCAVE, AFFINE) for t in tags):
            return CONCAVE
    if isinstance(node, Scale):
        flip = {} if node.c >= 0 else {CONVEX: CONCAVE, CONCAVE: CONVEX}
        return flip.get(node.child.tag, node.child.tag)
    return NONE


def _finish(node: Expr) -> Expr:
    """``node``, just made, with its derived tag written in place."""
    object.__setattr__(node, "tag", _derived_tag(node))
    return node


def const(c: float) -> Expr:
    return Const(float(c))


def var(index: int) -> Expr:
    if index < 0:
        raise ValueError("variable index must be nonnegative")
    return Var(index)


def affine(terms, offset: float = 0.0) -> Expr:
    return Affine(tuple((int(i), float(c)) for i, c in terms), float(offset))


def add(*parts: Expr) -> Expr:
    return _finish(Sum(tuple(parts)))


def scale(child: Expr, c: float) -> Expr:
    return _finish(Scale(child, float(c)))


def neg(child: Expr) -> Expr:
    return scale(child, -1.0)


def square(child: Expr) -> Expr:
    return _finish(Square(child))


def ipow(child: Expr, k: int) -> Expr:
    """child ** k; an integral float k is stored as its int."""
    if not float(k).is_integer():
        raise ValueError(f"integer power requires an integral exponent, got {k!r}")
    return _finish(IntPow(child, int(k)))


def rpow(child: Expr, a: float) -> Expr:
    return _finish(RealPow(child, float(a)))


def exp(child: Expr) -> Expr:
    return _finish(Exp(child))


def log(child: Expr) -> Expr:
    return _finish(Log(child))


def sin(child: Expr) -> Expr:
    return _finish(Sin(child))


# ---------------------------------------------------------------------------
# kernels (compiled by saddlelift.kernels, imported on first evaluation)


def kink_error(node: RealPow) -> NondifferentiableError:
    """The error for a gradient requested at the kink of ``node``."""
    return NondifferentiableError(f"real power {node.a} not differentiable at 0", node)


def cached_tape(owner, outputs) -> Tape:
    """The tape of ``outputs`` kept on the frozen object ``owner``, made on
    first use; copies made with ``dataclasses.replace`` start without one."""
    tape = owner.__dict__.get("_tape")
    if tape is None:
        from .kernels import Tape  # the compiler is only needed to evaluate

        tape = Tape(outputs)
        object.__setattr__(owner, "_tape", tape)
    return tape


# ---------------------------------------------------------------------------
# module-level operations

def fd_gradient(e: Expr, point, step: float = 1e-5) -> np.ndarray:
    """Central finite differences; the independent oracle for value_grad."""
    p = np.asarray(point, dtype=float)
    g = np.zeros(p.size)
    for i in range(p.size):
        hi = p.copy()
        lo = p.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (e.value(hi) - e.value(lo)) / (2.0 * step)
    return g


@dataclass(frozen=True)
class CurvatureReport:
    tag: str
    passed: bool
    pairs_checked: int
    counterexample: tuple[np.ndarray, np.ndarray, float] | None = None


# unbounded ends of a sampling window are clipped to +-WINDOW_CLIP
WINDOW_CLIP = 10.0
# a blend inequality of the curvature audit may fail by this much
_BLEND_TOL = 1e-9


def sample_window(lower, upper):
    """Bounded per-axis sampling ranges for a possibly unbounded box.

    Unbounded ends are clipped to +-WINDOW_CLIP.  A half-line lying entirely
    outside the default window keeps a band of width 2*WINDOW_CLIP anchored
    at its finite end.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    lo = np.where(np.isfinite(lower), lower, -WINDOW_CLIP)
    hi = np.where(np.isfinite(upper), upper, WINDOW_CLIP)
    fix_lo = (lo > hi) & np.isfinite(lower)
    hi = np.where(fix_lo, lo + 2 * WINDOW_CLIP, hi)
    fix_hi = (lo > hi) & np.isfinite(upper)
    lo = np.where(fix_hi, hi - 2 * WINDOW_CLIP, lo)
    return lo, hi


def curvature_audit(
    e: Expr,
    lower,
    upper,
    tag: str | None = None,
    samples: int = 100,
    seed: int = 0,
    axes=None,
) -> CurvatureReport:
    """Empirical midpoint check of a declared curvature tag.

    Draws ``samples`` pairs (u, v) in the (clipped) box, varying only
    ``axes`` when given, and tests the blend inequality at t in
    {1/4, 1/2, 3/4}.  A pair with a NaN value (outside the domain) is
    skipped.  The first violated pair is returned as counterexample.
    """
    tag = e.tag if tag is None else tag
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if tag == NONE:
        return CurvatureReport(tag, True, 0)
    lo, hi = sample_window(lower, upper)
    dim = lo.size
    axes = list(range(dim)) if axes is None else list(axes)
    # one row per attempt: the base point, u's axes, v's axes, in the order
    # one attempt at a time would draw them
    lows, highs = (np.concatenate([b, b[axes], b[axes]]) for b in (lo, hi))
    rng = np.random.default_rng(seed)
    ts = (0.25, 0.5, 0.75)
    tcol = np.array(ts)[:, None]
    checked = 0
    # the first ``samples`` attempts suffice unless some pair is skipped;
    # the other 19 * samples are drawn from the same stream only then
    for attempts in (samples, 19 * samples):
        if checked == samples:
            break
        draws = rng.uniform(lows, highs, (attempts, lows.size))
        ur, vr = draws[:, :dim].copy(), draws[:, :dim].copy()
        ur[:, axes], vr[:, axes] = np.split(draws[:, dim:], 2, axis=1)
        pts = np.concatenate([ur, vr] + [t * ur + (1.0 - t) * vr for t in ts])
        values = e.value_batch(pts.T).reshape(5, -1)
        fu, fv, fm = values[0], values[1], values[2:]  # fm: (t, attempt)
        with np.errstate(all="ignore"):
            blend = tcol * fu + (1.0 - tcol) * fv
            if tag == CONVEX:
                bad = fm > blend + _BLEND_TOL
            elif tag == CONCAVE:
                bad = fm < blend - _BLEND_TOL
            else:
                bad = np.abs(fm - blend) > _BLEND_TOL
        # per attempt, the t values in order until the first NaN (a skip)
        # or the first violation; an attempt counts while fewer than
        # ``samples`` pairs are checked before it
        nan = np.isnan(fu) | np.isnan(fv) | np.isnan(fm)
        event = nan | bad
        first = event.argmax(axis=0)  # the t that ends an attempt's test, if any
        ok = ~event.any(axis=0)
        violated = ~ok & ~nan[first, np.arange(first.size)]
        before = checked + np.cumsum(ok) - ok
        hits = np.flatnonzero(violated & (before < samples))
        if hits.size:
            a = hits[0]
            return CurvatureReport(tag, False, int(before[a]), (ur[a], vr[a], ts[first[a]]))
        checked = min(samples, checked + int(ok.sum()))
    if checked == 0:
        raise DomainEvalError("no in-domain sample pairs found for audit", e)
    return CurvatureReport(tag, True, checked)


# ---------------------------------------------------------------------------
# text grammar:  (+ (sq (aff x0 1 0)) (neg z0))

# the one-child nodes written (word <child>), for the parser and the printer
_WORDS = {"sq": Square, "exp": Exp, "log": Log, "sin": Sin}


def _tokenize(text: str):
    tokens = []
    line, col = 1, 0
    word = ""
    word_pos = (1, 0)
    for ch in text:
        col += 1
        if ch == "\n":
            line += 1
            col = 0
        if ch in "()" or ch.isspace():
            if word:
                tokens.append((word, word_pos))
                word = ""
            if ch in "()":
                tokens.append((ch, (line, col)))
        else:
            if not word:
                word_pos = (line, col)
            word += ch
    if word:
        tokens.append((word, word_pos))
    return tokens


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def parse_sexpr(text: str, resolve: Callable[[str], int]) -> Expr:
    """Parse the textual expression grammar.

    ``resolve`` maps a variable name (``x0``, ``y2``, ``z1``) to its global
    index in the flat variable vector.
    """
    tokens = _tokenize(text)
    pos = 0

    def fail(msg, at):
        raise ParseError(msg, at[0], at[1])

    def need(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression", 1, len(text))
        tok, at = tokens[pos]
        pos += 1
        if kind is not None and tok != kind:
            fail(f"expected {kind!r}, found {tok!r}", at)
        return tok, at

    def number():
        tok, at = need()
        if not _is_number(tok):
            fail(f"expected a number, found {tok!r}", at)
        return float(tok)

    def expr():
        # a generator: it yields where it needs a subexpression and is sent
        # it, so the open forms wait on one explicit stack, not on frames
        nonlocal pos
        tok, at = need()
        if tok == ")":
            fail("unexpected ')'", at)
        if tok != "(":
            if _is_number(tok):
                return Const(float(tok))
            try:
                return Var(resolve(tok))
            except KeyError:
                fail(f"unknown variable {tok!r}", at)
        head, hat = need()
        if head == "const":
            node = Const(number())
        elif head == "aff":
            items = []
            while pos < len(tokens) and tokens[pos][0] != ")":
                items.append(need())
            if len(items) % 2 != 1:
                fail("aff expects var/coeff pairs plus a trailing offset", hat)
            terms = []
            for vtok, ctok in zip(items[:-1:2], items[1::2]):
                name, nat = vtok
                if not _is_number(ctok[0]):
                    fail(f"expected coefficient, found {ctok[0]!r}", ctok[1])
                try:
                    terms.append((resolve(name), float(ctok[0])))
                except KeyError:
                    fail(f"unknown variable {name!r}", nat)
            if not _is_number(items[-1][0]):
                fail(f"expected offset, found {items[-1][0]!r}", items[-1][1])
            node = Affine(tuple(terms), float(items[-1][0]))
        elif head == "+":
            parts = []
            while pos < len(tokens) and tokens[pos][0] != ")":
                parts.append((yield))
            node = add(*parts)
        elif head == "*":
            c = number()
            node = scale((yield), c)
        elif head == "neg":
            node = neg((yield))
        elif head in _WORDS:
            node = _finish(_WORDS[head]((yield)))
        elif head == "pow":
            child = yield
            k = number()
            if not k.is_integer():
                tok, kat = tokens[pos - 1]
                fail(f"expected an integer exponent, found {tok!r}", kat)
            node = ipow(child, k)
        elif head == "rpow":
            child = yield
            node = rpow(child, number())
        elif head == "tag":
            tok, tat = need()
            if tok not in _TAGS:
                fail(f"unknown curvature tag {tok!r}", tat)
            node = (yield).with_tag(tok)
        else:
            fail(f"unknown operator {head!r}", hat)
        need(")")
        return node

    stack, node = [expr()], None
    while stack:
        try:
            stack[-1].send(node)  # yielded: the form waits for a subexpression
            stack.append(expr())
            node = None
        except StopIteration as done:
            stack.pop()
            node = done.value
    if pos != len(tokens):
        fail("trailing tokens after expression", tokens[pos][1])
    return node


def _num(v: float) -> str:
    return repr(float(v))


def _spelling(node: Expr, name_of) -> list:
    """The text of ``node`` as pieces of text and child nodes, in reading order."""
    if isinstance(node, Const):
        return [_num(node.c)]
    if isinstance(node, Var):
        return [name_of(node.index)]
    if isinstance(node, Affine):
        bits = [b for i, c in node.terms for b in (name_of(i), _num(c))]
        return ["(aff " + " ".join([*bits, _num(node.offset)]) + ")"]
    if isinstance(node, Sum):  # the parts one space apart
        return ["(+ ", *[b for c in node.parts for b in (" ", c)][1:], ")"]
    if isinstance(node, Scale):
        return ["(neg " if node.c == -1.0 else f"(* {_num(node.c)} ", node.child, ")"]
    if isinstance(node, IntPow):
        return ["(pow ", node.child, f" {node.k})"]
    if isinstance(node, RealPow):
        return ["(rpow ", node.child, f" {_num(node.a)})"]
    for word, kind in _WORDS.items():
        if isinstance(node, kind):
            return [f"({word} ", node.child, ")"]
    raise TypeError(f"unknown node {type(node).__name__}")


def _pieces(e: Expr, name_of) -> Iterator[str]:
    """The grammar text of ``e`` piece by piece, in reading order, from a
    stack of the pieces and nodes still to write (no recursion)."""
    todo: list[Expr | str] = [e]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            yield item
            continue
        items = _spelling(item, name_of)
        if item.tag != _derived_tag(item):
            items = [f"(tag {item.tag} ", *items, ")"]
        todo.extend(reversed(items))


def to_sexpr(e: Expr, name_of: Callable[[int], str]) -> str:
    """Serialize to the text grammar; inverse of :func:`parse_sexpr`."""
    return "".join(_pieces(e, name_of))
