"""The reference kernel: a fixed piece of work that measures the host's speed.

The benchmark's host is a VM whose cores other tenants share.  Its speed
changes in phases lasting seconds: a fixed loop takes about 19 ms in a fast
phase and 27 ms in a slow one, and the solver's operations slow down with
it.  A run that falls mostly into slow phases reads 40 % slower than one
that does not, whatever statistic it reports, and the share of slow phases
drifts over minutes.  So run.py times this kernel between segments of the
workload and reports each operation's time as a multiple of the kernel's
time measured around it (unit ``ref``).  The kernel imports nothing from
saddlelift, so a change to the program does not change the unit.

Its parts follow the program's mix: scalar float arithmetic in a Python
loop, a recursive walk over a tree of small Python objects (like
``Expr.value`` over an expression tree, with a working set of about
3.5 MB), and numpy reductions over arrays (like ``Expr.value_batch``).  One
call takes 17 to 27 ms on that VM.
"""

from __future__ import annotations

import random
import time

import numpy as np

LOOP_N = 80_000
TREE_DEPTH = 12  # 8191 nodes per tree
TREES = 6
ARRAY_N = 100_000
ARRAY_REPEATS = 2


class _Node:
    __slots__ = ("op", "a", "b", "leaf")

    def __init__(self, op, a=None, b=None, leaf=0):
        self.op, self.a, self.b, self.leaf = op, a, b, leaf

    def value(self, x):
        op = self.op
        if op == 0:
            return x[self.leaf]
        if op == 1:
            return self.a.value(x) + self.b.value(x)
        if op == 2:
            return self.a.value(x) * self.b.value(x)
        return max(self.a.value(x), self.b.value(x))


def _tree(depth: int, rng: random.Random) -> _Node:
    if depth == 0:
        return _Node(0, leaf=rng.randrange(8))
    return _Node(rng.randrange(1, 4), _tree(depth - 1, rng), _tree(depth - 1, rng))


class Reference:
    """Builds the kernel's inputs once; ``time()`` runs the kernel once,
    records its seconds in ``timings`` and returns them."""

    def __init__(self):
        rng = random.Random(0)
        self.trees = [_tree(TREE_DEPTH, rng) for _ in range(TREES)]
        self.x = [0.05 * i for i in range(8)]
        self.arrays = np.random.default_rng(0).random((4, ARRAY_N))
        self.checksum = self.run()
        self.timings: list[float] = []
    def run(self) -> float:
        s = 0.0
        for i in range(LOOP_N):
            s += (i * 0.5) % 7.0
        for tree in self.trees:
            s += tree.value(self.x)
        a, b, c, d = self.arrays
        for _ in range(ARRAY_REPEATS):
            s += float(np.sum(np.maximum(a * b, c - d)))
        return s

    def time(self) -> float:
        t = time.perf_counter()
        s = self.run()
        dt = time.perf_counter() - t
        if s != self.checksum:
            raise RuntimeError("the reference kernel's result changed")
        self.timings.append(dt)
        return dt
