"""Determinism rules (RPL001-RPL006).

The paper's superposition trick — and every layer built since — depends
on node trajectories being **bitwise deterministic**: the distributed
scheduler asserts byte-equality between batched and per-node marches
(PR 3), retried batches after a worker SIGKILL must be bit-identical to
never-failed ones (PR 8), the ROM tier splices full-order reruns back
into sweeps on the promise that a rerun reproduces the original run
exactly (PR 7), and ``repro serve`` audits agreement between daemons by
comparing SHA-256 state digests.  Anything that injects wall-clock
time, OS entropy, hidden global RNG state or unordered-container
iteration into a numeric path silently voids all of that.  So does a
second factorisation call site: the column ordering decides the order
every substitution accumulates in, and it has one owner.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.lint.core import Rule, register

WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
})

#: numpy module-level samplers draw from the hidden global RandomState.
GLOBAL_SAMPLERS = frozenset(
    "numpy.random." + name for name in (
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "uniform", "normal", "standard_normal", "choice",
        "shuffle", "permutation", "bytes",
    )
) | frozenset({
    "random.random", "random.randint", "random.uniform",
    "random.choice", "random.shuffle", "random.sample",
    "random.getrandbits",
})

SEED_CALLS = frozenset({"numpy.random.seed", "random.seed"})

FACTOR_CALLS = frozenset({
    "scipy.sparse.linalg.splu",
    "scipy.sparse.linalg.spilu",
})

#: The one module allowed to call SuperLU directly.
FACTOR_OWNER = ("repro", "linalg", "lu.py")

#: Accumulators whose result depends on operand order in float arithmetic.
ACCUM_CALLS = frozenset({
    "sum", "math.fsum", "numpy.sum", "numpy.prod", "numpy.dot",
    "numpy.cumsum",
})


@register
class WallClockEntropy(Rule):
    code = "RPL001"
    name = "wall-clock-entropy"
    summary = ("time.time()/datetime.now()/os.urandom in library code — "
               "results must be a pure function of their inputs")
    invariant = ("bitwise-deterministic kernels: identical inputs yield "
                 "byte-identical trajectories")
    established = "PR 5/6"
    library_only = True

    def check_file(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qn = ctx.call_name(node)
            if qn in WALL_CLOCK_CALLS:
                yield ctx.finding(
                    self, node,
                    f"{qn}() injects wall-clock/OS entropy into library "
                    f"code; results must be a pure function of inputs "
                    f"(time.perf_counter() is fine for *measuring* wall "
                    f"time)",
                )


@register
class UnseededRng(Rule):
    code = "RPL002"
    name = "unseeded-rng"
    summary = ("unseeded np.random.default_rng() or module-level "
               "numpy.random samplers (hidden global state)")
    invariant = ("every random draw is reproducible from an explicit "
                 "seed (scenario sweeps pin PCG64 values cross-platform)")
    established = "PR 5"

    def check_file(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qn = ctx.call_name(node)
            if qn == "numpy.random.default_rng":
                seeded = bool(node.args) or any(
                    kw.arg == "seed" for kw in node.keywords
                )
                if not seeded:
                    yield ctx.finding(
                        self, node,
                        "default_rng() without a seed is a fresh OS-"
                        "entropy stream; pass an explicit seed",
                    )
            elif qn in GLOBAL_SAMPLERS:
                yield ctx.finding(
                    self, node,
                    f"{qn}() draws from the hidden module-level RNG; "
                    f"use an explicitly seeded np.random.default_rng "
                    f"generator instead",
                )


@register
class GlobalSeed(Rule):
    code = "RPL003"
    name = "global-rng-seed"
    summary = "global np.random.seed()/random.seed() calls"
    invariant = ("no process-wide RNG state: seeding globally leaks "
                 "determinism assumptions across modules and tests")
    established = "PR 5"

    def check_file(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qn = ctx.call_name(node)
            if qn in SEED_CALLS:
                yield ctx.finding(
                    self, node,
                    f"{qn}() mutates process-wide RNG state; construct "
                    f"a local np.random.default_rng(seed) instead",
                )


def _scope_bodies(tree):
    """Yield (body_statements,) per scope: module + each function."""
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


def _walk_scope(stmts):
    """Walk statements without descending into nested function scopes."""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def _is_set_expr(node, set_names) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    return False


def _accumulates(body) -> bool:
    for stmt in body:
        for node in _walk_scope([stmt]):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return True
    return False


@register
class SetIterationAccumulation(Rule):
    code = "RPL004"
    name = "set-order-accumulation"
    summary = ("numeric accumulation over set/frozenset iteration "
               "(undefined order x float non-associativity)")
    invariant = ("iteration feeding float arithmetic is always over a "
                 "deterministically ordered sequence")
    established = "PR 3"

    def check_file(self, ctx):
        for stmts in _scope_bodies(ctx.tree):
            set_names: set[str] = set()
            # First pass, in order: names assigned from set expressions.
            for node in _walk_scope(stmts):
                if isinstance(node, ast.Assign):
                    if _is_set_expr(node.value, set_names):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                set_names.add(target.id)
            for node in _walk_scope(stmts):
                if isinstance(node, ast.For) and _is_set_expr(
                    node.iter, set_names
                ):
                    if _accumulates(node.body):
                        yield ctx.finding(
                            self, node,
                            "accumulating over set iteration: set order "
                            "is undefined and float addition is not "
                            "associative — iterate sorted(...) instead",
                        )
                elif isinstance(node, ast.Call):
                    qn = ctx.call_name(node)
                    if qn not in ACCUM_CALLS or not node.args:
                        continue
                    arg = node.args[0]
                    direct = _is_set_expr(arg, set_names)
                    via_comp = (
                        isinstance(
                            arg,
                            (ast.GeneratorExp, ast.ListComp, ast.SetComp),
                        )
                        and arg.generators
                        and _is_set_expr(arg.generators[0].iter, set_names)
                    )
                    if direct or via_comp:
                        yield ctx.finding(
                            self, node,
                            f"{qn}() over a set: reduction order is "
                            f"undefined — sort the operands first",
                        )


def _is_floatish(node) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        return _is_floatish(node.operand)
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"):
        return True
    return False


@register
class FloatEquality(Rule):
    code = "RPL005"
    name = "float-equality"
    summary = ("== / != against float values in library code (exact "
               "sentinels need an explicit justification)")
    invariant = ("float comparisons in library logic are either "
                 "tolerance-based or documented exact sentinels — in "
                 "tests, exact equality is the *assertion idiom* of a "
                 "bitwise-deterministic suite, so tests are exempt")
    established = "PR 5/6"
    library_only = True

    def check_file(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                continue
            operands = [node.left, *node.comparators]
            if any(_is_floatish(o) for o in operands):
                yield ctx.finding(
                    self, node,
                    "exact float ==/!= in library code: if this is a "
                    "deliberate exact sentinel (breakdown beta, "
                    "untouched scale factor), suppress with a written "
                    "justification; otherwise compare with a tolerance",
                )


@register
class DirectSparseFactorization(Rule):
    code = "RPL006"
    name = "direct-sparse-factorization"
    summary = ("scipy.sparse.linalg.splu/spilu outside repro.linalg.lu "
               "— SparseLU owns the ordering, the kernels and the "
               "substitution accounting")
    invariant = ("one factorisation call site: the fill-reducing "
                 "ordering (hence every substitution's bits and cost), "
                 "the factor cache and the pair counters cannot be "
                 "bypassed")
    established = "PR 19"
    library_only = True

    def check_file(self, ctx):
        if Path(ctx.path).parts[-3:] == FACTOR_OWNER:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qn = ctx.call_name(node)
            if qn in FACTOR_CALLS:
                yield ctx.finding(
                    self, node,
                    f"{qn}() bypasses repro.linalg.lu.SparseLU (its "
                    f"fill-reducing ordering, exported kernels and "
                    f"solve counters); factor through SparseLU or "
                    f"FACTORIZATION_CACHE.factor",
                )
