"""Process-boundary picklability checker.

The suite orchestrator ships its shards to ``ProcessPoolExecutor`` workers,
so everything that crosses the boundary — the submitted callable and every
object reachable from a pickled payload — must be picklable.  A lambda, a
closure, a ``threading.Lock`` or an open file handle in that payload fails
at runtime, in a worker, with a stack trace pointing at the pool rather than
the offending line.  These rules catch the static cases at lint time.

Rules:

``pickle-submit``
    A lambda or a locally-defined (nested, hence unpicklable) function passed
    as the callable of ``.submit(...)``/``.map(...)``, or as an
    ``initializer=`` keyword, in a module that imports
    ``ProcessPoolExecutor``.  Worker entry points must be module-level
    functions.
``pickle-spec``
    The argument subtree of a ``pickle.dumps(...)`` call contains something
    statically unpicklable: a lambda, a ``threading.Lock``/``RLock``/
    ``Condition``/``Semaphore``/``Event``/``Thread`` constructor, or an
    ``open(...)`` call.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Checker, Finding, SourceFile, call_name, register

_POOL_METHODS = {"submit", "map"}
_UNPICKLABLE_FACTORIES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
    "Barrier", "Thread",
}


def _imports_process_pool(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "ProcessPoolExecutor" for alias in node.names
        ):
            return True
        if isinstance(node, ast.Import) and any(
            alias.name in ("concurrent.futures", "multiprocessing")
            for alias in node.names
        ):
            return True
    return False


def _nested_function_names(tree: ast.Module) -> set[str]:
    """Names of functions defined inside another function (closures)."""
    nested: set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, inside_function=True)
            else:
                visit(child, inside_function)

    visit(tree, inside_function=False)
    return nested


@register
class PicklabilityChecker(Checker):
    name = "picklability"
    description = (
        "callables and worker specs that cross the ProcessPoolExecutor "
        "boundary must be statically picklable"
    )
    rules = ("pickle-submit", "pickle-spec")

    def check(self, tree: ast.Module, source: SourceFile) -> Iterator[Finding]:
        pool_module = _imports_process_pool(tree)
        nested = _nested_function_names(tree) if pool_module else set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if pool_module:
                yield from self._check_submit(node, nested, source)
            if call_name(node) == "pickle.dumps":
                for arg in node.args:
                    yield from self._check_spec(arg, source)

    def _check_submit(
        self, node: ast.Call, nested: set[str], source: SourceFile
    ) -> Iterator[Finding]:
        candidates: list[ast.expr] = []
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _POOL_METHODS
            and node.args
        ):
            candidates.append(node.args[0])
        candidates.extend(
            keyword.value
            for keyword in node.keywords
            if keyword.arg == "initializer"
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Lambda):
                yield self._finding(
                    "pickle-submit", candidate, source,
                    "lambda shipped to a worker pool: lambdas cannot be "
                    "pickled across the process boundary; use a module-level "
                    "function",
                )
            elif isinstance(candidate, ast.Name) and candidate.id in nested:
                yield self._finding(
                    "pickle-submit", candidate, source,
                    f"nested function '{candidate.id}' shipped to a worker "
                    "pool: closures cannot be pickled across the process "
                    "boundary; hoist it to module level",
                )

    def _check_spec(self, arg: ast.expr, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Lambda):
                yield self._finding(
                    "pickle-spec", node, source,
                    "lambda inside a pickled worker spec: it will fail to "
                    "pickle at runtime",
                )
            elif isinstance(node, ast.Call):
                dotted = call_name(node)
                tail = dotted.rsplit(".", maxsplit=1)[-1]
                if tail in _UNPICKLABLE_FACTORIES:
                    yield self._finding(
                        "pickle-spec", node, source,
                        f"'{dotted}()' inside a pickled worker spec: locks, "
                        "threads and synchronization primitives cannot cross "
                        "the process boundary",
                    )
                elif dotted == "open" or tail == "open":
                    yield self._finding(
                        "pickle-spec", node, source,
                        "open file handle inside a pickled worker spec: ship "
                        "the path and reopen in the worker",
                    )

    @staticmethod
    def _finding(
        rule: str, node: ast.AST, source: SourceFile, message: str
    ) -> Finding:
        return Finding(
            rule=rule,
            message=message,
            path=source.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
        )
