"""The repo-specific rule catalogue.

Each rule encodes an invariant that an earlier PR established by hand:
the ``invariant`` attribute says what the contract is and which failure
class it guards against, so a finding is reviewable without archaeology.
Scopes and exemption allowlists are part of the rule definition — an
exemption without a written reason does not exist.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.reprolint.dataflow import function_scopes, get_dataflow, scope_nodes
from tools.reprolint.engine import Finding, LintContext, Rule, register_rule
from tools.reprolint.ownership import (
    base_key,
    get_ownership,
    mutated_param_summaries,
    param_root,
)
from tools.reprolint.shapes import (
    KNOWN_DTYPES,
    dtype_token,
    extract_contracts,
    infer_dtype,
    infer_shape,
)

__all__ = []  # rules register themselves; nothing here is a public API

#: Name fragments that mark a value as distance-carrying (shared by the
#: float-distance-eq and dtype-discipline rules).
_DISTANCE_NAME = re.compile(
    r"(^|_)(dist|dists|distance|distances|dt|dg|dh|radius|radii|"
    r"beta|betas|stretch|weight|weights)($|_)"
)


# -- shared AST helpers --------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``np.random.default_rng`` -> that string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last identifier of a Name/Attribute chain (or None)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def keyword_value(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def is_const(node: ast.AST | None, value) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


# -- R1: centralized RNG construction ------------------------------------------


@register_rule
class RngSourceRule(Rule):
    name = "rng-source"
    summary = "np.random construction only in repro.util.rng"
    invariant = (
        "All generator construction/seeding goes through repro.util.rng "
        "(as_rng / spawn_rngs / split_seed).  Scattered default_rng() calls "
        "made the serial-vs-batched parity guarantee unauditable; the spawn "
        "idiom (SeedSequence vs legacy int64 draws) is pinned in exactly one "
        "module."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {
        "src/repro/util/rng.py": "the one sanctioned construction site",
    }

    _FORBIDDEN_PREFIXES = ("np.random.", "numpy.random.")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name and name.startswith(self._FORBIDDEN_PREFIXES):
                    yield ctx.finding(
                        node, self,
                        f"call to {name}() — construct generators via "
                        "repro.util.rng (as_rng/spawn_rngs/split_seed)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith("numpy.random"):
                    yield ctx.finding(
                        node, self,
                        "import from numpy.random — route RNG construction "
                        "through repro.util.rng instead",
                    )


# -- R2: explicit parameters must not consume RNG state ------------------------


@register_rule
class RngParamDrawRule(Rule):
    name = "rng-param-draw"
    summary = "draws for overridable quantities must sit under `param is None`"
    invariant = (
        "A function that accepts both an rng and an explicit override for a "
        "sampled quantity (rank/ranks, beta/betas) must only draw that "
        "quantity when the override is None.  Drawing unconditionally "
        "silently advances the stream and breaks replay: passing the "
        "recorded rank back in must reproduce the exact tree (the PR-1 "
        "_draw_randomness regression class)."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {}

    #: override parameter name -> generator methods that sample it
    _PARAM_DRAWS = {
        "rank": ("permutation",),
        "ranks": ("permutation",),
        "beta": ("uniform",),
        "betas": ("uniform",),
    }

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            names = [a.arg for a in args.args + args.kwonlyargs + args.posonlyargs]
            if "rng" not in names:
                continue
            overrides = [p for p in names if p in self._PARAM_DRAWS]
            if not overrides:
                continue
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                attr = (call.func.attr
                        if isinstance(call.func, ast.Attribute) else None)
                for param in overrides:
                    if attr in self._PARAM_DRAWS[param]:
                        if not self._guarded(ctx, call, param, fn):
                            yield ctx.finding(
                                call, self,
                                f"'{attr}' draw not guarded by "
                                f"'{param} is None' — an explicitly passed "
                                f"{param} must not consume RNG state",
                            )

    @staticmethod
    def _is_none_test(test: ast.expr, param: str) -> str | None:
        """'is' if test is `param is None`, 'isnot' for `is not None`."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.left, ast.Name) and test.left.id == param
                and is_const(test.comparators[0], None)):
            if isinstance(test.ops[0], ast.Is):
                return "is"
            if isinstance(test.ops[0], ast.IsNot):
                return "isnot"
        return None

    def _guarded(self, ctx: LintContext, call: ast.Call, param: str,
                 fn: ast.AST) -> bool:
        node: ast.AST = call
        for anc in ctx.ancestors(call):
            if isinstance(anc, (ast.If, ast.IfExp)):
                kind = self._is_none_test(anc.test, param)
                if kind is not None:
                    if isinstance(anc, ast.IfExp):
                        in_body = node is anc.body
                    else:
                        in_body = any(node is s or self._contains(s, node)
                                      for s in anc.body)
                    if (kind == "is") == in_body:
                        return True
            if anc is fn:
                break
            node = anc
        return False

    @staticmethod
    def _contains(tree: ast.AST, target: ast.AST) -> bool:
        return any(n is target for n in ast.walk(tree))


# -- R3: fixpoint iteration caps -----------------------------------------------


@register_rule
class FixpointCapRule(Rule):
    name = "fixpoint-cap"
    summary = "iteration caps thread through run_to_fixpoint, not bare range()"
    invariant = (
        "Fixpoint iteration is capped via the engine API "
        "(run_to_fixpoint/run_dense_batched max_iterations=...), which raises "
        "ConvergenceError on exhaustion.  A hand-rolled `for _ in "
        "range(cap)` silently truncates: non-converged LE lists looked "
        "converged and poisoned every downstream tree."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {
        "src/repro/mbf/engine.py": "implements the capped loop itself",
        "src/repro/mbf/dense.py": "implements the capped loop itself",
        "src/repro/mbf/scalar.py": "implements the capped loop itself",
        "src/repro/oracle/oracle.py": "owns the h-hop cap semantics",
    }

    _CAP_NAME = re.compile(r"(max_?iter|iter_?cap|n_?iter|max_?rounds?|^cap$)")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            it = node.iter
            if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id == "range"):
                continue
            for sub in ast.walk(it):
                name = None
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                if name and self._CAP_NAME.search(name.lower()):
                    yield ctx.finding(
                        node, self,
                        f"bare `for ... in range({name}...)` fixpoint loop — "
                        "pass max_iterations through run_to_fixpoint/run_dense_batched "
                        "so exhaustion raises instead of truncating",
                    )
                    break


# -- R4: quadratic transients --------------------------------------------------


@register_rule
class QuadraticTransientRule(Rule):
    name = "quadratic-transient"
    summary = "no O(n^2) scratch allocations outside repro.util.pairs"
    invariant = (
        "Pair enumeration and distinct sampling go through repro.util.pairs "
        "(all_pairs / unrank_pairs / sample_distinct), which bound peak "
        "memory.  np.triu_indices builds an (n, n) boolean mask, "
        "Generator.choice(replace=False) materializes a full permutation, "
        "and same-name (n, n) zeros/empty allocations are the exact "
        "transients that OOM'd the n=20k stretch runs."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {
        "src/repro/util/pairs.py": "the sanctioned bounded implementation",
        "src/repro/mbf/zoo.py": (
            "all-pairs problem decoders: the (n, n) distance map *is* the "
            "declared output, not a transient"
        ),
    }

    _ALLOC_FNS = {"zeros", "empty", "ones", "full"}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            attr = terminal_name(node.func)
            if attr == "triu_indices":
                yield ctx.finding(
                    node, self,
                    "np.triu_indices materializes an (n, n) mask — use "
                    "repro.util.pairs.all_pairs (same arrays, blocked)",
                )
            elif attr == "choice":
                replace = keyword_value(node, "replace")
                if is_const(replace, False):
                    yield ctx.finding(
                        node, self,
                        "Generator.choice(replace=False) builds a full "
                        "permutation — use repro.util.pairs.sample_distinct "
                        "(Floyd sampling, O(count) memory)",
                    )
            elif name.split(".")[-1] in self._ALLOC_FNS and node.args:
                shape = node.args[0]
                if (isinstance(shape, ast.Tuple) and len(shape.elts) == 2
                        and all(isinstance(e, ast.Name) for e in shape.elts)
                        and shape.elts[0].id == shape.elts[1].id):
                    n = shape.elts[0].id
                    yield ctx.finding(
                        node, self,
                        f"({n}, {n}) materialization — chunk the pair axis "
                        "(cf. FRTForest.distances) or suppress with the "
                        "reason it is output-sized",
                    )


# -- R5: float equality on distances -------------------------------------------


@register_rule
class FloatDistanceEqRule(Rule):
    name = "float-distance-eq"
    summary = "no ==/!= on distance-like floats outside parity-pinned tests"
    invariant = (
        "Distances, radii, and betas are floats produced by different "
        "summation orders across engines; exact equality only holds on the "
        "bit-identical parity paths, which live in tests.  Library code "
        "compares with tolerances — or carries a suppression explaining why "
        "bit-identity is guaranteed at that site."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {}

    _DISTANCE = _DISTANCE_NAME
    _SIZE_ATTRS = {"shape", "size", "ndim", "dtype"}
    _INF_NAMES = {"inf", "INF", "infty"}

    def _unwrap(self, node: ast.expr) -> ast.expr:
        # float(x) / np.float64(x) wrappers don't change what is compared.
        if (isinstance(node, ast.Call) and len(node.args) == 1
                and terminal_name(node.func) in {"float", "float64"}):
            return self._unwrap(node.args[0])
        return node

    def _is_distance_like(self, node: ast.expr) -> bool:
        node = self._unwrap(node)
        if isinstance(node, ast.Subscript):
            node = node.value
        name = terminal_name(node)
        if name is None or name in self._SIZE_ATTRS:
            return False
        if isinstance(node, ast.Attribute) and node.attr in self._SIZE_ATTRS:
            return False
        return bool(self._DISTANCE.search(name.lower()))

    def _is_exact_sentinel(self, node: ast.expr) -> bool:
        node = self._unwrap(node)
        name = terminal_name(node)
        if name in self._INF_NAMES:
            return True
        # Comparisons against integral constants (0, 1.0, -1 sentinels) are
        # well-defined for IEEE floats *assigned* from those constants.
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            v = node.value
            return isinstance(v, bool) or v == int(v)
        return False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_exact_sentinel(left) or self._is_exact_sentinel(right):
                    continue
                if self._is_distance_like(left) or self._is_distance_like(right):
                    yield ctx.finding(
                        node, self,
                        "float ==/!= on a distance-like value — use "
                        "np.isclose/tolerances, or suppress with the "
                        "bit-identity argument",
                    )
                    break


# -- R6: engines declare families ----------------------------------------------


@register_rule
class EngineFamiliesRule(Rule):
    name = "engine-declares-families"
    summary = "MBFEngine(solve=...) must also declare families=..."
    invariant = (
        "Capability-based auto-selection (engines_for/resolve_engine) keys "
        "on the declared families frozenset; an engine registered with a "
        "solve hook but no families is invisible to selection and only "
        "reachable by exact name — the silent-fallback bug PR 3 fixed."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) != "MBFEngine":
                continue
            solve = keyword_value(node, "solve")
            if solve is None or is_const(solve, None):
                continue
            families = keyword_value(node, "families")
            if families is None or is_const(families, None):
                yield ctx.finding(
                    node, self,
                    "MBFEngine constructed with solve= but no families= — "
                    "undeclared engines are invisible to capability-based "
                    "selection",
                )


# -- R7: __all__ integrity -----------------------------------------------------


@register_rule
class DunderAllRule(Rule):
    name = "public-api-all"
    summary = "__all__ exists, is resolvable, and covers public defs"
    invariant = (
        "Every library module declares __all__; each entry resolves to a "
        "name the module actually binds, and every public top-level "
        "def/class appears in it.  A missing entry made "
        "distance_to_set_via_oracle invisible to star-imports and to the "
        "API docs."
    )
    scope = ("src", "tools")
    exempt = {
        "tools/reprolint/rules.py": (
            "rules register themselves via the decorator; the registry, "
            "not the module namespace, is the public surface"
        ),
    }

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        body = getattr(ctx.tree, "body", [])
        all_node: ast.AST | None = None
        all_entries: list[str] | None = None
        defined: set[str] = set()
        has_star = False
        has_getattr = False
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                if stmt.name == "__getattr__":
                    has_getattr = True
            elif isinstance(stmt, ast.Assign):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        defined.add(tgt.id)
                        if tgt.id == "__all__":
                            all_node = stmt
                            all_entries = self._literal_entries(stmt.value)
                    elif isinstance(tgt, (ast.Tuple, ast.List)):
                        for e in tgt.elts:
                            if isinstance(e, ast.Name):
                                defined.add(e.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                defined.add(stmt.target.id)
            elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
                if stmt.target.id == "__all__" and all_entries is not None:
                    extra = self._literal_entries(stmt.value)
                    if extra is not None:
                        all_entries.extend(extra)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    defined.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        has_star = True
                    else:
                        defined.add(alias.asname or alias.name)
                        if (alias.asname or alias.name) == "__all__":
                            all_node = stmt
                            all_entries = []  # imported wholesale; unresolvable
                            has_star = True  # treat entries as unknown
            elif isinstance(stmt, (ast.If, ast.Try)):
                # Conditional defs (TYPE_CHECKING, optional deps) count.
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef)):
                        defined.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for tgt in sub.targets:
                            if isinstance(tgt, ast.Name):
                                defined.add(tgt.id)
                    elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            if alias.name == "*":
                                has_star = True
                            else:
                                defined.add(
                                    (alias.asname or alias.name).split(".")[0])

        if all_node is None:
            yield ctx.finding(
                1, self,
                "module defines no __all__ — declare the public surface "
                "explicitly",
            )
            return
        if all_entries is None:
            # Computed __all__ (comprehension etc.): can't check statically.
            return
        if not has_star and not has_getattr:
            for entry in all_entries:
                if entry not in defined:
                    yield ctx.finding(
                        all_node, self,
                        f"__all__ lists {entry!r} but the module never binds "
                        "it",
                    )
        public_defs = {
            stmt.name
            for stmt in body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not stmt.name.startswith("_")
        }
        exported = set(all_entries)
        for name in sorted(public_defs - exported):
            stmt = next(s for s in body
                        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.ClassDef)) and s.name == name)
            yield ctx.finding(
                stmt, self,
                f"public {'class' if isinstance(stmt, ast.ClassDef) else 'function'} "
                f"{name!r} missing from __all__ (prefix with _ if internal)",
            )

    @staticmethod
    def _literal_entries(value: ast.expr) -> list[str] | None:
        if isinstance(value, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in value.elts
        ):
            return [e.value for e in value.elts]
        return None


# -- R8: mutable default arguments ---------------------------------------------


@register_rule
class MutableDefaultRule(Rule):
    name = "mutable-default-arg"
    summary = "no list/dict/set literals as parameter defaults"
    invariant = (
        "Mutable defaults are evaluated once and shared across calls; for "
        "config-carrying pipeline functions that means cross-call state "
        "leakage.  Use None + in-body construction."
    )

    _CTOR_NAMES = {"list", "dict", "set"}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(fn.args.defaults) + [
                d for d in fn.args.kw_defaults if d is not None
            ]
            for d in defaults:
                mutable = isinstance(d, (ast.List, ast.Dict, ast.Set, ast.SetComp,
                                         ast.ListComp, ast.DictComp))
                if (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                        and d.func.id in self._CTOR_NAMES):
                    mutable = True
                if mutable:
                    yield ctx.finding(
                        d, self,
                        f"mutable default argument in {fn.name}() — default "
                        "to None and construct inside the body",
                    )


# -- R9: bare except -----------------------------------------------------------


@register_rule
class BareExceptRule(Rule):
    name = "bare-except"
    summary = "no bare `except:` clauses"
    invariant = (
        "A bare except swallows KeyboardInterrupt/SystemExit and masks "
        "ConvergenceError, the pipeline's primary failure signal.  Catch "
        "the narrowest exception that the recovery actually handles."
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    node, self,
                    "bare `except:` — name the exception type (it also "
                    "catches KeyboardInterrupt/SystemExit)",
                )


# -- shared dataflow/contract helpers (flow-aware rules, PR 7) -----------------

_SIMPLE_KEY_RE = re.compile(r"^(?:param|name):([A-Za-z_][A-Za-z0-9_.]*)$")


def _alias_tail(key: str | None) -> str | None:
    """Trailing identifier of a simple ``param:``/``name:`` value key."""
    m = _SIMPLE_KEY_RE.match(key or "")
    return m.group(1).rsplit(".", 1)[-1] if m else None


def _map_call_args(fn: ast.AST, call: ast.Call) -> Iterator[tuple[str, ast.expr]]:
    """``(parameter name, argument expression)`` pairs for a resolved call."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    yield from zip(params, call.args)
    named = set(params) | {a.arg for a in fn.args.kwonlyargs}
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in named:
            yield kw.arg, kw.value


def _resolved_callee(project, mod, call: ast.Call):
    """``(qualified name, FunctionDef)`` of a project-local callee, or None.

    Functions whose first parameter is self/cls are skipped: positional
    mapping across bound/unbound method calls is not reliable statically.
    """
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    qual = project.resolve(mod, dotted)
    if qual is None:
        return None
    hit = project.lookup_function(qual)
    if hit is None:
        return None
    _, fn = hit
    pos = fn.args.posonlyargs + fn.args.args
    if pos and pos[0].arg in ("self", "cls"):
        return None
    return qual, fn


def _callee_contracts(project, qual: str, fn: ast.AST):
    """Contract set of a project function, cached on the Project instance."""
    cache = getattr(project, "_contract_cache", None)
    if cache is None:
        cache = {}
        project._contract_cache = cache
    cs = cache.get(qual)
    if cs is None:
        info, _ = project.lookup_function(qual)
        cs = extract_contracts(info, fn)
        cache[qual] = cs
    return cs


def _contract_dims_env(ctx: LintContext, scope: ast.AST) -> dict[str, tuple[str, ...]]:
    """Parameter → declared dims, for seeding shape inference in a caller."""
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return {}
    cs = extract_contracts(ctx, scope)
    return {
        name: c.dims
        for name, c in cs.params.items()
        if c.kind == "array" and c.dims is not None
    }


def _dim_int(dim: str) -> int | None:
    """A symbolic dimension as a concrete int, when it is one."""
    if dim.startswith("const:"):
        dim = dim[len("const:"):]
    try:
        return int(dim)
    except ValueError:
        return None


def _dtype_family(tok: str) -> str:
    if tok.startswith("float"):
        return "float"
    if tok.startswith(("int", "uint")):
        return "int"
    if tok.startswith("bool"):
        return "bool"
    return tok


# -- R10: quadratic transients, dataflow view ----------------------------------


@register_rule
class QuadraticTransientFlowRule(Rule):
    name = "quadratic-transient-flow"
    summary = "quadratic transients caught through aliases and derived values"
    invariant = (
        "The quadratic-transient ban holds for *values*, not spellings: "
        "`m = n; np.zeros((n, m))`, a rebound `tri = np.triu_indices`, or "
        "a bound `pick = rng.choice` reach the same O(n^2) transient "
        "without the literal tokens the syntactic rule matches.  Dataflow "
        "value keys prove the two dimensions (or the callee) identical, so "
        "renaming cannot launder an allocation past review."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {
        "src/repro/util/pairs.py": "the sanctioned bounded implementation",
        "src/repro/mbf/zoo.py": (
            "all-pairs problem decoders: the (n, n) distance map *is* the "
            "declared output, not a transient"
        ),
    }

    _NP_ALLOCS = {f"{mod}.{fn}" for mod in ("numpy", "np")
                  for fn in ("zeros", "empty", "ones", "full")}
    _TRIU = {"numpy.triu_indices", "np.triu_indices"}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for scope in function_scopes(ctx.tree):
            flow = get_dataflow(ctx, scope)
            for node in scope_nodes(scope):
                if isinstance(node, ast.Call):
                    yield from self._check_call(ctx, flow, node)

    def _check_call(self, ctx: LintContext, flow, call: ast.Call) -> Iterator[Finding]:
        fkey = flow.call_target(call) or ""
        dotted = fkey.removeprefix("name:") if fkey.startswith("name:") else ""
        tname = terminal_name(call.func)
        if dotted in self._NP_ALLOCS:
            shape = call.args[0] if call.args else keyword_value(call, "shape")
            if (isinstance(shape, ast.Tuple) and len(shape.elts) == 2
                    and not self._syntactic_dupe(shape)):
                k0 = flow.key_of(shape.elts[0])
                if (k0 is not None and k0 == flow.key_of(shape.elts[1])
                        and not k0.startswith("const:")):
                    yield ctx.finding(
                        call, self,
                        "both dimensions of this allocation resolve to the "
                        f"same value ({k0}) — an (n, n) transient reached "
                        "through an alias/derived name; chunk the pair axis "
                        "or suppress with the reason it is output-sized",
                    )
        if dotted in self._TRIU and tname != "triu_indices":
            yield ctx.finding(
                call, self,
                f"'{tname}' is an alias of np.triu_indices — it materializes "
                "an (n, n) mask; use repro.util.pairs.all_pairs",
            )
        if (fkey.endswith(".choice") and tname != "choice"
                and is_const(keyword_value(call, "replace"), False)):
            yield ctx.finding(
                call, self,
                f"'{tname}' is a bound Generator.choice — replace=False "
                "builds a full permutation; use "
                "repro.util.pairs.sample_distinct",
            )

    @staticmethod
    def _syntactic_dupe(shape: ast.Tuple) -> bool:
        # The exact pattern the syntactic quadratic-transient rule already
        # reports; re-reporting it here would double every finding.
        return (all(isinstance(e, ast.Name) for e in shape.elts)
                and shape.elts[0].id == shape.elts[1].id)


# -- R11: shape contracts ------------------------------------------------------


@register_rule
class ShapeContractRule(Rule):
    name = "shape-contract"
    summary = "public kernels declare shape contracts; call sites respect them"
    invariant = (
        "Every public kernel in the batched modules declares its array "
        "shapes machine-readably (`# shape: (k, n) float64` signature "
        "comments or numpydoc ``(k, n)`` blocks); contracts must parse, "
        "agree between comment and docstring, and — in project mode — "
        "match what symbolic shape inference proves about each call site.  "
        "ROADMAP items 3-4 (compiled kernels, memmap states) cannot be "
        "built on undeclared shapes."
    )
    scope = ("src",)
    exempt = {}

    _MARKER = "# reprolint: shape-contracts-required"
    _REQUIRED = frozenset({
        "src/repro/mbf/dense.py",
        "src/repro/mbf/scalar.py",
        "src/repro/frt/forest.py",
        "src/repro/apps/batched.py",
        "src/repro/io/artifacts.py",
        "src/repro/serve/server.py",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        required = ctx.path in self._REQUIRED or self._MARKER in ctx.source
        top_level = {id(s) for s in getattr(ctx.tree, "body", [])}
        for scope in function_scopes(ctx.tree):
            if scope is ctx.tree:
                continue
            cs = extract_contracts(ctx, scope)
            for line, msg in cs.problems:
                yield ctx.finding(line, self, msg)
            if (not required or id(scope) not in top_level
                    or scope.name.startswith("_")):
                continue
            if cs.empty:
                yield ctx.finding(
                    scope, self,
                    f"public kernel '{scope.name}' declares no shape "
                    "contract — annotate array parameters with trailing "
                    "'# shape: (...)' comments (convention: "
                    "tools/reprolint/shapes.py)",
                )
                continue
            for a in (scope.args.posonlyargs + scope.args.args
                      + scope.args.kwonlyargs):
                if a.arg in ("self", "cls"):
                    continue
                if _mentions_ndarray(a.annotation) and a.arg not in cs.params:
                    yield ctx.finding(
                        a, self,
                        f"ndarray parameter '{a.arg}' of '{scope.name}' has "
                        "no shape contract",
                    )
        yield from self._check_call_sites(ctx)

    def _check_call_sites(self, ctx: LintContext) -> Iterator[Finding]:
        project = ctx.project
        if project is None:
            return
        mod = project.module_for_path(ctx.path)
        if mod is None:
            return
        for scope in function_scopes(ctx.tree):
            flow = get_dataflow(ctx, scope)
            env = _contract_dims_env(ctx, scope)
            for node in scope_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                target = _resolved_callee(project, mod, node)
                if target is None:
                    continue
                qual, callee_fn = target
                cs = _callee_contracts(project, qual, callee_fn)
                short = qual.rsplit(".", 1)[-1]
                for pname, arg in _map_call_args(callee_fn, node):
                    c = cs.params.get(pname)
                    if c is None or c.kind != "array" or c.dims is None:
                        continue
                    inferred = infer_shape(flow, arg, env=env)
                    if inferred is None:
                        continue
                    if len(inferred) != len(c.dims):
                        yield ctx.finding(
                            arg, self,
                            f"argument '{pname}' to {short}() has rank "
                            f"{len(inferred)}, but its contract declares "
                            f"({', '.join(c.dims)})",
                        )
                        continue
                    for di, ci in zip(inferred, c.dims):
                        a_i, b_i = _dim_int(di), _dim_int(ci)
                        if a_i is not None and b_i is not None and a_i != b_i:
                            yield ctx.finding(
                                arg, self,
                                f"dimension mismatch in argument '{pname}' "
                                f"to {short}(): inferred extent {a_i}, "
                                f"contract declares {ci}",
                            )
                            break


def _mentions_ndarray(ann: ast.expr | None) -> bool:
    if ann is None:
        return False
    for node in ast.walk(ann):
        if isinstance(node, ast.Attribute) and node.attr == "ndarray":
            return True
        if isinstance(node, ast.Name) and node.id == "ndarray":
            return True
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "ndarray" in node.value):
            return True
    return False


# -- R12: dtype discipline -----------------------------------------------------


@register_rule
class DtypeDisciplineRule(Rule):
    name = "dtype-discipline"
    summary = "no narrowing or integer casts on distance-carrying arrays"
    invariant = (
        "Distances, radii, betas, and weights are float64 end to end: the "
        "stretch bounds are proved for exact expected values, and a silent "
        "float32 narrowing (or an int cast) at one call boundary poisons "
        "every downstream comparison while staying bit-plausible in tests.  "
        "Casts on distance-like arrays, and call-site dtypes conflicting "
        "with a declared contract, are findings."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {}

    _BAD_CASTS = frozenset({"float32", "float16"}) | frozenset(
        d for d in KNOWN_DTYPES if d.startswith(("int", "uint"))
    )
    _CAST_FNS = {"asarray", "array", "ascontiguousarray"}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for scope in function_scopes(ctx.tree):
            flow = get_dataflow(ctx, scope)
            for node in scope_nodes(scope):
                if isinstance(node, ast.Call):
                    yield from self._check_cast(ctx, flow, node)
                elif isinstance(node, ast.Assign):
                    yield from self._check_alloc(ctx, flow, node)
        yield from self._check_call_sites(ctx)

    def _check_cast(self, ctx: LintContext, flow, call: ast.Call) -> Iterator[Finding]:
        tname = terminal_name(call.func)
        if (tname == "astype" and call.args
                and isinstance(call.func, ast.Attribute)):
            tok = dtype_token(call.args[0])
            recv = call.func.value
            if tok in self._BAD_CASTS and self._distance_like(flow, recv):
                yield ctx.finding(
                    call, self,
                    f".astype({tok}) on distance-like array "
                    f"'{self._display(flow, recv)}' — distance values stay "
                    "float64 end to end",
                )
        elif tname in self._CAST_FNS and call.args:
            tok = dtype_token(keyword_value(call, "dtype"))
            if tok in self._BAD_CASTS and self._distance_like(flow, call.args[0]):
                yield ctx.finding(
                    call, self,
                    f"{tname}(..., dtype={tok}) on distance-like value "
                    f"'{self._display(flow, call.args[0])}' — distance "
                    "values stay float64 end to end",
                )

    def _check_alloc(self, ctx: LintContext, flow, assign: ast.Assign) -> Iterator[Finding]:
        if not (isinstance(assign.value, ast.Call)
                and len(assign.targets) == 1
                and isinstance(assign.targets[0], ast.Name)):
            return
        name = assign.targets[0].id
        if not _DISTANCE_NAME.search(name.lower()):
            return
        call = assign.value
        if terminal_name(call.func) not in (
            QuadraticTransientRule._ALLOC_FNS | self._CAST_FNS
        ):
            return
        tok = dtype_token(keyword_value(call, "dtype"))
        if tok in self._BAD_CASTS:
            yield ctx.finding(
                call, self,
                f"distance-like array '{name}' allocated as {tok} — "
                "distance values stay float64 end to end",
            )

    def _check_call_sites(self, ctx: LintContext) -> Iterator[Finding]:
        project = ctx.project
        if project is None:
            return
        mod = project.module_for_path(ctx.path)
        if mod is None:
            return
        for scope in function_scopes(ctx.tree):
            flow = get_dataflow(ctx, scope)
            for node in scope_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                target = _resolved_callee(project, mod, node)
                if target is None:
                    continue
                qual, callee_fn = target
                cs = _callee_contracts(project, qual, callee_fn)
                for pname, arg in _map_call_args(callee_fn, node):
                    c = cs.params.get(pname)
                    if c is None or c.dtype is None:
                        continue
                    got = infer_dtype(flow, arg)
                    if got is None or got == c.dtype:
                        continue
                    if self._conflicts(c.dtype, got):
                        yield ctx.finding(
                            arg, self,
                            f"argument '{pname}' to {qual.rsplit('.', 1)[-1]}()"
                            f" carries dtype {got}, but its contract declares "
                            f"{c.dtype}",
                        )

    @staticmethod
    def _conflicts(declared: str, got: str) -> bool:
        fd, fg = _dtype_family(declared), _dtype_family(got)
        if "bool" in (fd, fg):
            return False  # masks mix with ints/floats by design
        if fd != fg:
            return True
        return fd == "float" and declared == "float64" and got != "float64"

    def _distance_like(self, flow, node: ast.expr) -> bool:
        base = node.value if isinstance(node, ast.Subscript) else node
        name = terminal_name(base)
        if name and _DISTANCE_NAME.search(name.lower()):
            return True
        tail = _alias_tail(flow.key_of(base))
        return bool(tail and _DISTANCE_NAME.search(tail.lower()))

    @staticmethod
    def _display(flow, node: ast.expr) -> str:
        base = node.value if isinstance(node, ast.Subscript) else node
        return terminal_name(base) or _alias_tail(flow.key_of(base)) or "value"


# -- R13: RNG stream flow ------------------------------------------------------


@register_rule
class RngStreamFlowRule(Rule):
    name = "rng-stream-flow"
    summary = "accept a generator OR construct one — never both; ordered draws"
    invariant = (
        "A function that accepts a generator derives *all* randomness from "
        "it: constructing a fresh stream (as_rng on a non-rng value, "
        "split_seed) alongside an rng parameter silently decouples the "
        "call from the caller's seed and breaks replay.  Draw order must "
        "also never depend on dict/set iteration order — a hash-ordered "
        "loop permutes the stream between runs while every individual draw "
        "still looks correct."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {
        "src/repro/util/rng.py": "the sanctioned construction site",
    }

    _CTORS = {"as_rng", "spawn_rngs"}
    _DRAWS = {
        "random", "integers", "uniform", "normal", "standard_normal",
        "permutation", "choice", "shuffle", "geometric", "exponential",
        "poisson", "spawn",
    }
    _UNORDERED_VIEWS = {"items", "keys", "values"}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for scope in function_scopes(ctx.tree):
            flow = get_dataflow(ctx, scope)
            rng_params = self._rng_params(scope)
            if rng_params:
                yield from self._check_ctors(ctx, flow, scope, rng_params)
            yield from self._check_iteration(ctx, flow, scope, rng_params)

    @staticmethod
    def _rng_params(scope: ast.AST) -> list[str]:
        args = getattr(scope, "args", None)
        if args is None:
            return []
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        return [n for n in names if n in ("rng", "rngs")]

    def _check_ctors(self, ctx: LintContext, flow, fn: ast.AST,
                     rng_params: list[str]) -> Iterator[Finding]:
        for node in scope_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            tname = terminal_name(node.func)
            if tname == "split_seed":
                yield ctx.finding(
                    node, self,
                    f"split_seed() inside '{fn.name}', which already accepts "
                    f"'{rng_params[0]}' — spawn child streams from the "
                    "generator (spawn_rngs) instead of re-splitting a seed",
                )
            elif tname in self._CTORS and node.args:
                if not self._derives_from(flow, node.args[0], rng_params):
                    yield ctx.finding(
                        node, self,
                        f"{tname}() constructs a stream independent of "
                        f"parameter '{rng_params[0]}' — a function accepts a "
                        "generator or constructs one, never both",
                    )

    @staticmethod
    def _derives_from(flow, arg: ast.expr, rng_params: list[str]) -> bool:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name) and sub.id in rng_params:
                return True
        key = flow.key_of(arg) or ""
        return any(
            re.match(rf"^param:{p}($|[.\[(])", key) for p in rng_params
        )

    def _check_iteration(self, ctx: LintContext, flow, scope: ast.AST,
                         rng_params: list[str]) -> Iterator[Finding]:
        gens = set(rng_params)
        for name, defs in flow.defs.items():
            for assign, _ in defs:
                value = getattr(assign, "value", None)
                if (isinstance(value, ast.Call)
                        and terminal_name(value.func) in self._CTORS):
                    gens.add(name)
        if not gens:
            return
        reported: set[int] = set()
        for node in scope_nodes(scope):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not self._unordered_iter(node.iter):
                continue
            for call in scope_nodes(node):
                if id(call) in reported or not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in self._DRAWS):
                    continue
                base = func.value
                if isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in gens:
                    reported.add(id(call))
                    yield ctx.finding(
                        call, self,
                        f"draw from '{base.id}' inside iteration over an "
                        "unordered dict/set view — draw order becomes "
                        "hash-order dependent; iterate sorted(...) instead",
                    )

    @classmethod
    def _unordered_iter(cls, it: ast.expr) -> bool:
        if isinstance(it, (ast.Set, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(it, ast.Call):
            f = it.func
            if isinstance(f, ast.Name) and f.id in {"set", "frozenset"}:
                return True
            if isinstance(f, ast.Attribute) and f.attr in cls._UNORDERED_VIEWS:
                return True
        return False


# -- shared ownership/contract helpers (ownership rules, PR 9) -----------------


def _is_fn(scope: ast.AST) -> bool:
    return isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))


def _params_with_ownership(ctx: LintContext, scope: ast.AST, qual: str) -> set[str]:
    """Parameter names whose declared contract carries ownership ``qual``."""
    if not _is_fn(scope):
        return set()
    cs = extract_contracts(ctx, scope)
    return {name for name, c in cs.params.items() if c.ownership == qual}


def _return_ownership(ctx: LintContext, scope: ast.AST) -> str | None:
    if not _is_fn(scope):
        return None
    cs = extract_contracts(ctx, scope)
    return cs.returns.ownership if cs.returns is not None else None


_NP_FRESH_ALLOCS = frozenset({
    "zeros", "empty", "ones", "full", "arange", "linspace", "eye",
    "zeros_like", "empty_like", "ones_like", "full_like",
})

#: Calls whose result owns fresh storage regardless of the arguments.
_OWNING_CALL_NAMES = frozenset({
    "copy", "deepcopy", "array", "tolist", "list", "dict", "float", "int",
    "bool", "str", "tuple", "sorted", "stack", "concatenate", "hstack",
    "vstack",
}) | _NP_FRESH_ALLOCS


def _ownedness(own, expr: ast.expr, at: ast.AST, depth: int = 8):
    """``(verdict, reason)``: is ``expr`` freshly owned storage?

    ``True`` — provably owned (copy, fresh allocation, arithmetic result,
    literal).  ``False`` — provably *aliased* (a parameter, a view, a
    cache borrow), with the reason.  ``None`` — no claim (unknown calls,
    attribute loads): conservative rules stay silent.
    """
    if depth <= 0:
        return None, None
    vk = own.view_kind(expr, at=at)
    if vk is not None:
        return False, vk[1]
    if isinstance(expr, ast.Constant):
        return True, None
    if isinstance(expr, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.BoolOp)):
        return True, None  # operator results are fresh arrays/scalars
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return True, None
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        verdicts = [_ownedness(own, e, at, depth - 1) for e in expr.elts]
        for v, why in verdicts:
            if v is False:
                return False, why
        if verdicts and all(v is True for v, _ in verdicts):
            return True, None
        return None, None
    if isinstance(expr, ast.Call):
        tname = terminal_name(expr.func)
        if tname in _OWNING_CALL_NAMES:
            return True, None
        return None, None
    if isinstance(expr, ast.Name):
        assign = own.flow.last_def_before(expr.id, at)
        if assign is None:
            if expr.id in own.params:
                return False, (f"parameter '{expr.id}' — the caller retains "
                               "an alias to the same storage")
            return None, None
        value = getattr(assign, "value", None)
        if value is None or isinstance(assign, ast.AugAssign):
            return None, None
        return _ownedness(own, value, assign, depth - 1)
    return None, None


# -- R14: no in-place writes through borrowed storage --------------------------


@register_rule
class ViewMutationRule(Rule):
    name = "view-mutation"
    summary = "no in-place writes through views, memmaps, or cache borrows"
    invariant = (
        "Arrays reached through a slice view, a ``tree()``/``trees()`` "
        "forest view, a memmap load, or a cache borrow are *borrowed* "
        "storage: an in-place write corrupts the owner (every other view "
        "of the stacked forest, the on-disk artifact, every future cache "
        "hit) far from the write site.  Mutation is tracked through "
        "aliases — `t = forest.tree(0); r = t.radii[1:]; r[0] = x` flags "
        "even though no borrowed spelling appears on the write line — and "
        "parameters contracted `view` are borrowed by definition.  Copy "
        "first: the runtime REPRO_FREEZE sanitizer turns these into hard "
        "errors, this rule catches them before they run."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        project = ctx.project
        mod = project.module_for_path(ctx.path) if project else None
        summaries = mutated_param_summaries(project) if project else {}
        for scope in function_scopes(ctx.tree):
            own = get_ownership(ctx, scope)
            view_params = _params_with_ownership(ctx, scope, "view")
            for site in own.mutations:
                if site.param is not None and site.param in view_params:
                    yield ctx.finding(
                        site.node, self,
                        f"in-place write ({site.detail}) through parameter "
                        f"'{site.param}', which is contracted 'view' — the "
                        "caller's storage would change; .copy() first",
                    )
                    continue
                vk = own.view_kind(site.base, at=site.node)
                if vk is not None:
                    yield ctx.finding(
                        site.node, self,
                        f"in-place write ({site.detail}) through {vk[1]} — "
                        "borrowed storage; mutate a .copy() instead",
                    )
            if mod is None:
                continue
            for node in scope_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                target = _resolved_callee(project, mod, node)
                if target is None:
                    continue
                qual, callee_fn = target
                mutated = summaries.get(qual, {})
                short = qual.rsplit(".", 1)[-1]
                for pname, arg in _map_call_args(callee_fn, node):
                    if pname not in mutated:
                        continue
                    vk = own.view_kind(arg, at=node)
                    root = param_root(base_key(own.flow, own.params, arg, node))
                    if vk is not None:
                        yield ctx.finding(
                            arg, self,
                            f"{vk[1]} passed to {short}(), which mutates "
                            f"parameter '{pname}' ({mutated[pname]}) — pass "
                            "a .copy()",
                        )
                    elif root is not None and root in view_params:
                        yield ctx.finding(
                            arg, self,
                            f"parameter '{root}' (contracted 'view') passed "
                            f"to {short}(), which mutates parameter "
                            f"'{pname}' ({mutated[pname]})",
                        )


# -- R15: frozen parameters stay frozen, transitively --------------------------


@register_rule
class FrozenParamMutationRule(Rule):
    name = "frozen-param-mutation"
    summary = "a parameter contracted `frozen` is never written, at any depth"
    invariant = (
        "A `frozen` qualifier on a parameter contract is a promise to the "
        "caller that the argument is read-only for the whole call: the "
        "function neither writes it nor hands it to anything that does.  "
        "The interprocedural mutation summaries make the promise "
        "transitive — passing a frozen array to a helper whose own callee "
        "three frames down does `x[i] = v` flags the public entry point, "
        "not just the leaf.  This is the static twin of REPRO_FREEZE's "
        "writeable=False runtime check."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        project = ctx.project
        mod = project.module_for_path(ctx.path) if project else None
        summaries = mutated_param_summaries(project) if project else {}
        for scope in function_scopes(ctx.tree):
            frozen = _params_with_ownership(ctx, scope, "frozen")
            if not frozen:
                continue
            own = get_ownership(ctx, scope)
            for site in own.mutations:
                if site.param is not None and site.param in frozen:
                    yield ctx.finding(
                        site.node, self,
                        f"in-place write ({site.detail}) to parameter "
                        f"'{site.param}', which is contracted 'frozen' — "
                        "drop the qualifier or mutate a copy",
                    )
            if mod is None:
                continue
            for node in scope_nodes(scope):
                if not isinstance(node, ast.Call):
                    continue
                target = _resolved_callee(project, mod, node)
                if target is None:
                    continue
                qual, callee_fn = target
                mutated = summaries.get(qual, {})
                short = qual.rsplit(".", 1)[-1]
                for pname, arg in _map_call_args(callee_fn, node):
                    if pname not in mutated:
                        continue
                    root = param_root(base_key(own.flow, own.params, arg, node))
                    if root is not None and root in frozen:
                        yield ctx.finding(
                            arg, self,
                            f"parameter '{root}' (contracted 'frozen') "
                            f"passed to {short}(), which mutates parameter "
                            f"'{pname}' ({mutated[pname]})",
                        )


# -- R16: cache boundaries exchange owned values only --------------------------


@register_rule
class CacheAliasingRule(Rule):
    name = "cache-aliasing"
    summary = "values crossing a cache boundary are owned — copied or fresh"
    invariant = (
        "A cache (any `cache`/`lru`/`memo` container, `.setdefault` on "
        "one, or a `*cache_put*` call) stores long-lived truth: inserting "
        "a value the caller still aliases lets a later in-place write "
        "poison every future hit, and returning a cached value uncopied "
        "from a public function hands internal storage to code that never "
        "promised not to write it.  Entering values must be owned "
        "(`.copy()`, a fresh allocation, an arithmetic result); leaving "
        "values must be copied before a public return.  The PR-8 serve "
        "layer caches column copies and re-copies on hit for exactly this "
        "reason."
    )
    scope = ("src", "benchmarks", "examples")
    exempt = {}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for scope in function_scopes(ctx.tree):
            own = get_ownership(ctx, scope)
            public = _is_fn(scope) and not scope.name.startswith("_")
            for esc in own.escapes:
                if esc.kind == "cache-store":
                    verdict, why = _ownedness(own, esc.value, esc.node)
                    if verdict is False:
                        yield ctx.finding(
                            esc.node, self,
                            f"cached value is {why} — a cache must own its "
                            "entries; insert a .copy() (or a freshly "
                            "allocated value)",
                        )
                elif esc.kind == "return" and public:
                    vk = own.view_kind(esc.value, at=esc.node)
                    if vk is not None and vk[0] == "cache":
                        yield ctx.finding(
                            esc.node, self,
                            f"public function '{scope.name}' returns {vk[1]} "
                            "without copying — cached storage escapes to "
                            "callers; return a .copy()",
                        )


# -- R17: escaping shared storage is declared ----------------------------------


@register_rule
class EscapeUndeclaredRule(Rule):
    name = "escape-undeclared"
    summary = "public functions returning borrowed storage contract it `view`"
    invariant = (
        "A public function that returns internal shared storage — a slice "
        "of a `self.` array, a `tree()`/`trees()` forest view, a "
        "memmap-backed load, or (in project mode) the result of a callee "
        "whose return contract is `view` — must say so with a `view` "
        "qualifier on its return contract.  Callers plan copies around "
        "that one word; an undeclared view is how PR-8's serve cache "
        "briefly returned live columns.  Functions returning owned data "
        "need no qualifier."
    )
    scope = ("src",)
    exempt = {}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        project = ctx.project
        mod = project.module_for_path(ctx.path) if project else None
        for scope in function_scopes(ctx.tree):
            if not _is_fn(scope) or scope.name.startswith("_"):
                continue
            if _return_ownership(ctx, scope) == "view":
                continue
            own = get_ownership(ctx, scope)
            for ret in own.flow.returns:
                reason = self._borrowed(own, ret)
                if reason is None and mod is not None:
                    reason = self._callee_view(ctx, project, mod, own, ret)
                if reason is not None:
                    yield ctx.finding(
                        ret, self,
                        f"public function '{scope.name}' returns {reason} "
                        "but its return contract does not declare 'view' — "
                        "add `# shape: -> ... view` (or return a copy)",
                    )
                    break  # one finding per function is enough

    @staticmethod
    def _borrowed(own, ret: ast.expr) -> str | None:
        vk = own.view_kind(ret, at=ret)
        if vk is None:
            return None
        kind, detail = vk
        if kind in ("tree", "memmap"):
            return detail
        if kind == "slice" and "self." in detail:
            return detail
        return None  # cache borrows are cache-aliasing's finding, not ours

    @staticmethod
    def _callee_view(ctx, project, mod, own, ret: ast.expr) -> str | None:
        expr = ret
        if isinstance(expr, ast.Name):
            assign = own.flow.last_def_before(expr.id, ret)
            expr = getattr(assign, "value", None) if assign is not None else None
        if not isinstance(expr, ast.Call):
            return None
        target = _resolved_callee(project, mod, expr)
        if target is None:
            return None
        qual, callee_fn = target
        cs = _callee_contracts(project, qual, callee_fn)
        if cs.returns is not None and cs.returns.ownership == "view":
            short = qual.rsplit(".", 1)[-1]
            return f"the result of {short}(), whose return contract is 'view',"
        return None
