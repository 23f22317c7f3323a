"""NumPy shape/dtype contracts + symbolic shape inference.

ROADMAP items 3-4 (compiled kernels, memory-bounded pipeline) need the
flat CSR arrays' shapes to be *declared*, not tribal knowledge.  The
contract convention is machine-readable and lives where reviewers read:

- a trailing comment on a parameter's own signature line::

      def propagate_batched(
          states,   # shape: csr(k*n)
          src,      # shape: (m,) int64
          w,        # shape: (m,) float64
      ):            # shape: -> (E,) float64

  Forms: ``(dims) [dtype]`` for arrays, ``csr(segments)`` for the CSR
  container type (BatchedFlatStates — ``segments`` is the segment-count
  expression, e.g. ``csr(k*n)``), ``scalar`` for plain
  numbers/strings/flags, ``object`` for structured objects (dataclasses,
  containers of arrays), and a leading ``->`` for the return value.
  Dims are identifiers, integers, or simple products/sums (``k*n+1``).

  Any form may carry one trailing **ownership qualifier**::

      def tree(self, s):  # shape: -> object view

  - ``frozen`` — the callee (and everything it calls) must not mutate
    this value in place (checked by the ``frozen-param-mutation`` rule,
    interprocedurally);
  - ``view`` — borrowed storage: the value aliases internal shared
    arrays and must never be written through (``view-mutation``), and
    public functions returning such storage must declare it
    (``escape-undeclared``);
  - ``owned`` — freshly allocated: the receiver may mutate freely, no
    aliasing with the producer's state.

- or a numpydoc ``Parameters`` block whose description carries a
  double-backtick shape, e.g. ``ranks: ``(k, n)`` matrix of ...`` —
  the style :func:`repro.frt.forest.build_frt_forest` already uses.

Both sources are parsed by :func:`extract_contracts`; when a parameter
is contracted in both, the ranks must agree (a conflict is a contract
problem, reported by the ``shape-contract`` rule).

:func:`infer_shape` is the other half: a conservative symbolic shape for
an expression inside one function, resolved through the function's
dataflow (:mod:`tools.reprolint.dataflow`) so aliases don't blind it.
It knows the repo's NumPy idioms — allocations, ``reshape``/``stack``/
``concatenate``, broadcasting, ``reduceat``, ``searchsorted``,
``bincount``, ``np.unique`` — and answers ``None`` (unknown) for
anything else; rules must only act on what it *can* prove.

Standard library only (``ast`` + ``re``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from tools.reprolint.dataflow import FunctionDataflow

__all__ = [
    "Contract",
    "ContractSet",
    "KNOWN_DTYPES",
    "OWNERSHIP_QUALIFIERS",
    "dtype_token",
    "extract_contracts",
    "infer_dtype",
    "infer_shape",
    "parse_contract",
]

#: Unknown-dimension placeholder inside inferred shapes.
UNKNOWN = "?"

KNOWN_DTYPES = frozenset({
    "float64", "float32", "float16",
    "int64", "int32", "int16", "int8", "intp", "int",
    "uint64", "uint32", "uint16", "uint8",
    "bool", "bool_", "complex128", "complex64", "object", "str",
})

_COMMENT_RE = re.compile(r"#\s*shape:\s*(.+?)\s*$")
#: Ownership qualifiers a contract may carry (trailing token, any form).
OWNERSHIP_QUALIFIERS = ("frozen", "owned", "view")
_FORM_RE = re.compile(
    r"^(?P<ret>->\s*)?"
    r"(?:(?P<scalar>scalar|object)"
    r"|(?P<csr>csr)?\(\s*(?P<dims>[^)]*)\)"
    # The dtype slot must not swallow a bare ownership qualifier
    # ('(n,) frozen' has no dtype), hence the lookahead.
    r"(?:\s+(?!(?:frozen|owned|view)\b)(?P<dtype>[A-Za-z_][A-Za-z0-9_]*))?"
    r")"
    r"(?:\s+(?P<own>frozen|owned|view))?$"
)
_DIM_RE = re.compile(r"^[A-Za-z0-9_]+(\s*[+*\-]\s*[A-Za-z0-9_]+)*$")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOC_SHAPE_RE = re.compile(
    r"``\(\s*([^)`]*)\)``(?:\s+([a-z][a-z0-9_]+)\b)?"
)


@dataclass(frozen=True)
class Contract:
    """One declared parameter/return shape.

    ``dims`` is ``None`` for ``scalar``/``object`` contracts; for ``csr``
    contracts it holds the single segment-count expression.  ``ownership``
    is the optional trailing qualifier (``frozen`` | ``owned`` | ``view``,
    ``None`` when undeclared).
    """

    kind: str  # "array" | "csr" | "scalar" | "object"
    dims: tuple[str, ...] | None
    dtype: str | None
    line: int
    source: str  # "comment" | "docstring"
    ownership: str | None = None

    @property
    def rank(self) -> int | None:
        return None if self.dims is None else len(self.dims)


@dataclass
class ContractSet:
    """All contracts of one function plus the problems found parsing them."""

    params: dict[str, Contract] = field(default_factory=dict)
    returns: Contract | None = None
    problems: list[tuple[int, str]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.params and self.returns is None


def parse_contract(text: str, line: int, source: str) -> tuple[Contract | None, str | None]:
    """Parse one contract body (the text after ``shape:``).

    Returns ``(contract, error)``; exactly one is ``None``.
    """
    m = _FORM_RE.match(text.strip())
    if m is None:
        return None, (
            f"unparseable shape contract {text!r} — expected '(dims) [dtype]', "
            "'csr(segments)', 'scalar', or 'object', optionally followed by "
            "one ownership qualifier (frozen | owned | view), or a '->' "
            "return form"
        )
    ownership = m.group("own")
    if m.group("scalar"):
        return Contract(m.group("scalar"), None, None, line, source,
                        ownership=ownership), None
    raw_dims = m.group("dims").strip()
    kind = "csr" if m.group("csr") else "array"
    dims: tuple[str, ...]
    if raw_dims == "":
        dims = ()
    else:
        parts = [d.strip() for d in raw_dims.rstrip(",").split(",")]
        for d in parts:
            if not d or not _DIM_RE.match(d):
                return None, (
                    f"bad dimension {d!r} in shape contract {text!r} — dims "
                    "are identifiers, integers, or simple '+*-' expressions"
                )
        dims = tuple(parts)
    if kind == "csr" and len(dims) != 1:
        return None, (
            f"csr contract {text!r} must carry exactly one segment-count "
            "expression, e.g. csr(k*n)"
        )
    dtype = m.group("dtype")
    if dtype is not None and dtype not in KNOWN_DTYPES:
        return None, (
            f"unknown dtype {dtype!r} in shape contract {text!r} "
            f"(known: {', '.join(sorted(KNOWN_DTYPES))})"
        )
    return Contract(kind, dims, dtype, line, source, ownership=ownership), None


def _param_names(fn: ast.AST) -> list[str]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    for var in (args.vararg, args.kwarg):
        if var is not None:
            names.append(var.arg)
    return names


def _args_by_line(fn: ast.AST) -> dict[int, list[str]]:
    args = fn.args
    by_line: dict[int, list[str]] = {}
    for a in args.posonlyargs + args.args + args.kwonlyargs + [
        v for v in (args.vararg, args.kwarg) if v is not None
    ]:
        by_line.setdefault(a.lineno, []).append(a.arg)
    return by_line


def extract_contracts(ctx, fn: ast.AST) -> ContractSet:
    """Collect ``fn``'s contracts from signature comments and its docstring.

    ``ctx`` is the file's ``LintContext`` (for source lines).  Problems —
    unparseable contracts, comments attached to no parameter, ambiguous
    multi-parameter lines, comment/docstring rank conflicts — are recorded
    with the line they occur on.
    """
    cs = ContractSet()
    body = getattr(fn, "body", [])
    header_end = body[0].lineno - 1 if body else fn.lineno
    by_line = _args_by_line(fn)
    for line in range(fn.lineno, header_end + 1):
        m = _COMMENT_RE.search(_raw_line(ctx, line))
        if m is None:
            continue
        contract, err = parse_contract(m.group(1), line, "comment")
        if err is not None:
            cs.problems.append((line, err))
            continue
        assert contract is not None
        text = m.group(1).strip()
        if text.startswith("->"):
            if cs.returns is not None:
                cs.problems.append((line, "duplicate return shape contract"))
            cs.returns = contract
            continue
        params_here = by_line.get(line, [])
        if not params_here:
            cs.problems.append(
                (line, "shape contract on a line with no parameter — put it "
                       "on the parameter's own line (or use '->' for the "
                       "return value)")
            )
        elif len(params_here) > 1:
            cs.problems.append(
                (line, f"shape contract is ambiguous — line declares "
                       f"{len(params_here)} parameters "
                       f"({', '.join(params_here)}); one parameter per "
                       "contracted line")
            )
        else:
            name = params_here[0]
            if name in cs.params:
                cs.problems.append((line, f"duplicate shape contract for {name!r}"))
            cs.params[name] = contract
    _merge_docstring_contracts(cs, fn)
    _check_return_symbols(cs, fn)
    return cs


def _raw_line(ctx, line: int) -> str:
    return ctx.lines[line - 1] if 1 <= line <= len(ctx.lines) else ""


def _merge_docstring_contracts(cs: ContractSet, fn: ast.AST) -> None:
    doc = ast.get_docstring(fn, clean=True)
    if not doc or "Parameters" not in doc:
        return
    doc_line = fn.body[0].lineno if getattr(fn, "body", None) else fn.lineno
    params = set(_param_names(fn))
    lines = doc.splitlines()
    try:
        start = next(
            i for i, ln in enumerate(lines)
            if ln.strip() == "Parameters"
            and i + 1 < len(lines) and set(lines[i + 1].strip()) == {"-"}
        )
    except StopIteration:
        return
    current: str | None = None
    blocks: dict[str, list[str]] = {}
    for ln in lines[start + 2:]:
        stripped = ln.strip()
        header = stripped.rstrip(":")
        if stripped.endswith(":") and header in params and not ln.startswith("   "):
            current = header
            blocks[current] = []
        elif stripped and set(stripped) == {"-"}:
            break  # next underlined section
        elif current is not None:
            blocks[current].append(stripped)
    for name, desc in blocks.items():
        m = _DOC_SHAPE_RE.search(" ".join(desc))
        if m is None:
            continue
        body_text = f"({m.group(1)})" + (f" {m.group(2)}" if m.group(2) in KNOWN_DTYPES else "")
        contract, err = parse_contract(body_text, doc_line, "docstring")
        if err is not None:
            cs.problems.append((doc_line, f"in docstring for {name!r}: {err}"))
            continue
        assert contract is not None
        existing = cs.params.get(name)
        if existing is None:
            cs.params[name] = contract
        elif existing.rank != contract.rank:
            cs.problems.append(
                (existing.line,
                 f"contract conflict for {name!r}: signature comment says "
                 f"rank {existing.rank}, docstring says rank {contract.rank}")
            )


def _check_return_symbols(cs: ContractSet, fn: ast.AST) -> None:
    """Return-contract symbols must be introduced by some parameter."""
    if cs.returns is None or cs.returns.dims is None or not cs.params:
        return
    known: set[str] = set(_param_names(fn))
    for c in cs.params.values():
        for dim in c.dims or ():
            known.update(_IDENT_RE.findall(dim))
    for dim in cs.returns.dims:
        for sym in _IDENT_RE.findall(dim):
            if sym not in known:
                cs.problems.append(
                    (cs.returns.line,
                     f"return shape symbol {sym!r} appears in no parameter "
                     "contract — returns must be expressible in declared "
                     "dimensions")
                )


# -- symbolic shape inference --------------------------------------------------

#: np-namespace allocators whose first argument is the shape.
_SHAPE_ALLOCS = {"zeros", "empty", "ones", "full"}
#: np-namespace functions preserving their first argument's shape.
_SHAPE_PRESERVING = {
    "asarray", "ascontiguousarray", "asfortranarray", "abs", "sqrt", "ceil",
    "floor", "exp", "log", "log2", "isfinite", "isinf", "isnan",
    "where", "sort", "copy", "zeros_like", "ones_like",
    "empty_like", "full_like",
}
#: binary elementwise np-namespace functions (result = broadcast of both).
_BINARY_BROADCAST = {
    "minimum", "maximum", "power", "add", "subtract", "multiply", "divide",
    "hypot",
}
#: array methods preserving the receiver's shape.
_METHOD_PRESERVING = {"copy", "astype", "round", "clip"}

_NUMPY_MODULES = ("numpy", "np")


def _np_func(flow: FunctionDataflow, call: ast.Call) -> str | None:
    """``numpy.<name>`` for a (possibly aliased) np-namespace call."""
    key = flow.key_of(call.func)
    if key is None or not key.startswith("name:"):
        return None
    dotted = key.removeprefix("name:")
    head, _, rest = dotted.partition(".")
    if head in _NUMPY_MODULES and rest and "." not in rest:
        return rest
    return None


def _dims_from_expr(flow: FunctionDataflow, node: ast.expr) -> tuple[str, ...]:
    """A shape-argument expression (tuple or scalar) as symbolic dims."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(flow.key_of(e) or UNKNOWN for e in node.elts)
    return (flow.key_of(node) or UNKNOWN,)


def _broadcast(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """NumPy broadcasting of two symbolic shapes (rank-exact, dims best-effort)."""
    out: list[str] = []
    for da, db in zip(reversed((UNKNOWN,) * (len(b) - len(a)) + a),
                      reversed((UNKNOWN,) * (len(a) - len(b)) + b)):
        if da == db:
            out.append(da)
        elif da in (UNKNOWN, "const:1"):
            out.append(db)
        elif db in (UNKNOWN, "const:1"):
            out.append(da)
        else:
            out.append(UNKNOWN)  # symbolic mismatch: not provably a clash
    return tuple(reversed(out))


def infer_shape(
    flow: FunctionDataflow,
    node: ast.expr,
    *,
    env: dict[str, tuple[str, ...]] | None = None,
    depth: int = 8,
) -> tuple[str, ...] | None:
    """Best-effort symbolic shape of ``node`` inside ``flow``'s scope.

    ``env`` maps parameter names to declared dims (from the enclosing
    function's own contracts), so contracted parameters contribute their
    declared rank.  Unknown dims are ``"?"``; an unknown *rank* is
    ``None`` — rules must treat ``None`` as "no claim".
    """
    if depth <= 0:
        return None
    if isinstance(node, ast.Name):
        if env is not None and flow.key_of(node) == f"param:{node.id}":
            return env.get(node.id)
        assign = flow.last_def_before(node.id, node)
        if (isinstance(assign, ast.Assign) and len(assign.targets) == 1
                and isinstance(assign.targets[0], ast.Name)):
            return infer_shape(flow, assign.value, env=env, depth=depth - 1)
        if env is not None and isinstance(assign, ast.AnnAssign):
            return None
        if env is not None and assign is None:
            return env.get(node.id)
        return None
    if isinstance(node, ast.Constant):
        return () if isinstance(node.value, (int, float, bool, complex)) else None
    if isinstance(node, ast.Call):
        return _infer_call(flow, node, env, depth)
    if isinstance(node, ast.Attribute):
        if node.attr == "T":
            base = infer_shape(flow, node.value, env=env, depth=depth - 1)
            return None if base is None else tuple(reversed(base))
        return None
    if isinstance(node, ast.Subscript):
        return _infer_subscript(flow, node, env, depth)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
                  ast.Pow)
    ):
        a = infer_shape(flow, node.left, env=env, depth=depth - 1)
        b = infer_shape(flow, node.right, env=env, depth=depth - 1)
        if a is None or b is None:
            return None
        return _broadcast(a, b)
    if isinstance(node, ast.UnaryOp):
        return infer_shape(flow, node.operand, env=env, depth=depth - 1)
    if isinstance(node, ast.IfExp):
        a = infer_shape(flow, node.body, env=env, depth=depth - 1)
        b = infer_shape(flow, node.orelse, env=env, depth=depth - 1)
        return a if a == b else None
    return None


def _infer_subscript(
    flow: FunctionDataflow,
    node: ast.Subscript,
    env: dict[str, tuple[str, ...]] | None,
    depth: int,
) -> tuple[str, ...] | None:
    """Shape of ``x[...]`` for plain slice/int indexing (None otherwise).

    Fancy indexing (array/bool masks, Ellipsis, unknown scalars) is out of
    scope — the result rank depends on runtime values, so no claim is made.
    """
    base = infer_shape(flow, node.value, env=env, depth=depth - 1)
    if base is None:
        return None
    sl = node.slice
    items = sl.elts if isinstance(sl, ast.Tuple) else [sl]
    out: list[str] = []
    i = 0
    for it in items:
        if isinstance(it, ast.Slice):
            if i >= len(base):
                return None
            full = it.lower is None and it.upper is None and it.step is None
            out.append(base[i] if full else UNKNOWN)
            i += 1
        elif _is_scalar_index(it):
            if i >= len(base):
                return None
            i += 1  # a concrete integer index consumes one axis
        elif isinstance(it, ast.Constant) and it.value is None:
            out.append("const:1")  # np.newaxis
        else:
            return None
    out.extend(base[i:])
    return tuple(out)


def _is_scalar_index(it: ast.expr) -> bool:
    if (isinstance(it, ast.Constant) and isinstance(it.value, int)
            and not isinstance(it.value, bool)):
        return True
    if isinstance(it, ast.UnaryOp) and isinstance(it.op, ast.USub):
        return _is_scalar_index(it.operand)
    return False


def _infer_call(
    flow: FunctionDataflow,
    call: ast.Call,
    env: dict[str, tuple[str, ...]] | None,
    depth: int,
) -> tuple[str, ...] | None:
    np_name = _np_func(flow, call)
    method = call.func.attr if isinstance(call.func, ast.Attribute) else None
    if np_name in _SHAPE_ALLOCS and call.args:
        return _dims_from_expr(flow, call.args[0])
    if np_name in _BINARY_BROADCAST and len(call.args) >= 2:
        a = infer_shape(flow, call.args[0], env=env, depth=depth - 1)
        b = infer_shape(flow, call.args[1], env=env, depth=depth - 1)
        return None if a is None or b is None else _broadcast(a, b)
    if np_name in _SHAPE_PRESERVING and call.args:
        return infer_shape(flow, call.args[0], env=env, depth=depth - 1)
    if np_name == "arange":
        if len(call.args) == 1:
            return (flow.key_of(call.args[0]) or UNKNOWN,)
        return (UNKNOWN,)
    if np_name == "reshape" and len(call.args) >= 2:
        return _reshape_dims(flow, call.args[1:])
    if np_name == "concatenate" and call.args:
        inner = call.args[0]
        if isinstance(inner, (ast.Tuple, ast.List)) and inner.elts:
            first = infer_shape(flow, inner.elts[0], env=env, depth=depth - 1)
            if first is None or not first:
                return None
            return (UNKNOWN,) + first[1:]
        return None
    if np_name == "stack" and call.args:
        inner = call.args[0]
        if isinstance(inner, (ast.Tuple, ast.List)) and inner.elts:
            first = infer_shape(flow, inner.elts[0], env=env, depth=depth - 1)
            if first is None:
                return None
            return (UNKNOWN,) + first  # axis handling kept rank-exact only
        return None
    if np_name == "searchsorted" and len(call.args) >= 2:
        return infer_shape(flow, call.args[1], env=env, depth=depth - 1)
    if np_name == "bincount":
        from tools.reprolint.rules import keyword_value  # cycle-free at call time
        minlength = keyword_value(call, "minlength")
        if minlength is not None:
            return (flow.key_of(minlength) or UNKNOWN,)
        return (UNKNOWN,)
    if np_name in {"unique", "flatnonzero"}:
        return (UNKNOWN,)
    if np_name == "diff" and call.args:
        # Rank-preserving (last axis by default); extents become unknown.
        base = infer_shape(flow, call.args[0], env=env, depth=depth - 1)
        if base is None:
            return None
        return tuple(UNKNOWN for _ in base) or (UNKNOWN,)
    if np_name in {"cumsum", "repeat", "tile"}:
        from tools.reprolint.rules import keyword_value
        axis = keyword_value(call, "axis")
        if axis is None:
            return (UNKNOWN,)  # no axis: the result is flattened to 1-D
        base = (infer_shape(flow, call.args[0], env=env, depth=depth - 1)
                if call.args else None)
        if base is None:
            return None
        if (np_name in {"cumsum", "repeat"}
                and isinstance(axis, ast.Constant)
                and isinstance(axis.value, int)):
            i = axis.value if axis.value >= 0 else len(base) + axis.value
            if 0 <= i < len(base):
                # Only the targeted axis changes extent (cumsum: not even
                # that, but one conservative story covers both).
                return base[:i] + (UNKNOWN,) + base[i + 1:]
        return tuple(UNKNOWN for _ in base)
    if method == "reshape" and isinstance(call.func, ast.Attribute):
        return _reshape_dims(flow, call.args)
    if method in _METHOD_PRESERVING and isinstance(call.func, ast.Attribute):
        return infer_shape(flow, call.func.value, env=env, depth=depth - 1)
    if method == "reduceat" and call.args:
        # ufunc.reduceat(x, indices, axis=a): rank-preserving, the reduced
        # axis's extent becomes the (unknown) number of segments.
        base = infer_shape(flow, call.args[0], env=env, depth=depth - 1)
        if base is None:
            return None
        return (UNKNOWN,) + base[1:] if base else base
    if method in {"min", "max", "sum", "mean", "argmin", "argmax"}:
        from tools.reprolint.rules import keyword_value
        base = infer_shape(
            flow, call.func.value, env=env, depth=depth - 1
        ) if isinstance(call.func, ast.Attribute) else None
        axis = keyword_value(call, "axis")
        if base is None:
            return None
        if axis is None and not call.args:
            return ()
        if isinstance(axis, ast.Constant) and isinstance(axis.value, int) and base:
            i = axis.value if axis.value >= 0 else len(base) + axis.value
            if 0 <= i < len(base):
                return base[:i] + base[i + 1:]
        return None
    return None


def _reshape_dims(flow: FunctionDataflow, args: list[ast.expr]) -> tuple[str, ...] | None:
    if len(args) == 1 and isinstance(args[0], (ast.Tuple, ast.List)):
        dims = args[0].elts
    else:
        dims = args
    out = []
    for d in dims:
        if isinstance(d, ast.UnaryOp) and isinstance(d.op, ast.USub):
            out.append(UNKNOWN)  # -1 wildcard
        else:
            out.append(flow.key_of(d) or UNKNOWN)
    return tuple(out)


# -- dtype inference -----------------------------------------------------------

_DTYPE_DEFAULT_FLOAT = {"zeros", "empty", "ones", "full"}


def dtype_token(node: ast.expr | None) -> str | None:
    """The dtype a ``dtype=`` argument denotes, as a normalized token."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        tok = node.value
    elif isinstance(node, ast.Name):
        tok = node.id
    elif isinstance(node, ast.Attribute):
        tok = node.attr
    else:
        return None
    if tok == "float":
        tok = "float64"
    return tok if tok in KNOWN_DTYPES else None


def infer_dtype(flow: FunctionDataflow, node: ast.expr, *, depth: int = 6) -> str | None:
    """Best-effort dtype of ``node`` (``None`` = no claim)."""
    if depth <= 0:
        return None
    if isinstance(node, ast.Name):
        assign = flow.last_def_before(node.id, node)
        if (isinstance(assign, ast.Assign) and len(assign.targets) == 1
                and isinstance(assign.targets[0], ast.Name)):
            return infer_dtype(flow, assign.value, depth=depth - 1)
        return None
    if not isinstance(node, ast.Call):
        return None
    from tools.reprolint.rules import keyword_value
    method = node.func.attr if isinstance(node.func, ast.Attribute) else None
    if method == "astype" and node.args:
        return dtype_token(node.args[0])
    np_name = _np_func(flow, node)
    explicit = dtype_token(keyword_value(node, "dtype"))
    if explicit is not None:
        return explicit
    if np_name in _DTYPE_DEFAULT_FLOAT:
        return "float64"
    if np_name == "arange":
        return None  # int64 or float64 depending on the arguments
    if np_name in {"asarray", "ascontiguousarray", "copy"} and node.args:
        return infer_dtype(flow, node.args[0], depth=depth - 1)
    if method == "copy" and isinstance(node.func, ast.Attribute):
        return infer_dtype(flow, node.func.value, depth=depth - 1)
    return None
