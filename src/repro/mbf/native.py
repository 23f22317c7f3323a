"""The compiled LE step: build ``_lestep.c`` on first use and load it with ctypes.

Every LE step runs this library; there is no other implementation in the
library (the tests keep a NumPy reference).  :func:`library` compiles the
C file once per cache, with the system C compiler (``cc``), into
``${XDG_CACHE_HOME:-~/.cache}/repro-frt-mbf/`` under a name that hashes the
source and the flags.  The library is written under a temporary name and
moved into place with :func:`os.replace`, so processes that build it at
the same time (shard workers) each load a whole file.  If that directory
cannot be written, the build goes to a temporary directory of the process,
removed once the library is loaded.  If no compiler works,
:func:`library` raises :class:`LEStepBuildError` with the compiler's
message, and keeps nothing: the next LE step tries again.

Each version of the source leaves its own ``lestep-<hash>.so`` (about
15 KB) in the cache, and nothing deletes old ones, on purpose: two
checkouts that share one cache, such as the two trees of an A/B
benchmark, would otherwise delete each other's library and recompile on
alternate runs.  Removing the directory is always safe.

The flags keep the arithmetic exact: no ``-ffast-math``, no
``-march=native``, and ``-ffp-contract=off``; the C code's only
floating-point operation is ``d + w``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["LEStepBuildError", "fresh_lists", "library", "le_step"]

_SOURCE = Path(__file__).with_name("_lestep.c")
_FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_I64P = ctypes.POINTER(ctypes.c_int64)
# le_step's parameters, in order (see _lestep.c).
_ARGTYPES = [_I64] * 3 + ([_PTR] * 4 + [_I64]) + ([_PTR] * 3 + [_I64]) + ([_PTR] * 2 + [_I64])
_ARGTYPES += ([_PTR] * 3 + [_I64]) + [_I64, _I64P] + [_PTR] * 6 + [_I64P]
# _lestep.c's error codes (NO_MEMORY, BAD_RANGE, BAD_ID): what each raises.
_ERRORS = {
    -1: (MemoryError, "the compiled LE step could not allocate its survivor buffer"),
    -2: (ValueError, "the LE step met an offset range outside its batch (offsets must rise)"),
    -3: (ValueError, "the LE step met an entry id outside [0, n)"),
}

_library: ctypes.CDLL | None = None


class LEStepBuildError(RuntimeError):
    """The compiled LE step could not be built or loaded.

    Raised by the first LE step of a process without a working C compiler
    (and by every later one: nothing is cached on failure).  The message
    holds the compiler's; ``__cause__`` is the :class:`OSError` behind it.
    """


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro-frt-mbf"


def _compile(out: Path) -> None:
    """Compile the C source to ``out``; the compiler's output is captured."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    proc = subprocess.run(
        [cc, *_FLAGS, "-o", str(out), str(_SOURCE)],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise OSError(f"cc failed ({proc.returncode}): {proc.stderr.strip()[:2000]}")


def _build_into(directory: Path, name: str) -> Path:
    """``directory / name``, compiled unless present; atomic against racers."""
    target = directory / name
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        _compile(Path(tmp))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.le_step.argtypes = _ARGTYPES
    lib.le_step.restype = _I64
    lib.fresh_lists.argtypes = [_I64, _I64] + [_PTR] * 4
    lib.fresh_lists.restype = _I64
    return lib


def _load() -> ctypes.CDLL:
    key = _SOURCE.read_bytes() + " ".join((*_FLAGS, platform.machine())).encode()
    name = f"lestep-{hashlib.sha256(key).hexdigest()[:16]}.so"
    try:
        return _declare(ctypes.CDLL(str(_build_into(_cache_dir(), name))))
    except OSError:
        pass
    # The cache cannot be written (or holds an unloadable file): build into
    # a directory of this process, and remove it once the library is mapped.
    own_dir = Path(tempfile.mkdtemp(prefix="repro-frt-mbf-"))
    try:
        return _declare(ctypes.CDLL(str(_build_into(own_dir, name))))
    finally:
        shutil.rmtree(own_dir, ignore_errors=True)


def library() -> ctypes.CDLL:
    """The compiled LE step, built on the first call and kept for the process.

    Raises :class:`LEStepBuildError` if no compiler works; a failure is not
    kept, so every call tries again.
    """
    global _library
    if _library is None:
        try:
            _library = _load()
        except OSError as exc:
            raise LEStepBuildError(f"the compiled LE step could not be built: {exc}") from exc
    return _library


def _ptr(a: np.ndarray | None, dtype: type) -> int | None:
    """The address of ``a``'s data after checking its dtype and layout."""
    if a is None:
        return None
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise TypeError(f"le_step needs a contiguous {np.dtype(dtype)} array, got {a.dtype}")
    return a.ctypes.data


def fresh_lists(
    lib: ctypes.CDLL,
    offsets: np.ndarray,  # shape: (kn+1,) int64 frozen
    fresh: np.ndarray,  # shape: (total,) bool frozen
) -> tuple[np.ndarray, np.ndarray]:
    """``(f_off, f_slot)``: segment ``t``'s fresh entries are ``f_slot[f_off[t]:f_off[t+1]]``.

    Raises :class:`ValueError` if a segment of ``offsets`` is not a range
    of ``fresh``.
    """
    if fresh.size != offsets[-1]:
        raise ValueError("fresh must mark every entry of the batch")
    f_off = np.empty(offsets.size, dtype=np.int64)
    f_slot = np.empty(int(np.count_nonzero(fresh)) + 1, dtype=np.int64)
    _check(
        lib.fresh_lists(
            offsets.size - 1,
            fresh.size,
            _ptr(offsets, np.int64),
            _ptr(fresh, np.bool_),
            _ptr(f_off, np.int64),
            _ptr(f_slot, np.int64),
        )
    )
    return f_off, f_slot[:-1]


def _check(code: int) -> int:
    """``code`` unless it is one of ``_lestep.c``'s error codes, which raise."""
    if code < 0:
        error, message = _ERRORS[code]
        raise error(message)
    return code


def le_step(
    lib: ctypes.CDLL,
    n: int,  # shape: scalar
    ranks: np.ndarray,  # shape: (kn,) int64 frozen
    edges: tuple,  # (in_off, in_src, in_w): in-edges grouped by target
    states: tuple,  # (offsets, ids, dists) of the states
    fresh: tuple,  # (f_off, f_slot or None) of the fresh entries
    base: tuple | None,  # (offsets, ids, dists) of the base, or None
    cap: int,  # shape: scalar
) -> tuple:
    """``_lestep.c``'s ``le_step`` over all ``kn`` targets, every array checked.

    Returns ``(ids, dists, inserted, counts, changed, any_survivor)``: the
    kept entries, per-target counts, per-sample ``changed`` flags and
    whether any candidate survived the prune.  The output starts at ``cap``
    entries; when a target does not fit, it grows to twice that (or more)
    and the C code resumes at that target.  Raises :class:`MemoryError` if
    the C code could not allocate, and :class:`ValueError` if it met an
    offset range outside its batch or an entry id outside ``[0, n)``.
    """
    in_off, in_src, in_w = edges
    f_off, f_slot = fresh
    b_off, b_ids, b_dist = base if base is not None else (None, None, None)
    kn = ranks.size
    k = kn // n if n else 0
    sizes_ok = (
        k * n == kn
        and in_off.size == n + 1
        and in_src.size == in_w.size
        and states[0].size == f_off.size == kn + 1
        and states[1].size == states[2].size
        and (f_slot is None or f_slot.size == f_off[-1])
        and (base is None or (b_off.size == kn + 1 and b_ids.size == b_dist.size))
    )
    if not sizes_ok:
        raise ValueError("le_step's arrays do not fit one batch")
    args = [
        (ranks, np.int64),
        (in_off, np.int64),
        (in_src, np.int64),
        (in_w, np.float64),
        in_src.size,
        (states[0], np.int64),
        (states[1], np.int64),
        (states[2], np.float64),
        states[1].size,
        (f_off, np.int64),
        (f_slot, np.int64),
        states[1].size if f_slot is None else f_slot.size,
        (b_off, np.int64),
        (b_ids, np.int64),
        (b_dist, np.float64),
        0 if base is None else b_ids.size,
    ]
    args = [a if isinstance(a, int) else _ptr(*a) for a in args]
    ids = np.empty(cap, dtype=np.int64)
    dists = np.empty(cap, dtype=np.float64)
    inserted = np.empty(cap, dtype=bool)
    counts = np.empty(kn, dtype=np.int64)
    changed = np.zeros(k, dtype=bool)
    any_survivor = np.zeros(1, dtype=bool)
    flags = [_ptr(counts, np.int64), _ptr(changed, np.bool_), _ptr(any_survivor, np.bool_)]
    pos, need = ctypes.c_int64(0), ctypes.c_int64(0)
    t = 0
    while t < kn:
        t = _check(
            lib.le_step(
                n,
                t,
                kn,
                *args,
                ids.size,
                ctypes.byref(pos),
                _ptr(ids, np.int64),
                _ptr(dists, np.float64),
                _ptr(inserted, np.bool_),
                *flags,
                ctypes.byref(need),
            )
        )
        if t < kn:
            cap = max(2 * cap, pos.value + need.value)
            ids, dists, inserted = (_grown(a, cap, pos.value) for a in (ids, dists, inserted))
    for a in (ids, dists, inserted):
        a.resize(pos.value, refcheck=False)  # shrinks in place; the arrays are ours alone
    return ids, dists, inserted, counts, changed, bool(any_survivor[0])


def _grown(
    a: np.ndarray,  # shape: (c,) frozen
    cap: int,  # shape: scalar
    used: int,  # shape: scalar
) -> np.ndarray:  # shape: -> (cap,)
    """A ``cap``-entry buffer holding ``a[:used]``."""
    out = np.empty(cap, dtype=a.dtype)
    out[:used] = a[:used]
    return out
