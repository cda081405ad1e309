"""Lazy on-demand build of the native BDD kernel (`kernel.c`).

The shared library is compiled at first use with the system C compiler
and cached under a content-addressed file name: the artifact embeds a
hash of the C source, so editing ``kernel.c`` makes the old artifact
stale by construction and the next load rebuilds — no timestamps, no
build system.  Everything degrades gracefully: a missing compiler or a
failed compile yields ``(None, reason)`` and the caller (the ``native``
backend factory) falls back to the object kernel.

Environment knobs:

* ``REPRO_NATIVE_CC``    — compiler executable (name or path); default
  is the first of ``cc``, ``gcc``, ``clang`` found on ``PATH``.
* ``REPRO_NATIVE_CACHE`` — artifact directory; default is
  ``$XDG_CACHE_HOME/repro/native`` (or ``~/.cache/repro/native``).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

#: the single C translation unit of the kernel
KERNEL_SOURCE = Path(__file__).with_name("kernel.c")

#: compiler override environment variable
CC_ENV = "REPRO_NATIVE_CC"

#: artifact-directory override environment variable
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: candidate compilers, in preference order, when no override is set
COMPILER_CANDIDATES = ("cc", "gcc", "clang")

#: flags for a small position-independent shared object
CFLAGS = ("-O2", "-fPIC", "-shared")

#: expected ``nat_abi_version()`` of a loadable artifact
ABI_VERSION = 2

# (lib, reason) memo of the one load attempt per process; retried only
# when a test resets it explicitly.
_LOADED: tuple[ctypes.CDLL | None, str | None] | None = None


def find_compiler() -> str | None:
    """The compiler executable to use, or ``None`` when there is none.

    ``$REPRO_NATIVE_CC`` wins (its absence from PATH is an error surfaced
    as a fallback reason, not silently ignored); otherwise the first of
    ``cc``/``gcc``/``clang`` found wins.
    """
    override = os.environ.get(CC_ENV)
    if override:
        return shutil.which(override) or override
    for name in COMPILER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def source_digest(source: Path = KERNEL_SOURCE) -> str:
    """SHA-256 of the C source — the identity of a built artifact."""
    return hashlib.sha256(source.read_bytes()).hexdigest()


def artifact_dir() -> Path:
    """Where built kernels live (created on demand)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "native"


def artifact_path(source: Path = KERNEL_SOURCE) -> Path:
    """The content-addressed artifact for the current source text."""
    return artifact_dir() / f"libreprobdd-{source_digest(source)[:16]}.so"


def build_kernel(
    source: Path = KERNEL_SOURCE, force: bool = False
) -> tuple[Path | None, str | None]:
    """Compile ``source`` if its artifact is missing (or ``force``).

    Returns ``(artifact, None)`` on success and ``(None, reason)`` on any
    failure — no exception escapes, because a broken toolchain must
    degrade to the object kernel, not break the run.
    """
    try:
        artifact = artifact_path(source)
    except OSError as exc:
        return None, f"cannot read kernel source: {exc}"
    if artifact.exists() and not force:
        return artifact, None
    cc = find_compiler()
    if cc is None:
        return None, "no C compiler found (cc/gcc/clang; set $REPRO_NATIVE_CC)"
    tmp = None
    try:
        artifact.parent.mkdir(parents=True, exist_ok=True)
        # compile to a temp name then rename: concurrent builders race
        # benignly (same content-addressed target, atomic replace)
        fd, tmp = tempfile.mkstemp(
            suffix=".so", prefix="libreprobdd-", dir=artifact.parent
        )
        os.close(fd)
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(source)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip().splitlines()
            head = detail[0] if detail else "no compiler output"
            return None, f"{Path(cc).name} failed (exit {proc.returncode}): {head}"
        os.replace(tmp, artifact)
        tmp = None
        return artifact, None
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"build failed: {exc}"
    finally:
        # every failure path (non-zero exit, compiler missing, timeout)
        # leaves the temp file behind; a successful build renamed it
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def load_kernel() -> tuple[ctypes.CDLL | None, str | None]:
    """The loaded kernel library, building it first if needed.

    Memoized per process: one build/load attempt, then the same
    ``(lib, reason)`` answer forever (tests reset ``_LOADED`` to retry).
    """
    global _LOADED
    if _LOADED is not None:
        return _LOADED
    artifact, reason = build_kernel()
    if artifact is None:
        _LOADED = (None, reason)
        return _LOADED
    try:
        lib = ctypes.CDLL(str(artifact))
        _configure(lib)
        if lib.nat_abi_version() != ABI_VERSION:
            raise OSError(f"ABI mismatch in {artifact}")
    except OSError as exc:
        # stale or corrupt artifact: rebuild once from scratch
        try:
            artifact.unlink(missing_ok=True)
        except OSError:
            pass
        artifact, reason = build_kernel(force=True)
        if artifact is None:
            _LOADED = (None, f"reload failed ({exc}); rebuild: {reason}")
            return _LOADED
        try:
            lib = ctypes.CDLL(str(artifact))
            _configure(lib)
        except OSError as exc2:
            _LOADED = (None, f"cannot load built kernel: {exc2}")
            return _LOADED
    _LOADED = (lib, None)
    return _LOADED


def _configure(lib: ctypes.CDLL) -> None:
    """Declare the nat_* ABI (argument/return types) on ``lib``."""
    c = ctypes
    i32 = c.c_int32
    i64 = c.c_int64
    p = c.c_void_p
    i32p = c.POINTER(c.c_int32)
    i64p = c.POINTER(c.c_int64)
    lib.nat_new.argtypes = [i64, i64]
    lib.nat_new.restype = p
    lib.nat_free.argtypes = [p]
    lib.nat_free.restype = None
    lib.nat_add_var.argtypes = [p]
    lib.nat_add_var.restype = None
    lib.nat_set_node_cap.argtypes = [p, i64]
    lib.nat_set_node_cap.restype = None
    lib.nat_load.argtypes = [p, i64, i32p, i32p, i32p, i32, i32p, i64]
    lib.nat_load.restype = None
    lib.nat_num_nodes.argtypes = [p]
    lib.nat_num_nodes.restype = i64
    lib.nat_read_rows.argtypes = [p, i64, i64, i32p, i32p, i32p]
    lib.nat_read_rows.restype = None
    lib.nat_invalidate_caches.argtypes = [p]
    lib.nat_invalidate_caches.restype = None
    lib.nat_read_stats.argtypes = [p, i64p]
    lib.nat_read_stats.restype = None
    lib.nat_reset_stats.argtypes = [p]
    lib.nat_reset_stats.restype = None
    lib.nat_mk.argtypes = [p, i32, i32, i32]
    lib.nat_mk.restype = i64
    lib.nat_not.argtypes = [p, i32]
    lib.nat_not.restype = i64
    lib.nat_and.argtypes = [p, i32, i32]
    lib.nat_and.restype = i64
    lib.nat_or.argtypes = [p, i32, i32]
    lib.nat_or.restype = i64
    lib.nat_xor.argtypes = [p, i32, i32]
    lib.nat_xor.restype = i64
    lib.nat_exists.argtypes = [p, i32, i32p, i32, i64]
    lib.nat_exists.restype = i64
    lib.nat_and_exists.argtypes = [p, i32, i32, i32p, i32, i64]
    lib.nat_and_exists.restype = i64
    lib.nat_and_forall.argtypes = [p, i32, i32, i32p, i32, i64]
    lib.nat_and_forall.restype = i64
    lib.nat_restrict.argtypes = [p, i32, i32p, i32, i32, i64]
    lib.nat_restrict.restype = i64
    lib.nat_abi_version.argtypes = []
    lib.nat_abi_version.restype = i64


__all__ = [
    "ABI_VERSION",
    "CC_ENV",
    "CACHE_ENV",
    "KERNEL_SOURCE",
    "artifact_dir",
    "artifact_path",
    "build_kernel",
    "find_compiler",
    "load_kernel",
    "source_digest",
]
