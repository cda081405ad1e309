#!/usr/bin/env python
"""Build (or rebuild) the native BDD kernel shared library.

The kernel normally builds itself lazily on first ``backend=native`` use;
this script exists for CI and for humans who want the build step explicit
and its diagnostics visible.

Usage::

    PYTHONPATH=src python scripts/build_native.py [--force] [--status]

``--force`` rebuilds even when the content-addressed artifact already
exists.  ``--status`` only reports what a lazy load would do (compiler,
artifact path, availability) without building.  Exit code is 0 when the
kernel is (or would be) available, 1 otherwise — except with
``--allow-fallback``, where a missing toolchain is reported but exits 0,
mirroring the runtime's graceful degradation to the object kernel.  A
build also fails when the runtime still cannot use the kernel
(``native_status()``, e.g. without numpy).

Environment: ``REPRO_NATIVE_CC`` overrides the compiler,
``REPRO_NATIVE_CACHE`` the artifact directory.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force", action="store_true", help="rebuild even if the artifact exists"
    )
    parser.add_argument(
        "--status",
        action="store_true",
        help="report compiler/artifact status without building",
    )
    parser.add_argument(
        "--allow-fallback",
        action="store_true",
        help="exit 0 even when no kernel can be built (object-kernel fallback)",
    )
    args = parser.parse_args(argv)

    from repro.bdd._native import build

    print(f"source    : {build.KERNEL_SOURCE}")
    print(f"digest    : {build.source_digest()[:16]}")
    print(f"compiler  : {build.find_compiler() or '(none found)'}")
    print(f"artifact  : {build.artifact_path()}")

    if args.status:
        available = build.artifact_path().exists() or build.find_compiler()
        print(f"available : {bool(available)}")
        return 0 if (available or args.allow_fallback) else 1

    artifact, reason = build.build_kernel(force=args.force)
    if artifact is None:
        print(f"build     : FAILED ({reason})", file=sys.stderr)
        return 0 if args.allow_fallback else 1
    lib, reason = build.load_kernel()
    if lib is None:
        print(f"load      : FAILED ({reason})", file=sys.stderr)
        return 0 if args.allow_fallback else 1
    print(f"build     : ok (abi {lib.nat_abi_version()})")
    from repro.bdd.native_backend import native_status

    available, reason = native_status()
    if not available:
        print(f"runtime   : FAILED ({reason})", file=sys.stderr)
        return 0 if args.allow_fallback else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
