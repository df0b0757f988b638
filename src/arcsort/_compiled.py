"""The compiled kernels of ``_ckernels.c``: built, cached and loaded on first use.

:mod:`arcsort.sorts` imports this module on the first call of a sort
whose kernel has a compiled twin, so a process that runs no such sort
neither compiles it nor loads ``ctypes``.  :func:`kernels` is the one
place that chooses the backend, from what it observes.
"""

from __future__ import annotations

import os
from collections.abc import MutableSequence
from functools import cache

from .sorts import SortMetrics

# how _ckernels.c is built; part of the cached library's name
_CFLAGS = ("-O2", "-shared", "-fPIC")


@cache
def kernels():
    """``_ckernels.c`` built and loaded by ctypes, once a process; None if it cannot be.

    The library is cached in the user cache directory under a name keyed
    by a CRC of the source and :data:`_CFLAGS`, so a build is reused
    until either changes.  Where that name holds nothing this host can
    load, ``cc`` builds into a temporary directory there, and only a
    build that loads is moved onto the name by ``os.replace``: concurrent
    first calls are safe, and a failed build or load leaves nothing
    behind.  No compiler, no writable cache, a failed build or a failed
    load gives None, and the sorts run their pure kernels.
    """
    import ctypes
    from binascii import crc32  # not hashlib: its OpenSSL adds 3.7 MB to a process

    source = os.path.join(os.path.dirname(__file__), "_ckernels.c")
    try:
        with open(source, "rb") as f:
            key = crc32(f.read() + b"\0" + " ".join(_CFLAGS).encode())
        cache_dir = os.path.join(
            os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "arcsort"
        )
        path = os.path.join(cache_dir, f"_ckernels-{key:08x}.so")
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not built yet, or built into something this host cannot load
            import subprocess
            import tempfile

            os.makedirs(cache_dir, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
                built = os.path.join(tmp, "_ckernels.so")
                cc = subprocess.run(["cc", *_CFLAGS, "-o", built, source], capture_output=True)
                if cc.returncode:
                    return None
                lib = ctypes.CDLL(built)
                os.replace(built, path)
    except OSError:  # FileNotFoundError too, where no cc is on PATH
        return None
    lib.bubble_sort.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
    lib.bubble_sort.restype = None
    return lib


def run(name: str, data: MutableSequence[int], metrics: SortMetrics) -> bool:
    """Sort ``data`` in place with the kernel ``name`` of :func:`kernels`, adding
    its comparisons and swaps to ``metrics``; False, touching nothing, if none loads.

    The keys must have passed ``sorts.check_keys``: ``array('q')`` would
    take a bool as 1.
    """
    lib = kernels()
    if lib is None:
        return False
    from array import array

    keys = array("q", data)
    counts = array("q", (0, 0))
    getattr(lib, name)(keys.buffer_info()[0], len(keys), counts.buffer_info()[0])
    if isinstance(data, list):
        data[:] = keys.tolist()
    else:  # a deque, say, takes no slice
        for i, x in enumerate(keys):
            data[i] = x
    metrics.comparisons += counts[0]
    metrics.swaps += counts[1]
    return True
