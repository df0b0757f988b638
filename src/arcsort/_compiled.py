"""The compiled kernels of ``_ckernels.c``: built, cached and loaded once the load pays.

:mod:`arcsort.sorts` imports this module at the call of a twinned sort
that its load rule (``sorts.LOAD_AT``) sends to C, and :func:`run` runs
that call there.  Once :func:`kernels` has run, by that rule or called
directly, every such call runs C at every size.  So a launch that sorts
a few short inputs imports neither this module nor ``ctypes`` and spawns
no ``cc``, and both backends give the same outputs and counts.
"""

from __future__ import annotations

import os
from functools import cache

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:  # for the annotations only; sorts imports this module, not the reverse
    from array import array

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
    load gives None, and the sorts run their pure kernels.  Its first
    call opens the load rule's gate in :mod:`arcsort.sorts` for the rest
    of the process.
    """
    from . import sorts

    sorts._loaded = True
    import ctypes
    from binascii import crc32  # not hashlib: its OpenSSL adds 3.7 MB to a process

    source = os.path.join(os.path.dirname(__file__), "_ckernels.c")
    try:
        with open(source, "rb") as f:
            key = crc32(f.read() + b"\0" + " ".join(_CFLAGS).encode())
        cache_home = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(cache_home):  # unset, empty or relative: the XDG spec ignores it
            cache_home = os.path.expanduser("~/.cache")
        cache_dir = os.path.join(cache_home, "arcsort")
        path = os.path.join(cache_dir, f"_ckernels-{key:08x}.so")
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not built yet, or built into something this host cannot load
            import subprocess
            import tempfile

            fresh = not os.path.isdir(cache_dir)  # made here, so removed again unless a build lands
            os.makedirs(cache_dir, exist_ok=True)
            try:
                with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
                    built = os.path.join(tmp, "_ckernels.so")
                    cc = subprocess.run(["cc", *_CFLAGS, "-o", built, source], capture_output=True)
                    if cc.returncode:
                        return None
                    lib = ctypes.CDLL(built)
                    os.replace(built, path)
                    fresh = False
            finally:
                if fresh:  # nothing landed: leave no directory either
                    os.rmdir(cache_dir)  # OSError, so None, while another process builds in it
    except OSError:  # FileNotFoundError too, where no cc is on PATH
        return None
    return lib


def run(name: str, keys: list[int], metrics: SortMetrics) -> array | None:
    """``keys`` sorted by the kernel ``name`` of :func:`kernels`, as an ``array('q')``,
    with its comparisons and swaps added to ``metrics``; None, touching nothing, if
    no library loads.

    The keys must have passed ``sorts.check_keys``: ``array('q')`` would
    take a bool as 1.  The caller gives up the list: it is emptied once
    the array holds its keys, so it is freed before the caller turns the
    result into a list.  A kernel that cannot allocate its scratch space
    raises :class:`MemoryError`, with ``metrics`` untouched.
    """
    lib = kernels()
    if lib is None:
        return None
    from array import array
    from ctypes import c_int64, c_void_p

    kernel = getattr(lib, name)  # void name(int64_t *a, int64_t n, int64_t *counts), as all are
    kernel.argtypes, kernel.restype = (c_void_p, c_int64, c_void_p), None
    packed = array("q", keys)
    keys.clear()
    counts = array("q", (0, 0))
    kernel(packed.buffer_info()[0], len(packed), counts.buffer_info()[0])
    if counts[0] < 0:
        raise MemoryError(f"{name} could not allocate scratch space for {len(packed)} keys")
    metrics.comparisons += counts[0]
    metrics.swaps += counts[1]
    return packed
