"""The compiled kernels of ``_ckernels.c``: built, cached and loaded once the load pays.

:mod:`arcsort.sorts` imports this module on the first call of a sort
whose kernel has a compiled twin, and :func:`run` is the one place that
chooses the backend.  It follows the ski-rental rule of Karlin,
Manasse, Rudolph and Sleator (1988, "Competitive snoopy caching"): each
call is charged its n(n-1)/2 and runs pure until the process's charge
reaches :data:`LOAD_AT`, the pure work that costs about one load; that
call loads.  Once :func:`kernels` has run, by that rule or called
directly, every call runs C at every size.  So a launch that sorts a few
short inputs imports no ``ctypes`` and spawns no ``cc``, and both
backends give the same outputs and counts.
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

# The n(n-1)/2 charge at which run() loads the library.  Measured with one
# CPU of a 2 vCPU Xeon, Python 3.11, gcc 12, a warm cache and no bytecode
# written: a fresh process that imported this module and sorted six keys
# took 1.8 ms longer when it called kernels() first (ctypes, the CRC, the
# dlopen, array and a C call in place of a pure one, medians of 40), and
# a pure call cost 9-26 ns a unit of n(n-1)/2 for arc and 17-50 ns for
# bubble, at n = 64-512 (the more keys, the less).  So 1.5e5 units of
# pure work, at 12 ns a unit, cost about one load.
LOAD_AT = 150_000

_loaded = False  # kernels() has run in this process: run() calls it at every size
_charged = 0  # the n(n-1)/2 of every run() call made before that


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
    call opens :func:`run`'s gate for the rest of the process.
    """
    global _loaded
    _loaded = True
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
    the call is to run pure: the library has not paid for its load yet, or none loads.

    The keys must have passed ``sorts.check_keys``: ``array('q')`` would
    take a bool as 1.  The caller gives up the list: it is emptied once
    the array holds its keys, so it is freed before the caller turns the
    result into a list.  A kernel that cannot allocate its scratch space
    raises :class:`MemoryError`, with ``metrics`` untouched.
    """
    global _charged
    if not _loaded:
        _charged += len(keys) * (len(keys) - 1) // 2
        if _charged < LOAD_AT:
            return None
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
