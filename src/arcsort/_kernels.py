"""Compiled hot loops for the instrumented sorts.

Each kernel performs the same passes as a pure-Python implementation in
``sorts``/``buckets``; outputs and operation counts must stay bit-identical,
which the property suite enforces.  The two selection scans are unrolled
into four-way tournaments whose tie direction matches the sequential scan,
so the chosen pivot (and therefore every swap) is unchanged while the
loop-carried compare chain shrinks by 4x.  Import is best-effort and tries
numba first, so without it numpy is never loaded; ``sorts._compiled`` then
keeps the pure implementations, as it does under ``ARCSORT_PURE=1``.
"""

from __future__ import annotations

try:
    from numba import njit
    import numpy as np

    AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    AVAILABLE = False


if AVAILABLE:
    # Digit classes for signed 64-bit values: 0 for x <= 0, else 1..19.
    _NUM_CLASSES = 20

    @njit(cache=True)
    def digit_class(x):
        if x <= 0:
            return 0
        d = 0
        while x > 0:
            x //= 10
            d += 1
        return d

    @njit(cache=True)
    def _max_select_span(a, lo, hi):
        """Sort a[lo:hi] ascending by repeated max selection.

        Per pass the candidate starts at the span's last slot and is
        replaced on `>=` while scanning left to right, so the LAST
        occurrence of the maximum wins and equal values can be swapped.
        The scan walks a zero-based view four elements at a time; inside
        each quartet the later index wins ties, which keeps the selected
        slot identical to the one-at-a-time scan.  Returns
        (comparisons, swaps).
        """
        comparisons = 0
        swaps = 0
        seg = a[lo:hi]
        last = seg.shape[0] - 1
        while last > 0:
            best = last
            best_val = seg[last]
            i = 0
            stop = last & ~3
            while i < stop:
                v0 = seg[i]
                v1 = seg[i + 1]
                v2 = seg[i + 2]
                v3 = seg[i + 3]
                if v1 >= v0:
                    w01 = v1
                    i01 = i + 1
                else:
                    w01 = v0
                    i01 = i
                if v3 >= v2:
                    w23 = v3
                    i23 = i + 3
                else:
                    w23 = v2
                    i23 = i + 2
                if w23 >= w01:
                    w = w23
                    wi = i23
                else:
                    w = w01
                    wi = i01
                if w >= best_val:
                    best_val = w
                    best = wi
                i += 4
            while i < last:
                v = seg[i]
                if v >= best_val:
                    best_val = v
                    best = i
                i += 1
            comparisons += last
            if best != last:
                seg[best] = seg[last]
                seg[last] = best_val
                swaps += 1
            last -= 1
        return comparisons, swaps

    @njit(cache=True)
    def enhanced_selection(a):
        return _max_select_span(a, 0, a.shape[0])

    @njit(cache=True)
    def selection(a):
        # Mirror image of the max-select scan: strict `<`, so the FIRST
        # occurrence of the minimum wins; the quartet tie direction
        # (earlier index) matches, keeping the swap sequence identical
        # to the one-at-a-time scan.
        comparisons = 0
        swaps = 0
        n = a.shape[0]
        for i in range(n - 1):
            best = i
            best_val = a[i]
            j = i + 1
            stop = n - ((n - j) & 3)
            while j < stop:
                v0 = a[j]
                v1 = a[j + 1]
                v2 = a[j + 2]
                v3 = a[j + 3]
                if v1 < v0:
                    w01 = v1
                    i01 = j + 1
                else:
                    w01 = v0
                    i01 = j
                if v3 < v2:
                    w23 = v3
                    i23 = j + 3
                else:
                    w23 = v2
                    i23 = j + 2
                if w23 < w01:
                    w = w23
                    wi = i23
                else:
                    w = w01
                    wi = i01
                if w < best_val:
                    best_val = w
                    best = wi
                j += 4
            while j < n:
                v = a[j]
                if v < best_val:
                    best_val = v
                    best = j
                j += 1
            comparisons += n - 1 - i
            if best != i:
                a[best] = a[i]
                a[i] = best_val
                swaps += 1
        return comparisons, swaps

    @njit(cache=True)
    def insertion(a):
        comparisons = 0
        writes = 0
        n = a.shape[0]
        for i in range(1, n):
            key = a[i]
            j = i - 1
            while j >= 0 and a[j] > key:
                a[j + 1] = a[j]
                writes += 1
                comparisons += 1
                j -= 1
            if j >= 0:
                comparisons += 1  # the failed a[j] > key test that ended the scan
            a[j + 1] = key
        return comparisons, writes

    @njit(cache=True)
    def bubble(a):
        comparisons = 0
        swaps = 0
        n = a.shape[0]
        for i in range(n - 1):
            swapped = False
            limit = n - 1 - i
            for j in range(limit):
                if a[j] > a[j + 1]:
                    tmp = a[j]
                    a[j] = a[j + 1]
                    a[j + 1] = tmp
                    swaps += 1
                    swapped = True
            comparisons += limit
            if not swapped:
                break
        return comparisons, swaps

    @njit(cache=True)
    def arc(a):
        """Bucket by digit class, max-select each bucket, return the result.

        The scatter is stable, so within-bucket arrival order (and hence
        the swap count) matches the list-based distribute path exactly.
        Returns (sorted_array, comparisons, swaps).
        """
        n = a.shape[0]
        classes = np.empty(n, dtype=np.int64)
        counts = np.zeros(_NUM_CLASSES, dtype=np.int64)
        for i in range(n):
            c = digit_class(a[i])
            classes[i] = c
            counts[c] += 1

        starts = np.zeros(_NUM_CLASSES, dtype=np.int64)
        for b in range(1, _NUM_CLASSES):
            starts[b] = starts[b - 1] + counts[b - 1]

        out = np.empty(n, dtype=np.int64)
        cursor = starts.copy()
        for i in range(n):
            c = classes[i]
            out[cursor[c]] = a[i]
            cursor[c] += 1

        comparisons = 0
        swaps = 0
        for b in range(_NUM_CLASSES):
            if counts[b] > 1:
                c, s = _max_select_span(out, starts[b], starts[b] + counts[b])
                comparisons += c
                swaps += s
        return out, comparisons, swaps
