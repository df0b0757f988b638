"""Instrumented ascending sorts over signed 64-bit integers.

:func:`arc_sort` classifies keys by decimal digit count: bucket 0 collects
every non-positive value (zero included, by convention), bucket b >= 1
the positive values with exactly b digits.  The classes cover disjoint,
increasing value ranges, so sorting each bucket independently and
concatenating in bucket order sorts the whole input.  ``arc_sort``
returns a new list; the four in-place sorts mutate the sequence they are
given and return it.  All five report their work through a
:class:`SortMetrics` accumulator and are deterministic: the same input
always yields the same output and the same counts.  Only insertion and
bubble sort are stable, which is unobservable on plain integers.

Each sort has exactly one definition, the plain-Python loop below, and
each ends every pass in the state of its index loop in
``tests/oracles.py``, so outputs and counts are that loop's.  The two
selection sorts keep their unsorted part as consecutive blocks of
``_BLOCK`` keys, in the order the index loop's scan reads it: data order
for ``selection_sort``, reversed for ``enhanced_selection_sort``.  A pass
pops its candidate from the head block and scans the rest by value,
with no per-element subscript, noting the block of each promotion.
Each kernel promotes on a strict test (`<`, or `>` against a threshold
that starts at ``top - 1``), so the extreme is promoted where the scan
first meets it.  No key before it in the last promotion's block equals
it, so one C-level ``list.index`` of that block finds the index loop's
slot.  These two run every comparison they count.  The two baselines
compute their counts rather than run them, which ROADMAP allows to them
only: insertion sort reports its index loop's comparisons, not the ones
its binary search makes, and bubble sort moves each pass's non-records
as one block and stores only its records, found once from each key's
count of larger keys to its left.

Every sort first applies the key rule of :func:`check_keys`, once per
call: a non-int key with ``__index__`` is replaced by its int, and a
``bool``, any other key or a key outside int64 raises before the first
pass, naming the first such key in input order.  Only :func:`_public`,
which makes each in-place sort from its kernel, kept as ``.kernel``, and
:func:`distribute`, for ``arc_sort``, call it.

Bubble sort alone also has a compiled twin, the index loop itself in
``_ckernels.c``.  Its public sort runs that twin whenever
:mod:`arcsort._compiled` can build and load it, and its pure kernel
otherwise.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Callable, Iterable, MutableSequence, Sequence
from functools import partial
from itertools import chain, islice
from operator import index, le

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
MAX_DIGITS = len(str(INT64_MAX))  # the most decimal digits an int64 key has
# keys per block of the selection sorts' working list: a pass starts one
# loop per block and searches one block for its slot
_BLOCK = 64


class SortMetrics:
    """Running totals of element-level work done by one or more sort calls.

    comparisons counts element-to-element order tests, swaps counts
    two-element exchanges, and writes counts single element stores
    (insertion sort's shifts).  Counters accumulate across calls; a fresh
    instance starts a fresh measurement.  Two instances are equal when all
    three counts are; like any mutable record, it is unhashable.
    """

    def __init__(self, comparisons: int = 0, swaps: int = 0, writes: int = 0) -> None:
        self.comparisons = comparisons
        self.swaps = swaps
        self.writes = writes

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(comparisons={self.comparisons!r}, "
            f"swaps={self.swaps!r}, writes={self.writes!r})"
        )

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.comparisons, self.swaps, self.writes) == (
            other.comparisons, other.swaps, other.writes  # type: ignore[attr-defined]
        )


def check_keys(data: MutableSequence) -> None:
    """Make every key of ``data`` a plain int in the int64 range, in place.

    Raises :class:`TypeError` or :class:`OverflowError` naming the first
    key that cannot be one.  A plain int costs one type test.
    """
    for i, x in enumerate(data):
        if type(x) is not int:
            # bool has __index__, but len(str(True)) would file it as a 4-digit key
            if isinstance(x, bool) or not hasattr(type(x), "__index__"):
                raise TypeError(f"{x!r} is not an integer key")
            data[i] = x = index(x)
        if not INT64_MIN <= x <= INT64_MAX:
            raise OverflowError(f"{x} is outside the signed 64-bit range")


def _public(kernel: Callable[[MutableSequence[int], SortMetrics], None], compiled: bool = False):
    """The public sort of ``kernel``: check the keys, default the metrics, return the data.

    A ``compiled`` kernel runs as its twin of the same name in
    ``_ckernels.c`` whenever :mod:`arcsort._compiled` loads it, and as
    itself otherwise.  The sort keeps the flag as ``.compiled``.
    """

    def sort(data: MutableSequence[int], metrics: SortMetrics | None = None) -> MutableSequence[int]:
        check_keys(data)
        metrics = SortMetrics() if metrics is None else metrics
        if compiled:
            from ._compiled import run  # imported by the first such call, not at launch

            if run(kernel.__name__, data, metrics):
                return data
        kernel(data, metrics)
        return data

    # not functools.wraps: its __wrapped__ would make signature() show the kernel's
    sort.__name__ = kernel.__name__
    sort.__qualname__ = kernel.__qualname__
    sort.__doc__ = kernel.__doc__
    sort.kernel = kernel
    sort.compiled = compiled
    return sort


@_public
def enhanced_selection_sort(data: MutableSequence[int], metrics: SortMetrics) -> None:
    """Sort ascending by repeatedly swapping the maximum to the end.

    The unsorted part is kept reversed, as consecutive blocks of
    ``_BLOCK`` keys, so each pass pops its candidate ``data[last]`` from
    the head block and scans the rest by value from ``data[last - 1]``
    down to ``data[0]``.  It promotes on a strict `>` against a threshold
    that starts at ``top - 1``: on int keys the first promotion is the
    first key ``>= top``, so the candidate loses ties, and the maximum is
    promoted where this scan first meets it, at its LAST occurrence in
    ``data``.  Each promotion notes its block, and ``list.index`` finds
    that first occurrence in the last promotion's block: the slot the
    index loop's `>=` scan picks, so every state and count is that
    loop's.  Exactly n(n-1)/2 comparisons and at most n-1 swaps; on
    duplicates a pair of equal values can be swapped, which is kept so
    swap counts stay reproducible.
    """
    swaps = 0
    w = list(data)  # a plain list: any mutable sequence may come in, and not all slice
    w.reverse()
    blocks = [w[i:i + _BLOCK] for i in range(0, len(w), _BLOCK)]
    for last in range(len(data) - 1, 0, -1):
        head = blocks[0]
        top = head.pop(0)
        if not head:
            del blocks[0]
        best_val = top - 1
        hit = None
        for blk in blocks:
            for v in blk:
                if v > best_val:
                    best_val = v
                    hit = blk
        if hit is None:
            best_val = top
        else:
            hit[hit.index(best_val)] = top
            swaps += 1
        data[last] = best_val
    if blocks:
        data[0] = blocks[0][0]
    metrics.comparisons += len(data) * (len(data) - 1) // 2
    metrics.swaps += swaps


@_public
def selection_sort(data: MutableSequence[int], metrics: SortMetrics) -> None:
    """Classic minimum-selection sort: one swap per pass, no early exit.

    The unsorted part is kept in data order, in blocks as in
    :func:`enhanced_selection_sort`, so pass i pops ``data[i]`` from the
    head block as the candidate and scans the rest by value from
    ``data[i + 1]`` on, promoting on the index loop's strict `<`.  The
    minimum is promoted where the scan first meets it, and ``list.index``
    finds that first occurrence in the last promotion's block: the slot
    the index loop picks.  The swap is due iff a key was promoted, so
    every count is the index loop's.  Exactly n(n-1)/2 comparisons and at
    most n-1 swaps.
    """
    swaps = 0
    w = list(data)
    blocks = [w[i:i + _BLOCK] for i in range(0, len(w), _BLOCK)]
    for i in range(len(data) - 1):
        head = blocks[0]
        top = head.pop(0)
        if not head:
            del blocks[0]
        best_val = top
        hit = None
        for blk in blocks:
            for v in blk:
                if v < best_val:
                    best_val = v
                    hit = blk
        if hit is not None:
            hit[hit.index(best_val)] = top
            swaps += 1
        data[i] = best_val
    if blocks:
        data[-1] = blocks[0][0]
    metrics.comparisons += len(data) * (len(data) - 1) // 2
    metrics.swaps += swaps


@_public
def insertion_sort(data: MutableSequence[int], metrics: SortMetrics) -> None:
    """Insertion sort: a key no smaller than its left neighbour costs one
    comparison; any other goes to the slot ``bisect_right`` finds, where the
    shift loop in ``tests/oracles.py`` stops, and its block moves in one step.
    Every pass ends in that loop's state, and the counts are that loop's:
    shift stores and ``data[j] > key`` tests, not the comparisons run here.
    """
    comparisons = 0
    writes = 0
    for i in range(1, len(data)):
        key = data[i]
        if data[i - 1] <= key:
            comparisons += 1
            continue
        pos = bisect_right(data, key, 0, i - 1)
        del data[i]
        data.insert(pos, key)
        writes += i - pos
        comparisons += i - pos + (pos > 0)  # plus the test that stopped the scan, if one did
    metrics.comparisons += comparisons
    metrics.writes += writes


@partial(_public, compiled=True)
def bubble_sort(data: MutableSequence[int], metrics: SortMetrics) -> None:
    """Adjacent-swap passes, stopping after the first pass with no swap.

    A pass carries each left-to-right maximum of ``data[:limit + 1]`` (a
    *record*) up to the next one and every other key one slot left (Knuth
    §5.2.2).  A sorted input is one C-level check.  Any other
    input finds, once and by binary search, each key's count ``c`` of larger
    keys to its left: the key is a record from pass ``c + 1`` on.  Each pass
    is then one block move of ``data[1:limit + 1]`` left, plus a store of
    each record's key in the slot before the next record, and the last
    record lands in ``data[limit]``.  Record slots are kept as slot plus
    passes done, where they never move, beside their keys in ascending
    order.  Every pass ends in the state of the index loop in
    ``tests/oracles.py``, and the counts are that loop's: ``limit``
    comparisons a pass and a swap for each key that is not a record.
    The public sort runs that loop itself, compiled from ``_ckernels.c``,
    whenever :mod:`arcsort._compiled` loads it, and this body otherwise.
    """
    n = len(data)
    comparisons = 0
    swaps = 0
    if n > 1 and all(map(le, data, islice(data, 1, None))):
        comparisons = n - 1
    else:
        prefix = []
        arrivals = [[] for _ in range(n)]  # arrivals[c]: the slots of the keys with count c
        for j, x in enumerate(data):
            insort(prefix, x)
            arrivals[j + 1 - bisect_right(prefix, x)].append(j)
        slots = []
        keys = []
        for done, limit in enumerate(range(n - 1, 0, -1)):
            for j in arrivals[done]:
                # a key that was no record moved one slot left a pass; records
                # ascend with their slots, so the two lists still pair up
                insort(slots, j)
                insort(keys, data[j - done])
            records = len(keys)
            top = keys.pop()
            del slots[0]  # slot ``done``, now left of data[0]
            del data[0]
            data.insert(limit, top)
            shift = done + 1
            for s, x in zip(slots, keys):
                data[s - shift] = x
            comparisons += limit
            swaps += limit + 1 - records
            if records > limit:
                break
    metrics.comparisons += comparisons
    metrics.swaps += swaps


def count_digits(x: int) -> int:
    """Return the bucket index for ``x``: 0 if x <= 0, else its digit count."""
    return len(str(x)) if x > 0 else 0


class BucketTable:
    """Elements grouped by digit class, in arrival order.

    ``buckets[b]`` holds the inputs whose bucket index is ``b``; the last
    bucket is the highest index observed.  Two tables are equal when
    their buckets are; a table is unhashable.
    """

    def __init__(self, buckets: list[list[int]] | None = None) -> None:
        self.buckets = [[]] if buckets is None else buckets

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(buckets={self.buckets!r})"

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.buckets == other.buckets  # type: ignore[attr-defined]

    @property
    def occupancy(self) -> list[int]:
        return [len(b) for b in self.buckets]


def distribute(values: Iterable[int]) -> BucketTable:
    """Scatter values into digit-class buckets, preserving arrival order.

    The values are copied and put through :func:`check_keys`
    before the scatter, so the buckets hold plain ints and a bad key
    raises :class:`TypeError` or :class:`OverflowError` naming the first
    one in input order, as every sort does.  ``values`` is not changed.
    """
    keys = list(values)
    check_keys(keys)
    buckets: list[list[int]] = [[] for _ in range(MAX_DIGITS + 1)]
    for x in keys:
        buckets[count_digits(x)].append(x)
    while len(buckets) > 1 and not buckets[-1]:  # bucket 0 stays, even empty
        buckets.pop()
    return BucketTable(buckets)


def concatenate(table: BucketTable) -> list[int]:
    """Flatten the table in ascending bucket order."""
    return list(chain.from_iterable(table.buckets))


def arc_sort(data: Sequence[int], metrics: SortMetrics | None = None) -> list[int]:
    """Return the values sorted ascending; the input is left untouched.

    Distributes into digit-class buckets, sorts each bucket holding at
    least two elements with :func:`enhanced_selection_sort` (singleton and
    empty buckets are skipped outright), and concatenates in bucket order.
    Metrics accumulate across the per-bucket sorts, so total comparisons
    equal the sum of c(c-1)/2 over bucket occupancies c.  The keys are
    checked once, by :func:`distribute`, so each bucket runs the sort's kernel.
    """
    metrics = SortMetrics() if metrics is None else metrics
    table = distribute(data)
    for bucket in table.buckets:
        if len(bucket) > 1:
            enhanced_selection_sort.kernel(bucket, metrics)
    return concatenate(table)


# name -> the public sort: callable(buffer, metrics) -> sorted list.  The
# four in-place sorts mutate the buffer and return it, so callers pass a
# throwaway copy; arc_sort returns a new list.
ALGORITHMS: dict[str, Callable[[list[int], SortMetrics | None], Sequence[int]]] = {
    "arc": arc_sort,
    "enhanced-selection": enhanced_selection_sort,
    "selection": selection_sort,
    "insertion": insertion_sort,
    "bubble": bubble_sort,
}
