"""Independent reference implementations used only to check the library.

These deliberately do NOT share code or structure with ``arcsort``: the
max-selection reference is recursive where the library is iterative, the
digit classifier compares against decade bounds instead of measuring the
decimal string, and the bucket model is a plain dict.  Counts produced
here are the expected values the tests freeze and assert.
"""

from __future__ import annotations

from collections import defaultdict


def max_select_recursive(a: list[int], size: int, counts: dict[str, int]) -> None:
    """Recursive max-selection over ``a[:size]``: candidate starts at the
    last slot, is replaced on `>=` scanning left to right, and is swapped
    into the last slot only when it is not already there."""
    if size > 1:
        index = size - 1
        best = a[index]
        for i in range(size - 1):
            counts["comparisons"] += 1
            if a[i] >= best:
                best = a[i]
                index = i
        if index != size - 1:
            a[index], a[size - 1] = a[size - 1], a[index]
            counts["swaps"] += 1
        max_select_recursive(a, size - 1, counts)


def reference_enhanced_selection(values: list[int]) -> tuple[list[int], int, int]:
    """Return (sorted copy, comparisons, swaps) per the recursive procedure."""
    a = list(values)
    counts = {"comparisons": 0, "swaps": 0}
    max_select_recursive(a, len(a), counts)
    return a, counts["comparisons"], counts["swaps"]


def reference_selection(values: list[int]) -> tuple[list[int], int, int]:
    """Return (sorted copy, comparisons, swaps) of index-loop min-selection.

    Pass i scans ``a[i+1:]`` left to right, promoting the candidate on a
    strict `<` so the FIRST occurrence of the minimum wins, and swaps it
    into slot i only when it is not already there.
    """
    a = list(values)
    n = len(a)
    comparisons = 0
    swaps = 0
    for i in range(n - 1):
        best = i
        for j in range(i + 1, n):
            comparisons += 1
            if a[j] < a[best]:
                best = j
        if best != i:
            a[best], a[i] = a[i], a[best]
            swaps += 1
    return a, comparisons, swaps


def reference_insertion(values: list[int]) -> tuple[list[int], int, int]:
    """Return (sorted copy, comparisons, writes) of index-loop insertion.

    Pass i shifts right every element of ``data[:i]`` that is strictly
    greater than the key, counting each executed ``data[j] > key`` test
    and each shift store; the final key placement is not a counted write.
    """
    data = list(values)
    comparisons = 0
    writes = 0
    for i in range(1, len(data)):
        key = data[i]
        j = i - 1
        while j >= 0 and data[j] > key:
            data[j + 1] = data[j]
            writes += 1
            comparisons += 1
            j -= 1
        if j >= 0:
            comparisons += 1  # the failed data[j] > key test that ended the scan
        data[j + 1] = key
    return data, comparisons, writes


def insertion_comparisons(values: list[int]) -> int:
    """Comparisons of index-loop insertion from the input alone: a shift for
    each earlier value strictly greater than the key, plus the test that
    stopped the scan, made unless every earlier value is greater."""
    return sum(
        sum(x > y for x in values[:j]) + any(x <= y for x in values[:j])
        for j, y in enumerate(values)
    )


def reference_bubble(
    values: list[int], passes: list[list[int]] | None = None
) -> tuple[list[int], int, int]:
    """Return (sorted copy, comparisons, swaps) of index-loop bubble sort.

    Pass i compares ``a[j] > a[j+1]`` for every j below ``n-1-i``, swapping
    on a strict `>`, and the sort stops after the first pass with no swap.
    The array as each pass leaves it is appended to ``passes`` if given.
    """
    a = list(values)
    n = len(a)
    comparisons = 0
    swaps = 0
    for i in range(n - 1):
        swapped = False
        for j in range(n - 1 - i):
            comparisons += 1
            if a[j] > a[j + 1]:
                a[j], a[j + 1] = a[j + 1], a[j]
                swaps += 1
                swapped = True
        if passes is not None:
            passes.append(list(a))
        if not swapped:
            break
    return a, comparisons, swaps


def bubble_count_laws(values: list[int]) -> tuple[int, int]:
    """(comparisons, swaps) of bubble sort from the input alone (Knuth §5.2.2).

    With ``left[j]`` the number of earlier values strictly greater than
    ``values[j]``, each pass lowers every nonzero ``left[j]`` by one, so
    swaps are the inversions, ``sum(left)``, and the sort makes
    ``P = min(n-1, 1 + max(left))`` passes of n-1-i comparisons each.
    """
    n = len(values)
    left = [sum(x > y for x in values[:j]) for j, y in enumerate(values)]
    passes = min(n - 1, 1 + max(left)) if n >= 2 else 0
    return sum(n - 1 - i for i in range(passes)), sum(left)


def reference_digit_class(x: int) -> int:
    """Digit count of x via decade bounds: d such that 10**(d-1) <= x < 10**d."""
    if x <= 0:
        return 0
    d = 1
    while x >= 10**d:
        d += 1
    return d


def reference_buckets(values: list[int]) -> dict[int, list[int]]:
    """Arrival-ordered bucket model keyed by digit class."""
    table = defaultdict(list)
    for x in values:
        table[reference_digit_class(x)].append(x)
    return dict(table)


def reference_arc(values: list[int]) -> tuple[list[int], int, int]:
    """Bucket, max-select each bucket recursively, concatenate ascending."""
    table = reference_buckets(values)
    out: list[int] = []
    comparisons = 0
    swaps = 0
    for b in sorted(table):
        chunk, c, s = reference_enhanced_selection(table[b])
        out.extend(chunk)
        comparisons += c
        swaps += s
    return out, comparisons, swaps


def pair_comparisons(n: int) -> int:
    """Comparisons a full selection scan family performs on n elements."""
    return n * (n - 1) // 2
