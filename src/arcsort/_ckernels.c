/* Compiled twins of kernels in sorts.py, called through ctypes.
 *
 * arcsort._compiled builds this file on first use with `cc -O2 -shared
 * -fPIC` and loads it; where it cannot, the pure-Python kernels run.
 * Every function here is void name(int64_t *a, int64_t n, int64_t *counts):
 * it sorts the n keys of a in place, leaving them as its pure twin does,
 * and stores the same counts, the comparisons in counts[0] and the swaps
 * in counts[1]. */

#include <stdint.h>

/* Bubble sort: the index loop of tests/oracles.py::reference_bubble
 * (Knuth, TAOCP vol. 3, 5.2.2).  Pass i compares a[j] > a[j + 1] for
 * every j below n - 1 - i and swaps on a strict `>`; the sort stops
 * after the first pass with no swap.  The pass carries the larger key
 * of each pair in x and stores the smaller one, without a branch: on
 * uniform input the swap test goes either way at random.  Equal keys
 * are not swapped, and storing either one leaves the same array. */
void bubble_sort(int64_t *a, int64_t n, int64_t *counts)
{
    int64_t comparisons = 0, swaps = 0;
    for (int64_t limit = n - 1; limit > 0; limit--) {
        int64_t before = swaps;
        int64_t x = a[0];
        for (int64_t j = 0; j < limit; j++) {
            int64_t y = a[j + 1];
            swaps += x > y;
            a[j] = x < y ? x : y;
            x = x < y ? y : x;
        }
        a[limit] = x;
        comparisons += limit;
        if (swaps == before)
            break;
    }
    counts[0] = comparisons;
    counts[1] = swaps;
}
