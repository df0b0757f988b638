/* Compiled twins of kernels in sorts.py, called through ctypes.
 *
 * sorts._ckernels builds this file on first use with `cc -O2 -shared
 * -fPIC` and loads it; where it cannot, the pure-Python kernels run.
 * Each function here takes the keys as int64_t, leaves them as its pure
 * twin does and reports the same counts. */

#include <stdint.h>

/* Bubble sort: the index loop of tests/oracles.py::reference_bubble
 * (Knuth, TAOCP vol. 3, 5.2.2).  Pass i compares a[j] > a[j + 1] for
 * every j below n - 1 - i and swaps on a strict `>`; the sort stops
 * after the first pass with no swap.  The pass carries the larger key
 * of each pair in x and stores the smaller one, without a branch: on
 * uniform input the swap test goes either way at random.  Equal keys
 * are not swapped, and storing either one leaves the same array.
 * counts[0] gets the comparisons and counts[1] the swaps. */
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
