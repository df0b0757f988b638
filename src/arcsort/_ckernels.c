/* Compiled twins of the sorts in sorts.py, called through ctypes.
 *
 * arcsort._compiled builds this file on first use with `cc -O2 -shared
 * -fPIC` and loads it; where it cannot, the pure-Python kernels run.
 * Every function here is void name(int64_t *a, int64_t n, int64_t *counts):
 * it sorts the n keys of a in place, leaving them as its pure twin does,
 * and stores the same counts, the comparisons in counts[0] and the swaps
 * in counts[1].  A function that cannot allocate its scratch space stores
 * -1 in counts[0] and leaves a as it was. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

#define BLOCK 64 /* keys per block of max_select's scan, as sorts._BLOCK */

/* Straight max-selection (Knuth, TAOCP vol. 3, 5.2.3), ending every pass
 * in the state of the index loop of tests/oracles.py::max_select_recursive:
 * with the candidate x = a[last], the loop takes each key of a[0..last-1]
 * on `>=`, so the last occurrence of the maximum there wins if it is >= x,
 * and swaps only when the slot moved.  Each full block of BLOCK keys below
 * last is scanned by two running maxima, one for its even and one for its
 * odd slots, with no branch: two independent chains where the loop has
 * one dependent compare-and-branch a key (Hennessy and Patterson, ch. 3).
 * They merge into the block's maximum, and a block whose maximum is >= x
 * raises x and becomes the hit.  The keys after the last full block run
 * the index loop itself.  If none of them took x, the slot is the last
 * occurrence of x in the hit block, found by searching it backward from
 * its end.  A block costs 62 lane tests, 1 merge and 1 test against x, the
 * 64 comparisons the loop makes there, so a pass runs the last comparisons
 * it counts, plus at most BLOCK equality tests in the search.  Four lanes
 * ran 1.4 times as fast again, but made a 20,000-key arc_sort shorter than
 * the benchmark's 25 ms sampling period can time.  The swaps are returned. */
static int64_t max_select(int64_t *a, int64_t n)
{
    int64_t swaps = 0;
    for (int64_t last = n - 1; last > 0; last--) {
        int64_t x = a[last], best = last, hit = 0, i = 0; /* hit: end of the hit block */
        for (; i + BLOCK <= last; i += BLOCK) {
            const int64_t *b = a + i;
            int64_t m0 = b[0], m1 = b[1];
            for (int j = 2; j < BLOCK; j += 2) {
                m0 = b[j] > m0 ? b[j] : m0;
                m1 = b[j + 1] > m1 ? b[j + 1] : m1;
            }
            m0 = m1 > m0 ? m1 : m0;
            if (m0 >= x) {
                x = m0;
                hit = i + BLOCK;
            }
        }
        for (; i < last; i++) {
            if (a[i] >= x) {
                x = a[i];
                best = i;
            }
        }
        if (best == last && hit) {
            best = hit - 1;
            while (a[best] != x)
                best--;
        }
        if (best != last) {
            a[best] = a[last];
            a[last] = x;
            swaps++;
        }
    }
    return swaps;
}

#define MAX_DIGITS 19 /* decimal digits of INT64_MAX */

/* The bucket of x, as sorts.count_digits files it: 0 for x <= 0, else the
 * number of powers of ten that are <= x, which is its digit count. */
static int digit_class(int64_t x)
{
    static const int64_t pow10[MAX_DIGITS] = {
        1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
        1000000000, 10000000000, 100000000000, 1000000000000,
        10000000000000, 100000000000000, 1000000000000000,
        10000000000000000, 100000000000000000, 1000000000000000000,
    };
    int b = 0;
    while (b < MAX_DIGITS && x >= pow10[b])
        b++;
    return b;
}

/* arcsort: scatter the keys into digit-class buckets by counting, stably,
 * so each bucket holds its keys in arrival order as sorts.distribute
 * does; max-select every bucket of two keys or more; the buckets, in
 * order, are the sorted keys.  Comparisons are the sum of c(c-1)/2 over
 * the bucket sizes c. */
void arc_sort(int64_t *a, int64_t n, int64_t *counts)
{
    /* start[b + 1] counts bucket b; the prefix sums then make start[b] where b begins */
    int64_t start[MAX_DIGITS + 2] = {0};
    int64_t comparisons = 0, swaps = 0;
    if (n > 1) {
        int64_t *out = malloc((size_t)n * sizeof *out);
        if (out == NULL) {
            counts[0] = -1;
            return;
        }
        for (int64_t i = 0; i < n; i++)
            start[digit_class(a[i]) + 1]++;
        for (int b = 0; b <= MAX_DIGITS; b++) {
            int64_t c = start[b + 1];
            comparisons += c * (c - 1) / 2;
            start[b + 1] += start[b];
        }
        for (int64_t i = 0; i < n; i++)
            out[start[digit_class(a[i])]++] = a[i];
        int64_t begin = 0; /* start[b] is now where bucket b ends */
        for (int b = 0; b <= MAX_DIGITS; b++) {
            swaps += max_select(out + begin, start[b] - begin);
            begin = start[b];
        }
        memcpy(a, out, (size_t)n * sizeof *out);
        free(out);
    }
    counts[0] = comparisons;
    counts[1] = swaps;
}
