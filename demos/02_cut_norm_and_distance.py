"""Cut norm of step kernels and cut distance between step graphons.

The cut norm of a kernel K is the largest |integral of K over S x T|; for
step kernels the optimum is attained on unions of blocks, so small kernels
are solved exactly by subset enumeration and large ones by alternating
greedy hill climbing (a guaranteed lower bound).
"""

from fractions import Fraction

from graphlimitlab import (
    AlignmentMode,
    SampleSeed,
    StepGraphon,
    StepKernel,
    cut_distance,
    cut_norm,
    cut_norm_estimate,
    difference_kernel,
    empirical_graphon,
    make_wrs,
    SimpleGraph,
)

# ── exact cut norm ──────────────────────────────────────────────────────

K = StepKernel([Fraction(1, 2), Fraction(1, 2)], [[1.0, -1.0], [-1.0, 1.0]])
print("checkerboard kernel: cut norm =", cut_norm(K))
print("  (best box: one diagonal block, integral 1/4)")

print("constant kernel 0.3: cut norm =", cut_norm(StepKernel([1], [[0.3]])))

# hill climbing never exceeds the exact value and usually matches it
estimate = cut_norm_estimate(K, restarts=8, seed=SampleSeed(1))
print("hill-climbed estimate:", estimate, "(exact", cut_norm(K), ")")

# ── cut distance ────────────────────────────────────────────────────────

W = make_wrs(2, 1)
swapped = StepGraphon(W.measures, W.values[::-1, ::-1].copy())
print("\ndistance between a graphon and its block swap:",
      cut_distance(W, swapped))
print("distance constant-1/2 to constant-0:",
      cut_distance(StepGraphon.constant(0.5), StepGraphon.constant(0.0)))

W31 = make_wrs(3, 1)
W30 = make_wrs(3, 0)
print("distance W[3,1] to W[3,0] (exact over block permutations):",
      cut_distance(W31, W30))
print("  compare: unaligned difference norm =",
      cut_norm(difference_kernel(W31, W30)))

# local-search alignment handles mixed block structures
W_uneven = StepGraphon([Fraction(1, 3), Fraction(2, 3)],
                       [[0.2, 0.6], [0.6, 0.4]])
print("local-search distance of an uneven graphon to itself:",
      cut_distance(W_uneven, W_uneven, AlignmentMode.LOCAL_SEARCH,
                   SampleSeed(3)))

# ── graphs as graphons ──────────────────────────────────────────────────

# the empirical graphon of a graph makes graph-vs-graphon distances
# expressible with the same machinery
C5 = SimpleGraph.cycle(5)
print("\nempirical graphon of C5, distance to constant-1/2:",
      cut_distance(empirical_graphon(C5), StepGraphon.constant(0.5),
                   AlignmentMode.LOCAL_SEARCH, SampleSeed(4)))
print("density of C5 =", C5.edge_count / 10, " (cut norm sees the "
      "mean shift 0.5 - 0.5 = 0 plus structure)")
