"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a PASS line with the measured quantities (visible under -s / -rA).
Criteria 7 and 9 are statistical; both run fixed seeded configurations and
deterministic arithmetic, so their outcomes are reproducible bit for bit.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from graphlimitlab import (
    ExperimentConfig,
    ForbiddenFamily,
    SampleSeed,
    SimpleGraph,
    StepGraphon,
    StepKernel,
    ValidationError,
    cap_at_half,
    coloring_number,
    count_labeled,
    count_unlabeled,
    cut_norm,
    entropy,
    labeled_class_masks,
    make_wrs,
    mcmc_ensemble,
    run_convergence,
    run_entropy_audit,
    sample_coupled,
    sample_wrandom,
)

K3_FAMILY = ForbiddenFamily([SimpleGraph.complete(3)])


def test_criterion_01_entropy_identity():
    worst = 0.0
    for r in range(1, 11):
        for s in range(r + 1):
            gap = abs(entropy(make_wrs(r, s)) - (1 - 1 / r))
            worst = max(worst, gap)
            assert gap <= 1e-12
    print(f"PASS criterion 1: entropy(W[r,s]) = 1 - 1/r for r <= 10 "
          f"(worst gap {worst:.2e})")


def test_criterion_02_entropy_strictly_increases_under_capping():
    smallest = math.inf
    for t in range(1, 9):
        base = 1 - 1 / t
        for pattern in range(1, 1 << t):  # at least one all-1 block
            values = make_wrs(t, 0).values.copy()
            for i in range(t):
                if pattern >> i & 1:
                    values[i, i] = 1.0
            W = StepGraphon(make_wrs(t, 0).measures, values)
            margin = entropy(cap_at_half(W)) - base
            smallest = min(smallest, margin)
            assert margin > 0.0
    # the audit driver checks the same identities and raises on violation
    run_entropy_audit(8)
    print(f"PASS criterion 2: capped entropy exceeds 1 - 1/t for t <= 8 "
          f"(smallest margin {smallest:.6f})")


def test_criterion_03_cut_norm_matches_bruteforce_exactly():
    def oracle(K):
        # independent route: enumerate every (S, T) pair on an integer grid
        k = K.k
        denominator = 1
        cells = [
            [Fraction(float(K.values[i, j])) * K.measures[i] * K.measures[j]
             for j in range(k)]
            for i in range(k)
        ]
        for row in cells:
            for cell in row:
                denominator = (denominator * cell.denominator
                               // math.gcd(denominator, cell.denominator))
        grid = [[int(cell * denominator) for cell in row] for row in cells]
        best = 0
        for S in range(1 << k):
            rows = [grid[i] for i in range(k) if S >> i & 1]
            sums = [sum(col) for col in zip(*rows)] if rows else [0] * k
            for T in range(1 << k):
                total = sum(sums[j] for j in range(k) if T >> j & 1)
                if abs(total) > best:
                    best = abs(total)
        return float(Fraction(best, denominator))

    rng = random.Random(20240515)
    for trial in range(100):
        k = rng.randint(1, 5)
        weights = [rng.randint(1, 6) for _ in range(k)]
        measures = [Fraction(w, sum(weights)) for w in weights]
        values = np.zeros((k, k))
        for i in range(k):
            for j in range(i, k):
                values[i, j] = values[j, i] = rng.uniform(-1, 1)
        K = StepKernel(measures, values)
        assert cut_norm(K) == oracle(K), f"kernel {trial} disagrees"
    print("PASS criterion 3: exact cut norm equals 2^k x 2^k brute force "
          "on 100 random kernels, exactly")


def test_criterion_04_counting_oracle():
    def brute(n):
        pairs = list(combinations(range(n), 2))
        count = 0
        for mask in range(1 << len(pairs)):
            adjacency = [set() for _ in range(n)]
            for b, (i, j) in enumerate(pairs):
                if mask >> b & 1:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
            if not any(
                adjacency[i] & adjacency[j]
                for b, (i, j) in enumerate(pairs) if mask >> b & 1
            ):
                count += 1
        return count

    expected = {3: 7, 4: 41}
    for n in (3, 4, 5):
        from_oracle = brute(n)
        counted = count_labeled(K3_FAMILY, n)
        assert counted == from_oracle
        if n in expected:
            assert counted == expected[n]
        unlabeled = count_unlabeled(K3_FAMILY, n)
        assert unlabeled <= counted <= math.factorial(n) * unlabeled
    print("PASS criterion 4: labeled triangle-free counts (7, 41, 388) match "
          "exhaustive enumeration; labeled/unlabeled sandwich holds")


def test_criterion_05_census_reconstruction_matches_direct_counts():
    families = {
        "K3": K3_FAMILY,
        "C4": ForbiddenFamily([SimpleGraph.cycle(4)]),
        "P4": ForbiddenFamily([SimpleGraph.path(4)]),
        "K3+K4": ForbiddenFamily([SimpleGraph.complete(3),
                                  SimpleGraph.complete(4)]),
    }
    for name, fam in families.items():
        for n in range(7):
            direct = count_labeled(fam, n, method="direct")
            reconstructed = count_labeled(fam, n, method="census")
            assert direct == reconstructed, (name, n)
    print("PASS criterion 5: census n!/|Aut| reconstruction equals direct "
          "labeled enumeration for n <= 6 on K3, C4, P4, {K3,K4}")


def test_criterion_06_sampler_laws():
    def is_bipartite(G):
        color = {}
        adjacency = [set() for _ in range(G.n)]
        for i, j in G.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        for start in range(G.n):
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                for u in adjacency[v]:
                    if u not in color:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        return False
        return True

    W = make_wrs(2, 0)
    for stream in range(1000):
        assert is_bipartite(sample_wrandom(W, 50, SampleSeed(6001, stream)))
    half = StepGraphon.constant(0.5)
    for stream in range(1000):
        low, high = sample_coupled(W, half, 30, SampleSeed(6002, stream))
        assert low.edges <= high.edges
    print("PASS criterion 6: 1000 two-block samples at n=50 all bipartite; "
          "1000 coupled pairs all nested")


def test_criterion_07_mcmc_occupation_uniformity():
    # 10^4 independent chains of 10^5 steps; the chains' pooled occupation
    # measure over the 388 labeled triangle-free graphs on 5 vertices must
    # be within 0.05 of uniform in total variation.  (The final-state
    # histogram alone cannot resolve 0.05 at this sample count: even a
    # perfect uniform sampler leaves an expected plug-in TV of about 0.08
    # over 388 cells with 10^4 draws.)
    chains, steps = 10_000, 100_000
    finals, occupation = mcmc_ensemble(
        K3_FAMILY, 5, steps, SampleSeed(0, 0), chains,
        collect_occupation=True,
    )
    members = labeled_class_masks(K3_FAMILY, 5)
    assert len(members) == 388
    target = np.zeros(1 << 10)
    for mask in members:
        target[mask] = 1 / len(members)
    visited = np.nonzero(occupation)[0]
    assert target[visited].all(), "chain left the class"
    empirical = occupation / occupation.sum()
    tv = 0.5 * np.abs(empirical - target).sum()
    assert tv < 0.05
    assert target[finals.astype(np.int64)].all()
    print(f"PASS criterion 7: occupation TV over 10^4 chains x 10^5 steps = "
          f"{tv:.4f} < 0.05")


def test_criterion_08_speed_trend():
    exponents = []
    for n in range(3, 9):
        count = count_labeled(K3_FAMILY, n)
        exponents.append(math.log2(count) / (n * (n - 1) // 2))
    assert all(a > b for a, b in zip(exponents, exponents[1:]))
    assert all(value >= 0.5 for value in exponents)
    print("PASS criterion 8: triangle-free speed exponent nonincreasing on "
          "n=3..8 and >= 1/2: "
          + ", ".join(f"{value:.4f}" for value in exponents))


def test_criterion_09_convergence_trend():
    config = ExperimentConfig(family=K3_FAMILY, sizes=(20, 40, 80),
                              samples=20, seed=0)
    report = run_convergence(config)
    class_mean = {row[1]: row[2] for row in report.rows if row[0] == "class"}
    floor = {row[1]: row[2] for row in report.rows
             if row[0] == "calibration"}
    assert class_mean[20] > class_mean[40] > class_mean[80]
    # the class signal at the smallest size clears the estimator noise
    # floor, measured on W-random samples of the target at the largest size
    assert class_mean[20] > floor[80]
    print("PASS criterion 9: mean distance strictly decreasing "
          f"({class_mean[20]:.4f} > {class_mean[40]:.4f} > "
          f"{class_mean[80]:.4f}) and above the calibration floor "
          f"{floor[80]:.4f}")


def test_criterion_10_coloring_number_boundaries():
    assert coloring_number(ForbiddenFamily()) == math.inf
    with pytest.raises(ValidationError, match="coloring number is infinite"):
        run_convergence(ExperimentConfig(family=ForbiddenFamily(),
                                         sizes=(5,), samples=1))
    assert coloring_number(K3_FAMILY) - 1 == 2
    config = ExperimentConfig(family=K3_FAMILY, sizes=(5,), samples=1, seed=1)
    assert run_convergence(config).metadata["r"] == "2"
    print("PASS criterion 10: col(empty) is infinite and rejected by the "
          "convergence driver; col({K3}) - 1 = 2 selects the two-block target")
