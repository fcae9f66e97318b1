"""Step graphons: construction, entropy, order, capping, serialization."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from graphlimitlab import (
    SimpleGraph,
    StepGraphon,
    ValidationError,
    binary_entropy,
    cap_at_half,
    common_refinement,
    empirical_graphon,
    entropy,
    graphon_from_json_dict,
    graphon_to_json_dict,
    load_graphon,
    make_wrs,
    pointwise_leq,
    save_graphon,
)


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_limit_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        # direct evaluation of the formula at double precision
        x = 0.25
        expected = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        assert binary_entropy(0.25) == expected == 0.8112781244591328

    def test_domain_error(self):
        for bad in (-0.1, 1.1, 2.0):
            with pytest.raises(ValidationError):
                binary_entropy(bad)

    def test_symmetry(self):
        for x in (0.1, 0.3, 0.42):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-15)


class TestConstruction:
    def test_constant(self):
        W = StepGraphon.constant(0.5)
        assert W.k == 1 and W.values[0, 0] == 0.5

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            StepGraphon([0.5, 0.5], [[0.0, 1.0], [0.5, 0.0]])

    def test_bad_measure_sum_rejected(self):
        with pytest.raises(ValidationError):
            StepGraphon([0.3, 0.3], [[0.0, 0.5], [0.5, 0.0]])

    def test_nonpositive_measure_rejected(self):
        with pytest.raises(ValidationError):
            StepGraphon([1.5, -0.5], [[0.0, 0.5], [0.5, 0.0]])

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            StepGraphon([1.0], [[1.5]])

    def test_measures_kept_exact(self):
        W = make_wrs(3, 0)
        assert W.measures == (Fraction(1, 3),) * 3
        assert sum(W.measures) == 1

    def test_float_measures_normalized_exactly(self):
        W = StepGraphon([0.2, 0.3, 0.5], np.zeros((3, 3)))
        assert sum(W.measures) == 1


class TestMakeWrs:
    def test_two_blocks_no_cliques(self):
        W = make_wrs(2, 0)
        assert W.measures == (Fraction(1, 2), Fraction(1, 2))
        assert W.values.tolist() == [[0.0, 0.5], [0.5, 0.0]]

    def test_one_block_one_clique_is_constant_one(self):
        assert make_wrs(1, 1) == StepGraphon.constant(1.0)

    def test_infinite_r_is_constant_half(self):
        assert make_wrs(math.inf, 0) == StepGraphon.constant(0.5)
        with pytest.raises(ValidationError):
            make_wrs(math.inf, 1)

    def test_s_bounds(self):
        with pytest.raises(ValidationError):
            make_wrs(2, 3)
        with pytest.raises(ValidationError):
            make_wrs(2, -1)
        with pytest.raises(ValidationError):
            make_wrs(0, 0)


class TestEntropy:
    def test_block_identity(self):
        for r in range(1, 11):
            for s in range(r + 1):
                assert entropy(make_wrs(r, s)) == pytest.approx(1 - 1 / r, abs=1e-12)

    def test_constant_half_has_full_entropy(self):
        assert entropy(StepGraphon.constant(0.5)) == 1.0

    def test_zero_one_valued_has_zero_entropy(self):
        W = StepGraphon([0.25, 0.75], [[1.0, 0.0], [0.0, 1.0]])
        assert entropy(W) == 0.0

    def test_invariant_under_block_permutation(self):
        rng = random.Random(3)
        for _ in range(20):
            k = rng.randint(2, 5)
            weights = [rng.randint(1, 5) for _ in range(k)]
            total = sum(weights)
            measures = [Fraction(w, total) for w in weights]
            values = np.zeros((k, k))
            for i in range(k):
                for j in range(i, k):
                    values[i, j] = values[j, i] = rng.random()
            W = StepGraphon(measures, values)
            perm = list(range(k))
            rng.shuffle(perm)
            permuted = StepGraphon(
                [measures[p] for p in perm],
                values[np.ix_(perm, perm)],
            )
            assert entropy(permuted) == pytest.approx(entropy(W), abs=1e-12)

    def test_range(self):
        rng = random.Random(8)
        for _ in range(30):
            k = rng.randint(1, 4)
            values = np.zeros((k, k))
            for i in range(k):
                for j in range(i, k):
                    values[i, j] = values[j, i] = rng.random()
            W = StepGraphon([Fraction(1, k)] * k, values)
            assert 0.0 <= entropy(W) <= 1.0


class TestEmpiricalGraphon:
    def test_k2(self):
        W = empirical_graphon(SimpleGraph.complete(2))
        assert W.measures == (Fraction(1, 2), Fraction(1, 2))
        assert W.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_empty_graph(self):
        W = empirical_graphon(SimpleGraph.empty(3))
        assert W.k == 3 and not W.values.any()

    def test_entropy_always_zero(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(1, 8)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            assert entropy(empirical_graphon(SimpleGraph.from_edges(n, edges))) == 0.0

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValidationError):
            empirical_graphon(SimpleGraph.empty(0))


class TestPointwiseOrder:
    def test_examples(self):
        assert pointwise_leq(make_wrs(2, 0), StepGraphon.constant(0.5))
        assert not pointwise_leq(StepGraphon.constant(1.0), StepGraphon.constant(0.5))
        assert pointwise_leq(make_wrs(3, 0), make_wrs(3, 3))

    def test_mixed_block_structures(self):
        W1 = StepGraphon([Fraction(1, 3), Fraction(2, 3)],
                         [[0.1, 0.2], [0.2, 0.3]])
        W2 = StepGraphon([Fraction(1, 2), Fraction(1, 2)],
                         [[0.5, 0.5], [0.5, 0.5]])
        assert pointwise_leq(W1, W2)
        assert not pointwise_leq(W2, W1)

    def test_common_refinement_is_exact(self):
        W1 = make_wrs(3, 1)
        W2 = make_wrs(2, 0)
        measures, ia, ib = common_refinement(W1, W2)
        assert sum(measures) == 1
        assert len(measures) == len(ia) == len(ib) == 4
        # refined boundaries are the union {1/3, 1/2, 2/3, 1}
        assert measures == (Fraction(1, 3), Fraction(1, 6),
                            Fraction(1, 6), Fraction(1, 3))


class TestCapAtHalf:
    def test_constant_one_capped(self):
        assert cap_at_half(StepGraphon.constant(1.0)) == StepGraphon.constant(0.5)

    def test_values_at_most_half_unchanged(self):
        assert cap_at_half(make_wrs(2, 0)) == make_wrs(2, 0)

    def test_one_blocks_capped_zero_blocks_kept(self):
        capped = cap_at_half(make_wrs(2, 1))
        assert capped.values.tolist() == [[0.5, 0.5], [0.5, 0.0]]
        assert cap_at_half(make_wrs(2, 2)) == StepGraphon(
            make_wrs(2, 2).measures, np.full((2, 2), 0.5))

    def test_cap_is_pointwise_below(self):
        rng = random.Random(14)
        for _ in range(20):
            k = rng.randint(1, 4)
            values = np.zeros((k, k))
            for i in range(k):
                for j in range(i, k):
                    values[i, j] = values[j, i] = rng.random()
            W = StepGraphon([Fraction(1, k)] * k, values)
            assert pointwise_leq(cap_at_half(W), W)


class TestSerialization:
    def test_json_dict_format(self):
        data = graphon_to_json_dict(make_wrs(2, 1))
        assert data["measures"] == ["1/2", "1/2"]
        assert data["values"] == [1.0, 0.5, 0.5, 0.0]  # row-major

    def test_round_trip(self):
        for W in (make_wrs(3, 2), StepGraphon.constant(0.25)):
            assert graphon_from_json_dict(graphon_to_json_dict(W)) == W

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "w.json"
        save_graphon(make_wrs(4, 1), path)
        parsed = json.loads(path.read_text())
        assert set(parsed) == {"measures", "values"}
        assert load_graphon(path) == make_wrs(4, 1)

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            graphon_from_json_dict({"measures": ["1/2", "1/2"], "values": [0.0]})
        with pytest.raises(ValidationError):
            graphon_from_json_dict({"values": [0.0]})

    def test_malformed_types_rejected(self):
        for data in (
            {"measures": ["1/2", "1/2"], "values": [0.0, "x", "x", 0.0]},
            {"measures": ["1/2", "1/2"], "values": [0.0, None, None, 0.0]},
            {"measures": ["1/2", "1/2"], "values": [0.0, [0.5], [0.5], 0.0]},
            {"measures": ["1/2", "1/2"], "values": [True, 0.0, 0.0, True]},
            {"measures": ["1/2", "1/2"], "values": 0.0},
            {"measures": 1, "values": [0.0]},
            {"measures": "1", "values": [0.0]},
            {"measures": ["one"], "values": [0.0]},
            {"measures": ["1/0"], "values": [0.0]},
        ):
            with pytest.raises(ValidationError):
                graphon_from_json_dict(data)
