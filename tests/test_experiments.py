"""Experiment drivers: reports, determinism, boundary errors."""

import math

import pytest

from graphlimitlab import (
    ExperimentConfig,
    ForbiddenFamily,
    SampleSeed,
    SimpleGraph,
    ValidationError,
    estimate_distance_to_block_target,
    make_wrs,
    run_convergence,
    run_coupling_demo,
    run_entropy_audit,
    run_speed,
    sample_wrandom,
    StepGraphon,
    to_graph6,
)
from graphlimitlab import cli

K3 = ForbiddenFamily([SimpleGraph.complete(3)])


class TestConfig:
    def test_sizes_must_increase(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(family=K3, sizes=(5, 5))
        with pytest.raises(ValidationError):
            ExperimentConfig(family=K3, sizes=(10, 5))

    def test_samples_positive(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(family=K3, sizes=(5,), samples=0)

    def test_samples_cannot_spill_into_the_next_size_streams(self):
        ExperimentConfig(family=K3, sizes=(5, 6), samples=1000)
        with pytest.raises(ValidationError):
            ExperimentConfig(family=K3, sizes=(5, 6), samples=1001)

    def test_sizes_cannot_spill_into_the_next_purpose_streams(self):
        # the chain stream of size index 1000, sample 0 would be
        # 1_000_000 + 1000 * 1000, the estimator stream of size index 0
        ExperimentConfig(family=K3, sizes=range(1, 1001))
        with pytest.raises(ValidationError):
            ExperimentConfig(family=K3, sizes=range(1, 1002))

    def test_default_chain_parameters(self):
        config = ExperimentConfig(family=K3, sizes=(10,))
        npairs = 45
        assert config.burnin_for(10) == math.ceil(20 * npairs * math.log(npairs))
        assert config.burnin_for(2) == 64

    def test_family_resolution(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(sizes=(5,)).resolved_family()


class TestEntropyAudit:
    def test_row_count(self):
        report = run_entropy_audit(4)
        assert len(report.rows) == 2 + 4 + 8 + 16

    def test_identity_and_margins(self):
        report = run_entropy_audit(6)
        for t, pattern, ent, capped, margin in report.rows:
            assert ent == pytest.approx(1 - 1 / t, abs=1e-12)
            ones = pattern.count("1")
            # capping 1-blocks to 1/2 adds exactly their measure in entropy
            assert margin == pytest.approx(ones / t ** 2, abs=1e-12)
            if ones:
                assert capped > ent

    def test_specific_patterns(self):
        report = run_entropy_audit(2)
        by_pattern = {(t, p): (e, c) for t, p, e, c, _ in report.rows}
        assert by_pattern[(2, "00")] == (0.5, 0.5)
        assert by_pattern[(2, "10")][1] == pytest.approx(0.75)
        assert by_pattern[(1, "1")] == (0.0, 1.0)

    def test_tmax_bounds(self):
        with pytest.raises(ValidationError):
            run_entropy_audit(9)
        with pytest.raises(ValidationError):
            run_entropy_audit(0)


class TestSpeedDriver:
    def test_empty_family_has_exponent_one(self):
        config = ExperimentConfig(family=ForbiddenFamily(), sizes=(2, 3, 4, 5))
        report = run_speed(config)
        assert all(row[1] == 1.0 for row in report.rows)

    def test_triangle_free_trend(self):
        config = ExperimentConfig(family=K3, sizes=tuple(range(3, 8)))
        report = run_speed(config)
        exponents = report.column("speed_exponent")
        assert all(a > b for a, b in zip(exponents, exponents[1:]))
        assert all(v >= 0.5 for v in exponents)

    def test_colorable_comparison_at_n5(self):
        config = ExperimentConfig(family=K3, sizes=(5,), compare_crs=True)
        report = run_speed(config)
        ratio = report.column("ratio_vs_colorable")[0]
        assert ratio >= 1.0  # bipartite graphs are all triangle-free

    def test_csv_determinism(self):
        config = ExperimentConfig(family=K3, sizes=(3, 4))
        assert run_speed(config).to_csv_text() == run_speed(config).to_csv_text()


class TestConvergenceDriver:
    def test_empty_family_rejected_with_explanation(self):
        config = ExperimentConfig(family=ForbiddenFamily(), sizes=(5,), samples=2)
        with pytest.raises(ValidationError, match="coloring number is infinite"):
            run_convergence(config)

    def test_one_chromatic_member_rejected(self):
        fam = ForbiddenFamily([SimpleGraph.empty(1)])
        config = ExperimentConfig(family=fam, sizes=(5,), samples=2)
        with pytest.raises(ValidationError, match="r < 1"):
            run_convergence(config)

    def test_k3_selects_two_blocks(self):
        config = ExperimentConfig(family=K3, sizes=(5,), samples=2, seed=1)
        report = run_convergence(config)
        assert report.metadata["r"] == "2"

    def test_k2_family_runs_with_r1(self):
        # single-edge family: the class is edgeless graphs, the coloring
        # number is 2, so the target is the one-block zero graphon and
        # every distance is 0
        fam = ForbiddenFamily([SimpleGraph.complete(2)])
        config = ExperimentConfig(family=fam, sizes=(5,), samples=2, seed=1)
        report = run_convergence(config)
        assert report.metadata["r"] == "1"
        class_rows = [row for row in report.rows if row[0] == "class"]
        assert class_rows[0][2] == 0.0

    def test_report_shape_and_determinism(self):
        config = ExperimentConfig(family=K3, sizes=(5, 6), samples=3, seed=9)
        report = run_convergence(config)
        assert report.columns[:4] == ("series", "n", "mean_distance",
                                      "std_distance")
        series = report.column("series")
        assert series == ["class", "calibration"] * 2
        again = run_convergence(ExperimentConfig(family=K3, sizes=(5, 6),
                                                 samples=3, seed=9))
        assert report.to_csv_text() == again.to_csv_text()

    def test_csv_write(self, tmp_path, capsys):
        family = tmp_path / "k3.g6"
        family.write_text(to_graph6(SimpleGraph.complete(3)) + "\n")
        out = tmp_path / "report.csv"
        assert cli.main(["converge", "--family", str(family), "--sizes", "5",
                         "--samples", "2", "--seed", "4",
                         "--out", str(out)]) == cli.EXIT_OK
        assert capsys.readouterr().out == ""
        config = ExperimentConfig(family=K3, sizes=(5,), samples=2, seed=4)
        assert out.read_text() == run_convergence(config).to_csv_text()


class TestDistanceEstimator:
    def test_planted_sample_measures_near_noise_floor(self):
        # self-consistency calibration: a sample of the target itself
        G = sample_wrandom(make_wrs(2, 0), 60, SampleSeed(5, 77))
        value = estimate_distance_to_block_target(G, 2, SampleSeed(5, 999))
        assert value < 0.08

    def test_exactly_balanced_half_density_input(self):
        # the idealized input: balanced parts, cross density exactly 1/2
        n = 20
        edges = [(i, j) for i in range(10) for j in range(10, 20)
                 if (i + j) % 2 == 0]
        G = SimpleGraph.from_edges(n, edges)
        assert G.edge_count == 50
        value = estimate_distance_to_block_target(G, 2, SampleSeed(6, 1))
        floor = estimate_distance_to_block_target(
            sample_wrandom(make_wrs(2, 0), n, SampleSeed(6, 2)), 2,
            SampleSeed(6, 3))
        assert value <= floor + 1e-12

    def test_r_validation(self):
        with pytest.raises(ValidationError):
            estimate_distance_to_block_target(SimpleGraph.empty(4), 0,
                                              SampleSeed(0))


class TestCouplingDemo:
    def test_containment_certified(self):
        config = ExperimentConfig(sizes=(10, 20), samples=50, seed=3)
        report = run_coupling_demo(config, make_wrs(2, 0),
                                   StepGraphon.constant(0.5))
        for n, contained, samples, low_density, high_density in report.rows:
            assert contained == samples == 50
            assert low_density <= high_density

    def test_identical_graphons_have_equal_densities(self):
        W = make_wrs(2, 0)
        config = ExperimentConfig(sizes=(15,), samples=20, seed=8)
        report = run_coupling_demo(config, W, W)
        _, contained, samples, low_density, high_density = report.rows[0]
        assert contained == samples
        assert low_density == high_density

    def test_order_violation_rejected(self):
        config = ExperimentConfig(sizes=(5,), samples=2)
        with pytest.raises(ValidationError):
            run_coupling_demo(config, StepGraphon.constant(0.9),
                              StepGraphon.constant(0.1))

    def test_missing_inputs_rejected(self):
        config = ExperimentConfig(sizes=(5,), samples=1)
        with pytest.raises(ValidationError):
            run_coupling_demo(config, None, StepGraphon.constant(0.5))
