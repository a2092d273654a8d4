"""Subgroup partitions, auxiliary moments and target estimation."""

import math

import numpy as np
import pytest

from qifaux import (
    AuxiliaryInfo,
    CorrelationStructure,
    EmptySubgroup,
    ExtendedScoreConfig,
    MarginalModelSpec,
    PartitionViolation,
    SubgroupPartition,
    build_basis,
    estimate_phi,
    moment_vector,
    parse_subgroup_file,
)
from qifaux.auxiliary import parse_group, parse_predicate
from qifaux.model import LongitudinalDataset
from qifaux.simulation import (
    SimulationDesign,
    analytic_four_group_phi,
    build_two_group_aux,
    four_group_partition,
    generate_dataset,
    replication_rng,
    two_group_partition,
)

GAUSS = MarginalModelSpec.gaussian()


def _design_dataset(*cells):
    """One subject per (x1, x2) pair, each covariate constant over q = 3."""
    covs = np.array([np.column_stack([np.full(3, a), np.full(3, b)]) for a, b in cells])
    return LongitudinalDataset(np.zeros((len(cells), 3)), covs)


def _single_group():
    return SubgroupPartition(1, lambda xs: np.zeros(len(xs), dtype=int))


def _four_group_oracle(covariates):
    """Per-subject reference for four_group_partition on one q x p matrix."""
    positive = covariates[0, 0] >= 0.0
    first = covariates[0, 1] == 1.0
    return (0 if positive else 1) if first else (2 if positive else 3)


def _aux_rows(aux, dataset, beta):
    """(n, K*q) auxiliary rows of the per-subject moment contributions."""
    cfg = ExtendedScoreConfig(
        GAUSS, build_basis(CorrelationStructure.INDEPENDENCE, dataset.q), aux
    )
    _, contribs = moment_vector(cfg, dataset, beta)
    # one basis matrix, so the score rows are the first p columns
    return contribs[:, dataset.p :]


class TestPsi:
    def test_exact_match_gives_zero(self):
        aux = build_two_group_aux()
        # x_j1 = 0, x_2 = 1: mean is (-0.5,)*3 which equals phi_1 exactly
        out = _aux_rows(aux, _design_dataset((0.0, 1.0)), np.array([0.5, -0.5]))
        assert out.shape == (1, 6)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_two_group_nonzero_block(self):
        # x_j1 = 1 and x_2 = 1 gives mean 0, so block 1 is 0 - (-0.5) = 0.5
        aux = build_two_group_aux()
        out = _aux_rows(aux, _design_dataset((1.0, 1.0)), np.array([0.5, -0.5]))
        np.testing.assert_allclose(out[0, :3], 0.5)
        np.testing.assert_allclose(out[0, 3:], 0.0)

    def test_degenerate_whole_space_partition(self):
        phi = np.array([0.1, 0.2, 0.3])
        aux = AuxiliaryInfo(_single_group(), (phi,))
        rng = np.random.default_rng(0)
        ds = LongitudinalDataset(rng.standard_normal((4, 3)), rng.standard_normal((4, 3, 2)))
        beta = np.array([1.0, -1.0])
        expected = ds.covariates @ beta - phi
        np.testing.assert_allclose(_aux_rows(aux, ds, beta), expected)

    def test_single_nonzero_block_and_k_major_order(self):
        rng = np.random.default_rng(1)
        phis = tuple(rng.standard_normal(3) for _ in range(4))
        aux = AuxiliaryInfo(four_group_partition(), phis)
        beta = np.array([0.4, -0.3])
        x = rng.standard_normal((20, 3, 2))
        x[:, :, 1] = rng.integers(0, 2, size=(20, 1)).astype(float)
        ds = LongitudinalDataset(rng.standard_normal((20, 3)), x)
        blocks = _aux_rows(aux, ds, beta).reshape(20, 4, 3)
        for i in range(20):
            k = _four_group_oracle(x[i])
            for j in range(4):
                if j == k:
                    np.testing.assert_allclose(blocks[i, j], x[i] @ beta - phis[j])
                else:
                    np.testing.assert_array_equal(blocks[i, j], 0.0)


class TestEstimatePhi:
    def test_two_subject_mean(self):
        y = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
        x = np.zeros((2, 3, 1))
        ds = LongitudinalDataset(y, x)
        part = _single_group()
        phis, counts = estimate_phi(ds, part)
        np.testing.assert_allclose(phis[0], [2.0, 2.0, 2.0])
        assert counts.tolist() == [2]

    def test_grand_mean_single_group(self):
        rng = np.random.default_rng(2)
        ds = LongitudinalDataset(rng.standard_normal((10, 3)), rng.standard_normal((10, 3, 2)))
        phis, _ = estimate_phi(ds, _single_group())
        np.testing.assert_allclose(phis[0], ds.responses.mean(axis=0))

    def test_empty_subgroup_raises(self):
        ds = LongitudinalDataset(np.zeros((3, 2)), np.ones((3, 2, 1)))
        part = SubgroupPartition(2, lambda xs: np.zeros(len(xs), dtype=int))
        with pytest.raises(EmptySubgroup):
            estimate_phi(ds, part)

    def test_sample_means_solve_moment_conditions(self):
        """With observed responses in place of the model mean, the stacked
        auxiliary moments evaluated at the estimated targets sum to zero."""
        design = SimulationDesign(n=400, seed=5, replications=1)
        ds = generate_dataset(design, replication_rng(5, 0, 0))
        part = four_group_partition()
        phis, _ = estimate_phi(ds, part)
        idx = part.group_indices(ds)
        total = np.zeros(4 * 3)
        for i in range(ds.n):
            k = idx[i]
            total[k * 3 : (k + 1) * 3] += ds.responses[i] - phis[k]
        np.testing.assert_allclose(total / ds.n, 0.0, atol=1e-12)

    def test_four_group_targets_match_analytic_values(self):
        """Monte Carlo oracle: subgroup means from a million subjects agree
        with the half-normal conditional-mean formula to within 3 SEs."""
        design = SimulationDesign(n=1_000_000, seed=11, replications=1)
        ds = generate_dataset(design, replication_rng(11, 0, 0))
        part = four_group_partition()
        phis, counts = estimate_phi(ds, part)
        targets = analytic_four_group_phi(design)
        idx = part.group_indices(ds)
        for k in range(4):
            se = ds.responses[idx == k].std(axis=0, ddof=1) / np.sqrt(counts[k])
            np.testing.assert_array_less(np.abs(phis[k] - targets[k]), 3.0 * se)

    def test_first_component_half_normal_value(self):
        design = SimulationDesign(n=300)
        targets = analytic_four_group_phi(design)
        assert targets[0][0] == pytest.approx(0.5 * math.sqrt(2 / math.pi) - 0.5, abs=1e-9)
        assert targets[0][0] == pytest.approx(-0.10106, abs=5e-6)


class TestPartitions:
    def test_totality_on_simulated_data(self):
        design = SimulationDesign(n=500, seed=3, replications=1)
        ds = generate_dataset(design, replication_rng(3, 0, 0))
        for part in (two_group_partition(), four_group_partition()):
            idx = part.group_indices(ds)
            member = np.zeros((ds.n, part.n_groups), dtype=int)
            member[np.arange(ds.n), idx] = 1
            np.testing.assert_array_equal(member.sum(axis=1), 1)

    def test_scalar_and_batch_assignment_agree(self):
        design = SimulationDesign(n=200, seed=8, replications=1)
        ds = generate_dataset(design, replication_rng(8, 0, 0))
        part = four_group_partition()
        batch = part.group_indices(ds)
        scalar = np.array([_four_group_oracle(x) for x in ds.covariates])
        assert set(scalar.tolist()) == {0, 1, 2, 3}
        np.testing.assert_array_equal(batch, scalar)

    def test_out_of_range_index_rejected(self):
        ds = LongitudinalDataset(np.zeros((2, 2)), np.ones((2, 2, 1)))
        part = SubgroupPartition(2, lambda xs: np.full(len(xs), 5))
        with pytest.raises(PartitionViolation, match="outside 0..1"):
            part.group_indices(ds)

    def test_wrong_membership_shape_rejected(self):
        ds = LongitudinalDataset(np.zeros((2, 2)), np.ones((2, 2, 1)))
        part = SubgroupPartition(2, lambda xs: np.zeros((len(xs), 1), dtype=int))
        with pytest.raises(PartitionViolation) as err:
            part.group_indices(ds)
        assert (err.type, str(err.value)) == (
            PartitionViolation, "membership must yield one index per subject"
        )

    @pytest.mark.parametrize(
        "phi, message",
        [
            ((np.zeros(3),), "need one phi vector per subgroup"),
            ((np.zeros(3), np.zeros(2)), "phi vectors must share a common length"),
            ((np.zeros(3), np.array([0.0, np.inf, 0.0])), "phi vectors must be finite"),
        ],
        ids=["count", "ragged", "non-finite"],
    )
    def test_auxiliary_info_rejects_malformed_phi(self, phi, message):
        part = SubgroupPartition(2, lambda xs: np.zeros(len(xs), dtype=int))
        with pytest.raises(ValueError) as err:
            AuxiliaryInfo(part, phi)
        assert (err.type, str(err.value)) == (ValueError, message)


class TestPredicateGrammar:
    def test_atom_forms(self):
        p = parse_predicate("col[1,2] >= 0.5")
        assert (p.time, p.column, p.op, p.value) == (1, 2, ">=", 0.5)
        assert parse_predicate("col[3,1] < -2e-1").value == pytest.approx(-0.2)
        assert parse_predicate("col[2,2] == 1").op == "=="
        with pytest.raises(ValueError):
            parse_predicate("col[1] >= 0")
        with pytest.raises(ValueError):
            parse_predicate("col[1,1] > 0")

    def test_conjunction_and_file(self):
        atoms = parse_group("col[1,1] >= 0 & col[1,2] == 1")
        assert len(atoms) == 2
        text = """
        # four groups on the sign of X11 crossed with x2
        col[1,1] >= 0 and col[1,2] == 1
        col[1,1] < 0  and col[1,2] == 1
        col[1,1] >= 0 and col[1,2] == 0
        col[1,1] < 0  and col[1,2] == 0
        """
        part = parse_subgroup_file(text)
        assert part.n_groups == 4
        design = SimulationDesign(n=300, seed=4, replications=1)
        ds = generate_dataset(design, replication_rng(4, 0, 0))
        np.testing.assert_array_equal(
            part.group_indices(ds), four_group_partition().group_indices(ds)
        )

    def test_non_partition_detected(self):
        text = """
        col[1,1] >= 0
        col[1,1] >= 0
        """
        part = parse_subgroup_file(text)
        ds = LongitudinalDataset(np.zeros((2, 1)), np.array([[[1.0]], [[-1.0]]]))
        with pytest.raises(PartitionViolation):
            part.group_indices(ds)

    def test_file_of_comments_only_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_subgroup_file("# no groups yet\n\n   # still none\n")
        assert (err.type, str(err.value)) == (ValueError, "subgroup file defines no groups")

    @pytest.mark.parametrize("text", ["col[0,1] >= 0", "col[1,0] < 2"])
    def test_zero_cell_index_rejected(self, text):
        with pytest.raises(ValueError, match="1-based"):
            parse_predicate(text)

    @pytest.mark.parametrize("cell", ["5,1", "1,3"])
    def test_cell_outside_data_rejected(self, cell):
        part = parse_subgroup_file(f"col[{cell}] >= 0\ncol[{cell}] < 0\n")
        ds = _design_dataset((1.0, 1.0), (-1.0, 0.0))
        with pytest.raises(PartitionViolation, match=rf"col\[{cell}\].*q=3, p=2"):
            part.group_indices(ds)


class TestFourGroupStructure:
    def test_membership_examples(self):
        ds = _design_dataset((0.3, 1.0), (-0.3, 1.0), (0.3, 0.0), (-0.3, 0.0))
        assert four_group_partition().group_indices(ds).tolist() == [0, 1, 2, 3]

    def test_merging_reproduces_two_group_partition(self):
        design = SimulationDesign(n=1000, seed=6, replications=1)
        ds = generate_dataset(design, replication_rng(6, 0, 0))
        four = four_group_partition().group_indices(ds)
        two = two_group_partition().group_indices(ds)
        np.testing.assert_array_equal(four // 2, two)

    def test_two_group_constants(self):
        aux = build_two_group_aux()
        np.testing.assert_array_equal(aux.phi[0], [-0.5, -0.5, -0.5])
        np.testing.assert_array_equal(aux.phi[1], [0.0, 0.0, 0.0])
        ds = _design_dataset((2.0, 1.0), (2.0, 0.0))
        assert aux.partition.group_indices(ds).tolist() == [0, 1]
