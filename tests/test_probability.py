from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpibounds import (
    Channel,
    DimensionMismatchError,
    Distribution,
    JointDistribution,
    ProbabilityError,
    conditional,
    entropy,
    kl_divergence,
    marginals,
    mutual_information,
    push_forward,
    tensor_product,
)
from conftest import random_joint


class TestDistribution:
    def test_renormalizes_within_tolerance(self):
        d = Distribution([0.5, 0.5 + 5e-10])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_sum_far_from_one(self):
        with pytest.raises(ProbabilityError):
            Distribution([0.5, 0.6])

    @pytest.mark.parametrize("build, values, mass", [
        (Distribution, [0.5, 0.6], "1.1"),
        (Distribution, [1e308, 1e308], "inf"),
        (JointDistribution, [[1e308, 1e308], [1e308, 1e308]], "inf"),
        (Channel, [[1e308, 1e308], [0.5, 0.5]], "inf"),
    ], ids=["sum", "overflow", "joint-overflow", "channel-overflow"])
    def test_total_mass_message(self, build, values, mass):
        # Entries near the float maximum overflow the sum: the error names
        # an infinite mass, with no overflow warning on the way.
        with pytest.raises(ProbabilityError, match=f": total mass {mass} is not 1$"):
            build(values)

    def test_rejects_negative_mass(self):
        with pytest.raises(ProbabilityError):
            Distribution([1.1, -0.1])

    def test_clips_float_noise_negatives(self):
        d = Distribution([1.0, -1e-15])
        assert d.probs[1] == 0.0

    def test_rejects_nan_and_wrong_shape(self):
        with pytest.raises(ProbabilityError):
            Distribution([np.nan, 1.0])
        with pytest.raises(ProbabilityError):
            Distribution([[0.5, 0.5]])
        with pytest.raises(ProbabilityError):
            Distribution([])

    def test_probs_are_read_only(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_full_support_flag(self):
        assert Distribution([0.3, 0.7]).full_support
        assert not Distribution([0.0, 1.0]).full_support

    def test_json_round_trip(self):
        d = Distribution([0.2, 0.3, 0.5])
        assert Distribution.from_dict(d.to_dict()).probs == pytest.approx(d.probs)


class TestJointDistribution:
    def test_sizes(self, quaternary):
        assert quaternary.x_size == 4
        assert quaternary.y_size == 4

    def test_rejects_zero_marginal(self):
        with pytest.raises(ProbabilityError):
            JointDistribution([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ProbabilityError):
            JointDistribution([[0.5, 0.0], [0.5, 0.0]])

    def test_swapped(self, dsbs):
        assert np.array_equal(dsbs.swapped().probs, dsbs.probs.T)

    def test_json_round_trip(self, dsbs):
        payload = dsbs.to_dict()
        assert payload["x_size"] == 2 and len(payload["probs"]) == 4
        back = JointDistribution.from_dict(payload)
        assert back.probs == pytest.approx(dsbs.probs)

    def test_from_dict_rejects_wrong_length(self):
        with pytest.raises(ProbabilityError):
            JointDistribution.from_dict({"x_size": 2, "y_size": 2, "probs": [1.0]})


class TestChannel:
    def test_rows_renormalize(self):
        ch = Channel([[0.5, 0.5 + 1e-10], [1.0, 0.0]])
        assert ch.rows.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_rejects_bad_row(self):
        with pytest.raises(ProbabilityError):
            Channel([[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_empty(self):
        with pytest.raises(ProbabilityError):
            Channel(np.zeros((0, 2)))

    def test_identity(self):
        ch = Channel.identity(3)
        assert ch.input_size == ch.output_size == 3
        assert np.array_equal(ch.rows, np.eye(3))


class TestEntropy:
    def test_uniform(self):
        assert entropy(Distribution.uniform(2)) == pytest.approx(1.0, abs=1e-15)
        assert entropy(Distribution.uniform(4)) == pytest.approx(2.0, abs=1e-15)

    def test_deterministic_is_zero(self):
        assert entropy(Distribution([1.0, 0.0])) == 0.0

    def test_skewed_binary(self):
        # h(0.1) evaluated directly from the definition
        assert entropy(Distribution([0.1, 0.9])) == pytest.approx(
            0.4689955935892812, rel=1e-12
        )


class TestKlDivergence:
    def test_zero_iff_equal(self):
        p = Distribution([0.3, 0.7])
        assert kl_divergence(p, Distribution([0.3, 0.7])) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        got = kl_divergence(Distribution([0.9, 0.1]), Distribution.uniform(2))
        assert got == pytest.approx(0.5310044064107188, rel=1e-12)

    def test_asymmetry(self):
        a, b = Distribution([0.9, 0.1]), Distribution([0.5, 0.5])
        assert kl_divergence(a, b) != pytest.approx(kl_divergence(b, a), rel=1e-6)

    def test_absolute_continuity_violation(self):
        with pytest.raises(ProbabilityError):
            kl_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_divergence(Distribution.uniform(2), Distribution.uniform(3))

    def test_never_negative_on_near_equal_pairs(self):
        # Summing q log(q/p) cancels to a few -1e-16 on about 40% of these.
        rng = np.random.default_rng(2000)
        for scale in (1e-9, 1e-15):
            for _ in range(1000):
                p = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
                u = rng.standard_normal(p.size) * p
                q = Distribution(p + scale * (u - p * u.sum()))
                assert kl_divergence(q, Distribution(p)) >= 0.0

    def test_zero_mass_of_both_laws_is_skipped(self):
        got = kl_divergence(Distribution([0.9, 0.1, 0.0]), Distribution([0.5, 0.5, 0.0]))
        assert got == pytest.approx(0.5310044064107188, rel=1e-12)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
           st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, raw_q, raw_p):
        n = min(len(raw_q), len(raw_p))
        q = Distribution(np.array(raw_q[:n]) / np.sum(raw_q[:n]))
        p = Distribution(np.array(raw_p[:n]) / np.sum(raw_p[:n]))
        assert kl_divergence(q, p) >= -1e-12


class TestJointOps:
    def test_marginals_quaternary(self, quaternary):
        px, py = marginals(quaternary)
        assert px.probs == pytest.approx(np.full(4, 0.25), abs=1e-15)
        assert py.probs == pytest.approx(np.full(4, 0.25), abs=1e-15)

    def test_conditional_dsbs(self, dsbs):
        ch = conditional(dsbs, "y_given_x")
        np.testing.assert_allclose(ch.rows, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)
        back = conditional(dsbs, "x_given_y")
        np.testing.assert_allclose(back.rows, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)
        with pytest.raises(ProbabilityError):
            conditional(dsbs, "sideways")

    def test_push_forward(self, dsbs):
        ch = conditional(dsbs, "y_given_x")
        out = push_forward(Distribution([0.5, 0.5]), ch)
        assert out.probs == pytest.approx([0.5, 0.5], abs=1e-15)
        out = push_forward(Distribution([1.0, 0.0]), ch)
        assert out.probs == pytest.approx([0.9, 0.1], abs=1e-15)

    def test_push_forward_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            push_forward(Distribution.uniform(3), Channel.identity(2))

    def test_mutual_information_independent(self, independent_binary):
        assert mutual_information(independent_binary) == pytest.approx(0.0, abs=1e-12)

    def test_mutual_information_identity(self, diagonal_binary):
        assert mutual_information(diagonal_binary) == pytest.approx(1.0, abs=1e-12)

    def test_mutual_information_dsbs(self, dsbs):
        # 1 - h(0.1)
        assert mutual_information(dsbs) == pytest.approx(0.5310044064107188, rel=1e-12)

    def test_mutual_information_quaternary(self, quaternary):
        assert mutual_information(quaternary) == pytest.approx(
            0.0780719051126377, rel=1e-12
        )

    def test_mutual_information_nonnegative_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            assert mutual_information(j) >= -1e-12

    def test_mutual_information_of_product_joints_is_never_negative(self):
        # Summed as rel_entr over all cells, hundreds of these came out a few
        # ulps below zero (lowest -7e-16 bits).
        rng = np.random.default_rng(5)
        for _ in range(2000):
            a = rng.dirichlet(np.ones(rng.integers(2, 5)))
            b = rng.dirichlet(np.ones(rng.integers(2, 5)))
            assert 0.0 <= mutual_information(JointDistribution(np.outer(a, b))) <= 1e-15

    def test_mutual_information_near_independence(self):
        # Cells within 1e-4 relative of the product of the marginals: the
        # information is about 1e-9 bits and keeps its digits (rel_entr over
        # all cells was off by up to 3.7e-7 relative).
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
            p *= 1 + 1e-4 * rng.uniform(-1, 1, p.shape)
            j = JointDistribution(p / p.sum())
            want = _decimal_mutual_information(j.probs)
            assert mutual_information(j) == pytest.approx(want, rel=1e-10, abs=0.0)


def _decimal_mutual_information(pxy):
    """I(X;Y) in bits, in 50-digit decimal arithmetic of the law pxy stands for."""
    with localcontext() as ctx:
        ctx.prec = 50
        P = [[Decimal(float(v)) for v in row] for row in pxy]
        total = sum(map(sum, P))
        P = [[v / total for v in row] for row in P]
        px = [sum(row) for row in P]
        py = [sum(col) for col in zip(*P)]
        nats = sum(v * (v / (a * b)).ln() for row, a in zip(P, px) for v, b in zip(row, py) if v)
        return float(nats / Decimal(2).ln())


class TestTensorProduct:
    def test_index_convention(self, dsbs, independent_binary):
        t = tensor_product(dsbs, independent_binary)
        assert t.x_size == t.y_size == 4
        # pair (x1=1, x2=0) is row 2, (y1=0, y2=1) is column 1
        assert t.probs[2, 1] == pytest.approx(
            dsbs.probs[1, 0] * independent_binary.probs[0, 1], rel=1e-15
        )

    def test_marginals_tensorize(self, dsbs):
        t = tensor_product(dsbs, dsbs)
        px, _ = marginals(t)
        assert px.probs == pytest.approx(np.full(4, 0.25), abs=1e-15)

    def test_mutual_information_additive(self, dsbs, quaternary):
        for j in (dsbs, quaternary):
            t = tensor_product(j, j)
            assert mutual_information(t) == pytest.approx(
                2.0 * mutual_information(j), rel=1e-10
            )
