"""Cross-module property-based tests.

Hypothesis-driven invariants that cut across subsystem boundaries: the
end-to-end pipeline as a linear/translation-covariant operator, the
communicator's conservation laws, serialization under fuzzing, and
dimensional-consistency properties of the cost models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.comm import SimulatedComm
from repro.cluster.cost import (
    comm_time_ours,
    comm_time_traditional_fft,
    pruned_conv_time,
)
from repro.cluster.device import V100_32GB
from repro.cluster.network import Link
from repro.core.local_conv import LocalConvolution
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError
from repro.kernels.gaussian import GaussianKernel
from repro.octree.compress import CompressedField
from repro.octree.sampling import build_flat_pattern
from repro.octree.serialize import deserialize_compressed, serialize_compressed


N16_SPEC = GaussianKernel(n=16, sigma=1.2).spectrum()


class TestPipelineOperatorProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, seed):
        """run_serial is a linear operator on the input field."""
        r = np.random.default_rng(seed)
        pipe = LowCommConvolution3D(
            16, 4, N16_SPEC, SamplingPolicy.flat_rate(2), batch=64
        )
        a = np.zeros((16, 16, 16))
        b = np.zeros((16, 16, 16))
        a[:8, :8, :8] = r.standard_normal((8, 8, 8))
        b[:8, :8, :8] = r.standard_normal((8, 8, 8))
        out_ab = pipe.run_serial(2.0 * a - 0.5 * b).approx
        out_a = pipe.run_serial(a).approx
        out_b = pipe.run_serial(b).approx
        np.testing.assert_allclose(out_ab, 2.0 * out_a - 0.5 * out_b, atol=1e-9)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_translation_covariance_by_subdomain(self, sx, sy, sz):
        """Shifting the input by whole sub-domains shifts the (lossless)
        output identically — the decomposition introduces no positional
        bias."""
        r = np.random.default_rng(0)
        n, k = 16, 4
        pipe = LowCommConvolution3D(
            n, k, N16_SPEC, SamplingPolicy.flat_rate(1), batch=64
        )
        field = np.zeros((n, n, n))
        field[:4, :4, :4] = r.standard_normal((4, 4, 4))
        shift = (sx * k, sy * k, sz * k)
        shifted = np.roll(field, shift, axis=(0, 1, 2))
        out1 = np.roll(pipe.run_serial(field).approx, shift, axis=(0, 1, 2))
        out2 = pipe.run_serial(shifted).approx
        np.testing.assert_allclose(out2, out1, atol=1e-9)

    @given(st.sampled_from([1, 2, 4]))
    @settings(max_examples=6, deadline=None)
    def test_zero_in_zero_out(self, rate):
        pipe = LowCommConvolution3D(
            16, 4, N16_SPEC, SamplingPolicy.flat_rate(rate), batch=64
        )
        out = pipe.run_serial(np.zeros((16, 16, 16)))
        assert np.all(out.approx == 0.0)


class TestCommConservation:
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_alltoall_conserves_data(self, p, seed):
        """Every element sent is received exactly once (permutation)."""
        r = np.random.default_rng(seed)
        comm = SimulatedComm(p)
        send = [
            [r.standard_normal(3) for _ in range(p)] for _ in range(p)
        ]
        recv = comm.alltoall(send)
        sent_sum = sum(send[i][j].sum() for i in range(p) for j in range(p))
        recv_sum = sum(recv[j][i].sum() for j in range(p) for i in range(p))
        assert sent_sum == pytest.approx(recv_sum)

    @given(st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_ledger_monotone(self, p):
        comm = SimulatedComm(p)
        before = comm.ledger.total_bytes
        comm.allgather([np.zeros(8)] * p)
        mid = comm.ledger.total_bytes
        comm.bcast(np.zeros(8))
        after = comm.ledger.total_bytes
        assert before <= mid <= after


class TestSerializationFuzz:
    @given(st.integers(0, 2**31 - 1), st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_corruption_never_crashes_unsafely(self, seed, flip_at):
        """Any single-byte corruption either raises ConfigurationError or
        decodes to a structurally valid field — never segfaults/ValueError
        from numpy internals."""
        r = np.random.default_rng(seed)
        pat = build_flat_pattern(8, 4, (0, 0, 0), r=2)
        cf = CompressedField.from_dense(r.standard_normal((8, 8, 8)), pat)
        payload = bytearray(serialize_compressed(cf))
        flip_at = flip_at % len(payload)
        payload[flip_at] ^= 0xFF
        try:
            out = deserialize_compressed(bytes(payload))
        except ConfigurationError:
            return  # detected — good
        # decoded: must still be structurally consistent
        assert out.values.size == out.pattern.sample_count


class TestCostModelProperties:
    @given(
        st.sampled_from([256, 512, 1024]),
        st.sampled_from([8, 64, 512]),
    )
    @settings(max_examples=20, deadline=None)
    def test_comm_times_scale_inverse_p(self, n, p):
        link = Link(alpha_s=0.0)
        t1 = comm_time_traditional_fft(n, p, link)
        t2 = comm_time_traditional_fft(n, 2 * p, link)
        assert t2 == pytest.approx(t1 / 2)

    @given(
        st.sampled_from([256, 1024]),
        st.sampled_from([16, 32, 64]),
        st.sampled_from([2, 8, 32]),
    )
    @settings(max_examples=20, deadline=None)
    def test_ours_beats_eq1_when_compressed(self, n, k, r):
        """Eq 6 < Eq 1 whenever compression is real (r >= 2, k << N)."""
        if k >= n:
            return
        link = Link()
        assert comm_time_ours(n, k, r, 64, link) < comm_time_traditional_fft(
            n, 64, link
        )

    @given(st.sampled_from([128, 256, 512]), st.sampled_from([2, 4, 8]))
    @settings(max_examples=15, deadline=None)
    def test_pruned_time_monotone_in_n(self, n, r):
        t1 = pruned_conv_time(V100_32GB, n, 32, r)
        t2 = pruned_conv_time(V100_32GB, 2 * n, 32, r)
        assert t2 > t1


class TestLocalConvAdjointSymmetry:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_symmetric_kernel_commutes_with_reflection(self, seed):
        """For a centrosymmetric kernel, convolving a reflected input equals
        reflecting the convolved input (checked through the full staged
        compressed machinery on the lossless pattern)."""
        r = np.random.default_rng(seed)
        n, k = 16, 4
        lc = LocalConvolution(n, N16_SPEC, SamplingPolicy.flat_rate(1), batch=64)
        sub = r.standard_normal((k, k, k))
        out = lc.convolve_dense_debug(sub, (4, 4, 4))
        # reflect input (about the periodic origin) and corner accordingly
        sub_r = sub[::-1, ::-1, ::-1]
        # block [c, c+k) reflects (mod n) to [n-c-k+1, n-c+1)
        corner_r = tuple((n - 4 - k + 1) % n for _ in range(3))
        out_r = lc.convolve_dense_debug(sub_r, corner_r)
        reflected = np.roll(out[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))
        np.testing.assert_allclose(out_r, reflected, atol=1e-9)
