"""Tests for checkpointing and failure recovery."""

import numpy as np
import pytest

from repro.core.accumulate import accumulate_global
from repro.core.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError
from repro.kernels.gaussian import GaussianKernel


@pytest.fixture
def run(rng):
    n, k = 16, 4
    spec = GaussianKernel(n=n, sigma=1.2).spectrum()
    pol = SamplingPolicy.flat_rate(2)
    field = np.zeros((n, n, n))
    field[2:14, 2:14, 2:14] = rng.standard_normal((12, 12, 12))
    pipe = LowCommConvolution3D(n, k, spec, pol, batch=64)
    result = pipe.run_serial(field)
    return n, k, spec, pol, field, pipe, result


class TestCheckpointRoundtrip:
    def test_all_fields_restored(self, run):
        *_rest, result = run
        blob = checkpoint_to_bytes(result.per_domain)
        restored = checkpoint_from_bytes(blob)
        assert set(restored) == {s.index for s, _f in result.per_domain}
        for sub, field in result.per_domain:
            np.testing.assert_array_equal(restored[sub.index].values, field.values)

    def test_float32_checkpoint_smaller(self, run):
        *_rest, result = run
        b64 = checkpoint_to_bytes(result.per_domain)
        b32 = checkpoint_to_bytes(result.per_domain, precision="float32")
        assert len(b32) < len(b64)

    def test_bad_magic(self):
        with pytest.raises(ConfigurationError):
            checkpoint_from_bytes(b"NOTACKPT" + b"\x00" * 16)

    def test_truncation_detected(self, run):
        *_rest, result = run
        blob = checkpoint_to_bytes(result.per_domain)
        with pytest.raises(ConfigurationError):
            checkpoint_from_bytes(blob[: len(blob) // 2])

    def test_empty_checkpoint(self):
        blob = checkpoint_to_bytes([])
        assert checkpoint_from_bytes(blob) == {}


def _missing(pipeline, field, restored):
    """What recovery recomputes: the blocks of the active sub-domains the
    checkpoint lacks."""
    decomp = pipeline.decomposition
    return list(
        decomp.active_blocks(
            field, [sub for sub in decomp if sub.index not in restored]
        )
    )


class TestFailureRecovery:
    def test_recompute_only_missing(self, run):
        """Drop one rank's chunks from the checkpoint; recovery recomputes
        exactly those and the final result is identical."""
        n, k, spec, pol, field, pipe, result = run
        # simulate rank 1 of 3 dying: its round-robin chunks are lost
        lost = {s.index for s, _f in result.per_domain if s.index % 3 == 1}
        surviving = [
            (s, f) for s, f in result.per_domain if s.index not in lost
        ]
        blob = checkpoint_to_bytes(surviving)
        restored = checkpoint_from_bytes(blob)
        assert lost.isdisjoint(restored)

        fresh = LowCommConvolution3D(n, k, spec, pol, batch=64)
        recomputed = dict(fresh.convolve_chunks(_missing(fresh, field, restored)))
        assert {s.index for s in recomputed} == lost
        restored.update({s.index: f for s, f in recomputed.items()})
        total = accumulate_global([restored[i] for i in sorted(restored)])
        np.testing.assert_array_equal(total, result.approx)

    def test_full_checkpoint_recomputes_nothing(self, run):
        n, k, spec, pol, field, pipe, result = run
        blob = checkpoint_to_bytes(result.per_domain)
        restored = checkpoint_from_bytes(blob)

        assert _missing(pipe, field, restored) == []
        assert list(pipe.convolve_chunks([])) == []


class TestCheckpointCorruption:
    """Hardening: corrupt blobs fail loudly with offset context."""

    def _blob(self, run):
        *_rest, result = run
        return checkpoint_to_bytes(result.per_domain)

    def test_roundtrip_then_truncated_entry_payload(self, run):
        blob = self._blob(run)
        assert checkpoint_from_bytes(blob)  # sanity: intact blob decodes
        with pytest.raises(ConfigurationError, match=r"offset \d+"):
            checkpoint_from_bytes(blob[:-7])

    def test_corrupt_entry_length_field(self, run):
        blob = bytearray(self._blob(run))
        # First entry header sits right after magic + count; its length
        # field is the second int64. Blow it up to an absurd value.
        offset = len(b"LC3DCKPT") + 8 + 8
        blob[offset : offset + 8] = (1 << 40).to_bytes(8, "little")
        with pytest.raises(ConfigurationError, match="declares"):
            checkpoint_from_bytes(bytes(blob))

    def test_garbage_entry_payload_not_struct_error(self, run):
        blob = bytearray(self._blob(run))
        # Zero out the serialized payload of the first entry (keeping its
        # declared length): the inner decoder must surface a
        # ConfigurationError with entry context, never struct.error or a
        # silent misparse.
        start = len(b"LC3DCKPT") + 8 + 16
        import struct as struct_mod

        _index, length = struct_mod.unpack_from("<qq", bytes(blob), len(b"LC3DCKPT") + 8)
        blob[start : start + length] = bytes(length)
        with pytest.raises(ConfigurationError, match="entry 0"):
            checkpoint_from_bytes(bytes(blob))

    def test_truncated_header_and_bad_magic(self):
        with pytest.raises(ConfigurationError, match="magic"):
            checkpoint_from_bytes(b"NOTACKPT" + b"\0" * 16)
        with pytest.raises(ConfigurationError, match="truncated checkpoint header"):
            checkpoint_from_bytes(b"LC3DCKPT" + b"\0" * 3)

    def test_trailing_garbage_detected(self, run):
        blob = self._blob(run)
        with pytest.raises(ConfigurationError, match="trailing"):
            checkpoint_from_bytes(blob + b"\xff" * 4)

    def test_negative_count_detected(self, run):
        blob = bytearray(self._blob(run))
        offset = len(b"LC3DCKPT")
        blob[offset : offset + 8] = (-1).to_bytes(8, "little", signed=True)
        with pytest.raises(ConfigurationError, match="negative count"):
            checkpoint_from_bytes(bytes(blob))
