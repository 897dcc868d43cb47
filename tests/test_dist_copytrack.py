"""Copy accounting: CopyLedger semantics + the zero-copy acceptance bar.

The tentpole invariant, as tests: at the reference shape (n=32, k=8,
P=4, tcp) the refactored data plane copies **zero** hot-path bytes per
exchanged field (``wire.*`` sites), versus the pre-refactor pipeline's
serialize-join plus per-peer frame joins — a >= 90% reduction, measured
with the same instrumented legacy entry points rather than assumed.
Results stay bitwise identical to ``run_serial`` and the WireLedger
stays within 1% of the per-destination value-byte prediction.
"""

import numpy as np
import pytest

from repro.core.checkpoint import checkpoint_to_bytes
from repro.dist.collectives import TAG_EXCHANGE
from repro.dist.inputs import default_spectrum
from repro.dist.launcher import dist_run
from repro.dist.wire import Frame, FrameKind, encode_frame
from repro.dist.worker import DistConfig, build_pipeline, composite_field
from repro.octree.serialize import serialize_compressed
from repro.util import copytrack

#: the acceptance shape from the issue: n=32, k=8, P=4 over TCP
REFERENCE = dict(n=32, k=8, sigma=2.0, policy="flat:2")


@pytest.fixture(autouse=True)
def _fresh_ledger():
    copytrack.reset()
    yield
    copytrack.reset()


class TestCopyLedger:
    def test_record_and_prefix_totals(self):
        led = copytrack.CopyLedger()
        led.record("wire.frame_join", 100)
        led.record("wire.frame_join", 50)
        led.record("ckpt.blob_join", 7)
        assert led.bytes_copied() == 157
        assert led.bytes_copied(copytrack.WIRE_PREFIX) == 150
        assert led.events(copytrack.WIRE_PREFIX) == 2
        assert led.events() == 3

    def test_snapshot_shape(self):
        led = copytrack.CopyLedger()
        led.record("wire.encode_cast", 8)
        snap = led.snapshot()
        assert snap["sites"] == {
            "wire.encode_cast": {"bytes": 8, "events": 1}
        }
        assert snap["total_bytes"] == 8
        assert snap["wire_bytes"] == 8

    def test_reset_zeroes_everything(self):
        led = copytrack.CopyLedger()
        led.record("arena.deserialize_into", 64)
        led.reset()
        assert led.bytes_copied() == 0
        assert led.snapshot()["sites"] == {}

    def test_negative_size_rejected(self):
        led = copytrack.CopyLedger()
        with pytest.raises(ValueError, match="negative"):
            led.record("wire.frame_join", -1)

    def test_measured_join_counts_on_global_ledger(self):
        blob = copytrack.measured_join(
            [b"ab", memoryview(b"cd")], site="wire.frame_join"
        )
        assert blob == b"abcd"
        assert copytrack.ledger().bytes_copied("wire.frame_join") == 4


def _own_pairs(config, field, spectrum, rank):
    """The ``(sub-domain, compressed field)`` pairs rank ``rank``
    computes (driver-side replay)."""
    pipeline = build_pipeline(config, spectrum)
    own = pipeline.decomposition.assign_round_robin(config.num_ranks)[rank]
    return list(
        pipeline.convolve_chunks(pipeline.decomposition.active_blocks(field, own))
    )


def _own_fields(config, field, spectrum, rank):
    """The compressed fields rank ``rank`` would ship (driver-side replay)."""
    return [compressed for _sub, compressed in _own_pairs(config, field, spectrum, rank)]


def _measured_legacy_wire_copies(own, blob_len, peers):
    """Hot-path bytes the pre-refactor send path copied for one rank,
    measured by running the still-instrumented legacy entry points:
    one contiguous join per serialized field, then one header+payload
    concatenation per peer."""
    led = copytrack.ledger()
    before = led.bytes_copied(copytrack.WIRE_PREFIX)
    for compressed in own:
        serialize_compressed(compressed)  # wire.serialize_join
    payload = bytes(blob_len)
    for _ in range(peers):
        encode_frame(
            Frame(FrameKind.DATA, 0, TAG_EXCHANGE, payload)
        )  # wire.frame_join
    return led.bytes_copied(copytrack.WIRE_PREFIX) - before


class TestZeroCopyAcceptance:
    """The issue's acceptance bar at the reference shape, over TCP."""

    @pytest.fixture(scope="class")
    def reference_run(self):
        config = DistConfig(num_ranks=4, transport="tcp", **REFERENCE)
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)
        serial = build_pipeline(config, spectrum).run_serial(field)
        report = dist_run(config, field=field, spectrum=spectrum)
        return config, field, spectrum, serial, report

    def test_bitwise_identical_to_run_serial(self, reference_run):
        _config, _field, _spectrum, serial, report = reference_run
        assert np.array_equal(report.approx, serial.approx)
        assert report.failed_ranks == []

    def test_wire_ledger_within_1pct_of_eq6(self, reference_run):
        _config, _field, _spectrum, _serial, report = reference_run
        assert report.predicted_value_bytes > 0
        assert 1.0 <= report.wire_over_model <= 1.01

    def test_zero_hot_path_copies_per_rank(self, reference_run):
        config, _field, _spectrum, _serial, report = reference_run
        assert len(report.rank_results) == config.num_ranks
        for rank, result in report.rank_results.items():
            assert result.copies["wire_bytes"] == 0, (
                f"rank {rank} copied hot-path bytes: {result.copies}"
            )
            # the only remaining copy is the fault-tolerance mailbox blob
            sites = set(result.copies["sites"])
            assert sites <= {copytrack.SITE_CHECKPOINT_JOIN}

    def test_at_least_90pct_reduction_vs_measured_legacy(self, reference_run):
        config, field, spectrum, _serial, report = reference_run
        peers = config.num_ranks - 1
        for rank, result in report.rank_results.items():
            own = _own_fields(config, field, spectrum, rank)
            # the payloads differ per peer; the legacy path joined one
            # frame of the mean size per peer
            baseline = _measured_legacy_wire_copies(
                own, result.exchange_payload_bytes // peers, peers
            )
            assert baseline > 0  # the legacy path always copied something
            new = result.copies["wire_bytes"]
            reduction = 1.0 - new / baseline
            assert reduction >= 0.90, (
                f"rank {rank}: {new} of {baseline} baseline bytes "
                f"still copied ({reduction:.1%} reduction)"
            )

    def test_checkpoint_join_matches_payload_bytes(self, reference_run):
        """The one join is the whole checkpoint the driver is posted; the
        peers' payloads, cut to their cells, are never joined and sum to
        no more than that blob sent to every peer."""
        config, field, spectrum, _serial, report = reference_run
        peers = config.num_ranks - 1
        for rank, result in report.rank_results.items():
            posted = checkpoint_to_bytes(_own_pairs(config, field, spectrum, rank))
            site = result.copies["sites"][copytrack.SITE_CHECKPOINT_JOIN]
            assert site["bytes"] == len(posted)
            assert site["events"] == 1  # barrier mode: one blob
            assert result.exchange_payload_bytes <= peers * len(posted)


class TestFloat32CopyAccounting:
    def test_float32_records_exactly_the_precision_casts(self):
        """float32 is allowed exactly one counted cast per direction —
        nothing else may appear under ``wire.``."""
        config = DistConfig(
            num_ranks=2,
            transport="local",
            precision="float32",
            n=16,
            k=4,
            sigma=2.0,
            policy="flat:2",
        )
        report = dist_run(config)
        assert report.failed_ranks == []
        copytrack_sites = set()
        for result in report.rank_results.values():
            copytrack_sites |= set(result.copies["sites"])
        # loopback transport joins frames (counted); no serialize joins
        # survive, and the only other wire sites are the two casts
        assert copytrack.SITE_SERIALIZE_JOIN not in copytrack_sites
        assert copytrack.SITE_ENCODE_CAST in copytrack_sites
        assert copytrack.SITE_DECODE_CAST in copytrack_sites

    @pytest.mark.parametrize("overlap", [False, True])
    def test_one_encode_cast_per_field_per_job(self, overlap):
        """The posted checkpoint and every peer's cut of a field share one
        float32 downcast: a job casts each owned sample exactly once, at
        any P (loopback ranks share the process ledger)."""
        config = DistConfig(
            num_ranks=3, transport="local", precision="float32", n=16, k=4,
            sigma=2.0, policy="banded", overlap=overlap,
        )
        report = dist_run(config)
        assert report.failed_ranks == []
        results = report.rank_results.values()
        led = copytrack.ledger()
        assert led.events(copytrack.SITE_ENCODE_CAST) == sum(r.num_chunks for r in results)
        assert led.bytes_copied(copytrack.SITE_ENCODE_CAST) == 4 * sum(
            r.total_samples for r in results
        )


class TestLocalTransportAccounting:
    def test_local_threads_share_one_ledger(self):
        """Loopback ranks are threads: copies land on the shared process
        ledger (documented on RankResult.copies)."""
        config = DistConfig(
            num_ranks=2, transport="local", n=16, k=4, sigma=2.0,
            policy="flat:2",
        )
        report = dist_run(config)
        snapshots = [
            r.copies for r in report.rank_results.values()
        ]
        # every thread saw the same global ledger state (same totals
        # modulo snapshot timing); all report the checkpoint joins
        for snap in snapshots:
            assert snap["sites"][copytrack.SITE_CHECKPOINT_JOIN]["events"] >= 2
