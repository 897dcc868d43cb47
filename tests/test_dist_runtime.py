"""End-to-end dist-run validation: bitwise identity + wire accounting.

The PR's acceptance bar, as tests:

- a real SPMD job (threads or OS processes over TCP) produces output
  bitwise identical to ``run_serial`` — not merely allclose;
- the measured exchange wire bytes obey the *exact* frame-level
  invariant and stay within 5% of the exact per-destination value-byte
  prediction at the reference configuration (n=32, k=8, flat:2);
- the report carries the paper's Eq 6 allgather count
  (``eq6_value_bytes``), and the real wire, which sends each peer only
  its cells, moves no more than that.
"""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.decomposition import DomainDecomposition
from repro.dist.agent import RankAgent
from repro.dist.inputs import default_spectrum
from repro.dist.launcher import (
    dist_run,
    expected_exchange_value_bytes,
    naive_eq6_bytes,
)
from repro.dist.wire import HEADER_BYTES
from repro.dist.worker import DistConfig, build_pipeline, composite_field
from repro.errors import ConfigurationError, PoolError
from repro.pool import private_pool

SMALL = dict(n=16, k=4, sigma=2.0, policy="flat:2")
#: the calibrated reference point for the 5%-of-Eq-6 acceptance check
#: (smaller grids carry proportionally more framing/metadata overhead)
REFERENCE = dict(n=32, k=8, sigma=2.0, policy="flat:2")


def _active(config, field):
    """The indices of ``field``'s active sub-domains, as the driver finds them."""
    decomp = DomainDecomposition(n=config.n, k=config.k)
    return [sub.index for sub in decomp.active_subdomains(field)]


def _serial(config):
    field = composite_field(config.n, config.seed)
    spectrum = default_spectrum(config)
    return field, spectrum, build_pipeline(config, spectrum).run_serial(field)


class TestBitwiseIdentity:
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_local_matches_run_serial(self, ranks):
        config = DistConfig(num_ranks=ranks, transport="local", **SMALL)
        field, spectrum, serial = _serial(config)
        report = dist_run(config, field=field, spectrum=spectrum)
        assert np.array_equal(report.approx, serial.approx)
        assert report.failed_ranks == []
        assert not report.recovered

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_tcp_matches_run_serial(self, ranks):
        """Barrier and streamed; and a cold rank is a pool agent serving
        one job, so the two front doors agree to the bit and the byte."""
        for overlap in (False, True):
            config = DistConfig(
                num_ranks=ranks, transport="tcp", overlap=overlap, **SMALL
            )
            field, spectrum, serial = _serial(config)
            report = dist_run(config, field=field, spectrum=spectrum)
            assert np.array_equal(report.approx, serial.approx)
            assert report.failed_ranks == []
            # a fresh pool each time: like the cold ranks, its agents have
            # not seen the kernel, so it ships in both
            with private_pool(ranks) as pool:
                pooled = pool.submit(config, field=field, spectrum=spectrum)
            assert np.array_equal(pooled.approx, report.approx)
            for audited in (
                "exchange_wire_bytes",
                "predicted_value_bytes",
                "input_wire_bytes",
                "predicted_input_bytes",
            ):
                assert getattr(pooled, audited) == getattr(report, audited)

    def test_tcp_rank_lost_while_the_mesh_forms_raises(self, monkeypatch):
        """Recovery is for jobs; a control plane that hangs up before
        there is one is an error (forked ranks inherit the patch)."""
        monkeypatch.setattr(RankAgent, "handle", lambda *_: os._exit(1))
        config = DistConfig(num_ranks=2, transport="tcp", **SMALL)
        with pytest.raises(PoolError, match="rank 0 hung up"):
            dist_run(config)

    def test_banded_policy_bitwise(self):
        config = DistConfig(
            n=16, k=4, sigma=2.0, policy="banded", num_ranks=2, transport="local"
        )
        field, spectrum, serial = _serial(config)
        report = dist_run(config, field=field, spectrum=spectrum)
        assert np.array_equal(report.approx, serial.approx)

    def test_default_inputs_match_cli_composite(self):
        config = DistConfig(num_ranks=2, transport="local", **SMALL)
        _field, _spectrum, serial = _serial(config)
        # dist_run's defaults must regenerate the same field/spectrum
        report = dist_run(config)
        assert np.array_equal(report.approx, serial.approx)


class TestWireAccounting:
    def test_exact_frame_invariant(self):
        """Every rank sends one payload to each of its P-1 peers;
        nothing else moves under the exchange category."""
        config = DistConfig(num_ranks=4, transport="local", **SMALL)
        report = dist_run(config)
        p = config.num_ranks
        expected = sum(
            (p - 1) * HEADER_BYTES + r.exchange_payload_bytes
            for r in report.rank_results.values()
        )
        assert report.exchange_wire_bytes == expected
        assert report.wire_totals["recv.exchange.bytes"] == expected

    def test_reference_config_within_5pct_of_eq6(self):
        config = DistConfig(num_ranks=4, transport="local", **REFERENCE)
        report = dist_run(config)
        assert report.predicted_value_bytes > 0
        # wire = value bytes + bounded framing/metadata overhead
        assert 1.0 <= report.wire_over_model <= 1.05

    def test_single_rank_moves_no_bytes(self):
        config = DistConfig(num_ranks=1, transport="local", **SMALL)
        report = dist_run(config)
        assert report.exchange_wire_bytes == 0
        assert report.predicted_value_bytes == 0
        assert report.wire_over_model == 0.0

    def test_prediction_scales_with_peers(self):
        field = composite_field(16, 0)
        two = DistConfig(num_ranks=2, transport="local", **SMALL)
        four = DistConfig(num_ranks=4, transport="local", **SMALL)
        active = _active(two, field)
        b2 = expected_exchange_value_bytes(two, active)
        b4 = expected_exchange_value_bytes(four, active)
        assert b4 == 3 * b2  # (P-1) scaling, same sample count

    def test_naive_closed_form_is_reference_only(self):
        config = DistConfig(num_ranks=2, transport="local", **REFERENCE)
        field = composite_field(config.n, config.seed)
        naive = naive_eq6_bytes(config)
        exact = expected_exchange_value_bytes(config, _active(config, field))
        assert 0 < naive < exact  # closed form undercounts, recorded anyway
        banded = DistConfig(
            n=16, k=4, sigma=2.0, policy="banded", num_ranks=2, transport="local"
        )
        assert naive_eq6_bytes(banded) == 0

    def test_bad_precision_rejected(self):
        config = DistConfig(num_ranks=2, transport="local", **SMALL)
        object.__setattr__(config, "precision", "float16")
        with pytest.raises(ConfigurationError, match="precision"):
            expected_exchange_value_bytes(config, _active(config, composite_field(16, 0)))


class TestDistributedRunnerSelector:
    """``dist_run`` is the one door to real ranks: the loopback transport
    agrees with ``run_serial`` bit for bit, and its wire with Eq 6."""

    def test_local_transport_bitwise(self):
        """Also against the streamed exchange, at a rank count that does
        not divide the sub-domain count; the per-destination exchange
        moves no more than the paper's allgather would."""
        config = DistConfig(
            num_ranks=3, transport="local", n=16, k=4, policy="banded",
            overlap=True,
        )
        field, spectrum, serial = _serial(config)
        real = dist_run(config, field=field, spectrum=spectrum)
        assert np.array_equal(real.approx, serial.approx)
        assert len(real.rank_results) == 3
        assert real.eq6_value_bytes == expected_exchange_value_bytes(
            config, _active(config, field)
        )
        assert 0 < real.predicted_value_bytes <= real.eq6_value_bytes


class TestConfigValidation:
    def test_defaults_valid(self):
        DistConfig()  # no raise

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(num_ranks=0), "rank"),
            (dict(transport="mpi"), "transport"),
            (dict(precision="float16"), "precision"),
            (dict(fail_stage="sometime"), "fail_stage"),
            (dict(fail_rank=5), "fail_rank"),
            (dict(batch=0), "batch"),
            (dict(batch=-1), "batch"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        base = dict(n=16, k=4, num_ranks=2)
        base.update(kwargs)
        with pytest.raises(ConfigurationError, match=match):
            DistConfig(**base)


def test_cli_dist_run_exits_zero(capsys):
    code = main(
        [
            "dist-run",
            "--ranks",
            "2",
            "--transport",
            "local",
            "--n",
            "16",
            "--k",
            "4",
            "--policy",
            "flat:2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bitwise identical to run_serial" in out
    assert "True" in out
