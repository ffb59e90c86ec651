"""Unit tests for the CM's congestion controllers, RTT estimator and schedulers."""

import pytest

from repro.core import (
    AimdWindowController,
    RateAimdController,
    RoundRobinScheduler,
    RttEstimator,
    WeightedRoundRobinScheduler,
    CM_ECN_CONGESTION,
    CM_NO_CONGESTION,
    CM_PERSISTENT_CONGESTION,
    CM_TRANSIENT_CONGESTION,
)
from repro.core.constants import MAX_RTO_SECONDS, MIN_RTO_SECONDS

MTU = 1500


class TestAimdWindowController:
    def test_initial_window_default_one_mtu(self):
        assert AimdWindowController(MTU).cwnd == MTU

    def test_initial_window_configurable(self):
        assert AimdWindowController(MTU, initial_window_mtus=2).cwnd == 2 * MTU

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AimdWindowController(0)
        with pytest.raises(ValueError):
            AimdWindowController(MTU, initial_window_mtus=0)

    def test_slow_start_doubles_per_window_of_acks(self):
        controller = AimdWindowController(MTU)
        controller.on_ack(MTU)
        assert controller.cwnd == pytest.approx(2 * MTU)
        controller.on_ack(2 * MTU)
        assert controller.cwnd == pytest.approx(4 * MTU)

    def test_slow_start_growth_capped_per_ack(self):
        controller = AimdWindowController(MTU)
        controller.on_ack(100 * MTU)  # one giant cumulative report
        assert controller.cwnd == pytest.approx(2 * MTU)

    def test_congestion_avoidance_linear(self):
        controller = AimdWindowController(MTU, ssthresh_bytes=2 * MTU)
        controller.on_ack(2 * MTU)   # still slow start until ssthresh
        start = controller.cwnd
        controller.on_ack(int(start))  # one full window of acks in CA
        assert controller.cwnd == pytest.approx(start + MTU, rel=0.01)

    def test_transient_congestion_halves(self):
        controller = AimdWindowController(MTU)
        for _ in range(6):
            controller.on_ack(int(controller.cwnd))
        before = controller.cwnd
        controller.on_congestion(CM_TRANSIENT_CONGESTION)
        assert controller.cwnd == pytest.approx(before / 2)
        assert controller.transient_events == 1

    def test_persistent_congestion_collapses_to_one_mtu(self):
        controller = AimdWindowController(MTU)
        for _ in range(6):
            controller.on_ack(int(controller.cwnd))
        controller.on_congestion(CM_PERSISTENT_CONGESTION)
        assert controller.cwnd == MTU
        assert controller.ssthresh >= 2 * MTU

    def test_ecn_halves_without_loss(self):
        controller = AimdWindowController(MTU)
        for _ in range(4):
            controller.on_ack(int(controller.cwnd))
        before = controller.cwnd
        controller.on_congestion(CM_ECN_CONGESTION)
        assert controller.cwnd == pytest.approx(before / 2)
        assert controller.ecn_events == 1

    def test_window_never_below_one_mtu(self):
        controller = AimdWindowController(MTU)
        for _ in range(5):
            controller.on_congestion(CM_PERSISTENT_CONGESTION)
        assert controller.cwnd >= MTU

    def test_window_respects_max(self):
        controller = AimdWindowController(MTU, max_window_bytes=4 * MTU)
        for _ in range(10):
            controller.on_ack(int(controller.cwnd))
        assert controller.cwnd <= 4 * MTU

    def test_no_congestion_mode_is_noop(self):
        controller = AimdWindowController(MTU)
        controller.on_congestion(CM_NO_CONGESTION)
        assert controller.cwnd == MTU

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            AimdWindowController(MTU).on_congestion("bogus")

    def test_zero_or_negative_ack_ignored(self):
        controller = AimdWindowController(MTU)
        controller.on_ack(0)
        controller.on_ack(-5)
        assert controller.cwnd == MTU

    def test_rate_estimate_uses_srtt(self):
        controller = AimdWindowController(MTU)
        assert controller.rate_estimate(0.1) == pytest.approx(MTU / 0.1)
        assert controller.rate_estimate(0) > 0  # falls back to a default RTT

    def test_idle_restart_sets_ssthresh(self):
        controller = AimdWindowController(MTU)
        for _ in range(4):
            controller.on_ack(int(controller.cwnd))
        controller.on_idle_restart()
        assert controller.ssthresh == pytest.approx(controller.cwnd)
        assert not controller.in_slow_start()

    def test_dispatch_update_applies_congestion_before_growth(self):
        controller = AimdWindowController(MTU)
        for _ in range(4):
            controller.on_ack(int(controller.cwnd))
        before = controller.cwnd
        controller.dispatch_update(MTU, CM_TRANSIENT_CONGESTION)
        assert controller.cwnd <= before / 2 + MTU


class TestRateAimdController:
    def test_initial_rate(self):
        controller = RateAimdController(MTU, initial_rate_bps=80_000)
        assert controller.rate_estimate(0.1) == pytest.approx(10_000)

    def test_rate_grows_with_acks(self):
        controller = RateAimdController(MTU)
        before = controller.rate_estimate(0.2)
        for _ in range(50):
            controller.on_ack(10 * MTU)
        assert controller.rate_estimate(0.2) > before

    def test_rate_halves_on_congestion(self):
        controller = RateAimdController(MTU)
        for _ in range(50):
            controller.on_ack(10 * MTU)
        before = controller.rate_estimate(0.2)
        controller.on_congestion(CM_TRANSIENT_CONGESTION)
        assert controller.rate_estimate(0.2) == pytest.approx(before / 2, rel=0.01)

    def test_rate_floor(self):
        controller = RateAimdController(MTU, min_rate_bps=8000)
        for _ in range(20):
            controller.on_congestion(CM_PERSISTENT_CONGESTION)
        assert controller.rate_estimate(0.2) >= 1000  # 8000 bps = 1000 B/s

    def test_cwnd_equivalent_positive(self):
        assert RateAimdController(MTU).cwnd >= MTU


class TestRttEstimator:
    def test_first_sample_initialises(self):
        est = RttEstimator()
        est.sample(0.1)
        assert est.smoothed_rtt() == pytest.approx(0.1)
        assert est.deviation() == pytest.approx(0.05)

    def test_ewma_converges(self):
        est = RttEstimator()
        for _ in range(100):
            est.sample(0.2)
        assert est.smoothed_rtt() == pytest.approx(0.2, rel=1e-3)
        assert est.deviation() == pytest.approx(0.0, abs=0.01)

    def test_non_positive_samples_ignored(self):
        est = RttEstimator()
        est.sample(0.0)
        est.sample(-1.0)
        assert not est.has_samples

    def test_default_before_samples(self):
        est = RttEstimator(initial_rtt=0.3)
        assert est.smoothed_rtt() == pytest.approx(0.3)

    def test_deviation_before_the_first_sample_is_half_the_initial_rtt(self):
        assert RttEstimator(initial_rtt=0.3).deviation() == pytest.approx(0.15)

    def test_first_rto_is_initial_rtt_plus_four_half_rtts_clamped(self):
        assert RttEstimator(initial_rtt=0.2).rto() == pytest.approx(0.6)
        assert RttEstimator(initial_rtt=0.05).rto() == MIN_RTO_SECONDS  # 0.15 s, raised
        assert RttEstimator(initial_rtt=30.0).rto() == MAX_RTO_SECONDS  # 90 s, capped

    def test_rto_clamped(self):
        est = RttEstimator()
        est.sample(0.001)
        assert est.rto() >= MIN_RTO_SECONDS
        est2 = RttEstimator()
        est2.sample(100.0)
        assert est2.rto() <= MAX_RTO_SECONDS

    def test_reset(self):
        est = RttEstimator()
        est.sample(0.1)
        est.reset()
        assert not est.has_samples


class TestRoundRobinScheduler:
    def test_single_flow_fifo(self):
        sched = RoundRobinScheduler()
        for _ in range(3):
            sched.enqueue(1)
        assert [sched.next_flow() for _ in range(3)] == [1, 1, 1]
        assert sched.next_flow() is None

    def test_round_robin_interleaves(self):
        sched = RoundRobinScheduler()
        for _ in range(2):
            sched.enqueue(1)
            sched.enqueue(2)
        order = [sched.next_flow() for _ in range(4)]
        assert order == [1, 2, 1, 2]

    def test_pending_counts(self):
        sched = RoundRobinScheduler()
        sched.enqueue(1)
        sched.enqueue(1)
        sched.enqueue(2)
        assert sched.pending_requests() == 3
        assert sched.pending_requests(1) == 2
        assert sched.has_pending()

    def test_remove_flow_discards_requests(self):
        sched = RoundRobinScheduler()
        sched.enqueue(1)
        sched.enqueue(2)
        sched.remove_flow(1)
        assert sched.pending_requests() == 1
        assert sched.next_flow() == 2

    def test_no_flow_starved(self):
        sched = RoundRobinScheduler()
        for _ in range(100):
            sched.enqueue(1)
        sched.enqueue(2)
        served = [sched.next_flow() for _ in range(5)]
        assert 2 in served


class TestWeightedRoundRobinScheduler:
    def test_default_weight_behaves_like_round_robin(self):
        sched = WeightedRoundRobinScheduler()
        for _ in range(2):
            sched.enqueue(1)
            sched.enqueue(2)
        assert sorted([sched.next_flow() for _ in range(4)]) == [1, 1, 2, 2]

    def test_weights_bias_service(self):
        sched = WeightedRoundRobinScheduler()
        sched.set_weight(1, 3)
        for _ in range(30):
            sched.enqueue(1)
            sched.enqueue(2)
        first_twelve = [sched.next_flow() for _ in range(12)]
        assert first_twelve.count(1) > first_twelve.count(2)

    def test_all_requests_eventually_served(self):
        sched = WeightedRoundRobinScheduler()
        sched.set_weight(1, 5)
        for _ in range(10):
            sched.enqueue(1)
            sched.enqueue(2)
        served = []
        while sched.has_pending():
            served.append(sched.next_flow())
        assert served.count(1) == 10 and served.count(2) == 10

    def test_invalid_weight_rejected(self):
        sched = WeightedRoundRobinScheduler()
        with pytest.raises(ValueError):
            sched.set_weight(1, 0)
        with pytest.raises(ValueError):
            WeightedRoundRobinScheduler(default_weight=0)

    def test_remove_flow(self):
        sched = WeightedRoundRobinScheduler()
        sched.enqueue(1)
        sched.enqueue(2)
        sched.remove_flow(2)
        assert sched.next_flow() == 1
        assert sched.next_flow() is None

    def test_empty_returns_none(self):
        assert WeightedRoundRobinScheduler().next_flow() is None
