"""Tests for the end-host CPU cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hostmodel import CostModel, CpuLedger, HostCosts, OPERATIONS


class TestCostModel:
    def test_price_lookup(self):
        model = CostModel()
        assert model.price("syscall") == model.syscall

    def test_unknown_operation_raises(self):
        with pytest.raises(KeyError):
            CostModel().price("frobnicate")

    def test_scaled_multiplies_every_price(self):
        model = CostModel()
        doubled = model.scaled(2.0)
        for op in OPERATIONS:
            assert doubled.price(op) == pytest.approx(2.0 * model.price(op))

    def test_all_operations_listed(self):
        model = CostModel()
        for op in OPERATIONS:
            assert model.price(op) >= 0


class TestCpuLedger:
    def test_charge_accumulates(self):
        ledger = CpuLedger()
        ledger.charge("tcp", 5.0)
        ledger.charge("tcp", 3.0)
        ledger.charge("cm", 1.0)
        assert ledger.total_us == pytest.approx(9.0)
        assert ledger.busy_us_by_category["tcp"] == pytest.approx(8.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CpuLedger().charge("x", -1.0)

    def test_utilization(self):
        ledger = CpuLedger()
        ledger.charge("x", 500_000)  # 0.5 s of work
        assert ledger.utilization(1.0) == pytest.approx(0.5)
        assert ledger.utilization(0.25) == 1.0  # capped
        assert ledger.utilization(0.0) == 0.0

    def test_snapshot_is_a_copy(self):
        ledger = CpuLedger()
        ledger.charge("x", 1.0)
        snap = ledger.snapshot()
        ledger.charge("x", 1.0)
        assert snap["x"] == pytest.approx(1.0)

    def test_reset(self):
        ledger = CpuLedger()
        ledger.charge("x", 1.0)
        ledger.count("op", 3)
        ledger.reset()
        assert ledger.total_us == 0.0
        assert not ledger.operation_counts


class TestHostCosts:
    def test_charge_operation_counts_and_prices(self):
        costs = HostCosts()
        charged = costs.charge_operation("ioctl", count=2)
        assert charged == pytest.approx(2 * costs.model.ioctl)
        assert costs.ledger.operation_counts["ioctl"] == 2

    def test_copy_scales_with_bytes(self):
        costs = HostCosts()
        small = costs.charge_copy(1024)
        large = costs.charge_copy(4096)
        assert large == pytest.approx(4 * small)

    def test_syscall_flavour_adds_trap_and_op(self):
        costs = HostCosts()
        total = costs.syscall("recv_call")
        assert total == pytest.approx(costs.model.syscall + costs.model.recv_call)

    def test_kernel_paths_charge_checksum(self):
        costs = HostCosts()
        tx = costs.kernel_tx(1500)
        assert tx > costs.model.kernel_tx_packet

    def test_utilization_passthrough(self):
        costs = HostCosts()
        costs.ledger.charge("x", 1e6)
        assert costs.utilization(2.0) == pytest.approx(0.5)
        assert costs.total_us == pytest.approx(1e6)

    @pytest.mark.parametrize("name", ["scaled", "price", "prices", "__class__", "frobnicate", ""])
    def test_names_outside_operations_are_unknown(self, name):
        """`price` used to be a bare getattr: a method name raised TypeError
        from `method * int`, and a string-valued attribute would be priced."""
        costs = HostCosts()
        for call in (costs.model.price, costs.charge_operation, costs.syscall,
                     lambda op: costs.syscall_copy(op, 100, "app")):
            with pytest.raises(KeyError, match="unknown host operation"):
                call(name)
        assert costs.total_us == 0.0
        assert not costs.ledger.snapshot() and not costs.ledger.operation_counts

    def test_default_hosts_share_one_price_table(self):
        assert HostCosts().model.prices is HostCosts().model.prices
        assert set(CostModel().prices) == set(OPERATIONS)


# --------------------------------------------------------------------------- #
# The arithmetic-order invariant: a composite performs the additions of the    #
# primitive charges it stands for, one at a time, in the same order.           #
# --------------------------------------------------------------------------- #
_CATEGORIES = st.sampled_from([None, "app", "libcm", "kernel", "cm"])
_NAMED = st.sampled_from(["app", "libcm", "kernel"])
_OPS = st.sampled_from(OPERATIONS)
_NBYTES = st.integers(min_value=0, max_value=70_000)
_STEPS = st.one_of(
    st.tuples(st.just("charge_operation"), _OPS, st.sampled_from([1, 1, 2, 3]), _CATEGORIES),
    st.tuples(st.just("charge_copy"), _NBYTES, _NAMED),
    st.tuples(st.just("charge_checksum"), _NBYTES, _NAMED),
    st.tuples(st.just("syscall"), _OPS, _CATEGORIES),
    st.tuples(st.just("syscall_copy"), st.sampled_from(["send_call", "recv_call"]), _NBYTES, _NAMED),
    st.tuples(st.just("kernel_tx"), _NBYTES),
    st.tuples(st.just("kernel_rx"), _NBYTES),
)


def _flat(model, step):
    """What one call stands for: ``[(category, µs), ...]`` and ``[(operation, n), ...]``."""
    name, args = step[0], step[1:]

    def copy(nbytes):
        return model.copy_per_kb * (nbytes / 1024.0)

    def checksum(nbytes):
        return model.checksum_per_kb * (nbytes / 1024.0)

    if name == "charge_operation":
        op, count, category = args
        return [(category or op, model.price(op) * count)], [(op, count)]
    if name == "charge_copy":
        return [(args[1], copy(args[0]))], [("copy_bytes", args[0])]
    if name == "charge_checksum":
        return [(args[1], checksum(args[0]))], []
    if name in ("syscall", "syscall_copy"):
        op, category = args[0], args[-1]
        charges, counts = [(category or "syscall", model.syscall)], [("syscall", 1)]
        if op != "syscall":
            charges.append((category or op, model.price(op)))
            counts.append((op, 1))
        if name == "syscall_copy":
            charges.append((category, copy(args[1])))
            counts.append(("copy_bytes", args[1]))
        return charges, counts
    op = {"kernel_tx": "kernel_tx_packet", "kernel_rx": "kernel_rx_packet"}[name]
    return [("kernel", model.price(op)), ("kernel", checksum(args[0]))], [(op, 1)]


def _hex_state(ledger):
    return (ledger.total_us.hex(), {k: v.hex() for k, v in ledger.snapshot().items()},
            +ledger.operation_counts)


class TestArithmeticOrder:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(_STEPS, min_size=1, max_size=60),
           factor=st.sampled_from([None, 0.1, 0.3, 1.0 / 3.0, 2.5, 7.0]))
    def test_every_charge_equals_its_flat_replay_bit_for_bit(self, steps, factor):
        model = CostModel() if factor is None else CostModel().scaled(factor)
        costs, reference = HostCosts(model), CpuLedger()
        for step in steps:
            charges, counts = _flat(model, step)
            returned = getattr(costs, step[0])(*step[1:])
            expected = None
            for category, microseconds in charges:
                reference.charge(category, microseconds)
                expected = microseconds if expected is None else expected + microseconds
            for operation, times in counts:
                reference.count(operation, times)
            assert returned.hex() == expected.hex(), step
            assert _hex_state(costs.ledger) == _hex_state(reference), step
        assert costs.total_us.hex() == reference.total_us.hex()
        snapshot = costs.ledger.snapshot()
        costs.kernel_tx(1500)
        assert snapshot == reference.snapshot()  # a copy, not a view
        costs.ledger.reset()
        assert _hex_state(costs.ledger) == _hex_state(CpuLedger())
        costs.syscall_copy("send_call", 1000, "app")
        assert costs.ledger.snapshot() == {"app": costs.total_us}

    @pytest.mark.parametrize("model", [CostModel(), CostModel().scaled(-1.0)],
                             ids=["negative-size", "negative-price"])
    def test_negative_and_unknown_charges_leave_the_ledger_untouched(self, model):
        costs = HostCosts(model)
        sign = 1 if model.syscall < 0 else -1  # make exactly the product negative
        refused = [
            lambda: costs.charge_operation("ioctl", count=sign),
            lambda: costs.charge_copy(sign * 100),
            lambda: costs.charge_checksum(sign * 100),
            lambda: costs.kernel_tx(sign * 100),
            lambda: costs.kernel_rx(sign * 100),
            lambda: costs.syscall_copy("send_call", sign * 100, "app"),
        ]
        if sign == 1:
            refused += [lambda: costs.syscall("ioctl", "libcm"), lambda: costs.syscall("recv_call")]
        for call in refused:
            with pytest.raises(ValueError, match="negative"):
                call()
        for call in (lambda: costs.charge_operation("bogus", 2, "app"),
                     lambda: costs.syscall("bogus", "libcm"),
                     lambda: costs.syscall_copy("bogus", 100, "app")):
            with pytest.raises(KeyError, match="unknown host operation"):
                call()
        assert _hex_state(costs.ledger) == _hex_state(CpuLedger())
