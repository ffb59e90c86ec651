"""``python -m bench agree``: bounds, exact counts, exit status."""

import json

from bench.agree import compare, load_bounds, main


def _set(wall, events, noisy=False):
    return {"workloads": {"bulk_share": {
        "environment": {"noisy": noisy},
        "metrics": {"run_wall_s": {"value": wall, "unit": "s"},
                    "netsim.engine.events_dispatched": {"value": events, "unit": "count"},
                    "netsim.engine.self_share": {"value": wall / 10, "unit": "ratio"}}}}}


BOUNDS = {"run_wall_s": {"bound": 0.10, "better": "lower"}}


def test_within_bound_agrees_and_is_symmetric():
    rows = compare(_set(1.00, 5), _set(1.08, 5), BOUNDS)
    assert [row["metric"] for row in rows] == ["netsim.engine.events_dispatched", "run_wall_s"]
    assert not any(row["breach"] for row in rows)
    swapped = compare(_set(1.08, 5), _set(1.00, 5), BOUNDS)
    assert swapped[1]["disagreement"] == rows[1]["disagreement"]


def test_beyond_bound_and_unequal_counts_breach():
    rows = {row["metric"]: row for row in compare(_set(1.00, 5), _set(1.12, 6), BOUNDS)}
    assert rows["run_wall_s"]["breach"]
    assert rows["netsim.engine.events_dispatched"]["breach"]
    assert "netsim.engine.self_share" not in rows  # unbounded, not an exact count


def test_bounds_come_from_the_manifest():
    bounds = load_bounds()
    assert "setup_s" in bounds and 0 < bounds["setup_s"]["bound"] <= 0.25


def test_main_exit_status(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(_set(1.00, 5)))
    b.write_text(json.dumps(_set(1.02, 5, noisy=True)))
    c.write_text(json.dumps(_set(2.00, 5)))
    assert main(str(a), str(b)) == 0
    assert "noisy" in capsys.readouterr().out
    assert main(str(a), str(c)) == 1
    assert "BREACH" in capsys.readouterr().out
