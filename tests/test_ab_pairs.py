"""``scripts/ab_pairs.py``: the A/B summary over synthetic worker lines
(no subprocess, no workload run)."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(wall_s, setup_s, rss, digest="d" * 64, steps=1000, failed=0):
    """The fields of one ``ledger.worker`` output line the summary reads."""
    return {"wall_s": wall_s, "steps": steps, "setup_s": setup_s,
            "peak_rss_mb": rss, "digest": digest, "failed_ops": failed}


def test_metrics_are_benchmark_json_end_to_end_rows(ab):
    assert ab.end_to_end_metrics() == ["wall_us_per_step", "setup_s",
                                       "peak_rss_mb"]


def test_summary_medians_ranges_ratio_and_pairs_lower(ab):
    pairs = [
        (_line(0.0050, 0.30, 64.0), _line(0.0040, 0.31, 62.5)),
        (_line(0.0052, 0.20, 64.0), _line(0.0045, 0.20, 62.5)),
        (_line(0.0048, 0.25, 63.9), _line(0.0049, 0.24, 62.4)),
        (_line(0.0060, 0.40, 64.1), _line(0.0042, 0.35, 62.6)),
    ]
    summary = ab.summarise(pairs, ["wall_us_per_step", "setup_s",
                                   "peak_rss_mb"])
    wall, setup, rss = summary["rows"]
    assert wall["metric"] == "wall_us_per_step"
    assert wall["parent_median"] == pytest.approx(5.1)  # µs per step
    assert wall["parent_range"] == pytest.approx((4.8, 6.0))
    assert wall["change_median"] == pytest.approx(4.35)
    assert wall["change_range"] == pytest.approx((4.0, 4.9))
    assert wall["ratio"] == pytest.approx(4.35 / 5.1)
    assert wall["change_lower"] == 3 and wall["pairs"] == 4
    # "lower" is strict: the tied pair does not count
    assert setup["change_lower"] == 2
    assert setup["ratio"] == pytest.approx(1.0)  # both medians 0.275
    assert rss["change_lower"] == 4
    q1, q3 = wall["parent_quartiles"]
    assert 4.8 <= q1 <= wall["parent_median"] <= q3 <= 6.0
    assert summary["digests_agree"]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}
    text = ab.render(summary)
    assert "agree" in text and "3/4" in text and "×0.853" in text


@pytest.mark.parametrize("where", ["across", "within"])
def test_summary_flags_digests_that_differ(ab, where):
    other = "e" * 64
    if where == "across":
        pairs = [(_line(1.0, 0.1, 1.0), _line(1.0, 0.1, 1.0, digest=other))]
    else:
        pairs = [(_line(1.0, 0.1, 1.0), _line(1.0, 0.1, 1.0)),
                 (_line(1.0, 0.1, 1.0, digest=other),
                  _line(1.0, 0.1, 1.0, digest=other))]
    summary = ab.summarise(pairs, ["setup_s"])
    assert not summary["digests_agree"]
    assert "DIFFER" in ab.render(summary)


def test_summary_sums_failed_operations_per_side(ab):
    pairs = [(_line(1.0, 0.1, 1.0, failed=1), _line(1.0, 0.1, 1.0)),
             (_line(1.0, 0.1, 1.0), _line(1.0, 0.1, 1.0, failed=2))]
    summary = ab.summarise(pairs, ["peak_rss_mb"])
    assert summary["failed_ops"] == {"parent": 1, "change": 2}
