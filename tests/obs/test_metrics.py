"""Unit tests for the typed metric samples (repro.obs.metrics)."""

import json

from repro.obs.metrics import counter, gauge, histogram, render_prometheus


class TestSamples:
    def test_shapes_are_plain_and_json_serializable(self):
        view = {
            "outputs": counter(3),
            "occupancy": gauge(0.25),
            "delay": histogram((0.1, 1.0, 10.0), [1, 2, 1, 1], 106.05),
        }
        assert view["outputs"] == {"kind": "counter", "value": 3}
        assert view["occupancy"] == {"kind": "gauge", "value": 0.25}
        assert view["delay"] == {
            "kind": "histogram",
            "buckets": [0.1, 1.0, 10.0],
            "counts": [1, 2, 1, 1],  # last bin = +Inf tail
            "sum": 106.05,
            "count": 5,
        }
        json.dumps(view)


class TestPrometheusRendering:
    def test_families_carry_node_labels(self):
        text = render_prometheus(
            {
                0: {"epochs": counter(3)},
                2: {"epochs": counter(5), "occupancy": gauge(0.5)},
            }
        )
        assert "# TYPE swjoin_epochs counter" in text
        assert 'swjoin_epochs_total{node="0"} 3' in text
        assert 'swjoin_epochs_total{node="2"} 5' in text
        assert 'swjoin_occupancy{node="2"} 0.5' in text
        assert text.endswith("\n")

    def test_histogram_renders_cumulative_buckets(self):
        # Observations 0.05, 0.5 and 5.0 against bounds 0.1 and 1.0.
        sample = histogram((0.1, 1.0), [1, 1, 1], 5.55)
        text = render_prometheus({2: {"delay": sample}})
        assert 'swjoin_delay_bucket{node="2",le="0.1"} 1' in text
        assert 'swjoin_delay_bucket{node="2",le="1"} 2' in text
        assert 'swjoin_delay_bucket{node="2",le="+Inf"} 3' in text
        assert 'swjoin_delay_count{node="2"} 3' in text

    def test_output_is_deterministic(self):
        snaps = {0: {"z": counter(1), "a": counter(1)}}
        assert render_prometheus(snaps) == render_prometheus(snaps)

    def test_empty_input_renders_empty(self):
        assert render_prometheus({}) == ""
