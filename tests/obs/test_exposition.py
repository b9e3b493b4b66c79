"""Exposition-format tests: golden output plus a strict mini-parser.

The golden test pins the exact bytes ``render_text()`` produces for a
hand-built snapshot; the parser tests validate the *format* (every line
is a comment or a ``name{labels} value`` sample, ``# HELP``/``# TYPE``
precede their samples, histogram series are cumulative and consistent)
so any future metric addition stays valid Prometheus exposition without
needing a new golden string.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import MetricSample, TelemetrySnapshot, _format_value
from tests.obs.helpers import parse_exposition


def build_golden_snapshot() -> TelemetrySnapshot:
    return TelemetrySnapshot(samples=(
        MetricSample("repro_events_total", "counter", "Events dispatched.", (((), 1234.0),)),
        MetricSample(
            "repro_messages_sent_total", "counter", "Sent by class.",
            (((("type", "ReqRes"),), 10.0), ((("type", "Token"),), 3.0)),
        ),
        MetricSample("repro_backlog", "gauge", "Pending events.", (((), 7.5),)),
        # Waits 0.5, 1.0, 2.0 and 99.0 against bounds (1, 5).
        MetricSample(
            "repro_wait_ms", "histogram", "Waiting time.",
            (((), ((2, 3, 4), 102.5, 4)),), (1.0, 5.0),
        ),
    ))


GOLDEN = """\
# HELP repro_events_total Events dispatched.
# TYPE repro_events_total counter
repro_events_total 1234
# HELP repro_messages_sent_total Sent by class.
# TYPE repro_messages_sent_total counter
repro_messages_sent_total{type="ReqRes"} 10
repro_messages_sent_total{type="Token"} 3
# HELP repro_backlog Pending events.
# TYPE repro_backlog gauge
repro_backlog 7.5
# HELP repro_wait_ms Waiting time.
# TYPE repro_wait_ms histogram
repro_wait_ms_bucket{le="1"} 2
repro_wait_ms_bucket{le="5"} 3
repro_wait_ms_bucket{le="+Inf"} 4
repro_wait_ms_sum 102.5
repro_wait_ms_count 4
"""


class TestGolden:
    def test_render_text_matches_golden(self):
        assert build_golden_snapshot().render_text() == GOLDEN

    def test_golden_parses(self):
        families = parse_exposition(GOLDEN)
        assert set(families) == {
            "repro_events_total",
            "repro_messages_sent_total",
            "repro_backlog",
            "repro_wait_ms",
        }

    def test_empty_snapshot_renders_empty(self):
        assert TelemetrySnapshot(samples=()).render_text() == ""


class TestFormatValidity:
    def test_every_line_well_formed(self):
        parse_exposition(build_golden_snapshot().render_text())

    def test_histogram_buckets_cumulative_and_consistent(self):
        families = parse_exposition(build_golden_snapshot().render_text())
        hist = families["repro_wait_ms"]["samples"]
        buckets = [(s[1]["le"], float(s[2])) for s in hist if s[0].endswith("_bucket")]
        counts = [v for _, v in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1][0] == "+Inf"
        (count,) = [float(s[2]) for s in hist if s[0].endswith("_count")]
        assert counts[-1] == count, "+Inf bucket must equal _count"

    def test_label_escaping(self):
        sample = MetricSample(
            "repro_x_total", "counter", "h", (((("path", 'a\\b"c\nd'),), 1.0),)
        )
        text = TelemetrySnapshot(samples=(sample,)).render_text()
        assert 'path="a\\\\b\\"c\\nd"' in text
        families = parse_exposition(text)
        assert families["repro_x_total"]["samples"][0][1]["path"] == 'a\\\\b\\"c\\nd'

    def test_help_escaping(self):
        sample = MetricSample("repro_x_total", "counter", "line one\nline two \\ slash", ())
        text = TelemetrySnapshot(samples=(sample,)).render_text()
        assert "# HELP repro_x_total line one\\nline two \\\\ slash" in text


class TestFormatValue:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (0, "0"),
            (3.0, "3"),
            (-2.0, "-2"),
            (7.5, "7.5"),
            (math.inf, "+Inf"),
            (-math.inf, "-Inf"),
        ],
    )
    def test_values(self, value, expected):
        assert _format_value(value) == expected
