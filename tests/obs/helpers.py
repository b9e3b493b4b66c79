"""Shared helpers of the telemetry tests.

* :func:`parse_exposition` — a strict Prometheus text-exposition
  parser, the validity oracle for every rendered snapshot;
* :func:`wait_histogram` — the request-wait histogram a
  :class:`~repro.obs.runtime.TelemetryRuntime` reports for a given list
  of waits, fed through its real push hook on a stand-in simulator.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

from repro.obs import TelemetryRuntime, TelemetrySpec

SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>-?[0-9.e+\-]+|[+-]Inf|NaN)$"
)
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str):
    """Parse exposition text into {family: {"type":..., "samples": [...]}}.

    Raises AssertionError on any formatting violation.  Lines that are
    neither ``# HELP`` nor ``# TYPE`` must be well-formed samples of the
    family whose headers precede them.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, _help = rest.partition(" ")
            assert name not in families, f"duplicate HELP for {name}"
            families[name] = {"type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name == current, "TYPE must follow its HELP"
            assert kind in ("counter", "gauge", "histogram", "untyped")
            families[name]["type"] = kind
        else:
            m = SAMPLE_LINE.match(line)
            assert m, f"malformed sample line: {line!r}"
            name = m.group("name")
            base = current
            assert base is not None and families[base]["type"] is not None
            if families[base]["type"] == "histogram":
                assert (
                    name == base
                    or name == f"{base}_bucket"
                    or name == f"{base}_sum"
                    or name == f"{base}_count"
                ), f"sample {name} outside family {base}"
            else:
                assert name == base, f"sample {name} outside family {base}"
            labels = dict(LABEL_PAIR.findall(m.group("labels") or ""))
            families[base]["samples"].append((name, labels, m.group("value")))
    return families


def wait_histogram(waits, bounds=None):
    """``(cumulative buckets, sum, count)`` of ``waits`` as a run reports them."""
    spec = TelemetrySpec() if bounds is None else TelemetrySpec(wait_buckets=bounds)
    sim = SimpleNamespace(now=0.0, processed_events=0, pending_events=0)
    runtime = TelemetryRuntime(spec, sim)
    for wait in waits:
        runtime.observe_grant(0.0, 0, wait)
    return runtime.finalize().value("repro_request_wait_ms")
