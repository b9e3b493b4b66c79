"""``scripts/export_metrics.py`` end to end: a valid exposition plus health lines."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from tests.obs.helpers import parse_exposition

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "export_metrics.py"


def test_health_export_to_file(tmp_path, monkeypatch):
    out = tmp_path / "run.prom"
    monkeypatch.setattr(sys, "argv", [
        str(SCRIPT), "--processes", "4", "--resources", "8", "--duration", "300",
        "--warmup", "50", "--health", "-o", str(out),
    ])
    runpy.run_path(str(SCRIPT))["main"]()

    text = out.read_text(encoding="utf-8")
    health = [line for line in text.splitlines() if line.startswith("# HEALTH ")]
    families = parse_exposition(
        "".join(line + "\n" for line in text.splitlines() if not line.startswith("# HEALTH "))
    )
    assert "repro_request_wait_ms" in families
    checks = sorted(line.split()[2] for line in health)
    assert checks == ["grant_progress"]
    assert len(health) == len(families["repro_health"]["samples"])


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--duration", "inf", "duration"),
        ("--warmup", "nan", "warmup"),
    ],
)
def test_bad_option_fails_before_the_run(monkeypatch, flag, value, field):
    """A command-line float reaches the specs as is; they reject it by name."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), flag, value])
    with pytest.raises(ValueError, match=field):
        runpy.run_path(str(SCRIPT))["main"]()
