"""The csisplit names and parameters the benchmark harness traces.

``bench/layers.py`` wraps each name in ``SPANNED`` and ``COUNTED``; a name
that disappears from the package silently drops its per-layer metric from
a traced run, and a parameter that a work function reads makes the traced
call raise. This keeps both visible to the package's own tests.
"""

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from layers import COUNTED, SPANNED  # noqa: E402
from tracing import Tracer  # noqa: E402

from csisplit import autoencoder, core, dependence  # noqa: E402


def test_every_traced_name_exists():
    assert Tracer(SPANNED, COUNTED).absent == []


def test_the_parameters_the_work_functions_read_exist():
    assert "b" in inspect.signature(dependence.dhsic_test).parameters
    assert "path" in inspect.signature(core.read_csi_file).parameters
    assert {"cfg", "dataset"} <= set(inspect.signature(autoencoder.train).parameters)
