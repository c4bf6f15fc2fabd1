import dataclasses
import json

import pytest

from csisplit import cli, pipeline
from csisplit.core import to_real_view, write_csi_file
from csisplit.dependence import dhsic_test
from csisplit.simulate import SimConfig, simulate

SMALL = SimConfig(grid_shape=(3, 3), m=32)


@pytest.mark.parametrize(
    "field, value",
    [("delta_pairs", 0), ("delta_b", 99), ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5)],
)
def test_bad_delta_bar_settings_fail_before_any_stage(field, value):
    cfg = pipeline.PipelineConfig(sim=SMALL, **{field: value})
    with pytest.raises(ValueError, match=field):
        pipeline.run_pipeline(cfg)
    # the settings are unused, and not checked, without the delta_bar metric
    dataclasses.replace(cfg, metrics=("tvd", "cc", "mp")).validate()


def test_cli_dhsic_payload_carries_the_p_value(tmp_path):
    uplink = simulate(SMALL).uplink
    write_csi_file(uplink, tmp_path / "uplink.csi")
    argv = ["dhsic", "--input", str(tmp_path / "uplink.csi"), "--nodes", "0,1", "--b", "100"]
    assert cli.main(argv + ["--output-dir", str(tmp_path), "--seed", "3"]) == 0
    payload = json.loads((tmp_path / "dhsic.json").read_text(encoding="utf-8"))
    view = to_real_view(uplink)
    expected = dhsic_test([view[:, 0], view[:, 1]], b=100, seed=3)
    assert payload["p_value"] == expected.p_value
    assert payload["statistic"] == expected.statistic
