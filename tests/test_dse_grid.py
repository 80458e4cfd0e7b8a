"""Grid-spec parsing, expansion determinism, unit lists, knob binding."""

from __future__ import annotations

import json

import pytest

from repro.dse.grid import (
    KNOBS,
    apply_knobs,
    expand_points,
    load_spec,
    make_units,
    parse_spec,
    validate_knobs,
)
from repro.place.config import GPConfig
from repro.core.rd_placer import RDConfig

RAW = {
    "name": "mini",
    "designs": ["des_perf_1", "fft_1"],
    "grid": {"inflation.alpha": [0.2, 0.4, 0.6], "dpa.density_scale": [1.0, 1.5]},
    "paired": {"rd.max_rounds": [2, 4], "rd.iters_per_round": [40, 20]},
    "scale": 0.25,
    "seed": 3,
    "placers": ["Ours"],
}


class TestSpecParsing:
    def test_json_and_toml_agree(self, tmp_path):
        jpath = tmp_path / "spec.json"
        jpath.write_text(json.dumps(RAW))
        tpath = tmp_path / "spec.toml"
        tpath.write_text(
            'name = "mini"\n'
            'designs = ["des_perf_1", "fft_1"]\n'
            "scale = 0.25\nseed = 3\nplacers = [\"Ours\"]\n"
            "[grid]\n"
            '"inflation.alpha" = [0.2, 0.4, 0.6]\n'
            '"dpa.density_scale" = [1.0, 1.5]\n'
            "[paired]\n"
            '"rd.max_rounds" = [2, 4]\n'
            '"rd.iters_per_round" = [40, 20]\n'
        )
        assert load_spec(jpath) == load_spec(tpath)

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("{}")
        with pytest.raises(ValueError, match="json or .toml"):
            load_spec(path)

    @pytest.mark.parametrize("mutate,match", [
        (lambda r: r.pop("name"), "name"),
        (lambda r: r.update(designs=[]), "designs"),
        (lambda r: r.update(designs=["nope"]), "unknown design"),
        (lambda r: r.update(grid={"bogus.knob": [1]}), "unknown grid knob"),
        (lambda r: r.update(grid={"kernel.backend": ["fastnp"]}),
         "unknown grid knob"),
        (lambda r: r.update(grid={"router.engine": ["scalar"]}),
         "unknown grid knob"),
        (lambda r: r.update(grid={"inflation.alpha": []}), "no values"),
        (lambda r: r.update(grid={"inflation.alpha": ["hot"]}), "number"),
        (lambda r: r.update(paired={"rd.max_rounds": [1], "gp.seed": [1, 2]}),
         "share one length"),
        (lambda r: r.update(paired={"inflation.alpha": [0.3]}), "both"),
        (lambda r: r.update(scale=0), "scale"),
        (lambda r: r.update(placers=["Ours", "NoSuchPlacer"]),
         "unknown placer 'NoSuchPlacer'"),
    ])
    def test_invalid_specs_rejected(self, mutate, match):
        raw = json.loads(json.dumps(RAW))
        mutate(raw)
        with pytest.raises(ValueError, match=match):
            parse_spec(raw)


class TestExpansion:
    def test_point_count_is_cross_times_pairs(self):
        spec = parse_spec(RAW)
        # 3 alphas x 2 density scales, crossed; 2 paired rows zipped
        assert len(expand_points(spec)) == 3 * 2 * 2

    def test_expansion_is_deterministic(self):
        spec = parse_spec(RAW)
        assert expand_points(spec) == expand_points(spec)
        again = parse_spec(json.loads(json.dumps(RAW)))
        assert expand_points(spec) == expand_points(again)

    def test_expansion_order_row_major_sorted_names(self):
        spec = parse_spec({**RAW, "paired": {}})
        points = expand_points(spec)
        # sorted knob names: dpa.density_scale varies slower than
        # inflation.alpha (row-major over sorted names)
        assert points[0] == {"dpa.density_scale": 1.0, "inflation.alpha": 0.2}
        assert points[1] == {"dpa.density_scale": 1.0, "inflation.alpha": 0.4}
        assert points[3] == {"dpa.density_scale": 1.5, "inflation.alpha": 0.2}

    def test_paired_values_advance_together(self):
        spec = parse_spec({**RAW, "grid": {}})
        points = expand_points(spec)
        assert points == [
            {"rd.iters_per_round": 40, "rd.max_rounds": 2},
            {"rd.iters_per_round": 20, "rd.max_rounds": 4},
        ]


class TestUnits:
    def test_unit_ids_and_order(self):
        spec = parse_spec(RAW)
        units = make_units(spec)
        assert len(units) == 12 * 2
        assert units[0].unit_id == "mini:p000:des_perf_1"
        assert units[1].unit_id == "mini:p000:fft_1"
        assert [u.index for u in units] == list(range(len(units)))
        assert units[0].scale == 0.25 and units[0].seed == 3


class TestKnobBinding:
    def test_registry_casts_and_rejects(self):
        assert validate_knobs({"rd.max_rounds": 3}) == {"rd.max_rounds": 3}
        with pytest.raises(ValueError, match="unknown knob"):
            validate_knobs({"bogus": 1})
        with pytest.raises(ValueError, match="unknown knob"):
            validate_knobs({"kernel.backend": "fastnp"})
        with pytest.raises(ValueError, match="integer"):
            validate_knobs({"rd.max_rounds": 2.5})
        with pytest.raises(ValueError, match="number"):
            validate_knobs({"inflation.alpha": True})
        with pytest.raises(ValueError, match="not in"):
            validate_knobs({"rd.pg_mode": "quantum"})
        with pytest.raises(ValueError, match="unknown knob"):
            validate_knobs({"router.engine": "scalar"})

    def test_apply_knobs_rebinds_each_section(self):
        binding = apply_knobs({
            "inflation.alpha": 0.7,
            "dpa.density_scale": 2.0,
            "netmove.max_samples": 16,
            "rd.max_rounds": 3,
            "gp.target_density": 0.8,
            "router.rrr_rounds": 1,
        })
        rd = binding.rd_config
        assert rd.inflation.alpha == 0.7
        assert rd.pinaccess.density_scale == 2.0
        assert rd.netmove.max_samples == 16
        assert rd.max_rounds == 3
        assert rd.router.rrr_rounds == 1
        assert binding.gp_config.target_density == 0.8
        assert rd.gp is binding.gp_config

    def test_empty_mapping_gives_flow_defaults(self):
        binding = apply_knobs({})
        assert binding.gp_config == GPConfig()
        assert binding.rd_config == RDConfig(gp=GPConfig())

    def test_every_registered_knob_applies(self):
        for name, knob in KNOBS.items():
            samples = knob.choices or (
                {"float": 0.95, "int": 2, "bool": True}[knob.kind],
            )
            for sample in samples:
                binding = apply_knobs({name: sample})
                if knob.section == "gp":
                    assert getattr(binding.gp_config, knob.attr) == sample
                elif knob.section == "rd":
                    assert getattr(binding.rd_config, knob.attr) == sample
                else:
                    sub = getattr(binding.rd_config, knob.section)
                    assert getattr(sub, knob.attr) == sample
