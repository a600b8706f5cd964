"""Tests for the shared report document shape and CSV writer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmarkov.diagnostics import Binning, DecayFit, GirsanovReport, LyapunovFit
from nlmarkov.ergodicity import (
    ContractionCheck,
    FixedPointResult,
    HMCertificate,
    RateReport,
)
from nlmarkov.kernels import ErgodicityCertificate
from nlmarkov.measures import DiscreteMeasure
from nlmarkov.reporting import (
    CSV_SCHEMA,
    Claim,
    REPORT_SCHEMA,
    format_float,
    report_document,
    write_csv,
    write_json_report,
)

CERT = ErgodicityCertificate(0.7, 0.0, "fast", 50, kernel_label="demo")
HALF = DiscreteMeasure.two_point(0.5)

# (record, its exact key set); each passed is given as, or computed to,
# an np.bool_ where the class allows it
RECORDS = {
    "Claim": (Claim("c", np.bool_(True), {"x": np.float64(1.5)}),
              {"name", "passed", "witness"}),
    "Binning": (Binning(), {"lower", "upper", "bins"}),
    "LyapunovFit": (LyapunovFit(0.5, 1.0, 2.0, 5, 0.01, False, 0.9),
                    {"gamma_hat", "K_hat", "lag", "n_points", "residual_rms",
                     "degenerate", "predicted_gamma"}),
    "GirsanovReport": (GirsanovReport((0.5,), (0.1,), (0.3,), 0.0, 0.2, 0.1, 1.0,
                                      ((0.5, 0.4, 0.3),)),
                       {"times", "estimates", "bounds", "allowance", "tv0",
                        "epsilon", "lipschitz_L", "violations", "passed"}),
    "DecayFit": (DecayFit(0.6, 0.5, 0.7, 0.1, 3, (0.0, 1.0, 2.0), (1.0, 0.5, 0.25),
                          0.01),
                 {"theta", "theta_lower", "theta_upper", "log_c", "n_used",
                  "times", "tv_values", "noise_floor"}),
    "FixedPointResult": (FixedPointResult(True, HALF, 3, 0.0, None),
                         {"converged", "measure", "iterations", "residual",
                          "cycle_period"}),
    "ContractionCheck": (ContractionCheck(2, np.int64(0), -0.1,
                                          ([1.0, 0.0], [0.0, 1.0]), 1e-12),
                         {"n_pairs", "n_violations", "max_excess", "worst_pair",
                          "tolerance", "passed"}),
    "RateReport": (RateReport("demo", CERT, (0.5, 0.1), (2.0, 0.6), 1e-15, (),
                              np.bool_(True), (0.5, 0.5), 4),
                   {"kernel", "certificate", "first_step", "distances", "bounds",
                    "numerical_floor", "violations", "falsified", "invariant",
                    "fixed_point_iterations", "passed"}),
    "HMCertificate": (HMCertificate(0.5, 1.0, 0.3, 0.1, 0.9, 4.0, (0, 1), 10),
                      {"gamma", "K", "alpha_local", "beta", "lambda_w",
                       "sublevel_threshold", "sublevel_states", "n_test_pairs",
                       "kernel"}),
    "ErgodicityCertificate": (CERT, {"alpha_hat", "lambda_hat", "regime",
                                     "grid_resolution", "tie_tolerance", "kernel"}),
}


class TestReportDocument:
    def test_shape_and_pass_aggregation(self):
        doc = report_document(
            "demo",
            {"alpha": 0.25},
            [Claim("a", True, {"x": 1}), Claim("b", False)],
            details={"note": "hi"},
        )
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["kind"] == "demo"
        assert doc["passed"] is False
        assert [c["name"] for c in doc["claims"]] == ["a", "b"]
        assert doc["claims"][1]["witness"] == {}
        assert doc["details"] == {"note": "hi"}

    def test_empty_claims_pass_vacuously(self):
        assert report_document("demo", {})["passed"] is True

    def test_numpy_values_become_plain_json(self):
        doc = report_document(
            "demo",
            {
                "arr": np.array([1.5, 2.5]),
                "f": np.float64(0.1),
                "i": np.int32(7),
                "b": np.bool_(True),
                "nested": {"inner": (np.float32(2.0),)},
            },
        )
        text = json.dumps(doc)
        parsed = json.loads(text)
        assert parsed["parameters"]["arr"] == [1.5, 2.5]
        assert parsed["parameters"]["i"] == 7
        assert parsed["parameters"]["b"] is True
        assert parsed["parameters"]["nested"]["inner"] == [2.0]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_serializes_by_field_name(name, tmp_path):
    record, keys = RECORDS[name]
    d = record.to_dict()
    assert set(d) == keys
    assert not {"kernel_label", "trajectory"} & set(d)
    text = write_json_report(tmp_path / "r.json", record).read_text()
    assert json.loads(text) == d
    if "passed" in d:
        assert type(d["passed"]) is bool
        assert f'"passed": {json.dumps(bool(record.passed))}' in text


def test_record_renames_drops_and_nests():
    assert RECORDS["FixedPointResult"][0].to_dict()["measure"] == [0.5, 0.5]
    d = RECORDS["RateReport"][0].to_dict()
    assert d["kernel"] == "demo"
    assert d["certificate"] == CERT.to_dict()
    assert d["certificate"]["kernel"] == "demo"
    assert d["passed"] is False


class TestWriters:
    def test_json_report_is_byte_stable(self, tmp_path):
        doc = report_document("demo", {"b": 2, "a": 1}, [Claim("ok", True)])
        p1 = write_json_report(tmp_path / "one" / "report.json", doc)
        p2 = write_json_report(tmp_path / "two" / "report.json", doc)
        assert p1.read_bytes() == p2.read_bytes()
        parsed = json.loads(p1.read_text())
        assert parsed["parameters"] == {"a": 1, "b": 2}
        # sorted keys, no timestamps anywhere
        assert list(parsed) == sorted(parsed)

    def test_csv_layout_and_float_precision(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            ["n", "value"],
            [(0, 0.1), (1, 2.0 / 3.0)],
            tag="demo-table",
        )
        lines = path.read_text().splitlines()
        assert lines[0] == f"# {CSV_SCHEMA} demo-table"
        assert lines[1] == "n,value"
        assert lines[2] == "0,0.10000000000000001"
        # 17 significant digits round-trip exactly
        assert float(lines[3].split(",")[1]) == 2.0 / 3.0

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.one_of(
        st.tuples(st.integers(-10**20, 10**20), st.floats(), st.floats()),
        st.lists(st.one_of(
            st.integers(-10**20, 10**20),
            st.floats(allow_subnormal=True),
            st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, float("nan"),
                             float("inf"), -float("inf")]),
            st.floats().map(np.float64),
            st.integers(-2**63, 2**63 - 1).map(np.int64),
            st.booleans(),
            st.text("ab-1.", max_size=3)), max_size=6)), max_size=12))
    def test_csv_rows_print_as_format_float_prints_each_value(self, tmp_path_factory, rows):
        # rows of one shape reuse one format; mixed rows fall back
        path = write_csv(tmp_path_factory.mktemp("csv") / "t.csv", ["x"], rows)
        want = [f"# {CSV_SCHEMA} table", "x",
                *(",".join(format_float(v) for v in row) for row in rows)]
        assert path.read_text() == "\n".join(want) + "\n"

    def test_format_float_passthrough_for_non_floats(self):
        assert format_float(3) == "3"
        assert format_float("x") == "x"
        assert format_float(np.float64(0.5)) == "0.5"
