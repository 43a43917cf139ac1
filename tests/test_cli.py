import json
import warnings

import pytest

import dronesim as ds
from dronesim.cli import main


def fixture(name):
    return str(ds.bundled_scenario_path(name))


def test_validate_ok(capsys):
    assert main(["validate", "--scenario", fixture("hover.json")]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    data = json.loads(ds.bundled_scenario_path("hover.json").read_text())
    data["drones"][0]["body"]["mass"] = -1.0
    bad.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(bad)]) == 1
    assert "drones[0].body.mass" in capsys.readouterr().err


def test_validate_missing_file_is_invalid_input(tmp_path, capsys):
    assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main(["simulate"]) == 1          # missing required flags
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_simulate_writes_geojson_and_metrics(tmp_path, capsys):
    out = tmp_path / "track.geojson"
    metrics = tmp_path / "metrics.json"
    code = main(["simulate", "--scenario", fixture("hover.json"),
                 "--out", str(out), "--format", "geojson",
                 "--metrics", str(metrics)])
    assert code == 0
    document = json.loads(out.read_text())
    assert document["type"] == "FeatureCollection"
    report = json.loads(metrics.read_text())
    assert report["event_counts"]["mission_complete"] == 1
    assert "alpha" in report["route_length_flown_m"]


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "track.csv"
    code = main(["simulate", "--scenario", fixture("two_drone_cross.json"),
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("drone_id,t,")
    assert len(lines) > 10
    loaded = ds.load_csv(out)
    assert sorted(loaded.samples) == ["east", "west"]


def test_simulate_exports_and_scores_without_building_states(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(ds.DroneState, "from_checked",
                        classmethod(lambda cls, t, x: built.append(t)))
    out = tmp_path / "track.csv"
    for fmt in ("csv", "geojson"):
        assert main(["simulate", "--scenario", fixture("two_drone_cross.json"),
                     "--out", str(out), "--format", fmt,
                     "--metrics", str(tmp_path / "metrics.json")]) == 0
        if fmt == "csv":
            rows = len(out.read_text().strip().splitlines()) - 1
            assert f"for 2 drone(s) ({rows} samples, " in capsys.readouterr().out
    assert built == []

def test_simulate_unwritable_output_is_runtime_failure(tmp_path, capsys):
    code = main(["simulate", "--scenario", fixture("hover.json"),
                 "--out", str(tmp_path / "no" / "such" / "dir" / "x.geojson")])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


def test_plan_route_with_oracle_prints_both_lengths(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main(["plan-route", "--scenario", fixture("square_route.json"),
                 "--out", str(out), "--oracle"])
    assert code == 0
    output = capsys.readouterr().out
    assert "heuristic total length" in output
    assert "exhaustive optimum" in output
    plan = json.loads(out.read_text())
    assert plan["feasible"] is True
    assert plan["routes"][0]["waypoint_ids"]
    assert plan["oracle"]["total_length_m"] == pytest.approx(plan["total_length_m"])


def test_plan_route_oracle_guard_is_invalid_input(tmp_path, capsys):
    data = json.loads(ds.bundled_scenario_path("square_route.json").read_text())
    waypoints = [{"id": f"wp-{i:02d}", "position": [float(i), 0.0, 5.0]}
                 for i in range(12)]
    data["mission"]["waypoints"] = waypoints
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    code = main(["plan-route", "--scenario", str(big),
                 "--out", str(tmp_path / "plan.json"), "--oracle"])
    assert code == 1
    assert "exhaustive search" in capsys.readouterr().err


def test_parallel_flag_is_a_usage_error_and_a_plain_run_is_silent(tmp_path, capsys):
    args = ["simulate", "--scenario", fixture("hover.json"),
            "--out", str(tmp_path / "hover.csv"), "--format", "csv"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 0
    assert not caught
    capsys.readouterr()
    assert main(args + ["--parallel"]) == 1
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err
