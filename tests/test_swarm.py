import dataclasses
import math

import numpy as np
import pytest

import dronesim as ds
import dronesim.airframe as dronesim_airframe
from dronesim import swarm as swarm_module
from dronesim.cli import routes_from_plan

from conftest import build_reference_craft, crossing, grid_violations, level_state


def calm_scenario(dt=0.002, max_duration=10.0):
    return ds.Scenario(physics=ds.Physics(), conditions=ds.FlyingConditions(),
                       inertial_frame=ds.InertialFrame(41.1, 16.9, 10.0),
                       reference_time_step=dt, max_duration=max_duration,
                       recording_interval=0.1)


def make_drone(name, position, route=()):
    return ds.Drone(id=name, airframe=build_reference_craft(),
                    state=level_state(*position),
                    gains=ds.ControllerGains(),
                    route=[ds.Setpoint(ds.vec3(*p)) for p in route])


def events_of(trajectory, kind):
    return [e for e in trajectory.events if e.kind == kind]


def instant_events(swarm, conditions, t):
    # every violation among the drones' states at t
    positions = np.array([d.state.position for d in swarm.drones]).T
    return grid_violations([d.id for d in swarm.drones], positions, swarm.min_separation,
                           conditions, t)


# --- interaction checks -----------------------------------------------------

def test_far_apart_drones_raise_no_events():
    swarm = ds.Swarm([make_drone("a", (0, 0, 5)), make_drone("b", (10, 0, 5))],
                     min_separation=2.0)
    assert instant_events(swarm, ds.FlyingConditions(), 0.0) == []


def test_close_pair_emits_one_violation_naming_both():
    swarm = ds.Swarm([make_drone("a", (0, 0, 5)), make_drone("b", (1, 0, 5))],
                     min_separation=2.0)
    events = instant_events(swarm, ds.FlyingConditions(), 3.0)
    assert len(events) == 1
    event = events[0]
    assert event.kind == "separation_violation"
    assert event.drone_ids == ("a", "b")
    assert event.t == 3.0
    assert event.payload["distance_m"] == pytest.approx(1.0)


def test_three_coincident_drones_give_three_pairs():
    swarm = ds.Swarm([make_drone(n, (0, 0, 5)) for n in ("a", "b", "c")],
                     min_separation=2.0)
    events = instant_events(swarm, ds.FlyingConditions(), 0.0)
    pairs = {e.drone_ids for e in events}
    assert pairs == {("a", "b"), ("a", "c"), ("b", "c")}


def test_drone_inside_obstacle_is_reported():
    box = ds.Box(ds.vec3(-1, -1, 4), ds.vec3(1, 1, 6))
    swarm = ds.Swarm([make_drone("a", (0, 0, 5))], min_separation=2.0)
    events = instant_events(swarm, ds.FlyingConditions(obstacles=[box]), 0.0)
    assert [e.kind for e in events] == ["obstacle_collision"]
    assert events[0].drone_ids == ("a",)


# --- simulate ---------------------------------------------------------------

def test_route_at_own_position_completes_at_t0():
    drone = make_drone("a", (1.0, 2.0, 5.0), route=[(1.0, 2.0, 5.0)])
    trajectory = ds.simulate(ds.Swarm([drone]), calm_scenario(), 0.1)
    kinds = [e.kind for e in trajectory.events]
    assert kinds == ["waypoint_reached", "mission_complete"]
    assert all(e.t == 0.0 for e in trajectory.events)
    samples = trajectory.samples["a"]
    assert len(samples) == 1
    assert np.max(np.abs(samples[0].position - [1.0, 2.0, 5.0])) < 1e-3


def test_empty_route_completes_immediately():
    drone = make_drone("a", (0.0, 0.0, 3.0))
    trajectory = ds.simulate(ds.Swarm([drone]), calm_scenario(), 0.1)
    assert [e.kind for e in trajectory.events] == ["mission_complete"]
    assert trajectory.events[0].t == 0.0
    assert len(trajectory.samples["a"]) == 1


def test_finished_drone_station_holds_while_others_fly():
    idle = make_drone("idle", (0.0, 0.0, 5.0))
    busy = make_drone("busy", (30.0, 0.0, 5.0), route=[(36.0, 0.0, 5.0)])
    trajectory = ds.simulate(ds.Swarm([idle, busy]), calm_scenario(max_duration=20.0), 0.1)
    complete = {e.drone_ids[0]: e.t for e in events_of(trajectory, "mission_complete")}
    assert complete["idle"] == 0.0
    assert complete["busy"] > 0.0
    # the idle drone kept station within a millimeter the whole time
    drift = max(float(np.linalg.norm(s.position - [0.0, 0.0, 5.0]))
                for s in trajectory.samples["idle"])
    assert drift < 1e-3
    assert len(trajectory.samples["idle"]) > 1


def test_crossing_drones_emit_separation_violation():
    east = make_drone("east", (-10.0, 0.0, 5.0), route=[(10.0, 0.0, 5.0)])
    west = make_drone("west", (10.0, 0.5, 5.0), route=[(-10.0, 0.5, 5.0)])
    trajectory = ds.simulate(ds.Swarm([east, west], min_separation=2.0),
                             calm_scenario(max_duration=30.0), 0.1)
    violations = events_of(trajectory, "separation_violation")
    assert len(violations) >= 1
    assert violations[0].drone_ids == ("east", "west")
    assert violations[0].payload["distance_m"] < 2.0


def test_violation_episode_emits_single_event():
    # two drones flying closer than the floor for the whole run: one
    # continuous episode, hence exactly one event despite many ticks
    close_a = make_drone("a", (0, 0, 5))
    close_b = make_drone("b", (1, 0, 5), route=[(1.0, 0.0, 7.0)])
    trajectory = ds.simulate(ds.Swarm([close_a, close_b], min_separation=5.0),
                             calm_scenario(max_duration=10.0), 0.1)
    assert len(events_of(trajectory, "separation_violation")) == 1
    assert len(trajectory.samples["b"]) > 10  # genuinely flew for a while


def test_simulation_is_deterministic():
    def run():
        east = make_drone("east", (-5.0, 0.0, 5.0), route=[(5.0, 0.0, 5.0)])
        west = make_drone("west", (5.0, 0.5, 5.0), route=[(-5.0, 0.5, 5.0)])
        return ds.simulate(ds.Swarm([east, west], min_separation=2.0),
                           calm_scenario(max_duration=15.0), 0.1)

    first, second, third = run(), run(), run()
    for reference, candidate in ((first, second), (first, third)):
        assert [ (e.t, e.kind, e.drone_ids) for e in reference.events ] == \
               [ (e.t, e.kind, e.drone_ids) for e in candidate.events ]
        for drone_id in reference.samples:
            a, b = reference.samples[drone_id], candidate.samples[drone_id]
            assert len(a) == len(b)
            for sa, sb in zip(a, b):
                assert sa.t == sb.t
                assert np.array_equal(sa.position, sb.position)
                assert np.array_equal(sa.velocity, sb.velocity)
                assert np.array_equal(sa.orientation, sb.orientation)
                assert np.array_equal(sa.angular_velocity, sb.angular_velocity)


def test_all_times_are_tick_multiples_and_increasing():
    dt = 0.002
    drone = make_drone("a", (0.0, 0.0, 5.0), route=[(4.0, 0.0, 5.0)])
    trajectory = ds.simulate(ds.Swarm([drone]), calm_scenario(dt=dt), 0.1)
    for event in trajectory.events:
        assert abs(event.t / dt - round(event.t / dt)) < 1e-6
        assert 0.0 <= event.t <= 10.0
    times = [s.t for s in trajectory.samples["a"]]
    assert all(b > a for a, b in zip(times, times[1:]))
    for t in times:
        assert abs(t / dt - round(t / dt)) < 1e-6


def test_event_stream_is_time_ordered_with_updates_before_checks():
    east = make_drone("east", (-5.0, 0.0, 5.0), route=[(5.0, 0.0, 5.0)])
    west = make_drone("west", (5.0, 0.5, 5.0), route=[(-5.0, 0.5, 5.0)])
    trajectory = ds.simulate(ds.Swarm([east, west], min_separation=2.0),
                             calm_scenario(max_duration=15.0), 0.1)
    times = [e.t for e in trajectory.events]
    assert times == sorted(times)
    # interaction events only ever follow a completed model update,
    # so none may carry t = 0 when the drones start apart
    assert all(e.t > 0.0 for e in events_of(trajectory, "separation_violation"))


def test_ground_contact_deactivates_but_keeps_last_state():
    diver = make_drone("diver", (0.0, 0.0, 2.0), route=[(0.0, 0.0, -8.0)])
    flyer = make_drone("flyer", (20.0, 0.0, 5.0), route=[(24.0, 0.0, 5.0)])
    trajectory = ds.simulate(ds.Swarm([diver, flyer], min_separation=2.0),
                             calm_scenario(max_duration=20.0), 0.1)
    contacts = events_of(trajectory, "ground_contact")
    assert [e.drone_ids for e in contacts] == [("diver",)]
    assert "diver" in trajectory.samples and "flyer" in trajectory.samples
    last = trajectory.samples["diver"][-1]
    assert last.position[2] < 0.0
    assert last.t <= contacts[0].t
    # the other drone still completed its mission
    assert any(e.drone_ids == ("flyer",) for e in events_of(trajectory, "mission_complete"))


def test_divergent_drone_is_isolated():
    bad_state = ds.DroneState(0.0, ds.vec3(0, 0, 5), np.zeros(3),
                              ds.quat_identity(), ds.vec3(0, 0, 1e200))
    bad = ds.Drone("bad", build_reference_craft(), bad_state,
                   ds.ControllerGains(), [ds.Setpoint(ds.vec3(0, 0, 6))])
    good = make_drone("good", (30.0, 0.0, 5.0), route=[(33.0, 0.0, 5.0)])
    trajectory = ds.simulate(ds.Swarm([bad, good], min_separation=2.0),
                             calm_scenario(max_duration=15.0), 0.1)
    assert [e.drone_ids for e in events_of(trajectory, "divergence")] == [("bad",)]
    assert any(e.drone_ids == ("good",) for e in events_of(trajectory, "mission_complete"))
    assert trajectory.samples["bad"][-1].t <= events_of(trajectory, "divergence")[0].t


def test_recording_interval_must_cover_time_step():
    drone = make_drone("a", (0, 0, 5))
    # 1e308 covers the step but spans more ticks of 0.01 than a float counts
    for interval in (0.001, 1e308):
        with pytest.raises(ValueError):
            ds.simulate(ds.Swarm([drone]), calm_scenario(dt=0.01), recording_interval=interval)


def test_recording_interval_defaults_to_the_scenarios():
    # a coarse clock whose recording interval is its own step, under the
    # 0.1 s that the scenario would default to for a finer step
    scenario = dataclasses.replace(calm_scenario(), reference_time_step=0.2,
                                   max_duration=2.0, recording_interval=None)
    assert scenario.recording_interval == 0.2
    drone = make_drone("a", (0, 0, 5), route=[(0, 0, 50)])
    trajectory = ds.simulate(ds.Swarm([drone]), scenario)
    assert [s.t for s in trajectory.samples["a"]] == [k * 0.2 for k in range(11)]


def test_swarm_validation():
    with pytest.raises(ValueError):
        ds.Swarm([])
    with pytest.raises(ValueError):
        ds.Swarm([make_drone("x", (0, 0, 0)), make_drone("x", (1, 0, 0))])
    with pytest.raises(ValueError):
        ds.Swarm([make_drone("a", (0, 0, 0))], min_separation=-1.0)


# --- clock, isolation and per-run constants -----------------------------------

def _bundled_run(name, separate_airframes=False):
    swarm, scenario, mission = ds.load_scenario(ds.bundled_scenario_path(name))
    routes_from_plan(swarm, mission, ds.optimize(mission))
    if separate_airframes:  # each drone its own body and rotors, of the same values
        for drone in swarm.drones:
            craft = drone.airframe
            drone.airframe = dataclasses.replace(
                craft, body=dataclasses.replace(craft.body),
                rotors=[dataclasses.replace(rotor) for rotor in craft.rotors])
    return swarm, scenario, ds.simulate(swarm, scenario, scenario.recording_interval)


def test_square_route_times_are_exact_tick_multiples():
    _, scenario, trajectory = _bundled_run("square_route.json")
    dt = scenario.reference_time_step
    times = [s.t for states in trajectory.samples.values() for s in states]
    times += [e.t for e in trajectory.events]
    assert len(times) > 100
    for t in times:
        assert t == round(t / dt) * dt


def test_two_drone_cross_captures_on_the_tick_grid():
    _, _, trajectory = _bundled_run("two_drone_cross.json")
    captures = {e.t for e in events_of(trajectory, "waypoint_reached")}
    assert captures == {5.002}


def _assert_bit_identical(a, b):
    assert [(e.t, e.kind, e.drone_ids, e.payload) for e in a.events] == \
           [(e.t, e.kind, e.drone_ids, e.payload) for e in b.events]
    assert list(a.samples) == list(b.samples)
    for drone_id in a.samples:
        assert len(a.samples[drone_id]) == len(b.samples[drone_id])
        for sa, sb in zip(a.samples[drone_id], b.samples[drone_id]):
            assert sa.t == sb.t
            assert np.array_equal(sa.position, sb.position)
            assert np.array_equal(sa.velocity, sb.velocity)
            assert np.array_equal(sa.orientation, sb.orientation)
            assert np.array_equal(sa.angular_velocity, sb.angular_velocity)


def test_shared_airframe_flies_like_separate_airframes():
    swarm, _, shared = _bundled_run("two_drone_cross.json")
    assert swarm.drones[0].airframe is swarm.drones[1].airframe  # the loader shares it
    swarm, _, separate = _bundled_run("two_drone_cross.json", separate_airframes=True)
    first, second = (d.airframe for d in swarm.drones)
    assert first is not second and first.body is not second.body
    assert not any(a is b for a, b in zip(first.rotors, second.rotors))
    _assert_bit_identical(separate, shared)


def test_parallel_keyword_is_rejected():
    swarm = ds.Swarm([make_drone("solo", (0.0, 0.0, 5.0), route=[(1.0, 0.0, 5.0)])])
    with pytest.raises(TypeError, match="parallel"):
        ds.simulate(swarm, calm_scenario(max_duration=0.1), 0.1, parallel=True)


def test_simulate_leaves_caller_objects_unchanged():
    east = make_drone("east", (-5.0, 0.0, 5.0), route=[(5.0, 0.0, 5.0)])
    west = make_drone("west", (5.0, 0.5, 5.0), route=[(-5.0, 0.5, 5.0)])
    before = [(d.state.copy(), [dataclasses.asdict(r) for r in d.airframe.rotors],
               [sp.target_position.copy() for sp in d.route]) for d in (east, west)]
    trajectory = ds.simulate(ds.Swarm([east, west], min_separation=2.0),
                             calm_scenario(max_duration=15.0), 0.1)
    assert events_of(trajectory, "mission_complete")
    for drone, (state, rotors, targets) in zip((east, west), before):
        for rotor, fields in zip(drone.airframe.rotors, rotors):
            assert all(np.array_equal(v, fields[k])
                       for k, v in dataclasses.asdict(rotor).items())
        assert drone.state.t == state.t
        assert np.array_equal(drone.state.position, state.position)
        assert np.array_equal(drone.state.velocity, state.velocity)
        assert np.array_equal(drone.state.orientation, state.orientation)
        assert np.array_equal(drone.state.angular_velocity, state.angular_velocity)
        assert all(np.array_equal(sp.target_position, target)
                   for sp, target in zip(drone.route, targets))


def _nan_position(state):
    state.position[1] = math.nan


def _non_unit_orientation(state):
    state.orientation = np.array([1.0, 1.0, 0.0, 0.0])


def _short_velocity(state):
    state.velocity = np.zeros(2)


def _flat_angular_velocity(state):
    state.angular_velocity = np.zeros((1, 3))


@pytest.mark.parametrize("corrupt, field", [
    (_nan_position, "position"), (_non_unit_orientation, "orientation"),
    (_short_velocity, "velocity"), (_flat_angular_velocity, "angular_velocity"),
])
def test_a_start_state_broken_after_construction_raises_as_its_constructor(corrupt, field):
    drone = make_drone("a", (0.0, 0.0, 5.0), route=[(3.0, 0.0, 5.0)])
    corrupt(drone.state)
    s = drone.state
    with pytest.raises(ds.FieldError) as expected:
        ds.DroneState(0.0, s.position, s.velocity, s.orientation, s.angular_velocity)
    with pytest.raises(ds.FieldError) as raised:
        ds.simulate(ds.Swarm([drone]), calm_scenario(), 0.1)
    assert raised.value.field == expected.value.field == field
    assert str(raised.value) == str(expected.value)


def test_a_start_state_of_lists_and_integers_flies_as_float_vectors():
    plain = make_drone("a", (0.0, 0.0, 5.0), route=[(3.0, 0.0, 5.0)])
    odd = make_drone("a", (0.0, 0.0, 5.0), route=[(3.0, 0.0, 5.0)])
    odd.state.position = [0, 0, 5]
    odd.state.velocity = np.zeros(3, dtype=np.float32)
    odd.state.orientation = np.array([1, 0, 0, 0])
    flown = [ds.simulate(ds.Swarm([d]), calm_scenario(max_duration=2.0), 0.1)
             for d in (plain, odd)]
    assert flown[1].events == flown[0].events
    assert [(s.t, s.as_floats()) for s in flown[1].samples["a"]] == \
        [(s.t, s.as_floats()) for s in flown[0].samples["a"]]
    first = flown[1].samples["a"][0]
    assert first.position.dtype == first.orientation.dtype == np.float64
    assert all(type(v) is float for v in first.as_floats())

def test_allocation_pinv_and_rank_run_once_per_airframe_per_run(monkeypatch):
    calls = {"pinv": 0, "matrix_rank": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    dronesim_airframe._constants.cache_clear()
    shared = build_reference_craft()
    drones = [make_drone("a", (0.0, 0.0, 5.0), route=[(3.0, 0.0, 5.0)]),
              make_drone("b", (10.0, 0.0, 5.0), route=[(13.0, 0.0, 5.0)]),
              make_drone("c", (20.0, 0.0, 5.0), route=[(23.0, 0.0, 5.0)])]
    drones[0].airframe = drones[1].airframe = shared
    trajectory = ds.simulate(ds.Swarm(drones), calm_scenario(), 0.1)
    assert trajectory.samples["a"][-1].t > 1.0  # many ticks flown
    # three drones, two airframe objects, one set of airframe values
    assert calls == {"pinv": 1, "matrix_rank": 1}


def test_gains_bits_are_packed_once_per_gains_object_per_run(monkeypatch):
    packed = []
    gains_bits = swarm_module._gains_bits
    monkeypatch.setattr(swarm_module, "_gains_bits",
                        lambda gains: packed.append(gains) or gains_bits(gains))
    swarm, scenario, _ = crossing(20, 1)
    assert len(swarm.drones) == 40 and len({id(d.gains) for d in swarm.drones}) == 1
    ds.simulate(swarm, scenario)
    assert packed == [swarm.drones[0].gains]
    # equal gains built apart are two objects, each packed once per run
    swarm.drones[7].gains = dataclasses.replace(swarm.drones[7].gains)
    for _ in range(2):
        packed.clear()
        ds.simulate(swarm, scenario)
        assert [id(g) for g in packed] == [id(swarm.drones[0].gains), id(swarm.drones[7].gains)]
