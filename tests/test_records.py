"""The public record types: construction, defaults, repr, equality,
hashing and immutability, pinned for every record class."""

import sys

import numpy as np
import pytest

from qteleport import campaign
from qteleport.campaign import ResultRecord, run_campaign
from qteleport.cli import main
from qteleport.config import ConfigError, ExperimentConfig, load_config, resolve_coeffs
from qteleport.decoy import DecoyRound, DetectionReport
from qteleport.primitives import ChannelSpec
from qteleport.protocol import (
    BranchRecord,
    BranchReport,
    ForcedBranch,
    InputStateSpec,
    Transcript,
    enumerate_branches,
)
from qteleport.state import MeasurementOutcome, SizeGuardError, StateVector

KET = np.array([1, 0], dtype=complex)

# (class, field names in order, one sample's field values, its repr)
SAMPLES = [
    (
        StateVector, ("dims", "amps", "labels"), ((2,), KET, ("q0",)),
        "StateVector(dims=(2,), amps=array([1.+0.j, 0.+0.j]), labels=('q0',))",
    ),
    (
        MeasurementOutcome, ("value", "probability", "post_state"), (1, 0.25, None),
        "MeasurementOutcome(value=1, probability=0.25, post_state=None)",
    ),
    (
        ChannelSpec, ("d", "n", "m", "coeffs"), (2, 1, 1, (1 + 0j, 1 + 0j)),
        "ChannelSpec(d=2, n=1, m=1, coeffs=((1+0j), (1+0j)))",
    ),
    (
        InputStateSpec, ("d", "m", "beta"), (2, 1, KET),
        "InputStateSpec(d=2, m=1, beta=array([1.+0.j, 0.+0.j]))",
    ),
    (
        ForcedBranch, ("gbs", "controllers", "aux"), (((0, 1),), ((1,),), 0),
        "ForcedBranch(gbs=((0, 1),), controllers=((1,),), aux=0)",
    ),
    (
        Transcript,
        ("seed", "gbs", "controllers", "r_sums", "aux", "success", "fidelity", "probability"),
        (None, ((0, 1),), ((1,),), (1,), 0, True, 1.0, 0.5),
        "Transcript(seed=None, gbs=((0, 1),), controllers=((1,),), r_sums=(1,), aux=0, "
        "success=True, fidelity=1.0, probability=0.5)",
    ),
    (
        BranchRecord, ("gbs", "controllers", "aux", "probability", "fidelity"),
        (((0, 1),), ((1,),), 1, 0.125, 1.0),
        "BranchRecord(gbs=((0, 1),), controllers=((1,),), aux=1, probability=0.125, "
        "fidelity=1.0)",
    ),
    (
        BranchReport,
        ("branches", "success_probability", "theoretical", "total_probability"),
        ((), 0.5, 0.5, 1.0),
        "BranchReport(branches=(), success_probability=0.5, theoretical=0.5, "
        "total_probability=1.0)",
    ),
    (
        DecoyRound, ("prep_basis", "prep_value", "eve_action", "detected"),
        ("X", 3, "none", False),
        "DecoyRound(prep_basis='X', prep_value=3, eve_action='none', detected=False)",
    ),
    (
        DetectionReport,
        ("d", "eve_action", "rounds", "detections", "rate", "expected_rate", "z_score"),
        (2, "none", 10, 0, 0.0, 0.0, 0.0),
        "DetectionReport(d=2, eve_action='none', rounds=10, detections=0, rate=0.0, "
        "expected_rate=0.0, z_score=0.0)",
    ),
    (
        ExperimentConfig,
        ("kind", "d", "m", "n", "coeffs", "beta", "trials", "seed", "eve", "out", "fmt", "sweep"),
        ("sweep", 3, 2, 1, None, None, 6, 9, "none", "o.csv", "csv", {"d": [2]}),
        "ExperimentConfig(kind='sweep', d=3, m=2, n=1, coeffs=None, beta=None, trials=6, "
        "seed=9, eve='none', out='o.csv', fmt='csv', sweep={'d': [2]})",
    ),
    (
        ResultRecord, ("config", "aggregate", "data", "elapsed_seconds"),
        ({"kind": "decoy"}, {"rounds": 1}, {"round": [0]}, 0.5),
        "ResultRecord(config={'kind': 'decoy'}, aggregate={'rounds': 1}, "
        "data={'round': [0]}, elapsed_seconds=0.5)",
    ),
]
IDS = [cls.__name__ for cls, *_ in SAMPLES]
FIELDS = {cls: names for cls, names, *_ in SAMPLES}
# Every record is frozen.
FROZEN = SAMPLES
# Every field of these is hashable, so the record is; the others hold an
# array or a dict.
HASHABLE = [
    s for s in FROZEN if s[0] not in (StateVector, InputStateSpec, ExperimentConfig, ResultRecord)
]


@pytest.mark.parametrize("cls, names, values, text", SAMPLES, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert repr(by_position) == repr(by_keyword) == repr(mixed) == text
    coerced = cls in (ChannelSpec, InputStateSpec)  # their last field is coerced
    for name, value in zip(names[:-1] if coerced else names, values):
        assert getattr(by_position, name) is getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls, names, values, text", SAMPLES, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, names, values, text):
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], values[1:])))


def test_defaults():
    assert StateVector((2,), KET).labels == ()
    assert repr(ExperimentConfig("montecarlo")) == (
        "ExperimentConfig(kind='montecarlo', d=2, m=1, n=0, coeffs=None, beta=None, "
        "trials=1000, seed=0, eve='random_basis_resend', out=None, fmt='json', sweep=None)"
    )
    with pytest.raises(TypeError):
        ExperimentConfig()
    with pytest.raises(TypeError):
        StateVector((2,))


@pytest.mark.parametrize("cls, names, values, text", SAMPLES, ids=IDS)
def test_equality_needs_the_same_class(cls, names, values, text):
    twin = type("Twin", (cls,), {})  # the same fields, another class
    record = cls(*values)
    assert record == record
    assert not record != record
    assert record != twin(*values) and twin(*values) != record
    assert not record == twin(*values)
    assert record != tuple(values)
    assert record == cls(*values)
    assert not record != cls(*values)


def test_equality_compares_every_field():
    assert DecoyRound("Z", 1, "none", False) != DecoyRound("Z", 1, "none", True)
    assert ChannelSpec(2, 0, 1, (1, 1)) == ChannelSpec(2, 0, 1, [1.0, 1.0])
    assert ChannelSpec(2, 0, 1, (1, 1)) != ChannelSpec(2, 1, 1, (1, 1))
    assert ExperimentConfig("decoy") == ExperimentConfig("decoy")
    assert ExperimentConfig("decoy") != ExperimentConfig("decoy", trials=5)


@pytest.mark.parametrize("cls, names, values, text", HASHABLE, ids=[s[0].__name__ for s in HASHABLE])
def test_equal_frozen_records_hash_equal(cls, names, values, text):
    assert hash(cls(*values)) == hash(cls(**dict(zip(names, values))))


def test_hash_needs_hashable_fields():
    with pytest.raises(TypeError):
        hash(StateVector((2,), KET))
    with pytest.raises(TypeError):
        hash(InputStateSpec(2, 1, KET))
    with pytest.raises(TypeError):
        hash(MeasurementOutcome(0, 1.0, StateVector((2,), KET)))
    spec = ChannelSpec(2, 0, 1, (1, 1))
    assert {spec: 1}[ChannelSpec(2, 0, 1, [1, 1])] == 1


@pytest.mark.parametrize("cls, names, values, text", FROZEN, ids=[s[0].__name__ for s in FROZEN])
def test_frozen_records_refuse_assignment_and_deletion(cls, names, values, text):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


def test_records_compare_arrays_by_value():
    assert StateVector((2,), KET.copy()) == StateVector((2,), KET.copy())
    assert StateVector((2,), KET) != StateVector((2,), KET[::-1].copy())
    assert StateVector((2,), KET) != StateVector((2, 1), KET)
    assert InputStateSpec(2, 1, KET) == InputStateSpec(2, 1, [1, 0])
    doc = {"kind": "montecarlo", "beta": [0.6, 0.8]}
    assert load_config(doc) == load_config(doc)
    assert load_config(doc) != load_config({**doc, "beta": [0.8, 0.6]})
    undefined = MeasurementOutcome(0, float("nan"), None)
    assert undefined != MeasurementOutcome(0, float("nan"), None)  # as nan != nan
    vague = StateVector((2,), np.array([np.nan, 1]))
    assert vague != StateVector((2,), np.array([np.nan, 1]))


def test_two_reports_of_one_input_compare_equal():
    inp, chan = InputStateSpec(2, 1, [0.6, 0.8]), ChannelSpec(2, 1, 1, (1.5**0.5, 0.5**0.5))
    first, second = enumerate_branches(inp, chan), enumerate_branches(inp, chan)
    assert first == second and first.branches is not second.branches
    assert first.branches == list(second.branches) and first.branches == tuple(second.branches)
    assert first.branches != list(second.branches)[:-1]
    assert first != enumerate_branches(InputStateSpec(2, 1, [0.8, 0.6]), chan)
    with pytest.raises(TypeError):
        hash(first)  # a view is unhashable, as an array is


def test_configs_and_results_with_dict_or_array_fields_stay_unhashable():
    grid = {"d": [2], "m": [1], "n": [0]}
    sweep = load_config({"kind": "sweep", "trials": 1, "sweep": grid})
    montecarlo = load_config({"kind": "montecarlo", "trials": 5})
    result = run_campaign(load_config({"kind": "decoy", "trials": 5}))
    for value in (sweep, montecarlo, result, ExperimentConfig("sweep", sweep=grid)):
        with pytest.raises(TypeError):
            hash(value)
    decoy = {"kind": "decoy", "d": 3, "trials": 5}
    assert {load_config(decoy): 1}[load_config(decoy)] == 1  # every field hashable


def test_input_spec_caches_its_register_outside_the_fields():
    spec = InputStateSpec(2, 1, KET)
    assert spec.state() is spec.state()
    assert repr(spec) == "InputStateSpec(d=2, m=1, beta=array([1.+0.j, 0.+0.j]))"


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 0, 1, (1,)), "d must be >= 2, got 1"),
        ((2, -1, 1, (1, 1)), "n must be >= 0, got -1"),
        ((2, 0, 0, (1, 1)), "m must be >= 1, got 0"),
        ((2, 0, 1, (1,)), "need exactly d = 2 entries, got 1"),
        ((2, 0, 1, (1, float("inf"))), "coefficients must be finite, got ((1+0j), (inf+0j))"),
        ((2, 0, 1, (0, 2**0.5)), "zero channel coefficient: the receiver's extraction unitary "
                                 "does not exist and the success probability would be 0"),
        ((2, 0, 1, (1, 2)), "coefficients violate (1/d)*sum|c_j|^2 = 1: got 2.5"),
    ],
)
def test_channel_spec_messages(args, message):
    with pytest.raises(ValueError) as error:
        ChannelSpec(*args)
    assert str(error.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 1, [1, 0, 0]), "length must be d^m = 2, got 3"),
        ((2, 1, [1, float("nan")]), "amplitudes must be finite"),
        ((2, 1, [1, 1]), "amplitudes must satisfy sum|beta|^2 = 1, got 2.0000000000000004"),
    ],
)
def test_input_spec_messages(args, message):
    with pytest.raises(ValueError) as error:
        InputStateSpec(*args)
    assert str(error.value) == message


def test_validated_records_coerce_their_values():
    spec = ChannelSpec(2, 0, 1, [1, 1.0])
    assert spec.coeffs == (1 + 0j, 1 + 0j) and type(spec.coeffs) is tuple
    assert all(type(c) is complex for c in spec.coeffs)
    beta = InputStateSpec(2, 1, [[1], [0]]).beta
    assert beta.dtype == complex and beta.shape == (2,)


# ------------------------------------------------- a config's own records

RECORD_INITS = {
    ChannelSpec.__post_init__.__code__: "channel",
    InputStateSpec.__post_init__.__code__: "input",
}


def _validations(argv):
    """How often each record's __post_init__ runs in one cli.main."""
    counts = {"channel": 0, "input": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in RECORD_INITS:
            counts[RECORD_INITS[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        status = main(argv)
    finally:
        sys.setprofile(previous)
    assert status == 0
    return counts["channel"], counts["input"]


MC = ["montecarlo", "--d", "3", "--m", "1", "--n", "2", "--trials", "20", "--format", "csv"]


@pytest.mark.parametrize(
    "argv, validations",
    [
        (MC + ["--beta", "random:7"], (1, 1)),
        (MC + ["--beta", "basis:2"], (1, 1)),
        (MC + ["--beta", "0.6,0.8j,0"], (1, 1)),
        (MC, (1, 1)),
        (["enumerate", "--d", "3", "--n", "1", "--beta", "random:7"], (1, 1)),
        (["enumerate", "--d", "2", "--beta", "0.6,0.8"], (1, 1)),
        (["sweep", "--d", "2,3,4", "--m", "1,2", "--n", "0,1,2", "--trials", "18"], (18, 18)),
        (["decoy", "--d", "5", "--trials", "10"], (0, 0)),
    ],
)
def test_each_record_is_validated_once_per_run(argv, validations, capsys):
    assert _validations(argv) == validations
    assert capsys.readouterr().err == ""


def test_a_loaded_config_returns_the_records_it_validated():
    cfg = load_config({"kind": "montecarlo", "d": 2, "m": 2, "n": 1, "beta": "random:3"})
    assert cfg.channel_spec() is cfg.channel_spec()
    assert cfg.input_spec() is cfg.input_spec()
    assert cfg.input_spec().beta is cfg.beta  # one copy of the amplitudes
    assert cfg.channel_spec().coeffs is cfg.coeffs
    assert "Spec" not in repr(cfg)  # kept outside the fields
    with pytest.raises(ValueError, match="read-only"):
        cfg.beta[0] = 1.0  # the kept record's amplitudes are read-only


def test_a_config_built_with_other_fields_gets_newly_validated_records():
    cfg = load_config({"kind": "enumerate", "d": 2, "m": 1, "n": 1})
    with pytest.raises(ConfigError, match="^coeffs: zero channel coefficient"):
        ExperimentConfig("enumerate", 2, 1, 1, (2**0.5, 0.0), cfg.beta)
    skewed = ExperimentConfig("enumerate", 2, 1, 1, (1.5**0.5, 0.5**0.5), cfg.beta)
    assert skewed.channel_spec() == ChannelSpec(2, 1, 1, (1.5**0.5, 0.5**0.5))
    assert skewed.channel_spec() != cfg.channel_spec()
    assert skewed.input_spec() == cfg.input_spec() and skewed.input_spec() is not cfg.input_spec()
    with pytest.raises(ConfigError, match="^coeffs: need exactly d = 3 entries, got 2$"):
        ExperimentConfig("enumerate", 3, 1, 1, cfg.coeffs)
    wider = ExperimentConfig("enumerate", 3, 1, 1, (1, 1, 1), [0, 1, 0])
    assert wider.channel_spec() == ChannelSpec(3, 1, 1, (1, 1, 1))
    assert wider.input_spec() == InputStateSpec(3, 1, [0, 1, 0])
    assert wider.coeffs is wider.channel_spec().coeffs and wider.beta is wider.input_spec().beta
    with pytest.raises(ConfigError, match="^beta: length must be d\\^m = 9, got 2$"):
        ExperimentConfig("enumerate", 3, 2, 1, (1, 1, 1), KET)
    with pytest.raises(ConfigError, match="^beta: amplitudes must be finite$"):
        ExperimentConfig("enumerate", 2, 1, 1, cfg.coeffs, [1, np.nan])
    spread = ExperimentConfig("enumerate", 3, 2, 1, (1, 1, 1), np.full(9, 1 / 3))
    assert spread.input_spec().beta.tolist() == [1 / 3] * 9
    bare = ExperimentConfig("decoy", 3)  # neither coeffs nor beta: no record
    assert bare.channel_spec() is None and bare.input_spec() is None


LOADED = {
    "enumerate": {"kind": "enumerate", "d": 2, "n": 1, "beta": [0.6, 0.8]},
    "montecarlo": {"kind": "montecarlo", "d": 3, "trials": 5, "beta": "random:2"},
    "decoy": {"kind": "decoy", "d": 3, "trials": 5},
    "sweep": {"kind": "sweep", "trials": 4, "sweep": {"d": [2, 3], "m": [1], "n": [0, 1]}},
}


@pytest.mark.parametrize("kind", LOADED)
def test_a_loaded_config_and_its_result_refuse_assignment_and_deletion(kind):
    cfg = load_config(LOADED[kind])
    for record in (cfg, run_campaign(cfg)):
        for name in FIELDS[type(record)]:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_a_loaded_config_keeps_the_guards_it_passed(monkeypatch):
    # Each campaign is refused at load; reassigning the field of a smaller
    # loaded config would run it past the guard, so assignment is refused.
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "1000")
    grid = {"d": [2], "m": [1], "n": [9]}  # the channel's 2^11 amplitudes
    refused = [
        ("sweep", grid, {"kind": "sweep", "trials": 1, "sweep": {**grid, "n": [0]}}),
        ("d", 40, {"kind": "decoy", "d": 2, "trials": 10}),
        ("trials", 500, {"kind": "montecarlo", "d": 2, "trials": 10}),
    ]
    for name, value, doc in refused:
        with pytest.raises(SizeGuardError):
            load_config({**doc, name: value})
        small = load_config(doc)
        with pytest.raises(AttributeError):
            setattr(small, name, value)
        assert getattr(small, name) != value


def test_a_loaded_sweep_grid_refuses_changes(monkeypatch):
    # Loading n = 9 is refused; changing a loaded n = 0 grid in place
    # would run n = 9 past the guard, so the grid is read-only.
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "1000")
    cfg = load_config({"kind": "sweep", "trials": 1, "sweep": {"d": [2], "m": [1], "n": [0]}})
    with pytest.raises(TypeError):
        cfg.sweep["n"][0] = 9
    with pytest.raises(TypeError):
        cfg.sweep["n"] = (9,)
    assert dict(cfg.sweep) == {"d": (2,), "m": (1,), "n": (0,)}
    assert run_campaign(cfg).config["sweep"] == {"d": [2], "m": [1], "n": [0]}


def test_a_hand_built_sweep_runs_the_guards_a_loaded_one_ran(monkeypatch):
    # load_config refuses the grid's n = 9 point; run_campaign refuses a
    # hand-built config of it too, before any point runs.
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "1000")
    grid = {"d": [2], "m": [1], "n": [0, 9]}
    with pytest.raises(SizeGuardError, match="channel copy at d = 2, n = 9") as loaded:
        load_config({"kind": "sweep", "trials": 2, "sweep": grid})
    ran = []
    monkeypatch.setattr(campaign, "_stage_one_success", lambda *args: ran.append(args))
    with pytest.raises(SizeGuardError) as hand_built:
        run_campaign(ExperimentConfig("sweep", trials=2, sweep=grid))
    assert str(hand_built.value) == str(loaded.value) and ran == []
    monkeypatch.undo()
    assert run_campaign(ExperimentConfig("sweep", trials=1, sweep=grid)).data["n"] == [0]


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            ExperimentConfig("bogus"),
            "kind: expected one of ('enumerate', 'montecarlo', 'decoy', 'sweep'), got 'bogus'",
        ),
        (ExperimentConfig("montecarlo"), "coeffs: kind 'montecarlo' needs a value, got None"),
        (
            ExperimentConfig("enumerate", coeffs=(1, 1)),
            "beta: kind 'enumerate' needs a value, got None",
        ),
        (ExperimentConfig("sweep"), "sweep: kind 'sweep' needs a value, got None"),
    ],
    ids=["kind", "coeffs", "beta", "sweep"],
)
def test_run_campaign_names_the_field_a_hand_built_config_cannot_run(cfg, message):
    with pytest.raises(ConfigError) as refused:
        run_campaign(cfg)
    assert str(refused.value) == message


def test_the_coefficient_count_is_the_channels_to_check(capsys):
    assert resolve_coeffs([1], 2) == (1 + 0j,)  # parsed, not yet checked
    assert main(["enumerate", "--d", "2", "--coeffs", "1"]) == 1
    assert capsys.readouterr() == ("", "error: coeffs: need exactly d = 2 entries, got 1\n")
