"""The public record types: construction, defaults, repr, equality,
hashing and immutability, pinned for every record class."""

import numpy as np
import pytest

from qteleport.campaign import ResultRecord
from qteleport.config import ExperimentConfig
from qteleport.decoy import DecoyRound, DetectionReport
from qteleport.primitives import ChannelSpec
from qteleport.protocol import (
    BranchRecord,
    BranchReport,
    ForcedBranch,
    InputStateSpec,
    Transcript,
)
from qteleport.state import MeasurementOutcome, StateVector

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
FROZEN = [sample for sample in SAMPLES if sample[0] not in (ExperimentConfig, ResultRecord)]
# Every field of these is hashable, so the record is.
HASHABLE = [s for s in FROZEN if s[0] not in (StateVector, InputStateSpec)]


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
    if cls is InputStateSpec:
        return  # the coerced array is a new one per instance
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


def test_mutable_records_stay_assignable_and_unhashable():
    cfg = ExperimentConfig("montecarlo")
    cfg.d, cfg.sweep = 5, {"d": [2]}
    assert (cfg.d, cfg.sweep) == (5, {"d": [2]})
    record = ResultRecord({}, {}, {"x": [1]}, 0.0)
    record.elapsed_seconds = 2.0
    assert record.elapsed_seconds == 2.0 and record.columns == ["x"]
    for value in (cfg, record):
        with pytest.raises(TypeError):
            hash(value)


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
        ((2, 0, 1, (1,)), "need 2 coefficients, got 1"),
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
