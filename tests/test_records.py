"""The records are immutable NamedTuples, and the two that check their
values at construction check them again through ``_replace``."""

import pytest

from pdckit import hom_reference as hom
from pdckit import jsa, photon_stats, twin_hom

STATE = hom.SignalState(p0=0.9, p1=0.09, p2=0.01)
PARAMS = jsa.PdcModelParams(sigma_pump=2.0, kappa_s=1.5, kappa_i=1.0, length=2.0)


def _records():
    """One instance of every record, as the library builds them."""
    return [
        STATE,
        hom.hom_scan_analytic(STATE, 0.05, 0.7, 1.0, n_points=5),
        hom.fit_overlap([(0.01, 0.4), (0.02, 0.5), (0.05, 0.45)], STATE),
        PARAMS,
        twin_hom.model_source(1.5, 45.0),
        photon_stats.invert_loss_only([0.5, 0.5], 0.9),
    ]


@pytest.mark.parametrize(
    "record", _records(), ids=lambda record: type(record).__name__
)
def test_record_refuses_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.note = "added"
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize(
    "record, changes, message",
    [
        (STATE, {"p0": -0.01, "p1": 1.0}, "probabilities must be nonnegative"),
        (STATE, {"p2": 0.5}, "p0 + p1 + p2 must equal one within 1e-9"),
        (PARAMS, {"sigma_pump": 0.0}, "sigma_pump must be positive"),
        (PARAMS, {"length": -1.0}, "length must be positive"),
        (
            PARAMS,
            {"kappa_s": 0.0, "kappa_i": 0.0},
            "kappa_s and kappa_i must not both vanish",
        ),
    ],
)
def test_replace_checks_as_construction_does(record, changes, message):
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(ValueError) as replaced:
        record._replace(**changes)
    assert str(built.value) == str(replaced.value) == message


def test_replace_keeps_fields_and_class():
    params = jsa.PdcModelParams(2.0, 1.5, 1.0, 2.0)
    assert params._fields == ("sigma_pump", "kappa_s", "kappa_i", "length")
    longer = params._replace(length=3.0)
    assert type(longer) is jsa.PdcModelParams
    assert longer == (2.0, 1.5, 1.0, 3.0)
