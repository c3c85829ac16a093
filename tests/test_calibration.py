import pytest

from sprinkled_nls import calibration
from sprinkled_nls.constants import CALIBRATION


def gate(monkeypatch, measured):
    monkeypatch.setattr(calibration, "measure_all", lambda fast: measured)
    return calibration.main(fast=True)


def test_frozen_values_pass(monkeypatch, capsys):
    """A scalar is an upper bound and a bracket contains itself."""
    assert gate(monkeypatch, dict(CALIBRATION)) == 0
    assert "OUTSIDE" not in capsys.readouterr().out


@pytest.mark.parametrize("key, side", [("tail_growth_constant", "hi"),
                                       ("dispersive_bracket", "hi"),
                                       ("expected_n0_squared_band", "lo")])
def test_value_past_its_bound_fails_and_is_named(monkeypatch, capsys, key,
                                                  side):
    frozen = CALIBRATION[key]
    if not isinstance(frozen, tuple):
        value = frozen * (1 + 1e-12)
    elif side == "hi":
        value = (frozen[0], frozen[1] * (1 + 1e-12))
    else:
        value = (frozen[0] * (1 - 1e-12), frozen[1])
    assert gate(monkeypatch, {**CALIBRATION, key: value}) == 1
    err = capsys.readouterr().err
    assert [k for k in CALIBRATION if k in err] == [key]
