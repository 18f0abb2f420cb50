"""The unified exception hierarchy: everything derives from ReproError."""

import inspect

import pytest

import repro.errors as errors
from repro.errors import (
    ConfigurationError,
    FaultError,
    HostDownError,
    NetworkError,
    RemoteError,
    ReproError,
    SimulationError,
    TaskError,
)


def test_every_library_exception_derives_from_reproerror():
    for name, obj in inspect.getmembers(errors, inspect.isclass):
        if issubclass(obj, BaseException) and obj is not ReproError:
            assert issubclass(obj, ReproError), name


def test_subsystem_hierarchy():
    assert issubclass(HostDownError, NetworkError)
    for cls in (SimulationError, NetworkError, RemoteError,
                TaskError, FaultError):
        assert issubclass(cls, ReproError)


def test_configuration_error_is_still_a_valueerror():
    """Historical ``except ValueError`` call sites must keep working."""
    assert issubclass(ConfigurationError, ValueError)
    assert issubclass(ConfigurationError, ReproError)
    with pytest.raises(ValueError):
        raise ConfigurationError("bad")


def test_remote_error_carries_its_cause():
    inner = RuntimeError("boom")
    with pytest.raises(RemoteError) as caught:
        raise RemoteError("call failed") from inner
    assert caught.value.__cause__ is inner


def test_api_misuse_raises_within_the_hierarchy():
    """Spot-check that live APIs actually raise hierarchy members."""
    from repro.exec import RunSpec
    from repro.faults import FaultPlan, scenario

    with pytest.raises(ConfigurationError):
        RunSpec(n=24, peers=0).run()
    with pytest.raises(ConfigurationError):
        RunSpec(n=24, peers=3, disconnections=-1).run()
    with pytest.raises(ConfigurationError):
        scenario("no-such-scenario")
    with pytest.raises(ConfigurationError):
        FaultPlan(actions=(1, 2, 3))  # not FaultActions
