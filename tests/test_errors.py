"""Every error class survives a pickle round trip: the CLI's forked child
sends its error to the parent that way."""

import inspect
import pickle

import pytest

from kickjt import errors

# one instance of each class, built as the package raises it
EXAMPLES = [
    errors.KickJTError("base"),
    errors.OutOfRange(["omega must be > 0", "n_t must be >= 0"]),
    errors.OutOfRange("one violation"),
    errors.NonFiniteState("q_x is nan"),
    errors.TruncationLoss(0.5),
    errors.TruncationLoss(0.5, "lost"),
    errors.EigFailure(1e-3, 1e-9),
    errors.StepUnderflow("step below 1e-06 at lam = 0.2"),
    errors.ConfigError("bad key"),
    errors.ConfigError("bad value", line=3),
    errors.ComputeError("no stable fixed point at lam = 0.1"),
]


def test_every_error_class_has_an_example():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.KickJTError)}
    assert classes == {type(exc) for exc in EXAMPLES}


@pytest.mark.parametrize("exc", EXAMPLES, ids=lambda exc: type(exc).__name__)
def test_error_survives_pickling(exc):
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)
