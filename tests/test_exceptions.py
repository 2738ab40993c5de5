"""The package's exception classes: one for each kind of failure."""

import importlib
import inspect
import pkgutil

import hetlora


def test_package_defines_only_config_and_numeric_errors():
    # bad input is a ConfigError (exit 2 before the first round), a value
    # that stops being finite a NumericError (the run ends incomplete);
    # every other refusal is a plain ValueError or TypeError
    defined = set()
    for info in pkgutil.iter_modules(hetlora.__path__):
        module = importlib.import_module(f"hetlora.{info.name}")
        defined |= {name for name, obj in vars(module).items()
                    if inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == {"ConfigError", "NumericError"}
