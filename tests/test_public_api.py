import importlib
import inspect
import pkgutil

import weaklogic

#: Public names of the library modules that ``weaklogic`` does not export,
#: each with the reason it stays.
UNEXPORTED = {
    ("linalg", "as_operator"): "the one operator gate; other modules call it",
    ("linalg", "require_projector"): "the projector gate; other modules call it",
    ("linalg", "dense"): "the README names it, to see a diagonal channel as its matrix",
    ("expr", "Name"): "a node of the tree that parse returns",
    ("expr", "Sum"): "a node of the tree that parse returns",
    ("expr", "Product"): "a node of the tree that parse returns",
}


def _public_definitions():
    """(module, name) of each public top-level function and class defined in
    a library module, the CLI aside."""
    for info in pkgutil.iter_modules(weaklogic.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"weaklogic.{info.name}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
            ):
                yield (info.name, name), obj


def test_every_public_definition_is_exported_or_listed():
    stray = [
        key for key, obj in _public_definitions()
        if getattr(weaklogic, key[1], None) is not obj and key not in UNEXPORTED
    ]
    assert stray == []


def test_every_listed_name_exists_and_is_not_exported():
    found = dict(_public_definitions())
    for key in UNEXPORTED:
        assert key in found, key
        assert not hasattr(weaklogic, key[1]), key
