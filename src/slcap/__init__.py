"""Network-parameter analysis for chip-scale capacitive antenna elements.

The toolkit covers the full bench-to-field loop for a low-impedance capacitive
radiator: Touchstone S-parameter ingestion, impedance and dissipation-factor
analysis, matching-network synthesis with VSWR evaluation, array far-field
patterns with directivity and lobe structure, and statistical comparison of
received-signal field logs.

Each numeric module, and each of its public names, is imported on first access
(PEP 562), so that the command line loads only the modules a command runs.
"""

__version__ = "0.1.0"

# The numeric modules, in the order of __all__.
_MODULES = ("touchstone", "impedance", "metrics", "matching", "radiation", "rssi")


def __getattr__(name: str):
    from importlib import import_module, util

    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":  # each module's __all__ is the one list of its public names
        value = ["__version__", *(n for m in _MODULES for n in __getattr__(m).__all__)]
    else:
        # A private name, or another submodule, is not this function's to import: the
        # import system loads such a submodule itself once this raises.
        owners = () if name.startswith("_") or util.find_spec(f"{__name__}.{name}") else _MODULES
        owner = next((m for m in map(__getattr__, owners) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
