"""Exact-enumeration significance analysis for clusters of personal names.

Scores an observed tomb configuration against the late-antiquity Jewish
onomasticon with a relevance-and-rareness (RR) product, exactly enumerates
the null distribution of RR values under realism constraints, and converts
tail proportions into adjusted p-values, posterior odds, and lower
confidence bounds. All core arithmetic is exact rational.

The public names below load on first use: ``namecluster.X`` or
``from namecluster import X`` imports only the submodule that defines ``X``,
so a CLI subcommand pays for the modules it runs and no others.
"""

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "candidates": ("CandidateDescriptor", "Category", "HypothesisSpec",
                       "build_spec", "load_hypothesis_config"),
        "demography": ("DemographyParams", "DemographyResult", "run_pipeline"),
        "inference": ("adjusted_p", "beta_of", "odds_lower_bound",
                      "posterior_odds", "theta_lower_bound"),
        "onomasticon": ("GenericNameCount", "InputError", "Onomasticon",
                        "RenditionSlice", "load_onomasticon", "slice_frequency"),
        "scoring": ("ContractViolation", "RRValue", "RuleLedger",
                    "TombConfiguration", "score", "validate"),
        "sensitivity": ("Delta", "Scenario", "ScenarioReport", "load_suite",
                        "run_scenario", "run_suite"),
        "tailspace": ("TailResult", "enumerate_tail", "tuple_space_size"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the submodule that defines ``name`` and cache the name here."""
    from importlib import import_module
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
