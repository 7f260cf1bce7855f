"""The bundled baseline, read from the bundled files as the CLI reads it.

The candidate ``DESCRIPTORS`` and ``TOMB``, the observed tomb
configuration, come from ``data/baseline.cfg``. ``ADDONS`` maps each person
that an ``add`` record of ``data/scenarios.cfg`` brings to its descriptor.
``N2`` is the CLI's default n2, which a library caller of ``run_scenario``
and ``run_suite`` passes. Nothing here restates those files or that default.
"""

from namecluster.candidates import load_hypothesis_config
from namecluster.cli import SETTINGS
from namecluster.sensitivity import load_suite

DESCRIPTORS, TOMB = load_hypothesis_config()
ADDONS = {person: descriptor for scenario in load_suite()
          for verb, person, descriptor in scenario.deltas if verb == "add"}
N2 = int(SETTINGS["n2"][0])
