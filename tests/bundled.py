"""The bundled baseline, read from the bundled files as the CLI reads it.

The candidate ``DESCRIPTORS`` and ``TOMB``, the observed tomb
configuration, come from ``data/baseline.cfg``. ``ADDONS`` maps each person
that an ``add`` record of ``data/scenarios.cfg`` brings to its descriptor.
Nothing here restates those files.
"""

from namecluster.candidates import load_hypothesis_config
from namecluster.sensitivity import load_suite

DESCRIPTORS, TOMB = load_hypothesis_config()
ADDONS = {person: descriptor for scenario in load_suite()
          for verb, person, descriptor in scenario.deltas if verb == "add"}
