"""The bundled baseline, read from the bundled files as the CLI reads it.

``NAME``, the candidate ``DESCRIPTORS`` and ``TOMB``, the observed tomb
configuration, come from ``data/baseline.cfg``. ``ADDONS`` maps each person
that an ``add`` record of ``data/scenarios.cfg`` brings to its descriptor.
Nothing here restates those files.
"""

import namecluster as nc

NAME, DESCRIPTORS, _observed = nc.load_hypothesis_config()
TOMB = nc.TombConfiguration(**_observed)
ADDONS = {delta.descriptor.person: delta.descriptor
          for scenario in nc.load_suite() for delta in scenario.deltas
          if delta.verb == "add"}
