"""Reference job: fixed work that measures how fast the machine is right now.

The benchmark runs it, as ``python -I reference.py``, a few times after every
measured command, and scales the command's CPU seconds by the CPU seconds of
the reference runs around it (run.Run._timed). It does the kinds of work the
CLI does, on the standard library alone: start an interpreter, import the
modules the CLI imports, add up Fractions, and build, sort and index a list
of tuples some megabytes large, as the enumeration does with its scored
tuples. Nothing in it depends on the program, so a change to the program
moves the command's CPU time and not this job's.
"""

import argparse  # noqa: F401
import concurrent.futures  # noqa: F401
import configparser  # noqa: F401
import importlib.resources  # noqa: F401
import json  # noqa: F401
from fractions import Fraction

FRACTION_TERMS = 2500
TUPLES = 40000

total = Fraction(0)
for i in range(1, FRACTION_TERMS):
    total += Fraction(i % 97, i)
scored = sorted((i * 7919 % 100003, str(i)) for i in range(TUPLES))
index = dict(scored)
if total.denominator <= 1 or len(index) != TUPLES:
    raise SystemExit("reference work came out wrong")
