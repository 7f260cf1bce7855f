"""Exact-enumeration significance analysis for clusters of personal names.

Scores an observed tomb configuration against the late-antiquity Jewish
onomasticon with a relevance-and-rareness (RR) product, exactly enumerates
the null distribution of RR values under realism constraints, and converts
tail proportions into adjusted p-values, posterior odds, and lower
confidence bounds. All core arithmetic is exact rational.
"""

__version__ = "0.1.0"
