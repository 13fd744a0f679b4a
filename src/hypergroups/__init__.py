"""Finite hypergroups: constructions, verification, reflets, simplicity."""
