"""Access to the grammar data shipped inside the package."""

from __future__ import annotations

import os
from functools import lru_cache

from .dsl import load_grammar
from .grammar import Grammar

ENV_GRAMMAR = "CREOLETAG_GRAMMAR"

DIALECTS = ("HT", "GP", "MQ", "GF")

# a plain path: importing importlib.resources would slow every cold start
_DATA = os.path.join(os.path.dirname(__file__), "data")


def grammar_text() -> str:
    with open(os.path.join(_DATA, "creole.fstag"), encoding="utf-8") as handle:
        return handle.read()


@lru_cache(maxsize=None)
def shipped_grammar() -> Grammar:
    """The embedded, validated four-dialect grammar."""
    return load_grammar(grammar_text())


def golden_path(name: str):
    """Path of a shipped golden table (``np`` or ``tma``)."""
    from pathlib import Path  # only the golden tables' readers pay for it
    return Path(_DATA, "golden", "%s.tsv" % name)
