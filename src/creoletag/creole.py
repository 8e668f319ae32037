"""Access to the grammar data shipped inside the package."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .dsl import load_grammar
from .grammar import Grammar

ENV_GRAMMAR = "CREOLETAG_GRAMMAR"

DIALECTS = ("HT", "GP", "MQ", "GF")


def grammar_text() -> str:
    return resources.files("creoletag.data").joinpath("creole.fstag") \
        .read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def shipped_grammar() -> Grammar:
    """The embedded, validated four-dialect grammar."""
    return load_grammar(grammar_text())


def golden_path(name: str):
    """Path-like handle on a shipped golden table (``np`` or ``tma``)."""
    return resources.files("creoletag.data").joinpath("golden/%s.tsv" % name)
