"""Recognition and dialect identification over the shipped grammar.

Fusion is undone on a lattice whose paths spell the decompositions of
the input (tap -> te ap), and one derivation search serves every path.
A partial derivation goes on while its frontier embeds in a path with
other tokens only where a later step can put them (see
:func:`creoletag.engine._layout`), so stacked adjunctions cost work
linear in their number; it is a hit where its frontier is a path, so
the input bounds the search.  An adjunction is made only where the
layout it would make embeds too (:func:`creoletag.engine._adjoined`):
a particle on the wrong side, or a zero form no path has room for,
builds no tree.  Each hit is fused once, carrying every token's
(lexeme, variant) sources, and kept when it fuses to the input.

The hits become analyses in one place, with the language set consistent
with the whole string and with each word.  When no language-consistent
derivation exists, the input is searched again in the projection of the
grammar onto every dialect, which has no language attribute (built once
per grammar object and kept on it).  Structurally valid but
dialect-mixed strings then come back flagged `mixed`, with an empty
language set and a per-token report of which dialects each word
belongs to.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import reduce

from . import engine
from .errors import InvalidSpec, NoAnalysis
from .featstruct import EMPTY, FeatureStruct, meet
from .generate import fuse_with_sources
from .grammar import Grammar
from .specialize import project_language

GOALS = ("NP", "S", "Pred", "N")


@dataclass(frozen=True, slots=True)
class Analysis:
    tokens: tuple
    goal: str
    features: FeatureStruct
    lan_set: frozenset
    per_token_lan: tuple
    trace: tuple
    mixed: bool = False


@dataclass(frozen=True)
class MixedReport:
    tokens: tuple
    per_token_lan: tuple


def _as_tokens(tokens):
    if isinstance(tokens, str):
        tokens = tokens.split()
    # the grammar spells its tokens in NFC, and tokens compare exactly
    tokens = tuple(unicodedata.normalize("NFC", token) for token in tokens)
    if not tokens:
        raise InvalidSpec("token string must not be empty")
    return tokens


class FusionLattice:
    """Every decomposition of a token string, as a DAG over its positions:
    fusion inversion composed with the input (Kaplan & Kay, CL 1994).
    From position i one edge reads tokens[i], and one the pattern of each
    rule whose replacement starts at i."""

    def __init__(self, tokens, rules):
        self._edges = [[((token,), i + 1)] + [
            (rule.pattern, i + len(rule.replacement)) for rule in rules
            if tokens[i:i + len(rule.replacement)] == rule.replacement]
            for i, token in enumerate(tokens)]
        self.tokens = frozenset(token for edges in self._edges
                                for label, _ in edges for token in label)
        self._bounds = {}

    def bounds(self, frontier, gaps=-1):
        """(exact, embeds): whether `frontier` spells a whole path, and
        whether it embeds in one.  A path token outside the frontier may
        come before frontier token i only where bit i of `gaps` is set,
        and after the last only where bit len(frontier) is; the default
        sets every bit.  Embedded with no gap, a frontier is the path."""
        embeds = self._embeds(frontier, gaps)
        return embeds and self._embeds(frontier, 0), embeds

    def _embeds(self, frontier, gaps):
        if (frontier, gaps) not in self._bounds:
            spelled = {}  # token -> bit m where frontier[m] is the token
            for m, token in enumerate(frontier):
                spelled[token] = spelled.get(token, 0) | 1 << m
            # per position: bit m where a path there matched m frontier
            # tokens, all of them advanced at once along an edge
            reached = [1] + [0] * len(self._edges)
            for edges, here in zip(self._edges, reached):
                for label, end in edges:
                    states = here
                    for token in label:
                        # the next frontier token, or one in the gap; when
                        # gap m + 1 is open too, matching loses nothing, so
                        # a match leaves gap m
                        hit = states & spelled.get(token, 0)
                        states = hit << 1 | states & gaps & ~(hit & gaps >> 1)
                    reached[end] |= states
            self._bounds[frontier, gaps] = bool(
                reached[-1] >> len(frontier) & 1)
        return self._bounds[frontier, gaps]


def _meet_all(sets):
    return reduce(meet, sets) if sets else frozenset()


def _sources_lan(grammar, sources):
    """The language set every (lexeme, variant index) under a token shares."""
    cells = [grammar.lexeme(lexeme).variants[variant].features.get("lan")
             for lexeme, variant in sources]
    return _meet_all([cell if isinstance(cell, frozenset) else frozenset()
                      for cell in cells])


def _candidate_sets(grammar, token, sources):
    """Language sets a token of a mixed string may take: the shared set of
    a fused token's sources, or every set of a variant of an unfused
    token's lexeme spelled as the token."""
    if len(sources) > 1:
        return [_sources_lan(grammar, sources)]
    variants = grammar.lexeme(sources[0][0]).variants
    cells = [v.features.get("lan") for v in variants if v.surface == token]
    return list(dict.fromkeys(cell for cell in cells
                              if isinstance(cell, frozenset)))


def _choose_candidates(per_token_candidates):
    """Pick one language set per token, favouring cross-token sharing.

    Score a candidate by how many other tokens it can agree with; break
    ties toward the larger (more shared) set, then deterministically.
    """
    unions = [frozenset().union(*cands) if cands else frozenset()
              for cands in per_token_candidates]
    chosen = []
    for i, cands in enumerate(per_token_candidates):
        if not cands:
            chosen.append(frozenset())
            continue
        def key(c):
            score = sum(1 for j, u in enumerate(unions)
                        if j != i and c & u)
            return (score, len(c), tuple(sorted(c)))
        chosen.append(max(sorted(cands, key=lambda c: tuple(sorted(c))), key=key))
    return tuple(chosen)


def _search(grammar, tokens, targets, goal):
    """(derived, final, lan, merged), in trace order, for every derivation
    in `grammar` along a path of `targets` that fuses to `tokens`; `merged`
    pairs each input token with its (lexeme, variant index) sources."""
    derivations = engine.enumerate_derivations(grammar, goal, EMPTY,
                                               targets=targets)
    dialects = frozenset(grammar.dialects)
    hits = []
    for derived, final in derivations:
        lan = final.features.get("lan", dialects)
        merged = fuse_with_sources(
            [(token, ((lexeme, variant),))
             for token, lexeme, variant in final.lexical],
            lan, grammar.fusion_rules)
        if tuple(token for token, _ in merged) == tokens:
            hits.append((derived, final, lan, merged))
    return hits


def _relaxed(grammar):
    """project_language(grammar), built once and kept on the grammar, so
    it is collected with it."""
    if grammar._relaxed is None:  # noqa: SLF001 - same-package friend
        grammar._relaxed = project_language(grammar)  # noqa: SLF001
    return grammar._relaxed  # noqa: SLF001


def recognize(grammar: Grammar, tokens, goal: str = "NP"):
    """Analyses of a surface string; raises NoAnalysis when none exist.

    Each analysis reports the collapsed root features, the language set
    consistent with the whole derivation, and the language set of every
    matched lexical variant token by token.  An analysis that only the
    projection finds names no dialect: its set is empty and it is mixed.
    A grammar without `lan` has no dialects to mix: its sets are empty
    and no analysis is mixed.
    """
    tokens = _as_tokens(tokens)
    if goal not in GOALS:
        raise InvalidSpec("goal must be one of %s" % (GOALS,))

    has_lan = bool(grammar.dialects)
    # the relaxed projection keeps every fusion rule: one lattice serves both
    targets = FusionLattice(tokens, grammar.fusion_rules)
    hits = _search(grammar, tokens, targets, goal)
    relaxed = not hits and has_lan
    if relaxed:
        hits = _search(_relaxed(grammar), tokens, targets, goal)
    if not hits:
        raise NoAnalysis("no derivation covers %r" % " ".join(tokens))

    analyses = []
    for derived, final, lan, merged in hits:
        if relaxed:  # no dialect has a derivation: name none
            per_token = _choose_candidates(
                [_candidate_sets(grammar, token, sources)
                 for token, sources in merged])
            lan_set = frozenset()
        else:
            per_token = tuple(_sources_lan(grammar, sources)
                              for _, sources in merged)
            lan_set = _meet_all(per_token + (lan,))
        analyses.append(Analysis(tokens=tokens, goal=goal,
                                 features=final.features,
                                 lan_set=lan_set, per_token_lan=per_token,
                                 trace=derived.history,
                                 mixed=has_lan and not lan_set))
    return sorted(analyses, key=lambda a: (
        tuple(sorted(a.lan_set)),
        tuple(tuple(sorted(s)) for s in a.per_token_lan),
        tuple(step.key() for step in a.trace)))


def _mixedness(analysis):
    per_token = analysis.per_token_lan
    return len(analysis.tokens) - max(
        (sum(d in s for s in per_token)
         for d in frozenset().union(*per_token)), default=0)


def identify_dialect(grammar: Grammar, tokens):
    """The language sets consistent with a string, or a mixed report.

    Unmixed analyses win: their language sets are unioned (empty for a
    grammar without `lan`).  Otherwise the fewest-mixed analysis (ties
    toward maximal dialect sharing) is reported token by token.
    """
    tokens = _as_tokens(tokens)
    collected = []
    for goal in ("NP", "Pred", "S"):
        try:
            collected.extend(recognize(grammar, tokens, goal))
        except NoAnalysis:
            continue
    if not collected:
        raise NoAnalysis("no derivation covers %r" % " ".join(tokens))
    unmixed = [a.lan_set for a in collected if not a.mixed]
    if unmixed:
        return frozenset().union(*unmixed)
    best = min(collected, key=lambda a: (
        _mixedness(a),
        -sum(len(s) for s in a.per_token_lan),
        tuple(step.key() for step in a.trace)))
    return MixedReport(tokens=tokens, per_token_lan=best.per_token_lan)
