"""Recognition and dialect identification over the shipped grammar.

Fused Haitian forms are first expanded by reverse fusion lookup (tap ->
te ap), which gives every decomposition of the input.  One derivation
search then serves them all: each decomposition is a target frontier
with a step bound tied to its token count, partial derivations that no
target can still contain are cut, and the hits whose post-fusion
frontier equals the input are reported with the language sets
consistent with the whole string and with each word.

When no language-consistent derivation exists, the input is reparsed
with the language attribute erased from the whole grammar (built once
per grammar object).  Structurally valid but dialect-mixed strings then
come back flagged `mixed`, with a per-token report of which dialects
each word belongs to.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from . import engine
from .errors import InvalidSpec, NoAnalysis
from .featstruct import EMPTY, FeatureStruct
from .generate import apply_fusion, fuse_with_sources
from .grammar import Grammar
from .specialize import project_language

GOALS = ("NP", "S", "Pred", "N")


@dataclass(frozen=True)
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
    tokens = tuple(tokens)
    if not tokens:
        raise InvalidSpec("token string must not be empty")
    return tokens


def _decompositions(tokens, rules):
    """All ways to undo fusion replacements anywhere in the string."""
    results = set()

    def rec(i, acc):
        if i == len(tokens):
            results.add(tuple(acc))
            return
        rec(i + 1, acc + [tokens[i]])
        for rule in rules:
            width = len(rule.replacement)
            if tuple(tokens[i:i + width]) == rule.replacement:
                rec(i + width, acc + list(rule.pattern))

    rec(0, [])
    return sorted(results, key=lambda d: (len(d), d))


def _merged_token_sources(grammar, final, lan_for_fusion):
    """(token, ((lexeme, variant index), ...)) after fusion."""
    entries = [(token, ((lexeme, variant),))
               for token, lexeme, variant in final.lexical]
    return fuse_with_sources(entries, lan_for_fusion, grammar.fusion_rules)


def _variant_lan(grammar, lexeme_id, index):
    cell = grammar.lexeme(lexeme_id).variants[index].features.get("lan")
    return cell if isinstance(cell, frozenset) else frozenset()


def _meet_all(sets):
    out = None
    for s in sets:
        out = s if out is None else out & s
    return out if out is not None else frozenset()


def _candidate_sets(grammar, lexeme_id, surface):
    """Language sets of every variant of a lexeme sharing one surface."""
    seen = []
    for variant in grammar.lexeme(lexeme_id).variants:
        if variant.surface != surface:
            continue
        cell = variant.features.get("lan")
        if isinstance(cell, frozenset) and cell not in seen:
            seen.append(cell)
    return seen


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


def _search(grammar, tokens, goal, max_extra=2):
    """Derivations (in `grammar`) whose post-fusion frontier is `tokens`,
    grouped by decomposition in `_decompositions` order."""
    decomps = _decompositions(tokens, grammar.fusion_rules)
    frontiers = {decomp: len(decomp) + max_extra for decomp in decomps}
    derivations = engine.enumerate_derivations(
        grammar, goal, EMPTY, max(frontiers.values()), frontiers=frontiers)
    full = grammar.schema.full("lan") if "lan" in grammar.schema else None
    by_decomp = {decomp: [] for decomp in decomps}
    for derived, final in derivations:
        lan = final.features.get("lan", full) if full else frozenset()
        fused = tuple(apply_fusion(list(final.frontier), lan,
                                   grammar.fusion_rules))
        if fused != tokens:
            continue
        by_decomp[final.frontier].append((derived, final, lan))
    return [hit for decomp in decomps for hit in by_decomp[decomp]]


_RELAXED = {}  # id(grammar) -> project_language(grammar)


def _relaxed(grammar):
    """project_language(grammar), built once per grammar object.

    Grammar defines __eq__ and so is unhashable: the memo is keyed by
    identity, and an entry goes when its grammar does."""
    key = id(grammar)
    if key not in _RELAXED:
        relaxed = project_language(grammar)
        if relaxed is grammar:  # nothing erased; an entry would pin it
            return grammar
        _RELAXED[key] = relaxed
        weakref.finalize(grammar, _RELAXED.pop, key, None)
    return _RELAXED[key]


def recognize(grammar: Grammar, tokens, goal: str = "NP"):
    """Analyses of a surface string; raises NoAnalysis when none exist.

    Each analysis reports the collapsed root features, the language set
    consistent with the whole derivation, and the language set of every
    matched lexical variant token by token.
    """
    tokens = _as_tokens(tokens)
    if goal not in GOALS:
        raise InvalidSpec("goal must be one of %s" % (GOALS,))

    analyses = []
    for derived, final, lan in _search(grammar, tokens, goal):
        merged = _merged_token_sources(grammar, final, lan)
        per_token = tuple(
            _meet_all([_variant_lan(grammar, lex, var) for lex, var in sources])
            for _, sources in merged)
        lan_set = _meet_all(list(per_token) + [lan])
        analyses.append(Analysis(tokens=tokens, goal=goal,
                                 features=final.features,
                                 lan_set=lan_set, per_token_lan=per_token,
                                 trace=derived.history,
                                 mixed=not lan_set))
    if analyses:
        return _sorted_analyses(analyses)

    relaxed = _relaxed(grammar)
    for derived, final, _ in _search(relaxed, tokens, goal):
        merged = _merged_token_sources(relaxed, final, frozenset())
        candidates = []
        for token, sources in merged:
            if len(sources) == 1:
                # unfused: the token is the variant surface; consider every
                # variant of the same lexeme spelled this way
                candidates.append(_candidate_sets(grammar, sources[0][0], token))
            else:
                candidates.append(
                    [_meet_all([_variant_lan(grammar, lex, var)
                                for lex, var in sources])])
        per_token = _choose_candidates(candidates)
        lan_set = _meet_all(per_token)
        analyses.append(Analysis(tokens=tokens, goal=goal,
                                 features=final.features,
                                 lan_set=lan_set, per_token_lan=per_token,
                                 trace=derived.history,
                                 mixed=not lan_set))
    if not analyses:
        raise NoAnalysis("no derivation covers %r" % " ".join(tokens))
    return _sorted_analyses(analyses)


def _sorted_analyses(analyses):
    def key(a):
        return (tuple(sorted(a.lan_set)),
                tuple(tuple(sorted(s)) for s in a.per_token_lan),
                tuple(step.key() for step in a.trace))
    return sorted(analyses, key=key)


def _mixedness(analysis):
    union = frozenset().union(*analysis.per_token_lan) \
        if analysis.per_token_lan else frozenset()
    if not union:
        return len(analysis.tokens)
    best = max(sum(1 for s in analysis.per_token_lan if d in s) for d in union)
    return len(analysis.tokens) - best


def identify_dialect(grammar: Grammar, tokens):
    """The language sets consistent with a string, or a mixed report.

    Unmixed analyses win: their language sets are unioned.  Otherwise
    the fewest-mixed analysis (ties toward maximal dialect sharing) is
    reported token by token.
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
    unmixed = [a for a in collected if not a.mixed]
    if unmixed:
        out = frozenset()
        for analysis in unmixed:
            out |= analysis.lan_set
        return out
    best = min(collected, key=lambda a: (
        _mixedness(a),
        -sum(len(s) for s in a.per_token_lan),
        tuple(step.key() for step in a.trace)))
    return MixedReport(tokens=tokens, per_token_lan=best.per_token_lan)
