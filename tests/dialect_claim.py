"""The paper's claim, both ways, over the whole semantic-spec space: the
grammar with `lan` fixed to a dialect generates and recognizes what the
grammar specialized to that dialect does.  Generation is compared by
`equivalence_check`, on ordered (tokens, alternatives) lists: the
specialized grammar, one unnamed dialect, folds a doublet into one
realization with an alternative, as the whole grammar does under `lan`
fixed to the dialect.

    PYTHONPATH=src python tests/dialect_claim.py

runs the full sweep and exits 1 on a mismatch; tier-1 samples it
(`tests/test_specializer.py`).
"""

import itertools
import sys

from creoletag.creole import DIALECTS, grammar_text
from creoletag.dsl import load_grammar
from creoletag.errors import InvalidSpec, NoAnalysis, NoRealization
from creoletag.generate import ASPECTS, NUMBERS, TMA, NPSpec, SemSpec, generate
from creoletag.recognize import recognize
from creoletag.specialize import equivalence_check, specialize


def _bundles():
    out = []
    for flags in itertools.product((False, True), repeat=4):
        for asp in ASPECTS:
            try:
                out.append(TMA(*flags, asp=asp))
            except InvalidSpec:
                continue
    return out


_NPS = [NPSpec(noun, nbr, spe, dem, complement)
        for noun in ("PERSON", "TABLE", "DOG", "BIRD") for nbr in NUMBERS
        for spe, dem in ((False, False), (True, False), (True, True))
        for complement in (None, "SAINT-THOMAS", "SAINT-LAURENT")]
# every noun phrase, predicate and sentence a request can ask for: 2 116
SPACE = [SemSpec(args=(np,)) for np in _NPS] + \
    [SemSpec(pred="DANCE", tma=tma) for tma in _bundles()] + \
    [SemSpec(pred="DANCE", tma=tma, args=(np,))
     for np in _NPS for tma in _bundles()]


def goal_of(spec):
    return "NP" if spec.pred is None else "S" if spec.args else "Pred"


def generated(grammar, spec):
    """The token tuples a request gives, alternatives included."""
    try:
        reals = generate(grammar, spec)
    except NoRealization:
        return set()
    return {tokens for real in reals
            for tokens in (real.tokens,) + real.alternatives}


def perturbed(tokens):
    """A generated string and three strings near it: reversed, its last
    token dropped, and its first two tokens swapped."""
    out = {tokens, tokens[::-1], tokens[:-1], tokens[1:2] + tokens[:1]
           + tokens[2:]}
    return sorted(variant for variant in out if variant)


def dialects(grammar, tokens, goal):
    """The dialects the string has an analysis in: those its analyses
    name, or every one where a grammar without `lan` has one."""
    try:
        analyses = recognize(grammar, tokens, goal)
    except NoAnalysis:
        return frozenset()
    if not grammar.dialects:
        return frozenset(DIALECTS)
    return frozenset().union(*(analysis.lan_set for analysis in analyses))


def recognition_mismatches(grammar, specialized, tokens, goal):
    """The dialects whose specialized grammar analyses the string where
    the whole grammar does not analyse it in that dialect, or the
    reverse."""
    base = dialects(grammar, tokens, goal)
    return [(tokens, goal, dialect) for dialect, mono in specialized.items()
            if (dialect in base) != bool(dialects(mono, tokens, goal))]


def main():
    grammar = load_grammar(grammar_text())
    found = [mismatch for dialect in DIALECTS for mismatch
             in equivalence_check(grammar, dialect, SPACE).mismatches]
    specialized = {d: specialize(grammar, d) for d in DIALECTS}
    inputs = sorted({(variant, goal_of(spec)) for spec in SPACE
                     for tokens in generated(grammar, spec)
                     for variant in perturbed(tokens)})
    found.extend(mismatch for tokens, goal in inputs
                 for mismatch in recognition_mismatches(
                     grammar, specialized, tokens, goal))
    for mismatch in found:
        print(mismatch)
    print("%d generation and %d recognition checks, %d mismatches"
          % (len(SPACE) * len(DIALECTS), len(inputs) * len(DIALECTS),
             len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
