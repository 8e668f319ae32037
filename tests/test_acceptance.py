"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print.
"""

import time
from contextlib import contextmanager

import pytest

from creoletag import engine
from creoletag.creole import golden_path
from creoletag.dsl import serialize
from creoletag.errors import UnificationFailure
from creoletag.featstruct import FeatureStruct, unify
from creoletag.generate import (apply_fusion, format_table, generate,
                                golden_corpus, realizations_from_finals,
                                table_np, table_tma, _goal_for)
from creoletag.recognize import MixedReport, identify_dialect, recognize
from creoletag.specialize import equivalence_check, specialize
from test_specializer import unquoted_atoms

DIALECTS = ("HT", "GP", "MQ", "GF")


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (number, title))
        raise
    print("criterion %d (%s): PASS" % (number, title))


def test_criterion_1_table_np_golden(grammar):
    with criterion(1, "noun-phrase table reproduction"):
        started = time.monotonic()
        text = format_table(grammar, table_np(grammar))
        elapsed = time.monotonic() - started
        golden = golden_path("np").read_text(encoding="utf-8")
        assert text == golden
        rows = text.splitlines()[1:]
        assert len(rows) == 15
        assert sum(len(r.split("\t")) - 1 for r in rows) == 60
        for needle in ("moun nan", "sé zozyo la", "sa tab a", "moun sa yo"):
            assert needle in text
        assert elapsed < 5.0, "took %.1fs" % elapsed


def test_criterion_2_table_tma_golden(grammar):
    with criterion(2, "tense/aspect table reproduction"):
        started = time.monotonic()
        text = format_table(grammar, table_tma(grammar))
        elapsed = time.monotonic() - started
        golden = golden_path("tma").read_text(encoding="utf-8")
        assert text == golden
        rows = text.splitlines()[1:]
        assert len(rows) == 12
        assert sum(len(r.split("\t")) - 1 for r in rows) == 48
        for needle in ("vap danse", "ta vap danse", "sé dansé",
                       "ka dansé / dansé", "k'alé dansé / kay dansé"):
            assert needle in text
        assert elapsed < 5.0, "took %.1fs" % elapsed


def test_criterion_3_blocked_adjunctions(grammar):
    with criterion(3, "blocked cross-dialect adjunctions"):
        # a GP/MQ fused demonstrative cannot land on a Haitian one
        derived = engine.instantiate(grammar, "alpha-N", "PERSON", 0)
        sa = engine.instantiate(grammar, "aux-Dem-ht", "DEM_HT", 0)
        derived = engine.adjoin(grammar, derived, (), sa)
        lasa = engine.instantiate(grammar, "aux-Dem-Det-gpmq", "DEM_ART", 0)
        with pytest.raises(UnificationFailure):
            engine.adjoin(grammar, derived, (), lasa)
        # the general imperfective particle cannot unify once lan is Haitian
        pred = engine.instantiate(grammar, "alpha-Pred", "DANCE", 0)
        ka = engine.instantiate(grammar, "aux-Imperfective-general",
                                "IMPF_KA", 0)
        with pytest.raises(UnificationFailure):
            engine.adjoin(grammar, pred, (), ka)


def test_criterion_4_unification_algebra():
    from test_featstruct import ALG_SCHEMA, STRUCTURES, u, unification_table
    with criterion(4, "unification algebra, exhaustive"):
        assert len(STRUCTURES) == 64
        index, table = unification_table(ALG_SCHEMA, STRUCTURES)
        n = len(STRUCTURES)
        violations = 0
        for i, a in enumerate(STRUCTURES):
            if u(a, a, ALG_SCHEMA) != a:
                violations += 1
            for j in range(n):
                if table[i, j] != table[j, i]:
                    violations += 1
        for i in range(n):
            for j in range(n):
                ij = table[i, j]
                for k in range(n):
                    jk = table[j, k]
                    left = None if ij is None else table[ij, k]
                    right = None if jk is None else table[i, jk]
                    if left != right:
                        violations += 1
        assert violations == 0


def test_criterion_5_specialization_equivalence(grammar):
    with criterion(5, "specialization equivalence and erasure"):
        corpus = golden_corpus()
        for dialect in DIALECTS:
            report = equivalence_check(grammar, dialect, corpus)
            assert report.ok, report.mismatches
            text = serialize(specialize(grammar, dialect))
            atoms = unquoted_atoms(text)
            assert "lan" not in atoms


def _corpus_realizations(grammar):
    """Every (tokens, goal, dialect, goal features) the golden corpus
    generates, built one dialect at a time so alternatives stay with
    their dialect.  The goal features carry no lan binding: a shared
    form's analysis legitimately covers more dialects than requested."""
    from dataclasses import replace

    from creoletag.errors import NoRealization

    from creoletag.featstruct import erase_attribute

    out = []
    for spec in golden_corpus():
        goal = "NP" if spec.pred is None else "Pred"
        goal_fss = (erase_attribute(_goal_for(grammar, spec)[1], "lan"),)
        for dialect in DIALECTS:
            try:
                reals = generate(grammar,
                                 replace(spec, lan=frozenset([dialect])))
            except NoRealization:
                continue
            for real in reals:
                for variant_tokens in (real.tokens,) + real.alternatives:
                    out.append((variant_tokens, goal, dialect, goal_fss))
    seen = set()
    unique = []
    for item in out:
        if item not in seen:
            seen.add(item)
            unique.append(item)
    return unique


def test_criterion_6_round_trip(grammar):
    with criterion(6, "generate/recognize round trip"):
        cache = {}
        checked = 0
        for tokens, goal, dialect, goal_fss in _corpus_realizations(grammar):
            if (tokens, goal) not in cache:
                cache[tokens, goal] = recognize(grammar, tokens, goal)
            analyses = cache[tokens, goal]
            good = []
            for analysis in analyses:
                if dialect not in analysis.lan_set:
                    continue
                # the analysis must cover the generating reading; forms
                # ambiguous across readings (zero marks, ka) stay more
                # general than the goal, so compatibility is the check
                if all(unify(analysis.features, fs) is None
                       for fs in goal_fss):
                    continue
                replayed = engine.replay(grammar, analysis.trace)
                final = engine.finalize(grammar, replayed)
                fused = apply_fusion(list(final.frontier), analysis.lan_set,
                                     grammar.fusion_rules)
                if tuple(fused) == tokens:
                    good.append(analysis)
            assert good, "no replaying analysis for %r in %s" % (tokens, dialect)
            checked += 1
        assert checked >= 60


def test_criterion_7_oracle_equivalence(grammar, particle_lexemes):
    with criterion(7, "generator agrees with brute-force enumeration"):
        for spec in golden_corpus():
            category, goal_fs = _goal_for(grammar, spec)
            lexemes = set(particle_lexemes)
            if spec.pred:
                lexemes.add(spec.pred)
            for arg in spec.args:
                lexemes.add(arg.lexeme)
                if arg.complement:
                    lexemes.add(arg.complement)
            derivations = engine.enumerate_derivations(
                grammar, category, FeatureStruct(), lexemes=lexemes)
            finals = [(final, derived.history)
                      for derived, final in derivations
                      if unify(final.features, goal_fs) is not None]
            oracle = realizations_from_finals(grammar, finals, goal_fs)
            direct = generate(grammar, spec)
            key = lambda reals: [(r.tokens, tuple(sorted(r.lan_set)),
                                  r.alternatives) for r in reals]
            assert key(direct) == key(oracle), spec


def test_criterion_8_mixed_input_report(grammar):
    with criterion(8, "mixed-input dialect report"):
        report = identify_dialect(grammar, "sé zwazo la")
        assert isinstance(report, MixedReport)
        assert report.per_token_lan == (frozenset({"GP", "MQ"}),
                                        frozenset({"HT"}),
                                        frozenset({"GP", "MQ"}))
        assert identify_dialect(grammar, "té ké dansé") == \
            frozenset({"GP", "MQ", "GF"})
