import pytest

from creoletag import engine
from creoletag.creole import grammar_text, shipped_grammar
from creoletag.dsl import load_grammar


@pytest.fixture(scope="session")
def grammar():
    return shipped_grammar()


@pytest.fixture
def fresh_grammar():
    """The shipped grammar loaded anew, with its memos empty, so the
    engine calls a test counts do not depend on what ran before it."""
    return load_grammar(grammar_text())


@pytest.fixture(scope="session")
def particle_lexemes(grammar):
    """Lexeme ids of everything that is not a content word."""
    content = {"N", "V", "Nprop"}
    return {l.id for l in grammar.lexicon if l.category not in content}


@pytest.fixture
def engine_calls(monkeypatch):
    """Calls per engine operation from here to the end of the test.  The
    counts guard the 5 s table gates of criteria 1-2 and the recognizer's
    work on any machine."""
    calls = dict.fromkeys(("instantiate", "substitute", "adjoin", "finalize",
                           "enumerate_derivations", "_derive", "_final"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    return calls
