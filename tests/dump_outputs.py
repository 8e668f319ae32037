"""Every output the package gives on the shipped grammar, as one text in
which each set and mapping is sorted, so two builds, or two hash seeds,
can be compared by a digest:

- `generate` over the whole semantic-spec space (`dialect_claim.SPACE`),
  with lan open and fixed to each dialect: tokens, language set,
  alternatives, trace and features of each realization;
- both paradigm tables;
- `recognize` of every golden form under its own goal and under S, and
  `identify_dialect` of it;
- the grammar specialized to each dialect, as `serialize` writes it.

    PYTHONPATH=src python tests/dump_outputs.py [--digest]

prints the dump, or with `--digest` only its sha256.
"""

import dataclasses
import hashlib
import sys
from dataclasses import replace

from creoletag.creole import DIALECTS, grammar_text
from creoletag.dsl import load_grammar, serialize
from creoletag.errors import CreoleTagError
from creoletag.featstruct import FeatureStruct
from creoletag.generate import format_table, generate, table_np, table_tma
from creoletag.recognize import identify_dialect, recognize
from creoletag.specialize import specialize
from dialect_claim import SPACE
from test_recognizer import _golden_strings


def canon(obj):
    """A text for `obj` that does not depend on the hash seed."""
    if isinstance(obj, (set, frozenset)):
        return "{%s}" % ", ".join(sorted(map(canon, obj)))
    if isinstance(obj, FeatureStruct):
        return "[%s]" % ", ".join("%s: %s" % (attr, canon(cell))
                                  for attr, cell in sorted(obj.items()))
    if dataclasses.is_dataclass(obj):
        return "%s(%s)" % (type(obj).__name__, ", ".join(
            "%s=%s" % (f.name, canon(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)))
    if hasattr(obj, "_fields"):  # a NamedTuple
        return "%s(%s)" % (type(obj).__name__, ", ".join(
            "%s=%s" % (name, canon(value))
            for name, value in zip(obj._fields, obj)))
    if isinstance(obj, (tuple, list)):
        return "(%s%s)" % (", ".join(map(canon, obj)), "," * (len(obj) == 1))
    return repr(obj)


def outcome(call, *args):
    """canon() of what call(*args) returns, or the error it raises."""
    try:
        return canon(call(*args))
    except CreoleTagError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def dump():
    grammar = load_grammar(grammar_text())
    for spec in SPACE:
        for lan in (None,) + tuple(frozenset((d,)) for d in DIALECTS):
            request = replace(spec, lan=lan)
            yield "generate %s -> %s" % (canon(request),
                                         outcome(generate, grammar, request))
    for table in (table_np, table_tma):
        yield format_table(grammar, table(grammar))
    for form, goal in _golden_strings():
        for target in sorted({goal, "S"}):
            yield "recognize %s %r -> %s" % (
                target, form, outcome(recognize, grammar, form, target))
        yield "identify_dialect %r -> %s" % (
            form, outcome(identify_dialect, grammar, form))
    for dialect in DIALECTS:
        yield serialize(specialize(grammar, dialect))


def main(argv):
    text = "\n".join(dump()) + "\n"
    if argv == ["--digest"]:
        print(hashlib.sha256(text.encode("utf-8")).hexdigest())
    elif argv:
        sys.exit("usage: dump_outputs.py [--digest]")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
