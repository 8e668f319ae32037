"""Exception taxonomy shared across the toolkit.

Expected linguistic failures (an adjunction that does not unify, an input
with no analysis) are distinct from grammar bugs (undeclared attributes,
malformed trees); callers that search a derivation space catch the former
and treat them as dead branches.
"""


class CreoleTagError(Exception):
    """Base class for every error raised by this package."""


# --- feature structures ---------------------------------------------------

class UndeclaredAttribute(CreoleTagError):
    """An attribute or a value was used that no domain declaration covers."""


# --- grammar files ---------------------------------------------------------

class GrammarSyntaxError(CreoleTagError):
    """Malformed grammar source text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


class ValidationError(CreoleTagError):
    """A grammar failed validation; carries the list of findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        super().__init__("; ".join(self.findings))


class EmptyGrammar(CreoleTagError):
    """Specialization left no usable trees behind."""


class DivergentGrammar(CreoleTagError):
    """A search met a state again: the grammar derives without end."""

    def __init__(self, tree, label):
        self.tree, self.label = tree, label
        super().__init__("the grammar derives without end: tree %r leads "
                         "back to the %s state it was applied at, anchoring "
                         "no content lexeme or token between" % (tree, label))


# --- derivation operations -------------------------------------------------

class UnificationFailure(CreoleTagError):
    """Two feature structures required by an operation do not unify."""


class AnchorUnificationFailure(UnificationFailure):
    """A lexeme variant is incompatible with the tree it should anchor."""


class NotASubstitutionSite(CreoleTagError):
    """Substitution aimed at a node that cannot accept the filler."""


class LabelMismatch(CreoleTagError):
    """Adjunction target label differs from the auxiliary root label."""


class NotAnAdjunctionSite(CreoleTagError):
    """Adjunction aimed at a leaf, a foot, or an already-adjoined node."""


class PendingSite(CreoleTagError):
    """finalize() was called while substitution sites remain open."""


class CollapseFailure(CreoleTagError):
    """A node's top and bottom features do not unify at finalize time."""

    def __init__(self, address, attr=None):
        self.address = tuple(address)
        self.attr = attr
        detail = " on %r" % (attr,) if attr else ""
        super().__init__("top/bottom collapse failed at node %s%s"
                         % (_fmt_address(self.address), detail))


# --- generation / recognition ----------------------------------------------

class InvalidSpec(CreoleTagError):
    """A semantic specification violates its construction rules."""


class NoRealization(CreoleTagError):
    """The grammar derives nothing for the given semantic specification."""


class NoAnalysis(CreoleTagError):
    """No derivation covers the input token string."""


class MissingCell(CreoleTagError):
    """A paradigm table cell could not be generated."""

    def __init__(self, row, dialect):
        self.row = row
        self.dialect = dialect
        super().__init__("no form for table cell (%s, %s)" % (row, dialect))


def _fmt_address(address):
    if not address:
        return "<root>"
    return ".".join(str(i) for i in address)
