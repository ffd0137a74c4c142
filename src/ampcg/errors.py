"""Exception types shared across the package, and the size caps behind
`TooLargeError`: every refusal past a cap goes through `check_cap`."""

from __future__ import annotations


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class DuplicateEdgeError(GraphError):
    """A node pair carries more than one edge."""


class SelfLoopError(GraphError):
    """An edge joins a node to itself."""


class SemidirectedCycleError(GraphError):
    """The edge set admits a semidirected cycle; one witness is attached."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("semidirected cycle: " + " -> ".join(self.cycle))


class UnknownNodeError(GraphError):
    """A referenced node is not declared in the graph."""


class NotChordalError(GraphError):
    """The undirected graph has a chordless cycle of length four or more."""


class NodeSetMismatchError(GraphError):
    """Two graphs that must share a node set do not."""


class InvalidQueryError(GraphError):
    """A separation query has overlapping or unknown node sets."""


class EmptyClassError(GraphError):
    """An equivalence class with no members was supplied."""


class TooLargeError(GraphError):
    """An enumeration exceeds its configured size cap."""


#: most edges a class enumeration, closure or split search takes (`--max-edges`)
MAX_EDGES = 16
#: most nodes in the `superset` adjusting-set base, whose every subset is a set
SUPERSET_CAP = 20
#: most sets the `maxoriented` mode grows; an undirected K_k grows 2^(k-1)
MAXORIENTED_CAP = 4096


def check_cap(count: int, cap: int, message: str) -> None:
    """Refuse past a size cap: TooLargeError with `message`, formatted with
    `count` and `cap`, when `count` exceeds `cap`."""
    if count > cap:
        raise TooLargeError(message.format(count=count, cap=cap))


class NotComponentsError(GraphError):
    """The supplied node sets are not chain components of the graph."""


class InfeasibleMergeError(GraphError):
    """The requested component merge violates a feasibility condition."""


class InfeasibleSplitError(GraphError):
    """The requested component split does not yield an equivalent chain graph."""


class InvalidStateError(GraphError):
    """A marked graph is not in the state an operation requires."""


class InvariantViolationError(GraphError):
    """An internal consistency invariant broke in the labeling machinery, or
    `parse_graph` rejected a document it cannot fault."""


class MixedStrongNeighborsError(GraphError):
    """A node has both strong and non-strong undirected neighbors."""


class NotNonStrongNeighborError(GraphError):
    """An orientation set contains a node outside the non-strong neighbors."""


class ParseError(Exception):
    """A graph document line could not be parsed."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ModelError(Exception):
    """A linear-Gaussian model violates its structural constraints, or a model
    quantity cannot be computed from the given covariance or data."""


class SingularSystemError(ModelError):
    """A structural linear system could not be solved."""


class SingularRegressionError(ModelError):
    """The regression design is collinear; offending columns are attached."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__("collinear regression columns: " + ", ".join(self.columns))
