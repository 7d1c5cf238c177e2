"""Exception hierarchy for the Gaea reproduction.

Every error raised by this library derives from :class:`GaeaError`, so
callers can catch a single base class.  Sub-hierarchies mirror the system
layers described in the paper: the ADT facility (system level), the
derivation-semantics level, the experiment level, the storage substrate,
and the query interpreter.
"""

from __future__ import annotations


class GaeaError(Exception):
    """Base class for every error raised by the Gaea reproduction."""


# ---------------------------------------------------------------------------
# System level (ADT facility)
# ---------------------------------------------------------------------------


class ADTError(GaeaError):
    """Base class for errors in the system-level (ADT) semantics layer."""


class TypeAlreadyRegisteredError(ADTError):
    """A primitive class with this name already exists in the registry."""


class UnknownTypeError(ADTError):
    """A primitive class name was not found in the type registry."""


class OperatorAlreadyRegisteredError(ADTError):
    """An operator with this name and signature already exists."""


class UnknownOperatorError(ADTError):
    """An operator name (or name+signature) was not found."""


class SignatureMismatchError(ADTError):
    """Arguments passed to an operator do not match its signature."""


class ValueRepresentationError(ADTError):
    """A value could not be parsed from / formatted to its external form."""


class DataflowError(ADTError):
    """Base class for compound-operator (dataflow network) errors."""


class DataflowCycleError(DataflowError):
    """The dataflow network contains a cycle and cannot be scheduled."""


class DataflowWiringError(DataflowError):
    """A node input is unconnected or connected more than once."""


# ---------------------------------------------------------------------------
# Derivation-semantics level
# ---------------------------------------------------------------------------


class DerivationError(GaeaError):
    """Base class for derivation-semantics layer errors."""


class UnknownClassError(DerivationError):
    """A non-primitive class name was not found."""


class ClassAlreadyDefinedError(DerivationError):
    """A non-primitive class with this name already exists."""


class UnknownProcessError(DerivationError):
    """A process name was not found in the derivation manager."""


class ProcessAlreadyDefinedError(DerivationError):
    """A process with this name already exists (processes are immutable;
    edit by creating a new process, never overwrite — paper §2.1.4)."""


class AssertionViolatedError(DerivationError):
    """A template assertion (guard rule) failed for the supplied inputs."""


class MappingError(DerivationError):
    """An attribute mapping could not be evaluated."""


class CompoundExpansionError(DerivationError):
    """A compound process could not be expanded into primitive processes."""


class TaskExecutionError(DerivationError):
    """A task (process instantiation) failed while executing."""


class UnderivableError(DerivationError):
    """Back-propagation reached base classes without finding needed data
    (paper §2.1.6 step 3: 'we fail to find the needed data')."""


class InteractionRequiredError(DerivationError):
    """The process declares interaction points (paper §4.3: supervised
    classification 'requires interaction with the scientist') and no
    interaction handler was supplied."""


# ---------------------------------------------------------------------------
# Experiment (high) level
# ---------------------------------------------------------------------------


class ExperimentError(GaeaError):
    """Base class for high-level (experiment/concept) layer errors."""


class UnknownConceptError(ExperimentError):
    """A concept name was not found in the concept hierarchy."""


class ConceptAlreadyDefinedError(ExperimentError):
    """A concept with this name already exists."""


class ConceptCycleError(ExperimentError):
    """Adding this ISA edge would create a cycle in the concept DAG."""


class UnknownExperimentError(ExperimentError):
    """An experiment identifier was not found."""


# ---------------------------------------------------------------------------
# Storage substrate
# ---------------------------------------------------------------------------


class StorageError(GaeaError):
    """Base class for storage-engine errors."""


class RelationExistsError(StorageError):
    """A relation with this name already exists in the catalog."""


class UnknownRelationError(StorageError):
    """A relation name was not found in the catalog."""


class PageFullError(StorageError):
    """A slotted page has no room for the requested tuple."""


class TupleNotFoundError(StorageError):
    """No tuple with the requested TID/visibility exists."""


class TransactionError(StorageError):
    """Illegal transaction state transition (e.g. commit after abort)."""


class WALError(StorageError):
    """The write-ahead log is corrupt or out of sequence."""


class IndexError_(StorageError):
    """An index operation failed (named with underscore to avoid shadowing
    the builtin :class:`IndexError`)."""


# ---------------------------------------------------------------------------
# Query interpreter
# ---------------------------------------------------------------------------


class QueryError(GaeaError):
    """Base class for query-interpreter errors."""


class LexError(QueryError):
    """The lexer met an unexpected character."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class ParseError(QueryError):
    """The parser met an unexpected token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column


class PlanningError(QueryError):
    """The optimizer could not produce an execution plan."""


class ExecutionError(QueryError):
    """The executor failed while running a plan."""


class BindError(QueryError):
    """Bind parameters do not match a statement's placeholders
    (missing, extra, or wrongly typed values)."""


class InterfaceError(QueryError):
    """The client API was used incorrectly (e.g. a closed connection
    or cursor, or an illegal transaction state transition)."""


# ---------------------------------------------------------------------------
# Extent algebra
# ---------------------------------------------------------------------------


class ExtentError(GaeaError):
    """Base class for spatial/temporal extent errors."""


class SpatialError(ExtentError):
    """Invalid spatial extent or incompatible reference systems."""


class TemporalError(ExtentError):
    """Invalid temporal value or interval."""
