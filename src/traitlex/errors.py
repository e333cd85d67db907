"""Exception types shared across the package.

Everything raised on bad data or bad arguments derives from TraitlexError
so callers (the command line tool in particular) can distinguish data
problems from programming errors.
"""


class TraitlexError(Exception):
    """Base class for all errors raised by this package."""


class CorpusFormatError(TraitlexError):
    """A corpus file or record is malformed."""


class FilterRejection(TraitlexError):
    """A sample failed the filter policy attached to an operation."""

    def __init__(self, sample_id: str, reason: str):
        super().__init__(f"sample {sample_id!r} rejected by filter rule {reason!r}")
        self.sample_id = sample_id
        self.reason = reason


class EmptyBinError(TraitlexError):
    """One or more score bins received no samples during model building."""


class DegenerateDistributionError(TraitlexError):
    """Aggregation produced zero mass in every bin."""


class ModelFormatError(TraitlexError):
    """A traitlex JSON file (a model, bank, catalog, generator spec or store
    manifest) is not an object, has another format tag or version, or holds a
    malformed field."""


class ModelIntegrityError(TraitlexError):
    """A traitlex JSON file is not valid JSON or fails its checksum."""


class DatasetError(TraitlexError):
    """A dataset violates a structural requirement."""


class TrainingError(TraitlexError):
    """Training could not proceed on the given data."""


class SurveyError(TraitlexError):
    """A survey, questionnaire response, or question definition is invalid."""
