"""Exception types shared across the package, and its JSON writer and checked reader."""

import json


class SgdetectError(Exception):
    """Base class for all package errors."""


class InvalidLevelError(SgdetectError):
    """Refinement level outside the admissible range (h >= 1)."""


class EmptyGridError(SgdetectError):
    """Multi-index rule admits no multi-index at the requested level."""


class DegenerateGraphError(SgdetectError):
    """Grid graph has no edges or an isolated/unreachable node."""


class DetectorError(SgdetectError):
    """Detector misuse: wrong grid size, unsupported cut family, bad parameter."""


class DimensionMismatchError(SgdetectError):
    """Objects built for different space dimensions were combined."""


class DegenerateDatasetError(SgdetectError):
    """Dataset balancing or splitting cannot proceed (e.g. no labeled samples)."""


class TrainingDivergedError(SgdetectError):
    """Training loss became non-finite; carries a diagnostic state dump."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class EngineError(SgdetectError):
    """Detection-engine configuration or state error."""


class ConfigError(SgdetectError):
    """Bad run configuration (CLI / config file)."""


class MalformedFileError(SgdetectError):
    """An input file (dataset, model, run report, image) cannot be parsed."""


def write_document(path, doc: dict, indent: int | None = 1, sort_keys: bool = False) -> None:
    """Write ``doc`` as JSON and a newline: ``indent=None`` puts it on one line
    (model files), ``sort_keys`` orders every mapping (dataset headers)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=sort_keys)
        fh.write("\n")


def read_document(path, kind: str, version: int) -> dict:
    """Load a JSON document and check that it is a ``kind`` document of
    ``version``, the one version its reader reads."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise MalformedFileError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise MalformedFileError(f"{path} is not a {kind} file")
    if doc.get("version") != version:
        raise MalformedFileError(f"{path} is a {kind} file of version {doc.get('version')!r}; "
                                 f"only version {version} is read")
    return doc
