"""The .grasp file format and result-document serialization.

A grasp file is a small YAML document:

    name: three-contact
    contacts:
      - {position: [-1.0, 0.0], normal: [-1.0, 0.0], mu: 0.5}
      - {position: [0.0, -1.0], normal: [0.0, -1.0], mu: 0.5}
    stiffness: 1.0           # scalar or per-contact list (default 1)
    preload: none            # or per-contact [c_n, c_t] pairs
    options:
      detachment: true

Unknown fields are rejected. Result documents are JSON with full float
precision so runs round-trip and diff cleanly; timing fields are the
only non-deterministic part.
"""

from __future__ import annotations

import json

import numpy as np
import yaml

from .model import Contact, GraspModel, Options, validate_model

__all__ = [
    "GraspFileError",
    "GraspValidationError",
    "parse_grasp_text",
    "load_grasp_file",
    "format_grasp",
    "dumps_result",
]


class GraspFileError(ValueError):
    """Syntactically or structurally invalid grasp file."""


class GraspValidationError(ValueError):
    """Well-formed file describing a physically invalid model."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


_TOP_FIELDS = {"name", "contacts", "stiffness", "preload", "options"}
_CONTACT_FIELDS = {"position", "normal", "mu"}
_OPTION_FIELDS = {"detachment"}


def _number(value, ctx):
    # YAML's true and false would pass float() as 1 and 0
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise GraspFileError(f"{ctx}: expected a number, got {value!r}")


def _pair(value, ctx):
    try:
        x, y = value
    except (TypeError, ValueError) as exc:
        raise GraspFileError(f"{ctx}: expected a pair of numbers, got {value!r}") from exc
    return [_number(x, ctx), _number(y, ctx)]


def parse_grasp_text(text: str) -> tuple[GraspModel, str]:
    """Parse and validate a grasp document; returns (model, name)."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark else ""
        raise GraspFileError(f"not valid YAML{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraspFileError("grasp file must be a mapping")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise GraspFileError(f"unknown field(s): {', '.join(sorted(unknown))}")
    # a bare "name:" reads as None
    name = doc.get("name")
    if isinstance(name, (list, dict)):
        raise GraspFileError(f"name: expected a scalar, got {name!r}")

    raw_contacts = doc.get("contacts")
    if raw_contacts is None or not isinstance(raw_contacts, list):
        raise GraspFileError("'contacts' must be a list")
    if not raw_contacts:
        raise GraspValidationError(["model has no contacts"])
    contacts = []
    for i, entry in enumerate(raw_contacts):
        ctx = f"contact {i}"
        if not isinstance(entry, dict):
            raise GraspFileError(f"{ctx}: must be a mapping")
        unknown = set(entry) - _CONTACT_FIELDS
        if unknown:
            raise GraspFileError(f"{ctx}: unknown field(s): {', '.join(sorted(unknown))}")
        missing = _CONTACT_FIELDS - set(entry)
        if missing:
            raise GraspFileError(f"{ctx}: missing field(s): {', '.join(sorted(missing))}")
        contacts.append(Contact(
            _pair(entry["position"], f"{ctx} position"),
            _pair(entry["normal"], f"{ctx} normal"),
            _number(entry["mu"], f"{ctx} mu"),
        ))
    m = len(contacts)

    stiffness = doc.get("stiffness", 1.0)
    if isinstance(stiffness, list):
        if len(stiffness) != m:
            raise GraspFileError(f"stiffness list has {len(stiffness)} entries for {m} contacts")
        stiffness = [_number(k, f"stiffness {i}")
                     for i, k in enumerate(stiffness)]
    else:
        stiffness = _number(stiffness, "stiffness")

    preload = doc.get("preload", "none")
    if preload in ("none", None):
        preload = None
    elif isinstance(preload, list):
        if len(preload) != m:
            raise GraspFileError(f"preload list has {len(preload)} entries for {m} contacts")
        preload = [_pair(p, f"preload {i}") for i, p in enumerate(preload)]
    else:
        raise GraspFileError(f"preload must be 'none' or a list of pairs, got {preload!r}")

    options = doc.get("options", {}) or {}
    if not isinstance(options, dict):
        raise GraspFileError("'options' must be a mapping")
    unknown = set(options) - _OPTION_FIELDS
    if unknown:
        raise GraspFileError(f"options: unknown field(s): {', '.join(sorted(unknown))}")
    detachment = options.get("detachment", True)
    if not isinstance(detachment, bool):
        raise GraspFileError(
            f"options: detachment: expected true or false, got {detachment!r}")
    opts = Options(detachment=detachment)

    model = GraspModel(contacts, stiffness=stiffness, preload=preload, options=opts)
    violations = validate_model(model)
    if violations:
        raise GraspValidationError(violations)
    return model, "unnamed" if name is None else str(name)


def load_grasp_file(path) -> tuple[GraspModel, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraspFileError(f"cannot read {path}: {exc}") from exc
    return parse_grasp_text(text)


def format_grasp(model: GraspModel, name: str = "generated") -> str:
    """Render a model back to the file format."""
    lines = [f"name: {name}", "contacts:"]
    for c in model.contacts:
        px, py = (float(v) for v in c.position)
        nx, ny = (float(v) for v in c.normal)
        lines.append(
            f"  - {{position: [{px!r}, {py!r}], "
            f"normal: [{nx!r}, {ny!r}], mu: {float(c.mu)!r}}}")
    ks = model.stiffness
    if np.all(ks == ks[0]):
        lines.append(f"stiffness: {float(ks[0])!r}")
    else:
        lines.append("stiffness: [" + ", ".join(repr(float(k)) for k in ks) + "]")
    if not np.any(model.preload):
        lines.append("preload: none")
    else:
        lines.append("preload:")
        for c0n, c0t in model.preload:
            lines.append(f"  - [{float(c0n)!r}, {float(c0t)!r}]")
    lines.append("options:")
    lines.append(f"  detachment: {'true' if model.options.detachment else 'false'}")
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def dumps_result(doc: dict) -> str:
    """Serialize a result document; floats keep full round-trip precision."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True)
