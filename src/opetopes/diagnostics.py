"""Machine-readable validation diagnostics and error types shared by all modules."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    """One axiom violation: which rule broke, on which cells."""

    code: str
    cells: tuple[str, ...]
    axiom: str
    message: str

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "cells": list(self.cells),
            "axiom": self.axiom,
            "message": self.message,
        }


def sort_key(d: Diagnostic) -> tuple:
    return (d.code, d.cells, d.message)


def make(code: str, cells, axiom: str, message: str) -> Diagnostic:
    return Diagnostic(code, tuple(cells), axiom, message)


class ValidationError(Exception):
    """Raised by a validator on a broken input (never on translator output); carries every diagnostic."""

    def __init__(self, diagnostics):
        self.diagnostics = sorted(diagnostics, key=sort_key)
        lines = "; ".join(f"{d.code}({','.join(d.cells)})" for d in self.diagnostics[:8])
        more = "" if len(self.diagnostics) <= 8 else f" (+{len(self.diagnostics) - 8} more)"
        super().__init__(f"{len(self.diagnostics)} violation(s): {lines}{more}")


class ParseError(Exception):
    """Malformed document; carries an optional (line, column) location."""

    def __init__(self, message: str, location: tuple[int, int] | None = None):
        self.location = location
        if location is not None:
            message = f"{message} (line {location[0]}, column {location[1]})"
        super().__init__(message)


def json_path(where: tuple, *keys) -> str:
    """The JSON path of field where = (array, index, field) and keys below it; built only for an error."""
    array, i, field = where
    return f"{array}[{i}].{field}" + "".join(f"[{json.dumps(k)}]" for k in keys)


def check_id(value, where: tuple, *keys, strict: bool = False) -> None:
    """ParseError unless value is an id: never a container, and when strict a non-empty string (else BadId reports it)."""
    if type(value) is str and value:
        return
    if isinstance(value, (list, dict)):
        raise ParseError(f"{json_path(where, *keys)} must be an id, not an {'array' if isinstance(value, list) else 'object'}")
    if strict:
        kind = "non-empty string" if value == "" else "string"
        raise ParseError(f"{json_path(where, *keys)} must be a {kind} id, not {json.dumps(value)}")


def check_ids(value, where: tuple, *keys, container=list, strict: bool = False) -> None:
    """ParseError unless value is an array (or an object, for container=dict) whose values pass check_id."""
    if not isinstance(value, container):
        raise ParseError(f"{json_path(where, *keys)} must be an {'array' if container is list else 'object'} of ids")
    for key, v in value.items() if container is dict else enumerate(value):
        if type(v) is not str or not v:  # inline: a call per id costs more than the rest of the read
            check_id(v, where, *keys, key, strict=strict)


class InternalError(Exception):
    """A guard tripped on a state that valid input cannot reach."""


class IncomparableLoops(Exception):
    """Two loops admit no order; only reachable from an invalid complex."""


class NotAnIsomorphism(Exception):
    """A proposed structure map fails the isomorphism conditions."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures[:6]))


class RoundTripBroken(Exception):
    """A round-trip witness failed to verify; indicates an implementation bug."""
