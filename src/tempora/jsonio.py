"""JSON wire formats for criteria, costs, operators and panels.

Stream encoding lives in :mod:`tempora.streams`; everything else is here.
Decoders raise :class:`tempora.errors.ParseError` carrying the offending
field, or the line/column for malformed JSON files.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from .discounting import CostFunction, Criterion, _Cost, _Criterion
from .errors import ParseError, decoding, numeric, tagged
from .streams import stream_from_dict, stream_to_dict  # noqa: F401  (re-export)

if TYPE_CHECKING:   # imported where used, so that a stream command loads neither
    from .eigen import OperatorMatrix
    from .panel import ExpertPanel


def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bytes that are not UTF-8, nesting too deep
        raise ParseError(f"{path}: {exc}") from exc


# -- cost functions and criteria -------------------------------------------
#
# Each class owns its tag and its body (``discounting.TAGS``); these are
# the package's entry points to that one table.

def cost_to_dict(c: CostFunction) -> dict:
    if not isinstance(c, _Cost):
        raise ParseError(f"not a cost function: {c!r}")
    return c.to_dict()


def cost_from_dict(data: dict) -> CostFunction:
    return _Cost.from_dict(data)


def criterion_to_dict(k: Criterion) -> dict:
    if not isinstance(k, _Criterion):
        raise ParseError(f"not a criterion: {k!r}")
    return k.to_dict()


def criterion_from_dict(data: dict) -> Criterion:
    return _Criterion.from_dict(data)


# -- operators --------------------------------------------------------------

def operator_from_dict(data: dict) -> OperatorMatrix:
    from .eigen import OperatorMatrix, builtin_operator
    tag, body = tagged(data, "operator", ("builtin", "matrix"))
    with decoding(tag):
        if tag == "matrix":
            return OperatorMatrix(np.asarray(numeric(body, tag), dtype=float))
        n = body["n"]
        if type(n) is not int:
            raise ParseError(f"operator dimension must be an integer, got {n!r}", field="n")
        return builtin_operator(body["name"], n, sigma=numeric(body.get("sigma"), "sigma"),
                                factor=numeric(body.get("factor"), "factor"))


# -- panels -----------------------------------------------------------------

def panel_to_dict(panel: ExpertPanel) -> dict:
    return {"factors": list(panel.factors), "confidences": list(panel.confidences)}


def panel_from_dict(data: dict) -> ExpertPanel:
    from .panel import ExpertPanel
    if not isinstance(data, dict) or "factors" not in data:
        raise ParseError("panel object needs a 'factors' entry", field="factors")
    with decoding("factors"):
        return ExpertPanel(factors=tuple(numeric(data["factors"], "factors")),
                           confidences=tuple(numeric(data.get("confidences", []), "confidences")))
